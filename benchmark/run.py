#!/usr/bin/env python3
"""The sternseq benchmark: one seeded workload, timed and checked.

Run from the root of the repository:

    python3 benchmark/run.py --workload census --seed 1 --seconds 12 --trace 0

Set-up imports sternseq from ./src and draws the workload's inputs from
the seed, five times, and reports the median as `setup_s`.  The timed
phase then runs whole rounds of operations, one at a time in this one
process (or, for `cli`, one child process at a time), until the CPU
time spent inside operations reaches --seconds.  Times are CPU time
scaled to a reference machine speed (see `calibrate`).  Each output is
checked outside the timed phase.  The last line of standard output is a
JSON object with `correct`, `attempted`, `failed` and `metrics`.

With --trace 1 the run reports per-layer metrics instead: it runs each
round untraced and then again with spans around every public sternseq
function (see tracing.py), for half of --seconds, and reports each
layer's self time and counts per round.
"""

import argparse
import dataclasses
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_REPS = 5
PROBE_REPS = 5
MODULES = ("core", "enumeration", "moddist", "exactalg", "smalld", "sums",
           "cli")


# CPU seconds of the calibration loop at the speed the machine of the
# README figures runs at when no other tenant slows it
REFERENCE_CAL_S = 1.6e-3


def pin_to_current_cpu():
    """Keep this process, and the children it starts, on the CPU it
    started on, so that the calibration loop measures the CPU the
    operations run on."""
    with open("/proc/self/stat") as fh:
        cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
    os.sched_setaffinity(0, {cpu})


def cpu_seconds():
    """CPU seconds used so far by this process and by its children that
    have ended.  The benchmark times CPU, not the wall clock: on a
    shared virtual machine the host takes the CPU away now and then,
    which changed the wall time of one fixed loop by up to 2x from one
    second to the next.  For this single-threaded, compute-bound program
    the two agree on an idle machine."""
    child = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + child.ru_utime + child.ru_stime


def _calibration_loop():
    # Fraction sums and big-integer products, the arithmetic sternseq
    # spends its time in; a plain integer loop tracked it less well
    acc = Fraction(0)
    for k in range(1, 120):
        acc += Fraction(k, k * k + 1)
    x, mask = 3 ** 4000, (1 << 6000) - 1
    for _ in range(60):
        x = x * x & mask
    return acc, x


def calibrate():
    """CPU seconds of one fixed loop of sternseq-like arithmetic.

    The CPU itself also changes speed: a fixed loop took 15 ms or 23 ms
    of CPU time, switching every few seconds, as other tenants of the
    host came and went.  Every operation is timed between two runs of
    this loop, and its CPU time is scaled by REFERENCE_CAL_S over their
    mean, so that a run that met a slow spell still reports the time at
    the reference speed.  Over 12-second windows this cut the spread of
    the median time of spectral(6), count_T and a `python -m sternseq`
    child from about 30% to 3%."""
    t0 = process_time()
    _calibration_loop()
    return process_time() - t0


def at_reference_speed(cpu_s, cal_before, cal_after):
    return cpu_s * 2 * REFERENCE_CAL_S / (cal_before + cal_after)


def child_env():
    pythonpath = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (
        os.pathsep + pythonpath if pythonpath else ""))


# Runs the `python -m sternseq` children of the cli workload, one at a
# time, and reports each one's exit code, output, CPU time and the
# children's peak resident size so far.  It is started before this
# process imports sternseq: Linux counts a vfork parent's peak resident
# size into the child's maximum at its exec, so children started from
# this process reported this process's 70 MB, not their own size.
SPAWNER = """
import json, resource, subprocess, sys, time
out = sys.stdout.buffer
for line in sys.stdin:
    argv = json.loads(line)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.process_time()
    proc = subprocess.run(argv, capture_output=True, check=False)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    user = time.process_time() - t0 + after.ru_utime - before.ru_utime
    head = {"code": proc.returncode, "user": user,
            "sys": after.ru_stime - before.ru_stime, "n": len(proc.stdout),
            "maxrss_kb": after.ru_maxrss,
            "err": proc.stderr.decode(errors="replace")[-2000:]}
    out.write(json.dumps(head).encode() + b"\\n" + proc.stdout)
    out.flush()
"""


class Spawner:
    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, "-c", SPAWNER],
                                     cwd=ROOT, env=child_env(),
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE)
        self.maxrss_kb = 0

    def run(self, argv):
        self.proc.stdin.write((json.dumps(list(argv)) + "\n").encode())
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the child spawner exited")
        head = json.loads(line)
        data = self.proc.stdout.read(head["n"])
        self.maxrss_kb = head["maxrss_kb"]
        return head["code"], data, head["user"], head["sys"], head["err"]

    def close(self):
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()


class OpFailed(Exception):
    """A `python -m sternseq` child exited with code 3 (resource cap)
    or 4 (numerical non-convergence)."""


class Lib:
    """A fresh import of sternseq from ./src, and the two ways of
    running its command line."""

    def __init__(self, spawner=None):
        self.spawner = spawner
        self.child_user = self.child_sys = 0.0
        for name in list(sys.modules):
            if name.split(".")[0] in ("sternseq", "mpmath"):
                del sys.modules[name]
        import sternseq  # noqa: F401
        import sternseq.cli  # noqa: F401
        for name in MODULES:
            setattr(self, name, sys.modules[f"sternseq.{name}"])
        self.errors = (self.core.ResourceLimitError,
                       self.moddist.NonConvergenceError, OpFailed)

    def run_cli(self, argv):
        code, out, user, sys_s, err = self.spawner.run(
            [sys.executable, "-m", "sternseq", *argv])
        self.child_user += user
        self.child_sys += sys_s
        if code in (3, 4):
            raise OpFailed(err.strip())
        return code, out

    def pop_child_cpu(self):
        """User and system CPU seconds of the children since last asked."""
        times = self.child_user, self.child_sys
        self.child_user = self.child_sys = 0.0
        return times

    def run_inprocess(self, argv):
        out = io.StringIO()
        code = self.cli.run(list(argv), stdout=out, stderr=io.StringIO())
        return code, out.getvalue().encode()


def _canon(x):
    # hex keeps huge integers clear of the decimal conversion limit
    if isinstance(x, bool) or x is None or isinstance(x, (float, str)):
        return repr(x)
    if isinstance(x, int):
        return hex(x)
    if isinstance(x, Fraction):
        return f"{x.numerator:x}/{x.denominator:x}"
    if isinstance(x, bytes):
        return hashlib.sha256(x).hexdigest()
    if isinstance(x, (list, tuple)):
        if len(x) > 4096:  # a sample of a long table
            x = [len(x), *x[::len(x) // 1024], *x[-8:]]
        return "[" + ",".join(map(_canon, x)) + "]"
    if dataclasses.is_dataclass(x):
        return _canon([getattr(x, f.name) for f in dataclasses.fields(x)])
    if isinstance(x, dict):
        return _canon(sorted(x.items()))
    if hasattr(x, "numerator") and hasattr(x, "exponent"):
        return _canon((x.numerator, x.exponent))
    return repr(x)


def _fingerprint(result):
    return hashlib.sha256(_canon(result).encode()).hexdigest()


class Pass:
    """Counts and times of one pass over whole rounds.  `times` and
    `total` are at the reference speed; `cpu` is raw CPU time."""

    def __init__(self):
        self.times = []          # each completed operation
        self.total = 0.0         # all operations, failed ones too
        self.cpu = 0.0
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.rounds = 0
        self.output_bytes = 0
        self.by_kind = {}


def run_rounds(lib, pool, seconds=None, rounds=None, call=workloads.call,
               seen=None, tracer=None, start=0):
    """Run whole rounds of `pool`, from round `start`, until `seconds` of
    CPU time inside operations or `rounds` rounds; check every output
    outside the timed region.  The first output for an input is checked
    in full; a repeat of the input must give the same output."""
    seen = {} if seen is None else seen
    p = Pass()
    cal = calibrate()
    while True:
        for op in pool[(start + p.rounds) % len(pool)]:
            p.attempted += 1
            if tracer is not None:
                tracer.op += 1
            t0 = process_time()
            try:
                result = call(op, lib)
                error = None
            except lib.errors as exc:
                result, error = None, exc
            cpu = process_time() - t0
            child_user, child_sys = lib.pop_child_cpu()
            cal_after = calibrate()
            # a child's system time, mostly exec and page faults, did not
            # follow the calibration loop through slow spells; it is
            # added unscaled
            dt = at_reference_speed(cpu + child_user, cal,
                                    cal_after) + child_sys
            cal = cal_after
            cpu += child_user + child_sys
            p.cpu += cpu
            p.total += dt
            if error is not None:
                p.failed += 1
                print(f"FAILED {op.label()}: {type(error).__name__}: "
                      f"{error}", file=sys.stderr)
                continue
            if op.target == "cli":
                p.output_bytes += len(result[1])
            key = op.key()
            digest = _fingerprint(result)
            if key in seen:
                msg = (None if seen[key] == digest else
                       "output differs from an earlier run of this input")
            else:
                if tracer is not None:
                    tracer.enabled = False
                msg = op.check(result)
                if tracer is not None:
                    tracer.enabled = True
                if msg is None:
                    seen[key] = digest
            del result
            if msg:
                p.failed += 1
                p.wrong += 1
                print(f"WRONG {op.label()}: {msg}", file=sys.stderr)
            else:
                p.times.append(dt)
                p.by_kind.setdefault(op.kind, []).append(dt)
        p.rounds += 1
        if rounds is not None and p.rounds >= rounds:
            return p
        if rounds is None and p.cpu >= seconds:
            return p


def _child_seconds(lib, code):
    times = []
    for _ in range(PROBE_REPS):
        cal = calibrate()
        t0 = cpu_seconds()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                       env=child_env(), check=True)
        cpu = cpu_seconds() - t0
        times.append(at_reference_speed(cpu, cal, calibrate()))
    return statistics.median(times)


def end_to_end(workload, lib, pool, seconds, setup_s):
    p = run_rounds(lib, pool, seconds=seconds)
    if workload == "cli":
        peak_mb = lib.spawner.maxrss_kb / 1024
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for kind, times in sorted(p.by_kind.items()):
        print(f"# {kind}\t{len(times)} ops\tmedian "
              f"{statistics.median(times) * 1e3:.3f} ms\tmin "
              f"{min(times) * 1e3:.3f}\tmax {max(times) * 1e3:.3f}",
              file=sys.stderr)
    print(f"# raw CPU throughput {len(p.times) / p.cpu:.4f} ops/s",
          file=sys.stderr)
    t = p.times
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(t) / p.total if p.total else 0.0, "ops/s"),
        "op_p50_ms": (statistics.median(t) * 1e3 if t else 0.0, "ms"),
        "op_p90_ms": (statistics.quantiles(t, n=10)[8] * 1e3
                      if len(t) > 1 else 0.0, "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    return p, metrics


def per_layer(workload, lib, pool, seconds):
    call = workloads.call
    if workload == "cli":
        def call(op, lib):  # noqa: E306 - the handler, without a process
            return lib.run_inprocess(op.args)
    # One untraced round fills the caches first; then each round runs
    # untraced and at once traced, so both passes meet the same caches
    # and the same machine speed.  Each pass checks every output in full,
    # so that both run the same code between operations.
    warm = run_rounds(lib, pool, rounds=1, call=call)
    untraced, traced = Pass(), Pass()
    tracer = Tracer()
    R = 0
    while untraced.cpu < seconds / 2:
        plain = run_rounds(lib, pool, rounds=1, call=call, start=R)
        tracer.install(lib)
        try:
            spanned = run_rounds(lib, pool, rounds=1, call=call,
                                 tracer=tracer, start=R)
        finally:
            tracer.uninstall()
        for total, one in ((untraced, plain), (traced, spanned)):
            for field in ("total", "cpu", "attempted", "failed", "wrong",
                          "output_bytes"):
                setattr(total, field, getattr(total, field)
                        + getattr(one, field))
        R += 1
    untraced.rounds = R
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{workload}-{os.getpid()}.jsonl")

    self_s, calls, names, weights, blocks = tracer.layer_totals()
    speed = traced.total / traced.cpu if traced.cpu else 1.0
    factors = weights["squarefree_factors"]
    metrics = {}

    def put(name, value, unit):
        metrics[name] = (value, unit)

    for layer in ("core", "enumeration", "moddist.count", "moddist.graph",
                  "moddist.minpoly", "exactalg", "moddist.roots",
                  "smalld.delta3", "smalld.hyperbinary",
                  "smalld.closed_forms", "smalld.enumerate", "sums.exact",
                  "sums.float"):
        put(f"{layer}.self_s", self_s[layer] * speed / R, "s")
    put("core.calls", calls["core"] / R, "count")
    put("core.table_entries", weights["stern_table"] / R, "count")
    put("enumeration.calls", calls["enumeration"] / R, "count")
    put("moddist.count.calls", (names["count_T"] + names["dist_table"]
                                + names["count_block"]) / R, "count")
    put("moddist.count.blocks", blocks / R, "count")
    put("moddist.minpoly.calls", names["minimal_polynomial"] / R, "count")
    put("exactalg.mat_mul.calls", names["mat_mul"] / R, "count")
    put("exactalg.poly_divmod.calls", names["poly_divmod"] / R, "count")
    put("moddist.roots.polyroots_calls", names["polyroots"] / R, "count")
    put("moddist.roots.factors", factors / R, "count")
    put("moddist.roots.attempts_per_factor",
        names["polyroots"] / factors if factors else 0.0, "calls/factor")
    put("sums.terms", (weights["t_prefix_sum"] + weights["alpha_estimate"])
        / R, "count")
    interpreter = import_s = 0.0
    if workload == "cli":
        interpreter = _child_seconds(lib, "pass")
        import_s = _child_seconds(lib, "import sternseq.cli") - interpreter
    put("cli.interpreter_s", interpreter, "s")
    put("cli.import_s", import_s, "s")
    put("cli.handler_s", untraced.total / R if workload == "cli" else 0.0,
        "s")
    put("cli.output_bytes", untraced.output_bytes / R, "bytes")
    put("trace.overhead_s", (traced.total - untraced.total) / R, "s")
    for field in ("attempted", "failed", "wrong"):
        setattr(untraced, field, getattr(untraced, field)
                + getattr(traced, field) + getattr(warm, field))
    return untraced, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "sternseq" / "__init__.py").is_file():
        print(f"error: no sternseq package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pin_to_current_cpu()
    spawner = Spawner() if args.workload == "cli" and not args.trace \
        else None
    try:
        setup_times = []
        for _ in range(SETUP_REPS):
            cal = calibrate()
            t0 = cpu_seconds()
            lib = Lib(spawner)
            pool = workloads.make_pool(args.workload, args.seed,
                                       lib.run_inprocess)
            cpu = cpu_seconds() - t0
            setup_times.append(at_reference_speed(cpu, cal, calibrate()))

        if args.trace:
            p, metrics = per_layer(args.workload, lib, pool, args.seconds)
        else:
            p, metrics = end_to_end(args.workload, lib, pool, args.seconds,
                                    statistics.median(setup_times))
    finally:
        if spawner is not None:
            spawner.close()
    print(f"# {p.rounds} rounds, {p.attempted} operations, "
          f"{p.total:.3f} s inside operations", file=sys.stderr)
    print(json.dumps({
        "correct": p.wrong == 0,
        "attempted": p.attempted,
        "failed": p.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
