"""Deterministic command line interface.

Every subcommand accepts --format tsv|json (tsv default) and produces
byte-identical output for identical invocations.  JSON results arrive
in a versioned envelope and serialise unbounded integers as decimal
strings.  A large output (a row, a trace, a matrix, a graph) is written
in blocks of about 4096 entries, and only after every check has passed,
so an error leaves stdout empty.  Exit codes: 0 success, 1 usage error
(or failed verify suite), 2 domain error, 3 resource cap, 4 numerical
non-convergence.
"""

import argparse
import json
import math
import sys
from fractions import Fraction
from itertools import chain, count, islice, pairwise, starmap

from .core import (DEFAULT_DIGIT_CAP, ResourceLimitError, _check_row,
                   diatomic_row, stern, stern_pair, stern_ratio)
from .enumeration import index_of_rational, minkowski_q, rational_of_index
from .moddist import (DEFAULT_MATRIX_CAP, NonConvergenceError, _capped_graph,
                      _dot_lines, dist_table, index_I, minimal_polynomial,
                      spectral, walk_counts)
from .smalld import (a3_enumerate, a3_row_count, delta3, delta3_trace,
                     hyperbinary, t3_zero_closed)
from .sums import alpha_estimate, prefix_row_sum, row_sum, t_prefix_sum

FORMAT_VERSION = "1"

#: decimal digits of 2^DEFAULT_DIGIT_CAP, the largest answer printed
_STR_DIGITS = int(DEFAULT_DIGIT_CAP * math.log10(2)) + 1
#: entries per block of a large output, each written before the next
_BLOCK = 1 << 12


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


class _Text:
    """Blocks of lines that the JSON output holds as one string."""

    def __init__(self, blocks):
        self.blocks = blocks


def _blocks(items):
    it = iter(items)
    return iter(lambda: list(islice(it, _BLOCK)), [])


def _tsv(blocks):
    return ("\n".join(block) + "\n" for block in blocks)


def _json(field):
    """The JSON text of a field given in blocks: an array, or a string."""
    if isinstance(field, _Text):
        yield '"'
        yield from (json.dumps(text)[1:-1] for text in _tsv(field.blocks))
        yield '"'
        return
    sep = "["
    for block in field:
        yield sep + json.dumps(block)[1:-1]
        sep = ", "
    yield "[]" if sep == "[" else "]"


def _row(r, a, b):
    """Row r of the diatomic array from (a, b), checked first, then made
    in blocks: the row of each two neighbours of a shorter row."""
    _check_row(r, a, b)
    c = min(r, _BLOCK.bit_length() - 1)
    top = diatomic_row(r - c, a, b)
    blocks = (diatomic_row(c, x, y)[:-1] for x, y in pairwise(top))
    return chain(chain.from_iterable(blocks), top[-1:])


# each handler checks, then returns (params, payload, blocks of tsv
# lines), one payload field in blocks too if large: run writes only one
# of the two, so they may share an iterator; _value and _fraction build
# the two shapes that several commands share

def _value(params, v):
    v = str(v)
    return params, {"value": v}, [[v]]


def _fraction(params, x):
    return (params, {"num": str(x.numerator), "den": str(x.denominator)},
            [[_frac(x)]])


def _h_stern(a):
    return _value({"n": str(a.n)}, stern(a.n))


def _h_pair(a):
    left, right = stern_pair(a.n)
    return ({"n": str(a.n)}, {"left": str(left), "right": str(right)},
            [[f"{left}\t{right}"]])


def _h_fraction_of_n(fn):  # ratio, rational
    return lambda a: _fraction({"n": str(a.n)}, fn(a.n))


def _p_over_q(a) -> Fraction:
    if a.q == 0:
        raise ValueError(f"denominator q must be nonzero, got {a.p}/0")
    return Fraction(a.p, a.q)


def _h_index(a):
    n = index_of_rational(_p_over_q(a))
    return ({"p": str(a.p), "q": str(a.q)}, {"index": str(n)}, [[str(n)]])


def _h_row(a):
    values = _blocks(map(str, _row(a.r, a.a, a.b)))
    return ({"r": a.r, "a": str(a.a), "b": str(a.b)},
            {"values": values}, values)


def _h_brocot(a):
    # s(k) / s(2^r - k): rows r from (0, 1) and from (1, 0)
    entries = _blocks(map("{}/{}".format, _row(a.r, 0, 1), _row(a.r, 1, 0)))
    return {"r": a.r}, {"entries": entries}, entries


def _h_minkowski(a):
    y = minkowski_q(_p_over_q(a))
    return ({"p": str(a.p), "q": str(a.q)},
            {"numerator": str(y.numerator), "exponent": y.exponent},
            [[f"{y.numerator}/{1 << y.exponent}"]])


def _h_dist(a):
    t = dist_table(a.N, a.d, include_pairs=a.pairs,
                   max_order=a.max_matrix_order)
    dev = t.deviations()
    counts = [str(c) for c in t.counts]
    dens = [_frac(x) for x in t.densities]
    index = str(index_I(a.d))
    payload = {"d": a.d, "N": str(a.N), "counts": counts,
               "densities": dens, "deviations": dev, "index_I": index}
    lines = ["# residue\tcount\tdensity\tabs_deviation"]
    for i in range(a.d):
        lines.append(f"{i}\t{counts[i]}\t{dens[i]}\t{dev[i]!r}")
    lines.append(f"# index_I\t{index}")
    if t.pair_counts is not None:
        pairs = {f"{i},{j}": str(c) for (i, j), c in t.pair_counts.items()}
        payload["pair_counts"] = pairs
        lines.extend(f"pair\t{key}\t{c}" for key, c in pairs.items())
    return {"d": a.d, "N": str(a.N)}, payload, [lines]


def _h_graph(a):
    g = _capped_graph(a.d, a.max_matrix_order)
    if a.dot:
        lines = _blocks(_dot_lines(a.d, g))
        return {"d": a.d, "dot": True}, {"dot": _Text(lines)}, lines
    edges = ((i, j, tag, *g.vertices[nxt])
             for pos, (i, j) in enumerate(g.vertices)
             for tag, nxt in (("L", g.left[pos]), ("R", g.right[pos])))
    payload = {"d": a.d, "vertices": g.vertices, "edges": _blocks(edges)}
    lines = _blocks(starmap("{}\t{}\t{}\t{}\t{}".format, edges))
    return {"d": a.d, "dot": False}, payload, lines


def _h_minpoly(a):
    coefs = [str(c) for c in minimal_polynomial(
        a.d, max_order=a.max_matrix_order)]
    return {"d": a.d}, {"coefficients": coefs}, [["\t".join(coefs)]]


def _h_spectral(a):
    rep = spectral(a.d, max_order=a.max_matrix_order)
    roots = [{"re": rv.value.real, "im": rv.value.imag,
              "multiplicity": rv.multiplicity, "residual": rv.residual,
              "exact": rv.exact} for rv in rep.roots]
    payload = {"d": a.d, "rho": rep.rho, "tau": rep.tau,
               "sigma": rep.sigma, "multiplicity": rep.multiplicity,
               "minimal_polynomial": [str(c) for c in rep.minimal_poly],
               "roots": roots}
    lines = [f"rho\t{rep.rho!r}", f"tau\t{rep.tau!r}",
             f"sigma\t{rep.sigma}", f"multiplicity\t{rep.multiplicity}"]
    for rv in rep.roots:
        lines.append(f"root\t{rv.value.real!r}\t{rv.value.imag!r}"
                     f"\t{rv.multiplicity}\t{rv.residual!r}"
                     f"\t{int(rv.exact)}")
    return {"d": a.d}, payload, [lines]


def _h_walks(a):
    # one row, a tsv line or a json array, in each block
    M = walk_counts(a.d, a.r, max_order=a.max_matrix_order)
    return ({"d": a.d, "r": a.r},
            {"matrix": ([list(map(str, row))] for row in M)},
            (["\t".join(map(str, row))] for row in M))


def _h_a3(a):
    members = _blocks(map(str, a3_enumerate(a.limit)))
    return {"limit": str(a.limit)}, {"members": members}, members


def _h_value_of_r(fn):  # a3row, t3zero
    return lambda a: _value({"r": a.r}, fn(a.r))


def _h_delta3(a):
    if a.trace:
        tr = delta3_trace(a.N)
        payload = {"N": str(a.N), "delta": str(tr[-1]),
                   "trace": _blocks(map(str, tr))}
        lines = _blocks(map("{}\t{}".format, count(), tr))
    else:
        v = delta3(a.N)
        payload = {"N": str(a.N), "delta": str(v)}
        lines = [[str(v)]]
    return {"N": str(a.N), "trace": a.trace}, payload, lines


def _h_hyperbinary(a):
    return _value({"d": a.d, "n": str(a.n)}, hyperbinary(a.d, a.n))


def _h_rowsum(a):
    return _fraction({"r": a.r, "prefix": a.prefix},
                     prefix_row_sum(a.r) if a.prefix else row_sum(a.r))


def _h_sum(a):
    mode = "exact" if a.exact else "float"
    rep = t_prefix_sum(a.N, mode=mode)
    payload = {"N": str(a.N), "mode": mode, "float_sum": rep.float_sum,
               "error_bound": rep.float_error_bound,
               "lower": _frac(rep.lower), "upper": _frac(rep.upper)}
    lines = [f"N\t{a.N}", f"float_sum\t{rep.float_sum!r}",
             f"error_bound\t{rep.float_error_bound!r}",
             f"lower\t{_frac(rep.lower)}", f"upper\t{_frac(rep.upper)}"]
    if rep.exact_sum is not None:
        payload["exact"] = _frac(rep.exact_sum)
        lines.append(f"exact\t{_frac(rep.exact_sum)}")
    return {"N": str(a.N), "mode": mode}, payload, [lines]


def _h_alpha(a):
    v = alpha_estimate(a.t, a.N)
    return ({"t": a.t, "N": str(a.N)},
            {"empirical_alpha": v}, [[f"empirical_alpha\t{v!r}"]])


def _h_verify(a):
    # imported here: no other command should pay the suites' start-up
    from .checks import run_suite
    results = run_suite(a.suite)
    passed = sum(1 for _, ok, _ in results if ok)
    failed = len(results) - passed
    payload = {"suite": a.suite, "passed": passed, "failed": failed,
               "checks": [{"name": n, "ok": ok, "detail": det}
                          for n, ok, det in results]}
    lines = []
    for n, ok, det in results:
        mark = "ok" if ok else "FAIL"
        lines.append(f"{mark}\t{n}" + (f"\t{det}" if det else ""))
    lines.append(f"passed\t{passed}\tfailed\t{failed}")
    return {"suite": a.suite}, payload, [lines]


def build_parser() -> _Parser:
    """One `add` per subcommand: its name, handler and arguments."""
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p = _Parser(prog="sternseq", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, handler, *args_spec):
        sp = sub.add_parser(name, parents=[common])
        sp.set_defaults(handler=handler)
        for flags, kw in args_spec:
            sp.add_argument(*flags, **kw)

    def pos(name, **kw):  # an integer positional
        return (name,), {"type": int, **kw}

    def req(name):  # a required integer option
        return ("--" + name,), {"type": int, "required": True}

    def flag(name):
        return ("--" + name,), {"action": "store_true"}

    # the one cap a caller sets, on the commands that build a pair graph
    order = ("--max-matrix-order",), {"type": int,
                                      "default": DEFAULT_MATRIX_CAP}
    add("stern", _h_stern, pos("n"))
    add("pair", _h_pair, pos("n"))
    add("ratio", _h_fraction_of_n(stern_ratio), pos("n"))
    add("index", _h_index, pos("p"), pos("q"))
    add("rational", _h_fraction_of_n(rational_of_index), pos("n"))
    add("row", _h_row, pos("r"), pos("a", nargs="?", default=0),
        pos("b", nargs="?", default=1))
    add("brocot", _h_brocot, pos("r"))
    add("minkowski", _h_minkowski, pos("p"), pos("q"))
    add("dist", _h_dist, req("d"), req("N"), flag("pairs"), order)
    add("graph", _h_graph, req("d"), flag("dot"), order)
    add("minpoly", _h_minpoly, req("d"), order)
    add("spectral", _h_spectral, req("d"), order)
    add("walks", _h_walks, req("d"), req("r"), order)
    add("a3", _h_a3, req("limit"))
    add("a3row", _h_value_of_r(a3_row_count), pos("r"))
    add("t3zero", _h_value_of_r(t3_zero_closed), pos("r"))
    add("delta3", _h_delta3, req("N"), flag("trace"))
    add("hyperbinary", _h_hyperbinary, req("d"), req("n"))
    add("rowsum", _h_rowsum, pos("r"), flag("prefix"))
    add("sum", _h_sum, req("N"), flag("exact"))
    add("alpha", _h_alpha, req("t"), req("N"))
    add("verify", _h_verify, (("--suite",), {"required": True}))
    return p


def run(argv=None, stdout=None, stderr=None) -> int:
    """Parse argv, run one subcommand, write to the given streams.

    Returns the process exit code instead of raising, so tests can call
    it in-process.
    """
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    # 0 is no limit, and Pythons before 3.10.7 have none
    if 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < _STR_DIGITS:
        sys.set_int_max_str_digits(_STR_DIGITS)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=err)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        params, payload, lines = args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=err)
        return 1
    except (ValueError, ZeroDivisionError) as exc:
        print(f"domain error: {exc}", file=err)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=err)
        return 3
    except NonConvergenceError as exc:
        print(f"numerical error: {exc}", file=err)
        return 4
    if args.format == "json":
        envelope = {"format_version": FORMAT_VERSION,
                    "command": args.command, "params": params,
                    "result": payload}
        big = []  # a field in blocks is dumped as "\0", then written
        text = json.dumps(envelope, sort_keys=True,
                          default=lambda f: big.append(f) or "\0")
        head, _, tail = text.partition('"\\u0000"')
        out.writelines(chain([head], *map(_json, big), [tail + "\n"]))
    else:
        out.writelines(_tsv(lines))
    if args.command == "verify" and payload["failed"]:
        return 1
    return 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
