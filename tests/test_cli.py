"""Command-line front end: golden outputs, envelopes, exit codes."""
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sternseq
from oracles import residue_counts
from sternseq.cli import OPERATION_COVERAGE, _HANDLERS, run


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv,expected", [
    (("stern", "11"), "5\n"),
    (("pair", "11"), "5\t2\n"),
    (("ratio", "11"), "5/2\n"),
    (("index", "5", "2"), "11\n"),
    (("rational", "11"), "5/2\n"),
    (("row", "3", "0", "1"), "0\n1\n1\n2\n1\n3\n2\n3\n1\n"),
    (("brocot", "2"), "0/1\n1/2\n1/1\n2/1\n1/0\n"),
    (("minkowski", "1", "3"), "1/4\n"),
    (("minpoly", "--d", "3"), "0\t4\t-4\t1\t-2\t1\n"),
    (("walks", "--d", "2", "--r", "2"), "2\t1\t1\n1\t2\t1\n1\t1\t2\n"),
    (("a3", "--limit", "20"), "0\n5\n7\n10\n14\n"),
    (("a3row", "5"), "10\n"),
    (("t3zero", "10"), "265\n"),
    (("delta3", "--N", "4"), "1\n"),
    (("hyperbinary", "--d", "3", "--n", "4"), "3\n"),
    (("rowsum", "3"), "23/2\n"),
])
def test_golden_tsv(argv, expected):
    code, out, err = invoke(*argv)
    assert (code, err) == (0, "")
    assert out == expected


@pytest.mark.parametrize("argv,fmt,digest", [
    (("walks", "--d", "9", "--r", "60"), "tsv",
     "e36ae96af146e1303ff3723b23dc1385f049c3bc21922323e6f4becae2a83bba"),
    (("walks", "--d", "9", "--r", "60"), "json",
     "6ed47dce935643629a04b79c86604f1aa4f20ea2b6d9f57a660512369de643e2"),
    (("walks", "--d", "7", "--r", "300"), "tsv",
     "7bbb31373e332fc47e748c8e4c213a7be9de28b333863fcf7ff0dc4e8777eab7"),
    (("walks", "--d", "7", "--r", "300"), "json",
     "4d93ad38e3cca4a30473f927c29c62dce7b089d8f33d216d49b785d5bcd8b217"),
])
def test_golden_walks_digest(argv, fmt, digest):
    """sha256 of the full stdout: any way of computing the walks must
    print these bytes."""
    code, out, err = invoke(*argv, "--format", fmt)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_delta3_trace_output():
    code, out, _ = invoke("delta3", "--N", "8", "--trace")
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()]
    assert rows[0] == ["0", "0"]
    assert rows[4] == ["4", "1"]
    assert len(rows) == 9


def test_json_envelope():
    code, out, _ = invoke("stern", "11", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"format_version", "command", "params", "result"}
    assert doc["format_version"] == "1"
    assert doc["command"] == "stern"
    assert doc["params"] == {"n": "11"}
    assert doc["result"] == {"value": "5"}


def test_json_big_integers_are_strings():
    code, out, _ = invoke("stern", str(2 ** 70 + 1), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert isinstance(doc["result"]["value"], str)
    assert doc["result"]["value"].isdigit()


def test_json_sum_envelope():
    code, out, _ = invoke("sum", "--N", "8", "--exact", "--format", "json")
    doc = json.loads(out)
    assert doc["result"]["exact"] == "9/1"
    assert doc["result"]["lower"] == "3/1"
    assert doc["result"]["upper"] == "23/2"


@pytest.mark.parametrize("argv", [
    ("spectral", "--d", "3"),
    ("dist", "--d", "3", "--N", "4096", "--pairs"),
    ("graph", "--d", "3", "--dot"),
    ("alpha", "--t", "2", "--N", "4096"),
    ("sum", "--N", "4096", "--exact", "--format", "json"),
    ("verify", "--suite", "core"),
])
def test_repeated_invocations_byte_identical(argv):
    first = invoke(*argv)
    second = invoke(*argv)
    assert first == second
    assert first[0] == 0


def test_dist_reports_densities_and_index():
    code, out, _ = invoke("dist", "--d", "3", "--N", "1024")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("#")
    assert lines[1].split("\t")[:3] == ["0", "265", "1/4"]
    assert any(line.startswith("# index_I\t4") for line in lines)


def test_exit_code_usage_error():
    code, out, err = invoke("no-such-command")
    assert code == 1 and out == "" and err != ""
    code, _, err = invoke("stern")
    assert code == 1 and "usage error" in err
    code, _, err = invoke("stern", "twelve")
    assert code == 1


def test_exit_code_domain_error():
    code, out, err = invoke("rational", "0")
    assert code == 2 and out == "" and "domain error" in err
    code, _, err = invoke("verify", "--suite", "nope")
    assert code == 2


def test_exit_code_resource_limit():
    # row r needs s(2^r); the table cap admits r = 22 and no further
    for r in ("23", "25"):
        code, out, err = invoke("row", r)
        assert code == 3 and out == "" and "resource limit" in err
    for dot in ((), ("--dot",)):
        code, out, err = invoke("graph", "--d", "100",
                                "--max-matrix-order", "10", *dot)
        assert code == 3 and out == "" and "resource limit" in err
    # the cap rejects before the pair graph or d's factors are built
    for d in ("100", str(10 ** 12), str(10 ** 30)):
        for argv in (("graph", "--d", d), ("dist", "--d", d, "--N", "5")):
            code, out, err = invoke(*argv, "--max-matrix-order", "10")
            assert code == 3 and out == "" and "resource limit" in err


def test_dist_honours_a_wider_matrix_cap():
    argv = ("dist", "--d", "80", "--N", "100")
    code, out, err = invoke(*argv)
    assert code == 3 and out == "" and "resource limit" in err
    code, out, err = invoke(*argv, "--max-matrix-order", "10000")
    assert (code, err) == (0, "")
    rows = [line.split("\t") for line in out.splitlines()[1:81]]
    assert [int(c) for _, c, _, _ in rows] == residue_counts(100, 80)


# one command just past each cap; each must raise before it allocates
PAST_A_CAP = [
    ("row", "23", "0", "1"),
    ("brocot", "23"),
    ("sum", "--N", "4194305"),
    ("sum", "--N", "1048577", "--exact"),
    ("alpha", "--t", "1", "--N", "4194305"),
    ("delta3", "--N", "4194305", "--trace"),
    ("a3", "--limit", "16777217"),
    ("hyperbinary", "--d", "8388608", "--n", "8388608"),
    ("walks", "--d", "2", "--r", "65537"),
    ("walks", "--d", "9", "--r", "4000"),
    ("hyperbinary", "--d", "4194304", "--n", str(2 ** 40)),
]


@pytest.mark.parametrize("argv", PAST_A_CAP)
def test_exit_code_past_each_cap(argv):
    code, out, err = invoke(*argv)
    assert code == 3 and out == "" and "resource limit" in err


def test_caps_survive_optimize():
    """The caps are `if ... raise`, so python -O keeps them."""
    src_dir = Path(sternseq.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src_dir)}
    proc = subprocess.run([sys.executable, "-O", "-m", "sternseq",
                           *PAST_A_CAP[0]], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3 and proc.stdout == ""
    assert "resource limit" in proc.stderr


def test_option_surface():
    """The row and exact-sum caps are constants, not flags, dist has no
    count method to pick, and only the commands that build a pair graph
    take --max-matrix-order."""
    for argv in (("row", "3", "--max-row-bits", "10"),
                 ("sum", "--N", "8", "--max-exact-N", "4"),
                 ("stern", "5", "--max-matrix-order", "3"),
                 ("dist", "--d", "3", "--N", "5", "--method", "scan")):
        code, out, err = invoke(*argv)
        assert code == 1 and out == "" and "usage error" in err
    # the pair graph mod 3 has 8 vertices
    for argv in (("dist", "--d", "3", "--N", "5"), ("graph", "--d", "3"),
                 ("minpoly", "--d", "3"), ("spectral", "--d", "3"),
                 ("walks", "--d", "3", "--r", "2")):
        code, out, err = invoke(*argv, "--max-matrix-order", "7")
        assert code == 3 and out == "" and "resource limit" in err


@pytest.mark.parametrize("argv", [
    ("index", str(2 ** 16 + 1), "1"),
    ("minkowski", "1", str(2 ** 16 + 1)),
    ("rowsum", str(2 ** 16 + 1)),
    ("a3row", str(2 ** 16 + 1)),
    ("t3zero", str(2 ** 16 + 1)),
])
def test_exit_code_bit_cap(argv):
    code, out, err = invoke(*argv)
    assert code == 3 and out == "" and "bit cap" in err


def test_answers_past_4300_digits():
    code, out, err = invoke("a3row", "20000")
    assert (code, err) == (0, "")
    assert out == f"{sternseq.a3_row_count(20000)}\n"
    assert len(out) > 6000


def test_spectral_leaves_mpmath_unimported():
    """The command line and the certified spectrum run without mpmath,
    whose import would cost every process its start-up time."""
    src = ("import sys\n"
           "import sternseq.cli\n"
           "sternseq.moddist.spectral(7)\n"
           "print('mpmath' in sys.modules)\n")
    src_dir = Path(sternseq.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src_dir)}
    proc = subprocess.run([sys.executable, "-c", src], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_exit_code_non_convergence(monkeypatch):
    """Root seeds that never leave the circle they start on fail the
    inclusion certificate: exit 4."""
    monkeypatch.setattr(sternseq.moddist, "_SWEEPS", 0)
    with pytest.raises(sternseq.NonConvergenceError, match="degree"):
        sternseq.spectral(7)
    code, out, err = invoke("spectral", "--d", "7")
    assert code == 4 and out == "" and "numerical error" in err


def test_exit_code_double_root_at_two(monkeypatch):
    """A minimal polynomial with 2 as a double root is a failed exact
    claim: ValueError, exit 2."""
    monkeypatch.setattr(sternseq.moddist, "minimal_polynomial",
                        lambda d, max_order=None: [0, 4, -4, 1])
    with pytest.raises(ValueError, match="simple root"):
        sternseq.spectral(3)
    code, out, err = invoke("spectral", "--d", "3")
    assert code == 2 and out == "" and "domain error" in err


def test_verify_failure_exit_code(monkeypatch):
    import sternseq.checks as checks
    monkeypatch.setitem(checks.SUITES, "rigged",
                        lambda: [("always red", False, "")])
    code, out, _ = invoke("verify", "--suite", "rigged")
    assert code == 1
    assert "FAIL" in out


def test_help_exits_zero():
    code, out, _ = invoke("--help")
    assert code == 0
    code, _, _ = invoke("dist", "--help")
    assert code == 0


def test_every_operation_routed_once():
    assert len(OPERATION_COVERAGE) == 37
    for op, sub in OPERATION_COVERAGE.items():
        module, name = op.split(".")
        assert hasattr(sternseq, name), op
        assert sub in _HANDLERS, op
    # no orphan subcommands either: all of them serve some operation
    assert set(OPERATION_COVERAGE.values()) == set(_HANDLERS)


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "sternseq", "stern", "11"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout == "5\n"


def test_console_script_target():
    src = ("import sys; sys.argv = ['sternseq', 'pair', '4']; "
           "from sternseq.cli import main; main()")
    proc = subprocess.run([sys.executable, "-c", src],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout == "1\t3\n"


def test_cli_import_leaves_dataclasses_and_checks_unimported():
    """Importing the command line adds neither dataclasses nor inspect
    to a bare interpreter, and the verify suites load only for verify:
    each would cost every process its start-up time."""
    src = ("import sys\n"
           "names = ('dataclasses', 'inspect', 'sternseq.checks')\n"
           "before = {m for m in names if m in sys.modules}\n"
           "import sternseq.cli\n"
           "print(sorted(m for m in names if m in sys.modules) == "
           "sorted(before))\n")
    src_dir = Path(sternseq.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src_dir)}
    proc = subprocess.run([sys.executable, "-c", src], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\n"
