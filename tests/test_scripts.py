"""The experiment scripts under scripts/: smoke runs with golden stdout."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sternseq

REPO = Path(__file__).resolve().parents[1]
SRC = Path(sternseq.__file__).resolve().parents[1]

SPECTRAL_TABLE = """\
d\tN_d\tI_d\tdeg\trho\ttau\tsigma
2\t3\t3\t3\t1.000000000000\t0.000000000000\t0
3\t8\t4\t5\t1.414213562373\t0.500000000000\t0
4\t12\t6\t6\t1.414213562373\t0.500000000000\t0
5\t24\t6\t12\t1.414213562373\t0.500000000000\t0
6\t24\t12\t11\t1.414213562373\t0.500000000000\t0
"""

ALPHA_SCAN = """\
t\tlog2_N\talpha
1\t4\t1.281250000
1\t5\t1.375000000
1\t6\t1.429687500
1\t7\t1.460937500
1\t8\t1.478515625
2\t4\t0.985416667
2\t5\t1.101562500
2\t6\t1.171095484
2\t7\t1.211304439
2\t8\t1.234021856
"""

D5_RANGE_SCAN = """\
event\tN\tgap
new_max\t2\t1
new_max\t3\t2
new_max\t5\t3
new_max\t9\t4
new_max\t68\t5
new_max\t135\t6
new_max\t136\t7
new_min\t248\t-1
new_min\t584\t-2
new_max\t3224\t8
summary\t4096\t[-2, 8]
"""

SUM_ERROR_SCAN = """\
log2_N\texact\tfloat\ttrue_err\terr_bound\tbracket_width
2\t3.500000\t3.500000\t0.000e+00\t1.554e-15\t5.500
3\t9.000000\t9.000000\t0.000e+00\t3.997e-15\t8.500
4\t20.500000\t20.500000\t0.000e+00\t9.104e-15\t12.000
5\t44.000000\t44.000000\t0.000e+00\t1.954e-14\t16.000
6\t91.500000\t91.500000\t0.000e+00\t4.063e-14\t20.500
7\t187.000000\t187.000000\t0.000e+00\t8.304e-14\t25.500
8\t378.500000\t378.500000\t0.000e+00\t1.681e-13\t31.000
9\t762.000000\t762.000000\t0.000e+00\t3.384e-13\t37.000
10\t1529.500000\t1529.500000\t0.000e+00\t6.792e-13\t43.500
"""


def run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, str(REPO / "scripts" / name),
                           *args], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_spectral_table_golden():
    """Every column but the last, wall_s, which is a timing."""
    out = run_script("spectral_table.py", "--d-min", "2", "--d-max", "6")
    rows = ["\t".join(line.split("\t")[:-1]) + "\n"
            for line in out.splitlines()]
    assert out.splitlines()[0].endswith("\twall_s")
    assert "".join(rows) == SPECTRAL_TABLE


GOLDEN = {
    "alpha_scan.py": (("--lags", "1", "2", "--k-min", "4", "--k-max", "8"),
                      ALPHA_SCAN),
    "d5_range_scan.py": (("--log2-n", "12"), D5_RANGE_SCAN),
    "sum_error_scan.py": (("--k-min", "2", "--k-max", "10"), SUM_ERROR_SCAN),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_script_golden(name):
    args, expected = GOLDEN[name]
    assert run_script(name, *args) == expected


@pytest.mark.parametrize("name", [*sorted(GOLDEN), "spectral_table.py"])
def test_script_help(name):
    assert run_script(name, "--help").startswith("usage:")
