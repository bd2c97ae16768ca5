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
log2_N\tdelta\texact\tfloat\ttrue_err\terr_bound\tbracket_width
2\t1\t3.833333\t3.833333\t1.480e-16\t1.702e-15\t5.500
2\t3\t6.000000\t6.000000\t0.000e+00\t2.665e-15\t5.500
3\t3\t11.183333\t11.183333\t2.368e-16\t4.966e-15\t8.500
3\t5\t14.083333\t14.083333\t5.921e-16\t6.254e-15\t8.500
4\t7\t27.544048\t27.544048\t1.489e-15\t1.223e-14\t12.000
4\t9\t31.329762\t31.329762\t1.049e-15\t1.391e-14\t12.000
5\t15\t61.912463\t61.912463\t6.743e-16\t2.749e-14\t16.000
5\t17\t66.634685\t66.634685\t1.152e-16\t2.959e-14\t16.000
6\t31\t132.286784\t132.286784\t2.826e-16\t5.875e-14\t20.500
6\t33\t137.968602\t137.968602\t4.885e-15\t6.127e-14\t20.500
7\t63\t274.665837\t274.665837\t7.035e-15\t1.220e-13\t25.500
7\t65\t281.319683\t281.319683\t2.795e-14\t1.249e-13\t25.500
8\t127\t561.048798\t561.048798\t1.402e-14\t2.492e-13\t31.000
8\t129\t568.682132\t568.682132\t2.160e-14\t2.525e-13\t31.000
9\t255\t1135.435066\t1135.435066\t3.054e-14\t5.042e-13\t37.000
9\t257\t1144.052713\t1144.052713\t7.646e-14\t5.081e-13\t37.000
10\t511\t2285.824181\t2285.824181\t9.366e-14\t1.015e-12\t43.500
10\t513\t2295.429444\t2295.429444\t1.935e-13\t1.019e-12\t43.500
"""

# the tier-1 ranges of test_spectral_golden_digest and
# test_minimal_polynomial_golden_digest, with their digests
SPECTRAL_DIGEST = """\
spectral\t2\t20\t831e597637d0ae0fd8e9f23f8c82dc1b6aef8432ec8dab3453c5758546361ed6
minpoly\t2\t26\ta77117f65b2a43ab9ba9982eb4a53d777d1805f231df53ca32aaaf072434bffc
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
    "spectral_digest.py": (("--spectral", "2", "20", "--minpoly", "2", "26"),
                           SPECTRAL_DIGEST),
    "sum_error_scan.py": (("--k-min", "2", "--k-max", "10"), SUM_ERROR_SCAN),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_script_golden(name):
    args, expected = GOLDEN[name]
    assert run_script(name, *args) == expected


@pytest.mark.parametrize("name", [*sorted(GOLDEN), "spectral_table.py"])
def test_script_help(name):
    assert run_script(name, "--help").startswith("usage:")
