"""Peak memory of the largest O(N) builds, read in a fresh interpreter:
the growth of its peak RSS past the import, per entry built."""
import os
import subprocess
import sys

import pytest

import sternseq

SRC = os.path.dirname(os.path.dirname(os.path.abspath(sternseq.__file__)))

# Imports what one build needs, then prints its entry count and its peak
# RSS growth in bytes.  The peak is Linux's VmHWM, that of the
# interpreter's own address space: ru_maxrss would also keep the test
# process's peak, which a child inherits through exec.
PROBE = """\
import os, re
{imports}
def peak():
    with open('/proc/self/status') as f:
        return int(re.search(r'VmHWM:\\s+(\\d+) kB', f.read())[1]) * 1024
before = peak()
{build}
print(entries, peak() - before)
"""


def _cli(entries, *argv):
    """A build that runs one command to /dev/null."""
    return ("from sternseq import cli",
            f"entries = {entries}\n"
            "with open(os.devnull, 'w') as out:\n"
            f"    assert cli.run({list(argv)!r}, stdout=out) == 0")


# name: (imports, build, bound in bytes per entry); the commands run at
# their costliest admitted inputs and write their output in blocks
BUILDS = {
    # one pointer per entry plus the shared values: about 8.5 bytes
    "table": ("from sternseq import DEFAULT_TABLE_CAP, stern_table",
              "entries = DEFAULT_TABLE_CAP + 1\n"
              "table = stern_table(DEFAULT_TABLE_CAP)", 12),
    # the trace and, while it is made, the mod-3 table: about 18.6 bytes
    "delta3_trace": (*_cli(2 ** 22 + 1, "delta3", "--N", str(2 ** 22),
                           "--trace"), 24),
    # the rows of M^1 mod 40, shared small ints: about 8.4 bytes
    "walks": (*_cli(1152 ** 2, "walks", "--d", "40", "--r", "1"), 16),
    # one block at a time: about 0.2 bytes, 1 MB in all
    "row": (*_cli(2 ** 22 + 1, "row", "22", "1", "1"), 2),
    "brocot": (*_cli(2 ** 22 + 1, "brocot", "22"), 2),
    # the pair graph of 18,432 vertices, per DOT line: about 78 bytes
    "graph_dot": (*_cli(3 * 18432, "graph", "--d", "168", "--dot",
                        "--max-matrix-order", "32768"), 120),
    # no table of the N terms: about 0.05 and 0.2 bytes
    "sum": (*_cli(2 ** 22, "sum", "--N", str(2 ** 22)), 1),
    "sum_exact": (*_cli(2 ** 20, "sum", "--N", str(2 ** 20), "--exact"), 1),
}


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
@pytest.mark.parametrize("name", sorted(BUILDS))
def test_peak_rss_per_entry(name):
    imports, build, bound = BUILDS[name]
    env = {**os.environ, "PYTHONPATH": SRC}
    probe = PROBE.format(imports=imports, build=build)
    proc = subprocess.run([sys.executable, "-c", probe],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    entries, growth = map(int, proc.stdout.split())
    assert growth <= bound * entries, (name, growth / entries)
