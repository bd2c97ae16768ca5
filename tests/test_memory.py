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

# name: (imports, build, bound in bytes per entry)
BUILDS = {
    # one pointer per entry plus the shared values: about 8.5 bytes
    "table": ("from sternseq import DEFAULT_TABLE_CAP, stern_table",
              "entries = DEFAULT_TABLE_CAP + 1\n"
              "table = stern_table(DEFAULT_TABLE_CAP)", 12),
    # the trace, its strings shared, and its tsv lines: about 98 bytes
    "delta3_trace": ("from sternseq import cli",
                     "entries = 2 ** 20 + 1\n"
                     "with open(os.devnull, 'w') as out:\n"
                     "    assert cli.run(['delta3', '--N', str(2 ** 20),\n"
                     "                    '--trace'], stdout=out) == 0", 120),
    # the rows of M^1 mod 40 and their tsv strings: about 81 bytes
    "walks": ("from sternseq import cli",
              "entries = 1152 ** 2\n"
              "with open(os.devnull, 'w') as out:\n"
              "    assert cli.run(['walks', '--d', '40', '--r', '1'],\n"
              "                   stdout=out) == 0", 100),
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
