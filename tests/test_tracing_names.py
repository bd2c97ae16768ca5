"""The benchmark's tracer resolves every name it wraps.

`benchmark/tracing.py` looks each traced function up on its home module
with `getattr` and no default, so deleting or renaming one of them
breaks traced benchmark runs.  The file is read, never imported as a
package, and nothing is written next to it.
"""
import importlib
import runpy
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def test_every_traced_name_resolves():
    layers = runpy.run_path(str(TRACING))["LAYERS"]
    missing = [f"{home}.{name}" for home, table in layers.items()
               for name in table
               if not hasattr(importlib.import_module(f"sternseq.{home}"),
                              name)]
    assert layers and not missing
