"""The benchmark's traced entry points must name live rotorsand functions.

`bench/spans.py` rebinds each name in its ENTRY_POINTS to a tracing wrapper;
a refactor that drops or renames one would otherwise only surface when
`bench/run.py --trace 1` fails.  The module is loaded by path, unchanged.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_resolves():
    entries = load_spans().ENTRY_POINTS
    missing = []
    for module, names in entries.items():
        mod = importlib.import_module(f"rotorsand.{module}")
        for name in names:
            target = mod
            for part in name.split("."):
                target = getattr(target, part, None)
            if not callable(target):
                missing.append(f"{module}.{name}")
    assert missing == []
    assert "verify_reversal_equivalence" in entries["rotor"]
