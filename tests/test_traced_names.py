"""The names ``perfbench/spans.py`` wraps must exist in the library, or a
traced benchmark run fails when it installs its spans."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    missing = [(m, a) for m, a, _, _ in _spans().FUNCTIONS
               if not callable(getattr(importlib.import_module(m), a, None))]
    assert missing == []


def test_traced_methods_exist():
    missing = [(m, c, f) for m, c, f, _ in _spans().METHODS
               if not callable(getattr(getattr(importlib.import_module(m), c, None),
                                       f, None))]
    assert missing == []
