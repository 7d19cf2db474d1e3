"""The trace contract of perfbench/spans.py, checked in the unit suite.

The benchmark traces pairsieve from the outside, by function name and, for
a callable argument it times as its own span, by parameter name. Its own
tests are not collected here, so this test keeps both in step with the code:
a renamed function fails ``install`` with MissingTarget, and a renamed or
dropped parameter would leave its span silently reading 0.
"""

import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_trace_target_and_traced_argument_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")

    tracer = spans.install()
    try:
        for t in spans.TARGETS:
            if t.traced_arg is None:
                continue
            fn = importlib.import_module(t.module)
            for part in t.attr.split("."):
                fn = getattr(fn, part)
            assert t.traced_arg in inspect.signature(fn).parameters, t
    finally:
        tracer.uninstall()
