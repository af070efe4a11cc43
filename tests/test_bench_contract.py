"""The benchmark's span tracer wraps library functions by name; every name it
lists must still exist, or ``bench/run.py --trace 1`` breaks."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_span_target_resolves():
    targets = load_spans().TARGETS
    assert targets
    for name, mod_name, attr, _ in targets:
        module = importlib.import_module(f"carpenter.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(module, cls_name, None)
            assert owner is not None, f"{name}: carpenter.{mod_name} has no {cls_name}"
            assert meth in vars(owner), f"{name}: {cls_name} defines no {meth}"
        else:
            assert callable(getattr(module, attr, None)), f"{name}: carpenter.{mod_name}.{attr}"
