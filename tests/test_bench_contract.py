"""The benchmark's contract with the library.

The span tracer wraps library functions by name; every name it lists must
still exist, or ``bench/run.py --trace 1`` breaks.  And the first ops of each
workload, run in-process through the benchmark's own generator and worker,
must give the recorded output digests.
"""

import importlib
import importlib.util
import sys
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


# sha256 of the first 12 canonical outputs per workload at the default seed;
# a change here is a change of output.  Stream was recorded before the tail
# model was merged.  Pinning and field were re-recorded when reindexed tails
# began carrying their exponent: a sqrt-tail rule writes c and "k" in place of
# c * r**k (6 pinning and 8 field outputs moved; with each k folded back into
# c every one is the earlier document byte for byte).
DIGESTS = {
    "stream": "3e6951876bf35147227461ea3e5f9ce14cb66cc6d17e2bb6c4b7ec9e1e3d98d9",
    "pinning": "79f45a3e45d9d6b178c6ee1e57f6d7b9316c4531284019b5fcab7a3393ded08d",
    "field": "4020545af8d7e0fbba1c62f60caefda8ded01a795e28150b02e81d9bf8f91294",
}


def test_bench_output_digests_are_pinned(monkeypatch):
    """The benchmark's first ops, run in-process, give the recorded outputs."""
    import carpenter

    monkeypatch.setattr(sys, "path", list(sys.path))  # the worker adds src/ to it
    monkeypatch.syspath_prepend(str(SPANS.parent))
    gen = importlib.import_module("gen")
    worker = importlib.import_module("worker")
    lib = worker.Lib(str(Path(carpenter.__file__).resolve().parent.parent))
    got = {}
    for workload in DIGESTS:
        items = gen.workload_inputs(workload, 1729, 12)
        records = [worker.run_op(lib, item, lib.decode(item))[0] for item in items]
        assert [r["why"] for r in records if not r["ok"]] == [], workload
        got[workload] = worker.labels_and_digest(records, 12)[1]
    assert got == DIGESTS  # every workload's digest at once, so no move hides behind another
