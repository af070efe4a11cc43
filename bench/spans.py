"""In-memory span tracing of calls into the library's public functions.

The benchmark wraps the functions listed in ``TARGETS`` where the library's
modules look them up (every module attribute bound to the original function,
or the class attribute for methods), so calls made inside the library are
timed too.  Nothing under ``src/`` changes; ``install`` returns a function
that puts the originals back.

A span is ``[name, start, end, parent, op_id, size]``.  A layer's self time is
its span's duration minus the durations of its direct child spans; a layer's
inclusive time counts only outermost spans of its group, so recursion and
nested helpers are not counted twice.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager

# (span name, module, attribute or Class.method, size of the call or None)
TARGETS = (
    ("feasibility.classify", "feasibility", "classify", None),
    ("feasibility.branch_of", "feasibility", "branch_of", None),
    ("tetris.min_s", "tetris", "min_s", None),
    ("tetris.block_sort", "tetris", "block_sort", None),
    ("tetris.tetris_vectors", "tetris", "tetris_vectors", lambda a, out: len(out.vectors)),
    ("tetris.nonsummable_construct", "tetris", "nonsummable_construct", None),
    ("schurhorn.schur_horn_unitary", "schurhorn", "schur_horn_unitary", lambda a, out: len(a[0])),
    ("schurhorn.finite_projection_pair", "schurhorn", "finite_projection_pair", None),
    ("summable.decouple", "summable", "decouple",
     lambda a, out: max(len(out.group1), len(out.group2))),
    ("summable.summable_construct2", "summable", "summable_construct2", None),
    ("summable.summable_construct", "summable", "summable_construct", None),
    ("seqcore.conjugate_by_permutation", "seqcore", "conjugate_by_permutation",
     lambda a, out: a[1].size),
    ("seqcore.gram", "seqcore", "ProjectionRep.gram", None),
    ("seqcore.rep_dense", "seqcore", "ProjectionRep.dense", None),
    ("seqcore.vector_dense", "seqcore", "SparseVector.dense", None),
    ("seqcore.diag", "seqcore", "ProjectionRep.diag", None),
    ("seqcore.exact_diag", "seqcore", "ProjectionRep.exact_diag", None),
    ("selector.carpenter", "selector", "carpenter", None),
    ("selector.verify_projection", "selector", "verify_projection", None),
    ("selector.carpenter_field", "selector", "carpenter_field", None),
    ("sispectral.synthesize_range", "sispectral", "synthesize_range", None),
    ("sispectral.extract_spectral", "sispectral", "extract_spectral", None),
)


class Tracer:
    """Spans kept in a list; ``op`` opens the root span of one benchmark op."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id: int | None = None

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op_id, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, op_id: int):
        self.op_id = op_id
        idx = self.open("op")
        try:
            yield
        finally:
            self.close(idx)

    def write(self, path: str):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op_id", "size"],
                       "spans": self.spans}, fh)


def _wrap(tracer: Tracer, name: str, fn, size):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if size is not None:
            tracer.spans[idx][5] = size(args, out)
        return out

    return traced


def install(tracer: Tracer, package: str = "carpenter"):
    """Wrap every target; returns a function that restores the originals."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == package or n.startswith(package + "."))]
    undo = []
    for name, mod_name, attr, size in TARGETS:
        module = sys.modules[f"{package}.{mod_name}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, _wrap(tracer, name, orig, size))
            undo.append((cls, meth, orig))
            continue
        orig = getattr(module, attr)
        wrapped = _wrap(tracer, name, orig, size)
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapped)
                    undo.append((mod, key, orig))

    def restore():
        for owner, key, orig in reversed(undo):
            setattr(owner, key, orig)

    return restore


class SpanStats:
    """Aggregates over a finished span list.

    ``scale`` maps an op id to the speed factor its span durations are
    multiplied by (see worker.py); ops without one keep raw durations.
    """

    def __init__(self, spans: list[list], scale: dict[int, float] | None = None):
        self.spans = spans
        scale = scale or {}
        self.dur = [(s[2] - s[1]) * scale.get(s[4], 1.0) for s in spans]
        self.child = [0.0] * len(spans)
        self.by_name: dict[str, list[int]] = {}
        for i, s in enumerate(spans):
            if s[3] >= 0:
                self.child[s[3]] += self.dur[i]
            self.by_name.setdefault(s[0], []).append(i)

    def _named(self, names):
        return [i for name in names for i in self.by_name.get(name, ())]

    def inclusive_ms(self, *names) -> float:
        """Total time of the outermost spans among ``names``."""
        total = 0.0
        for i in self._named(names):
            p = self.spans[i][3]
            while p >= 0 and self.spans[p][0] not in names:
                p = self.spans[p][3]
            if p < 0:
                total += self.dur[i]
        return total * 1e3

    def self_ms(self, name: str) -> float:
        return sum(self.dur[i] - self.child[i] for i in self._named((name,))) * 1e3

    def count(self, name: str) -> int:
        return len(self._named((name,)))

    def size_max(self, name: str) -> int:
        return max((self.spans[i][5] for i in self._named((name,))), default=0)

    def size_sum(self, name: str) -> int:
        return sum(self.spans[i][5] for i in self._named((name,)))


def layer_metrics(stats: SpanStats, n_ops: int) -> dict[str, float]:
    """Per-layer metrics from the traced phase; times are ms per op."""
    per_op = lambda x: x / n_ops
    fill_ms = stats.inclusive_ms("tetris.tetris_vectors")
    fill_vectors = stats.size_sum("tetris.tetris_vectors")
    return {
        "feasibility.classify_ms": per_op(stats.inclusive_ms("feasibility.classify")),
        "feasibility.classify_calls_per_op": per_op(stats.count("feasibility.classify")),
        "feasibility.branch_of_ms": per_op(stats.inclusive_ms("feasibility.branch_of")),
        "tetris.min_s_ms": per_op(stats.inclusive_ms("tetris.min_s")),
        "tetris.min_s_calls": per_op(stats.count("tetris.min_s")),
        "tetris.block_sort_ms": per_op(stats.inclusive_ms("tetris.block_sort")),
        "tetris.fill_ms": per_op(fill_ms),
        "tetris.fill_us_per_vector": fill_ms * 1e3 / fill_vectors if fill_vectors else 0.0,
        "schurhorn.unitary_ms": per_op(stats.inclusive_ms("schurhorn.schur_horn_unitary")),
        "schurhorn.unitary_n_max": stats.size_max("schurhorn.schur_horn_unitary"),
        "schurhorn.finite_projection_ms":
            per_op(stats.inclusive_ms("schurhorn.finite_projection_pair")),
        "summable.decouple_ms": per_op(stats.inclusive_ms("summable.decouple")),
        "summable.construct2_ms": per_op(stats.inclusive_ms("summable.summable_construct2")),
        "summable.group_size_max": stats.size_max("summable.decouple"),
        "seqcore.conjugate_ms": per_op(stats.inclusive_ms("seqcore.conjugate_by_permutation")),
        "seqcore.gram_ms": per_op(stats.inclusive_ms("seqcore.gram")),
        "seqcore.dense_ms": per_op(stats.inclusive_ms("seqcore.rep_dense", "seqcore.vector_dense")),
        "seqcore.diag_ms": per_op(stats.inclusive_ms("seqcore.diag", "seqcore.exact_diag")),
        "seqcore.window": stats.size_max("seqcore.conjugate_by_permutation"),
        "selector.carpenter_self_ms": per_op(stats.self_ms("selector.carpenter")),
        "selector.verify_self_ms": per_op(stats.self_ms("selector.verify_projection")),
        "selector.field_self_ms": per_op(stats.self_ms("selector.carpenter_field")),
        "sispectral.synthesize_ms": per_op(stats.inclusive_ms("sispectral.synthesize_range")),
        "sispectral.extract_ms": per_op(stats.inclusive_ms("sispectral.extract_spectral")),
    }
