"""The sparse Gram sweep and the idempotency bound against dense references.

``ProjectionRep.gram`` adds only products at shared support indices, and
``verify_projection`` bounds the idempotency term on the vectors with a
nonzero row of G - I.  The references below are the pairwise ``inner``
matrix and the dense max |V^T (G - I) V| over every vector: the Gram must
match bit for bit, the bound must never be below the dense value, and every
``passed`` verdict must be the one the dense formula gives.
"""

import importlib
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from test_diag_reference import _random_vector
from test_route_corpus import COUNT, SEED, _random_spec

from carpenter import selector, seqcore
from carpenter.errors import InfeasibleDiagonalError, UnsupportedStructureError
from carpenter.feasibility import route
from carpenter.selector import carpenter, verify_projection
from carpenter.seqcore import DiagonalSpec, ProjectionRep, SparseVector, SqrtTail, TailRule

BENCH = Path(__file__).resolve().parent.parent / "bench"


def reference_gram(rep):
    n = len(rep.vectors)
    g = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            g[i, j] = g[j, i] = rep.vectors[i].inner(rep.vectors[j])
    return g


def dense_idempotency(rep, m):
    """max |V^T (G - I) V| with V the n x m matrix of every vector."""
    n = len(rep.vectors)
    if not (n and m):
        return 0.0
    v = np.vstack([w.dense(m) for w in rep.vectors])
    return float(np.abs(v.T @ (reference_gram(rep) - np.eye(n)) @ v).max())


def assert_matches_reference(rep, spec, m, tol=1e-9, settled=None):
    g = reference_gram(rep)
    assert rep.gram().tobytes() == g.tobytes(), rep
    report = verify_projection(rep, spec, m, tol, settled)
    n = len(rep.vectors)
    gram_err = float(np.abs(g - np.eye(n)).max()) if n else 0.0
    dense = dense_idempotency(rep, m)
    assert report.gram_max_err == gram_err
    assert report.idempotency_err >= dense
    assert report.passed == (max(gram_err, report.diag_max_err, dense) <= tol), report


def test_hand_built_frames_match_reference():
    rng = random.Random(707)
    for _ in range(300):
        stride = rng.randint(1, 3)  # one per frame: tails with different strides never meet
        vectors = [_random_vector(rng, rng.randint(1, 6), stride) for _ in range(rng.randint(0, 6))]
        form = rng.choice((ProjectionRep.frame, ProjectionRep.coframe))
        spec = DiagonalSpec.of(*(F(rng.randint(0, 4), 4) for _ in range(rng.randint(0, 6))))
        m = rng.randint(0, 20)
        settled = rng.choice((None, rng.randint(0, m)))
        assert_matches_reference(form(vectors), spec, m, rng.choice((1e-9, 10.0)), settled)


def test_tails_with_different_strides_still_raise():
    rule = TailRule.geometric("1/4", "1/2")
    rep = ProjectionRep.frame(
        (SparseVector((), SqrtTail(1, rule, 1)), SparseVector((), SqrtTail(1, rule, 2)))
    )
    with pytest.raises(UnsupportedStructureError):
        rep.gram()


def test_route_corpus_matches_reference():
    rng = random.Random(SEED)
    for _ in range(COUNT):
        s = _random_spec(rng)
        m = rng.randint(1, 9)
        try:
            r = route(s)
        except InfeasibleDiagonalError:
            continue
        trace = {}
        rep = r.build(m, trace)
        settled = trace["settled_prefix"]
        dim = max(m, settled or 0, 6)
        assert_matches_reference(rep, s, dim, settled=settled)
        assert_matches_reference(rep.complementary(), s.complement(), dim, settled=settled)


def _bench_calls(monkeypatch, workload, seed, count):
    """Every verify_projection call the benchmark's first ``count`` ops make."""
    import carpenter

    monkeypatch.setattr(sys, "path", list(sys.path))  # the worker adds src/ to it
    monkeypatch.syspath_prepend(str(BENCH))
    gen = importlib.import_module("gen")
    worker = importlib.import_module("worker")
    lib = worker.Lib(str(Path(carpenter.__file__).resolve().parent.parent))
    calls = []

    def recorded(rep, spec, m=16, tol=1e-9, settled=None):
        calls.append((rep, spec, m, tol, settled))
        return verify_projection(rep, spec, m, tol, settled)

    with monkeypatch.context() as patch:
        for mod in (selector, sys.modules["carpenter.sispectral"]):
            patch.setattr(mod, "verify_projection", recorded)
        for item in gen.workload_inputs(workload, seed, count):
            assert worker.run_op(lib, item, lib.decode(item))[0]["ok"], (workload, item)
    return calls


@pytest.mark.parametrize("seed", (1729, 11))
@pytest.mark.parametrize("workload", ("stream", "pinning", "field"))
def test_bench_inputs_match_reference(monkeypatch, workload, seed):
    calls = _bench_calls(monkeypatch, workload, seed, 24)
    assert calls
    for rep, spec, m, tol, settled in calls:
        assert_matches_reference(rep, spec, m, tol, settled)


def test_verify_of_a_long_stream_calls_no_pairwise_inner(monkeypatch):
    # 2000 tail-less tetris vectors: the Gram sweep meets only shared indices,
    # so verification must not fall back to the n^2 pairwise products
    spec = DiagonalSpec((), TailRule.constant("2/5"))
    rep = carpenter(spec, 2000)
    assert len(rep.vectors) == 2000
    assert all(v.sqrt_tail is None for v in rep.vectors)
    calls = []
    inner = seqcore.SparseVector.inner

    def counted(self, other):
        calls.append(1)
        return inner(self, other)

    monkeypatch.setattr(seqcore.SparseVector, "inner", counted)
    report = verify_projection(rep, spec, 600)
    assert report.passed
    assert len(calls) == 0
