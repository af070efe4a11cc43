"""The sparse Gram sweep and the idempotency bound against dense references.

``ProjectionRep.gram`` adds only products at shared support indices, and
``verify_projection`` bounds the idempotency term on the vectors with a
nonzero row of G - I.  The references below are the pairwise ``inner``
matrix and the dense max |V^T (G - I) V| over every vector: the Gram must
match bit for bit, the bound must never be below the dense value, and every
``passed`` verdict must be the one the dense formula gives.
"""

import importlib
import math
import random
import sys
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from test_diag_reference import _random_vector, reference_diag
from test_route_corpus import COUNT, SEED, _random_spec

from carpenter import selector, seqcore
from carpenter.errors import InfeasibleDiagonalError, UnsupportedStructureError
from carpenter.feasibility import route
from carpenter.selector import carpenter, verify_projection
from carpenter.seqcore import DiagonalSpec, IndexMap, ProjectionRep, SparseVector, SqrtTail, TailRule

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
    tracemalloc.start()
    try:
        report = verify_projection(rep, spec, 600)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert len(calls) == 0
    # the 2000 x 2000 Gram is 30.5 MiB; it becomes |G - I| in place, where
    # separate G - I and |G - I| arrays took the peak to 61 MiB
    assert peak < 52 * 2**20, peak / 2**20


def _tailed_frame(rng, tails, stride, interleaved):
    """A zero vector, ``tails`` sqrt-tailed vectors and a few tailless ones, shuffled.

    The tails share ``stride``; with ``interleaved`` their starts alternate residues mod 2,
    else they share one.  Tailless supports reach into the tails."""
    rule = TailRule.geometric(F(1, rng.randint(2, 8)), rng.choice((F(1, 2), F(3, 4))))
    vectors = [SparseVector()]
    for b in range(tails):
        start = 9 + 2 * rng.randint(0, 2) + (b % 2 if interleaved else 0)
        idx = sorted(rng.sample(range(1, 9), rng.randint(0, 3)))
        entries = [(i, F(rng.randint(1, 9), 97), rng.choice((-1, 1))) for i in idx]
        vectors.append(SparseVector.from_exact(entries, SqrtTail(start, rule, stride)))
    for _ in range(rng.randint(2, 5)):
        idx = sorted(rng.sample(range(1, 20), rng.randint(1, 4)))
        entries = [(i, F(rng.randint(1, 9), 16), rng.choice((-1, 1))) for i in idx]
        vectors.append(SparseVector.from_exact(entries))
    rng.shuffle(vectors)
    return vectors


@pytest.mark.parametrize("tails", (0, 1, 3))
@pytest.mark.parametrize("stride, interleaved", ((1, False), (2, False), (2, True)))
def test_each_tailed_gram_pair_is_one_inner_call(monkeypatch, tails, stride, interleaved):
    # t tailed vectors of n: each of the t n - t(t-1)/2 pairs with one is stored
    # once, as ``inner``'s return value, and a tailless frame calls it never
    rng = random.Random(4040 + 10 * tails + stride + interleaved)
    inner = seqcore.SparseVector.inner
    for _ in range(20):
        vs = _tailed_frame(rng, tails, stride, interleaved)
        pos = {id(v): a for a, v in enumerate(vs)}
        calls = []

        def counted(self, other):
            calls.append((pos[id(self)], pos[id(other)], inner(self, other)))
            return calls[-1][2]

        for form in (ProjectionRep.frame, ProjectionRep.coframe):
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(seqcore.SparseVector, "inner", counted)
                i, j, x = form(vs).gram_entries()
            n, t = len(vs), tails
            assert len(calls) == t * n - t * (t - 1) // 2
            tailed = {a for a, v in enumerate(vs) if v.sqrt_tail is not None}
            want = {(a, b) for a in range(n) for b in range(a, n) if {a, b} & tailed}
            assert {(a, b) for a, b, _ in calls} == want
            stored = {(a, b): y for a, b, y in zip(i.tolist(), j.tolist(), x.tolist())}
            assert all(stored[a, b].hex() == y.hex() for a, b, y in calls)


def _tail_mass_vector(rng, rule, start, stride, unit=False):
    """Support rows before ``start`` and the sqrt tail of ``rule``; with ``unit`` the squares
    add up to 1 - the tail's mass, else they are random."""
    idx = sorted(rng.sample(range(1, start), rng.randint(1, 3)))
    if unit:
        cuts = sorted(F(rng.randint(1, 99), 100) for _ in idx[1:])
        parts = [b - a for a, b in zip([F(0)] + cuts, cuts + [F(1)])]
        squares = [(1 - rule.sum_from(1)) * w for w in parts]
    else:
        squares = [F(rng.randint(1, 9), 97) for _ in idx]
    entries = [(i, q, rng.choice((-1, 1))) for i, q in zip(idx, squares)]
    return SparseVector.from_exact(entries, SqrtTail(start, rule, stride))


@pytest.mark.parametrize("stride", (1, 2))
def test_tailed_gram_entries_match_an_fsum_of_the_rows(stride):
    # independent of ``inner``: two tails with one stride and an aligned start
    # against math.fsum over both vectors' rows(N), N far enough down the tails
    # that the tail terms left out of each entry are below 2^-60 of its first
    rng = random.Random(6060 + stride)
    rules = [
        TailRule("geometric", (1 - F(r)) / 2, r, k) for r in ("1/2", "9/10", "39/40") for k in (0, 5)
    ]
    for ra in rules:
        for rb in rules:
            sa = rng.randint(4, 8)
            sb = sa + stride * rng.randint(0, 3)
            a = _tail_mass_vector(rng, ra, sa, stride)
            b = _tail_mass_vector(rng, rb, sb, stride)
            rho = float(max(ra.r, rb.r))  # each entry's tail-tail terms decay at most so slowly
            drop = math.ceil((60 * math.log(2) - math.log(1 - rho)) / -math.log(rho))
            big_n = sb + stride * drop
            va = {i: v for i, v, _, _ in a.rows(big_n)}
            vb = {i: v for i, v, _, _ in b.rows(big_n)}
            products = [x * vb[i] for i, x in va.items() if i in vb]
            g = ProjectionRep.frame((a, b)).gram()
            scale = math.fsum(map(abs, products))
            assert abs(g[0, 1] - math.fsum(products)) <= 1e-12 * scale, (ra, rb, sa, sb)
            for v, d in ((a, va), (b, vb)):
                want = math.fsum(x * x for x in d.values())
                assert g[(0, 0) if v is a else (1, 1)] == pytest.approx(want, rel=1e-12)
            unit = _tail_mass_vector(rng, ra, sa, stride, unit=True)
            assert abs(ProjectionRep.frame((unit,)).gram()[0, 0] - 1) <= 1e-12, ra


def _spied_tiles(monkeypatch):
    """What each ``_gram_tile`` call returns (True: tiled), and how often components were searched."""
    seen = {"tiles": [], "searches": 0}
    tile, linked = seqcore._gram_tile, seqcore._linked_indices

    def spy_tile(*args):
        seen["tiles"].append(tile(*args))
        return seen["tiles"][-1]

    def spy_linked(*args):
        seen["searches"] += 1
        return linked(*args)

    monkeypatch.setattr(seqcore, "_gram_tile", spy_tile)
    monkeypatch.setattr(seqcore, "_linked_indices", spy_linked)
    return seen


def _exact_spec(rep, m):
    """A finite spec whose entries 1..m are the rep's float diagonal, cut to [0, 1]."""
    return DiagonalSpec(tuple(min(max(F(x), F(0)), F(1)) for x in rep.diag(m)))


def assert_gram_and_verdict(rep, spec, m, tol=1e-9):
    """Bit-equal Gram and the dense formula's verdict, also where an error is inf or NaN."""
    g = reference_gram(rep)
    assert rep.gram().tobytes() == g.tobytes(), rep
    with np.errstate(invalid="ignore", over="ignore"):
        report = verify_projection(rep, spec, m, tol)
        errs = (np.abs(g - np.eye(len(g))).max(), report.diag_max_err, dense_idempotency(rep, m))
    assert report.passed == all(e <= tol for e in errs), report
    return report


def test_dense_components_tile_bit_for_bit(monkeypatch):
    # rows of random orthogonal matrices are one dense component, which the
    # Gram builds as a tile; among sparse tetris vectors and a sqrt-tail vector
    # the tile still matches the pairwise inner products bit for bit, and a
    # non-finite value sends its component back to the sweep
    rng = np.random.default_rng(1717)
    seen = _spied_tiles(monkeypatch)
    stream = carpenter(DiagonalSpec((), TailRule.constant("2/5")), 12).vectors
    unit_tail = TailRule.geometric("1/2", "1/2")  # squares sum to 1
    for _ in range(16):
        width = int(rng.integers(8, 97))
        q, _ = np.linalg.qr(rng.standard_normal((width, width)))
        frame = [SparseVector.from_dense(q[a]) for a in range(int(rng.integers(8, width + 1)))]
        form = (ProjectionRep.frame, ProjectionRep.coframe)[int(rng.integers(2))]

        rep = form(frame)
        spec = _exact_spec(rep, width)
        seen["tiles"].clear()
        assert_matches_reference(rep, spec, width)
        assert verify_projection(rep, spec, width).passed
        assert seen["tiles"] and all(seen["tiles"])

        for first in (width + 1, width - 1):  # past the frame, or sharing its last two indices
            shift = IndexMap((), 1, first)
            end = first + 40
            rep = form(frame + [v.remap(shift) for v in stream] + [SparseVector((), SqrtTail(end, unit_tail))])
            seen["tiles"].clear()
            assert_matches_reference(rep, _exact_spec(rep, end + 8), end + 8)
            assert True in seen["tiles"] or first < width

        for bad in (math.inf, -math.inf, math.nan):
            a, pos = int(rng.integers(len(frame))), int(rng.integers(width))
            sup = list(frame[a].support)
            sup[pos] = (sup[pos][0], bad)
            rep = form(frame[:a] + [SparseVector(tuple(sup))] + frame[a + 1 :])
            seen["tiles"].clear()
            assert not assert_gram_and_verdict(rep, spec, width).passed
            assert seen["tiles"] and not any(seen["tiles"])  # declined: inf * 0.0 would be NaN
    assert seen["searches"] > 0


def test_long_stream_skips_the_component_search(monkeypatch):
    # buckets of at most two vectors never pay for a tile, so the 2000-vector
    # stream of test_verify_of_a_long_stream_calls_no_pairwise_inner is swept
    # without looking for components
    spec = DiagonalSpec((), TailRule.constant("2/5"))
    rep = carpenter(spec, 2000)
    seen = _spied_tiles(monkeypatch)
    assert verify_projection(rep, spec, 600).passed
    assert seen == {"tiles": [], "searches": 0}


def test_verify_lays_out_only_the_touched_indices():
    # 32 stream vectors touch 80 indices; verified at dim 200,000, S's rows
    # are laid out over those indices, not as one 200,000-float row each
    spec = DiagonalSpec((), TailRule.constant("2/5"))
    rep = carpenter(spec, 32)
    tracemalloc.start()
    try:
        report = verify_projection(rep, spec, 200_000, settled=40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 2 * 2**20, peak / 2**20


def test_verify_of_a_long_stream_holds_no_n_by_n_array():
    # 2000 stream vectors, 7,000 stored entries and 1,000 nonzero entries of
    # G - I: a 2000 x 2000 array alone would be 30.5 MiB
    spec = DiagonalSpec((), TailRule.constant("2/5"))
    rep = carpenter(spec, 2000)
    tracemalloc.start()
    try:
        report = verify_projection(rep, spec, 600)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 8 * 2**20, peak / 2**20


def dense_abs_bound(rep, m):
    """max |V|^T |G - I| |V|, V the n x m matrix of every vector: what the bound rounds."""
    n = len(rep.vectors)
    if not (n and m):
        return 0.0
    v = np.abs(np.vstack([w.dense(m) for w in rep.vectors]))
    return float((v.T @ (np.abs(reference_gram(rep) - np.eye(n)) @ v)).max())


def reference_diag_err(rep, spec, upto):
    pairs = zip(reference_diag(rep, upto), (spec.entry(i) for i in range(1, upto + 1)))
    return max((abs(d - float(q)) for d, q in pairs), default=0.0)


def _both_sides_of_the_bound(rng):
    """``(rep, spec, m, settled)``: seeded frames and coframes with sparse and with dense E."""
    unit_tail = TailRule.geometric("1/2", "1/2")  # squares sum to 1
    out = []

    def streamed(spec, m, tailed):
        trace = {}
        rep = route(spec).build(m, trace)
        settled = trace["settled_prefix"]
        if tailed:  # a tail over the last indices the stream settles puts its row into S
            start = settled - rng.randint(2, 12)
            tail = SparseVector((), SqrtTail(start, unit_tail))
            rep = ProjectionRep(rep.form, rep.vectors + (tail,))
        out.append((rep, spec, settled, settled))
        out.append((rep.complementary(), spec.complement(), settled, settled))

    for tailed in (False, True):
        for m in (48, 160):  # tetris streams
            streamed(DiagonalSpec((), TailRule.constant(F(rng.randint(20, 48), 97))), m, tailed)
        for m in (32, 96):  # k = 3 residue splits
            large = [F(rng.randint(49, 96), 97) for _ in range(3)]
            small = [F(rng.randint(1, 48), 97) for _ in range(rng.randint(20, 60))]
            c = F(rng.randint(20, 48), 97)
            streamed(DiagonalSpec(large + small, TailRule.constant(c)), m, tailed)
    for _ in range(4):  # rows of random orthogonal matrices
        width = rng.randint(8, 40)
        gauss = np.random.default_rng(rng.randrange(2**32)).standard_normal((width, width))
        q, _ = np.linalg.qr(gauss)
        frame = [SparseVector.from_dense(q[a]) for a in range(rng.randint(4, width))]
        for tail in ((), (SparseVector((), SqrtTail(width - 2, unit_tail)),)):
            for form in (ProjectionRep.frame, ProjectionRep.coframe):
                rep = form(frame + list(tail))
                out.append((rep, _exact_spec(rep, width + 4), width + 4, None))
    for n in (32, 64):  # Schur-Horn pinnings
        half = [F(rng.randint(1, 96), 97) for _ in range(n // 2)]
        spec = DiagonalSpec(half + [1 - x for x in half])
        out.append((carpenter(spec), spec, n + 1, None))
    for r in ("9/10", "39/40"):  # decoupled pinnings with one sqrt-tail vector
        spec = DiagonalSpec((), TailRule.one_minus_geometric(1, r))
        rep = carpenter(spec)
        last = max(v.sqrt_tail.start if v.sqrt_tail else v.support[-1][0] for v in rep.vectors)
        out.append((rep, spec, last + 1, None))
    basis = ProjectionRep.frame(SparseVector.basis(i) for i in range(1, 9))  # G = I: S is empty
    out.append((basis, DiagonalSpec([F(1)] * 8), 12, None))
    out.append((basis.complementary(), DiagonalSpec([F(0)] * 8, TailRule.constant(1)), 12, None))
    return out


def test_bound_on_both_sides_of_the_dense_sparse_choice(monkeypatch):
    # the bound is summed over E's nonzeros (sparse E: streams and residue
    # splits) or densely (dense E: orthogonal rows and pinnings); either way G
    # is the pairwise inner matrix bit for bit, gramMaxErr and diagMaxErr are
    # the reference values bit for bit, and the bound lies between the dense
    # float value and the rounded |V|^T |E| |V| it bounds
    sides = []
    sparse_bound = selector._sparse_bound

    def spy(*args):
        out = sparse_bound(*args)
        sides.append(out is not None)
        return out

    monkeypatch.setattr(selector, "_sparse_bound", spy)
    for rep, spec, m, settled in _both_sides_of_the_bound(random.Random(2828)):
        assert_matches_reference(rep, spec, m, settled=settled)
        report = verify_projection(rep, spec, m, settled=settled)
        upto = m if settled is None else min(settled, m)
        assert report.diag_max_err == reference_diag_err(rep, spec, upto)
        n = len(rep.vectors)
        assert report.idempotency_err <= dense_abs_bound(rep, m) * (1 + 16 * n * 2.0**-53), rep
    assert True in sides and False in sides
