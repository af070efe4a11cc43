"""Acceptance battery: ten end-to-end checks with pinned tolerances.

Each test prints one PASS line on success; run with ``pytest -v`` (or ``-s``)
to see them individually.  The whole file is budgeted to finish in well under
two minutes.
"""

import hashlib
import math
from fractions import Fraction as F

import numpy as np
import pytest

from carpenter.errors import InfeasibleDiagonalError
from carpenter.schurhorn import majorizes, schur_horn_unitary
from carpenter.selector import (
    carpenter,
    carpenter_field,
    necessity_oracle,
    verify_projection,
)
from carpenter.seqcore import (
    CellField,
    DiagonalSpec,
    PermutationWindow,
    ProjectionRep,
    SparseVector,
    TailRule,
    conjugate_by_permutation,
    dumps_canonical,
)
from carpenter.sispectral import SpectralFiber, SpectralSamples, extract_spectral, synthesize_range
from carpenter.summable import decouple, summable_construct2
from carpenter.tetris import coupling, tetris_vectors

WORKED = DiagonalSpec.of("3/10", "1/5", tail=TailRule.one_minus_geometric("1/4", "1/2"))


def ok(num, text):
    print(f"criterion {num:02d} PASS — {text}")


# ---------------------------------------------------------------------------


def test_criterion_01_streaming_fill_worked_example():
    s = DiagonalSpec.of(*["2/5"] * 5)
    out = tetris_vectors(s, 2)
    assert out.sigma[0] == F(3, 5)
    assert out.a_coef[0] == F(3, 10)
    v1, v2 = out.vectors
    expect1 = [math.sqrt(2 / 5), math.sqrt(3 / 10), -math.sqrt(3 / 10), 0.0, 0.0]
    expect2 = [0.0, math.sqrt(1 / 10), math.sqrt(1 / 10), math.sqrt(2 / 5), math.sqrt(2 / 5)]
    assert np.allclose(v1.dense(5), expect1, atol=1e-12)
    assert np.allclose(v2.dense(5), expect2, atol=1e-12)
    ok(1, "two-vector fill of five 2/5 entries matches the closed form at 1e-12")


def test_criterion_02_coupling_identity_and_brackets():
    rng = np.random.default_rng(20240)
    den = 2**20
    slack = F(1, 10**12)
    done = 0
    while done < 100_000:
        d1 = F(int(rng.integers(1, den)), den)
        d2 = F(int(rng.integers(1, den)), den)
        lo, hi = max(d1, d2), min(F(1), d1 + d2)
        if hi <= lo:
            continue
        num_lo = int(lo * den) + 1
        num_hi = int(hi * den) - (0 if hi * den != int(hi * den) else 1)
        if num_hi < num_lo:
            continue
        sigma = F(int(rng.integers(num_lo, num_hi + 1)), den)
        if not (max(d1, d2) <= sigma <= d1 + d2 and 2 * sigma > d1 + d2):
            continue
        a = coupling(d1, d2, sigma)
        assert abs(a * (d1 - a) - (sigma - a) * (d2 - sigma + a)) <= slack
        for q in (a, d1 - a, sigma - a, d2 - sigma + a):
            assert -slack <= q <= 1 + slack
        done += 1
    ok(2, "100000 random couplings satisfy the cross identity and [0,1] brackets")


def test_criterion_03_necessity_oracle_clean_sweep():
    for dim in range(2, 7):
        r = necessity_oracle(dim, 1000, seed=1729 + dim)
        assert r.violations == 0, r.to_json_dict()
        assert r.worst_distance <= 1e-9
    ok(3, "5000 random conjugated projections (dims 2-6) all pass the integrality test")


def _t_transforms(rng, lam, steps):
    f = list(lam)
    n = len(f)
    for _ in range(steps if n >= 2 else 0):
        i, j = rng.choice(n, 2, replace=False)
        t = F(int(rng.integers(0, 65)), 64)
        fi, fj = f[i], f[j]
        f[i] = t * fi + (1 - t) * fj
        f[j] = (1 - t) * fi + t * fj
    return f


def test_criterion_04_diagonal_pinning_and_majorization():
    rng = np.random.default_rng(4242)
    for _ in range(10_000):
        n = int(rng.integers(1, 7))
        lam = [F(int(rng.integers(0, 9)), 8) for _ in range(n)]
        f = _t_transforms(rng, lam, int(rng.integers(1, 5)))
        u = schur_horn_unitary(lam, f)
        d = np.diag(u.T @ np.diag([float(x) for x in lam]) @ u)
        assert max(abs(d[i] - float(f[i])) for i in range(n)) <= 1e-10
    for _ in range(10_000):
        n = int(rng.integers(2, 7))
        lam = rng.uniform(0.0, 1.0, n)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        d = np.diag(q.T @ np.diag(lam) @ q)
        assert majorizes(list(d), list(lam))
    ok(4, "10000 pinned diagonals hit their targets at 1e-10; 10000 conjugations never "
          "break majorization")


def test_criterion_05_decoupling_worked_example():
    plan = decouple(WORKED)
    assert (plan.i1, plan.i2, plan.i3, plan.i4, plan.i5) == (1, 2, 1, 3, 3)
    assert (plan.a1_tilde, plan.a2_tilde, plan.b_tilde) == (F(1, 8), F(1, 8), F(1))
    g1 = sum(F(p, q) for p, q in plan.group1)  # the plan holds lowest-terms pairs
    assert g1.denominator == 1
    assert sum(F(p, q) for p, q in plan.group2) == 1
    assert plan.group3_comp.total() == 1
    cls = WORKED.half_classes()
    small, large = WORKED.subsequence(cls, True), WORKED.subsequence(cls, False)
    a = [small.entry(plan.i1), small.entry(plan.i2)]
    b3 = large.entry(plan.i3)
    assert plan.a1_tilde + plan.a2_tilde + plan.b_tilde == a[0] + a[1] + b3
    assert majorizes([b3, a[0], a[1]], [plan.b_tilde, plan.a1_tilde, plan.a2_tilde])
    rep = summable_construct2(WORKED)
    want = [0.3, 0.2, 0.75, 0.875, 0.9375, 0.96875]
    got = rep.diag(6)
    assert np.allclose(got, want, atol=1e-9)
    g = rep.gram()
    assert float(np.abs(g - np.eye(len(g))).max()) <= 1e-9
    ok(5, "decoupling plan is exact and the assembled diagonal matches at 1e-9")


def _random_feasible_spec(rng):
    style = int(rng.integers(0, 4))
    k = int(rng.integers(0, 5))
    vals = [F(int(rng.integers(1, 8)), 8) for _ in range(k)]
    if style == 0:
        return DiagonalSpec.of(*vals, tail=TailRule.constant(F(int(rng.integers(1, 5)), 8)))
    if style == 1:
        return DiagonalSpec.of(*vals, tail=TailRule.constant(F(int(rng.integers(5, 8)), 8)))
    if style == 2:
        if not vals:
            vals = [F(1, 2), F(1, 2)]
        tail = TailRule.zero()
        tail_a, tail_b = F(0), F(0)
    else:
        vals = [F(int(rng.integers(1, 5)), 8), F(int(rng.integers(1, 5)), 8)] + vals
        c = F(1, 2 ** int(rng.integers(3, 5)))
        if rng.integers(0, 2):
            tail = TailRule.geometric(c, F(1, 2))
            tail_a, tail_b = 2 * c, F(0)
        else:
            tail = TailRule.one_minus_geometric(c, F(1, 2))
            tail_a, tail_b = F(0), 2 * c
    a = sum((x for x in vals if x <= F(1, 2)), tail_a)
    b = sum((1 - x for x in vals if x > F(1, 2)), tail_b)
    t = (a - b) - (a - b).__floor__()
    if t:
        vals.append(1 - t)
    return DiagonalSpec.of(*vals, tail=tail)


def test_criterion_06_random_specs_construct_and_verify():
    rng = np.random.default_rng(606)
    for trial in range(1000):
        s = _random_feasible_spec(rng)
        m = int(rng.integers(6, 9))
        trace = {}
        rep = carpenter(s, m=m, trace=trace)
        r = verify_projection(rep, s, m=2 * m, tol=1e-9, settled=trace.get("settled_prefix"))
        assert r.passed, (trial, r.to_json_dict())
        comp = rep.complementary()
        assert comp.form != rep.form and comp.vectors is rep.vectors
        exact = zip(rep.exact_diag(3), comp.exact_diag(3), rep.diag(3), comp.diag(3))
        for e, ce, d, cd in exact:
            if e is None:
                assert abs(d + cd - 1.0) <= 1e-12
            else:
                assert e + ce == 1
    ok(6, "1000 random feasible diagonals construct, verify at 1e-9, and complement cleanly")


def test_criterion_07_settled_prefix_scales_with_stream_depth():
    s = DiagonalSpec.of(tail=TailRule.constant("2/5"))
    for m, settled in ((4, 8), (8, 18), (16, 38)):
        trace = {}
        rep = carpenter(s, m=m, trace=trace)
        assert trace["settled_prefix"] == settled
        g = rep.gram()
        assert float(np.abs(g - np.eye(m)).max()) <= 1e-9
        assert rep.exact_diag(settled) == [F(2, 5)] * settled
    ok(7, "constant-2/5 streams settle prefixes 8/18/38 at depths 4/8/16, exactly on the nose")


# sha256 of the canonical JSON of the criterion-08 field and the criterion-09
# range function.  The field was recorded after reindexed sqrt tails began
# writing their exponent "k": 5 of its 50 cells hold one, and with each k folded
# back into c (c * r**k) the document is the one written before, byte for byte.
FIELD_DIGEST = "5d3edc20e8ec2c9d41438a5683e89121a166b0c09234144ac2610c20ebf03b38"
SPECTRAL_DIGEST = "ec0fde8287789c4f276db928d2b6b904e81ebb78131c2f01ed4aa9f395a61483"


def test_criterion_08_field_runs_are_deterministic():
    shapes = [
        {"prefix": [], "tail": {"kind": "constant", "c": "2/5"}},
        {"prefix": ["3/4", "2/3"], "tail": {"kind": "constant", "c": "2/5"}},
        {"prefix": [], "tail": {"kind": "constant", "c": "3/5"}},
        {"prefix": ["1/2", "1/2", "1", "0"], "tail": {"kind": "zero"}},
        {"prefix": ["3/10", "1/5"], "tail": {"kind": "one_minus_geometric", "c": "1/4", "r": "1/2"}},
        {"prefix": ["3/4", "1/8"], "tail": {"kind": "geometric", "c": "1/16", "r": "1/2"}},
        {"prefix": ["7/8", "5/8", "3/8", "1/8"], "tail": {"kind": "zero"}},
        {"prefix": ["1/4"], "tail": {"kind": "one_minus_geometric", "c": "1/8", "r": "1/2"}},
        {"prefix": ["1/2"] * 6, "tail": {"kind": "zero"}},
        {"prefix": ["1", "1", "0"], "tail": {"kind": "zero"}},
    ]
    cells = [
        (f"c{i:02d}", DiagonalSpec.from_json_dict(shapes[i % len(shapes)])) for i in range(50)
    ]
    field = CellField(tuple(cells))
    first = dumps_canonical(carpenter_field(field, m=5).to_json_dict())
    second = dumps_canonical(carpenter_field(field, m=5).to_json_dict())
    assert first == second
    assert first.encode() == second.encode()
    assert hashlib.sha256(first.encode()).hexdigest() == FIELD_DIGEST
    ok(8, "two fresh 50-cell field runs serialize byte-identically")


def _fiber(xi, vals, tail=None):
    return SpectralFiber((xi,), tuple(F(v) for v in vals), tail or TailRule.zero())


def test_criterion_09_spectral_round_trip_and_fiber_naming():
    w6 = tuple((k,) for k in range(6))
    samples = SpectralSamples(
        1,
        w6,
        (
            _fiber(0.0, ["2/5"] * 6, TailRule.constant("2/5")),
            _fiber(0.125, ["1/2", "1/2", "1", "0", "3/4", "1/4"]),
            _fiber(
                0.25,
                ["3/10", "1/5", "3/4", "7/8", "15/16", "31/32"],
                TailRule.one_minus_geometric("1/64", "1/2"),
            ),
            _fiber(0.375, ["1"] * 6),
            _fiber(0.5, ["0"] * 6),
            _fiber(0.625, ["3/4"] * 6, TailRule.constant("3/4")),
            _fiber(0.75, ["1/2"] * 6),
            _fiber(0.875, ["7/8", "5/8", "3/8", "1/8", "1/2", "1/2"]),
        ),
    )
    rf = synthesize_range(samples, m=16)
    assert hashlib.sha256(dumps_canonical(rf.to_json_dict()).encode()).hexdigest() == SPECTRAL_DIGEST
    back = extract_spectral(rf)
    tol = F(1, 10**9)
    for orig, got in zip(samples.fibers, back.fibers):
        assert got.xi == orig.xi
        assert max(abs(x - y) for x, y in zip(got.values, orig.values)) <= tol
    bad = SpectralSamples(
        1, w6, samples.fibers[:2] + (_fiber(0.3125, ["1/4", "0", "0", "0", "0", "0"]),)
    )
    with pytest.raises(InfeasibleDiagonalError, match=r"0\.3125"):
        synthesize_range(bad, m=16)
    ok(9, "8 spectral fibers synthesize and read back at 1e-9; infeasible fibers are named")


def test_criterion_10_permutations_move_the_diagonal():
    rng = np.random.default_rng(1010)
    reps = []
    for _ in range(80):
        n = int(rng.integers(2, 9))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        k = int(rng.integers(1, n + 1))
        frame = tuple(SparseVector.from_dense(q[:, j]) for j in range(k))
        reps.append((ProjectionRep.frame(frame), n))
    stream = carpenter(DiagonalSpec.of(tail=TailRule.constant("2/5")), m=4)
    for _ in range(20):
        reps.append((stream, 6))
    for rep, n in reps:
        perm = PermutationWindow(tuple(int(x) for x in rng.permutation(n) + 1))
        out = conjugate_by_permutation(rep, perm)
        d_out, d_rep = out.diag(n + 2), rep.diag(n + 2)
        for i in range(1, n + 3):
            assert abs(d_out[i - 1] - d_rep[perm.map_index(i) - 1]) <= 1e-12
    ok(10, "100 permutation conjugations relocate every diagonal entry at 1e-12")
