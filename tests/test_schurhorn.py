import math
from fractions import Fraction as F

import numpy as np
import pytest

from carpenter.errors import MajorizationError, SpecError
from carpenter.schurhorn import (
    _pinned_columns,
    _rows_over,
    finite_projection,
    finite_projection_pair,
    majorizes,
    schur_horn_unitary,
)
from carpenter.seqcore import (
    DiagonalSpec,
    IndexMap,
    PermutationWindow,
    SparseVector,
    TailRule,
    over_lcm,
)
from carpenter.summable import decouple, proper_subspec


def random_t_transforms(rng, lam, steps):
    """Mix lam toward its mean by random pairwise averaging; keeps majorization."""
    f = list(lam)
    n = len(f)
    for _ in range(steps if n >= 2 else 0):
        i, j = rng.choice(n, size=2, replace=False)
        t = F(int(rng.integers(0, 9)), 8)
        fi, fj = f[i], f[j]
        f[i] = t * fi + (1 - t) * fj
        f[j] = (1 - t) * fi + t * fj
    return f


def test_majorizes_exact():
    assert majorizes([F(1, 2), F(1, 2)], [1, 0])
    assert majorizes([1, 0], [1, 0])
    assert not majorizes([F(3, 4), F(1, 4)], [F(1, 2), F(1, 2)])
    # unequal sums never majorize
    assert not majorizes([F(1, 2)], [1])


def test_majorizes_prefix_condition():
    lam = [F(1), F(1), F(0), F(0)]
    assert majorizes([F(3, 4), F(3, 4), F(1, 4), F(1, 4)], lam)
    assert not majorizes([F(5, 4), F(1, 4), F(1, 4), F(1, 4)], lam)


def test_majorizes_float_tolerance():
    assert majorizes([0.5 + 1e-12, 0.5 - 1e-12], [1.0, 0.0])
    assert not majorizes([0.6, 0.6], [1.0, 0.0])


def test_majorizes_order_insensitive_input():
    assert majorizes([F(1, 4), F(3, 4)], [0, 1])


def test_schur_horn_identity_case():
    u = schur_horn_unitary([F(1), F(0)], [F(1), F(0)])
    lam = np.diag([1.0, 0.0])
    d = np.diag(u.T @ lam @ u)
    assert np.allclose(d, [1.0, 0.0], atol=1e-12)


def test_schur_horn_balanced_pair():
    u = schur_horn_unitary([F(1), F(0)], [F(1, 2), F(1, 2)])
    assert np.allclose(u @ u.T, np.eye(2), atol=1e-12)
    d = np.diag(u.T @ np.diag([1.0, 0.0]) @ u)
    assert np.allclose(d, [0.5, 0.5], atol=1e-12)


def test_schur_horn_three_by_three():
    lam = [F(1), F(1), F(0)]
    f = [F(7, 8), F(3, 4), F(3, 8)]
    u = schur_horn_unitary(lam, f)
    d = np.diag(u.T @ np.diag([float(x) for x in lam]) @ u)
    assert np.allclose(d, [float(x) for x in f], atol=1e-10)
    assert np.allclose(u @ u.T, np.eye(3), atol=1e-12)


def test_schur_horn_random_t_transform_pairs():
    rng = np.random.default_rng(17)
    for _ in range(150):
        n = int(rng.integers(1, 7))
        lam = [F(int(rng.integers(0, 5)), 4) for _ in range(n)]
        f = random_t_transforms(rng, lam, int(rng.integers(0, 6)))
        assert majorizes(f, lam)
        u = schur_horn_unitary(lam, f)
        d = np.diag(u.T @ np.diag([float(x) for x in lam]) @ u)
        assert np.allclose(d, [float(x) for x in f], atol=1e-10)
        assert np.allclose(u @ u.T, np.eye(n), atol=1e-10)


def test_schur_horn_rejects_non_majorized():
    with pytest.raises(MajorizationError):
        schur_horn_unitary([F(1, 2), F(1, 2)], [F(1), F(0)])


def test_finite_projection_pair_zero_one_shortcut():
    rows, comp = finite_projection_pair([F(1), F(0), F(1)])
    assert [tuple(i for i, _ in v.support) for v in rows] == [(1,), (3,)]
    assert [tuple(i for i, _ in v.support) for v in comp] == [(2,)]


def test_finite_projection_pair_mixed():
    f = [F(3, 4), F(3, 4), F(1, 4), F(1, 4)]
    rows, comp = finite_projection_pair(f)
    assert len(rows) == 2 and len(comp) == 2
    v = np.vstack([w.dense(4) for w in rows + comp])
    assert np.allclose(v @ v.T, np.eye(4), atol=1e-10)
    p = v[:2].T @ v[:2]
    assert np.allclose(np.diag(p), [float(x) for x in f], atol=1e-10)


def test_finite_projection_pair_needs_integer_mass():
    with pytest.raises(MajorizationError):
        finite_projection_pair([F(1, 4), F(1, 4)])
    with pytest.raises(SpecError):
        finite_projection_pair([F(5, 4)])


def test_rational_only_inputs():
    """Floats are rejected and a diagonal sum off an integer by 1e-13 is not rounded."""
    for call, args, err in (
        (finite_projection, ([F(1, 2), F(1, 2) + F(1, 10**13)],), MajorizationError),
        (finite_projection_pair, ([0.5, 0.5],), SpecError),
        (schur_horn_unitary, ([1.0, 0.0], [F(1, 2), F(1, 2)]), SpecError),
        (schur_horn_unitary, ([F(1), F(0)], [0.5, 0.5]), SpecError),
    ):
        with pytest.raises(err):
            call(*args)


def test_finite_projection_rep():
    f = [F(1, 2), F(1, 2), F(1), F(0)]
    rep = finite_projection(f)
    assert rep.diag(4) == pytest.approx([float(x) for x in f], abs=1e-10)
    p = rep.dense(4)
    assert np.allclose(p @ p, p, atol=1e-10)
    assert np.allclose(p, p.T, atol=1e-12)


def dense_product_unitary(lam, f):
    """The pinning loop written with a full rotation matrix per step and Fraction scans:
    the reference the in-place two-column rotations must match bit for bit."""
    n = len(lam)
    d, fv = [F(x) for x in lam], [F(x) for x in f]
    u = np.eye(n)

    def swap(i, j):
        if i != j:
            d[i], d[j] = d[j], d[i]
            u[:, [i, j]] = u[:, [j, i]]

    order = sorted(range(n), key=lambda i: (-fv[i], i))
    pinned = [False] * n
    for t in order[:-1]:
        ft = fv[t]
        free = [i for i in range(n) if not pinned[i]]
        p = max((i for i in free if d[i] <= ft), key=lambda i: d[i])
        q = min((i for i in free if d[i] >= ft), key=lambda i: d[i])
        if d[p] == ft or d[q] == ft:
            swap(t, p if d[p] == ft else q)
            pinned[t] = True
            continue
        if p != t:
            swap(t, p)
            if q == t:
                q = p
        c2 = (d[q] - ft) / (d[q] - d[t])
        c, s = math.sqrt(c2), math.sqrt(1 - c2)
        rot = np.eye(n)
        rot[t, t], rot[q, t], rot[t, q], rot[q, q] = c, s, -s, c
        u = u @ rot
        d[q] = d[t] + d[q] - ft
        d[t] = ft
        pinned[t] = True
    return u


def tied_zero_one_case(rng, n):
    """A 0/1 spectrum of rank k and a target of 0, 1/2 and 1 entries, so values tie."""
    halves = 2 * int(rng.integers(0, n // 2 + 1))
    ones = int(rng.integers(0, n - halves + 1))
    k = ones + halves // 2
    f = [F(1)] * ones + [F(1, 2)] * halves + [F(0)] * (n - ones - halves)
    return [1] * k + [0] * (n - k), [f[i] for i in rng.permutation(n)]


def test_pinning_matches_the_dense_product_reference():
    """U is byte-identical to the dense-product loop on tied 0/1 spectra up to n = 64 and
    on general rational spectra the size of the decoupling's 3x3 correction."""
    rng = np.random.default_rng(23)
    cases = [tied_zero_one_case(rng, n) for n in (1, 2, 3, 5, 8, 13, 21, 34, 64) for _ in range(3)]
    for _ in range(60):
        n = int(rng.integers(1, 33))
        k = int(rng.integers(0, n + 1))
        lam = [1] * k + [0] * (n - k)
        cases.append((lam, random_t_transforms(rng, lam, 2 * n)))
    for _ in range(300):
        n = int(rng.integers(2, 5))
        lam = [F(int(rng.integers(0, 40)), int(rng.integers(1, 40))) for _ in range(n)]
        cases.append((lam, random_t_transforms(rng, lam, int(rng.integers(0, 5)))))
    for lam, f in cases:
        assert schur_horn_unitary(lam, f).tobytes() == dense_product_unitary(lam, f).tobytes()


def test_kept_rows_are_rows_of_the_full_unitary():
    """Building only some rows gives exactly those rows of U; the range and complement rows
    of finite_projection_pair are U's rows, or for an all-0/1 f the basis vectors at the 1
    entries and at the 0 entries, in index order."""
    rng = np.random.default_rng(29)
    zero_one = 0
    for n in (2, 7, 16, 40):
        for _ in range(4):
            lam, f = tied_zero_one_case(rng, n)
            f = random_t_transforms(rng, f, n)
            u = schur_horn_unitary(lam, f)
            lo = int(rng.integers(0, n + 1))
            hi = int(rng.integers(lo, n + 1))
            _, ints = over_lcm([F(x) for x in lam] + f)
            kept = _pinned_columns(ints[:n], ints[n:], range(lo, hi))
            assert kept.T.tobytes() == u[lo:hi].tobytes()
            rows, comp = finite_projection_pair(f)
            if all(x in (0, 1) for x in f):
                assert rows == [SparseVector.basis(i) for i, x in enumerate(f, 1) if x == 1]
                assert comp == [SparseVector.basis(i) for i, x in enumerate(f, 1) if x == 0]
                zero_one += 1
            else:
                assert rows + comp == [SparseVector.from_dense(r) for r in u]
    rows, comp = finite_projection_pair([1, 0, 0, 1, 1])
    assert rows == [SparseVector.basis(i) for i in (1, 4, 5)]
    assert comp == [SparseVector.basis(i) for i in (2, 3)]
    assert zero_one, zero_one


def test_pinning_a_decoupled_group_of_three_hundred_matches_the_reference():
    """Group 1 of the decoupling of [2/97, 95/97] + one_minus_geometric(1, 39/40): 299
    entries over one denominator of about 1,600 bits.  Its complement rows, pinned on
    the integers put over that denominator once, are the rows of the dense-product
    loop bit for bit."""
    spec = DiagonalSpec.of("2/97", "95/97", tail=TailRule.one_minus_geometric("1", "39/40"))
    f = [F(p, q) for p, q in decouple(proper_subspec(spec)[0]).group1]
    n, k = len(f), int(sum(f))
    assert (n, k) == (299, 260)
    assert max(x.denominator for x in f).bit_length() > 1500
    comp = _rows_over(*over_lcm(f), ker=True)
    u = dense_product_unitary([1] * k + [0] * (n - k), f)
    assert comp == [SparseVector.from_dense(r) for r in u[k:]]


def placement_maps(rng, n):
    """Index maps for rows of length n: the identity, a residue class, proper-entry heads
    (explicit, then from a spec's 0/1 entries) and a decoupling-style relabel whose head is
    not monotone (a block shift, a permutation's inverse, then an embedding)."""
    k, m = int(rng.integers(1, 5)), int(rng.integers(1, 9))
    head = sorted(int(x) for x in rng.choice(np.arange(1, 3 * n + 2), n // 2, replace=False))
    proper = IndexMap(tuple(head), 1, max(head, default=0) + 1 - len(head))
    values = [str(F(1, 2))] * n + ["0", "1"] * int(rng.integers(1, 4))
    _, from_spec, _ = proper_subspec(DiagonalSpec.of(*[values[i] for i in rng.permutation(len(values))]))
    window = [int(x) for x in rng.permutation(n + 3) + 1]
    beta = PermutationWindow.head_first(window)
    shift = int(rng.integers(1, 6))
    scrambled = proper.after(beta.inverse()).after(IndexMap((), 1, shift))
    return [IndexMap(), IndexMap((), k, m), proper, from_spec, scrambled]


def test_rows_over_builds_each_row_where_remap_puts_it():
    """``_rows_over(den, nums, emb, ker=s)`` is the whole U's rows (basis vectors when den is
    1), built locally by ``from_dense`` and then moved by ``remap(emb)``: both sides, 0/1 and
    mixed layouts, k = 0 and k = n, and maps with and without a monotone head."""
    rng = np.random.default_rng(34)
    cases = [[F(0)] * 4, [F(1)] * 4, [F(1), F(0), F(1)], [F(1, 3), F(1, 3), F(1, 3)]]
    for n in (2, 5, 9, 17, 30):
        for _ in range(3):
            lam, f = tied_zero_one_case(rng, n)
            cases += [f, random_t_transforms(rng, f, n)]
    assert any(sum(f) == 0 for f in cases) and any(sum(f) == len(f) for f in cases)
    for f in cases:
        den, nums = over_lcm(f)
        n, k = len(f), int(sum(f))
        if den == 1:
            ones = [SparseVector.basis(i) for i, x in enumerate(nums, 1) if x == 1]
            zeros = [SparseVector.basis(i) for i, x in enumerate(nums, 1) if x == 0]
        else:
            u = schur_horn_unitary([1] * k + [0] * (n - k), f)
            ones = [SparseVector.from_dense(r) for r in u[:k]]
            zeros = [SparseVector.from_dense(r) for r in u[k:]]
        for emb in placement_maps(rng, n):
            for ker, rows in ((False, ones), (True, zeros)):
                got = _rows_over(den, nums, emb, ker=ker)
                assert got == [v.remap(emb) for v in rows], (f, emb, ker)

