from fractions import Fraction as F

import numpy as np
import pytest

from carpenter.errors import MajorizationError, SpecError
from carpenter.schurhorn import (
    finite_projection,
    finite_projection_pair,
    majorizes,
    schur_horn_unitary,
)


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
