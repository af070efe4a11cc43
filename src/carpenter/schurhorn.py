"""Finite-dimensional diagonal prescriptions.

A self-adjoint matrix with eigenvalue list ``lam`` can be rotated so that its
diagonal becomes ``f`` exactly when ``f`` is majorized by ``lam``.  The
construction here is fully deterministic: it pins the target entries one at a
time with planar rotations, choosing the rotation plane by a fixed first-fit
rule, so repeated runs produce byte-identical matrices.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import ConstructionError, MajorizationError, SpecError
from .seqcore import ProjectionRep, SparseVector, rat

__all__ = [
    "majorizes",
    "schur_horn_unitary",
    "finite_projection",
    "finite_projection_pair",
]


def _is_rational_list(xs) -> bool:
    return all(isinstance(x, (int, Fraction)) for x in xs)


def majorizes(f, lam) -> bool:
    """True when the sorted prefix sums of f never exceed those of lam and the
    totals agree.

    When every entry of both lists is an int or a Fraction the comparison is
    exact; otherwise each comparison allows a fixed 1e-9 of floating-point
    fuzz.  No library call reaches the float mode: the Schur-Horn routines
    below take exact rationals only.
    """
    f = list(f)
    lam = list(lam)
    if len(f) != len(lam):
        raise SpecError(f"length mismatch: {len(f)} vs {len(lam)}")
    tol = 0 if _is_rational_list(f) and _is_rational_list(lam) else 1e-9
    fs = sorted(f, reverse=True)
    ls = sorted(lam, reverse=True)
    pf = pl = 0
    for i in range(len(fs)):
        pf += fs[i]
        pl += ls[i]
        if pf > pl + tol:
            return False
    return abs(pf - pl) <= tol


def schur_horn_unitary(lam, f) -> np.ndarray:
    """Orthogonal U with diag(U^T diag(lam) U) = f, given f majorized by lam.

    Both lists take exact rationals only (ints, Fractions or 'p/q' strings; a
    float is a SpecError).  Targets are pinned from the largest down.  Each
    step rotates the tightest pair of remaining values straddling the target
    so that the target coordinate reads exactly f_k while the partner keeps
    the leftover; with this pair choice the remaining values still majorize
    the remaining targets, so the recursion closes and the last coordinate
    ends exact by mass conservation.  Every rotation plane is decided on
    exact values; only the rotation entries involve square roots.
    """
    n = len(lam)
    if len(f) != n:
        raise SpecError(f"length mismatch: {len(f)} vs {n}")
    d = [rat(x) for x in lam]
    fv = [rat(x) for x in f]
    if not majorizes(fv, d):
        raise MajorizationError("target diagonal is not majorized by the spectrum")
    u = np.eye(n)
    order = sorted(range(n), key=lambda i: (-fv[i], i))
    pinned = [False] * n
    for t in order[:-1]:
        ft = fv[t]
        free = [i for i in range(n) if not pinned[i]]
        p = max((i for i in free if d[i] <= ft), key=lambda i: d[i])
        q = min((i for i in free if d[i] >= ft), key=lambda i: d[i])
        if d[p] == ft or d[q] == ft:
            _swap(u, d, t, p if d[p] == ft else q)
            pinned[t] = True
            continue
        if p != t:
            _swap(u, d, t, p)
            if q == t:
                q = p
        # now d[t] < ft < d[q]; rotate so coordinate t reads exactly ft
        c2 = (d[q] - ft) / (d[q] - d[t])
        c, s = math.sqrt(c2), math.sqrt(1 - c2)
        rot = np.eye(n)
        rot[t, t] = c
        rot[q, t] = s
        rot[t, q] = -s
        rot[q, q] = c
        u = u @ rot
        d[q] = d[t] + d[q] - ft
        d[t] = ft
        pinned[t] = True
    if n and d[order[-1]] != fv[order[-1]]:
        raise ConstructionError("internal: the last pinned coordinate misses its target")
    return u


def _swap(u: np.ndarray, d: list, i: int, j: int):
    if i != j:
        d[i], d[j] = d[j], d[i]
        u[:, [i, j]] = u[:, [j, i]]


def finite_projection_pair(f) -> tuple[list[SparseVector], list[SparseVector]]:
    """Orthonormal row systems (range, complement) for a finite diagonal f.

    The entries of f must lie in [0,1] and sum to an integer k; the first list
    spans a rank-k projection with diagonal f, the second its orthogonal
    complement inside the same coordinates.
    """
    fv = [rat(x) for x in f]
    n = len(fv)
    for x in fv:
        if not 0 <= x <= 1:
            raise SpecError(f"diagonal entry {x} outside [0,1]")
    total = sum(fv)
    if total.denominator != 1:
        raise MajorizationError(f"diagonal sum {total} is not an integer")
    k = total.numerator
    if all(x in (0, 1) for x in fv):
        ones = [SparseVector.basis(i + 1) for i, x in enumerate(fv) if x == 1]
        zeros = [SparseVector.basis(i + 1) for i, x in enumerate(fv) if x == 0]
        return ones, zeros
    lam = [1] * k + [0] * (n - k)
    u = schur_horn_unitary(lam, fv)
    rng = [SparseVector.from_dense(u[i, :]) for i in range(k)]
    ker = [SparseVector.from_dense(u[i, :]) for i in range(k, n)]
    return rng, ker


def finite_projection(f) -> ProjectionRep:
    """Rank-sum(f) projection on len(f) coordinates with diagonal exactly f."""
    rng, _ = finite_projection_pair(f)
    return ProjectionRep.frame(tuple(rng))
