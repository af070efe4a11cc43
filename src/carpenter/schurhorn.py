"""Finite-dimensional diagonal prescriptions.

A self-adjoint matrix with eigenvalue list ``lam`` can be rotated so that its
diagonal becomes ``f`` exactly when ``f`` is majorized by ``lam``.  The
construction here is fully deterministic: it pins the target entries one at a
time with planar rotations, choosing the rotation plane by a fixed first-fit
rule, so repeated runs produce byte-identical matrices.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections.abc import Sequence
from fractions import Fraction

import numpy as np

from .errors import ConstructionError, MajorizationError, SpecError
from .seqcore import ProjectionRep, SparseVector, over_lcm

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
    exact values (integers over one common denominator); only the rotation
    entries involve square roots.
    """
    n = len(lam)
    if len(f) != n:
        raise SpecError(f"length mismatch: {len(f)} vs {n}")
    _, ints = over_lcm([*lam, *f])
    return np.ascontiguousarray(_pinned_columns(ints[:n], ints[n:], range(n)).T)


def _pinned_columns(d: list[int], fi: list[int], keep: range) -> np.ndarray:
    """The transpose of rows ``keep`` of U, for the spectrum ``d`` and target ``fi``
    given as integers over one common denominator; ``d`` is pinned in place.

    Each step swaps or rotates two columns of U, so every row of U evolves on
    its own: the kept rows start as those rows of the identity and take the
    same column steps.  They are stored column by column (U^T, C-contiguous),
    so a step touches two contiguous rows.  The free values sit in a sorted
    list of (value, index) pairs, so each plane is two bisections; among equal
    values the smallest index is taken.
    """
    n = len(d)
    if not majorizes(fi, d):
        raise MajorizationError("target diagonal is not majorized by the spectrum")
    ut = np.zeros((n, len(keep)))
    ut[keep, range(len(keep))] = 1.0
    free = sorted(zip(d, range(n)))
    order = sorted(range(n), key=lambda i: (-fi[i], i))
    for t in order[:-1]:
        ft = fi[t]
        j = bisect_left(free, (ft,))
        q = free[j][1]  # the smallest value >= ft
        if d[q] == ft:
            moved = {t, q}
            p = q
        else:
            vp = free[j - 1][0]  # the largest value < ft, at its smallest index
            p = free[bisect_left(free, (vp,))][1]
            moved = {t, p, q}
        for i in moved:
            del free[bisect_left(free, (d[i], i))]
        if p != t:
            d[t], d[p] = d[p], d[t]
            ut[t], ut[p] = ut[p], ut[t].copy()
            if q == t:
                q = p
        if d[t] != ft:  # now d[t] < ft < d[q]; rotate so coordinate t reads exactly ft
            c = math.sqrt((d[q] - ft) / (d[q] - d[t]))
            s = math.sqrt((ft - d[t]) / (d[q] - d[t]))
            x, y = ut[t], ut[q]  # views: the rows change in place
            xs = x * -s
            x *= c
            x += y * s  # x c + y s
            y *= c
            y += xs  # y c + x (-s): a sum of two floats is the same in either order
            d[q] += d[t] - ft
            d[t] = ft
        for i in moved - {t}:
            insort(free, (d[i], i))
    if n and d[order[-1]] != fi[order[-1]]:
        raise ConstructionError("internal: the last pinned coordinate misses its target")
    return ut


def _rows_over(den: int, nums: Sequence[int], *, rng: bool, ker: bool) -> tuple[list, list]:
    """:func:`finite_projection_pair` of nums/den in the least layout of ``over_lcm`` (den is 1
    iff every entry is 0 or 1), only the range (``rng``) and complement (``ker``) rows asked
    for, the other list empty.  The pinning runs on the integers."""
    n = len(nums)
    for m in nums:
        if not 0 <= m <= den:
            raise SpecError(f"diagonal entry {Fraction(m, den)} outside [0,1]")
    k, rest = divmod(sum(nums), den)
    if rest:
        raise MajorizationError(f"diagonal sum {Fraction(sum(nums), den)} is not an integer")
    if den == 1:  # every entry is 0 or 1
        ones = [SparseVector.basis(i + 1) for i, x in enumerate(nums) if x == 1] if rng else []
        zeros = [SparseVector.basis(i + 1) for i, x in enumerate(nums) if x == 0] if ker else []
        return ones, zeros
    keep = range(0 if rng else k, n if ker else k)
    ut = _pinned_columns([den] * k + [0] * (n - k), nums, keep)
    rows = [SparseVector.from_dense(row) for row in ut.T]
    cut = k - keep.start
    return rows[:cut], rows[cut:]


def finite_projection_pair(f) -> tuple[list[SparseVector], list[SparseVector]]:
    """Orthonormal row systems (range, complement) for a finite diagonal f.

    The entries of f must lie in [0,1] and sum to an integer k; the first list
    spans a rank-k projection with diagonal f, the second its orthogonal
    complement inside the same coordinates.
    """
    return _rows_over(*over_lcm(f), rng=True, ker=True)


def finite_projection(f) -> ProjectionRep:
    """Rank-sum(f) projection on len(f) coordinates with diagonal exactly f."""
    rng, _ = _rows_over(*over_lcm(f), rng=True, ker=False)
    return ProjectionRep.frame(tuple(rng))
