"""Constructions for diagonals whose defect sums a and b both converge.

Here a projection with the requested diagonal exists exactly when a - b is an
integer, and the construction always terminates: after finitely many vectors
every diagonal entry is settled.  The hard case (infinitely many entries on
both sides of 1/2) is handled by decoupling: three distinguished entries are
adjusted so the sequence falls apart into a finite group with integer mass, a
finite group with mass one, and a terminal group whose complement has mass
one.  Each group is realized independently, and a single 3x3 rotation moves
the adjusted entries back to their requested values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .errors import ConstructionError
from .feasibility import route
from .seqcore import (
    INF,
    DiagonalSpec,
    IndexMap,
    PermutationWindow,
    ProjectionRep,
    SparseVector,
    TailRule,
    _fmt_ratio,
    fmt_rat,
)
from .schurhorn import _rows_over, majorizes, schur_horn_unitary
from .tetris import tetris_vectors

__all__ = [
    "proper_subspec",
    "DecouplingPlan",
    "decouple",
    "summable_construct2",
]


def proper_subspec(spec: DiagonalSpec):
    """Strip the 0/1 entries: returns (proper subsequence, embedding, improper).

    The embedding's head is the proper positions below ``rest_start``; a proper
    tail, if any, follows from ``rest_start`` on.  ``improper`` lists (position,
    value) for the 0/1 entries below ``rest_start``: all of them, unless a
    constant 0 or 1 tail makes them infinitely many.
    """
    cls = spec.proper_classes()
    head = cls.head(True)
    improper = tuple((i, int(spec.entry(i))) for i in cls.head(False))
    return spec.subsequence(cls, True), IndexMap(head, 1, cls.rest_start() - len(head)), improper


# ---------------------------------------------------------------------------
# decoupling


@dataclass(frozen=True)
class DecouplingPlan:
    """Exact bookkeeping for the three-group decomposition.

    ``small`` lists the entries <= 1/2 in order; ``i1``/``i2`` are the
    ordinals of the two largest of the first two of them, ``i3`` the large
    entry used for the mass-one group, ``i4``/``i5`` the cut ordinals.  The
    adjusted values replace a_{i1}, a_{i2}, b_{i3}; the groups then carry
    integer mass, mass one, and co-mass one respectively.  ``group1`` and ``group2`` hold each
    group's entries as lowest-terms pairs ``(p, q)``, its adjusted entry first and then the
    entries at ``group1_src[1:]`` / ``group2_src[1:]``: no Fraction is built for them.
    """

    i1: int
    i2: int
    i3: int
    i4: int
    i5: int
    small: tuple[Fraction, ...]
    b_tilde: Fraction
    a1_tilde: Fraction
    a2_tilde: Fraction
    group1: tuple[tuple[int, int], ...]
    group2: tuple[tuple[int, int], ...]
    group3_comp: DiagonalSpec
    group1_src: tuple[int, ...]
    group2_src: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "i": [self.i1, self.i2, self.i3, self.i4, self.i5],
            "small": [fmt_rat(x) for x in self.small],
            "adjusted": {
                "a1": fmt_rat(self.a1_tilde),
                "a2": fmt_rat(self.a2_tilde),
                "b": fmt_rat(self.b_tilde),
            },
            "group1": [_fmt_ratio(p, q) for p, q in self.group1],
            "group2": [_fmt_ratio(p, q) for p, q in self.group2],
            "group3_complement": self.group3_comp.to_json_dict(),
            "group1_src": list(self.group1_src),
            "group2_src": list(self.group2_src),
        }


def decouple(spec: DiagonalSpec) -> DecouplingPlan:
    """Compute the three-group decomposition of an all-proper summable spec.

    Requires infinitely many entries > 1/2 and finitely many (at least two)
    entries <= 1/2.  All scans and identities are exact; violations of the
    invariants raise ConstructionError rather than returning a bad plan.

    Each exact quantity is found once.  i3 is the first large entry >= 1 - a_{i1}:
    a scan of the large prefix's numerators, else the tail's closed-form crossing.
    i4 is the first cut whose suffix sum of small entries (integers over one
    denominator, summed once from the end) fits beside b_{i3}.  i5 is the first
    ordinal from which the large entries' co-mass, b_{i3}'s left out, is at most
    a_{i2}: that co-mass is the complements' total less one of their running sums,
    so :meth:`DiagonalSpec.reach` finds it from closed-form sums, without a walk over
    the ordinals.  Group 1's large entries are read in one walk of
    :meth:`TailRule.values`, as lowest-terms integer pairs, and its integer mass comes
    from closed-form sums.
    """
    prop = spec.proper_classes()
    if prop.count(False) != 0:
        raise ConstructionError("decoupling needs every entry strictly between 0 and 1")
    cls = spec.half_classes()
    if cls.count(False) != INF:
        raise ConstructionError("decoupling needs infinitely many entries > 1/2")
    n = cls.count(True)
    if n == INF or n < 2:
        raise ConstructionError(f"decoupling needs 2 <= #small < inf, got {n}")
    small_src = [cls.nth(i, True) for i in range(1, n + 1)]
    den, nums = spec.over(small_src)  # the small entries as integers over den
    a = [Fraction(x, den) for x in nums]

    large = spec.subsequence(cls, False)  # b_i = large.entry(i)
    large_c = large.complement()  # entries 1 - b_i
    T = large_c.total()
    if T == INF:  # a constant tail of large entries keeps off 1, and no co-mass falls
        raise ConstructionError("decoupling needs the large entries to tend to 1")

    i1 = 1 if a[0] >= a[1] else 2
    i2 = 3 - i1
    low, t = 1 - a[i1 - 1], large.tail
    lp, lq = low.numerator * large.den, low.denominator
    i3 = next((i for i, x in enumerate(large.nums, start=1) if x * lq >= lp), None)
    if i3 is None:
        i3 = len(large.nums) + t.first_at_most(a[i1 - 1])  # the first 1 - g_j >= 1 - a_i1
    b3 = large.entry(i3)
    # suffix[k - 1] = den * (a_k + ... + a_n), for k = 1..n+1
    suffix = list(accumulate(reversed(nums), initial=0))[::-1]
    room = math.floor((1 - b3) * den)  # an integer sum fits under x iff it fits under floor(x)
    i4 = next(k for k in range(3, n + 2) if suffix[k - 1] <= room)

    # the co-mass of the large entries from ordinal k on, b_{i3}'s left out, is T - S_{k-1}
    # - (1 - b3) up to k = i3 and T - S_{k-1} after it (S, T large_c's running sums and finite
    # total): both are nonincreasing, agree at i3 and i3 + 1, and fall to a_{i2} > 0
    j = large_c.reach(T - a[i2 - 1] - (1 - b3))
    if j >= i3:
        j = large_c.reach(T - a[i2 - 1])
    i5 = j + 1

    b_t = 1 - Fraction(suffix[i4 - 1], den)
    a2_t = T - large_c.partial_sum(j) - (1 - b3 if i3 >= i5 else 0)
    a1_t = a[i1 - 1] + a[i2 - 1] + b3 - a2_t - b_t

    if not (a2_t <= a[i2 - 1] <= a[i1 - 1]):
        raise ConstructionError("adjusted small entry fails its bounds")
    if not b3 <= b_t:
        raise ConstructionError("adjusted large entry fails its lower bound")
    if not 0 <= a1_t <= 1:
        raise ConstructionError(f"adjusted entry {fmt_rat(a1_t)} outside [0,1]")
    # the adjusted first entry can exceed b3 (even 1/2); all the assembly
    # needs is the triple majorization, which the two stopping rules force
    if not majorizes([b3, a[i1 - 1], a[i2 - 1]], [b_t, a1_t, a2_t]):
        raise ConstructionError("requested triple is not majorized by the adjusted one")

    # each group's first slot holds its adjusted entry; the rest are read off
    # their source indices
    kept = [o for o in range(1, i5) if o != i3]
    g1_src = (
        (small_src[i1 - 1],) + tuple(small_src[2 : i4 - 1]) + tuple(cls.nth(o, False) for o in kept)
    )
    g2_src = (cls.nth(i3, False),) + tuple(small_src[i4 - 1 :])
    pairs = [(x.numerator, x.denominator) for x in a]
    ld = large.den  # the large entries b_1 .. b_{i5-1} in lowest terms, the tail's in one walk
    b = [(x // g, ld // g) for x in large.nums[: i5 - 1] for g in (math.gcd(x, ld),)]
    b += large.tail.values(i5 - 1 - len(b))
    group1 = ((a1_t.numerator, a1_t.denominator),) + tuple(pairs[2 : i4 - 1])
    group1 += tuple(b[o - 1] for o in kept)
    k1 = (
        a1_t
        + Fraction(suffix[2] - suffix[i4 - 1], den)
        + large.partial_sum(i5 - 1)
        - (b3 if i3 < i5 else 0)
    )
    if k1.denominator != 1:
        raise ConstructionError(f"first group mass {fmt_rat(k1)} is not an integer")
    group2 = ((b_t.numerator, b_t.denominator),) + tuple(pairs[i4 - 1 :])
    if b_t + sum(a[i4 - 1 :]) != 1:
        raise ConstructionError("second group mass != 1")

    p_l = len(large.nums)
    cut = max(p_l + 1, i3 + 1, i5)
    head_ords = [o for o in range(i5, cut) if o != i3]
    g3c = DiagonalSpec(
        (1 - a2_t,) + tuple(large_c.entry(o) for o in head_ords),
        large_c.tail.reindexed(cut - p_l),
    )
    if g3c.total() != 1:
        raise ConstructionError("terminal group co-mass != 1")
    return DecouplingPlan(
        i1, i2, i3, i4, i5, tuple(a), b_t, a1_t, a2_t,
        group1, group2, g3c, g1_src, g2_src,
    )


# ---------------------------------------------------------------------------
# assembly


def conjugate_on_coords(rep: ProjectionRep, coords, u: np.ndarray) -> ProjectionRep:
    """Conjugate by an orthogonal matrix acting only on the listed coordinates.

    Both frames and coframes transform vectorwise: entries at the coordinates
    mix through u's columns, everything else is untouched.  Exact squares of
    touched vectors are discarded.
    """
    coords = tuple(coords)
    cmax = max(coords)
    out = []
    for v in rep.vectors:
        if v.sqrt_tail is not None and v.sqrt_tail.start <= cmax:
            v = v.materialized_through(cmax)
        sup = dict(v.support)
        if not any(c in sup for c in coords):
            out.append(v)
            continue
        old = np.array([sup.get(c, 0.0) for c in coords])
        new = u.T @ old
        base = [(i, val) for i, val in v.support if i not in coords]
        base.extend((c, float(nv)) for c, nv in zip(coords, new) if nv != 0.0)
        base.sort()
        out.append(SparseVector(tuple(base), v.sqrt_tail, None))
    return ProjectionRep(rep.form, tuple(out))


def _group_layout(spec: DiagonalSpec, group, src) -> tuple[int, list[int]]:
    """A decoupled group's pinning layout, the least one: its adjusted entry ``group[0]`` (a
    lowest-terms pair), then the entries at ``src[1:]``, read once by :meth:`DiagonalSpec.over`.
    Only ``spec.den`` can put factors into that read's denominator that no entry of the group
    needs, so the one gcd starts from it."""
    L, nums = spec.over(src[1:])
    p, q = group[0]
    d = math.lcm(L, q)
    if d != L:
        nums = [x * (d // L) for x in nums]
    nums.insert(0, p * (d // q))
    g = math.gcd(spec.den, d, *nums)
    return (d, nums) if g == 1 else (d // g, [x // g for x in nums])


def summable_construct2(
    spec: DiagonalSpec, trace: dict | None = None, emb: IndexMap = IndexMap()
) -> ProjectionRep:
    """Projection for an all-proper spec with infinitely many entries > 1/2
    and finitely many (>= 2) entries <= 1/2.

    Realizes the three decoupled groups (integer-rank complement basis,
    rank-one complement basis, and a terminal rank-one co-mass vector), each
    vector built once at its final index: one map per group composes its block
    shift, the permutation into the original order and ``emb`` (the proper
    entries' places in a longer spec).  A 3x3 rotation on the placed adjusted
    entries moves them back to their requested values.  The result is
    complete: every diagonal entry is settled.
    """
    plan = decouple(spec)
    n1, l2 = len(plan.group1), len(plan.group2)
    # group three: the small entry a_{i2}, then the large entries no group took
    i2_src = spec.half_classes().nth(plan.i2, True)
    beta = PermutationWindow.head_first(plan.group1_src + plan.group2_src + (i2_src,))
    relabel = emb.after(beta.inverse())  # conjugating by beta, then embedding
    # each group's block shift, composed into the relabel
    places = [relabel.after(IndexMap((), 1, start)) for start in (1, n1 + 1, n1 + l2 + 1)]
    vecs = _rows_over(*_group_layout(spec, plan.group1, plan.group1_src), places[0], ker=True)
    vecs += _rows_over(*_group_layout(spec, plan.group2, plan.group2_src), places[1], ker=True)
    vecs += tetris_vectors(plan.group3_comp, 1, places[2]).vectors  # co-mass one: one vector

    coords = [g.map_index(1) for g in places]  # each group's adjusted entry
    v3 = np.array([[sup.get(c, 0.0) for c in coords] for sup in (dict(v.support) for v in vecs)])
    p3 = np.eye(3) - v3.T @ v3  # the coframe's block on those coordinates
    if np.abs(p3 - np.diag(np.diag(p3))).max() > 1e-10:
        raise ConstructionError("internal: decoupled groups are not orthogonal")
    current = [plan.a1_tilde, plan.b_tilde, plan.a2_tilde]
    if np.abs(np.diag(p3) - [float(x) for x in current]).max() > 1e-9:
        raise ConstructionError("internal: adjusted diagonal mismatch before correction")
    a = plan.small
    # group2_src[0] is the position of the large entry b_{i3}
    target = [a[plan.i1 - 1], spec.entry(plan.group2_src[0]), a[plan.i2 - 1]]
    u3 = schur_horn_unitary(current, target)
    rep = conjugate_on_coords(ProjectionRep.coframe(vecs), coords, u3)
    if trace is not None:
        trace["plan"] = plan.to_json_dict()
        trace["beta"] = list(beta.head)
    return rep


def embed_with_improper(rep: ProjectionRep, improper) -> ProjectionRep:
    """Complete a construction whose vectors already sit at the proper entries.

    Frames pick up a basis vector for every entry equal to 1, coframes for
    every entry equal to 0; the other improper value is handled by the
    representation form itself.
    """
    keep = 1 if rep.form == "frame" else 0
    extras = sorted(j for j, val in improper if val == keep)
    return ProjectionRep(rep.form, rep.vectors + tuple(SparseVector.basis(j) for j in extras))


def summable_construct(spec: DiagonalSpec, trace: dict | None = None) -> ProjectionRep:
    """Projection for a feasible diagonal with convergent defect sums.

    The construction always completes: the returned representation settles
    every diagonal entry, so it takes no vector count.  Raises
    InfeasibleDiagonalError when a - b is not an integer.  The branch comes
    from :func:`carpenter.feasibility.route`.
    """
    r = route(spec)
    if r.report.case != "summable":
        raise ConstructionError(f"not a summable-case diagonal (case {r.report.case})")
    return r.build(trace=trace)


def _finite_schur_horn(spec: DiagonalSpec) -> ProjectionRep:
    """Finitely many proper entries (a zero, constant-0 or constant-1 tail): a
    finite projection on them, placed by :func:`proper_subspec`, and basis vectors
    for the ones; a constant-1 tail is built as I - P on 1 - f."""
    if spec.tail == TailRule.constant(1):
        return _finite_schur_horn(spec.complement()).complementary()
    sub, emb, improper = proper_subspec(spec)
    rng = _rows_over(sub.den, sub.nums, emb, ker=False)
    return embed_with_improper(ProjectionRep.frame(rng), improper)
