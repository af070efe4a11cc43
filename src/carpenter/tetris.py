"""Spectral-tetris construction for diagonals with divergent small-entry mass.

The constructor streams unit vectors v_1, v_2, ... whose columns reproduce the
requested diagonal: each vector picks up whole entries sqrt(f_i) until the
running mass would pass the next integer, then splits the boundary pair of
coordinates between the current vector and the next one through an exact
coupling coefficient that keeps consecutive vectors orthogonal.  All masses
are exact, each step's as integers over one denominator; only the emitted
vector entries (square roots) are floating point.

Block sorting rearranges each between-integers block of the sequence in
decreasing order, which establishes the ordering hypothesis the fill needs;
the residue-class split decomposes a sequence with finitely many large
entries into subsequences with exactly one, routed through disjoint
subspaces; a finite-mass diagonal with one large entry is the k = 1 split.
(The closed tails never give divergent small mass together with infinitely
many large entries, so no split for that case is needed.)
"""

from __future__ import annotations

import math
from math import sqrt
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConstructionError, OutOfRangeError
from .feasibility import route
from .seqcore import (
    INF,
    DiagonalSpec,
    IndexMap,
    PermutationWindow,
    ProjectionRep,
    SparseVector,
    SqrtTail,
    _fmt_ratios,
    fmt_rat,
    over_lcm,
)

__all__ = [
    "min_s",
    "coupling",
    "TetrisOutput",
    "tetris_vectors",
    "block_sort",
]


def min_s(spec: DiagonalSpec, n: int) -> int:
    """Smallest index i with S_i = f_1 + ... + f_i >= n (and 0 for n = 0), found by
    :meth:`DiagonalSpec.reach`; a ConstructionError says why the sums never get there."""
    if n < 0:
        raise OutOfRangeError(f"n = {n} < 0")
    if (i := spec.reach(n)) is not None:
        return i
    sp, limit = spec.partial_sum(len(spec.nums)), spec.total()
    if limit == sp:
        raise ConstructionError(f"partial sums stall at {fmt_rat(sp)} and never reach {n}")
    raise ConstructionError(f"partial sums stay below {n} (limit {fmt_rat(limit)})")


def _natural_total(spec: DiagonalSpec) -> int | None:
    """The total mass as an int, None when it diverges; else a ConstructionError."""
    total = spec.total()
    if total == INF:
        return None
    if total.denominator != 1:
        raise ConstructionError(f"total mass {fmt_rat(total)} is not a natural number")
    return int(total)


def coupling(d1, d2, sigma) -> Fraction:
    """Split coefficient a = sigma*(sigma-d2) / (2*sigma - d1 - d2).

    Requires d1, d2, sigma in [0,1] with max(d1,d2) <= sigma <= d1+d2 and
    2*sigma > d1+d2.  Then a, sigma-a, d1-a and d2-sigma+a all lie in [0,1]
    and a*(d1-a) = (sigma-a)*(d2-sigma+a), which is exactly the orthogonality
    of consecutive fill vectors.  The arguments are exact rationals (a float
    is a SpecError); the tests run on their numerators over one common
    denominator, in the integer core the fill calls.
    """
    den, (x, y, s) = over_lcm((d1, d2, sigma))
    return Fraction(s * (s - y), den * _coupling_q(x, y, s, den))


def _coupling_q(x: int, y: int, s: int, den: int) -> int:
    """q = 2s - x - y for d1, d2, sigma = x/den, y/den, s/den, after :func:`coupling`'s tests
    (on the integers; Fractions only for a message).  Over den * q each part of the split is
    an integer: a = s(s-y), sigma - a = s(s-x), d2 - sigma + a = (s-y)(x+y-s), d1 - a = xq - a.
    """
    q = 2 * s - x - y
    if 0 <= x <= den and 0 <= y <= den and max(x, y) <= s <= min(x + y, den) and q > 0:
        return q
    d1, d2, sigma = Fraction(x, den), Fraction(y, den), Fraction(s, den)
    for name, v in (("d1", d1), ("d2", d2), ("sigma", sigma)):
        if not 0 <= v <= 1:
            raise ConstructionError(f"coupling: {name} = {v} outside [0,1]")
    if not max(d1, d2) <= sigma <= d1 + d2:
        raise ConstructionError(
            f"coupling: sigma = {sigma} outside [max(d1,d2), d1+d2] = [{max(d1, d2)}, {d1 + d2}]"
        )
    raise ConstructionError(f"coupling: 2*sigma = {2 * sigma} <= d1 + d2 = {d1 + d2}")


@dataclass(frozen=True)
class TetrisOutput:
    """Result of streaming the fill construction.

    ``settled_prefix`` is the largest index whose diagonal entry no later
    vector can change (None once the construction is complete), ``min_s`` the
    boundary indices actually used.  ``sigma_ratios`` and ``a_ratios`` record
    the boundary mass and coupling coefficient of every coupled step as the
    integers the step ran on, ``(s, L)`` and ``(a, L*q)``, not in lowest terms;
    ``sigma`` and ``a_coef`` read them as Fractions.
    """

    vectors: tuple[SparseVector, ...]
    settled_prefix: int | None
    min_s: dict[int, int]
    sigma_ratios: tuple[tuple[int, int], ...]
    a_ratios: tuple[tuple[int, int], ...]

    @property
    def sigma(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(s, d) for s, d in self.sigma_ratios)

    @property
    def a_coef(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(a, d) for a, d in self.a_ratios)


def tetris_vectors(spec: DiagonalSpec, m: int, emb: IndexMap = IndexMap()) -> TetrisOutput:
    """Stream the first m fill vectors for the given diagonal, each placed by ``emb``.

    The sequence must have total mass in {1, 2, ...} or infinity, and must be
    blockwise ordered (see :func:`block_sort`): at every coupled step the left
    boundary entry must not be smaller than the right one.  When the total N
    is finite, m may be at most N and m = N finishes the construction with the
    ultimate vector that absorbs the whole remaining sequence.

    Each step runs on integers over one L, the lcm of the denominators it meets, and its
    vector's squares are integers over L*q (:func:`_coupling_q`).  Only sigma reads the running
    sums (:meth:`DiagonalSpec._sum`; a geometric sum's denominator divides den times that of the
    entry after it, so L holds it); ``sum(nums) == L*q``, over the window's entries, checks them.
    Each vector is built once, entry i at ``emb.map_index(i)`` (:meth:`SparseVector.placed`);
    a complete fill's ultimate vector, which may hold a sqrt tail, is built locally and remapped.
    """
    if m < 0:
        raise OutOfRangeError(f"vector count {m} < 0")
    n_total = _natural_total(spec)
    if n_total is not None and m > n_total:
        raise ConstructionError(f"requested {m} vectors but total mass is {n_total}")

    mins: dict[int, int] = {}
    vectors: list[SparseVector] = []
    sigmas: list[tuple[int, int]] = []
    acoefs: list[tuple[int, int]] = []
    pending: list[tuple[int, int, int]] = []  # leftover squares (index, num, den), lowest terms
    cursor = 1  # first coordinate not fully consumed

    for n in range(1, m + 1):
        if n == n_total:  # the last vector of a complete fill
            vectors.append(_ultimate_vector(spec, pending, cursor).remap(emb))
            break
        mn = mins[n] = min_s(spec, n)
        if mn < cursor:
            raise ConstructionError(f"internal: minS({n}) = {mn} behind cursor {cursor}")
        left = mn - 1
        wd, win = spec.over(range(cursor, mn + 1))  # the fresh entries cursor..mn over wd
        L = math.lcm(wd, *[d for _, _, d in pending])
        f = L // wd
        y = win[-1] * f
        direct = [(i, num, d) for i, num, d in pending if i != left]  # leftovers off the pair
        x = sum(num * (L // d) for i, num, d in pending if i == left)
        s = L - sum(num * (L // d) for _, num, d in direct)
        if left >= cursor:
            # left boundary coordinate is untouched: ordering hypothesis applies
            x = win[-2] * f
            if x < y:
                raise ConstructionError(
                    f"ordering hypothesis fails at step {n}: entry {left} ="
                    f" {fmt_rat(spec.entry(left))} < entry {mn} = {fmt_rat(spec.entry(mn))}"
                )
            (x1, q1), (x0, q0) = spec._sum(left - 1), spec._sum(cursor - 1)
            s -= x1 * (L // q1) - x0 * (L // q0)
        try:
            q = _coupling_q(x, y, s, L)
        except ConstructionError as e:
            raise ConstructionError(f"step {n}: {e}") from None
        a = s * (s - y)
        if left < cursor and n >= 2:
            # adjacent boundaries: the previous vector shares both pair
            # coordinates, so the cross terms must vanish individually
            if a or acoefs[-1][0] and any(i == mn - 2 for i, _, _ in direct):
                raise ConstructionError(
                    f"step {n}: adjacent boundary collision breaks orthogonality"
                )
        lq, fq = L * q, f * q
        # a value is sqrt of its square's float; p/q is the correctly rounded
        # float of the rational whatever its terms, so a whole entry divides its
        # numerator over the window's denominator wd rather than over lq
        sup = [(i, sqrt(num / d)) for i, num, d in direct]
        nums = [num * (lq // d) for i, num, d in direct]
        ws = win[:-2]  # the whole entries cursor..left-1
        sup += [(i, sqrt(w / wd)) for i, w in zip(range(cursor, left), ws) if w]
        nums += [w * fq for w in ws if w]
        b = s * (s - x)  # sigma - a
        tail_leftover = (s - y) * (x + y - s)
        for i, num, neg in ((left, a, False), (mn, b, tail_leftover > 0)):
            if num:
                v = sqrt(num / lq)
                sup.append((i, -v if neg else v))
                nums.append(num)
        # the norm is summed from the vector's own squares, never from the
        # prefix sums that produced sigma, so it checks them too
        norm = sum(nums)
        if norm != lq:
            raise ConstructionError(f"internal: step {n} produced norm^2 {Fraction(norm, lq)}")
        vectors.append(SparseVector.placed(emb, sup, nums, lq))
        sigmas.append((s, L))
        acoefs.append((a, lq))
        pending = []
        for i, num in ((left, x * q - a), (mn, tail_leftover)):
            if num:
                g = math.gcd(num, lq)
                pending.append((i, num // g, lq // g))
        cursor = mn + 1

    if m == n_total:
        settled = None
    else:
        settled = max(mins[m] - 2, 0) if m > 0 else 0
    return TetrisOutput(tuple(vectors), settled, mins, tuple(sigmas), tuple(acoefs))


def _ultimate_vector(spec: DiagonalSpec, pending, cursor: int) -> SparseVector:
    """Final vector of a finite-mass construction: leftovers plus everything else."""
    p = len(spec.nums)
    wd, win = spec.over(range(cursor, p + 1))  # the prefix entries not yet touched
    L = math.lcm(wd, *(d for _, _, d in pending))
    entries = [(i, num * (L // d), 1) for i, num, d in pending]
    entries += [(i, w * (L // wd), 1) for i, w in zip(range(cursor, p + 1), win)]
    t = spec.tail  # a finite sum: only a natural total is ever completed
    start = max(cursor, p + 1)
    mass = t.sum_from(start - p)
    tail = SqrtTail(start, t.reindexed(start - p), 1) if mass else None
    norm = Fraction(sum(num for _, num, _ in entries), L) + mass
    if norm != 1:
        raise ConstructionError(f"internal: ultimate vector norm^2 {norm}")
    return SparseVector.from_exact(entries, tail, L)


# ---------------------------------------------------------------------------
# block sorting


def block_sort(spec: DiagonalSpec) -> tuple[DiagonalSpec, PermutationWindow]:
    """Sort each between-integers block of the sequence in decreasing order.

    Requires entries beyond the first to be at most 1/2 and the total mass to
    be a natural number or infinite.  Returns (g, pi) with g_i = f_{pi(i)};
    the permutation is the identity beyond the finitely many blocks that can
    meet the prefix.  The output satisfies the left-boundary ordering at every
    coupled step, and the block boundaries of g interlace those of f.  Each
    block's right boundary min_s(f, n) is the next block's left boundary.
    The whole window is one stable sort keyed by (block, -value), the values
    as integers over one common denominator, so ties keep the smaller index.
    """
    half = spec.half_classes()
    n_large = half.count(False)
    if n_large == INF or (n_large > 0 and half.nth(1, False) != 1) or n_large > 1:
        raise ConstructionError("blockwise sorting needs every entry beyond the first <= 1/2")
    n_fin = _natural_total(spec)

    p = len(spec.nums)
    bounds = [0]  # bounds[n] = min_s(spec, n)
    # the ultimate block is never sorted, nor the blocks inside the weakly
    # decreasing tail
    while (n_fin is None or len(bounds) < n_fin) and bounds[-1] < p:
        bounds.append(min_s(spec, len(bounds)))
    w = bounds[-1]
    L, nums = spec.over(range(1, max(w, p) + 1))  # the prefix and the tail entries w reaches
    keys = [(n, -nums[i]) for n in range(1, len(bounds)) for i in range(bounds[n - 1], bounds[n])]
    images = sorted(range(1, w + 1), key=lambda i: keys[i - 1])
    # the window, then the prefix it left (none when it reached into the tail)
    nums[:w] = [nums[i - 1] for i in images]
    g = DiagonalSpec._over(L, nums, spec.tail.reindexed(max(w - p, 0) + 1))
    _check_block_order(g, bounds)
    return g, PermutationWindow(tuple(images))


def _check_block_order(g: DiagonalSpec, bounds: list[int]):
    """Check g's boundaries against the original's, ``bounds[n]`` = min_s(f, n), on integers."""
    for n in range(1, len(bounds)):
        mg = min_s(g, n)
        if not mg <= bounds[n]:
            raise ConstructionError(f"sorted boundary {mg} passed the original at step {n}")
        if mg >= 2 and g.nums[mg - 2] < g.nums[mg - 1]:  # mg <= bounds[n] lies in g's prefix
            raise ConstructionError(f"sorted output breaks the boundary order at step {n}")
        if mg < bounds[n - 1] + 2 and g._sum(mg)[0] != n * g.den:  # too early unless an exact hit
            raise ConstructionError(f"sorted boundary {mg} too early at step {n}")


# ---------------------------------------------------------------------------
# residue-class splits


def interleave_split_fin(
    spec: DiagonalSpec, k: int
) -> tuple[list[DiagonalSpec], PermutationWindow]:
    """Split a sequence with exactly k entries > 1/2 into k subsequences.

    Subsequence m starts with the m-th large entry and continues with every
    k-th small entry starting from the m-th.  Returns the subsequence specs
    and the permutation beta mapping original indices to their slot in the
    residue layout (subsequence m occupies slots m, k+m, 2k+m, ...): the
    large entries take slots 1..k and the small ones follow in order.  For
    k = 1 the one subsequence is the sequence with its large entry moved to
    the front, which is how a finite-mass diagonal is filled.
    """
    cls = spec.half_classes()
    if cls.count(False) != k or k < 1:
        raise ConstructionError(f"expected exactly {k} entries > 1/2, found {cls.count(False)}")
    if cls.count(True) != INF:
        raise ConstructionError("splitting needs infinitely many entries <= 1/2")
    large = tuple(cls.nth(m, False) for m in range(1, k + 1))
    subs = [spec.subsequence(cls, True, m, k, (pos,)) for m, pos in enumerate(large, start=1)]
    return subs, PermutationWindow.head_first(large)


# ---------------------------------------------------------------------------
# the tetris leaves


def _settled_through(settled: int | None, perm: PermutationWindow) -> int | None:
    """Largest prefix that stays inside a settled slot-prefix after conjugation."""
    if settled is None:
        return None
    # past the window i maps to i, so there the first image past settled is max(size, settled) + 1
    w = perm.head
    return next((j for j, img in enumerate(w) if img > settled), max(len(w), settled))


def nonsummable_construct(spec: DiagonalSpec, m: int, trace: dict | None = None) -> ProjectionRep:
    """Projection representation for a diagonal with a divergent threshold sum.

    Streams ``m`` fill vectors per subsequence.  When the divergent side is
    the co-mass b (entries near 1), the construction runs on 1 - f and the
    complement representation is returned.  ``trace``, when a dict is passed,
    collects the branch label, per-part fill data and the settled prefix.
    The branch comes from :func:`carpenter.feasibility.route`.
    """
    r = route(spec)
    if r.report.case == "summable":
        raise ConstructionError(f"not a divergent-sum diagonal (case {r.report.case})")
    return r.build(m, trace)


def _sorted_fill(
    spec: DiagonalSpec, m: int, emb: IndexMap, parts: list | None, label
) -> tuple[list[SparseVector], int | None]:
    """Sort blockwise and stream m fill vectors, each placed once, through
    ``emb`` after the unsort.  Returns the vectors and the settled prefix in
    the spec's indices (None = complete); ``parts`` gets the bookkeeping.
    """
    g, perm = block_sort(spec)
    out = tetris_vectors(g, m, emb.after(perm))
    if parts is not None:
        parts.append({
            "part": label,
            "block_permutation": list(perm.head),
            "min_s": {str(n): v for n, v in out.min_s.items()},
            "sigma": _fmt_ratios(out.sigma_ratios),
            "a": _fmt_ratios(out.a_ratios),
            "settled_prefix": out.settled_prefix,
        })
    return list(out.vectors), _settled_through(out.settled_prefix, perm.inverse())


def tetris(
    spec: DiagonalSpec, k: int, m: int, trace: dict | None, emb: IndexMap = IndexMap()
) -> tuple[ProjectionRep, int | None]:
    """Every tetris leaf: one sorted fill when ``spec`` has k = 0 entries > 1/2,
    else its k residue parts (:func:`interleave_split_fin`) in the slots of beta.

    A divergent total streams m vectors per part; a finite total N fills N.
    Each part's block unsort, residue slot, beta's inverse and ``emb`` (the
    spec's places in a longer spec) compose into one index map, so every
    vector is relabelled once.  Returns the representation and the settled
    prefix as :func:`_sorted_fill` does.
    """
    n_total = _natural_total(spec)
    if n_total is not None:
        m = n_total
    subs, beta = interleave_split_fin(spec, k) if k else ([spec], PermutationWindow())
    outer = emb.after(beta.inverse())
    parts = None if trace is None else []
    vectors, slot_settled = [], []
    for idx, sub in enumerate(subs, start=1):
        slot = IndexMap((), len(subs), idx)
        local, local_settled = _sorted_fill(sub, m, outer.after(slot), parts, idx if k else None)
        vectors += local
        # a finished part (settled None) does not constrain the rest
        if local_settled is not None:
            slot_settled.append(local_settled * len(subs) + idx)
    if trace is not None:
        trace["parts"] = parts
        if k:
            trace["beta"] = list(beta.head)
    settled = _settled_through(min(slot_settled) - 1, beta) if slot_settled else None
    return ProjectionRep.frame(vectors), settled
