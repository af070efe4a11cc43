"""Seeded property checks of the prefix-sum search and the class indices
against brute force, over all four tail kinds.

``min_s(spec, n)`` must be the smallest i with ``partial_sum(i) >= n``, or
raise when the partial sums never get there; ``half_classes()`` and
``proper_classes()`` must agree with classifying the first entries one by
one.  The generator leans on the edge cases: c = 1 geometric tails (whose
first entry is improper), entries of exactly 0, 1/2 and 1, partial sums
that hit an integer exactly, and limits at or below the target.  The tail
walks (``TailRule.values``, ``TailRule.float_values``,
``DiagonalSpec.float_entries`` and the sqrt-tail rows) must give
``value(j)`` and ``float(entry(k))`` bit for bit.  Every ``TailRule`` method
must match the four-branch closed forms of :class:`_Oracle` on c folded to
c * r**k, and every rule must round-trip through its JSON.
"""

import bisect
import json
import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from carpenter.errors import (
    ConstructionError, OutOfRangeError, SpecError, UnsupportedStructureError,
)
from carpenter.seqcore import HALF, INF, DiagonalSpec, SparseVector, SqrtTail, TailRule
from carpenter.tetris import min_s

SEED = 5
COUNT = 300
SCAN = 60  # indices scanned by brute force; every reachable target lands below it


def _random_spec(rng):
    pick = lambda *xs: F(rng.choice(xs))
    prefix = [pick(0, 1, "1/2", "1/4", "3/4", "1/3", "2/5", "5/6") for _ in range(rng.randint(0, 6))]
    kind = rng.randrange(4)
    if kind == 0:
        tail = TailRule.zero()
    elif kind == 1:
        tail = TailRule.constant(pick(0, 1, "1/2", "1/4", "2/5", "3/5", "2/3"))
    else:
        rule = TailRule.geometric if kind == 2 else TailRule.one_minus_geometric
        tail = rule(pick(1, 1, "1/2", "3/4", "1/3"), pick("1/2", "2/3", "9/10"))
    return DiagonalSpec(tuple(prefix), tail)


def _specs():
    rng = random.Random(SEED)
    return [_random_spec(rng) for _ in range(COUNT)]


def test_min_s_is_the_first_index_reaching_n():
    seen = Counter()
    for s in _specs():
        sums = [s.partial_sum(i) for i in range(SCAN)]
        for n in range(0, 7):
            want = next((i for i, x in enumerate(sums) if x >= n), None)
            if want is not None:
                assert min_s(s, n) == want, (s, n)
                seen["exact hit" if sums[want] == n and n > 0 else "reached"] += 1
                continue
            # never reached: the partial sums tend to a finite limit <= n
            limit = s.total()
            assert limit != INF and limit <= n, (s, n)
            stalls = limit == s.partial_sum(len(s.nums))
            msg = "stall at" if stalls else f"stay below {n} \\(limit"
            with pytest.raises(ConstructionError, match=msg):
                min_s(s, n)
            seen["stall" if stalls else "stay below"] += 1
    assert min(seen[k] for k in ("exact hit", "reached", "stall", "stay below")) >= 20, seen
    with pytest.raises(OutOfRangeError):
        min_s(DiagonalSpec(), -1)


def _check_index(s, cls, member):
    """Compare a class index with the membership of the first SCAN entries."""
    members = {a: [i for i in range(1, SCAN) if member(s.entry(i)) == a] for a in (True, False)}
    rest = cls.rest_start()
    assert len(s.nums) < rest < SCAN // 2
    # the tail's exceptions are a leading run, and past them every entry is in the rest class
    for i in range(len(s.nums) + 1, SCAN):
        assert member(s.entry(i)) == (cls.rest_a if i >= rest else not cls.rest_a), (s, i)
    for a in (True, False):
        if a == cls.rest_a:
            assert cls.count(a) == INF
        else:
            assert cls.count(a) == len(members[a])
            with pytest.raises(OutOfRangeError):
                cls.nth(len(members[a]) + 1, a)
        assert [cls.nth(k, a) for k in range(1, len(members[a]) + 1)] == members[a]


def test_class_head_is_the_nth_enumeration_below_rest_start():
    seen = Counter()
    for s in _specs():
        for cls in (s.half_classes(), s.proper_classes()):
            for a in (True, False):
                below = []
                while len(below) < SCAN:  # a class may end before rest_start
                    try:
                        pos = cls.nth(len(below) + 1, a)
                    except OutOfRangeError:
                        break
                    if pos >= cls.rest_start():
                        break
                    below.append(pos)
                assert cls.head(a) == tuple(below), (s, a)
                seen[cls.rest_a, a == cls.rest_a, bool(below)] += 1
    assert len(seen) == 8 and min(seen.values()) >= 20, seen


def test_class_indices_match_brute_force():
    exceptions = Counter()
    for s in _specs():
        half, proper = s.half_classes(), s.proper_classes()
        _check_index(s, half, lambda x: x <= HALF)
        _check_index(s, proper, lambda x: 0 < x < 1)
        exceptions["half", half.n_exc > 0] += 1
        exceptions["proper", proper.n_exc > 0] += 1  # a c = 1 geometric tail starts at 0 or 1
    assert min(exceptions.values()) >= 20 and len(exceptions) == 4, exceptions


DENS = (97, 2**20, 2**31 - 1)


def _running_sums(s, scan):
    """S_0, ..., S_{scan-1}, adding the entries one by one."""
    sums = [F(0)]
    for i in range(1, scan):
        sums.append(sums[-1] + s.entry(i))
    return sums


def _mixed_spec(rng, dens, close):
    """A prefix over the given denominators, closed to an integer sum when ``close``."""
    prefix = [F(rng.randint(0, d), d) for d in (rng.choice(dens) for _ in range(rng.randint(1, 30)))]
    if close:  # the last entry lands the sum exactly on an integer
        s = sum(prefix, F(0))
        prefix.append(-s % 1 or F(1))
    kind = rng.randrange(4)
    c, r = F(rng.randint(1, 96), 97), F(rng.randint(1, 2**20 - 1), 2**20)
    tail = (
        TailRule.zero(),
        TailRule.constant(c),
        TailRule.geometric(c, r),
        TailRule.one_minus_geometric(c, r),
    )[kind]
    return DiagonalSpec(tuple(prefix), tail)


def test_min_s_on_large_and_mixed_denominators():
    """The integer-floor search agrees with summing entry by entry.

    Denominators 97, 2^20 and 2^31 - 1, alone and mixed; prefixes whose sum
    is an integer exactly at the last entry; every n from 0 past the prefix
    sum; all four tail kinds.
    """
    rng = random.Random(SEED)
    seen = Counter()
    for t in range(160):
        dens = (DENS[t % 3],) if t % 4 < 3 else DENS
        s = _mixed_spec(rng, dens, close=t % 2 == 0)
        p = len(s.nums)
        sums = _running_sums(s, p + 400)  # a reachable target lands inside
        total = sums[p]
        assert min_s(s, 0) == 0
        for n in range(0, int(total) + 3):
            want = next((i for i, x in enumerate(sums) if x >= n), None)
            if want is None:  # the partial sums tend to a finite limit <= n
                limit = s.total()
                assert limit != INF and limit <= n, (s, n)
                with pytest.raises(ConstructionError):
                    min_s(s, n)
                seen["never"] += 1
                continue
            assert min_s(s, n) == want, (s, n)
            if 0 < n and want == p and total == n:
                seen["exact hit at the last prefix entry"] += 1
            seen["in the tail" if want > p else "in the prefix"] += 1
        seen[s.tail.kind] += 1
    assert len(seen) == 8 and min(seen.values()) >= 20, seen


def _walk_rules():
    """Rules of all four kinds: c = 1, r = 39/40, reindexed geometric tails, and deep
    reindexes that carry an exponent (k = 2115 at r = 199/200, steps 2 and 3, chained)."""
    rules = [TailRule.zero(), TailRule.constant(0), TailRule.constant("2/5"), TailRule.constant(1)]
    for make in (TailRule.geometric, TailRule.one_minus_geometric):
        for c, r in ((1, "1/2"), ("3/4", "39/40"), (1, "39/40"), ("1/3", "9/10"), ("5/7", "2/3")):
            rule = make(c, r)
            rules += [rule, rule.reindexed(2), rule.reindexed(7, 3), rule.reindexed(40, 2)]
        deep = make(1, "199/200")
        rules += [deep.reindexed(2116), deep.reindexed(2116, 2), deep.reindexed(2116, 3)]
        rules += [deep.reindexed(7, 3).reindexed(40, 2), deep.reindexed(2116).reindexed(5, 3)]
    return rules


def test_exact_tail_walk_matches_value():
    for rule in _walk_rules():
        for n in (0, 1, 2, 300):
            walked = list(rule.values(n))
            assert all(type(p) is int and type(q) is int for p, q in walked), rule
            want = [rule.value(j) for j in range(1, n + 1)]
            assert walked == [(f.numerator, f.denominator) for f in want], (rule, n)


def test_float_tail_walk_matches_float_of_entry():
    rng = random.Random(SEED)
    for rule in _walk_rules():
        assert [x.hex() for x in rule.float_values(300)] == [
            float(rule.value(j)).hex() for j in range(1, 301)
        ], rule
        prefix = tuple(F(rng.randint(0, d), d) for d in rng.choices((3, 7, 97, 2**31 - 1), k=5))
        for p in (0, 1, 5):
            spec = DiagonalSpec(prefix[:p], rule)
            for n in (-1, 0, 1, p - 1, p, p + 1, p + 300):  # n <= 0, n < p, the prefix/tail boundary
                got = [x.hex() for x in spec.float_entries(n)]
                assert got == [float(spec.entry(k)).hex() for k in range(1, n + 1)], (spec, n)


def test_sqrt_tail_rows_walk_the_rule():
    for rule in _walk_rules():
        if rule.kind != "geometric":
            continue
        for start, stride in ((1, 1), (4, 1), (3, 4)):
            vec = SparseVector(((1, 0.5),) if start > 1 else (), SqrtTail(start, rule, stride))
            n = start + 300 * stride
            tail_rows = [row for row in vec.rows(n) if row[0] >= start]
            expected = [(start + (j - 1) * stride, rule.value(j)) for j in range(1, 302)]
            assert [(k, F(p, q)) for k, _, p, q in tail_rows] == expected, (rule, start, stride)
            assert [v for _, v, _, _ in tail_rows] == [math.sqrt(q) for _, q in expected]


class _Oracle:
    """The four kinds as four closed forms, on c folded to c * r**k.

    The reference for the one-formula ``TailRule``: each method below branches
    on the kind, and the searches walk offset by offset.
    """

    def __init__(self, kind, c=None, r=None):
        self.kind, self.c, self.r = kind, c, r

    @classmethod
    def of(cls, rule):
        if rule.kind == "zero":
            return cls("zero")
        if rule.kind == "constant":
            return cls("constant", rule.c)
        return cls(rule.kind, rule.c * rule.r**rule.k, rule.r)

    def value(self, j):
        if self.kind == "zero":
            return F(0)
        if self.kind == "constant":
            return self.c
        g = self.c * self.r ** (j - 1)
        return g if self.kind == "geometric" else 1 - g

    def partial_sum(self, j):
        if self.kind == "zero":
            return F(0)
        if self.kind == "constant":
            return j * self.c
        geo = self.c * (1 - self.r**j) / (1 - self.r)
        return geo if self.kind == "geometric" else j - geo

    def sum_from(self, j):
        if self.kind == "zero":
            return F(0)
        if self.kind == "constant":
            return F(0) if self.c == 0 else INF
        if self.kind == "geometric":
            return self.c * self.r ** (j - 1) / (1 - self.r)
        return INF

    def reach(self, x):
        if x <= 0:
            return 0
        if self.sum_from(1) <= x:
            return None
        if self.kind == "constant":
            return math.ceil(x / self.c)
        j, s, g = 0, F(0), self.c
        while s < x:
            j, s, g = j + 1, s + (g if self.kind == "geometric" else 1 - g), g * self.r
        return j

    def sum_reach(self, x):
        if self.sum_from(1) <= x:
            return 1
        if self.kind != "geometric" or x <= 0:
            return None
        j = 1
        while self.sum_from(j) > x:
            j += 1
        return j

    def complement(self):
        if self.kind == "zero":
            return _Oracle("constant", F(1))
        if self.kind == "constant":
            return _Oracle("constant", 1 - self.c)
        other = "one_minus_geometric" if self.kind == "geometric" else "geometric"
        return _Oracle(other, self.c, self.r)

    def reindexed(self, j0, step):
        if self.kind in ("zero", "constant"):
            return self
        return _Oracle(self.kind, self.c * self.r ** (j0 - 1), self.r**step)

    def half_exceptions(self):
        if self.kind in ("zero", "constant"):
            return 0, self.value(1) <= HALF
        e, g = 0, self.c
        if self.kind == "geometric":
            while g > HALF:
                e, g = e + 1, g * self.r
            return e, True
        while 1 - g <= HALF:
            e, g = e + 1, g * self.r
        return e, False

    def proper_exceptions(self):
        if self.kind in ("zero", "constant"):
            return 0, 0 < self.value(1) < 1
        return int(self.c == 1), True


TARGETS = (-1, 0, F(1, 1000), F(1, 3), 1, F(5, 2), 7)


def _same_rule(rule, oracle, n=40):
    assert rule.kind == oracle.kind
    assert [rule.value(j) for j in range(1, n + 1)] == [oracle.value(j) for j in range(1, n + 1)]


def test_every_method_matches_the_four_branch_oracle():
    for rule in _walk_rules():
        o = _Oracle.of(rule)
        _same_rule(rule, o)
        assert [F(p, q) for p, q in rule.values(300)] == [o.value(j) for j in range(1, 301)], rule
        assert rule.float_values(300) == [float(o.value(j)) for j in range(1, 301)], rule
        for j in (0, 1, 2, 39, 300):
            assert rule.partial_sum(j) == o.partial_sum(j), (rule, j)
            if j:
                assert rule.sum_from(j) == o.sum_from(j), (rule, j)
        for x in TARGETS:
            assert rule.reach(x) == o.reach(x), (rule, x)
            assert rule.sum_reach(x) == o.sum_reach(x), (rule, x)
        assert rule.half_exceptions() == o.half_exceptions(), rule
        assert rule.proper_exceptions() == o.proper_exceptions(), rule
        if rule.k:
            assert rule.proper_exceptions()[0] == 0, rule
        _same_rule(rule.complement(), o.complement())
        for j0, step in ((1, 1), (2, 1), (3, 2), (7, 3), (40, 2), (2116, 1)):
            _same_rule(rule.reindexed(j0, step), o.reindexed(j0, step))
    assert sum(rule.k > 500 for rule in _walk_rules()) == 8


def test_reindexed_keeps_c_short_and_takes_no_power_past_the_step():
    deep = TailRule.one_minus_geometric(1, "199/200")
    assert deep.reindexed(2116) == TailRule("one_minus_geometric", 1, "199/200", 2115)
    r = F(199, 200)
    assert deep.reindexed(2116, 3) == TailRule("one_minus_geometric", 1, r**3, 705)  # 2115 = 3 * 705
    assert deep.reindexed(2117, 3) == TailRule("one_minus_geometric", r, r**3, 705)  # 2116 = 3 * 705 + 1
    chained = deep.reindexed(2116).reindexed(5, 3)  # exponent 2115 + 4 = 2119 = 3 * 706 + 1
    assert chained == TailRule("one_minus_geometric", r, r**3, 706)


def test_half_exceptions_near_one_are_found_without_a_walk():
    rule = TailRule.geometric(1, "99999/100000")
    e, rest_small = rule.half_exceptions()
    assert (e, rest_small) == (69315, True)
    assert rule.value(e) > HALF >= rule.value(e + 1)
    e, rest_small = rule.complement().half_exceptions()
    assert (e, rest_small) == (69315, False)
    # a crossing whose exact power would pass the bit budget is refused before it is taken
    with pytest.raises(UnsupportedStructureError, match="threshold crossing"):
        TailRule.geometric(1, "999999999/1000000000").half_exceptions()
    with pytest.raises(UnsupportedStructureError, match="threshold crossing"):
        TailRule.geometric(1, F(2**70 - 1, 2**70)).half_exceptions()


def test_reach_on_slowly_decaying_tails_is_found_without_a_walk():
    for rule, xs in (
        (TailRule.geometric("1/2", "999/1000"), (F(1, 3), 1, F(7, 2), 250, 499, F(4999, 10))),
        (TailRule("geometric", 1, "999/1000", 5), (F(1, 2), 100, 990)),
        (TailRule.geometric("1/2", "9999/10000"), (1, 2500, 4990)),
    ):
        for x in xs:
            j = rule.reach(x)
            assert rule.partial_sum(j) >= x > rule.partial_sum(j - 1), (rule, x, j)
    assert TailRule.geometric("1/2", "9999/10000").reach(2500) == 6932
    # a crossing whose exact power would pass the bit budget is refused, not walked
    rule = TailRule.geometric("1/2", "999999999/1000000000")  # total 5 * 10**8
    assert rule.reach(2500) == 5001
    with pytest.raises(UnsupportedStructureError, match="threshold crossing"):
        rule.reach(5 * 10**8 - 1)


def _walked_reach(rule, x):
    """Reference: add the tail entries one at a time until their sum reaches x."""
    j, s = 0, F(0)
    while s < x:
        j += 1
        s += rule.value(j)
    return j


def test_reach_on_tails_near_one_bisects_an_exact_bracket():
    """partial_sum(j) lies in [j - G, j], G = c r^k / (1 - r), so reach bisects
    [ceil(x), ceil(x + G)]; it is the first j whose exact sum reaches x."""
    rng = random.Random(SEED)
    walked = 0
    for _ in range(200):
        c, r = F(rng.randint(1, 8), 8), F(rng.randint(1, 999), 1000)
        rule = TailRule("one_minus_geometric", c, r, rng.randrange(4))
        x = F(rng.randint(1, rng.choice((60, 3000))), rng.randint(1, 7))
        j = rule.reach(x)
        assert rule.partial_sum(j) >= x > rule.partial_sum(j - 1), (rule, x, j)
        if x <= 60:
            assert j == _walked_reach(rule, x), (rule, x)
            walked += 1
    assert walked >= 60, walked
    rule = TailRule.one_minus_geometric("1/2", "999/1000")
    for x in (F(1, 3), 1, 7, 100, F(1001, 3)):
        assert rule.reach(x) == _walked_reach(rule, x), x
    assert rule.reach(10000) == 10500
    assert rule.partial_sum(10500) >= 10000 > rule.partial_sum(10499)
    # a bracket whose exact power would pass the bit budget is refused before it is taken
    with pytest.raises(UnsupportedStructureError, match="threshold crossing"):
        rule.reach(10**6)


def test_every_rule_round_trips_through_json():
    for rule in _walk_rules():
        d = rule.to_json_dict()
        assert ("k" in d) == (rule.k > 0), d
        back = TailRule.from_json_dict(json.loads(json.dumps(d)))
        assert back == rule and back.to_json_dict() == d, rule


@pytest.mark.parametrize("tail", [
    {"kind": "geometric", "c": "1", "r": "1/2", "k": -1},
    {"kind": "geometric", "c": "1", "r": "1/2", "k": True},
    {"kind": "geometric", "c": "1", "r": "1/2", "k": 3.0},
    {"kind": "geometric", "c": "1", "r": "1/2", "k": "3"},
    {"kind": "constant", "c": "1/2", "k": 3},
    {"kind": "zero", "k": 1},
    {"kind": "one_minus_geometric", "c": "1", "r": "1/2", "k": 2**22 + 1},
    {"kind": "geometric", "c": "1", "r": "199/200", "k": 10**100},
])
def test_bad_exponents_are_refused(tail):
    with pytest.raises(SpecError, match="'k'"):
        TailRule.from_json_dict(tail)


@pytest.mark.parametrize("c, r, k", [
    ("1/2", "1/2", 0), ("1", "3/4", 0), ("3/8", "39/40", 0), ("1/2", "1/2", 40), ("1", "1/3", 7),
])
def test_float_value_is_the_float_of_the_exact_value_with_no_deep_power(c, r, k):
    """``_float_value(j)`` is ``float(value(j))`` bit for bit; from the proven zero offset on it
    is 0.0 without the power, and that offset is at most three past the first zero."""
    rule = TailRule("geometric", c, r, k)
    cut, zero = rule._float_cuts
    assert cut == zero  # these powers stay inside the budget up to the zero offset
    is_zero = lambda j: float(rule.value(j)) == 0.0
    first = 1 + bisect.bisect_left(range(1, zero + 1), True, key=is_zero)
    assert 0 <= zero - first <= 3, (first, zero)
    for j in [*range(1, 20), *range(max(first - 3, 1), zero + 3), 10**6, 2**70, int(1e308)]:
        assert rule._float_value(j).hex() == float(rule.value(j) if j < zero + 3 else 0).hex(), j


def test_float_value_refuses_a_power_past_the_budget_before_the_zero_offset():
    rule = TailRule.geometric("1/2", "999/1000")  # 10 bits a step: the budget ends near 419,000
    cut, zero = rule._float_cuts
    assert cut < 500_000 < zero
    assert rule._float_value(1000) == float(rule.value(1000))
    with pytest.raises(UnsupportedStructureError, match="bit budget"):
        rule._float_value(500_000)
    assert rule._float_value(zero) == 0.0 and rule._float_value(2**70) == 0.0


def _brute_first_at_most(rule, x):
    """The first offset j whose geometric part c * r**(k + j - 1) is <= x, walked."""
    j, g = 1, rule.c * rule.r**rule.k
    while g > x:
        j, g = j + 1, g * rule.r
    return j


def test_first_at_most_matches_a_walk_at_and_beside_every_entry():
    """``first_at_most(x)`` on geometric and one_minus_geometric rules with k >= 0, for x equal
    to an entry's geometric part, just above it and just below it."""
    rng = random.Random(SEED)
    checked = 0
    for _ in range(60):
        c, r = F(rng.randint(1, 10), 10), F(rng.randint(1, 39), 40)
        k = rng.choice((0, 0, 1, 3, rng.randint(4, 60)))
        for kind in ("geometric", "one_minus_geometric"):
            rule = TailRule(kind, c, r, k)
            for j in (1, 2, 3, rng.randint(4, 30)):
                g = c * r ** (k + j - 1)
                for x in (g, g + g / 10**12, g - g / 10**12, 2 * c, F(1, 10**9)):
                    assert rule.first_at_most(x) == _brute_first_at_most(rule, x), (rule, x)
                    checked += 1
                assert rule.first_at_most(g) == j  # the entry itself is the first at most it
                assert rule.first_at_most(g - g / 10**12) == j + 1
    assert checked == 60 * 2 * 4 * 5


def test_half_exceptions_count_an_entry_of_exactly_one_half_as_small():
    """A one_minus_geometric entry of exactly 1/2 is small, so it is an exception to the large
    rest; a geometric one is small like the rest.  Each matches the walk over the entries."""
    for rule, want in (
        (TailRule.one_minus_geometric(1, "1/2"), (2, False)),  # 0, 1/2 | 3/4, 7/8, ...
        (TailRule.one_minus_geometric("1/2", "1/3"), (1, False)),  # 1/2 | 5/6, ...
        (TailRule("one_minus_geometric", 1, F(1, 2), 1), (1, False)),  # 1/2 | 3/4, ...
        (TailRule("one_minus_geometric", 1, F(1, 2), 2), (0, False)),  # 3/4, ...
        (TailRule.one_minus_geometric("3/4", "2/3"), (2, False)),  # 1/4, 1/2 | 2/3, ...
        (TailRule.geometric(1, "1/2"), (1, True)),  # 1 | 1/2, 1/4, ...
        (TailRule.geometric("1/2", "1/3"), (0, True)),  # 1/2, 1/6, ...
    ):
        assert rule.half_exceptions() == want, rule
        e, rest_small = want
        walk = [rule.value(j) <= HALF for j in range(1, 40)]
        assert walk == [not rest_small] * e + [rest_small] * (39 - e), rule
