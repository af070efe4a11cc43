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
``value(j)`` and ``float(entry(k))`` bit for bit.
"""

import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from carpenter.errors import ConstructionError, OutOfRangeError
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
            stalls = limit == s.partial_sum(len(s.prefix))
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
    assert len(s.prefix) < rest < SCAN // 2
    # the tail's exceptions are a leading run, and past them every entry is in the rest class
    for i in range(len(s.prefix) + 1, SCAN):
        assert member(s.entry(i)) == (cls.rest_a if i >= rest else not cls.rest_a), (s, i)
    for a in (True, False):
        if a == cls.rest_a:
            assert cls.count(a) == INF
        else:
            assert cls.count(a) == len(members[a])
            with pytest.raises(OutOfRangeError):
                cls.nth(len(members[a]) + 1, a)
        assert [cls.nth(k, a) for k in range(1, len(members[a]) + 1)] == members[a]


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
        p = len(s.prefix)
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
    """Rules of all four kinds: c = 1, r = 39/40, and reindexed geometric tails."""
    rules = [TailRule.zero(), TailRule.constant(0), TailRule.constant("2/5"), TailRule.constant(1)]
    for make in (TailRule.geometric, TailRule.one_minus_geometric):
        for c, r in ((1, "1/2"), ("3/4", "39/40"), (1, "39/40"), ("1/3", "9/10"), ("5/7", "2/3")):
            rule = make(c, r)
            rules += [rule, rule.reindexed(2), rule.reindexed(7, 3), rule.reindexed(40, 2)]
    return rules


def test_exact_tail_walk_matches_value():
    for rule in _walk_rules():
        for n in (0, 1, 2, 300):
            walked = list(rule.values(n))
            assert all(type(q) is F for q in walked), rule
            assert walked == [rule.value(j) for j in range(1, n + 1)], (rule, n)


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
            assert [(k, q) for k, _, q in tail_rows] == expected, (rule, start, stride)
            assert [v for _, v, _ in tail_rows] == [math.sqrt(q) for _, q in expected]
