import random
from fractions import Fraction as F

import numpy as np
import pytest

from carpenter.errors import ConstructionError, SpecError
from carpenter.schurhorn import majorizes
from carpenter.feasibility import kadison_ab, route
from carpenter.selector import carpenter, carpenter_field, verify_projection
from carpenter.seqcore import (
    INF,
    CellField,
    DiagonalSpec,
    PermutationWindow,
    ProjectionRep,
    TailRule,
    over_lcm,
)
from carpenter.summable import (
    DecouplingPlan,
    _group_layout,
    decouple,
    conjugate_on_coords,
    proper_subspec,
    summable_construct,
    summable_construct2,
)
from carpenter.tetris import tetris_vectors


def spec(*values, tail=None):
    return DiagonalSpec.of(*values, tail=tail or TailRule.zero())


WORKED = spec("3/10", "1/5", tail=TailRule.one_minus_geometric("1/4", "1/2"))


def check_against_spec(rep, s, upto, atol=1e-9):
    d = np.array(rep.diag(upto))
    want = np.array([float(s.entry(i)) for i in range(1, upto + 1)])
    assert np.allclose(d, want, atol=atol)


def orthonormal(vectors, m, atol=1e-9):
    v = np.vstack([w.dense(m) for w in vectors])
    return np.allclose(v @ v.T, np.eye(len(vectors)), atol=atol)


def test_split_small_large():
    cls = WORKED.half_classes()
    small, large = WORKED.subsequence(cls, True), WORKED.subsequence(cls, False)
    assert [small.entry(i) for i in (1, 2)] == [F(3, 10), F(1, 5)]
    assert small.total() == F(1, 2)
    assert large.entry(1) == F(3, 4)
    assert large.entry(2) == F(7, 8)
    assert cls.count(True) == 2


def test_proper_subspec_strips_zeros_and_ones():
    s = spec("0", "3/10", "1", "1/5", tail=TailRule.one_minus_geometric("1/4", "1/2"))
    sub, emb, improper = proper_subspec(s)
    for i in range(1, 8):
        assert sub.entry(i) == WORKED.entry(i)
    # embedding sends sub positions back to the original indices
    assert [emb.map_index(i) for i in (1, 2, 3)] == [2, 4, 5]
    kinds = dict(improper)
    assert kinds == {1: 0, 3: 1}


@pytest.mark.parametrize("tail", [TailRule.zero(), TailRule.constant(0), TailRule.constant(1)])
def test_proper_subspec_on_a_finite_proper_class(tail):
    """With finitely many proper entries the subsequence is finite, the embedding's head is
    their positions, and the 0/1 entries below rest_start are listed; the tail's own
    constant 0s or 1s are not."""
    s = spec("1", "1/3", "0", "0", "2/3", "1", "1/2", tail=tail)
    sub, emb, improper = proper_subspec(s)
    assert sub == spec("1/3", "2/3", "1/2")
    assert emb.head == (2, 5, 7) and emb.map_index(4) == s.proper_classes().rest_start() == 8
    assert improper == ((1, 1), (3, 0), (4, 0), (6, 1))
    sub, emb, improper = proper_subspec(spec("0", "1", tail=tail))  # no proper entry at all
    assert (sub, emb.head, improper) == (spec(), (), ((1, 0), (2, 1)))


def test_rank_one_unit_mass():
    s = spec("1/2", tail=TailRule.geometric("1/4", "1/2"))
    rep = ProjectionRep.frame(tetris_vectors(s, 1).vectors)
    assert len(rep.vectors) == 1
    v = rep.vectors[0]
    assert v.exact_norm_sq() == 1
    check_against_spec(rep, s, 9, atol=1e-12)


def test_rank_one_requires_unit_mass():
    with pytest.raises(ConstructionError):
        tetris_vectors(spec("1/2", "1/4"), 1)


def test_decouple_worked_example_plan():
    plan = decouple(WORKED)
    assert (plan.i1, plan.i2, plan.i3, plan.i4, plan.i5) == (1, 2, 1, 3, 3)
    assert plan.a1_tilde == F(1, 8)
    assert plan.a2_tilde == F(1, 8)
    assert plan.b_tilde == F(1)
    assert plan.group1 == ((1, 8), (7, 8))  # lowest-terms pairs
    assert plan.group1_src == (1, 4)
    assert plan.group2 == ((1, 1),)
    assert plan.group2_src == (3,)
    g3c = plan.group3_comp
    assert [g3c.entry(i) for i in range(1, len(g3c.nums) + 1)] == [F(7, 8)]
    # group three fills slots 4, 5, 6, ... from the small entry a_2 and then
    # the large entries the first two groups did not take
    trace = {}
    summable_construct2(WORKED, trace)
    beta = PermutationWindow(tuple(trace["beta"]))
    assert [beta.map_index(i) for i in (2, 5, 6, 7)] == [4, 5, 6, 7]


def test_decouple_identities():
    plan = decouple(WORKED)
    # group sums: an integer, exactly one, and a unit complement mass
    g1 = sum(F(p, q) for p, q in plan.group1)
    assert g1.denominator == 1
    assert sum(F(p, q) for p, q in plan.group2) == 1
    assert plan.group3_comp.total() == 1
    # the adjusted triple redistributes the original one
    cls = WORKED.half_classes()
    small, large = WORKED.subsequence(cls, True), WORKED.subsequence(cls, False)
    a = [small.entry(1), small.entry(2)]
    b3 = large.entry(plan.i3)
    assert plan.a1_tilde + plan.a2_tilde + plan.b_tilde == a[0] + a[1] + b3
    assert majorizes([b3, a[0], a[1]], [plan.b_tilde, plan.a1_tilde, plan.a2_tilde])


def test_decouple_allows_oversized_adjusted_first_entry():
    # the adjusted first small can land above 1/2 (here 3/4, past the chosen
    # large 5/8); the triple majorization still holds and assembly still works
    s = spec(
        "1/2", "1/2", "5/8", "3/4", "7/8", "5/8", "3/8",
        tail=TailRule.one_minus_geometric("1/8", "1/2"),
    )
    plan = decouple(s)
    assert plan.a1_tilde == F(3, 4)
    b3 = F(5, 8)
    assert plan.a1_tilde > b3
    assert majorizes(
        [b3, F(1, 2), F(1, 2)], [plan.b_tilde, plan.a1_tilde, plan.a2_tilde]
    )
    rep = summable_construct(s)
    check_against_spec(rep, s, 9)
    p = rep.dense(80)  # deep enough that truncated tail mass is below tolerance
    assert np.allclose(p @ p, p, atol=1e-9)


def test_decouple_layout_of_a_long_prefix(monkeypatch):
    # small entries 2/5, 3/7 and the balancing one, then p = 400 large
    # entries 1 - 2^-(i+3): the slot layout moves only four indices, and
    # laying it out must not rescan the prefix once per slot
    large = tuple(1 - F(1, 2 ** (i + 3)) for i in range(1, 401))
    tail = TailRule.one_minus_geometric("1/64", "1/2")
    a, b = kadison_ab(DiagonalSpec((F(2, 5), F(3, 7)) + large, tail))
    s = DiagonalSpec((F(2, 5), F(3, 7), 1 - (a - b) % 1) + large, tail)
    r = route(s)
    assert r.label.path[-1] == "decouple"
    scans = []
    half_classes = DiagonalSpec.half_classes
    monkeypatch.setattr(
        DiagonalSpec, "half_classes", lambda self: scans.append(1) or half_classes(self)
    )
    trace = {}
    rep = r.build(1, trace)
    assert len(scans) <= 3
    assert trace["beta"] == [4, 1, 2, 3]
    assert verify_projection(rep, s, 12).passed


def walk_decouple(spec):
    """The decoupling written as plain walks: every cut is found by stepping one
    ordinal at a time, and every entry and group mass is read and added as a
    Fraction.  The reference the closed-form decouple must match exactly; only the
    plan's groups are handed over as the pairs it stores."""
    cls = spec.half_classes()
    n = cls.count(True)
    a = [spec.entry(cls.nth(i, True)) for i in range(1, n + 1)]
    large = spec.subsequence(cls, False)
    large_c = large.complement()
    i1 = 1 if a[0] >= a[1] else 2
    i2 = 3 - i1
    i3 = 1
    while large.entry(i3) < 1 - a[i1 - 1]:
        i3 += 1
    b3 = large.entry(i3)
    i4 = next(k for k in range(3, n + 2) if b3 + sum(a[k - 1 : n], F(0)) <= 1)

    def co_mass_from(k):
        return large_c.tail_sum(k) - (1 - b3 if i3 >= k else 0)

    i5 = 1
    while co_mass_from(i5) > a[i2 - 1]:
        i5 += 1
    b_t = 1 - sum(a[i4 - 1 : n], F(0))
    a2_t = co_mass_from(i5)
    a1_t = a[i1 - 1] + a[i2 - 1] + b3 - a2_t - b_t
    g1_src = (
        (cls.nth(i1, True),)
        + tuple(cls.nth(i, True) for i in range(3, i4))
        + tuple(cls.nth(i, False) for i in range(1, i5) if i != i3)
    )
    g2_src = (cls.nth(i3, False),) + tuple(cls.nth(i, True) for i in range(i4, n + 1))
    group1 = (a1_t,) + tuple(spec.entry(i) for i in g1_src[1:])
    assert sum(group1, F(0)).denominator == 1
    group2 = (b_t,) + tuple(spec.entry(i) for i in g2_src[1:])
    assert sum(group2, F(0)) == 1
    p_l = len(large.nums)
    cut = max(p_l + 1, i3 + 1, i5)
    g3c = DiagonalSpec(
        (1 - a2_t,) + tuple(large_c.entry(o) for o in range(i5, cut) if o != i3),
        large_c.tail.reindexed(cut - p_l),
    )
    pairs = [tuple((x.numerator, x.denominator) for x in g) for g in (group1, group2)]
    return DecouplingPlan(
        i1, i2, i3, i4, i5, tuple(a), b_t, a1_t, a2_t, *pairs, g3c, g1_src, g2_src
    )


def balanced(prefix, tail):
    """The spec with one entry put in front of ``prefix`` so that a - b is an integer."""
    a, b = kadison_ab(DiagonalSpec(tuple(prefix), tail))
    return DiagonalSpec((1 - (a - b) % 1,) + tuple(prefix), tail)


def decouple_family():
    """Seeded decouple leaves: both geometric kinds, c in {1, 1/2, 3/8}, r in {3/4, 9/10,
    39/40, 99/100}, two entries on the finite side and up to five more near the
    threshold or near the end; then cases with i5 = i3 and with i5 inside a long
    prefix of large entries, and their complements."""
    rng = random.Random(41)
    out = []
    for kind in ("geometric", "one_minus_geometric"):
        for c in (F(1), F(1, 2), F(3, 8)):
            for r in (F(3, 4), F(9, 10), F(39, 40), F(99, 100)):
                pre = [F(rng.randint(1, 48), 97) for _ in range(2)]
                pre += [1 - F(rng.randint(1, 48), 97 * rng.choice((1, 8))) for _ in range(rng.randint(0, 5))]
                rng.shuffle(pre)
                if kind == "geometric":
                    pre = [1 - x for x in pre]
                out.append(balanced(pre, TailRule(kind, c, r)))
    near = TailRule.one_minus_geometric(F(1, 16), F(1, 2))
    far = TailRule.one_minus_geometric(F(1, 2**50), F(1, 2))
    long = [1 - F(1, 2 ** (i + 3)) for i in range(1, 41)]
    for s in (balanced([F(2, 5), F(1, 5), F(11, 20), F(7, 10)], near),
              balanced([F(1, 1000), F(2, 5)] + long, far)):
        out += [s, s.complement()]
    return out


def decouple_input(s):
    """The all-proper spec the decouple leaf of ``s`` decouples."""
    sub = proper_subspec(s)[0]
    return sub if sub.half_classes().count(False) == INF else sub.complement()


def test_decouple_matches_the_walk_reference():
    seen = set()
    for s in decouple_family():
        assert route(s).label.path[-1] == "decouple", s.to_json_dict()
        d = decouple_input(s)
        plan = decouple(d)
        assert plan.to_json_dict() == walk_decouple(d).to_json_dict(), s.to_json_dict()
        # each group's pinning layout, read once from the spec, is the least layout of
        # the group's Fractions
        for g, src in ((plan.group1, plan.group1_src), (plan.group2, plan.group2_src)):
            want = over_lcm(F(p, q) for p, q in g)
            assert _group_layout(d, g, src) == want, s.to_json_dict()
        large_prefix = len(d.subsequence(d.half_classes(), False).nums)
        seen |= {k for k, hit in (("i3 > 1", plan.i3 > 1), ("i5 = i3", plan.i5 == plan.i3),
                                  ("i5 in the prefix", 1 < plan.i5 <= large_prefix)) if hit}
    assert seen == {"i3 > 1", "i5 = i3", "i5 in the prefix"}


def test_untraced_builds_format_no_plan(monkeypatch):
    # the plan is formatted only into a trace the caller passed; an untraced
    # construct or a field must not pay for it (nor fail on a value too long to print)
    def refuse(self):
        raise AssertionError("the plan was formatted")

    monkeypatch.setattr(DecouplingPlan, "to_json_dict", refuse)
    assert verify_projection(carpenter(WORKED), WORKED, 12).passed
    field = carpenter_field(CellField((("w", WORKED),)))
    assert field.cells[0].settled is None
    assert verify_projection(field.cells[0].rep, WORKED, 12).passed


def test_decouple_requires_enough_structure():
    with pytest.raises(ConstructionError):
        decouple(spec("1/4", tail=TailRule.one_minus_geometric("1/8", "1/2")))  # one small
    with pytest.raises(ConstructionError):
        decouple(spec("3/10", "1/5", tail=TailRule.geometric("1/4", "1/2")))  # no larges


def test_conjugate_on_coords_redistributes_diagonal():
    from carpenter.seqcore import ProjectionRep, SparseVector

    rep = ProjectionRep.frame((SparseVector.basis(1), SparseVector.basis(3)))
    theta = 0.3
    u = np.array(
        [
            [np.cos(theta), -np.sin(theta), 0.0],
            [np.sin(theta), np.cos(theta), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    out = conjugate_on_coords(rep, (1, 2, 4), u)
    want = np.diag(u.T @ np.diag([1.0, 0.0, 0.0]) @ u)
    d = out.diag(4)
    got = [d[k - 1] for k in (1, 2, 4)]
    assert np.allclose(got, want, atol=1e-12)
    assert d[2] == pytest.approx(1.0, abs=1e-12)
    p = out.dense(4)
    assert np.allclose(p @ p, p, atol=1e-12)


def test_summable_construct2_worked_example():
    trace = {}
    rep = summable_construct2(WORKED, trace=trace)
    want = [0.3, 0.2, 0.75, 0.875, 0.9375, 0.96875]
    got = rep.diag(6)
    assert np.allclose(got, want, atol=1e-9)
    assert orthonormal(rep.vectors, 220, atol=1e-9)
    assert trace["plan"]["i"] == [1, 2, 1, 3, 3]


def test_summable_construct_dispatches_decouple():
    rep = summable_construct(WORKED)
    check_against_spec(rep, WORKED, 6)


def test_summable_construct_single_large_direct():
    s = spec("3/4", "1/8", tail=TailRule.geometric("1/16", "1/2"))
    rep = summable_construct(s)
    check_against_spec(rep, s, 8)
    assert orthonormal(rep.vectors, 140)


def test_summable_construct_single_large_displaced():
    # the large entry sits at position 2; a swap brings it home and back
    s = spec("1/8", "3/4", tail=TailRule.geometric("1/16", "1/2"))
    rep = summable_construct(s)
    check_against_spec(rep, s, 8)


def test_summable_construct_complement_tetris():
    s = spec("1/4", tail=TailRule.one_minus_geometric("1/8", "1/2"))
    rep = summable_construct(s)
    assert rep.form == "coframe"
    check_against_spec(rep, s, 8)


def test_summable_construct_finite_proper():
    s = spec("1", "0", "1/2", "1/2", "3/4", "1/4")
    rep = summable_construct(s)
    check_against_spec(rep, s, 8, atol=1e-10)
    p = rep.dense(8)
    assert np.allclose(p @ p, p, atol=1e-10)


def test_summable_construct_all_ones_tail():
    # finitely many proper entries in front of an all-ones tail
    s = spec("1/2", "1/2", tail=TailRule.constant("1"))
    rep = summable_construct(s)
    assert rep.form == "coframe"
    check_against_spec(rep, s, 10, atol=1e-10)


def test_summable_construct_zero_tail_of_ones_balance():
    # improper entries interleaved with the proper mass
    s = spec("1", "2/5", "0", "2/5", "2/5", "2/5", "2/5")
    rep = summable_construct(s)
    check_against_spec(rep, s, 8, atol=1e-10)


def test_summable_construct_rejects_divergent_input():
    with pytest.raises(ConstructionError):
        summable_construct(spec(tail=TailRule.constant("2/5")))


def test_summable_random_balanced_specs():
    rng = np.random.default_rng(31)
    done = 0
    while done < 25:
        k = int(rng.integers(2, 6))
        vals = [F(int(rng.integers(1, 16)), 16) for _ in range(k)]
        a = sum(min(x, 1 - x) for x in vals if x <= F(1, 2))
        b = sum(1 - x for x in vals if x > F(1, 2))
        t = (a - b) - (a - b).__floor__()
        if t:
            vals.append(1 - t)
        s = spec(*[str(v) for v in vals])
        rep = summable_construct(s)
        n = len(vals)
        check_against_spec(rep, s, n + 2, atol=1e-9)
        p = rep.dense(n + 2)
        assert np.allclose(p @ p, p, atol=1e-9)
        done += 1


def test_decouple_finds_i3_by_a_crossing_search():
    # the proper entries of one_minus_geometric(1, 999/1000): the first large entry
    # >= 1 - a_{i1} is the 5,521st, found from a logarithm estimate, not a walk
    d = proper_subspec(DiagonalSpec((), TailRule.one_minus_geometric(1, "999/1000")))[0]
    plan = decouple(d)
    assert plan.i3 == 5521
    large = d.subsequence(d.half_classes(), False)
    assert large.entry(5521) >= 1 - plan.small[plan.i1 - 1] > large.entry(5520)
    # a constant tail of large entries never gets there
    with pytest.raises(ConstructionError, match="tend to 1"):
        decouple(spec("1/5", "1/5", tail=TailRule.constant("3/4")))
