import json
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from carpenter.errors import (
    ConstructionError,
    OutOfRangeError,
    SpecError,
    UnsupportedStructureError,
)
from carpenter.seqcore import (
    INF,
    CellField,
    DiagonalSpec,
    IndexMap,
    PermutationWindow,
    ProjectionRep,
    SparseVector,
    SqrtTail,
    TailRule,
    conjugate_by_permutation,
    _ratio,
    dumps_canonical,
    rat,
)


def support_indices(v):
    return tuple(i for i, _ in v.support)


def squares_through(v, n):
    """Exact square (or None) of every entry of v at an index <= n, by index."""
    return {i: None if p is None else F(p, q) for i, _, p, q in v.rows(n)}


def test_rat_accepts_exact_inputs_only():
    assert rat("3/7") == F(3, 7)
    assert rat(2) == F(2)
    assert rat(F(1, 3)) == F(1, 3)
    with pytest.raises(SpecError):
        rat(0.1)


RAT_STRINGS = (
    "3/7", "007/010", "0", "+1/2", "-1/2", " 1/2", "1/0", "0/0", "1/", "/2", "\u00bd",
    "\u0663/\u0664", "0.5", "1e-3", "",
    # int() alone would read these; Fraction(str) does not
    "1/-2", "1/+2", "1 /2", "1/ 2", "1_0/3",
    # the fast path's own cases: no slash, a zero denominator, past the int-to-str digit limit
    "7", "3/0",
    pytest.param("1" * 5000, id="numerator-past-digit-limit"),
    pytest.param("1/" + "3" * 5000, id="denominator-past-digit-limit"),
)


@pytest.mark.parametrize("text", RAT_STRINGS)
def test_rat_string_parity_with_fraction(text):
    """``rat`` reads a string to ``Fraction(text)``, or fails where it fails; so does
    ``_ratio``, the one parser behind it, as a pair (p, q) with q > 0."""
    try:
        want = F(text)
    except (ValueError, ZeroDivisionError):
        for parse in (rat, _ratio):
            with pytest.raises(SpecError) as err:
                parse(text)
            assert str(err.value) == f"not an exact rational: {text!r}"
        return
    got = rat(text)
    assert type(got) is F and got == want
    p, q = _ratio(text)
    assert type(p) is int and type(q) is int and q > 0 and F(p, q) == want


def test_spec_range_check_is_exact():
    big = 2**31 - 1
    s = DiagonalSpec.of("0", "1", f"{big}/{big}", f"1/{big}")
    assert [s.entry(i) for i in range(1, 5)] == [0, 1, 1, F(1, big)]
    for i, bad in ((2, f"{big + 1}/{big}"), (3, f"-1/{2**20}")):
        vals = ["1/2"] * (i - 1) + [bad]
        with pytest.raises(SpecError, match=f"entry {i} = {bad} outside"):
            DiagonalSpec.of(*vals)


def test_tail_rule_values():
    z = TailRule.zero()
    c = TailRule.constant("2/5")
    g = TailRule.geometric("1/2", "1/2")
    w = TailRule.one_minus_geometric("1/4", "1/2")
    assert z.value(10) == 0
    assert c.value(3) == F(2, 5)
    # geometric tail: c * r^(j-1)
    assert g.value(1) == F(1, 2)
    assert g.value(4) == F(1, 16)
    assert w.value(2) == 1 - F(1, 8)


def test_tail_flatness_is_derived_once_and_cannot_be_set():
    for rule, flat in ((TailRule.zero(), True), (TailRule.constant("2/5"), True),
                       (TailRule.geometric("1/2", "1/3"), False),
                       (TailRule.one_minus_geometric("1/2", "1/3"), False)):
        assert rule.flat is flat and (rule.r == 1) is flat
        assert "flat" not in repr(rule)
    with pytest.raises(TypeError):
        TailRule("constant", "2/5", flat=False)


def test_tail_factories_name_the_bad_field():
    # a factory passes its values on unread, so both spellings give the same message
    for factory, direct in (
        (lambda: TailRule.constant(0.5), lambda: TailRule("constant", 0.5)),
        (lambda: TailRule.geometric("1/2", 0.5), lambda: TailRule("geometric", "1/2", 0.5)),
        (lambda: TailRule.one_minus_geometric(0.5, "1/2"),
         lambda: TailRule("one_minus_geometric", 0.5, "1/2")),
    ):
        msgs = [str(pytest.raises(SpecError, make).value) for make in (factory, direct)]
        assert msgs[0] == msgs[1], msgs
    assert str(pytest.raises(SpecError, TailRule.constant, 0.5).value).startswith(
        "constant tail field 'c': "
    )


def test_tail_partial_sums_match_direct_summation():
    rules = [
        TailRule.zero(),
        TailRule.constant("1/3"),
        TailRule.geometric("3/4", "1/5"),
        TailRule.one_minus_geometric("1/2", "2/3"),
    ]
    for rule in rules:
        for j in range(0, 9):
            assert rule.partial_sum(j) == sum(rule.value(i) for i in range(1, j + 1))


def test_tail_sum_from_and_complement():
    g = TailRule.geometric("1/2", "1/2")
    # total of c r^{j-1} from j = k on is c r^{k-1} / (1 - r)
    assert g.sum_from(1) == 1
    assert g.sum_from(3) == F(1, 4)
    assert g.complement().sum_from(1) == INF
    w = g.complement()
    assert w.value(2) == 1 - g.value(2)
    assert w.complement().value(5) == g.value(5)
    assert TailRule.constant("1").complement().value(7) == 0


def test_reach_is_the_first_index_whose_sum_reaches_x():
    """reach(x) is the smallest i with partial_sum(i) >= x, by a walk over i, on prefixes
    and tails of every kind and thresholds at, between and past the sums: Fractions past
    the prefix on a constant tail too, and a finite total, which no i reaches on a decaying
    tail."""
    rng = random.Random(5)
    tails = [TailRule.zero(), TailRule.constant("0"), TailRule.constant("1/3"),
             TailRule.one_minus_geometric("1/2", "2/3")]
    tails += [TailRule.geometric(c, r) for c in ("1", "3/8") for r in ("1/2", "9/10", "39/40")]
    for tail in tails:
        for p in (0, 1, 5):
            s = DiagonalSpec(tuple(F(rng.randint(0, 9), 9) for _ in range(p)), tail)
            sums = [s.partial_sum(i) for i in range(p + 80)]
            xs = {F(-1), F(0)} | set(sums[:20])
            xs |= {t * F(1, 2) + u * F(1, 2) for t, u in zip(sums, sums[1:])}
            if s.total() != INF:
                xs |= {s.total(), s.total() + 1}
            for x in xs:
                want = next((i for i, t in enumerate(sums) if t >= x), None)
                assert s.reach(x) == want, (s.to_json_dict(), x)


def test_spec_entries_walk_matches_entry():
    for tail in (TailRule.zero(), TailRule.constant("2/5"), TailRule.geometric("1/2", "3/4"),
                 TailRule.one_minus_geometric("1", "39/40")):
        s = DiagonalSpec.of("1/3", "3/4", tail=tail)
        for n in (0, 1, 2, 3, 40):
            L, nums = s.over(range(1, n + 1))
            assert [F(x, L) for x in nums] == [s.entry(k) for k in range(1, n + 1)]


def test_tail_reindexed():
    g = TailRule.geometric("1/2", "1/3")
    h = g.reindexed(4)  # h(j) = g(j + 3)
    for j in range(1, 6):
        assert h.value(j) == g.value(j + 3)
    c = TailRule.constant("1/6").reindexed(9)
    assert c.value(1) == F(1, 6)


def test_spec_entry_and_sums():
    s = DiagonalSpec.of("1/2", "1/3", tail=TailRule.geometric("1/6", "1/2"))
    assert s.entry(1) == F(1, 2)
    assert s.entry(2) == F(1, 3)
    assert s.entry(3) == F(1, 6)
    assert s.entry(4) == F(1, 12)
    assert s.partial_sum(0) == 0
    assert s.partial_sum(4) == F(1, 2) + F(1, 3) + F(1, 6) + F(1, 12)
    # the entries from index 3 on sum to the total less S_2
    assert s.total() - s.partial_sum(2) == F(1, 3)
    assert s.total() == F(1, 2) + F(1, 3) + F(1, 3)
    with pytest.raises(OutOfRangeError):
        s.entry(0)


def test_spec_total_infinite():
    assert DiagonalSpec.of(tail=TailRule.constant("1/9")).total() == INF
    assert DiagonalSpec.of("1", tail=TailRule.zero()).total() == 1


def test_spec_complement_and_tail_view():
    s = DiagonalSpec.of("1/4", "3/4", tail=TailRule.geometric("1/2", "1/2"))
    c = s.complement()
    for i in range(1, 8):
        assert c.entry(i) == 1 - s.entry(i)
    # entries 4, 7, 10, ... of s: tail offsets 2, 5, 8, ...
    t = s.tail.reindexed(2, step=3)
    for j in range(1, 6):
        assert t.value(j) == s.entry(3 * j + 1)


def test_half_classes_counts_and_positions():
    # entries: 3/4, 1/4, 2/3, then constant 1/5 tail -> larges at 1, 3 only
    s = DiagonalSpec.of("3/4", "1/4", "2/3", tail=TailRule.constant("1/5"))
    idx = s.half_classes()
    assert idx.count(True) == INF  # smalls
    assert idx.count(False) == 2
    assert idx.nth(1, False) == 1
    assert idx.nth(2, False) == 3
    assert idx.nth(1, True) == 2
    assert idx.nth(2, True) == 4
    with pytest.raises(OutOfRangeError):
        idx.nth(3, False)


def test_half_classes_boundary_goes_small():
    s = DiagonalSpec.of("1/2", tail=TailRule.constant("1/2"))
    idx = s.half_classes()
    assert idx.count(False) == 0
    assert idx.count(True) == INF
    # one unit either side of 1/2 on a large odd denominator
    big = 2**31 - 1
    s = DiagonalSpec.of(f"{big // 2}/{big}", f"{big // 2 + 1}/{big}", f"{2**19}/{2**20}")
    idx = s.half_classes()
    assert [idx.nth(k, True) for k in (1, 2)] == [1, 3] and idx.nth(1, False) == 2


def test_proper_classes():
    s = DiagonalSpec.of("0", "1", "1/3", tail=TailRule.geometric("1/2", "1/2"))
    idx = s.proper_classes()
    assert idx.count(False) == 2  # improper entries 0 and 1
    assert idx.nth(1, True) == 3


def test_spec_json_round_trip():
    s = DiagonalSpec.of("1/2", "1/3", tail=TailRule.one_minus_geometric("1/4", "1/2"))
    t = DiagonalSpec.from_json_dict(json.loads(json.dumps(s.to_json_dict())))
    for i in range(1, 9):
        assert t.entry(i) == s.entry(i)


def test_sparse_vector_from_exact_sorts_and_drops_zeros():
    v = SparseVector.from_exact([(5, F(1, 4), -1), (2, F(3, 4), 1), (9, F(0), 1)])
    assert support_indices(v) == (2, 5)
    assert squares_through(v, 9) == {2: F(3, 4), 5: F(1, 4)}
    assert v.dense(5)[4] == pytest.approx(-0.5)
    assert v.exact_norm_sq() == 1


def test_sparse_vector_basis_and_dense():
    e3 = SparseVector.basis(3)
    d = e3.dense(5)
    assert np.allclose(d, [0, 0, 1, 0, 0], atol=0)
    assert e3.exact_norm_sq() == 1


def test_sparse_vector_tail_mass():
    tail = SqrtTail(4, TailRule.geometric("1/8", "1/2"))
    v = SparseVector.from_exact([(1, F(1, 2), 1), (2, F(1, 4), 1)], sqrt_tail=tail)
    assert v.exact_norm_sq() == 1
    # support rows first, then the tail; squares along the tail are c r^{j-1}
    assert [i for i, *_ in v.rows(6)] == [1, 2, 4, 5, 6]
    assert squares_through(v, 6)[4] == F(1, 8)
    assert squares_through(v, 6)[6] == F(1, 32)
    assert ProjectionRep.frame((v,)).diag(6)[5] == pytest.approx(1 / 32)


def test_sparse_vector_inner_matches_dense_dot():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        sup = sorted(rng.choice(np.arange(1, 15), size=n, replace=False).tolist())
        entries = [(int(i), F(int(rng.integers(1, 9)), 16), int(rng.choice([-1, 1]))) for i in sup]
        v = SparseVector.from_exact(entries)
        m = int(rng.integers(1, 7))
        sup2 = sorted(rng.choice(np.arange(1, 15), size=m, replace=False).tolist())
        w = SparseVector.from_exact(
            [(int(i), F(int(rng.integers(1, 9)), 16), int(rng.choice([-1, 1]))) for i in sup2]
        )
        assert v.inner(w) == pytest.approx(float(v.dense(20) @ w.dense(20)), abs=1e-12)


def test_sparse_vector_inner_with_tails():
    # same stride, congruent offsets: geometric cross series
    a = SparseVector.from_exact([], sqrt_tail=SqrtTail(1, TailRule.geometric("1/2", "1/2")))
    assert a.exact_norm_sq() == 1
    assert a.inner(a) == pytest.approx(1.0, abs=1e-12)
    b = SparseVector.from_exact([], sqrt_tail=SqrtTail(2, TailRule.geometric("1/2", "1/2")))
    dense_ab = float(a.dense(60) @ b.dense(60))
    assert a.inner(b) == pytest.approx(dense_ab, abs=1e-12)
    # stride 2 vectors with incongruent offsets never overlap
    c = SparseVector.from_exact([], sqrt_tail=SqrtTail(1, TailRule.geometric("1/2", "1/2"), stride=2))
    d = SparseVector.from_exact([], sqrt_tail=SqrtTail(2, TailRule.geometric("1/2", "1/2"), stride=2))
    assert c.inner(d) == 0.0


def test_sparse_vector_materialize_tail_prefix():
    tail = SqrtTail(3, TailRule.geometric("1/4", "1/2"))
    v = SparseVector.from_exact([(1, F(1, 2), 1)], sqrt_tail=tail)
    w = v.materialized_through(5)
    assert w.exact_norm_sq() == v.exact_norm_sq()
    assert np.allclose(w.dense(30), v.dense(30), atol=1e-14)
    assert 5 in support_indices(w)
    assert w.sqrt_tail is not None and w.sqrt_tail.start == 6


def test_sparse_vector_remap_affine():
    v = SparseVector.from_exact([(1, F(1, 2), 1), (2, F(1, 2), -1)])
    w = v.remap(IndexMap((), 3, 2))  # i -> (i-1)*3 + 2
    assert support_indices(w) == (2, 5)
    assert squares_through(w, 5)[5] == F(1, 2)
    # a sqrt tail moves with the map: start 3 -> 8, stride 2 -> 6
    tailed = SparseVector.from_exact(
        [(1, F(1, 2), 1)], sqrt_tail=SqrtTail(3, TailRule.geometric("1/4", "1/2"), stride=2)
    )
    w = tailed.remap(IndexMap((), 3, 2))
    assert support_indices(w) == (2,)
    assert (w.sqrt_tail.start, w.sqrt_tail.stride) == (8, 6)
    moved, orig = squares_through(w, 40), squares_through(tailed, 20)
    for j in range(1, 6):
        assert moved[8 + 6 * (j - 1)] == orig[3 + 2 * (j - 1)]


def test_sparse_vector_remap_list_shift():
    v = SparseVector.from_exact([(1, F(1, 3), 1), (2, F(1, 3), 1), (4, F(1, 3), 1)])
    w = v.remap(IndexMap((2, 5), 1, 5))  # 1 -> 2, 2 -> 5, then i -> i + 4
    assert support_indices(w) == (2, 5, 8)
    for head, stride, offset in (((2, 2), 1, 5), ((0,), 1, 5), ((6,), 1, 5), ((), 0, 1)):
        with pytest.raises(SpecError):
            IndexMap(head, stride, offset)


def test_sparse_vector_remap_identity_is_the_vector():
    """The empty identity map returns the vector itself; a head (1..h) also fixes every
    index, but it still materializes the tail entries it covers."""
    tailed = SparseVector.from_exact(
        [(1, F(1, 2), 1)], sqrt_tail=SqrtTail(2, TailRule.geometric("1/4", "1/2"))
    )
    assert tailed.remap(IndexMap()) is tailed
    w = tailed.remap(IndexMap((1, 2, 3), 1, 1))
    assert support_indices(w) == (1, 2, 3) and w.sqrt_tail.start == 4
    assert squares_through(w, 10) == squares_through(tailed, 10)


def test_remap_under_a_head_that_fixes_every_index_is_the_vector():
    """A head (1..h) with stride 1 and offset 1 fixes every index: a vector whose tail
    starts after h (or has none) comes back as itself; other maps build a new one."""
    plain = SparseVector.from_exact([(1, F(1, 2), 1), (4, F(1, 2), -1)])
    tailed = SparseVector.from_exact(
        [(1, F(1, 2), 1)], sqrt_tail=SqrtTail(5, TailRule.geometric("1/4", "1/2"))
    )
    for v in (plain, tailed):
        assert v.remap(IndexMap((1, 2, 3), 1, 1)) is v
        assert v.remap(IndexMap((1, 2, 3, 4), 1, 1)) is v
    assert IndexMap((1, 2, 3), 1, 1).fixes_all and IndexMap().fixes_all
    for emb in (IndexMap((2, 1), 1, 1), IndexMap((1, 2), 1, 2), IndexMap((1,), 2, 1)):
        assert not emb.fixes_all
        assert plain.remap(emb) is not plain


def test_index_map_after_a_permutation_is_the_composition():
    rng = random.Random(3)
    v = SparseVector.from_exact(
        [(1, F(1, 4), 1), (3, F(1, 8), -1)],
        sqrt_tail=SqrtTail(4, TailRule.geometric("1/8", "1/2")),
    )
    others = [IndexMap(), IndexMap((), 3, 2), IndexMap((), 1, 4), IndexMap((2, 5, 6), 1, 5)]
    for emb in (IndexMap(), IndexMap((), 1, 3), IndexMap((2, 5, 6), 1, 5), IndexMap((), 3, 2)):
        perms = [
            PermutationWindow(tuple(rng.sample(range(1, size + 1), size))) for size in (0, 2, 5, 9)
        ]
        for inner in perms + others:
            both = emb.after(inner)
            assert [both.map_index(i) for i in range(1, 41)] == [
                emb.map_index(inner.map_index(i)) for i in range(1, 41)
            ]
            # one relabel materializes the same tail entries as the two in turn
            assert v.remap(both) == v.remap(inner).remap(emb)
    # a permutation window is the index map whose head is its window
    p = PermutationWindow((3, 1, 2))
    assert isinstance(p, IndexMap) and (p.head, p.stride, p.offset) == ((3, 1, 2), 1, 1)
    assert p.head == (3, 1, 2) and p.size == 3
    assert [p.map_index(i) for i in range(1, 7)] == [3, 1, 2, 4, 5, 6]
    assert p.inverse() == PermutationWindow((2, 3, 1)) and type(p.inverse()) is PermutationWindow
    assert v.remap(p) == v.remap(IndexMap(p.head))


def test_index_map_refuses_indices_below_one():
    emb = IndexMap((2, 5, 6), 1, 5)
    assert [emb.map_index(i) for i in (1, 3, 4, 5)] == [2, 6, 8, 9]
    for i in (0, -1):
        with pytest.raises(OutOfRangeError, match=f"^index {i} < 1$"):
            emb.map_index(i)
    with pytest.raises(OutOfRangeError):
        IndexMap((), 3, 2).map_index(0)


@pytest.mark.parametrize("indices", [(0, 2), (1, 1), (3, 2), (1, 4, 4), (2, 5, 3)])
def test_sparse_vector_refuses_support_indices_not_increasing_from_one(indices):
    with pytest.raises(SpecError, match=r"^support indices must be strictly increasing and >= 1$"):
        SparseVector(tuple((i, 0.5) for i in indices))


def test_sparse_vector_from_dense_round_trip():
    x = np.array([0.0, 0.6, 0.0, -0.8])
    v = SparseVector.from_dense(x)
    assert support_indices(v) == (2, 4)
    assert np.allclose(v.dense(4), x, atol=1e-15)
    # plain ints and floats, the same ones float() gives; NaN and zeros are dropped
    v = SparseVector.from_dense([math.nan, 0.1, -0.0, math.inf, 0.0])
    assert v.support == ((2, 0.1), (4, math.inf))
    assert [(type(i), type(x)) for i, x in v.support] == [(int, float)] * 2


def test_sparse_vector_json_round_trip():
    tail = SqrtTail(4, TailRule.geometric("1/8", "1/2"))
    v = SparseVector.from_exact([(2, F(3, 4), -1), (3, F(1, 8), 1)], sqrt_tail=tail)
    w = SparseVector.from_json_dict(json.loads(json.dumps(v.to_json_dict())))
    assert np.allclose(w.dense(25), v.dense(25), atol=1e-15)
    assert w.exact_norm_sq() == v.exact_norm_sq()


def test_sparse_vector_squares_codec_is_exact_and_canonical():
    def decode(*squares):
        row = [[1, math.sqrt(float(F(q)))] for q in squares[:1]]
        row += [[i, 0.5] for i in range(2, len(squares) + 1)]
        return SparseVector.from_json_dict({"support": row, "squares": list(squares)})

    # one least denominator per vector: "2/4" is stored, compared and written as "1/2"
    v, w = decode("2/4"), decode("1/2")
    assert v == w and v.exact == (2, (1,)) and v.squares == (F(1, 2),)
    assert v.to_json_dict()["squares"] == ["1/2"]
    mixed = decode("6/8", "1/4")
    assert mixed.exact == (4, (3, 1)) and mixed.to_json_dict()["squares"] == ["3/4", "1/4"]
    assert mixed == SparseVector(mixed.support, None, (4, (3, 1)))
    # every refusal stays: a square that does not match its value, a negative
    # or malformed one, one past the digit limit, squares that do not align
    for sq in ("1/3", "-1/4", "1/0", "x", 0.25, "1" + "0" * 5000):
        with pytest.raises(SpecError):
            SparseVector.from_json_dict({"support": [[1, 0.5]], "squares": [sq]})
    with pytest.raises(SpecError, match="^square 1/3 does not match support value 0.5$"):
        SparseVector.from_json_dict({"support": [[1, 0.5]], "squares": ["2/6"]})
    with pytest.raises(SpecError, match="align"):
        SparseVector.from_json_dict({"support": [[1, 0.5]], "squares": ["1/4", "1/4"]})
    # writing an exact square past the int-to-str digit limit is still refused
    huge = SparseVector.from_exact([(1, F(1, 10**5000 + 1), 1)])
    with pytest.raises(UnsupportedStructureError, match="5001 digits"):
        huge.to_json_dict()


def test_sparse_vector_takes_its_stored_layout():
    sup = ((1, math.sqrt(0.75)), (2, 0.5))
    v = SparseVector(sup, None, (8, (6, 2)))
    assert v == SparseVector(sup, None, (4, (3, 1))) and v.exact == (4, (3, 1))
    assert v.squares == (F(3, 4), F(1, 4)) and hash(v) == hash(SparseVector(sup, None, (4, [3, 1])))
    with pytest.raises(SpecError, match="^squares must align with support$"):
        SparseVector(sup, None, (4, (3,)))
    # Fractions where (den, nums) belongs are refused by name, not with a bare TypeError
    fractions = ((F(3, 4), F(1, 4)), (4, (F(3), F(1))), (F(3, 4), F(1, 4), F(0)))
    for bad in fractions + ((4, (3.0, 1)), (0, (3, 1))):
        with pytest.raises(SpecError, match="^exact must be"):
            SparseVector(sup, None, bad)


def _toy_rep():
    v1 = SparseVector.from_exact([(1, F(1, 2), 1), (2, F(1, 2), 1)])
    return ProjectionRep.frame((v1,))


def test_projection_rep_diag_and_entry():
    rep = _toy_rep()
    assert rep.diag(3) == pytest.approx([0.5, 0.5, 0.0], abs=1e-15)
    p = rep.dense(3)
    assert p[0, 1] == pytest.approx(0.5, abs=1e-15)
    assert p[2, 2] == 0.0


def test_projection_rep_exact_diag():
    rep = _toy_rep()
    assert rep.exact_diag(2) == [F(1, 2), F(1, 2)]
    floats = ProjectionRep.frame((SparseVector.from_dense([0.6, 0.8]),))
    assert floats.exact_diag(3) == [None, None, F(0)]


def test_projection_rep_complementary_swaps_roles():
    rep = _toy_rep()
    comp = rep.complementary()
    assert comp.form == "coframe"
    for d, c in zip(rep.diag(4), comp.diag(4)):
        assert d + c == pytest.approx(1.0, abs=1e-15)
    again = comp.complementary()
    assert again.form == "frame" and again.vectors == rep.vectors


def test_projection_rep_gram_and_dense():
    rep = _toy_rep()
    g = rep.gram()
    assert g.shape == (1, 1)
    assert np.allclose(g, np.eye(1), atol=1e-15)
    p = rep.dense(4)
    assert np.allclose(p, p.T, atol=1e-15)
    assert np.allclose(p @ p, p, atol=1e-14)
    # coframe dense is the complement matrix
    q = rep.complementary().dense(4)
    assert np.allclose(p + q, np.eye(4), atol=1e-15)


def test_projection_rep_json_round_trip():
    rep = _toy_rep()
    back = ProjectionRep.from_json_dict(json.loads(json.dumps(rep.to_json_dict())))
    assert np.allclose(back.dense(4), rep.dense(4), atol=1e-15)
    assert back.form == rep.form


def test_permutation_window_apply_and_inverse():
    p = PermutationWindow((3, 1, 2))
    assert [p.map_index(i) for i in (1, 2, 3, 4, 9)] == [3, 1, 2, 4, 9]
    q = p.inverse()
    for i in range(1, 12):
        assert q.map_index(p.map_index(i)) == i
    with pytest.raises(SpecError):
        PermutationWindow((2, 2, 1))


def _head_then_rest(head, n):
    """Brute force: slot of each index 1..n when ``head`` goes first and the
    rest follow in increasing order, cut after the last index that moves."""
    order = list(head) + [i for i in range(1, n + 1) if i not in head]
    slot = {i: s for s, i in enumerate(order, start=1)}
    images = [slot[i] for i in range(1, n + 1)]
    while images and images[-1] == len(images):
        images.pop()
    return tuple(images)


def test_permutation_window_head_first():
    assert PermutationWindow.head_first(()).head == ()
    assert PermutationWindow.head_first((1, 2, 3)).head == ()
    assert PermutationWindow.head_first((2, 1, 3)).head == (2, 1)
    for bad in ((2, 2), (3, 1, 3), (0,), (1, -4)):
        with pytest.raises(ConstructionError, match="internal"):
            PermutationWindow.head_first(bad)
    rng = np.random.default_rng(41)
    for _ in range(400):
        n = int(rng.integers(1, 13))
        head = tuple(int(i) for i in rng.permutation(n)[: rng.integers(0, n + 1)] + 1)
        perm = PermutationWindow.head_first(head)
        assert perm.head == _head_then_rest(head, n + 3), head
        assert [perm.map_index(i) for i in head] == list(range(1, len(head) + 1))


def test_conjugate_by_permutation_moves_diagonal():
    rep = _toy_rep()
    perm = PermutationWindow((3, 1, 2))
    out = conjugate_by_permutation(rep, perm)
    d_out, d_rep = out.diag(6), rep.diag(6)
    for i in range(1, 7):
        assert d_out[i - 1] == pytest.approx(d_rep[perm.map_index(i) - 1], abs=1e-15)


def test_conjugate_by_permutation_random_frames():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        k = int(rng.integers(1, n + 1))
        frame = tuple(SparseVector.from_dense(q[:, j]) for j in range(k))
        rep = ProjectionRep.frame(frame)
        perm = PermutationWindow(tuple(int(x) for x in rng.permutation(n) + 1))
        out = conjugate_by_permutation(rep, perm)
        d_out = np.array(out.diag(n))
        expect = np.array([rep.diag(n)[perm.map_index(i) - 1] for i in range(1, n + 1)])
        assert np.allclose(d_out, expect, atol=1e-12)
        # conjugation preserves the projection property
        p = out.dense(n)
        assert np.allclose(p @ p, p, atol=1e-10)


def test_conjugate_materializes_tails_inside_window():
    tail = SqrtTail(2, TailRule.geometric("1/2", "1/2"))
    v = SparseVector.from_exact([(1, F(1, 2), 1)], sqrt_tail=tail)
    rep = ProjectionRep.frame((v,))
    perm = PermutationWindow((3, 1, 2))
    out = conjugate_by_permutation(rep, perm)
    d_out, d_rep = out.diag(8), rep.diag(8)
    e_out, e_rep = out.exact_diag(8), rep.exact_diag(8)
    for i in range(1, 9):
        assert d_out[i - 1] == pytest.approx(d_rep[perm.map_index(i) - 1], abs=1e-14)
        assert e_out[i - 1] == e_rep[perm.map_index(i) - 1]


def test_cell_field_rejects_duplicate_ids():
    s = DiagonalSpec.of("1/2", "1/2", tail=TailRule.zero())
    with pytest.raises(SpecError):
        CellField((("c0", s), ("c0", s)))


def test_dumps_canonical_is_order_insensitive():
    a = dumps_canonical({"b": [1, 2], "a": {"y": 1, "x": 2}})
    b = dumps_canonical({"a": {"x": 2, "y": 1}, "b": [1, 2]})
    assert a == b
    assert a.splitlines()[1].strip().startswith('"a"')


_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 0.0, 1e22, 5e-324, 0.1, -2.5, 1e16, 1 / 3)
_INTS = (0, -1, 7, 2**70, -(2**63))
_STRS = ("", "a", 'say "hi"', "back\\slash", "tab\tline\nnul\x00\x1f", "h\u00e9llo", "\u65e5\u672c",
         "\u2028", "\U0001f600", "/")


def _random_leaf(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return rng.choice(_FLOATS) if rng.random() < 0.6 else rng.uniform(-1e3, 1e3)
    if kind == 1:
        return rng.choice(_INTS) if rng.random() < 0.6 else rng.randrange(-10**6, 10**6)
    if kind == 2:
        return rng.choice((True, False, None))
    return rng.choice(_STRS)


def _random_keys(rng, n):
    family = rng.randrange(3)
    if family == 0:
        return [rng.choice(_STRS) + str(rng.randrange(5)) for _ in range(n)]
    if family == 1:  # int, float and bool keys sort together
        return [rng.choice((rng.randrange(-5, 5), rng.choice(_FLOATS[3:]), True, False))
                for _ in range(n)]
    return [None]


def _random_tree(rng, depth, min_depth):
    """A random JSON-able tree; its first child runs at least ``min_depth`` levels deep."""
    if depth < min_depth:
        kind = rng.randrange(2, 6)
    else:
        kind = rng.randrange(6) if rng.random() < 0.4 and depth < 9 else rng.randrange(2)
    if kind == 0:
        return _random_leaf(rng)
    if kind == 1:  # a support-like list of [int, float] rows, some not finite or with bools
        return [[rng.choice((rng.randrange(1, 99), True)),
                 rng.choice((rng.random(), rng.choice(_FLOATS), False))] for _ in range(rng.randrange(4))]
    n = rng.randrange(1 if depth < min_depth else 0, 4)
    kids = [_random_tree(rng, depth + 1, min_depth if j == 0 else 0) for j in range(n)]
    if kind == 2:
        return kids
    if kind == 3:
        return tuple(kids)
    if kind == 4:
        return [_random_leaf(rng) for _ in range(n)] + kids[:1]
    return dict(zip(_random_keys(rng, n), kids))


def test_dumps_canonical_matches_json_dumps_on_random_trees():
    rng = random.Random(1729)
    for _ in range(5000):
        tree = _random_tree(rng, 0, rng.randrange(8))
        assert dumps_canonical(tree) == json.dumps(tree, sort_keys=True, indent=2)
    for tree in ([np.float64(1.5), [np.float64(-0.0)]], {1.5: "x", 2: True, False: None},
                 {None: [[1, math.nan]]}, [[]], [{}], ()):
        assert dumps_canonical(tree) == json.dumps(tree, sort_keys=True, indent=2)


@pytest.mark.parametrize("bad", [[F(1, 2)], {"a": {1, 2}}, [[1, np.int64(2)]], {"a": 1, 2: "b"},
                                 {(1, 2): 0}])
def test_dumps_canonical_refuses_what_json_refuses(bad):
    with pytest.raises(TypeError):
        json.dumps(bad, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        dumps_canonical(bad)


@pytest.mark.parametrize("row, message", [
    ([True, 0.5], "support index must be an integer, got True"),
    ([1, False], "support value must be a number, got False"),
    ([1.5, 0.5], "support index must be an integer, got 1.5"),
    ([1, "0.5"], "support value must be a number, got '0.5'"),
    ([1], "support entry must be an [index, value] pair, got [1]"),
    ([1, 0.5, 0], "support entry must be an [index, value] pair, got [1, 0.5, 0]"),
    ({"1": 0.5}, "support entry must be a list, got dict"),
    ([1, math.nan], "support value must be a finite number, got nan"),
    ([1, math.inf], "support value must be a finite number, got inf"),
])
def test_support_row_decoder_keeps_every_refusal(row, message):
    with pytest.raises(SpecError) as err:
        SparseVector.from_json_dict({"support": [row]})
    assert str(err.value) == message
    assert SparseVector.from_json_dict({"support": [[2.0, 0.5]]}).support == ((2, 0.5),)
