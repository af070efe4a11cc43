"""The spec's stored layout: one least denominator and integer numerators.

``DiagonalSpec`` reads ints, Fractions and ``"p/q"`` strings (in lowest terms
or not) into ``(den, nums)``; every transform picks or rescales those
integers.  Here each transform is checked against a reference that builds its
spec from Fractions, the way the layout's readers once did, and the stream's
construction is checked never to build the Fraction view of a prefix.
"""

import math
import random
from fractions import Fraction as F

import pytest

from carpenter.errors import CarpenterError, SpecError, UnsupportedStructureError
from carpenter.schurhorn import finite_projection, finite_projection_pair, schur_horn_unitary
from carpenter.selector import carpenter
from carpenter.seqcore import (
    DiagonalSpec,
    PermutationWindow,
    SparseVector,
    TailRule,
    _fmt_ratios,
    dumps_canonical,
    fmt_rat,
    over_lcm,
    rat,
)
from carpenter.tetris import block_sort, coupling, interleave_split_fin, min_s
from test_route_corpus import COUNT, SEED, _random_spec

DENS = (97, 2**20, 2**31 - 1)


def _forms(rng, x):
    """x written as a canonical string, a string not in lowest terms, a Fraction, and
    (when x is 0 or 1) an int; one of them drawn at random."""
    k = rng.randint(2, 9)
    forms = [str(x), f"{x.numerator * k}/{x.denominator * k}", x]
    if x.denominator == 1:
        forms.append(int(x))
    return rng.choice(forms)


def _random_prefix(rng):
    n = rng.randint(0, 12)
    out = []
    for _ in range(n):
        d = rng.choice((1, 2, 3, 8, 97, 2**20, 2**31 - 1))
        out.append(F(rng.randint(0, d), d))
    return out


def test_spec_layout_is_one_least_denominator_whatever_the_entries_are_written_as():
    rng = random.Random(SEED)
    tails = (TailRule.zero(), TailRule.constant("2/5"), TailRule.geometric("1/2", "1/3"))
    for _ in range(300):
        vals = _random_prefix(rng)
        tail = rng.choice(tails)
        ref = DiagonalSpec(tuple(vals), tail)
        spec = DiagonalSpec([_forms(rng, x) for x in vals], tail)
        assert spec == ref and hash(spec) == hash(ref)
        assert math.gcd(spec.den, *spec.nums) == 1
        if vals:
            d, nums = over_lcm(vals)
            assert (spec.den, list(spec.nums)) == (d, nums)
        else:
            assert (spec.den, spec.nums) == (1, ())
        assert spec.entries(len(spec.nums)) == list(vals)
        assert all(type(x) is F for x in spec.entries(len(spec.nums)))
        assert spec.to_json_dict() == ref.to_json_dict()
        assert spec.to_json_dict()["prefix"] == [str(x) for x in vals]
        n = len(vals) + 3
        assert [x.hex() for x in spec.float_entries(n)] == [float(x).hex() for x in ref.entries(n)]
        d, sums = spec._cumsums
        assert [F(s, d) for s in sums] == [ref.partial_sum(i) for i in range(len(vals) + 1)]
        assert DiagonalSpec.from_json_dict(spec.to_json_dict()) == spec


def test_spec_layout_view_is_read_only():
    s = DiagonalSpec.of("1/2", "2/4", 1)
    assert (s.den, s.nums) == (2, (1, 1, 2))
    with pytest.raises(AttributeError):
        s.den = 4
    with pytest.raises(AttributeError):
        s.nums = (0,)


@pytest.mark.parametrize(
    "entries, message",
    [
        (["1/2", "6/4"], "entry 2 = 3/2 outside [0,1]"),
        ([F(1, 3), -1], "entry 2 = -1 outside [0,1]"),
        (["-2/4"], "entry 1 = -1/2 outside [0,1]"),
        ([2], "entry 1 = 2 outside [0,1]"),
        (["1/2", 0.5], "not an exact rational: 0.5 (floats must be converted explicitly)"),
        (["3/2", "x"], "not an exact rational: 'x'"),  # every entry is read before the range test
        ([True], "not an exact rational: True"),
        ([None], "not an exact rational: None"),
        (["1/0"], "not an exact rational: '1/0'"),
    ],
)
def test_spec_layout_refusals_keep_their_messages(entries, message):
    with pytest.raises(SpecError) as err:
        DiagonalSpec(entries)
    assert str(err.value) == message


def _over_tails(rng):
    """One tail of each kind, the geometric kinds with an exponent k > 0."""
    c, r, k = F(rng.randint(1, 9), 10), F(rng.randint(1, 12), 13), rng.randint(1, 40)
    return (
        TailRule.zero(),
        TailRule.constant(F(rng.randint(0, 7), 7)),
        TailRule("geometric", c, r, k),
        TailRule("one_minus_geometric", c, r, k),
    )


def _over_windows(rng, p):
    """Windows inside the prefix, inside the tail and straddling the two: each in increasing
    order, shuffled, and with repeats."""
    windows = [range(1, p + 1), range(p + 1, p + rng.randint(1, 9)), range(max(p - 2, 1), p + 5)]
    windows.append(sorted(rng.sample(range(p + 1, p + 30), 4)))  # a tail window with gaps
    for w in windows:
        w = list(w)
        yield w
        yield rng.sample(w, len(w))
        yield [rng.choice(w) for _ in range(2 * len(w))]


def test_over_reads_every_window_as_integers_over_one_least_denominator():
    """``over`` gives L * entry(i) for every position, in the order given, over the lcm of den and
    the tail denominators it reads, and never builds the prefix view."""
    rng = random.Random(SEED)
    windows = 0
    for _ in range(40):
        vals = [F(rng.randint(0, d), d) for d in rng.choices((1, 3, 8, 97, 2**31 - 1), k=6)]
        for tail in _over_tails(rng):
            spec = DiagonalSpec(tuple(str(x) for x in vals), tail)
            p = len(spec.nums)
            for w in _over_windows(rng, p):
                L, nums = spec.over(w)
                assert [F(n, L) for n in nums] == [spec.entry(i) for i in w], (spec, w)
                tail_dens = [spec.entry(i).denominator for i in w if i > p]
                assert L == math.lcm(spec.den, *tail_dens), (spec, w)
                windows += 1
            assert "prefix" not in spec.__dict__
    assert windows == 40 * 4 * 12


# -- references built from Fractions


def _ref_subsequence(spec, classes, a_flag, o0=1, step=1):
    vals, o = [], o0
    while True:
        try:
            pos = classes.nth(o, a_flag)
        except CarpenterError:
            return DiagonalSpec(tuple(vals), TailRule.zero())
        if pos >= classes.rest_start() and a_flag == classes.rest_a:
            break
        vals.append(spec.entry(pos))
        o += step
    return DiagonalSpec(tuple(vals), spec.tail.reindexed(pos - len(spec.nums), step))


def _ref_interleave(spec, k):
    cls = spec.half_classes()
    large = tuple(cls.nth(m, False) for m in range(1, k + 1))
    subs = []
    for m, pos in enumerate(large, start=1):
        sub = _ref_subsequence(spec, cls, True, m, k)
        subs.append(DiagonalSpec((spec.entry(pos), *sub.entries(len(sub.nums))), sub.tail))
    return subs, PermutationWindow.head_first(large)


def _ref_block_sort(spec):
    p, bounds = len(spec.nums), [0]
    n_fin = spec.total()
    while (n_fin == math.inf or len(bounds) < n_fin) and bounds[-1] < p:
        bounds.append(min_s(spec, len(bounds)))
    w = bounds[-1]
    vals = spec.entries(w)
    _, nums = over_lcm(vals)
    keys = [(n, -nums[i]) for n in range(1, len(bounds)) for i in range(bounds[n - 1], bounds[n])]
    images = sorted(range(1, w + 1), key=lambda i: keys[i - 1])
    g = DiagonalSpec(
        tuple(vals[i - 1] for i in images) + tuple(spec.entries(p)[w:]), spec.tail.reindexed(max(w - p, 0) + 1)
    )
    return g, PermutationWindow(tuple(images))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except CarpenterError as e:
        return type(e).__name__


def _stream_spec(rng, den, k, p, complement=False):
    """A stream-shaped spec: k entries > 1/2, then p entries <= 1/2 over den, a constant tail."""
    vals = [F(rng.randint(den // 2 + 1, den - 1), den) for _ in range(k)]
    vals += [F(rng.randint(1, den // 2), den) for _ in range(p)]
    c = F(rng.randint(1, 9), 20)
    if complement:
        return DiagonalSpec(tuple(1 - x for x in vals), TailRule.constant(1 - c))
    return DiagonalSpec(tuple(vals), TailRule.constant(c))


def _layout_corpus():
    rng = random.Random(SEED)
    for _ in range(COUNT):
        yield _random_spec(rng)
    rng = random.Random(1729)
    for den in DENS:
        for k in (0, 1, 3):
            yield _stream_spec(rng, den, k, 60)


def test_spec_transforms_match_a_fraction_built_reference():
    blocks = splits = 0
    for spec in _layout_corpus():
        comp = spec.complement()
        assert comp == DiagonalSpec(tuple(1 - x for x in spec.entries(len(spec.nums))), spec.tail.complement())
        for classes in (spec.half_classes(), spec.proper_classes()):
            for a_flag in (True, False):
                for o0, step in ((1, 1), (2, 1), (1, 2), (3, 3)):
                    got = _outcome(spec.subsequence, classes, a_flag, o0, step)
                    assert got == _outcome(_ref_subsequence, spec, classes, a_flag, o0, step)
        k = spec.half_classes().count(False)
        if 1 <= k < math.inf:
            got = _outcome(interleave_split_fin, spec, k)
            assert got == _outcome(_ref_interleave, spec, k)
            splits += not isinstance(got, str)
        got = _outcome(block_sort, spec)
        if not isinstance(got, str):
            assert got == _ref_block_sort(spec)
            blocks += 1
    assert blocks > 50 and splits > 20


@pytest.mark.parametrize("den", DENS)
def test_stream_construct_never_builds_the_prefix_view(den, monkeypatch):
    """``carpenter`` on stream-shaped specs reads every spec's integers, never its
    Fraction view: the input's, the complement's, the sorted blocks' and the residue parts'."""
    made = []
    store = DiagonalSpec._store

    def recorded(self, *args):
        made.append(self)
        return store(self, *args)

    monkeypatch.setattr(DiagonalSpec, "_store", recorded)
    rng = random.Random(den)
    for k in (0, 1, 3):
        for complement in (False, True):
            spec = _stream_spec(rng, den, k, 150, complement)
            carpenter(spec, 12)
            carpenter(spec, 12, {})
    assert len(made) > 6 * 4  # every input, and specs derived from it
    assert not [s for s in made if "prefix" in s.__dict__]


# -- the one reader and the one writer


def _least_layout(vals):
    """The Fraction-built least layout: the lcm of the reduced denominators, and each numerator
    scaled to it."""
    d = math.lcm(*(x.denominator for x in vals))
    return d, [x.numerator * (d // x.denominator) for x in vals]


def test_over_lcm_reads_every_written_form_into_the_least_layout():
    """ints, Fractions, canonical and unreduced ``"p/q"`` strings, mixed, give the layout that
    the reduced Fractions give, through ``over_lcm`` and through the squares of a decoded
    vector; floats and bools are refused with ``rat``'s message."""
    rng = random.Random(SEED)
    unreduced = 0
    for _ in range(300):
        vals = _random_prefix(rng)
        written = [_forms(rng, x) for x in vals]
        unreduced += any(isinstance(w, str) and w != str(x) for w, x in zip(written, vals))
        d, nums = _least_layout(vals)
        assert over_lcm(written) == (d, nums), written
        support = [[i, math.sqrt(float(x))] for i, x in enumerate(vals, start=1)]
        vec = SparseVector.from_json_dict({"support": support, "squares": written})
        ref = SparseVector.from_json_dict({"support": support, "squares": [str(x) for x in vals]})
        assert vec.exact == ref.exact == (d, tuple(nums)), written
        assert dumps_canonical(vec.to_json_dict()) == dumps_canonical(ref.to_json_dict())
    assert unreduced > 100
    assert over_lcm([]) == (1, [])
    for bad in (0.5, True, False, None, "1/0", "x"):
        with pytest.raises(SpecError) as want:
            rat(bad)
        for read in (
            lambda: over_lcm(["1/2", bad]),
            lambda: SparseVector.from_json_dict({"support": [[1, 0.5]], "squares": [bad]}),
            lambda: finite_projection_pair(["1/2", bad]),
            lambda: coupling("1/2", bad, "3/4"),
            lambda: schur_horn_unitary([1, bad], ["1/2", "1/2"]),
        ):
            with pytest.raises(SpecError) as got:
                read()
            assert str(got.value) == str(want.value), bad


def test_finite_projection_reads_unreduced_entries_through_the_one_reader():
    """Entries of 0 and 1 written unreduced ("2/2", "0/3", "3/3") still take the basis-vector
    path, and any written form of a diagonal gives the rows its reduced Fractions give."""
    rng = random.Random(SEED)
    basis = SparseVector.basis
    assert finite_projection_pair(["2/2", "0/3", "3/3"]) == ([basis(1), basis(3)], [basis(2)])
    for _ in range(60):
        bits = [rng.randint(0, 1) for _ in range(rng.randint(1, 9))]
        ks = [rng.randint(2, 9) for _ in bits]
        written = [rng.choice((f"{b * k}/{k}", b, F(b), str(b))) for b, k in zip(bits, ks)]
        ones = [basis(i) for i, b in enumerate(bits, start=1) if b]
        zeros = [basis(i) for i, b in enumerate(bits, start=1) if not b]
        assert finite_projection_pair(written) == (ones, zeros), written
        assert finite_projection(written).vectors == tuple(ones)
    for _ in range(40):
        xs = _random_prefix(rng)
        vals = xs + [1 - x for x in xs]  # an integer sum, every entry in [0,1]
        written = [_forms(rng, x) for x in vals]
        assert finite_projection_pair(written) == finite_projection_pair(vals), written


def test_fmt_ratios_writes_what_fmt_rat_writes():
    """The one writer of integer layouts: each (p, q) as ``fmt_rat(Fraction(p, q))``, in lowest
    terms, p = 0 and q = 1 included; past the digit limit the same error text."""
    rng = random.Random(SEED)
    pairs = [(0, 1), (0, 7), (5, 1), (6, 4), (2**64, 2**32)]
    for _ in range(500):
        q = rng.choice((1, 2, 3, 97, 2**31 - 1, rng.randint(1, 2**80)))
        p, k = rng.randint(0, 2 * q), rng.choice((1, 1, rng.randint(2, 10**6)))
        pairs.append((p * k, q * k))
    assert _fmt_ratios(pairs) == [fmt_rat(F(p, q)) for p, q in pairs]
    assert _fmt_ratios(iter(pairs)) == _fmt_ratios(pairs)
    big = 10**5000 + 1
    for p, q in ((big, 3), (3 * big, 9), (7, big), (0 * big, big)):
        try:
            want = fmt_rat(F(p, q))
        except UnsupportedStructureError as e:
            with pytest.raises(UnsupportedStructureError) as got:
                _fmt_ratios([(p, q)])
            assert str(got.value) == str(e)
        else:
            assert _fmt_ratios([(p, q)]) == [want]
