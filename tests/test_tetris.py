import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from carpenter.errors import ConstructionError, OutOfRangeError, SpecError
from carpenter.feasibility import route
from carpenter import tetris as tetris_module
from carpenter.seqcore import DiagonalSpec, ProjectionRep, SparseVector, SqrtTail, TailRule, fmt_rat
from carpenter.tetris import (
    block_sort,
    coupling,
    interleave_split_fin,
    min_s,
    nonsummable_construct,
    tetris_vectors,
)


def spec(*values, tail=None):
    return DiagonalSpec.of(*values, tail=tail or TailRule.zero())


def gram_of(vectors, m):
    v = np.vstack([w.dense(m) for w in vectors])
    return v @ v.T


# ---------------------------------------------------------------------------
# boundary index minS


def test_min_s_constant_tail():
    s = spec(tail=TailRule.constant("2/5"))
    # partial sums 2/5, 4/5, 6/5, ... reach n at ceil(5n/2)
    assert [min_s(s, n) for n in (1, 2, 3, 4)] == [3, 5, 8, 10]


def test_min_s_prefix_then_tail():
    s = spec("3/4", "3/4", tail=TailRule.constant("1/4"))
    assert min_s(s, 1) == 2
    assert min_s(s, 2) == 4
    assert min_s(s, 3) == 8


def test_min_s_exact_hit():
    s = spec("1/2", "1/2", "1/2", "1/2")
    assert min_s(s, 1) == 2
    assert min_s(s, 2) == 4


def test_min_s_geometric_unreachable():
    s = spec(tail=TailRule.geometric("1/2", "1/2"))  # partial sums approach 1
    with pytest.raises(ConstructionError):
        min_s(s, 1)
    t = spec("1/2", tail=TailRule.geometric("1/2", "1/2"))  # reaches 1 at index 2
    assert min_s(t, 1) == 2
    with pytest.raises(ConstructionError):
        min_s(t, 2)


def test_min_s_zero_tail_unreachable():
    s = spec("1/2", "1/2")
    assert min_s(s, 1) == 2
    with pytest.raises(ConstructionError):
        min_s(s, 2)


def test_min_s_is_the_fraction_definition_at_exact_integer_hits():
    """Inside the prefix min_s bisects the integer sums d*S_i for d*n; it must agree with the
    smallest i whose Fraction partial sum reaches n, also where S_i lands exactly on n."""
    rng = random.Random(41)
    hits = 0
    for _ in range(300):
        d = rng.choice((2, 3, 4, 6, 12, 2**31 - 1))
        prefix = [F(rng.randint(0, d), d) for _ in range(rng.randint(1, 25))]
        if rng.random() < 0.5:  # a denominator coprime to d, so the common one is a product
            prefix.append(F(rng.randint(1, 96), 97))
        s = DiagonalSpec(tuple(prefix), TailRule.constant("1/3"))
        sums = [s.partial_sum(i) for i in range(len(prefix) + 1)]
        for n in range(0, math.ceil(sums[-1]) + 1):
            want = next((i for i, x in enumerate(sums) if x >= n), None)
            if want is not None:
                assert min_s(s, n) == want, (s, n)
                hits += sums[want] == n and n > 0
    assert hits > 300, hits


# ---------------------------------------------------------------------------
# the two-coordinate coupling


def test_coupling_worked_value():
    assert coupling(F(2, 5), F(2, 5), F(3, 5)) == F(3, 10)


def test_coupling_identity_exact():
    rng = np.random.default_rng(3)
    for _ in range(300):
        d1 = F(int(rng.integers(0, 64)), 64)
        d2 = F(int(rng.integers(0, 64)), 64)
        lo, hi = max(d1, d2), min(F(1), d1 + d2)
        if hi <= lo:
            continue
        sigma = lo + (hi - lo) * F(int(rng.integers(1, 8)), 8)
        if 2 * sigma <= d1 + d2:
            continue
        a = coupling(d1, d2, sigma)
        assert a * (d1 - a) == (sigma - a) * (d2 - sigma + a)
        for q in (a, sigma - a, d1 - a, d2 - sigma + a):
            assert 0 <= q <= 1


def test_coupling_rejects_out_of_domain():
    with pytest.raises(ConstructionError):
        coupling(F(1, 4), F(1, 4), F(3, 4))  # sigma > d1 + d2
    with pytest.raises(ConstructionError):
        coupling(F(3, 4), F(1, 4), F(1, 2))  # sigma < max
    with pytest.raises(ConstructionError):
        coupling(F(1, 2), F(1, 2), F(1, 2))  # 2 sigma = d1 + d2


def _coupling_reference(d1, d2, sigma):
    """The coupling as plain Fraction arithmetic, one operation at a time."""
    for name, v in (("d1", d1), ("d2", d2), ("sigma", sigma)):
        if not 0 <= v <= 1:
            raise ConstructionError(f"coupling: {name} = {v} outside [0,1]")
    if not max(d1, d2) <= sigma <= d1 + d2:
        raise ConstructionError(
            f"coupling: sigma = {sigma} outside [max(d1,d2), d1+d2] = [{max(d1, d2)}, {d1 + d2}]"
        )
    if not 2 * sigma > d1 + d2:
        raise ConstructionError(f"coupling: 2*sigma = {2 * sigma} <= d1 + d2 = {d1 + d2}")
    return sigma * (sigma - d2) / (2 * sigma - d1 - d2)


def test_coupling_matches_the_rational_formula():
    dens = (97, 2**20, 2**31 - 1)
    rng = random.Random(12)

    def draw(den):
        return F(rng.randint(0, den), den)

    valid = invalid = 0
    for trial in range(3000):
        da, db = rng.choice(dens), rng.choice(dens)  # one denominator, or a mixed pair
        d1, d2 = draw(da), draw(db)
        sigma = (
            draw(rng.choice((da, db))),
            max(d1, d2),
            d1 + d2,
            (d1 + d2) / 2,
            F(rng.randint(0, 1)),
            d1 + d2 + F(1, da),  # may leave [0,1]
            -F(1, db),
        )[trial % 7]
        if trial % 11 == 0:
            d1 = F(trial % 2)  # entries 0 and 1
        try:
            want = _coupling_reference(d1, d2, sigma)
        except ConstructionError as e:
            with pytest.raises(ConstructionError) as got:
                coupling(d1, d2, sigma)
            assert str(got.value) == str(e), (d1, d2, sigma)
            invalid += 1
        else:
            assert coupling(d1, d2, sigma) == want == sigma * (sigma - d2) / (2 * sigma - d1 - d2)
            valid += 1
    assert valid > 500 and invalid > 500
    with pytest.raises(SpecError):
        coupling(0.4, 0.4, 0.6)


# ---------------------------------------------------------------------------
# streaming fill


def test_fill_five_identical_entries():
    s = spec(*["2/5"] * 5)
    out = tetris_vectors(s, 2)
    assert out.settled_prefix is None
    assert out.sigma == (F(3, 5),)
    assert out.a_coef == (F(3, 10),)
    v1, v2 = out.vectors
    expect1 = [math.sqrt(2 / 5), math.sqrt(3 / 10), -math.sqrt(3 / 10), 0, 0]
    expect2 = [0, math.sqrt(1 / 10), math.sqrt(1 / 10), math.sqrt(2 / 5), math.sqrt(2 / 5)]
    assert np.allclose(v1.dense(5), expect1, atol=1e-15)
    assert np.allclose(v2.dense(5), expect2, atol=1e-15)
    assert np.allclose(gram_of(out.vectors, 5), np.eye(2), atol=1e-15)
    assert ProjectionRep.frame(out.vectors).exact_diag(5) == [F(2, 5)] * 5


def test_fill_constant_two_fifths_stream():
    s = spec(tail=TailRule.constant("2/5"))
    out = tetris_vectors(s, 4)
    assert out.settled_prefix is not None
    assert out.min_s == {1: 3, 2: 5, 3: 8, 4: 10}
    assert out.settled_prefix == 8
    assert np.allclose(gram_of(out.vectors, 12), np.eye(4), atol=1e-14)
    n = out.settled_prefix
    assert ProjectionRep.frame(out.vectors).exact_diag(n) == [F(2, 5)] * n


def test_fill_halves_pairs_up():
    out = tetris_vectors(spec(tail=TailRule.constant("1/2")), 3)
    sups = [tuple(i for i, _ in v.support) for v in out.vectors]
    assert sups == [(1, 2), (3, 4), (5, 6)]
    assert out.settled_prefix == 4
    assert np.allclose(gram_of(out.vectors, 8), np.eye(3), atol=1e-15)


def test_fill_all_ones_gives_basis():
    out = tetris_vectors(spec("1", "1", "1"), 3)
    for n, v in enumerate(out.vectors, start=1):
        assert v.support == ((n, 1.0),)


def test_fill_ordering_violation_raises():
    s = spec("2/5", "1/5", "2/5", tail=TailRule.constant("2/5"))
    with pytest.raises(ConstructionError, match="ordering"):
        tetris_vectors(s, 2)


def test_fill_adjacent_collision_rejected():
    s = spec("3/4", "3/4", tail=TailRule.constant("3/4"))
    with pytest.raises(ConstructionError, match="collision"):
        tetris_vectors(s, 3)


def test_fill_ultimate_vector_with_tail():
    s = spec("1/2", "1/2", tail=TailRule.geometric("1/2", "1/2"))
    out = tetris_vectors(s, 2)
    assert out.settled_prefix is None
    v2 = out.vectors[1]
    assert v2.sqrt_tail is not None
    assert v2.exact_norm_sq() == 1
    assert np.allclose(gram_of(out.vectors, 60), np.eye(2), atol=1e-12)
    assert ProjectionRep.frame(out.vectors).exact_diag(8) == [s.entry(i) for i in range(1, 9)]


def test_fill_norm_check_does_not_trust_the_prefix_sums():
    prefix = ["1/4", "250/1009", "1/4", "1/4", "1/4", "1/4", "1/4", "1/4", "1/4"]
    clean = tetris_vectors(spec(*prefix, tail=TailRule.constant("1/4")), 3)
    s = spec(*prefix, tail=TailRule.constant("1/4"))
    d, sums = s._cumsums
    j = clean.min_s[2] - 2  # last whole entry of the second vector
    bad = list(sums)
    bad[j] += 1  # S_j off by 1/d
    s.__dict__["_cumsums"] = (d, tuple(bad))
    # the corrupted sum stays below 2, so every boundary stays put
    assert [min_s(s, n) for n in (1, 2, 3)] == [clean.min_s[n] for n in (1, 2, 3)]
    with pytest.raises(ConstructionError, match="step 2 produced norm"):
        tetris_vectors(s, 3)


def test_fill_norm_check_does_not_trust_the_prefix_sums_carried_into_the_tail():
    # step 2's run starts in the prefix and ends in the constant tail, so its sums are the
    # spec's own, carried past the prefix with the tail entries the fill reads
    prefix = ["1/2", "1/3", "1/3", "250/1009"]
    clean = tetris_vectors(spec(*prefix, tail=TailRule.constant("1/4")), 3)
    s = spec(*prefix, tail=TailRule.constant("1/4"))
    p = len(s.nums)
    cursor, left = clean.min_s[1] + 1, clean.min_s[2] - 1
    assert cursor - 1 < p and left - 1 > p  # S_{cursor-1} in the prefix, S_{left-1} past it
    d, sums = s._cumsums
    bad = list(sums)
    bad[cursor - 1] += 1
    s.__dict__["_cumsums"] = (d, tuple(bad))
    assert [min_s(s, n) for n in (1, 2, 3)] == [clean.min_s[n] for n in (1, 2, 3)]
    with pytest.raises(ConstructionError, match="step 2 produced norm"):
        tetris_vectors(s, 3)


def test_streamed_fill_reads_no_tail_sum_per_step(monkeypatch):
    # a constant tail's window is read once: one tail search for min_s(g, m), then every
    # step bisects integer sums and reads its entries inside the prefix
    g, _ = block_sort(spec("1/2", "1/3", "1/5", "1/8", tail=TailRule.constant("2/5")))
    m = 24
    calls = {"reach": 0, "partial_sum": 0}
    for cls, name in ((TailRule, "reach"), (DiagonalSpec, "partial_sum")):
        def counting(*args, _f=getattr(cls, name), _name=name):
            calls[_name] += 1
            return _f(*args)

        monkeypatch.setattr(cls, name, counting)
    out = tetris_vectors(g, m)
    monkeypatch.undo()
    assert sum(mn > len(g.nums) + 1 for mn in out.min_s.values()) > 20  # tail steps
    assert calls["partial_sum"] == 0 and calls["reach"] <= 1, calls
    want = tetris_vectors(spec(*[g.entry(i) for i in range(1, out.min_s[m] + 1)], tail=g.tail), m)
    assert _fill_record(out) == _fill_record(want)


def test_fill_count_limits():
    s = spec(*["2/5"] * 5)  # total mass 2
    with pytest.raises(ConstructionError):
        tetris_vectors(s, 3)
    with pytest.raises(ConstructionError):
        tetris_vectors(spec("1/5", "2/5"), 1)  # fractional total
    with pytest.raises(OutOfRangeError):
        tetris_vectors(s, -1)


def test_fill_zero_vectors_requested():
    out = tetris_vectors(spec(tail=TailRule.constant("2/5")), 0)
    assert out.vectors == ()
    assert out.settled_prefix == 0


# ---------------------------------------------------------------------------
# the fill against a Fraction reference


def fill_reference(spec, m):
    """The fill with every square, leftover and sigma a separate Fraction.

    Returns (vectors, settled_prefix, min_s, sigma, a_coef) as TetrisOutput
    holds them; it raises the fill's ConstructionErrors with the same text.
    """
    total = spec.total()
    n_total = None if total == math.inf else total
    if n_total is not None:
        if n_total.denominator != 1:
            raise ConstructionError(f"total mass {n_total} is not a natural number")
        n_total = int(n_total)
        if m > n_total:
            raise ConstructionError(f"requested {m} vectors but total mass is {n_total}")
    mins, vectors, sigmas, acoefs = {}, [], [], []
    pending = []  # leftover squares for the next vector
    cursor = 1  # first coordinate not fully consumed
    for n in range(1, m + 1):
        if n == n_total:  # the ultimate vector: leftovers plus everything else
            p = len(spec.nums)
            entries = [(i, q, 1) for i, q in pending]
            entries += [(i, spec.entry(i), 1) for i in range(cursor, max(p, cursor - 1) + 1)]
            start = max(cursor, p + 1)
            t = spec.tail
            tail = SqrtTail(start, t.reindexed(start - p), 1) if t.sum_from(1) else None
            vec = SparseVector.from_exact(entries, tail)
            if vec.exact_norm_sq() != 1:
                raise ConstructionError(f"internal: ultimate vector norm^2 {vec.exact_norm_sq()}")
            vectors.append(vec)
            break
        mn = mins[n] = min_s(spec, n)
        if mn < cursor:
            raise ConstructionError(f"internal: minS({n}) = {mn} behind cursor {cursor}")
        left = mn - 1
        d2 = spec.entry(mn)
        direct = [(i, q) for i, q in pending if i != left]
        d1 = sum((q for i, q in pending if i == left), F(0))
        sigma = 1 - sum((q for _, q in direct), F(0))
        if left >= cursor:
            d1 = spec.entry(left)
            if d1 < d2:
                raise ConstructionError(
                    f"ordering hypothesis fails at step {n}: entry {left} = {fmt_rat(d1)}"
                    f" < entry {mn} = {fmt_rat(d2)}"
                )
            direct += [(i, spec.entry(i)) for i in range(cursor, left)]
            sigma -= spec.partial_sum(left - 1) - spec.partial_sum(cursor - 1)
        try:
            a = _coupling_reference(d1, d2, sigma)
        except ConstructionError as e:
            raise ConstructionError(f"step {n}: {e}") from None
        if left < cursor and n >= 2:
            l1 = next((q for i, q in direct if i == mn - 2), F(0))
            if a != 0 or acoefs[-1] * l1 != 0:
                raise ConstructionError(
                    f"step {n}: adjacent boundary collision breaks orthogonality"
                )
        tail_leftover = d2 - sigma + a
        entries = [(i, q, 1) for i, q in direct]
        entries += [(left, a, 1), (mn, sigma - a, -1 if tail_leftover > 0 else 1)]
        vec = SparseVector.from_exact(entries)
        if vec.exact_norm_sq() != 1:
            raise ConstructionError(f"internal: step {n} produced norm^2 {vec.exact_norm_sq()}")
        vectors.append(vec)
        sigmas.append(sigma)
        acoefs.append(a)
        pending = [(i, q) for i, q in ((left, d1 - a), (mn, tail_leftover)) if q != 0]
        cursor = mn + 1
    if m == n_total:
        settled = None
    else:
        settled = max(mins[m] - 2, 0) if m > 0 else 0
    return tuple(vectors), settled, mins, tuple(sigmas), tuple(acoefs)


def assert_fill_matches_reference(s, m):
    try:
        want = fill_reference(s, m)
    except ConstructionError as e:
        with pytest.raises(ConstructionError) as got:
            tetris_vectors(s, m)
        assert str(got.value) == str(e), s
        return False
    out = tetris_vectors(s, m)
    assert (out.settled_prefix, out.min_s, out.sigma, out.a_coef) == want[1:], s
    assert len(out.vectors) == len(want[0]), s
    for v, w in zip(out.vectors, want[0]):
        assert [(i, x.hex()) for i, x in v.support] == [(i, x.hex()) for i, x in w.support], s
        assert v.squares == w.squares and v.sqrt_tail == w.sqrt_tail, s
        assert v == w, s
    return True


def _stream_shaped_spec(rng, den, k, complement):
    """k entries > 1/2, then small ones over ``den``, and a constant tail."""
    prefix = [F(rng.randint(den // 2 + 1, den - 1), den) for _ in range(k)]
    prefix += [F(rng.randint(1, den // 2), den) for _ in range(rng.randint(8, 40))]
    c = rng.choice((F(1, 3), F(2, 5)))
    s = DiagonalSpec(tuple(prefix), TailRule.constant(c))
    return s.complement() if complement else s


def _one_large_geometric_spec(rng):
    """One entry > 1/2 among small ones and a geometric tail that makes the total whole,
    so the ultimate vector of the k = 1 fill has a sqrt tail."""
    den = rng.choice((97, 2**20, 2**31 - 1))
    prefix = [F(rng.randint(1, den // 2), den) for _ in range(rng.randint(0, 12))]
    prefix.insert(rng.randint(0, len(prefix)), F(rng.randint(den // 2 + 1, den - 1), den))
    gap = math.ceil(sum(prefix)) - sum(prefix)
    mass = gap + rng.randint(0 if gap else 1, 2)
    r = rng.choice([r for r in (F(1, 8), F(3, 8), F(3, 4), F(7, 8)) if mass * (1 - r) <= F(1, 2)])
    return DiagonalSpec(tuple(prefix), TailRule.geometric(mass * (1 - r), r))


def test_fill_matches_the_fraction_reference(monkeypatch):
    # every fill the routes run, on stream-shaped and finite one-large specs
    calls = []
    fill = tetris_vectors

    def recording(s, m, emb):
        calls.append((s, m))
        return fill(s, m, emb)

    monkeypatch.setattr(tetris_module, "tetris_vectors", recording)
    rng = random.Random(1729)
    specs = [
        _stream_shaped_spec(rng, den, k, complement)
        for den in (97, 2**20, 2**31 - 1)
        for k in (0, 1, 3)
        for complement in (False, True)
        for _ in range(3)
    ]
    specs += [_one_large_geometric_spec(rng) for _ in range(30)]
    labels = set()
    for s in specs:
        r = route(s)
        labels.add(str(r.label).split("/")[-1])
        r.build(rng.randint(1, 24))
    assert {"residue-split(k=3)", "tetris"} <= labels, labels
    tails = 0
    for s, m in calls:
        assert_fill_matches_reference(s, m)
        tails += m == s.total() and s.tail.sum_from(1) > 0
    assert len(calls) >= 120 and tails > 20, (len(calls), tails)


def _fill_record(out):
    """A fill's output: each vector's float bits, exact squares and sqrt tail, then min_s, the
    settled prefix, and sigma and a as Fractions (their raw integers may share a factor)."""
    vs = [([(i, x.hex()) for i, x in v.support], v.exact, v.sqrt_tail) for v in out.vectors]
    return vs, out.min_s, out.settled_prefix, out.sigma, out.a_coef


def test_constant_tail_entries_moved_into_the_prefix_change_no_fill(monkeypatch):
    """Every fill the stream routes run (the k = 0 fill, each residue part of the k = 1 and
    k = 3 splits, and complements), with j = 0 .. reach + 3 of its constant tail entries
    written into its prefix by hand, where reach is how far past the prefix the fill reads."""
    calls = []
    fill = tetris_vectors

    def recording(s, m, emb):
        calls.append((s, m))
        return fill(s, m, emb)

    monkeypatch.setattr(tetris_module, "tetris_vectors", recording)
    rng = random.Random(35)
    labels = set()
    for den in (97, 2**20, 2**31 - 1):
        for k in (0, 1, 3):
            for complement in (False, True, False, True):
                r = route(_stream_shaped_spec(rng, den, k, complement))
                labels.add(r.label.path[-1] + ("/complement" if complement else ""))
                r.build(rng.randint(1, 24))
    monkeypatch.undo()
    want = {f"{leaf}{c}" for leaf in ("tetris", "residue-split(k=1)", "residue-split(k=3)")
            for c in ("", "/complement")}
    assert labels == want, labels
    deep = 0
    for g, m in calls:
        assert g.tail.flat and g.tail.c > 0, g
        out = _fill_record(fill(g, m))
        reach = max(out[1][m] - len(g.nums), 0)
        deep += reach > 8
        entries = [g.entry(i) for i in range(1, len(g.nums) + 1)]
        for j in range(reach + 4):
            moved = DiagonalSpec((*entries, *[g.tail.c] * j), g.tail)
            assert _fill_record(fill(moved, m)) == out, (g, m, j)
    assert len(calls) == 60 and deep > 20, (len(calls), deep)


def test_fill_errors_match_the_fraction_reference():
    # unsorted and sorted random blocks, every count up to 12: the same
    # vectors, or the same ConstructionError (ordering, norm, count, total)
    rng = random.Random(31)
    built = 0
    for _ in range(200):
        s = _random_block_sort_spec(rng)
        if rng.random() < 0.5:
            try:
                s, _ = block_sort(s)
            except ConstructionError:
                continue
        for m in range(0, 13, 3):
            built += assert_fill_matches_reference(s, m)
    assert 300 < built < 900, built


# ---------------------------------------------------------------------------
# blockwise sorting


def _random_block_sort_spec(rng):
    """A prefix of entries <= 1/2, perhaps after one large entry, and a zero,
    constant or geometric tail; every finite total is an integer."""
    dens = (5, 8, 12, 97, 2**31 - 1)
    pool = [F(rng.randint(0, d // 2), d) for d in rng.sample(dens, 2)]  # values that repeat
    pfx = [rng.choice((F(3, 5), F(4, 5), F(1)))] if rng.random() < 0.3 else []
    for _ in range(max(rng.randint(0, 40) - len(pfx), 0)):
        d = rng.choice(dens)
        pfx.append(rng.choice(pool) if rng.random() < 0.5 else F(rng.randint(0, d // 2), d))
    kind = rng.choice(("zero", "constant", "geometric"))
    if kind == "constant":
        c = rng.choice(("1/2", "2/5", "1/3", "3/97"))
        return DiagonalSpec(tuple(pfx), TailRule.constant(c))
    gap = math.ceil(sum(pfx)) - sum(pfx)  # the tail mass that makes the total an integer
    if kind == "geometric":
        mass = gap + rng.randint(0 if gap else 1, 1)
        r = rng.choice([r for r in (F(1, 8), F(3, 8), F(7, 8)) if mass * (1 - r) <= F(1, 2)])
        return DiagonalSpec(tuple(pfx), TailRule.geometric(mass * (1 - r), r))
    pfx += [gap / 2, gap / 2] if gap > F(1, 2) else [gap]
    return DiagonalSpec(tuple(pfx))


def test_block_sort_is_one_stable_sort_by_block_then_value():
    # block(i) = floor(S_{i-1}) + 1: block n runs from min_s(f, n-1) + 1 to min_s(f, n)
    rng = random.Random(2024)
    past_prefix = 0
    for _ in range(2000):
        f = _random_block_sort_spec(rng)
        g, pi = block_sort(f)
        total, p = f.total(), len(f.nums)
        n, w, s = 0, 0, F(0)  # blocks sorted so far, the window's end, S_w
        # blocks are sorted while they start inside the prefix, except the ultimate one
        while w < p and (total == math.inf or n + 1 < total):
            n += 1
            while s < n:
                w += 1
                s += f.entry(w)
        past_prefix += w > p
        block = lambda i: math.floor(f.partial_sum(i - 1)) + 1
        want = sorted(range(1, w + 1), key=lambda i: (block(i), -f.entry(i), i))
        assert pi.head == tuple(want), f
        for j in range(1, w + 6):
            assert g.entry(j) == f.entry(pi.map_index(j)), (f, j)
    assert past_prefix > 100


def test_sort_desc_window_orders_and_tracks():
    # one block, 1..4, sorted in decreasing order; pi records where each entry came from
    g, pi = block_sort(spec("1/5", "2/5", "3/10", "1/10", tail=TailRule.constant("2/5")))
    assert [g.entry(i) for i in range(1, 5)] == [F(2, 5), F(3, 10), F(1, 5), F(1, 10)]
    assert pi.head == (2, 3, 1, 4)
    # ties keep original order
    g2, pi2 = block_sort(spec("2/5", "2/5", "1/5", tail=TailRule.constant("2/5")))
    assert [g2.entry(i) for i in range(1, 4)] == [F(2, 5), F(2, 5), F(1, 5)]
    assert pi2.head == (1, 2, 3)


def test_sort_desc_window_ties_keep_the_smaller_index():
    # blocks 1..4 and 5..7, each with repeated values
    f = spec("1/5", "2/5", "1/5", "2/5", "2/5", "3/10", "1/5", tail=TailRule.constant("2/5"))
    g, pi = block_sort(f)
    assert pi.head == (2, 4, 1, 3, 5, 6, 7)
    assert [g.entry(i) for i in range(1, 8)] == [F(2, 5)] * 2 + [F(1, 5)] * 2 + [F(2, 5), F(3, 10), F(1, 5)]
    rng = random.Random(3)
    for _ in range(200):  # few distinct values, so most blocks hold repeats
        f = spec(*(F(rng.randint(0, 4), 8) for _ in range(rng.randint(0, 12))), tail=TailRule.constant("1/2"))
        g, pi = block_sort(f)
        block = lambda i: math.floor(f.partial_sum(i - 1)) + 1
        want = sorted(range(1, pi.size + 1), key=lambda i: (block(i), -f.entry(i), i))
        assert pi.head == tuple(want), f
        assert all(g.entry(j) == f.entry(i) for j, i in enumerate(want, 1)), f


def test_block_sort_sorted_input_is_fixed():
    s = spec(tail=TailRule.constant("2/5"))
    g, rho = block_sort(s)
    assert rho.head == tuple(range(1, rho.size + 1))
    for i in range(1, 8):
        assert g.entry(i) == s.entry(i)


def test_block_sort_window_ends_inside_the_prefix_or_reaches_into_the_tail():
    """The sorted spec is the window's sorted entries, the prefix it left, and the tail
    from the window's end on: one construction for a window ending inside the prefix (a
    finite total reached there) and for one reaching into the tail."""
    inside = spec("1/4", "1/2", "1/2", "1/4", "1/2", "1/2", "1/2")  # total 3
    into = spec("1/4", "1/3", tail=TailRule.constant("2/5"))  # S_3 < 1 <= S_4
    for f, w in ((inside, 5), (into, 4)):
        g, pi = block_sort(f)
        p = len(f.nums)
        assert pi.size == w and (w < p if f is inside else w > p), (f, pi)
        assert [g.entry(i) for i in range(w + 1, len(g.nums) + 1)] == [
            f.entry(i) for i in range(w + 1, p + 1)
        ] and len(g.nums) == max(w, p)
        assert g.tail == f.tail.reindexed(max(w - p, 0) + 1)
        for j in range(1, w + 12):
            assert g.entry(j) == f.entry(pi.map_index(j)), (f, j)
    g, _ = block_sort(inside)
    assert [g.entry(i) for i in range(1, 6)] == [F(1, 2), F(1, 2), F(1, 4), F(1, 2), F(1, 4)]


def test_block_sort_reorders_within_blocks():
    s = spec("1/5", "2/5", "2/5", tail=TailRule.constant("2/5"))
    g, rho = block_sort(s)
    # first block is indices 1..3, sorted to 2/5, 2/5, 1/5
    assert [g.entry(i) for i in (1, 2, 3)] == [F(2, 5), F(2, 5), F(1, 5)]
    for j in range(1, 12):
        assert g.entry(j) == s.entry(rho.map_index(j))
    # the sorted spec streams cleanly
    out = tetris_vectors(g, 3)
    assert np.allclose(gram_of(out.vectors, 10), np.eye(3), atol=1e-14)


def test_block_sort_first_entry_may_be_large():
    s = spec("9/10", "1/5", "2/5", tail=TailRule.constant("2/5"))
    g, rho = block_sort(s)
    assert g.entry(1) == F(9, 10)
    for j in range(1, 10):
        assert g.entry(j) == s.entry(rho.map_index(j))


def test_block_sort_rejects_large_interior_entries():
    with pytest.raises(ConstructionError):
        block_sort(spec("1/5", "3/5", tail=TailRule.constant("2/5")))


def test_block_sort_rejects_fractional_total():
    with pytest.raises(ConstructionError):
        block_sort(spec("1/5", "1/5"))


# ---------------------------------------------------------------------------
# interleaved subsequence splits


def test_interleave_split_front_larges():
    s = spec("4/5", "9/10", "1/10", "1/10", tail=TailRule.constant("1/10"))
    parts, beta = interleave_split_fin(s, 2)
    assert len(parts) == 2
    assert [parts[0].entry(i) for i in (1, 2, 3)] == [F(4, 5), F(1, 10), F(1, 10)]
    assert [parts[1].entry(i) for i in (1, 2, 3)] == [F(9, 10), F(1, 10), F(1, 10)]
    # larges already occupy the first two slots, so the relabelling is trivial
    assert beta.head == tuple(range(1, beta.size + 1))


def test_interleave_split_scattered_larges():
    s = spec("1/10", "4/5", "1/10", "9/10", tail=TailRule.constant("1/10"))
    parts, beta = interleave_split_fin(s, 2)
    assert [parts[0].entry(i) for i in (1, 2)] == [F(4, 5), F(1, 10)]
    assert [parts[1].entry(i) for i in (1, 2)] == [F(9, 10), F(1, 10)]
    # original -> slot: f2 leads part 1, f4 leads part 2, smalls interleave
    assert [beta.map_index(i) for i in (1, 2, 3, 4, 5, 6)] == [3, 1, 4, 2, 5, 6]


def test_interleave_split_covers_value_multiset():
    s = spec("1/10", "4/5", "1/10", "9/10", tail=TailRule.constant("1/10"))
    parts, beta = interleave_split_fin(s, 2)
    k = len(parts)
    for orig in range(1, 30):
        slot = beta.map_index(orig)
        m = (slot - 1) % k + 1
        i = (slot - 1) // k + 1
        assert parts[m - 1].entry(i) == s.entry(orig)


# ---------------------------------------------------------------------------
# end-to-end assembly for non-summable diagonals


def verify_diag(rep, s, upto, atol):
    d = np.array(rep.diag(upto))
    want = np.array([float(s.entry(i)) for i in range(1, upto + 1)])
    assert np.allclose(d, want, atol=atol)


def test_nonsummable_direct_path():
    s = spec(tail=TailRule.constant("2/5"))
    trace = {}
    rep = nonsummable_construct(s, 4, trace=trace)
    assert trace["settled_prefix"] == 8
    verify_diag(rep, s, 8, 1e-12)
    g = gram_of(rep.vectors, 16)
    assert np.allclose(g, np.eye(len(rep.vectors)), atol=1e-12)


def test_nonsummable_residue_split_path():
    s = spec("3/4", "2/3", tail=TailRule.constant("2/5"))
    trace = {}
    rep = nonsummable_construct(s, 3, trace=trace)
    assert trace["branch"][-1] == "residue-split(k=2)"
    assert len(trace["parts"]) == 2
    settled = trace["settled_prefix"]
    assert settled is not None and settled >= 4
    verify_diag(rep, s, settled, 1e-12)
    g = gram_of(rep.vectors, 80)
    assert np.allclose(g, np.eye(len(rep.vectors)), atol=1e-12)


def test_nonsummable_complement_path():
    s = spec(tail=TailRule.constant("3/5"))
    trace = {}
    rep = nonsummable_construct(s, 4, trace=trace)
    assert trace["branch"][:3] == ["NonsummableB", "S_finite", "complement"]
    assert rep.form == "coframe"
    settled = trace["settled_prefix"]
    verify_diag(rep, s, settled, 1e-12)


def test_nonsummable_rejects_summable_input():
    with pytest.raises(ConstructionError):
        nonsummable_construct(spec(*["2/5"] * 5), 2)


@pytest.mark.parametrize(
    "s, leaf",
    [
        (spec("1/8", "1/3", "1/5", "2/5", tail=TailRule.constant("2/5")), "S_infty/X_k(k=0)"),
        (
            spec("1/5", "3/4", "1/3", "5/6", "1/8", "7/8", "2/5", tail=TailRule.constant("1/3")),
            "residue-split(k=3)",
        ),
        (spec("7/8", "2/3", "4/5", tail=TailRule.constant("3/5")), "NonsummableB/S_finite"),
        (spec("1", "3/4", "0", tail=TailRule.geometric("1/8", "1/2")), "X\\X'/X_N(N=1)/tetris"),
    ],
)
def test_every_tetris_leaf_relabels_each_vector_once(monkeypatch, s, leaf):
    # the block unsort, the residue slot, beta and the proper-entry embedding
    # compose into one index map, so placement builds at most one new vector
    # per emitted vector
    built = []
    placed = SparseVector.placed

    def counting(*args):
        built.append(placed(*args))
        return built[-1]

    monkeypatch.setattr(SparseVector, "placed", counting)
    r = route(s)
    assert leaf in str(r.label)
    n = len(r.build(6).vectors)
    assert 0 < len(built) <= n, (len(built), n)
