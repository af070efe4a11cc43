"""Each fill vector is built once, at its final index.

``tetris_vectors(spec, m, emb)`` places every vector through ``emb`` as it
builds it (``SparseVector.placed``) and keeps each step's sigma and a as the
integers the step ran on; the trace formats them from those.  These tests pin
the trace bytes, check the placed vectors against the local fill relabelled,
count constructions, and check the index-map composition, the settled-prefix
lookup and the tail-tail Gram term against reference versions.
"""

import hashlib
import math
import random
from fractions import Fraction as F

import pytest

from carpenter import tetris as tetris_module
from carpenter.errors import InfeasibleDiagonalError, OutOfRangeError, UnsupportedStructureError
from carpenter.feasibility import route
from carpenter.seqcore import (
    DiagonalSpec,
    IndexMap,
    PermutationWindow,
    SparseVector,
    SqrtTail,
    TailRule,
    dumps_canonical,
)
from carpenter.tetris import _settled_through, tetris_vectors
from test_route_corpus import _corpus, _is_tetris_leaf
from test_tetris import _one_large_geometric_spec, _stream_shaped_spec

# sha256 of canonical {parts, beta when present} over the tetris leaves of the
# route corpus, then over the specs of test_fill_matches_the_fraction_reference,
# recorded while sigma and a were still Fractions formatted by fmt_rat.
TRACE_DIGEST = "e631b6f47019192e3f967d986c3740c41657d02c7ac1c32c2f55c7c94cc6cff2"


def _stream_specs():
    """The stream-shaped and finite one-large specs of the fill reference test, with
    its vector counts, drawn in its order."""
    rng = random.Random(1729)
    specs = [
        _stream_shaped_spec(rng, den, k, complement)
        for den in (97, 2**20, 2**31 - 1)
        for k in (0, 1, 3)
        for complement in (False, True)
        for _ in range(3)
    ]
    specs += [_one_large_geometric_spec(rng) for _ in range(30)]
    return [(s, rng.randint(1, 24)) for s in specs]


def _tetris_specs():
    for s, m in _corpus():
        try:
            r = route(s)
        except InfeasibleDiagonalError:
            continue
        if _is_tetris_leaf(r.label.path):
            yield s, m
    yield from _stream_specs()


def test_tetris_trace_bytes_are_pinned():
    digest = hashlib.sha256()
    leaves = 0
    for s, m in _tetris_specs():
        trace = {}
        route(s).build(m, trace)
        doc = {"parts": trace["parts"]}
        if "beta" in trace:
            doc["beta"] = trace["beta"]
        digest.update(dumps_canonical(doc).encode())
        leaves += 1
    assert leaves > 250, leaves
    assert digest.hexdigest() == TRACE_DIGEST


def _bits(v):
    return [(i, x.hex()) for i, x in v.support], v.exact, v.sqrt_tail


def test_placed_fill_equals_the_local_fill_relabelled(monkeypatch):
    calls = []
    fill = tetris_vectors

    def recording(s, m, emb):
        out = fill(s, m, emb)
        calls.append((s, m, emb, out))
        return out

    monkeypatch.setattr(tetris_module, "tetris_vectors", recording)
    labels, tails = set(), 0
    for s, m in _stream_specs():
        r = route(s)
        labels.add(r.label.path[-1] + ("/complement" if "complement" in r.label.path else ""))
        r.build(m)
    for s, m, emb, out in calls:
        local = fill(s, m)
        assert [_bits(v) for v in out.vectors] == [_bits(v.remap(emb)) for v in local.vectors], s
        assert (out.settled_prefix, out.min_s) == (local.settled_prefix, local.min_s), s
        assert (out.sigma_ratios, out.a_ratios) == (local.sigma_ratios, local.a_ratios), s
        tails += any(v.sqrt_tail is not None for v in out.vectors)
    want = {"tetris", "residue-split(k=1)", "residue-split(k=3)", "tetris/complement"}
    assert want <= labels, labels
    assert len(calls) >= 120 and tails > 20, (len(calls), tails)
    assert not all(emb.fixes_all for _, _, emb, _ in calls)


@pytest.mark.parametrize(
    "s",
    [
        DiagonalSpec.of("1/8", "1/3", "1/5", "2/5", tail=TailRule.constant("2/5")),
        DiagonalSpec.of(
            "1/5", "3/4", "1/3", "5/6", "1/8", "7/8", "2/5", tail=TailRule.constant("1/3")
        ),
        DiagonalSpec.of("7/8", "2/3", "4/5", tail=TailRule.constant("3/5")),
        DiagonalSpec.of("1", "3/4", "0", tail=TailRule.geometric("1/8", "1/2")),
    ],
)
def test_one_construction_per_emitted_vector(monkeypatch, s):
    # the leaves of test_every_tetris_leaf_relabels_each_vector_once: a fill
    # vector is constructed once, where it was built locally and then remapped
    r = route(s)
    built = []
    init = SparseVector.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SparseVector, "__init__", counting)
    rep = r.build(6)
    monkeypatch.undo()
    tailed = sum(v.sqrt_tail is not None for v in rep.vectors)  # a finite fill's ultimate vector
    assert 0 < len(built) <= len(rep.vectors) + tailed, (len(built), len(rep.vectors), tailed)


# ---------------------------------------------------------------------------
# index maps and the settled prefix


def _random_index_map(rng):
    if rng.random() < 0.3:
        window = list(range(1, rng.randint(0, 8) + 1))
        rng.shuffle(window)
        return PermutationWindow(tuple(window))
    stride, offset, n = rng.randint(1, 3), rng.randint(1, 12), rng.randint(0, 6)
    return IndexMap(tuple(rng.sample(range(1, n * stride + offset), n)), stride, offset)


def test_after_composes_the_two_maps():
    rng = random.Random(29)
    for _ in range(2000):
        outer, inner = _random_index_map(rng), _random_index_map(rng)
        both = outer.after(inner)
        for i in range(1, 40):
            assert both.map_index(i) == outer.map_index(inner.map_index(i)), (outer, inner, i)
        for i in (0, -1, -7):
            with pytest.raises(OutOfRangeError):
                both.map_index(i)
            with pytest.raises(OutOfRangeError):
                outer.map_index(inner.map_index(i))


def _settled_walk(settled, perm):
    """The settled prefix walked one index at a time."""
    if settled is None:
        return None
    j = 0
    while perm.map_index(j + 1) <= settled:
        j += 1
    return j


def test_settled_through_equals_the_walk():
    rng = random.Random(31)
    for _ in range(500):
        window = list(range(1, rng.randint(0, 12) + 1))
        rng.shuffle(window)
        perm = PermutationWindow(tuple(window))
        n = len(window)
        for settled in (None, -3, -1, 0, rng.randint(1, n + 1), n, n + rng.randint(1, 5)):
            assert _settled_through(settled, perm) == _settled_walk(settled, perm), (perm, settled)


# ---------------------------------------------------------------------------
# the tail-tail Gram term


def _tail_tail_reference(t1, t2):
    """The closed-form tail-tail sum with its ratio read as float(r1 * r2), a Fraction."""
    if (t1.start - t2.start) % t1.stride:
        return 0.0
    k0 = max(t1.start, t2.start)
    head = math.sqrt(t1.rule._float_value(t1.offset_of(k0)) * t2.rule._float_value(t2.offset_of(k0)))
    return head / (1.0 - math.sqrt(float(t1.rule.r * t2.rule.r)))


def _random_sqrt_tail(rng, stride):
    d = rng.choice((2, 3, 8, 97, 1000, 2**31 - 1))
    r = F(rng.randint(1, d - 1), d)
    c = F(rng.randint(1, 16), 16)
    rule = TailRule("geometric", c, r, rng.randint(0, 5))
    return SqrtTail(rng.randint(1, 20), rule, stride)


def test_tail_tail_term_equals_the_fraction_formula():
    rng = random.Random(37)
    for _ in range(3000):
        stride = rng.randint(1, 3)
        t1, t2 = _random_sqrt_tail(rng, stride), _random_sqrt_tail(rng, stride)
        got = SparseVector((), t1)._tail_tail_inner(SparseVector((), t2))
        assert got.hex() == _tail_tail_reference(t1, t2).hex(), (t1, t2)
    v = SparseVector((), _random_sqrt_tail(rng, 1))
    with pytest.raises(UnsupportedStructureError):
        v._tail_tail_inner(SparseVector((), _random_sqrt_tail(rng, 2)))
