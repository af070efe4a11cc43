"""Same-output guard: a seeded corpus of specs that reaches every route leaf.

The generator draws prefixes of small and large entries (and a few 0/1
entries) in front of each tail kind, then appends the entry that makes
a - b an integer, so most specs are feasible.  Every spec must build and
verify at its reported settled prefix, and the label histogram is pinned.
The tetris leaves (residue splits and streamed or finite-mass fills) emit
pure-Python floats, so their canonical outputs are pinned bit for bit by a
sha256 digest.  The numpy-based leaves (Schur-Horn, decouple) are checked by
verification, and the decouple leaves' exact plans and slot layouts are pinned
by a second digest; each decouple leaf is also verified through one past the
last index it touches.
"""

import hashlib
import random
from collections import Counter
from fractions import Fraction as F

from carpenter.errors import InfeasibleDiagonalError
from carpenter.feasibility import kadison_ab, route
from carpenter.selector import verify_projection
from carpenter.seqcore import INF, DiagonalSpec, PermutationWindow, TailRule, dumps_canonical

SEED = 20261018
COUNT = 400


def _small(rng):
    d = rng.choice((8, 9, 16, 97))
    return F(rng.randint(1, d // 2), d)


def _large(rng):
    d = rng.choice((8, 9, 16, 97))
    return F(rng.randint(d // 2 + 1, d - 1), d)


def _random_spec(rng):
    style = rng.randrange(6)
    vals = [_small(rng) for _ in range(rng.randint(0, 4))]
    vals += [_large(rng) for _ in range(rng.randint(0, 3))]
    rng.shuffle(vals)
    if style == 0:  # divergent small mass
        tail = TailRule.constant(_small(rng))
    elif style == 1:  # divergent large co-mass
        tail = TailRule.constant(_large(rng))
    elif style == 2:  # finitely many proper entries
        vals += [F(rng.randint(0, 1)) for _ in range(rng.randint(0, 2))]
        rng.shuffle(vals)
        vals = vals or [F(1, 2), F(1, 2)]
        tail = TailRule.zero() if rng.random() < 0.8 else TailRule.constant(1)
    else:  # geometric kinds: finitely many large (or small) entries
        kind = TailRule.geometric if style < 5 else TailRule.one_minus_geometric
        c = rng.choice((F(1), F(3, 4), F(1, 2), F(1, 4), F(1, 8)))
        tail = kind(c, rng.choice((F(1, 2), F(1, 3), F(3, 4))))
        if rng.random() < 0.3:
            vals.insert(rng.randrange(len(vals) + 1), F(rng.randint(0, 1)))
    if rng.random() < 0.9:
        a, b = kadison_ab(DiagonalSpec(tuple(vals), tail))
        if INF not in (a, b) and (a - b).denominator != 1:
            vals.append(1 - ((a - b) - (a - b).__floor__()))
    return DiagonalSpec(tuple(vals), tail)


def _is_tetris_leaf(path):
    return path[-1] in ("tetris", "complement-tetris") or path[-1].startswith("residue-split")


# Recorded before the fills and slot layouts were merged into one path each;
# a change to these values is a change of behaviour.
HISTOGRAM = {
    "NonsummableA/S_infty/X_k(k=0)/tetris": 24,
    "NonsummableA/S_infty/X_k(k=1)/residue-split(k=1)": 13,
    "NonsummableA/S_infty/X_k(k=2)/residue-split(k=2)": 10,
    "NonsummableA/S_infty/X_k(k=3)/residue-split(k=3)": 16,
    "NonsummableB/S_finite/complement/X_k(k=0)/tetris": 19,
    "NonsummableB/S_finite/complement/X_k(k=1)/residue-split(k=1)": 14,
    "NonsummableB/S_finite/complement/X_k(k=2)/residue-split(k=2)": 12,
    "NonsummableB/S_finite/complement/X_k(k=3)/residue-split(k=3)": 10,
    "NonsummableB/S_finite/complement/X_k(k=4)/residue-split(k=4)": 13,
    "Summable/X_{k1..kn}(n=0)/finite-schur-horn": 3,
    "Summable/X_{k1..kn}(n=2)/finite-schur-horn": 3,
    "Summable/X_{k1..kn}(n=3)/finite-schur-horn": 7,
    "Summable/X_{k1..kn}(n=4)/finite-schur-horn": 9,
    "Summable/X_{k1..kn}(n=5)/finite-schur-horn": 13,
    "Summable/X_{k1..kn}(n=6)/finite-schur-horn": 10,
    "Summable/X_{k1..kn}(n=7)/finite-schur-horn": 9,
    "Summable/X_{k1..kn}(n=8)/finite-schur-horn": 3,
    "Summable/proper-infinite/X'/X_N(N=0)/complement-tetris": 1,
    "Summable/proper-infinite/X'/X_N(N=1)/complement-tetris": 7,
    "Summable/proper-infinite/X'/X_N(N=2)/decouple": 11,
    "Summable/proper-infinite/X'/X_N(N=3)/decouple": 10,
    "Summable/proper-infinite/X'/X_N(N=4)/decouple": 12,
    "Summable/proper-infinite/X'/X_N(N=5)/decouple": 6,
    "Summable/proper-infinite/X'/X_N(N=6)/decouple": 2,
    "Summable/proper-infinite/X'/X_N(N=7)/decouple": 1,
    "Summable/proper-infinite/X\\X'/X_N(N=0)/tetris": 12,
    "Summable/proper-infinite/X\\X'/X_N(N=1)/tetris": 31,
    "Summable/proper-infinite/X\\X'/complement/X_N(N=2)/decouple": 20,
    "Summable/proper-infinite/X\\X'/complement/X_N(N=3)/decouple": 35,
    "Summable/proper-infinite/X\\X'/complement/X_N(N=4)/decouple": 26,
    "Summable/proper-infinite/X\\X'/complement/X_N(N=5)/decouple": 5,
    "Summable/proper-infinite/X\\X'/complement/X_N(N=6)/decouple": 1,
    "infeasible": 32,
}
# Re-recorded when reindexed tails began carrying their exponent: 9 of the
# 182 tetris documents hold a sqrt-tail rule that writes c and "k" in place of
# c * r**k, and each is the earlier document byte for byte with k folded back.
TETRIS_DIGEST = "94466ba8880d48cf987421551b1ac3bcbdfac3301f2a8b68b046b79d2eaa4c05"
# sha256 of canonical {plan, beta} over the 129 decouple leaves: exact
# Fractions and ints only, so the value does not depend on the platform.
# Re-recorded with the tail exponent: 121 plans hold a reindexed tail, each the
# earlier plan byte for byte once c * r**k is folded back into c.
PLAN_DIGEST = "60da6b1ccf28e3599f0a4e12ecbc9625ac93a26b1332d4daa3b1d7e7c64b4b91"


def _corpus():
    """The corpus: (spec, m) pairs, in order."""
    rng = random.Random(SEED)
    for _ in range(COUNT):
        s = _random_spec(rng)
        yield s, rng.randint(1, 9)


def test_route_corpus_labels_verification_and_tetris_outputs():
    hist = Counter()
    digest = hashlib.sha256()
    for s, m in _corpus():
        try:
            r = route(s)
        except InfeasibleDiagonalError:
            hist["infeasible"] += 1
            continue
        hist["/".join(r.label.path)] += 1
        trace = {}
        rep = r.build(m, trace)
        settled = trace["settled_prefix"]
        report = verify_projection(rep, s, max(m, settled or 0, 6), settled=settled)
        assert report.passed, (s.to_json_dict(), report.to_json_dict())
        if _is_tetris_leaf(r.label.path):
            doc = {
                "branch": trace["branch"],
                "settled_prefix": settled,
                "beta": trace.get("beta"),
                "projection": rep.to_json_dict(),
            }
            digest.update(dumps_canonical(doc).encode())
    assert dict(sorted(hist.items())) == HISTOGRAM
    assert digest.hexdigest() == TETRIS_DIGEST


def _touched_dim(rep):
    """One past the last index any vector of ``rep`` touches."""
    last = 1
    for v in rep.vectors:
        if v.support:
            last = max(last, v.support[-1][0])
        if v.sqrt_tail is not None:
            last = max(last, v.sqrt_tail.start)
    return last + 1


def test_route_corpus_decouple_plans():
    digest = hashlib.sha256()
    leaves = 0
    for s, m in _corpus():
        try:
            r = route(s)
        except InfeasibleDiagonalError:
            continue
        if r.label.path[-1] != "decouple":
            continue
        trace = {}
        rep = r.build(m, trace)
        digest.update(dumps_canonical({"plan": trace["plan"], "beta": trace["beta"]}).encode())
        # the labels test stops at max(m, 6), short of group 2's slots on most leaves
        report = verify_projection(rep, s, _touched_dim(rep))
        assert report.passed, (s.to_json_dict(), report.to_json_dict())
        leaves += 1
    assert leaves == 129
    assert digest.hexdigest() == PLAN_DIGEST


# ---------------------------------------------------------------------------
# finite-mass tetris leaves: one complete fill, the large entry moved to slot 1

FINITE_SEED = 1729
PLACES = (None, 1, 2, 3, 4, 5, 6, "tail")  # where the one entry > 1/2 sits
# sha256 of canonical {branch, projection} over the 18 specs with no large
# entry or one at position 1 or 2, recorded while the large entry was still
# swapped to the front: the head-first layout gives these the same bytes
FINITE_DIGEST = "8a550dee26ca764ea50e7b5053ad36ab630db1d2212e550e4c209f669d8d19d7"


def _finite_mass_spec(rng, where):
    """Proper entries over a small geometric tail with a natural total.

    The one entry > 1/2 sits at position ``where``, or starts the tail
    (``"tail"``), or is absent (None).  Returns the spec and its index.
    """

    def small():
        d = rng.choice((8, 9, 16, 97))
        return F(rng.randint(1, (d - 1) // 2), d)

    c = F(3, 4) if where == "tail" else rng.choice((F(1, 8), F(1, 4), F(3, 8)))
    tail = TailRule.geometric(c, rng.choice((F(1, 2), F(1, 3))))
    at = where if isinstance(where, int) else 0
    vals = [small() for _ in range(max(at, rng.randint(0, 4)))]
    if at:
        d = rng.choice((8, 9, 16, 97))
        vals[at - 1] = F(rng.randint(d // 2 + 1, d - 1), d)
    gap = -(sum(vals) + tail.sum_from(1)) % 1  # small entries after it make the total whole
    vals += [gap] if 0 < gap < F(1, 2) else [gap / 2] * 2 if gap else []
    large = at or (len(vals) + 1 if where else None)
    return DiagonalSpec(tuple(vals), tail), large


def test_finite_mass_leaves_fill_completely_with_the_large_entry_first():
    rng = random.Random(FINITE_SEED)
    digest = hashlib.sha256()
    for where in PLACES:
        for flip in (False, True):  # flip: the complement, a complement-tetris leaf
            for _ in range(3):
                s, large = _finite_mass_spec(rng, where)
                s = s.complement() if flip else s
                r = route(s)
                assert r.label.path[-1] == ("complement-tetris" if flip else "tetris")
                trace = {}
                rep = r.build(1, trace)
                assert trace["settled_prefix"] is None
                report = verify_projection(rep, s, _touched_dim(rep))
                assert report.passed, (s.to_json_dict(), report.to_json_dict())
                if large is None:
                    assert "beta" not in trace and trace["parts"][0]["part"] is None
                else:
                    assert PermutationWindow(tuple(trace["beta"])).map_index(large) == 1
                    assert trace["parts"][0]["part"] == 1
                if where in (None, 1, 2):
                    doc = {"branch": trace["branch"], "projection": rep.to_json_dict()}
                    digest.update(dumps_canonical(doc).encode())
    assert digest.hexdigest() == FINITE_DIGEST
