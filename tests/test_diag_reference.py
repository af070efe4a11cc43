"""The one-pass diagonal against a per-index reference.

``ProjectionRep.diag(n)`` and ``exact_diag(n)`` read every vector's rows once.
The reference below looks each entry up index by index and sums the squares
over the vectors in their stored order, the exact square where one is known;
the one pass must give the same floats bit for bit, and the same Fractions
with None exactly where some vector touching the index has only a float.
"""

import math
import random
from fractions import Fraction as F

from test_route_corpus import COUNT, SEED, _random_spec

from carpenter.errors import InfeasibleDiagonalError
from carpenter.feasibility import route
from carpenter.seqcore import ProjectionRep, SparseVector, SqrtTail, TailRule


def entry_at(v, k):
    """(value, exact square or None) of v at index k, by a direct scan."""
    for pos, (i, x) in enumerate(v.support):
        if i == k:
            return x, None if v.squares is None else v.squares[pos]
    t = v.sqrt_tail
    if t is not None and k >= t.start and (k - t.start) % t.stride == 0:
        q = t.rule.value((k - t.start) // t.stride + 1)
        return math.sqrt(q), q
    return 0.0, F(0)


def reference_diag(rep, n):
    out = []
    for k in range(1, n + 1):
        s = sum(x * x if q is None else float(q) for x, q in (entry_at(v, k) for v in rep.vectors))
        out.append(s if rep.form == "frame" else 1.0 - s)
    return out


def reference_exact_diag(rep, n):
    out = []
    for k in range(1, n + 1):
        qs = [entry_at(v, k)[1] for v in rep.vectors]
        if any(q is None for q in qs):
            out.append(None)
        else:
            s = sum(qs, F(0))
            out.append(s if rep.form == "frame" else 1 - s)
    return out


def assert_matches_reference(rep, n):
    assert [float(x).hex() for x in rep.diag(n)] == [
        float(x).hex() for x in reference_diag(rep, n)
    ], rep
    assert rep.exact_diag(n) == reference_exact_diag(rep, n), rep


def _random_vector(rng, lo, stride=None):
    """An exact, float-only or sqrt-tailed vector with support starting at ``lo``.

    A tail gets ``stride``, or a random one when it is None.
    """
    idx = sorted(rng.sample(range(lo, lo + 8), rng.randint(0, 4)))
    kind = rng.randrange(3)
    if kind == 1:  # float-only support
        return SparseVector(tuple((i, rng.uniform(-1, 1)) for i in idx))
    entries = [(i, F(rng.randint(1, 9), rng.choice((16, 97))), rng.choice((-1, 1))) for i in idx]
    tail = None
    if kind == 2:
        rule = TailRule.geometric(F(1, rng.randint(2, 8)), rng.choice((F(1, 2), F(1, 3), F(3, 4))))
        tail = SqrtTail(lo + 8 + rng.randint(0, 3), rule, stride or rng.randint(1, 3))
    return SparseVector.from_exact(entries, sqrt_tail=tail)


def test_hand_built_frames_and_coframes_match_reference():
    rng = random.Random(606)
    for _ in range(300):
        vectors = [_random_vector(rng, rng.randint(1, 6)) for _ in range(rng.randint(0, 5))]
        form = rng.choice((ProjectionRep.frame, ProjectionRep.coframe))
        assert_matches_reference(form(vectors), rng.randint(0, 30))
    # float-only rows make None exactly where they sit, and nowhere else
    mixed = ProjectionRep.coframe(
        (
            SparseVector.from_exact([(1, F(1, 2), 1), (3, F(1, 4), -1)]),
            SparseVector(((2, 0.6), (3, 0.8))),
            SparseVector.from_exact([], sqrt_tail=SqrtTail(4, TailRule.geometric("1/2", "1/2"), 2)),
        )
    )
    assert mixed.exact_diag(7) == [F(1, 2), None, None, F(1, 2), F(1), F(3, 4), F(1)]
    assert_matches_reference(mixed, 7)


def test_route_corpus_diagonals_match_reference():
    rng = random.Random(SEED)
    for _ in range(COUNT):
        s = _random_spec(rng)
        m = rng.randint(1, 9)
        try:
            r = route(s)
        except InfeasibleDiagonalError:
            continue
        trace = {}
        rep = r.build(m, trace)
        n = max(m, trace["settled_prefix"] or 0, 6) + 4
        assert_matches_reference(rep, n)
        assert_matches_reference(rep.complementary(), n)
