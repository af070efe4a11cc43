"""Seeded input generators for the benchmark workloads.

Every input is a plain JSON document in the formats the library reads
(diagonal specs, cell fields, spectral samples); the program under test sees
only these documents.  The generator never imports the library: feasibility
and the integrality fix-ups are computed here with exact fractions.

Each workload walks a fixed schedule of slots.  A slot fixes everything that
decides cost and route (sizes, tail kind, number of large entries, document
shape), and the seed only draws the rational values inside it.  So two seeds
give different numbers but the same mix of routes and sizes, which keeps the
branch-label histogram of the first ops the same for every seed and the run
medians comparable across seeds.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

DEFAULT_SEED = 1729
WORKLOADS = ("stream", "pinning", "field")
HALF = Fraction(1, 2)

# inputs generated per second of run time; about twice the rate the seed code
# reaches on one core, so a run only exhausts its inputs once the program got
# much faster (the run then ends early and reports the ops it made)
RATE_CAP = {"stream": 6, "pinning": 10, "field": 30}

BIG_PRIME = 2**31 - 1

# stream slots: (prefix length p, stream depth m, leading entries > 1/2 k,
# complement).  Cheap p = 250 slots are 60% of the period, so p50 sits inside
# them; three p = 1000 slots (15%) under the one p = 2000 slot hold the
# construct p90, and the two k = 3 slots under the one m = 256 slot hold the
# verify p90, so each quantile lands inside one band of similar slots.
STREAM_SLOTS = (
    (250, 64, 0, False),
    (500, 64, 1, True),
    (250, 64, 3, False),
    (250, 64, 0, True),
    (1000, 64, 0, True),
    (250, 64, 1, False),
    (500, 128, 0, False),
    (250, 64, 0, False),
    (1000, 64, 0, True),
    (2000, 64, 0, False),
    (250, 64, 1, True),
    (250, 64, 0, False),
    (500, 64, 3, False),
    (250, 64, 0, True),
    (1000, 64, 1, False),
    (250, 64, 0, False),
    (250, 64, 1, False),
    (250, 64, 1, True),
    (500, 256, 0, True),
    (250, 64, 0, False),
)
STREAM_TAILS = (Fraction(1, 3), Fraction(2, 5))
STREAM_DENOMINATORS = (97, 2**20, BIG_PRIME)

# pinning slots: (route, size).  The four r = 39/40 slots (20%, spread out)
# hold the construct p90 in their middle, the two n = 64 slots the construct
# p50; the one n = 256 slot sits above the verify p90, which the r = 39/40
# slots hold.
PINNING_SLOTS = (
    ("finite", 32),
    ("geometric", Fraction(3, 4)),
    ("one_minus_geometric", Fraction(39, 40)),
    ("tetris", None),
    ("finite", 64),
    ("geometric", Fraction(19, 20)),
    ("one_minus_geometric", Fraction(9, 10)),
    ("geometric", Fraction(39, 40)),
    ("tetris", None),
    ("finite", 256),
    ("one_minus_geometric", Fraction(3, 4)),
    ("finite", 128),
    ("one_minus_geometric", Fraction(39, 40)),
    ("geometric", Fraction(9, 10)),
    ("finite", 32),
    ("tetris", None),
    ("one_minus_geometric", Fraction(19, 20)),
    ("geometric", Fraction(39, 40)),
    ("finite", 64),
    ("finite", 128),
)
PINNING_M = 16

# field slots: seven cell fields, two spectral documents, one infeasible
# document (a bad cell on even periods, a bad fiber on odd ones).  The cheaper
# spectral and infeasible documents are the bottom 30% of construct times, so
# p50 sits well inside the cell fields.
FIELD_SLOTS = ("field", "spectral", "field", "field", "field", "bad", "field", "field",
               "spectral", "field")
FIELD_CELLS = 50
FIELD_M = 5
SPECTRAL_M = 8
SPECTRAL_WINDOW = 6

# sweep buckets, run in every traced run whatever the workload
SWEEP_P = (250, 500, 1000, 2000)
SWEEP_M = (64, 128, 256)
SWEEP_N = (32, 64, 128, 256)
SWEEP_R = (Fraction(3, 4), Fraction(9, 10), Fraction(19, 20), Fraction(39, 40))


def fmt(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _spec(prefix, kind="zero", c=None, r=None) -> dict:
    tail = {"kind": kind}
    if c is not None:
        tail["c"] = fmt(c)
    if r is not None:
        tail["r"] = fmt(r)
    return {"prefix": [fmt(x) for x in prefix], "tail": tail}


def _floor(q: Fraction) -> int:
    return q.numerator // q.denominator


def _tail_ab(kind: str, c: Fraction, r: Fraction) -> tuple[Fraction, Fraction]:
    """Defect sums (a, b) of a summable closed tail, exactly."""
    if kind == "zero":
        return Fraction(0), Fraction(0)
    j, g = 0, c
    if kind == "geometric":  # decreasing: the first j entries exceed 1/2
        while g > HALF:
            j, g = j + 1, g * r
        head = j - c * (1 - r**j) / (1 - r)
        return c * r**j / (1 - r), head
    while g >= HALF:  # one_minus_geometric: the first j entries are <= 1/2
        j, g = j + 1, g * r
    head = j - c * (1 - r**j) / (1 - r)
    return head, c * r**j / (1 - r)


def _small(rng: random.Random, den: int = 97) -> Fraction:
    """A random rational in (0, 1/2]."""
    return Fraction(rng.randint(1, den // 2), den)


def _large(rng: random.Random, den: int = 97) -> Fraction:
    """A random rational in (1/2, 1)."""
    return Fraction(rng.randint(den // 2 + 1, den - 1), den)


def _proper(rng: random.Random, den: int = 97) -> Fraction:
    return Fraction(rng.randint(1, den - 1), den)


def _tail_constant(rng: random.Random, large: bool) -> Fraction:
    """A constant tail c with c or 1 - c in [20/97, 1/2).

    Keeping the small side away from 0 keeps a short stream short: m vectors
    settle about m / min(c, 1 - c) entries, and a document's verify time
    would otherwise hinge on how close one draw came to 0.
    """
    k = rng.randint(20, 48)
    return Fraction(97 - k if large else k, 97)


def _integral_pair(rng: random.Random, a_minus_b: Fraction) -> tuple[Fraction, Fraction]:
    """Two entries, the first <= 1/2, that make the defect difference integral.

    The second entry is 1 - x1 (> 1/2) when ``a_minus_b`` is already an
    integer, and is drawn <= 1/2 otherwise.  Either way its class, and with it
    the branch label, depends only on ``a_minus_b``, not on the draw.
    """
    whole = a_minus_b.denominator == 1
    while True:
        x1 = _small(rng)
        d = a_minus_b + x1
        x2 = 1 - (d - _floor(d))
        if whole or x2 <= HALF:
            return x1, x2


# ---------------------------------------------------------------------------
# stream


def stream_spec(rng: random.Random, p: int, k: int, complement: bool,
                c: Fraction, den: int) -> dict:
    prefix = [_large(rng, den) for _ in range(k)] + [_small(rng, den) for _ in range(p)]
    if complement:
        return _spec([1 - x for x in prefix], "constant", 1 - c)
    return _spec(prefix, "constant", c)


def _stream_input(rng, i: int) -> dict:
    slot = i % len(STREAM_SLOTS)
    p, m, k, comp = STREAM_SLOTS[slot]
    c = STREAM_TAILS[slot % 2]
    den = STREAM_DENOMINATORS[slot % 3]
    doc = stream_spec(rng, p, k, comp, c, den)
    return {"kind": "spec", "verify": "settled", "m": m, "doc": doc,
            "size": {"p": p + k, "m": m, "k": k, "complement": comp, "den": den}}


# ---------------------------------------------------------------------------
# pinning


def finite_spec(rng: random.Random, n: int) -> dict:
    """n (even) proper entries summing to n/2 (the finite Schur-Horn route).

    The entries come in pairs x, 1 - x, shuffled, so the rank, and with it
    the number of vectors to build and verify, is n/2 for every seed.
    """
    half = [_proper(rng) for _ in range(n // 2)]
    vals = half + [1 - x for x in half]
    rng.shuffle(vals)
    return _spec(vals)


def geometric_spec(rng: random.Random, kind: str, r: Fraction) -> dict:
    """A two-entry prefix made integral, then a c = 1 geometric-kind tail."""
    a, b = _tail_ab(kind, Fraction(1), r)
    x1, x2 = _integral_pair(rng, a - b)
    return _spec([x1, x2], kind, 1, r)


def tetris_complete_spec(rng: random.Random) -> dict:
    """One entry > 1/2 among small ones, total mass 2 (finite tetris route)."""
    large = _large(rng, 64)
    c, r = Fraction(1, 8), HALF
    rest = 2 - large - c / (1 - r)
    weights = [rng.randint(5, 10) for _ in range(6)]
    smalls = [rest * w / sum(weights) for w in weights]
    at = rng.randrange(3)
    return _spec(smalls[:at] + [large] + smalls[at:], "geometric", c, r)


def _pinning_input(rng, i: int) -> dict:
    route, size = PINNING_SLOTS[i % len(PINNING_SLOTS)]
    if route == "finite":
        doc, info = finite_spec(rng, size), {"n": size}
    elif route == "tetris":
        doc, info = tetris_complete_spec(rng), {"n": 7}
    else:
        doc, info = geometric_spec(rng, route, size), {"r": fmt(size)}
    info["route"] = route
    return {"kind": "spec", "verify": "touched", "m": PINNING_M, "doc": doc, "size": info}


# ---------------------------------------------------------------------------
# field: criterion-08 cell shapes and criterion-09 fiber shapes, re-drawn


def _cell_spec(rng: random.Random, shape: int) -> dict:
    if shape == 0:
        return _spec([], "constant", _tail_constant(rng, False))
    if shape == 1:
        return _spec([_large(rng), _large(rng)], "constant", _tail_constant(rng, False))
    if shape == 2:
        return _spec([], "constant", _tail_constant(rng, True))
    if shape == 3:
        x = _proper(rng)
        return _spec([x, 1 - x, 1, 0])
    if shape == 4:
        c = Fraction(rng.randint(1, 7), 16)
        return _spec(_integral_pair(rng, -2 * c), "one_minus_geometric", c, HALF)
    if shape == 5:
        k = rng.randint(1, 7)
        c = Fraction(k, 32)
        large = Fraction(rng.randint(33, 63 - 4 * k), 64)
        return _spec([large, 1 - large - 2 * c], "geometric", c, HALF)
    if shape == 6:
        a, b = _proper(rng), _proper(rng)
        return _spec([a, b, 1 - b, 1 - a])
    if shape == 7:
        k = rng.randint(1, 16)
        return _spec([Fraction(k, 32)], "one_minus_geometric", Fraction(k, 64), HALF)
    if shape == 8:
        xs = [_proper(rng) for _ in range(3)]
        vals = xs + [1 - x for x in xs]
        rng.shuffle(vals)
        return _spec(vals)
    return _spec([rng.randint(0, 1) for _ in range(rng.randint(3, 6))])


def _fiber_values(rng: random.Random, shape: int) -> tuple[list, dict | None]:
    if shape == 0:
        c = _tail_constant(rng, False)
        return [c] * 6, {"kind": "constant", "c": fmt(c)}
    if shape == 1:
        x, y = _proper(rng), _proper(rng)
        return [x, 1 - x, 1, 0, y, 1 - y], None
    if shape == 2:
        c = Fraction(rng.randint(1, 3), 8)
        x1, x2 = _integral_pair(rng, -2 * c)
        vals = [x1, x2] + [1 - c / 2**j for j in range(4)]
        return vals, {"kind": "one_minus_geometric", "c": fmt(c / 16), "r": "1/2"}
    if shape == 3:
        return [1] * 6, None
    if shape == 4:
        return [0] * 6, None
    if shape == 5:
        c = _tail_constant(rng, True)
        return [c] * 6, {"kind": "constant", "c": fmt(c)}
    if shape == 6:
        xs = [_proper(rng) for _ in range(3)]
        return [xs[0], 1 - xs[0], xs[1], 1 - xs[1], xs[2], 1 - xs[2]], None
    a, b, y = _proper(rng), _proper(rng), _proper(rng)
    return [a, b, 1 - b, 1 - a, y, 1 - y], None


def field_doc(rng: random.Random, i: int, bad: bool) -> tuple[dict, str | None]:
    cells = [{"cell": f"c{j:02d}", "spec": _cell_spec(rng, (i + j) % 10)}
             for j in range(FIELD_CELLS)]
    name = None
    if bad:
        j = rng.randrange(FIELD_CELLS)
        cells[j]["spec"] = _spec([_proper(rng)])
        name = repr(cells[j]["cell"])
    return {"cells": cells}, name


def spectral_doc(rng: random.Random, i: int, bad: bool) -> tuple[dict, str | None]:
    count = 8 + i % 9
    fibers = []
    for j in range(count):
        vals, tail = _fiber_values(rng, (i + j) % 8)
        fiber = {"xi": [j / 16], "values": [fmt(Fraction(v)) for v in vals]}
        if tail is not None:
            fiber["tail"] = tail
        fibers.append(fiber)
    name = None
    if bad:
        j = rng.randrange(count)
        fibers[j] = {"xi": fibers[j]["xi"], "values": [fmt(_proper(rng))] + ["0"] * 5}
        name = f"xi = ({fibers[j]['xi'][0]!r})"
    window = [[k] for k in range(SPECTRAL_WINDOW)]
    return {"d": 1, "window": window, "fibers": fibers}, name


def _field_input(rng, i: int) -> dict:
    slot = FIELD_SLOTS[i % len(FIELD_SLOTS)]
    bad = slot == "bad"
    if slot == "spectral" or (bad and (i // len(FIELD_SLOTS)) % 2):
        doc, name = spectral_doc(rng, i, bad)
        return {"kind": "spectral", "m": SPECTRAL_M, "doc": doc, "bad": name,
                "size": {"fibers": len(doc["fibers"])}}
    doc, name = field_doc(rng, i, bad)
    return {"kind": "field", "m": FIELD_M, "doc": doc, "bad": name,
            "size": {"cells": len(doc["cells"])}}


_MAKERS = {"stream": _stream_input, "pinning": _pinning_input, "field": _field_input}
# inputs after which a workload's schedule repeats (the field's bad document
# alternates between a cell and a fiber, so its period is two slot cycles)
PERIOD = {"stream": len(STREAM_SLOTS), "pinning": len(PINNING_SLOTS),
          "field": 2 * len(FIELD_SLOTS)}


def workload_inputs(workload: str, seed: int, count: int, tag: str = "") -> list[dict]:
    """The first ``count`` inputs of a workload for a seed.

    A non-empty ``tag`` draws from a different random stream (warm-up inputs).
    """
    rng = random.Random(f"{tag}{workload}:{seed}")
    out = []
    for i in range(count):
        item = _MAKERS[workload](rng, i)
        item["size"]["json_bytes"] = len(json.dumps(item["doc"]))
        out.append(item)
    return out


def sweep_inputs(seed: int, per_bucket: int) -> list[dict]:
    """Specs for every complexity-sweep bucket, ``per_bucket`` each.

    Bucket names follow the metric names: ``stream.p<p>`` at m = 64,
    ``stream.m<m>`` at p = 500, ``pinning.n<n>`` and ``pinning.r<r>``.
    The p = 500, m = 64 bucket is shared by the p and m rows.
    """
    rng = random.Random(f"sweep:{seed}")
    out = []

    def add(buckets, doc, verify, m):
        out.append({"kind": "spec", "verify": verify, "m": m, "doc": doc, "buckets": buckets})

    for j in range(per_bucket):
        for p in SWEEP_P:
            names = [f"stream.p{p}"] + (["stream.m64"] if p == 500 else [])
            add(names, stream_spec(rng, p, 0, False, Fraction(2, 5), 97), "settled", 64)
        for m in SWEEP_M[1:]:
            add([f"stream.m{m}"], stream_spec(rng, 500, 0, False, Fraction(2, 5), 97),
                "settled", m)
        for n in SWEEP_N:
            add([f"pinning.n{n}"], finite_spec(rng, n), "touched", PINNING_M)
        for r in SWEEP_R:
            kind = ("geometric", "one_minus_geometric")[j % 2]
            add([f"pinning.r{float(r):g}"], geometric_spec(rng, kind, r), "touched", PINNING_M)
    return out


def sweep_bucket_names() -> list[str]:
    return ([f"stream.p{p}" for p in SWEEP_P] + [f"stream.m{m}" for m in SWEEP_M]
            + [f"pinning.n{n}" for n in SWEEP_N] + [f"pinning.r{float(r):g}" for r in SWEEP_R])
