"""Exact sequence model and sparse projection representations.

A diagonal sequence is stored as a finite rational prefix followed by a
closed-form tail rule, so partial sums, tail masses and threshold counts stay
exact.  Projections are stored as lists of sparse vectors, either directly
(``frame``: P = sum v v^T) or through the complement (``coframe``:
P = I - sum v v^T).  Vector entries whose squares are known rationals carry
that exact square alongside the floating-point value, as integer numerators
over one denominator per vector; analytic square-root tails carry their rule,
so norms and diagonals of infinite vectors are exact.
"""

from __future__ import annotations

import math
import operator
import sys
from bisect import bisect_left
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, repeat
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import (
    ConstructionError,
    ExactnessError,
    OutOfRangeError,
    SpecError,
    UnsupportedStructureError,
)

__all__ = [
    "INF",
    "rat",
    "fmt_rat",
    "TailRule",
    "DiagonalSpec",
    "SqrtTail",
    "SparseVector",
    "ProjectionRep",
    "IndexMap",
    "PermutationWindow",
    "conjugate_by_permutation",
    "CellField",
    "dumps_canonical",
]

#: Extended-rational infinity.  ``Fraction + INF`` saturates to ``INF`` and
#: comparisons against Fractions behave as expected, so no wrapper type is
#: needed; just never subtract two infinities.
INF = float("inf")

HALF = Fraction(1, 2)
_ZERO, _ONE = Fraction(0), Fraction(1)

ZERO_KIND = "zero"
CONSTANT = "constant"
GEOMETRIC = "geometric"
ONE_MINUS_GEOMETRIC = "one_minus_geometric"


def rat(x) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to an exact Fraction; SpecError otherwise.
    A Fraction comes back as it is; anything else is read by :func:`_ratio`."""
    return x if isinstance(x, Fraction) else Fraction(*_ratio(x))


def _ratio(x) -> tuple[int, int]:
    """``(p, q)``, q > 0, p/q the rational that the int, str or Fraction x names; else SpecError.

    A canonical ``"p"`` or ``"p/q"`` of ASCII digits is split by ``int`` with no
    gcd (p/q need not be in lowest terms); any other int or string goes to
    ``Fraction``, which reads those alike."""
    if isinstance(x, (int, str)) and not isinstance(x, bool):
        try:
            if type(x) is str:
                num, slash, den = x.partition("/")
                if x.isascii() and num.isdigit() and (den.isdigit() or not slash):
                    if d := int(den) if slash else 1:  # "p/0" is refused below
                        return int(num), d
            q = Fraction(x)
            return q.numerator, q.denominator
        except (ValueError, ZeroDivisionError):  # a malformed string, or one past the digit limit
            pass
    elif isinstance(x, Fraction):
        return x.numerator, x.denominator
    hint = " (floats must be converted explicitly)" if isinstance(x, float) else ""
    raise SpecError(f"not an exact rational: {x!r}{hint}")


def over_lcm(xs: Iterable) -> tuple[int, list[int]]:
    """``(d, [x*d for x in xs])``: ints, Fractions and ``"p/q"`` strings (read by :func:`_ratio`,
    so a float or bool is its SpecError) as integers over their least common denominator d,
    found by one lcm and one gcd whatever terms the strings are in.  Every exact layout is
    read here: spec prefixes, vector squares, coupling brackets and Schur-Horn diagonals.
    """
    pqs = [_ratio(x) for x in xs]
    d = math.lcm(*{q for _, q in pqs})
    nums = [p * (d // q) for p, q in pqs]
    g = math.gcd(d, *nums)
    return (d, nums) if g == 1 else (d // g, [n // g for n in nums])


def _json_field(d: Mapping, key: str, what: str):
    """``d[key]`` when the object ``d`` has it; SpecError naming ``what`` and ``key`` otherwise."""
    if key not in d:
        raise SpecError(f"{what} needs the field {key!r}")
    return d[key]


def _json_object(d, what: str) -> Mapping:
    """``d`` itself when it is a JSON object; SpecError otherwise."""
    if not isinstance(d, Mapping):
        raise SpecError(f"{what} must be a JSON object, got {type(d).__name__}")
    return d


def _json_list(d, what: str) -> Sequence:
    """``d`` itself when it is a JSON array; SpecError otherwise."""
    if not isinstance(d, (list, tuple)):
        raise SpecError(f"{what} must be a list, got {type(d).__name__}")
    return d


def _json_int(x, what: str) -> int:
    """``x`` as an int when it is an integral JSON number (not a bool); SpecError otherwise."""
    if isinstance(x, float) and x.is_integer():
        x = int(x)
    if not isinstance(x, int) or isinstance(x, bool):
        raise SpecError(f"{what} must be an integer, got {x!r}")
    return x


def _json_number(x, what: str) -> float:
    """``x`` as a float when it is a finite JSON number (not a bool); SpecError otherwise.

    ``json`` reads ``NaN`` and ``Infinity``; they are refused here, and so is
    an integer too large for a float.
    """
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        raise SpecError(f"{what} must be a number, got {x!r}")
    try:
        v = float(x)
    except OverflowError:
        v = math.inf
    if not math.isfinite(v):
        raise SpecError(f"{what} must be a finite number, got {x!r}")
    return v


def fmt_rat(q: Fraction) -> str:
    """Render a Fraction as 'p/q' (or 'p' when the denominator is 1).

    A numerator or denominator past the interpreter's int-to-str digit limit
    is an UnsupportedStructureError naming its digit count.
    """
    if not isinstance(q, Fraction):
        q = Fraction(q)
    return _fmt_ratio(q.numerator, q.denominator)


def _fmt_ratios(pairs: Iterable[tuple[int, int]]) -> list[str]:
    """Each (p, q), q > 0, as :func:`fmt_rat` writes p/q: one gcd each.  The one writer of
    exact values held as integers: spec prefixes, vector squares and the fill's trace."""
    return [_fmt_ratio(p // g, q // g) for p, q in pairs for g in (math.gcd(p, q),)]


def _fmt_ratio(p: int, q: int) -> str:
    """:func:`fmt_rat` of p/q, given in lowest terms with q > 0."""
    try:
        return str(p) if q == 1 else f"{p}/{q}"
    except ValueError:
        n = max(abs(p), q)
        digits = max(int(n.bit_length() * math.log10(2)) - 1, 1)
        while 10**digits <= n:
            digits += 1
        raise UnsupportedStructureError(
            f"exact value with {digits} digits is past the {sys.get_int_max_str_digits()}-digit "
            "limit for printing integers"
        ) from None


def _log(f: Fraction) -> float:
    """ln f for a Fraction f > 0: accurate near 1, and the ints' own logs never overflow."""
    n, d = f.numerator, f.denominator
    return math.log1p((n - d) / d) if 2 * n > d else math.log(n) - math.log(d)


# ---------------------------------------------------------------------------
# tail rules


#: Bits of the largest power of r a tail takes on trust: a document's exponent
#: ``k`` (c * r**k) and a crossing search's r**(j - 1) stay within it, so no
#: input orders an unbounded power (a 2**22-bit power takes about 0.2 s).
_POWER_BITS = 1 << 22


@dataclass(frozen=True)
class TailRule:
    """Closed form for all sequence entries past the prefix.

    Every kind is one formula in the 1-based offset ``j`` into the tail,
    f_j = u + s * c * r**(k + j - 1) with s = 1 - 2u, and the kind names fix
    zero (c = 0, r = 1), constant (r = 1), geometric (u = 0) and
    one_minus_geometric (u = 1).  Geometric kinds require 0 < c <= 1 and
    0 < r < 1; only they take the exponent ``k >= 0``, which keeps the c of a
    tail reindexed deep into another short.
    """

    kind: str
    c: Fraction | None = None
    r: Fraction | None = None
    k: int = 0
    u: int = field(init=False, repr=False, compare=False)
    flat: bool = field(init=False, repr=False, compare=False)  # r == 1, tested once

    def __post_init__(self):
        u = 0
        if self.kind == ZERO_KIND:
            if self.c is not None or self.r is not None:
                raise SpecError("zero tail takes no parameters")
            c, r = _ZERO, _ONE
        elif self.kind == CONSTANT:
            c, r = self._param("c"), _ONE
            if not 0 <= c <= 1:
                raise SpecError(f"constant tail value {c} outside [0,1]")
            if self.r is not None:
                raise SpecError("constant tail takes no ratio")
        elif self.kind in (GEOMETRIC, ONE_MINUS_GEOMETRIC):
            c, r, u = self._param("c"), self._param("r"), int(self.kind == ONE_MINUS_GEOMETRIC)
            if not 0 < c <= 1:
                raise SpecError(f"geometric coefficient {c} outside (0,1]")
            if not 0 < r < 1:
                raise SpecError(f"geometric ratio {r} outside (0,1)")
        else:
            raise SpecError(f"unknown tail kind {self.kind!r}")
        k = self.k
        if type(k) is not int or k < 0:  # a bool is not an exponent
            raise SpecError(f"{self.kind} tail field 'k' must be an integer >= 0, got {k!r}")
        if k and r == 1:
            raise SpecError(f"{self.kind} tail takes no exponent 'k'")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "flat", r == 1)
        if not k:  # c * r**0 is c itself: the common case never calls the lazy _start
            object.__setattr__(self, "_start", c)

    def _param(self, name: str) -> Fraction:
        value = getattr(self, name)
        if value is None:
            raise SpecError(f"{self.kind} tail needs the field {name!r}")
        try:
            return rat(value)
        except SpecError as e:
            raise SpecError(f"{self.kind} tail field {name!r}: {e}") from None

    def _power_bits(self, e: int) -> int:
        """Bits of the larger of r**e's numerator and denominator."""
        return e * max(self.r.numerator.bit_length(), self.r.denominator.bit_length())

    def _check_power(self, e, what: str = "tail threshold crossing at") -> None:
        """Refuse a power r**e past ``_POWER_BITS`` bits: an UnsupportedStructureError
        that names what needed the power."""
        if self._power_bits(e) > _POWER_BITS:
            msg = f"ratio {fmt_rat(self.r)}: r**{e:.3g} is past the {_POWER_BITS}-bit budget"
            raise UnsupportedStructureError(f"{what} {msg}")

    @cached_property
    def _start(self) -> Fraction:
        """c * r**k, the first entry's geometric part, computed once (k > 0)."""
        return self.c * self.r**self.k

    @cached_property
    def _float_cuts(self) -> tuple[int | float, int | float]:
        """``(cut, zero)``: from offset ``zero`` on a decaying tail has c * r**(k+j-1) < 2**-1075
        (a log bound with a margin), so its float is 0.0; from ``cut`` on no power is taken."""
        lr = 0.0 if self.u or self.flat else -_log(self.r)  # 0.0 also for an r that rounds to 1
        e = (_log(self._start) + 1075 * math.log(2)) / lr if lr else INF
        zero = 2 + math.ceil(e + 1e-9 * abs(e) + 1) if lr else INF
        return INF if self.flat else min(zero, _POWER_BITS // self._power_bits(1) + 2), zero

    # -- constructors

    @classmethod
    def zero(cls) -> "TailRule":
        return cls(ZERO_KIND)

    @classmethod
    def constant(cls, v) -> "TailRule":
        return cls(CONSTANT, v)

    @classmethod
    def geometric(cls, c, r) -> "TailRule":
        return cls(GEOMETRIC, c, r)

    @classmethod
    def one_minus_geometric(cls, c, r) -> "TailRule":
        return cls(ONE_MINUS_GEOMETRIC, c, r)

    # -- evaluation

    def value(self, j: int) -> Fraction:
        """Entry at tail offset j >= 1."""
        if j < 1:
            raise OutOfRangeError(f"tail offset {j} < 1")
        g = self._start if self.flat else self._start * self.r ** (j - 1)
        return 1 - g if self.u else g

    def _float_value(self, j: int) -> float:
        """``float(value(j))``, bit for bit: 0.0 from ``_float_cuts``' zero on, and before it an
        UnsupportedStructureError for a power past ``_POWER_BITS``."""
        cut, zero = self._float_cuts
        if j >= cut:
            if j >= zero:
                return 0.0
            self._check_power(j - 1, f"sqrt tail offset {j} of")
        return float(self.value(j))

    def values(self, n: int) -> Iterator[tuple[int, int]]:
        """``value(1), ..., value(n)`` as lowest-terms pairs ``(p, q)``, q > 0.

        Each step multiplies the geometric part by r as ``Fraction`` does, with no object
        built: two gcds against r's small terms, then two big-by-small multiplies.  Once the
        numerator is prime to r_den and the denominator to r_num they stay so, since r is in
        lowest terms, and every later step is the two multiplies alone."""
        if self.flat:
            v = self.value(1)
            yield from repeat((v.numerator, v.denominator), n)
            return
        gn, gd, u = self._start.numerator, self._start.denominator, self.u
        rn, rd = self.r.numerator, self.r.denominator
        coprime = False
        for _ in range(n):
            yield (gd - gn, gd) if u else (gn, gd)
            if coprime:
                gn, gd = gn * rn, gd * rd
                continue
            a, b = math.gcd(gn, rd), math.gcd(gd, rn)
            gn, gd = gn // a * (rn // b), gd // b * (rd // a)
            coprime = a == b == 1

    def _over(self, j0: int, j1: int) -> tuple[int, list[int]]:
        """``(d, [d * value(j) for j = j0..j1])``, d the least common denominator of the window.

        The walk runs over one common multiple, D = c_den * r_den**(k + j1 - 1): each numerator
        of c * r**(k + j - 1) is the one before it ``// r_den * r_num``, two big-by-small
        operations with no gcd.  Each prime's exponent in the entries' reduced denominators is
        monotone in j, so the two ends fix d, and D / d, which divides c_num * c_den, is one
        gcd over both ends started from that small product."""
        c, r, u = self.c, self.r, self.u
        rn, rd = r.numerator, r.denominator
        d = c.denominator * rd ** (self.k + j1 - 1)
        x = c.numerator * rn ** (self.k + j0 - 1) * rd ** (j1 - j0)
        out = [d - x if u else x]
        for _ in range(j1 - j0):
            x = x // rd * rn
            out.append(d - x if u else x)
        g = math.gcd(c.numerator * c.denominator, d, out[-1], out[0])
        return (d, out) if g == 1 else (d // g, [x // g for x in out])

    def partial_sum(self, j: int) -> Fraction:
        """Sum of the first j tail entries (j >= 0), exact."""
        if j < 0:
            raise OutOfRangeError(f"negative tail length {j}")
        geo = j * self._start if self.flat else self._start * (1 - self.r**j) / (1 - self.r)
        return j - geo if self.u else geo

    def sum_from(self, j: int):
        """Sum of all entries from offset j on: a Fraction, or INF."""
        if j < 1:
            raise OutOfRangeError(f"tail offset {j} < 1")
        if self.u:  # the entries tend to 1
            return INF
        if self.flat:
            return INF if self.c else _ZERO
        return self._start * self.r ** (j - 1) / (1 - self.r)

    def first_at_most(self, x) -> int:
        """Smallest j >= 1 with c * r**(k + j - 1) <= x, for a decaying tail (r < 1) and x > 0:
        the first r**(j-1) <= x / (c * r**k), a logarithm estimate confirmed by exact evaluations
        at j and j - 1; a power past ``_POWER_BITS`` is an UnsupportedStructureError.  The one
        tail search behind half_exceptions, DiagonalSpec.reach and decouple's i3."""
        q = x / self._start
        if q >= 1:
            return 1
        lr = _log(self.r)
        e = _log(q) / lr if lr else INF  # r**e = q; an r that rounds to 1 is past any budget
        self._check_power(e)
        j = max(2, 1 + math.ceil(e))
        while j > 2 and self.r ** (j - 2) <= q:
            j -= 1
        while self.r ** (j - 1) > q:
            j += 1
        return j

    # -- transforms

    def complement(self) -> "TailRule":
        """Tail rule of the complementary sequence 1 - f."""
        if self.flat:  # zero and constant: the constant 1 - c
            return TailRule.constant(1 - self.c)
        return TailRule(GEOMETRIC if self.u else ONE_MINUS_GEOMETRIC, self.c, self.r, self.k)

    def reindexed(self, j0: int, step: int = 1) -> "TailRule":
        """The tail of the entries at offsets j0, j0 + step, j0 + 2*step, ..."""
        if j0 < 1:
            raise OutOfRangeError(f"tail offset {j0} < 1")
        if self.flat or (j0, step) == (1, 1):
            return self
        q, m = divmod(self.k + j0 - 1, step)  # exponents m + (q + i - 1)*step: no power past step
        kind = ONE_MINUS_GEOMETRIC if self.u else GEOMETRIC
        return TailRule(kind, self.c * self.r**m, self.r**step, q)

    # -- classification helpers

    def half_exceptions(self) -> tuple[int, bool]:
        """Offsets classified against 1/2.

        Returns ``(e, rest_small)``: offsets 1..e fall in the class opposite
        to the rest, and from offset e + 1 on every entry is <= 1/2 iff
        ``rest_small``.
        """
        if self.flat:
            return 0, self.value(1) <= HALF
        j = self.first_at_most(HALF)
        if self.u and self.value(j) == HALF:  # 1 - g = 1/2 is small: g >= 1/2 are exceptions
            j += 1
        return j - 1, not self.u

    def proper_exceptions(self) -> tuple[int, bool]:
        """Offsets classified as proper (value in (0,1)) versus 0/1.

        Same convention as :meth:`half_exceptions`: ``(e, rest_proper)``.
        """
        if self.flat:
            return 0, 0 < self.value(1) < 1
        # a decaying tail: only a first entry with c * r**k == 1 hits 0 or 1
        return int(self._start == 1), True

    # -- serialization

    def to_json_dict(self) -> dict:
        d: dict = {"kind": self.kind}
        if self.kind != ZERO_KIND:
            d["c"] = fmt_rat(self.c)
        if not self.flat:
            d["r"] = fmt_rat(self.r)
        if self.k:
            d["k"] = self.k
        return d

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "TailRule":
        """Decode a tail; ``"k"`` is an integral JSON number (``_json_int``), and one whose
        c * r**k passes ``_POWER_BITS`` is a SpecError."""
        d = _json_object(d, "tail")
        rule = cls(_json_field(d, "kind", "tail"), **{f: d[f] for f in ("c", "r") if f in d},
                   k=_json_int(d.get("k", 0), "tail field 'k'"))
        if rule.k and rule._power_bits(rule.k) > _POWER_BITS:
            raise SpecError(f"tail field 'k': c * r**k is past the {_POWER_BITS}-bit budget")
        return rule


# ---------------------------------------------------------------------------
# prescribed diagonals


@dataclass(frozen=True, init=False)
class DiagonalSpec:
    """A candidate diagonal: rational prefix plus closed-form tail.

    Entries are 1-based.  ``entry``, ``partial_sum`` and ``total`` are
    exact; a sum that diverges comes back as ``INF``.

    The prefix is integer numerators ``nums`` over ``den``, their least common
    denominator (0 <= n <= den), read from ints, Fractions and ``"p/q"`` strings
    by :func:`_ratio`; :meth:`entry` and :meth:`over` read them.  Tests run on
    the integers: ``_cumsums`` holds the sums d*S_i, which :meth:`reach`, the one search for
    the first S_i >= x, bisects, and :meth:`_sum` reads every S_i as an integer pair.
    """

    den: int
    nums: tuple[int, ...]
    tail: TailRule

    def __init__(self, prefix: Iterable = (), tail: TailRule | None = None):
        den, nums = over_lcm(prefix)
        if nums and (min(nums) < 0 or max(nums) > den):
            i = next(i for i, n in enumerate(nums) if not 0 <= n <= den)
            raise SpecError(f"entry {i + 1} = {Fraction(nums[i], den)} outside [0,1]")
        self._store(den, tuple(nums), tail or TailRule.zero())  # over_lcm's layout is the least

    @classmethod
    def _over(cls, den: int, nums: list[int], tail: TailRule) -> "DiagonalSpec":
        """The spec of the prefix nums/den, 0 <= n <= den unchecked, for internal callers.
        One gcd puts it in the least layout, so equal specs are stored alike."""
        g = math.gcd(den, *nums)
        nums = tuple(nums) if g == 1 else tuple(n // g for n in nums)
        return object.__new__(cls)._store(den // g, nums, tail)

    def _store(self, den: int, nums: tuple[int, ...], tail: TailRule) -> "DiagonalSpec":
        for name, value in (("den", den), ("nums", nums), ("tail", tail)):
            object.__setattr__(self, name, value)
        return self

    @classmethod
    def of(cls, *values, tail: TailRule | None = None) -> "DiagonalSpec":
        """Convenience constructor: DiagonalSpec.of('2/5', '2/5', tail=...)."""
        return cls(values, tail)

    @cached_property
    def _cumsums(self) -> tuple[int, tuple[int, ...]]:
        """``(d, (d*S_0, ..., d*S_p))``: the prefix sums over d = ``den``."""
        return self.den, tuple(accumulate(self.nums, initial=0))

    @cached_property
    def _flat_layout(self) -> tuple[int, int, int]:
        """``(L, L // den, L*c)`` for a constant tail c, L = lcm(den, c's denominator)."""
        c = self.tail.c
        L = math.lcm(self.den, c.denominator)
        return L, L // self.den, c.numerator * (L // c.denominator)

    def _sum(self, i: int) -> tuple[int, int]:
        """S_i = x/q as ``(x, q)``, i >= 0, the one reader of running sums: ``_cumsums`` over den in
        the prefix; past it S_p + (i - p)*c over ``_flat_layout``'s L, or a geometric tail's sum."""
        d, sums = self._cumsums
        p = len(sums) - 1
        if i <= p:
            return sums[i], d
        if self.tail.flat:
            L, f, t = self._flat_layout
            return sums[p] * f + (i - p) * t, L
        return (Fraction(sums[p], d) + self.tail.partial_sum(i - p)).as_integer_ratio()

    def over(self, positions: Sequence[int]) -> tuple[int, list[int]]:
        """``(L, [L * entry(i) for i in positions])``, positions in any order, repeats allowed,
        L the lcm of ``den`` and the reduced denominators of the tail entries read.  Prefix
        numerators are read by position.  A constant tail's entries are one numerator over
        ``_flat_layout``'s L; a geometric tail's offsets the positions span are walked on
        integers over their least common denominator (:meth:`TailRule._over`: small
        multipliers only, no Fraction, no lcm over the window), and L is one lcm of that and
        ``den``.  Every window of entries that runs on integers is read here; inside the
        prefix it costs no scaling."""
        nums, p = self.nums, len(self.nums)
        if not positions or (hi := max(positions)) <= p:  # every position lies in the prefix
            return self.den, [nums[i - 1] for i in positions]
        if self.tail.flat:
            L, f, t = self._flat_layout
            return L, [nums[i - 1] * f if i <= p else t for i in positions]
        j0 = min(i for i in positions if i > p) - p  # the walk covers offsets j0 .. hi - p
        d, ts = self.tail._over(j0, hi - p)
        L = math.lcm(self.den, d)
        f, h = L // self.den, L // d
        if h != 1:
            ts = [t * h for t in ts]
        return L, [nums[i - 1] * f if i <= p else ts[i - p - j0] for i in positions]

    # -- evaluation

    def entry(self, i: int) -> Fraction:
        if i < 1:
            raise OutOfRangeError(f"index {i} < 1")
        p = len(self.nums)
        return Fraction(self.nums[i - 1], self.den) if i <= p else self.tail.value(i - p)

    def float_entries(self, n: int) -> list[float]:
        """``float(entry(k))`` for k = 1..n, bit for bit: the tail is one ``TailRule.values`` walk,
        and each ``p / q`` is the correctly rounded quotient that ``float`` takes."""
        pfx = self.nums[: max(n, 0)]
        return [x / self.den for x in pfx] + [p / q for p, q in self.tail.values(n - len(pfx))]

    def partial_sum(self, i: int) -> Fraction:
        """S_i = f_1 + ... + f_i, exact; S_i = 0 for i <= 0."""
        return Fraction(*self._sum(max(i, 0)))

    def total(self):
        """S_p + the tail's sum: a Fraction, or INF."""
        d, sums = self._cumsums
        return Fraction(sums[-1], d) + self.tail.sum_from(1)

    def reach(self, x) -> int | None:
        """Smallest i >= 0 with S_i >= x, or None when no i gets there; exact, the one search
        over the running sums.  Inside the prefix it bisects the integer sums d*S_i for
        d*x; past it a constant tail is one integer ceiling division over
        ``_flat_layout``'s L, a decaying tail has S_i >= x iff the tail from offset i - p + 1
        sums to at most total - x (:meth:`TailRule.first_at_most`; a finite limit is never
        attained), and one that tends to 1 bisects j in [ceil(y), ceil(y + G)], y = x - S_p,
        G = c * r**k / (1 - r), on the tail's exact sums."""
        d, sums = self._cumsums
        i = bisect_left(sums, d * x)  # exact for a Fraction x too
        if i < len(sums):
            return i
        p, t = i - 1, self.tail
        if t.flat:
            L, f, c = self._flat_layout
            return p - (sums[p] * f - x * L) // c if c else None
        if not t.u:
            rest = self.total() - x
            return p + t.first_at_most(rest * (1 - t.r)) - 1 if rest > 0 else None
        y = x - Fraction(sums[p], d)
        lo, hi = math.ceil(y), math.ceil(y + t._start / (1 - t.r))
        t._check_power(hi)
        return p + lo + bisect_left(range(lo, hi), y, key=t.partial_sum)

    # -- transforms

    def complement(self) -> "DiagonalSpec":
        d = self.den
        return DiagonalSpec._over(d, [d - x for x in self.nums], self.tail.complement())

    def subsequence(
        self, classes: "TwoClassIndex", a_flag: bool, o0: int = 1, step: int = 1, lead: tuple = ()
    ) -> "DiagonalSpec":
        """Spec of the entries at positions ``lead``, then at the class positions with
        ordinals o0, o0+step, ...

        Finite classes are padded with a zero tail.  For infinite classes the
        eventual arithmetic structure of the positions turns the source tail
        into a closed tail of the subsequence (:meth:`TailRule.reindexed`).
        Its prefix, the entries at ``lead`` and the picked positions, is read by :meth:`over`.
        """
        p = len(self.nums)
        picked = classes.head(a_flag)[o0 - 1 :: step]  # every member below rest_start
        tail = TailRule.zero()
        if a_flag == classes.rest_a:  # from the next member on, the class walks the tail
            tail = self.tail.reindexed(classes.nth(o0 + step * len(picked), a_flag) - p, step)
        return DiagonalSpec._over(*self.over(lead + picked), tail)

    # -- classification plumbing

    def half_classes(self) -> "TwoClassIndex":
        """Index classes against the 1/2 threshold (small: entry <= 1/2)."""
        d = self.den
        return TwoClassIndex(tuple(2 * x <= d for x in self.nums), *self.tail.half_exceptions())

    def proper_classes(self) -> "TwoClassIndex":
        """Index classes proper-vs-improper (proper: entry in (0,1))."""
        d = self.den
        return TwoClassIndex(tuple(0 < x < d for x in self.nums), *self.tail.proper_exceptions())

    # -- serialization

    def to_json_dict(self) -> dict:
        pfx = _fmt_ratios(zip(self.nums, repeat(self.den)))  # each entry in lowest terms
        return {"prefix": pfx, "tail": self.tail.to_json_dict()}

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "DiagonalSpec":
        d = _json_object(d, "diagonal spec")
        tail = TailRule.from_json_dict(d.get("tail", {"kind": ZERO_KIND}))
        return cls(_json_list(d.get("prefix", ()), "prefix"), tail)


class TwoClassIndex:
    """nth-index queries for a two-way classification of 1-based indices.

    The prefix is classified entrywise by ``flags`` (True = class A); tail
    offsets 1..n_exc fall in the class opposite to ``rest_a``, and every later
    offset lies in class A iff ``rest_a``.
    """

    def __init__(self, flags: tuple[bool, ...], n_exc: int, rest_a: bool):
        self.n_exc = n_exc
        self.rest_a = rest_a
        self.p = len(flags)
        self._a_prefix = [i + 1 for i, f in enumerate(flags) if f]
        self._b_prefix = [i + 1 for i, f in enumerate(flags) if not f]

    def count(self, a: bool = True):
        """Number of indices in class A (or B): an int or INF."""
        if a == self.rest_a:
            return INF
        return len(self._a_prefix if a else self._b_prefix) + self.n_exc

    def nth(self, n: int, a: bool = True) -> int:
        """Global index of the n-th member of class A (or B), 1-based."""
        if n < 1:
            raise OutOfRangeError(f"ordinal {n} < 1")
        base = self._a_prefix if a else self._b_prefix
        if n <= len(base):
            return base[n - 1]
        k = n - len(base)  # k-th tail member of the class
        if a == self.rest_a:
            return self.rest_start() + k - 1
        if k > self.n_exc:
            raise OutOfRangeError(f"class has only {self.count(a)} members")
        return self.p + k

    def rest_start(self) -> int:
        """First global index from which the tail has no exceptions left."""
        return self.p + self.n_exc + 1

    def head(self, a: bool = True) -> tuple[int, ...]:
        """The members of class A (or B) below :meth:`rest_start`, in order."""
        exc = () if a == self.rest_a else range(self.p + 1, self.rest_start())
        return (*(self._a_prefix if a else self._b_prefix), *exc)


# ---------------------------------------------------------------------------
# sparse vectors


@dataclass(frozen=True)
class SqrtTail:
    """Analytic vector tail: entry sqrt(rule.value(j)) at index start + (j-1)*stride."""

    start: int
    rule: TailRule
    stride: int = 1

    def __post_init__(self):
        if self.start < 1 or self.stride < 1:
            raise SpecError("sqrt tail needs start >= 1 and stride >= 1")
        if self.rule.u or self.rule.flat:
            raise SpecError(f"sqrt tails must decay geometrically, got {self.rule.kind!r}")

    def offset_of(self, k: int) -> int | None:
        """Tail offset j covering global index k, or None."""
        if k < self.start or (k - self.start) % self.stride:
            return None
        return (k - self.start) // self.stride + 1


def _check_square(v: float, p: int, q: int):
    """SpecError unless the exact square p/q (q > 0) is v*v up to float rounding (4 ulps)."""
    try:
        f = p / q  # float(p/q): the correctly rounded quotient
    except OverflowError:  # beyond every float square; NaN matches nothing below
        f = math.nan
    if p < 0 or not abs(v * v - f) <= 4 * 2**-52 * max(f, sys.float_info.min):
        raise SpecError(f"square {fmt_rat(Fraction(p, q))} does not match support value {v!r}")


@dataclass(frozen=True, init=False)
class SparseVector:
    """A vector in l2 given by finite support plus an optional analytic tail.

    ``support`` holds (index, value) pairs with strictly increasing 1-based
    indices.  ``exact``, when present, stores the exact |value|^2 of every
    support entry as ``(den, nums)``: integer numerators over one denominator
    per vector.  The constructor takes these fields and reduces ``exact`` to
    the least denominator, so equal squares are stored alike; rational squares
    come in through :meth:`from_exact`, and ``squares`` reads them back as
    Fractions.  Tail entries are nonnegative square roots of the rule values.
    """

    support: tuple[tuple[int, float], ...]
    sqrt_tail: SqrtTail | None
    exact: tuple[int, tuple[int, ...]] | None

    def __init__(self, support=(), sqrt_tail=None, exact=None):
        if exact is not None:  # one gcd: the least denominator, so equal squares are stored alike
            try:
                den, nums = exact
                nums = tuple(nums)
                g = math.gcd(den, *nums)  # a TypeError unless every one is an int
            except (TypeError, ValueError):
                den = 0
            if den < 1:
                raise SpecError("exact must be (den, nums): integer numerators over a den >= 1")
            exact = (den, nums) if g == 1 else (den // g, tuple(p // g for p in nums))
        self._store(support, sqrt_tail, exact)

    def _store(self, support, sqrt_tail, exact) -> "SparseVector":
        """Check and store the fields; ``exact`` is None or already least, ``(den, int tuple)``."""
        idx = [i for i, _ in support]
        if idx and (idx[0] < 1 or not all(map(operator.lt, idx, idx[1:]))):  # C-level comparisons
            raise SpecError("support indices must be strictly increasing and >= 1")
        if exact is not None and len(exact[1]) != len(support):
            raise SpecError("squares must align with support")
        if sqrt_tail is not None and idx and idx[-1] >= sqrt_tail.start:
            raise SpecError("support must end before the sqrt tail starts")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "sqrt_tail", sqrt_tail)
        object.__setattr__(self, "exact", exact)
        return self

    @cached_property
    def squares(self) -> tuple[Fraction, ...] | None:
        """The exact squares as Fractions, in support order (None when only floats are known)."""
        if self.exact is None:
            return None
        den, nums = self.exact
        return tuple(Fraction(p, den) for p in nums)

    @classmethod
    def from_exact(
        cls,
        entries: Iterable[tuple[int, Fraction | int, int]],
        sqrt_tail: SqrtTail | None = None,
        den: int = 1,
    ) -> "SparseVector":
        """Build from (index, exact square, sign) triples; zero squares are dropped.

        Each square is over ``den``: an integer numerator, or an exact rational.
        """
        rows = sorted(entries)
        nums = [q for _, q, _ in rows]
        if not all(type(q) is int for q in nums):
            d, nums = over_lcm(nums)
            den *= d
        keep = [(i, q, sign) for (i, _, sign), q in zip(rows, nums) if q]
        sup = tuple((i, sign * math.sqrt(q / den)) for i, q, sign in keep)
        return cls(sup, sqrt_tail, (den, [q for _, q, _ in keep]))

    @classmethod
    def basis(cls, i: int) -> "SparseVector":
        return cls(((i, 1.0),), None, (1, (1,)))

    @classmethod
    def from_dense(cls, values: Sequence[float]) -> "SparseVector":
        """The nonzero entries of a dense vector, 1-based (NaN entries are dropped)."""
        values = np.asarray(values, dtype=float)
        nz = np.flatnonzero(np.abs(values) > 0)
        return cls(tuple(zip((nz + 1).tolist(), values[nz].tolist())))

    # -- finite views

    def rows(self, n: int) -> Iterator[tuple[int, float, int | None, int | None]]:
        """``(index, value, p, q)`` for every entry at an index <= n, p/q its exact square (both
        None when only the float is known): support rows, then sqrt-tail rows.  Every finite
        view (dense rows, diagonals, tail materialization) is this walk."""
        q, nums = (None, repeat(None)) if self.exact is None else self.exact
        for (i, v), p in zip(self.support, nums):
            if i > n:
                break
            yield i, v, p, q
        t = self.sqrt_tail
        if t is not None:
            ks = range(t.start, n + 1, t.stride)
            for k, (p, q) in zip(ks, t.rule.values(len(ks))):
                yield k, math.sqrt(p / q), p, q

    def exact_norm_sq(self) -> Fraction:
        """The exact squares, added as integers over the vector's denominator, plus tail mass.

        No construction calls it: it is the exact norm check of the tests' Fraction
        fill reference (``fill_reference`` in test_tetris)."""
        if self.exact is None and self.support:
            raise ExactnessError("vector has float-only support entries")
        den, nums = self.exact or (1, ())
        s = Fraction(sum(nums), den)
        if self.sqrt_tail is not None:
            s += self.sqrt_tail.rule.sum_from(1)
        return s

    # -- products

    def inner(self, other: "SparseVector") -> float:
        """The inner product, one pair at a time.  :meth:`ProjectionRep.gram_entries` stores it
        for each pair with a sqrt-tail vector, and test_verify_reference and the finite64 step
        of the tier-1 workflow check the tailless sweep and tile against it bit for bit."""
        acc = 0.0
        mine = dict(self.support)
        theirs = dict(other.support)
        for k, v in self.support:
            acc += v * (theirs.get(k) if k in theirs else other._tail_value(k))
        for k, v in other.support:
            if k not in mine:
                acc += v * self._tail_value(k)
        acc += self._tail_tail_inner(other)
        return acc

    def _tail_value(self, k: int) -> float:
        if self.sqrt_tail is None:
            return 0.0
        j = self.sqrt_tail.offset_of(k)
        return 0.0 if j is None else math.sqrt(self.sqrt_tail.rule._float_value(j))

    def _tail_tail_inner(self, other: "SparseVector") -> float:
        t1, t2 = self.sqrt_tail, other.sqrt_tail
        if t1 is None or t2 is None:
            return 0.0
        if t1.stride != t2.stride:
            raise UnsupportedStructureError("sqrt tails with different strides")
        if (t1.start - t2.start) % t1.stride:
            return 0.0  # interleaved, never meet
        k0 = max(t1.start, t2.start)
        j1, j2 = t1.offset_of(k0), t2.offset_of(k0)
        head = math.sqrt(t1.rule._float_value(j1) * t2.rule._float_value(j2))
        r1, r2 = t1.rule.r, t2.rule.r  # one int true division: the correctly rounded float
        ratio = math.sqrt(r1.numerator * r2.numerator / (r1.denominator * r2.denominator))
        return head / (1.0 - ratio)

    # -- reshaping

    def dense(self, m: int) -> np.ndarray:
        out = np.zeros(m)
        for i, v, _, _ in self.rows(m):
            out[i - 1] = v
        return out

    def materialized_through(self, m: int) -> "SparseVector":
        """Convert tail entries at indices <= m into explicit support entries."""
        t = self.sqrt_tail
        if t is None or t.start > m:
            return self
        rows = list(self.rows(m))  # the whole support, then tail rows up to m
        k = rows[-1][0] + t.stride
        den = None if self.exact is None else math.lcm(*(q for *_, q in rows))
        return SparseVector(
            tuple((i, v) for i, v, _, _ in rows),
            SqrtTail(k, t.rule.reindexed(t.offset_of(k)), t.stride),
            None if den is None else (den, [p * (den // q) for *_, p, q in rows]),
        )

    def remap(self, emb: "IndexMap") -> "SparseVector":
        """Move entry i to index ``emb.map_index(i)``.

        Tail entries inside the map's explicit head are materialized first, so
        the tail only meets the affine part of the map.  A map that fixes every
        index returns the vector itself, unless its head covers tail entries.
        """
        t = self.sqrt_tail
        if emb.fixes_all and (t is None or t.start > len(emb.head)):
            return self
        vec = self.materialized_through(len(emb.head))
        den, nums = (None, repeat(None)) if vec.exact is None else vec.exact
        return SparseVector.placed(emb, vec.support, nums, den, vec.sqrt_tail)

    @classmethod
    def placed(cls, emb: "IndexMap", support, nums, den: int | None, sqrt_tail=None):
        """The vector with entry i at ``emb.map_index(i)``, built once, from (i, value) pairs, their
        squares' numerators over ``den`` (None: floats only) and a sqrt tail past ``emb``'s head.
        :meth:`remap` and the spectral-tetris fill both place their vectors here."""
        h, s, o, n = emb.head, emb.stride, emb.offset, len(emb.head)
        rows = sorted([(h[i - 1] if i <= n else (i - 1) * s + o, v, p)
                       for (i, v), p in zip(support, nums)])
        t = sqrt_tail
        return cls(
            tuple([(i, v) for i, v, _ in rows]),
            None if t is None else SqrtTail(emb.map_index(t.start), t.rule, t.stride * s),
            None if den is None else (den, [p for _, _, p in rows]),
        )

    # -- serialization

    def to_json_dict(self) -> dict:
        """The document; each square is written in lowest terms, one gcd each."""
        d: dict = {"support": [[i, v] for i, v in self.support]}
        if self.sqrt_tail is not None:
            t = self.sqrt_tail
            d["sqrtTail"] = {"start": t.start, "stride": t.stride, "rule": t.rule.to_json_dict()}
        else:
            d["sqrtTail"] = None
        if self.exact is not None:
            den, nums = self.exact
            d["squares"] = _fmt_ratios(zip(nums, repeat(den)))
        return d

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "SparseVector":
        d = _json_object(d, "vector")
        tail = None
        td = d.get("sqrtTail")
        if td is not None:
            td = _json_object(td, "sqrt tail")
            tail = SqrtTail(
                _json_int(_json_field(td, "start", "sqrt tail"), "sqrt tail start"),
                TailRule.from_json_dict(_json_field(td, "rule", "sqrt tail")),
                _json_int(td.get("stride", 1), "sqrt tail stride"),
            )
        support = []
        for e in _json_list(_json_field(d, "support", "vector"), "support"):
            if type(e) is list and len(e) == 2:  # a well-formed row needs none of the checks below
                i, v = e
                if type(i) is int and type(v) is float and -INF < v < INF:
                    support.append((i, v))
                    continue
            if len(_json_list(e, "support entry")) != 2:
                raise SpecError(f"support entry must be an [index, value] pair, got {e!r}")
            support.append((_json_int(e[0], "support index"), _json_number(e[1], "support value")))
        exact = None
        if d.get("squares") is not None:  # over_lcm's layout is the least: no second gcd
            den, nums = over_lcm(_json_list(d["squares"], "squares"))
            exact = den, tuple(nums)
        vec = object.__new__(cls)._store(tuple(support), tail, exact)
        L, nums = vec.exact or (1, ())  # each square as its numerator over the least denominator
        for (_, v), p in zip(vec.support, nums):
            _check_square(v, p, L)
        return vec


@dataclass(frozen=True)
class IndexMap:
    """Injective index map: i -> head[i-1] for i <= len(head), else (i-1)*stride + offset.

    One type covers every relabel: a residue class (``IndexMap((), k, m)``),
    a shifted block (``IndexMap((), 1, 1 + shift)``), the proper entries
    (explicit head, then a shift) and a permutation window, which is an index
    map whose head is its window.
    """

    head: tuple[int, ...] = ()
    stride: int = 1
    offset: int = 1

    def __post_init__(self):
        first = len(self.head) * self.stride + self.offset  # image of len(head) + 1
        if (
            self.stride < 1
            or any(i < 1 for i in self.head)
            or len(set(self.head)) != len(self.head)
            or max(self.head, default=0) >= first
        ):
            raise SpecError("index map images must be distinct and >= 1, the head below the rest")

    def map_index(self, i: int) -> int:
        """Image of index i >= 1; OutOfRangeError for i < 1."""
        if i > len(self.head):
            return (i - 1) * self.stride + self.offset
        if i < 1:
            raise OutOfRangeError(f"index {i} < 1")
        return self.head[i - 1]

    @cached_property
    def fixes_all(self) -> bool:
        """True when every index maps to itself: stride 1, offset 1 and head (1, ..., h)."""
        h = len(self.head)
        return (self.stride, self.offset) == (1, 1) and self.head == tuple(range(1, h + 1))

    def after(self, inner: "IndexMap") -> "IndexMap":
        """The map i -> self.map_index(inner.map_index(i)): one relabel in place of two.

        Its head ends where ``inner`` has passed this map's head, so the one
        relabel materializes the tail entries that the two would.
        """
        h, s, o = inner.head, inner.stride, inner.offset
        n = max(len(h), (len(self.head) - o) // s + 1)
        mid = h + tuple(range(len(h) * s + o, (n - 1) * s + o + 1, s))  # inner's images of 1..n
        # this map's images of 1..max(mid) after an unused 0, so each is one tuple lookup
        top, S, O = max(mid, default=0), self.stride, self.offset
        images = (0,) + self.head + tuple(range(len(self.head) * S + O, (top - 1) * S + O + 1, S))
        return IndexMap(tuple(map(images.__getitem__, mid)), s * S, (o - 1) * S + O)


# ---------------------------------------------------------------------------
# projection representations


@dataclass(frozen=True)
class ProjectionRep:
    """A projection as a frame (P = sum v v^T) or coframe (P = I - sum v v^T)."""

    form: str
    vectors: tuple[SparseVector, ...]

    def __post_init__(self):
        if self.form not in ("frame", "coframe"):
            raise SpecError(f"unknown projection form {self.form!r}")

    @classmethod
    def frame(cls, vectors: Iterable[SparseVector]) -> "ProjectionRep":
        return cls("frame", tuple(vectors))

    @classmethod
    def coframe(cls, vectors: Iterable[SparseVector]) -> "ProjectionRep":
        return cls("coframe", tuple(vectors))

    def complementary(self) -> "ProjectionRep":
        """Representation of I - P (swap frame and coframe)."""
        return ProjectionRep("coframe" if self.form == "frame" else "frame", self.vectors)

    def diag(self, n: int) -> list[float]:
        """Diagonal entries 1..n, in one pass over the vectors' rows.

        Each entry adds the vectors' squares in their stored order, the exact
        square where one is known, so it equals the per-index sum bit for bit.
        """
        s = [0.0] * n
        for v in self.vectors:
            for i, x, p, q in v.rows(n):
                s[i - 1] += x * x if p is None else p / q  # float(p/q), correctly rounded
        return s if self.form == "frame" else [1.0 - x for x in s]

    def exact_diag(self, n: int) -> list[Fraction | None]:
        """Exact diagonal entries 1..n; None where a vector there has only a float."""
        s: list[Fraction | None] = [Fraction(0)] * n
        for v in self.vectors:
            for i, _, p, q in v.rows(n):
                s[i - 1] = None if p is None or s[i - 1] is None else s[i - 1] + Fraction(p, q)
        return s if self.form == "frame" else [None if x is None else 1 - x for x in s]

    def gram(self) -> np.ndarray:
        """The n x n matrix of the vectors' inner products, bit for bit ``inner``'s.

        It is :meth:`gram_entries` written into a dense array of zeros.
        """
        n = len(self.vectors)
        i, j, x = self.gram_entries()
        g = np.zeros((n, n))
        g[i, j] = g[j, i] = x
        return g

    def gram_entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(i, j, x)``: the Gram entries G[i, j] = x, i <= j, that are stored; the rest are 0.0.

        Stored are every diagonal entry, every pair of vectors that share a
        support index, and every pair with a tailed vector.  Each value is
        bit for bit ``inner``'s, and the memory follows the shared entries
        and the tiles, not the n^2 pairs.

        Vectors without a sqrt tail meet only at shared support indices, so
        their entries are bucketed by index, and the vectors linked through
        shared indices form a component.  Each component is built one of two
        ways, whichever the fixed cost rule in ``_gram_tile`` prices lower (w
        n^2 tile entries for its n vectors over w indices, against the sweep's
        pair products).  The sweep walks the component's buckets in
        increasing index order, adding each pair's products from 0.0: the
        order ``inner`` adds them in.  The tile adds one outer product of the
        component's values per index, in the same order, to a dense block
        that starts at 0.0.  A pair absent at an index only adds +-0.0 there,
        so both give the same bits, and pairs that share no index stay 0.0.
        A component holding a non-finite value is swept, since inf * 0.0 is
        NaN.  When no bucket is large enough for a tile to pay, no component
        is looked for, and the work follows the shared entries, not the n^2
        pairs.

        Each pair with a sqrt-tail vector is ``inner``'s return value.
        """
        vs = self.vectors
        n = len(vs)
        at: dict[int, list[tuple[int, float]]] = {}
        for a, v in enumerate(vs):
            if v.sqrt_tail is None:
                for k, x in v.support:
                    at.setdefault(k, []).append((a, x))
        tiles: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        keys = sorted(at)
        big = max(map(len, at.values()), default=0)
        # with at most ``big`` vectors per bucket, an index saves at most
        # big(big+1)/2 pair products and its tile row costs at least big^2
        if _SWEEP_PAIR_COST * big * (big + 1) // 2 > _TILE_INDEX_COST + big * big:
            comps = _linked_indices(at, keys, n)
            keys = [k for mem, ks in comps if not _gram_tile(tiles, at, mem, ks) for k in ks]
        rows: list[dict[int, float]] = [{} for _ in vs]  # row a: b -> <v_a, v_b>, b >= a
        for k in keys:
            col = at[k]
            for p, (a, x) in enumerate(col):
                r = rows[a]
                for b, y in col[p:]:
                    r[b] = r.get(b, 0.0) + x * y
        for b, v in enumerate(vs):
            if v.sqrt_tail is not None:
                for c in range(n):
                    if c >= b or vs[c].sqrt_tail is None:  # each pair once
                        lo, hi = min(b, c), max(b, c)
                        rows[lo][hi] = vs[lo].inner(vs[hi])
        for a, v in enumerate(vs):
            if not v.support and v.sqrt_tail is None:  # the zero vector: G[a, a] = 0.0, stored
                rows[a][a] = 0.0
        i, j, x = [], [], []
        for a, r in enumerate(rows):
            i += [a] * len(r)
            j += r
            x += r.values()
        swept = np.array(i, dtype=np.intp), np.array(j, dtype=np.intp), np.array(x, dtype=float)
        return tuple(map(np.concatenate, zip(swept, *tiles))) if tiles else swept

    def dense(self, m: int) -> np.ndarray:
        v = np.vstack([w.dense(m) for w in self.vectors]) if self.vectors else np.zeros((0, m))
        p = v.T @ v
        return p if self.form == "frame" else np.eye(m) - p

    def to_json_dict(self) -> dict:
        return {"form": self.form, "vectors": [v.to_json_dict() for v in self.vectors]}

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "ProjectionRep":
        d = _json_object(d, "projection")
        vectors = _json_list(_json_field(d, "vectors", "projection"), "projection vectors")
        form = _json_field(d, "form", "projection")
        return cls(form, tuple(SparseVector.from_json_dict(v) for v in vectors))


# Cost rule of ``ProjectionRep.gram``, in units of one product-and-add of a
# dense tile: a pair product in the sweep's Python loop costs about
# _SWEEP_PAIR_COST units; a tile costs _TILE_COST units to set up and
# _TILE_INDEX_COST units of numpy call overhead per index on top of its n^2
# entries.  One broadcast forms the products of _TILE_PRODUCTS // n^2 indices
# (at least one), which bounds the tile's scratch memory.
_SWEEP_PAIR_COST = 48
_TILE_COST = 4000
_TILE_INDEX_COST = 400
_TILE_PRODUCTS = 1 << 16


def _linked_indices(
    at: dict[int, list[tuple[int, float]]], keys: list[int], n: int
) -> list[tuple[list[int], list[int]]]:
    """``(vectors, indices)`` of each component of vectors 0..n-1 linked by shared indices.

    Vectors in one bucket ``at[k]`` are linked.  Only components with an index
    in ``keys`` are returned; both lists keep increasing order.
    """
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for k in keys:
        col = at[k]
        r = find(col[0][0])
        for a, _ in col[1:]:
            if parent[a] != r:  # else a already hangs from r
                s = find(a)
                if s != r:
                    parent[s] = r
    groups: dict[int, tuple[list[int], list[int]]] = {}
    for k in keys:
        groups.setdefault(find(at[k][0][0]), ([], []))[1].append(k)
    for a in range(n):
        if (grp := groups.get(find(a))) is not None:
            grp[0].append(a)
    return list(groups.values())


def _gram_tile(
    tiles: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
    at: dict[int, list[tuple[int, float]]],
    members: list[int],
    keys: list[int],
) -> bool:
    """Build one component's Gram block as a dense tile and append its upper triangle to
    ``tiles`` as ``(i, j, x)``, or return False.

    ``members`` are the component's vectors and ``keys`` its indices, both in
    increasing order.  The tile adds the outer product of the component's
    values at each index, index by index, to a block that starts at 0.0.  The
    products come from elementwise broadcasts over a few indices at a time;
    nothing is a matrix product or a reduction along the indices, whose
    blocking or fused multiply-adds would change bits.  False when the sweep
    is priced lower or a value is not finite.
    """
    cols = [at[k] for k in keys]
    n = len(members)
    pairs = sum(len(col) * (len(col) + 1) // 2 for col in cols)
    if _TILE_COST + len(cols) * (n * n + _TILE_INDEX_COST) >= _SWEEP_PAIR_COST * pairs:
        return False
    pos = dict(zip(members, range(n)))
    vals = np.zeros((len(cols), n))
    vals[
        np.repeat(np.arange(len(cols)), [len(col) for col in cols]),
        [pos[a] for col in cols for a, _ in col],
    ] = [x for col in cols for _, x in col]
    if not np.isfinite(vals).all():
        return False
    t = np.zeros((n, n))
    step = max(1, _TILE_PRODUCTS // (n * n))
    for i in range(0, len(cols), step):
        block = vals[i : i + step]
        for p in block[:, :, None] * block[:, None, :]:  # one outer product per index
            t += p
    ids = np.array(members)
    upper = ids[:, None] <= ids  # t is symmetric bit for bit: x * y == y * x
    ti, tj = np.nonzero(upper)
    tiles.append((ids[ti], ids[tj], t[upper]))
    return True


# ---------------------------------------------------------------------------
# permutations


class PermutationWindow(IndexMap):
    """A permutation of the positive integers that is the identity beyond a window.

    The window is the index map's head: ``head[i-1]`` is the image of i for
    1 <= i <= M, and larger indices map to themselves.
    """

    def __post_init__(self):  # a bijection passes every index map check
        n = len(self.head)
        if sorted(self.head) != list(range(1, n + 1)) or (self.stride, self.offset) != (1, 1):
            raise SpecError(f"window is not a bijection of 1..{n}")

    @property
    def size(self) -> int:
        return len(self.head)

    def inverse(self) -> "PermutationWindow":
        inv = [0] * len(self.head)
        for i, img in enumerate(self.head, start=1):
            inv[img - 1] = i
        return PermutationWindow(tuple(inv))

    @classmethod
    def head_first(cls, head: Sequence[int]) -> "PermutationWindow":
        """Permutation (original -> slot): ``head`` takes slots 1..len(head) in
        order, every other index follows in increasing order, and the window
        ends at the last index that moves.
        """
        if len(set(head)) != len(head) or any(h < 1 for h in head):
            raise ConstructionError("internal: slot head repeats an index or holds one < 1")
        images = [0] * max(head, default=0)
        for slot, h in enumerate(head, start=1):
            images[h - 1] = slot
        slot = len(head)
        for i, img in enumerate(images):
            if not img:
                slot += 1
                images[i] = slot
        w = len(images)
        while w and images[w - 1] == w:
            w -= 1
        return cls(tuple(images[:w]))


def conjugate_by_permutation(rep: ProjectionRep, perm: PermutationWindow) -> ProjectionRep:
    """Conjugate by the basis permutation e_i -> e_{perm(i)}.

    The result Q satisfies diag(Q)(i) = diag(P)(perm(i)); vector supports are
    relabelled through the inverse permutation.
    """
    inv = perm.inverse()
    return ProjectionRep(rep.form, tuple(v.remap(inv) for v in rep.vectors))


# ---------------------------------------------------------------------------
# cell fields


@dataclass(frozen=True)
class CellField:
    """A finite measurable field at desk scale: one diagonal spec per cell."""

    cells: tuple[tuple[str, DiagonalSpec], ...]

    def __post_init__(self):
        ids = [c for c, _ in self.cells]
        bad = [c for c in ids if not isinstance(c, str)]
        if bad:
            raise SpecError(f"cell ids must be strings, got {bad[0]!r}")
        if len(set(ids)) != len(ids):
            dup = sorted({c for c in ids if ids.count(c) > 1})
            raise SpecError(f"duplicate cell ids: {dup}")

    @classmethod
    def from_json_list(cls, items: Sequence[Mapping]) -> "CellField":
        cells = []
        for d in _json_list(items, "cell field"):
            d = _json_object(d, "cell")
            cell = _json_field(d, "cell", "cell")
            cells.append((cell, DiagonalSpec.from_json_dict(_json_field(d, "spec", "cell"))))
        return cls(tuple(cells))


def _float_text(x: float) -> str:
    if -INF < x < INF:
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


_LEAF_TEXT = {str: encode_basestring_ascii, int: int.__repr__, float: _float_text,
              bool: {True: "true", False: "false"}.__getitem__, type(None): lambda x: "null"}


def _leaf_text(x, key: bool = False) -> str:
    """JSON text of a leaf or (``key``) a dict key: str, int, float, bool or None, subclasses in
    json's order; any other type is a TypeError with json's message."""
    leaf = _LEAF_TEXT.get(type(x)) or next(
        (_LEAF_TEXT[t] for t in (str, int, float) if isinstance(x, t)), None)
    if leaf is None:
        name = type(x).__name__
        raise TypeError(f"keys must be str, int, float, bool or None, not {name}" if key
                        else f"Object of type {name} is not JSON serializable")
    return encode_basestring_ascii(leaf(x)) if key and not isinstance(x, str) else leaf(x)


def _rows_text(xs: Sequence, ind: str) -> list[str] | None:
    """The texts of a list of ``[int, finite float]`` rows, one row per step; None if one is not."""
    fmt, out = f"[\n{ind}  %d,\n{ind}  %r\n{ind}]", []
    for r in xs:
        if type(r) is not list or len(r) != 2:
            return None
        i, v = r
        if type(i) is not int or type(v) is not float or not -INF < v < INF:
            return None
        out.append(fmt % (i, v))
    return out


def _dump(x, ind: str) -> str:
    leaf, inner = _LEAF_TEXT.get(type(x)), ind + "  "
    if leaf is not None:
        return leaf(x)
    if isinstance(x, (list, tuple)):
        brackets, parts = "[]", _rows_text(x, inner)
        if parts is None:
            try:
                parts = [_LEAF_TEXT[type(v)](v) for v in x]
            except KeyError:
                parts = [_dump(v, inner) for v in x]
    elif isinstance(x, dict):
        brackets = "{}"
        parts = [f"{_leaf_text(k, True)}: {_dump(v, inner)}" for k, v in sorted(x.items())]
    else:
        return _leaf_text(x)
    if not parts:
        return brackets
    # fold the brackets into the end parts: one join, and no second copy of a large text
    parts[0] = f"{brackets[0]}\n{inner}{parts[0]}"
    parts[-1] = f"{parts[-1]}\n{ind}{brackets[1]}"
    return f",\n{inner}".join(parts)


def dumps_canonical(obj) -> str:
    """Deterministic JSON text: sorted keys, stable float repr, 2-space indent.

    One recursive writer gives exactly the bytes of
    ``json.dumps(obj, sort_keys=True, indent=2)``, TypeErrors included.
    """
    return _dump(obj, "")
