"""Fiberwise diagonal prescriptions for shift-invariant range functions.

A sampled spectral family assigns to each base point xi a candidate diagonal
sequence: the first entries sit on an explicit window of integer translates,
an optional closed tail covers the rest.  Feasibility and construction reduce
to the one-fiber problem, applied independently per fiber; the results bundle
into a range-function file mapping each fiber to a projection representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .errors import InfeasibleDiagonalError, SpecError
from .feasibility import FeasibilityReport, classify
from .seqcore import DiagonalSpec, ProjectionRep, TailRule, rat
from .seqcore import _json_field, _json_int, _json_list, _json_number, _json_object
from .selector import _route_named, verify_projection

__all__ = [
    "SpectralFiber",
    "SpectralSamples",
    "RangeFiber",
    "RangeFunctionFile",
    "check_spectral",
    "synthesize_range",
    "extract_spectral",
]


def _coords(x, parse, what: str) -> tuple:
    """A JSON scalar or list of scalars as a tuple, each read by ``parse``."""
    return tuple(parse(v, what) for v in (x if isinstance(x, (list, tuple)) else (x,)))


def _window_from_json(doc: Mapping, what: str) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The dimension ``d`` and the translate window of a samples or range document ``what``."""
    doc = _json_object(doc, what)
    d = _json_int(doc.get("d", 1), "d")
    window = _json_list(_json_field(doc, "window", what), "window")
    return d, tuple(_coords(k, _json_int, "window coordinate") for k in window)


def _xi_label(xi) -> str:
    return "(" + ", ".join(repr(x) for x in xi) + ")"


def _check_dims(d: int, window, xis) -> None:
    """SpecError unless d >= 1 and every window point and fiber xi has dimension d.

    The one check behind ``SpectralSamples`` and ``RangeFunctionFile``, so the
    API refuses what their decoders refuse, with the same messages.
    """
    if d < 1:
        raise SpecError(f"dimension d must be >= 1, got {d}")
    for pt in window:
        if len(pt) != d:
            raise SpecError(f"window point {pt} has dimension {len(pt)}, expected {d}")
    for xi in xis:
        if len(xi) != d:
            raise SpecError(f"fiber xi = {_xi_label(xi)} has dimension {len(xi)}, expected {d}")


@dataclass(frozen=True)
class SpectralFiber:
    """One base point: its coordinates and the sampled diagonal values."""

    xi: tuple[float, ...]
    values: tuple[Fraction, ...]
    tail: TailRule

    def spec(self) -> DiagonalSpec:
        return DiagonalSpec(self.values, self.tail)

    def label(self) -> str:
        return _xi_label(self.xi)


@dataclass(frozen=True)
class SpectralSamples:
    """A sampled spectral family over a finite translate window."""

    d: int
    window: tuple[tuple[int, ...], ...]
    fibers: tuple[SpectralFiber, ...]

    def __post_init__(self):
        _check_dims(self.d, self.window, (f.xi for f in self.fibers))
        if len(set(self.window)) != len(self.window):
            raise SpecError("window points must be distinct")
        for f in self.fibers:
            if len(f.values) != len(self.window):
                raise SpecError(
                    f"fiber {f.label()} has {len(f.values)} values for a "
                    f"window of {len(self.window)}"
                )

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "SpectralSamples":
        d, window = _window_from_json(doc, "spectral samples")
        fibers = []
        for fd in _json_list(_json_field(doc, "fibers", "spectral samples"), "fibers"):
            fd = _json_object(fd, "fiber")
            xi = _coords(_json_field(fd, "xi", "fiber"), _json_number, "xi")
            vals = _json_list(_json_field(fd, "values", "fiber"), "fiber values")
            td = fd.get("tail")
            tail = TailRule.zero() if td is None else TailRule.from_json_dict(td)
            fibers.append(SpectralFiber(xi, tuple(rat(v) for v in vals), tail))
        return cls(d, window, tuple(fibers))


@dataclass(frozen=True)
class RangeFiber:
    xi: tuple[float, ...]
    rep: ProjectionRep
    branch: tuple[str, ...]
    settled: int | None


@dataclass(frozen=True)
class RangeFunctionFile:
    """Synthesized projections per fiber, aligned with the sample window."""

    d: int
    window: tuple[tuple[int, ...], ...]
    fibers: tuple[RangeFiber, ...]

    def __post_init__(self):
        _check_dims(self.d, self.window, (f.xi for f in self.fibers))

    def to_json_dict(self) -> dict:
        fibers = [
            {
                "xi": list(f.xi),
                "branch": list(f.branch),
                "settled": f.settled,
                "projection": f.rep.to_json_dict(),
            }
            for f in self.fibers
        ]
        return {"d": self.d, "window": [list(k) for k in self.window], "fibers": fibers}

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "RangeFunctionFile":
        d, window = _window_from_json(doc, "range function")
        fibers = []
        for fd in _json_list(_json_field(doc, "fibers", "range function"), "fibers"):
            fd = _json_object(fd, "fiber")
            xi = _coords(_json_field(fd, "xi", "fiber"), _json_number, "xi")
            rep = ProjectionRep.from_json_dict(_json_field(fd, "projection", "fiber"))
            branch = tuple(_json_list(fd.get("branch", ()), "fiber branch"))
            if not all(isinstance(b, str) for b in branch):
                raise SpecError(f"fiber branch entries must be strings, got {list(branch)!r}")
            settled = fd.get("settled")
            if settled is not None and (settled := _json_int(settled, "fiber settled")) < 0:
                raise SpecError(f"fiber settled must be >= 0, got {settled}")
            fibers.append(RangeFiber(xi, rep, branch, settled))
        return cls(d, window, tuple(fibers))


def check_spectral(samples: SpectralSamples) -> list[tuple[SpectralFiber, FeasibilityReport]]:
    """Feasibility report for every fiber, in order."""
    return [(f, classify(f.spec())) for f in samples.fibers]


def synthesize_range(samples: SpectralSamples, m: int = 16, tol: float = 1e-9) -> RangeFunctionFile:
    """Construct a projection per fiber; raises naming the first bad fiber.

    Each construction is verified (Gram, idempotency, settled diagonal) before
    the file is assembled.
    """
    out = []
    for f in samples.fibers:
        spec = f.spec()
        r = _route_named(spec, f"fiber xi = {f.label()}")
        rep, settled = r.build_settled(m)
        dim = max(m, len(samples.window))
        ver = verify_projection(rep, spec, dim, tol, settled)
        if not ver.passed:
            raise InfeasibleDiagonalError(
                f"fiber xi = {f.label()}: construction failed verification "
                f"({ver.to_json_dict()})"
            )
        out.append(RangeFiber(f.xi, rep, r.label.path, settled))
    return RangeFunctionFile(samples.d, samples.window, tuple(out))


def extract_spectral(rangefile: RangeFunctionFile) -> SpectralSamples:
    """Read the diagonals back off a range file (exact where available)."""
    n = len(rangefile.window)
    fibers = []
    for f in rangefile.fibers:
        vals = tuple(
            min(max(Fraction(x) if q is None else q, Fraction(0)), Fraction(1))  # shave roundoff
            for q, x in zip(f.rep.exact_diag(n), f.rep.diag(n))
        )
        fibers.append(SpectralFiber(f.xi, vals, TailRule.zero()))
    return SpectralSamples(rangefile.d, rangefile.window, tuple(fibers))
