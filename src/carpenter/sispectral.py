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
from typing import Mapping, Sequence

from .errors import ExactnessError, InfeasibleDiagonalError, SpecError
from .feasibility import FeasibilityReport, classify, route
from .seqcore import DiagonalSpec, ProjectionRep, TailRule, _json_list, _json_object, fmt_rat, rat
from .selector import verify_projection

__all__ = [
    "SpectralFiber",
    "SpectralSamples",
    "RangeFiber",
    "RangeFunctionFile",
    "check_spectral",
    "synthesize_range",
    "extract_spectral",
]


def _norm_point(k, d: int) -> tuple[int, ...]:
    if isinstance(k, int):
        k = (k,)
    pt = tuple(int(x) for x in k)
    if len(pt) != d:
        raise SpecError(f"window point {pt} has dimension {len(pt)}, expected {d}")
    return pt


@dataclass(frozen=True)
class SpectralFiber:
    """One base point: its coordinates and the sampled diagonal values."""

    xi: tuple[float, ...]
    values: tuple[Fraction, ...]
    tail: TailRule

    def spec(self) -> DiagonalSpec:
        return DiagonalSpec(self.values, self.tail)

    def label(self) -> str:
        return "(" + ", ".join(repr(x) for x in self.xi) + ")"


@dataclass(frozen=True)
class SpectralSamples:
    """A sampled spectral family over a finite translate window."""

    d: int
    window: tuple[tuple[int, ...], ...]
    fibers: tuple[SpectralFiber, ...]

    def __post_init__(self):
        if len(set(self.window)) != len(self.window):
            raise SpecError("window points must be distinct")
        for f in self.fibers:
            if len(f.values) != len(self.window):
                raise SpecError(
                    f"fiber {f.label()} has {len(f.values)} values for a "
                    f"window of {len(self.window)}"
                )

    def to_json_dict(self) -> dict:
        out = {
            "d": self.d,
            "window": [list(k) for k in self.window],
            "fibers": [],
        }
        for f in self.fibers:
            fd: dict = {"xi": list(f.xi), "values": [fmt_rat(v) for v in f.values]}
            if f.tail.kind != "zero":
                fd["tail"] = f.tail.to_json_dict()
            out["fibers"].append(fd)
        return out

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "SpectralSamples":
        doc = _json_object(doc, "spectral samples")
        d = int(doc.get("d", 1))
        window = tuple(_norm_point(k, d) for k in _json_list(doc["window"], "window"))
        fibers = []
        for fd in _json_list(doc["fibers"], "fibers"):
            fd = _json_object(fd, "fiber")
            xi = tuple(float(x) for x in (fd["xi"] if isinstance(fd["xi"], Sequence) else [fd["xi"]]))
            vals = tuple(rat(v) for v in _json_list(fd["values"], "fiber values"))
            td = fd.get("tail")
            tail = TailRule.zero() if td is None else TailRule.from_json_dict(td)
            fibers.append(SpectralFiber(xi, vals, tail))
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

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "window": [list(k) for k in self.window],
            "fibers": [
                {
                    "xi": list(f.xi),
                    "branch": list(f.branch),
                    "settled": f.settled,
                    "projection": f.rep.to_json_dict(),
                }
                for f in self.fibers
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "RangeFunctionFile":
        d = int(doc.get("d", 1))
        window = tuple(_norm_point(k, d) for k in doc["window"])
        fibers = tuple(
            RangeFiber(
                tuple(float(x) for x in fd["xi"]),
                ProjectionRep.from_json_dict(fd["projection"]),
                tuple(fd.get("branch", ())),
                fd.get("settled"),
            )
            for fd in doc["fibers"]
        )
        return cls(d, window, fibers)


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
        try:
            r = route(spec)
        except InfeasibleDiagonalError as e:
            raise InfeasibleDiagonalError(f"fiber xi = {f.label()}: {e}") from None
        trace: dict = {}
        rep = r.build(m, trace)
        dim = max(m, len(samples.window))
        ver = verify_projection(rep, spec, dim, tol, trace["settled_prefix"])
        if not ver.passed:
            raise InfeasibleDiagonalError(
                f"fiber xi = {f.label()}: construction failed verification "
                f"({ver.to_json_dict()})"
            )
        out.append(RangeFiber(f.xi, rep, r.label.path, trace["settled_prefix"]))
    return RangeFunctionFile(samples.d, samples.window, tuple(out))


def extract_spectral(rangefile: RangeFunctionFile) -> SpectralSamples:
    """Read the diagonals back off a range file (exact where available)."""
    fibers = []
    for f in rangefile.fibers:
        vals = []
        for i in range(1, len(rangefile.window) + 1):
            try:
                q = f.rep.exact_diag(i)
            except ExactnessError:
                q = Fraction(f.rep.diag(i))
            vals.append(min(max(q, Fraction(0)), Fraction(1)))  # shave roundoff
        fibers.append(SpectralFiber(f.xi, tuple(vals), TailRule.zero()))
    return SpectralSamples(rangefile.d, rangefile.window, tuple(fibers))
