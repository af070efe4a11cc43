"""Top-level selection, verification and randomized cross-checks.

``carpenter`` runs the constructor that :func:`carpenter.feasibility.route`
picks for a diagonal spec; ``carpenter_field`` does the same for every cell of
a finite field, deterministically.  ``verify_projection`` re-derives the
numerical evidence that a representation really is a projection with the
requested diagonal.
``necessity_oracle`` samples random finite projections and conjugates to
confirm that their diagonals always pass the integrality test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InfeasibleDiagonalError, SpecError
from .feasibility import BranchLabel, route
from .seqcore import CellField, DiagonalSpec, ProjectionRep

__all__ = [
    "carpenter",
    "VerificationReport",
    "verify_projection",
    "FieldCell",
    "ProjectionField",
    "carpenter_field",
    "NecessityReport",
    "necessity_oracle",
]


def carpenter(spec: DiagonalSpec, m: int = 16, trace: dict | None = None) -> ProjectionRep:
    """Build a projection representation with the requested diagonal.

    ``m`` bounds the number of streamed vectors per subsequence in the
    divergent case; convergent-defect constructions ignore it and settle every
    entry.  Raises InfeasibleDiagonalError when no such projection exists.
    This is ``route(spec).build(m, trace)``; ``build_settled`` also returns
    the settled prefix (None = fully settled), which a passed ``trace`` dict
    records beside the branch label, the case report and the bookkeeping.
    """
    return route(spec).build(m, trace)


@dataclass(frozen=True)
class VerificationReport:
    """Numerical evidence that a representation matches a spec.

    ``gram_max_err``: worst deviation of the vector Gram matrix G from
    identity; ``diag_max_err``: worst settled diagonal deviation;
    ``idempotency_err``: an upper bound on the max norm of V^T (G - I) V,
    which bounds the truncated P^2 - P without charging truncation against
    the representation.  The bound is max |V|^T |G - I| |V| over the vectors
    whose row of G - I is nonzero, times 1 + 8n * 2^-53 for n vectors, so it
    is never below the float value of the dense product: the factor covers
    the rounding of both products in either evaluation while n * 2^-53 <=
    0.01 and nothing underflows.  P = +-V^T V is symmetric by construction,
    so symmetry needs no check.
    """

    dim: int
    tol: float
    settled: int
    gram_max_err: float
    diag_max_err: float
    idempotency_err: float

    @property
    def passed(self) -> bool:
        errs = (self.gram_max_err, self.diag_max_err, self.idempotency_err)
        return all(e <= self.tol for e in errs)  # a NaN error fails

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "tol": self.tol,
            "settled": self.settled,
            "gramMaxErr": self.gram_max_err,
            "diagMaxErr": self.diag_max_err,
            "idempotencyErr": self.idempotency_err,
            "passed": self.passed,
        }


def verify_projection(
    rep: ProjectionRep,
    spec: DiagonalSpec,
    m: int = 16,
    tol: float = 1e-9,
    settled: int | None = None,
) -> VerificationReport:
    """Check orthonormality, idempotency and the settled diagonal.

    ``settled`` limits the diagonal comparison to entries no later vector can
    change (None = all of 1..m are settled, as for complete constructions);
    a negative ``m`` or ``settled`` is a SpecError.  The idempotency bound lays out
    densely only the vectors with a nonzero row of E = G - I, cut to the
    indices <= m they touch.
    """
    for name, size in (("m", m), ("settled", settled)):
        if size is not None and size < 0:
            raise SpecError(f"{name} must be non-negative, got {size}")
    vs = rep.vectors
    n = len(vs)
    e = rep.gram()  # becomes |E| = |G - I| in place: one n x n array
    e.flat[:: n + 1] -= 1.0
    np.abs(e, out=e)
    gram_err = float(e.max()) if n else 0.0
    s = np.flatnonzero(e.any(axis=1))  # the vectors S with a nonzero row of E
    idem_err = 0.0
    if len(s):
        v = np.abs(np.vstack([vs[a].dense(m) for a in s]))
        v = v[:, v.any(axis=0)]  # the indices C <= m that S touches
        e_s = e if len(s) == n else e[s[:, None], s]
        idem_err = float((v.T @ (e_s @ v)).max(initial=0.0)) * (1 + 8 * n * 2.0**-53)
    upto = m if settled is None else min(settled, m)
    diag_err = 0.0
    for d, f in zip(rep.diag(upto), spec.float_entries(upto)):
        err = abs(d - f)
        if not err <= diag_err:  # a larger error, or a NaN, which ends the scan
            diag_err = err
            if math.isnan(err):
                break
    return VerificationReport(m, tol, upto, gram_err, diag_err, idem_err)


# ---------------------------------------------------------------------------
# fields of diagonals


@dataclass(frozen=True)
class FieldCell:
    cell_id: str
    label: BranchLabel
    rep: ProjectionRep
    settled: int | None

    def to_json_dict(self) -> dict:
        return {
            "cell": self.cell_id,
            "branch": list(self.label.path),
            "settled": self.settled,
            "projection": self.rep.to_json_dict(),
        }


@dataclass(frozen=True)
class ProjectionField:
    """Per-cell projections over a finite field of diagonals."""

    cells: tuple[FieldCell, ...]

    def by_branch(self) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {}
        for c in self.cells:
            out.setdefault(str(c.label), []).append(c.cell_id)
        return out

    def to_json_dict(self) -> dict:
        return {"cells": [c.to_json_dict() for c in self.cells]}


def carpenter_field(field: CellField, m: int = 16) -> ProjectionField:
    """Run the selector on every cell, in order, deterministically.

    The first infeasible cell aborts the whole field with an error naming it.
    """
    out = []
    for cell_id, spec in field.cells:
        try:
            r = route(spec)
        except InfeasibleDiagonalError as e:
            raise InfeasibleDiagonalError(f"cell {cell_id!r}: {e}", e.report) from None
        rep, settled = r.build_settled(m)
        out.append(FieldCell(cell_id, r.label, rep, settled))
    return ProjectionField(tuple(out))


# ---------------------------------------------------------------------------
# randomized necessity checks


@dataclass(frozen=True)
class NecessityReport:
    dim: int
    trials: int
    tol: float
    violations: int
    worst_distance: float

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "trials": self.trials,
            "tol": self.tol,
            "violations": self.violations,
            "worstDistance": self.worst_distance,
            "passed": self.passed,
        }


def _random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def necessity_oracle(dim: int, trials: int, seed: int = 1729, tol: float = 1e-9) -> NecessityReport:
    """Sample conjugated finite projections; their diagonals must pass the test.

    For each trial a random rank and random orthogonal conjugation produce a
    projection diagonal d; the defect sums a = sum of small entries and
    b = sum of (1 - large entries) must differ by an integer up to roundoff
    (entries are exact dyadic floats, the sums are computed exactly).  A
    negative ``dim`` or ``trials`` is a SpecError.
    """
    for name, size in (("dim", dim), ("trials", trials)):
        if size < 0:
            raise SpecError(f"{name} must be non-negative, got {size}")
    rng = np.random.default_rng(seed)
    violations = 0
    worst = 0.0
    for _ in range(trials):
        rank = int(rng.integers(0, dim + 1))
        u = _random_orthogonal(rng, dim)
        d = (u[:rank, :] ** 2).sum(axis=0)  # diag of U^T diag(1^rank 0^..) U
        a = sum((Fraction(float(x)) for x in d if x <= 0.5), Fraction(0))
        b = sum((1 - Fraction(float(x)) for x in d if x > 0.5), Fraction(0))
        dist = abs(float(a - b) - round(float(a - b)))
        worst = max(worst, dist)
        if dist > tol:
            violations += 1
    return NecessityReport(dim, trials, tol, violations, worst)
