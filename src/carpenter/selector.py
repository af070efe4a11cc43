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
from .feasibility import BranchLabel, Route, route
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
    a negative ``m`` or ``settled`` is a SpecError.

    Everything is read from the Gram's stored entries
    (:meth:`ProjectionRep.gram_entries`), which are the pairwise ``inner``
    values bit for bit, so no n x n array is made: ``gram_max_err`` is the
    largest |E| = |G - I| among them, and S is the vectors with a nonzero
    entry of E.  The rows of S are laid out once, over the indices <= m they
    touch.  The bound's two products, W = |E_S||V| and then max |V|^T W, are
    summed over E's nonzeros and V's stored entries when the fixed cost rule
    in ``_sparse_bound`` prices that below the dense products, and densely
    otherwise.  Either way each entry sums at most n terms, so the factor
    1 + 8n * 2^-53 keeps the bound at or above the dense float value.  The
    memory follows the stored entries, the Gram's dense tiles and the sparse
    side's products; the dense side, when priced lower, adds |S|^2 + 2|S||C| floats
    for the |C| touched indices and ``_DENSE_BLOCK`` floats of |V|^T W at a time.
    """
    for name, size in (("m", m), ("settled", settled)):
        if size is not None and size < 0:
            raise SpecError(f"{name} must be non-negative, got {size}")
    vs = rep.vectors
    n = len(vs)
    i, j, x = rep.gram_entries()
    e = np.abs(x - (i == j))  # |E| at the stored entries, i <= j; the rest of E is 0.0
    gram_err = float(e.max(initial=0.0))
    nz = e != 0  # a NaN is nonzero
    i, j, e = i[nz], j[nz], e[nz]
    in_s = np.zeros(n, dtype=bool)
    in_s[i] = in_s[j] = True  # the vectors S with a nonzero row of E
    idem_err = 0.0
    if len(e):
        s = np.flatnonzero(in_s)
        if len(s) < n:  # number S's rows 0, 1, ...
            row_of = np.cumsum(in_s) - 1
            i, j = row_of[i], row_of[j]
        # S's rows of |V|, laid out once over the indices C they touch, numbered as first met
        r, c, v, cols = [], [], [], {}
        for a, b in enumerate(s.tolist()):
            w = vs[b]
            rows = w.support  # all of its rows <= m, unless it has a tail or goes past m
            if w.sqrt_tail is not None or (rows and rows[-1][0] > m):
                rows = [(q, y) for q, y, _, _ in w.rows(m)]
            for q, y in rows:
                r.append(a)
                c.append(cols.setdefault(q, len(cols)))
                v.append(y)
        r, c = np.fromiter(r, np.intp, len(r)), np.fromiter(c, np.intp, len(c))
        v = np.abs(np.fromiter(v, float, len(v)))
        bound = _sparse_bound(i, j, e, r, c, v, len(s), len(cols))
        if bound is None:
            es, vd = np.zeros((len(s), len(s))), np.zeros((len(s), len(cols)))
            es[i, j] = es[j, i] = e
            vd[r, c] = v
            w, vt, step = es @ vd, vd.T, _DENSE_BLOCK // max(len(cols), 1) or 1
            blocks = [(vt @ w[:, k : k + step]).max(initial=0.0) for k in range(0, len(cols), step)]
            bound = float(np.max(blocks) if len(blocks) > 1 else blocks[0] if blocks else 0.0)
        idem_err = bound * (1 + 8 * n * 2.0**-53)
    upto = m if settled is None else min(settled, m)
    diag_err = 0.0
    for d, f in zip(rep.diag(upto), spec.float_entries(upto)):
        err = abs(d - f)
        if not err <= diag_err:  # a larger error, or a NaN, which ends the scan
            diag_err = err
            if math.isnan(err):
                break
    return VerificationReport(m, tol, upto, gram_err, diag_err, idem_err)


# Cost rule of ``_sparse_bound``, in units of one multiply-add of the dense
# matrix products: each product of the sparse evaluation costs about
# _SPARSE_TERM_COST units (its gather, multiply and sort-and-sum), and its
# fifty-odd numpy calls cost _SPARSE_COST units more than the dense side's few,
# whatever the size.
_SPARSE_TERM_COST = 600
_SPARSE_COST = 1_250_000
_DENSE_BLOCK = 1 << 22  # 32 MB; no bench verify has a |C|^2 past a fortieth of it


def _sparse_bound(i, j, e, r, col, v, ns: int, nc: int) -> float | None:
    """max |V|^T (|E| |V|) from the stored entries, or None when the dense products cost less.

    |E| is the symmetric ns x ns matrix with entries ``e`` at ``(i, j)``,
    i <= j, and |V| the ns x nc matrix with entries ``v`` at ``(r, col)``,
    ``r`` nondecreasing.  W = |E||V| takes, for each entry of |E| at (a, b),
    that entry times row b of |V| into row a; then each entry of W at (a, c)
    times row a of |V| goes to (c', c).  Equal positions are summed (each
    sum has at most ns terms), and the largest sum is returned.  The cost
    rule prices the dense products at ns^2 nc + ns nc^2 multiply-adds and
    this evaluation at its products, from the mean row length of |V|: W's
    before equal positions are summed, then at most min(nc, W's per row)
    per entry of |V|.
    """
    dense = ns * nc * (ns + nc)
    w = 2 * len(e) * len(v) / ns  # W's products, from the mean row length of |V|
    if _SPARSE_COST + _SPARSE_TERM_COST * (w + len(v) * min(nc, w / ns)) >= dense:
        return None
    off = i != j
    i, j, e = np.concatenate((i, j[off])), np.concatenate((j, i[off])), np.concatenate((e, e[off]))
    lens = np.bincount(r, minlength=ns)
    starts = np.cumsum(lens) - lens
    wa, wc, wx = _spread(i, e, j, lens, starts, col, v)
    keys, wx = _summed(wa * nc + wc, wx)
    wa, wc = np.divmod(keys, nc)
    pc, pk, px = _spread(wc, wx, wa, lens, starts, col, v)
    return float(_summed(pc * nc + pk, px)[1].max(initial=0.0))


def _summed(keys, x):
    """The distinct keys, increasing, and the sum of ``x`` over each, added in the given order."""
    order = np.argsort(keys, kind="stable")
    keys, x = keys[order], x[order]
    first = np.flatnonzero(np.diff(keys, prepend=-1))  # keys are >= 0
    return keys[first], np.add.reduceat(x, first)


def _spread(tag, scale, row, lens, starts, col, v):
    """``(tag, col, scale * v)`` for each entry t and each stored entry of |V| in row ``row[t]``."""
    cnt = lens[row]
    end = np.cumsum(cnt)
    pos = np.arange(end[-1] if len(end) else 0) + np.repeat(starts[row] - (end - cnt), cnt)
    return np.repeat(tag, cnt), col[pos], np.repeat(scale, cnt) * v[pos]


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


def _route_named(spec: DiagonalSpec, name: str) -> Route:
    """:func:`route` of a field's cell or a fiber: an InfeasibleDiagonalError is raised again
    as ``name: message``, with its report.  Shared by carpenter_field and synthesize_range."""
    try:
        return route(spec)
    except InfeasibleDiagonalError as e:
        raise InfeasibleDiagonalError(f"{name}: {e}", e.report) from None


def carpenter_field(field: CellField, m: int = 16) -> ProjectionField:
    """Run the selector on every cell, in order, deterministically.

    The first infeasible cell aborts the whole field with an error naming it.
    """
    out = []
    for cell_id, spec in field.cells:
        r = _route_named(spec, f"cell {cell_id!r}")
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
