"""Feasibility of a prescribed diagonal, and the one routing decision.

For entries d_i in [0,1] put a = sum of the entries <= 1/2 and
b = sum of (1 - d_i) over entries > 1/2 (entries equal to 1/2 always count
toward a).  A projection with diagonal (d_i) exists iff a or b is infinite,
or both are finite and a - b is an integer.  Everything here is computed in
exact rational arithmetic; divergent sums come back as INF.

``route`` is the single decision tree: it classifies a spec once, and each
leaf carries both the branch label and the constructor that builds it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import InfeasibleDiagonalError, UnsupportedStructureError
from .seqcore import INF, DiagonalSpec, ProjectionRep, fmt_rat

__all__ = [
    "FeasibilityReport",
    "BranchLabel",
    "Route",
    "classify",
    "route",
    "branch_of",
]


def kadison_ab(spec: DiagonalSpec):
    """The pair (a, b) of threshold sums, each a Fraction or INF.

    The prefix part adds integers: each entry x is scaled to n = d*x over the
    common denominator d of the prefix, and a large entry adds d - n to b.
    """
    d, nums = spec.den, spec.nums
    a = sum(n for n in nums if 2 * n <= d)  # d * (prefix part of a)
    b = sum(d - n for n in nums if 2 * n > d)  # d * (prefix part of b)
    a, b = Fraction(a, d), Fraction(b, d)
    tail = spec.tail
    e, rest_small = tail.half_exceptions()
    head = tail.partial_sum(e)  # the e tail entries on the other side of 1/2
    if rest_small:
        return a + tail.sum_from(e + 1), b + (e - head)
    return a + head, b + tail.complement().sum_from(e + 1)


@dataclass(frozen=True)
class FeasibilityReport:
    a: Fraction | float
    b: Fraction | float
    verdict: str  # "feasible" | "infeasible"
    case: str  # "nonsummable_a" | "nonsummable_b" | "summable"
    diff: int | None  # a - b when both sums are finite and integral

    @property
    def feasible(self) -> bool:
        return self.verdict == "feasible"

    def to_json_dict(self) -> dict:
        show = lambda s: "inf" if s == INF else fmt_rat(s)
        return {
            "a": show(self.a),
            "b": show(self.b),
            "verdict": self.verdict,
            "case": self.case,
            "diff": self.diff,
        }


def classify(spec: DiagonalSpec) -> FeasibilityReport:
    """Decide feasibility exactly and name the construction case."""
    a, b = kadison_ab(spec)
    if a == INF:
        return FeasibilityReport(a, b, "feasible", "nonsummable_a", None)
    if b == INF:
        return FeasibilityReport(a, b, "feasible", "nonsummable_b", None)
    d = a - b
    if d.denominator == 1:
        return FeasibilityReport(a, b, "feasible", "summable", int(d))
    return FeasibilityReport(a, b, "infeasible", "summable", None)


@dataclass(frozen=True)
class BranchLabel:
    """The decision path a spec takes through the construction dispatch."""

    path: tuple[str, ...]

    def __str__(self) -> str:
        return "/".join(self.path)


@dataclass(frozen=True)
class Route:
    """A spec's leaf of the decision tree: its case report, the label naming
    the leaf, and the leaf's constructor ``leaf(m, trace)``.  A leaf returns
    the representation, every vector in place, and its settled prefix (None =
    fully settled).  A passed trace dict records ``branch``, ``report`` and
    ``settled_prefix`` next to the leaf's bookkeeping; without one nothing is
    recorded or formatted.
    """

    report: FeasibilityReport
    label: BranchLabel
    leaf: Callable[[int, dict | None], tuple[ProjectionRep, int | None]]

    def build_settled(
        self, m: int = 16, trace: dict | None = None
    ) -> tuple[ProjectionRep, int | None]:
        """The one build: the leaf's output, of which ``build`` keeps the first element."""
        if trace is not None:
            trace["branch"] = list(self.label.path)
            trace["report"] = self.report.to_json_dict()
        rep, settled = self.leaf(m, trace)
        if trace is not None:
            trace["settled_prefix"] = settled
        return rep, settled

    def build(self, m: int = 16, trace: dict | None = None) -> ProjectionRep:
        return self.build_settled(m, trace)[0]


def route(spec: DiagonalSpec) -> Route:
    """Classify ``spec`` once and pick the constructor that applies; exact.

    Every tetris leaf builds through :func:`tetris.tetris` on the side with
    finitely many entries > 1/2: a divergent sum streams m vectors per part,
    and a finite mass N fills N vectors as the k = 0 or k = 1 residue split.
    Raises InfeasibleDiagonalError (carrying the report) on infeasible specs
    and UnsupportedStructureError where no constructor applies.
    """
    report = classify(spec)
    if not report.feasible:
        raise InfeasibleDiagonalError(
            f"no projection with this diagonal: a = {fmt_rat(report.a)}, b = {fmt_rat(report.b)}, "
            f"a - b = {fmt_rat(report.a - report.b)} is not an integer",
            report,
        )
    from . import summable, tetris  # deferred: both constructor modules import this one

    if report.case != "summable":
        # stream on the side whose small-entry mass diverges
        flip = report.case == "nonsummable_b"
        work = spec.complement() if flip else spec
        k = work.half_classes().count(False)
        if k == INF:
            raise UnsupportedStructureError(
                "divergent small-entry mass with infinitely many entries > 1/2: "
                "not expressible with the supported tails"
            )
        head = ("NonsummableB", "S_finite", "complement") if flip else ("NonsummableA", "S_infty")
        leaf = ("X_k(k=0)", "tetris") if k == 0 else (f"X_k(k={k})", f"residue-split(k={k})")
        path = head + leaf

        def build(m, trace):  # complemented back if flip
            rep, settled = tetris.tetris(work, k, m, trace)
            return (rep.complementary() if flip else rep), settled

    else:
        prop = spec.proper_classes()
        n_proper = prop.count(True)
        if n_proper != INF:
            path = ("Summable", f"X_{{k1..kn}}(n={n_proper})", "finite-schur-horn")
            build = lambda m, trace: (summable._finite_schur_horn(spec), None)
        else:
            # strip the 0/1 entries; each leaf places the proper ones through emb
            sub, emb, improper = summable.proper_subspec(spec)
            half = sub.half_classes()
            n_small, n_large = half.count(True), half.count(False)
            if n_large == INF and n_small == INF:
                raise UnsupportedStructureError(
                    "both threshold classes infinite with convergent sums: "
                    "not expressible with the supported tails"
                )
            if n_large == INF and n_small >= 2:
                leaf = ("X'", f"X_N(N={n_small})", "decouple")
                fill = lambda m, trace: summable.summable_construct2(sub, trace, emb)
            elif n_large == INF:
                leaf = ("X'", f"X_N(N={n_small})", "complement-tetris")
                work = sub.complement()
                k = work.half_classes().count(False)
                fill = lambda m, trace: tetris.tetris(work, k, m, trace, emb)[0].complementary()
            elif n_large >= 2:
                leaf = ("X\\X'", "complement", f"X_N(N={n_large})", "decouple")
                fill = lambda m, trace: summable.summable_construct2(
                    sub.complement(), trace, emb
                ).complementary()
            else:
                leaf = ("X\\X'", f"X_N(N={n_large})", "tetris")
                fill = lambda m, trace: tetris.tetris(sub, n_large, m, trace, emb)[0]
            path = ("Summable", "proper-infinite") + leaf
            # a finite mass is filled completely: every entry is settled
            build = lambda m, trace: (summable.embed_with_improper(fill(m, trace), improper), None)

    return Route(report, BranchLabel(path), build)


def branch_of(spec: DiagonalSpec) -> BranchLabel:
    """Label of the branch the constructor follows; see :func:`route`."""
    return route(spec).label
