import json
import math
from fractions import Fraction as F

import numpy as np
import pytest

from carpenter.errors import InfeasibleDiagonalError, SpecError, UnsupportedStructureError
from carpenter.feasibility import classify
from carpenter.seqcore import (
    CellField,
    DiagonalSpec,
    ProjectionRep,
    SparseVector,
    SqrtTail,
    TailRule,
    dumps_canonical,
)
from carpenter.selector import (
    VerificationReport,
    carpenter,
    carpenter_field,
    necessity_oracle,
    verify_projection,
)


def spec(*values, tail=None):
    return DiagonalSpec.of(*values, tail=tail or TailRule.zero())


BRANCH_BATTERY = [
    (spec(tail=TailRule.constant("2/5")), "NonsummableA/S_infty/X_k(k=0)/tetris"),
    (
        spec("3/4", "2/3", tail=TailRule.constant("2/5")),
        "NonsummableA/S_infty/X_k(k=2)/residue-split(k=2)",
    ),
    (
        spec(tail=TailRule.constant("3/5")),
        "NonsummableB/S_finite/complement/X_k(k=0)/tetris",
    ),
    (
        spec("1/3", tail=TailRule.constant("3/5")),
        "NonsummableB/S_finite/complement/X_k(k=1)/residue-split(k=1)",
    ),
    (spec("1", "0", "1/2", "1/2", "3/4", "1/4"), "Summable/X_{k1..kn}(n=4)/finite-schur-horn"),
    (
        spec("3/10", "1/5", tail=TailRule.one_minus_geometric("1/4", "1/2")),
        "Summable/proper-infinite/X'/X_N(N=2)/decouple",
    ),
    (
        spec("1/4", tail=TailRule.one_minus_geometric("1/8", "1/2")),
        "Summable/proper-infinite/X'/X_N(N=1)/complement-tetris",
    ),
    (
        spec("3/4", "7/8", "3/16", "1/16", tail=TailRule.geometric("1/16", "1/2")),
        "Summable/proper-infinite/X\\X'/complement/X_N(N=2)/decouple",
    ),
    (
        spec("3/4", "1/8", tail=TailRule.geometric("1/16", "1/2")),
        "Summable/proper-infinite/X\\X'/X_N(N=1)/tetris",
    ),
]


def test_carpenter_every_branch_verifies(classify_calls):
    # the battery covers all three cases and every summable leaf
    for s, want in BRANCH_BATTERY:
        trace = {}
        del classify_calls[:]
        rep = carpenter(s, m=6, trace=trace)
        assert len(classify_calls) == 1, f"{want}: classified {len(classify_calls)} times"
        assert "/".join(trace["branch"]) == want
        report = verify_projection(rep, s, m=6)
        assert report.passed, f"{want}: {report.to_json_dict()}"


def test_carpenter_rejects_infeasible():
    with pytest.raises(InfeasibleDiagonalError) as err:
        carpenter(spec("1/4"))
    assert "1/4" in str(err.value)


def test_carpenter_identity_and_zero():
    zeros = spec(tail=TailRule.constant("0"))
    rep0 = carpenter(zeros, m=4)
    assert rep0.form == "frame" and len(rep0.vectors) == 0
    assert verify_projection(rep0, zeros, m=4).passed
    ones = spec(tail=TailRule.constant("1"))
    rep1 = carpenter(ones, m=4)
    assert rep1.form == "coframe" and len(rep1.vectors) == 0
    assert verify_projection(rep1, ones, m=4).passed


def test_verify_projection_report_fields():
    s = spec(tail=TailRule.constant("2/5"))
    rep = carpenter(s, m=4)
    r = verify_projection(rep, s, m=4)
    d = r.to_json_dict()
    assert set(d) >= {"gramMaxErr", "diagMaxErr", "idempotencyErr", "passed"}
    assert d["passed"] is True
    assert r.gram_max_err <= 1e-12
    assert r.settled == 4  # defaults to the full truncation window


def test_verify_projection_catches_corruption():
    s = spec(tail=TailRule.constant("2/5"))
    rep = carpenter(s, m=4)
    # scale one vector: no longer a projection
    bad_vecs = (rep.vectors[0],) + tuple(
        SparseVector(tuple((i, 0.9 * v) for i, v in w.support), w.sqrt_tail, None)
        for w in rep.vectors[1:2]
    ) + rep.vectors[2:]
    bad = type(rep)(rep.form, bad_vecs)
    r = verify_projection(bad, s, m=4)
    assert not r.passed
    assert r.gram_max_err > 1e-3


def test_verify_projection_respects_explicit_settled():
    s = spec(tail=TailRule.constant("2/5"))
    rep = carpenter(s, m=4)
    r = verify_projection(rep, s, m=4, settled=3)
    assert r.settled == 3 and r.passed


def test_verify_projection_fails_on_nan_entries():
    # e1 e1^T with a NaN in place of 1: the diagonal error is NaN, not 0.0
    s = DiagonalSpec.of("1/2")
    for sqs in (None, (1, (1,))):
        rep = ProjectionRep.frame((SparseVector(((1, math.nan),), None, sqs),))
        r = verify_projection(rep, s, 1)
        assert not r.passed
        assert math.isnan(r.gram_max_err)
        assert math.isnan(r.diag_max_err) if sqs is None else r.diag_max_err == 0.5
    # a NaN diagonal entry stays the error when later entries are finite
    rep = ProjectionRep.frame((SparseVector(((1, math.nan),)), SparseVector.basis(2)))
    assert math.isnan(verify_projection(rep, DiagonalSpec.of("1/2", "1/2"), 2).diag_max_err)
    # any one NaN error fails the report, wherever it sits
    for errs in ((math.nan, 0.0, 0.0), (0.0, math.nan, 0.0), (0.0, 0.0, math.nan)):
        assert not VerificationReport(1, 1e-9, 1, *errs).passed


def test_verify_projection_rejects_negative_settled():
    # e1 e1^T has diagonal 1 at index 1; a negative prefix would compare nothing
    rep = ProjectionRep.frame((SparseVector.basis(1),))
    with pytest.raises(SpecError, match="settled"):
        verify_projection(rep, DiagonalSpec.of("1/2"), 4, settled=-2)
    assert verify_projection(rep, DiagonalSpec.of("1/2"), 4, settled=0).passed  # nothing settled
    assert not verify_projection(rep, DiagonalSpec.of("1/2"), 4, settled=1).passed


def test_verify_projection_rejects_negative_dimension():
    s = DiagonalSpec((), TailRule.constant("2/5"))
    rep = carpenter(s, 8)
    with pytest.raises(SpecError, match=r"^m must be non-negative, got -1$"):
        verify_projection(rep, s, -1)
    assert verify_projection(rep, s, 0).passed  # an empty window compares nothing


@pytest.mark.parametrize("dim, trials, name", [(-1, 3, "dim"), (3, -1, "trials")])
def test_necessity_oracle_rejects_negative_sizes(dim, trials, name):
    with pytest.raises(SpecError, match=rf"^{name} must be non-negative, got -1$"):
        necessity_oracle(dim, trials)


def test_carpenter_field_runs_all_cells(classify_calls):
    field = CellField(
        (
            ("a", spec(tail=TailRule.constant("2/5"))),
            ("b", spec(tail=TailRule.constant("3/5"))),
            ("c", spec("1", "0", "1/2", "1/2")),
        )
    )
    out = carpenter_field(field, m=4)
    assert len(classify_calls) == 3  # once per cell
    assert [c.cell_id for c in out.cells] == ["a", "b", "c"]
    assert out.cells[1].label.path[0] == "NonsummableB"
    groups = out.by_branch()
    assert sum(len(v) for v in groups.values()) == 3
    # canonical serialization is deterministic
    assert dumps_canonical(out.to_json_dict()) == dumps_canonical(
        carpenter_field(field, m=4).to_json_dict()
    )


def test_carpenter_field_names_offending_cell():
    field = CellField((("ok", spec(tail=TailRule.constant("2/5"))), ("oops", spec("1/4"))))
    with pytest.raises(InfeasibleDiagonalError, match="oops") as err:
        carpenter_field(field, m=2)
    assert err.value.report == classify(spec("1/4"))  # the cell's report


def test_necessity_oracle_zero_violations():
    for dim in (2, 3, 4):
        r = necessity_oracle(dim, 200, seed=11)
        assert r.violations == 0
        assert r.passed
        assert r.worst_distance <= 1e-9


def test_necessity_oracle_is_deterministic():
    a = necessity_oracle(3, 100, seed=5).to_json_dict()
    b = necessity_oracle(3, 100, seed=5).to_json_dict()
    assert a == b


def deep_frame(index):
    """e_1, the sqrt tail geometric(1/2, 1/2) from index 5, and e_index: a projection."""
    tail = {"start": 5, "stride": 1, "rule": {"kind": "geometric", "c": "1/2", "r": "1/2"}}
    return {"form": "frame", "vectors": [
        {"support": [[1, 1.0]], "sqrtTail": None, "squares": ["1"]},
        {"support": [], "sqrtTail": tail},
        {"support": [[index, 1.0]], "sqrtTail": None},
    ]}


@pytest.mark.parametrize("index", [2**70, 1e308], ids=["2^70", "1e308"])
def test_verify_projection_meets_a_support_row_far_down_a_sqrt_tail(index):
    # the tail's entry at that index is far below the least float: it reads as 0.0
    # without its power being taken
    rep = ProjectionRep.from_json_dict(json.loads(json.dumps(deep_frame(index))))
    s = spec(1, 0, 0, 0, tail=TailRule.geometric("1/2", "1/2"))
    report = verify_projection(rep, s, 16)
    assert report.passed and report.gram_max_err == 0.0, report


def test_verify_projection_refuses_a_tail_power_past_the_budget():
    # r = 999/1000: offset 500,000 is past the power budget and still above the least float
    rep = ProjectionRep.frame((
        SparseVector((), SqrtTail(1, TailRule.geometric("1/2", "999/1000")), None),
        SparseVector.basis(500_000),
    ))
    with pytest.raises(UnsupportedStructureError, match="bit budget"):
        verify_projection(rep, spec(tail=TailRule.geometric("1/2", "999/1000")), 8)


def test_verify_projection_refusal_names_the_sqrt_tail_offset_not_a_crossing():
    # no threshold crossing is searched when a verify reads a sqrt tail's entry
    rep = ProjectionRep.frame((
        SparseVector((), SqrtTail(2, TailRule.geometric("1/2", "999/1000")), None),
        SparseVector.basis(500_000),
    ))
    with pytest.raises(UnsupportedStructureError) as err:
        verify_projection(rep, spec(0, tail=TailRule.geometric("1/2", "999/1000")), 8)
    assert str(err.value).startswith("sqrt tail offset 499999 of ratio 999/1000:"), err.value
    assert "bit budget" in str(err.value) and "threshold crossing" not in str(err.value)
