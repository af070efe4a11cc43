import json
from fractions import Fraction as F

import pytest

from carpenter.errors import InfeasibleDiagonalError
from carpenter.feasibility import (
    BranchLabel,
    FeasibilityReport,
    branch_of,
    classify,
    kadison_ab,
    route,
)
from carpenter.selector import carpenter, verify_projection
from carpenter.seqcore import INF, DiagonalSpec, TailRule


def spec(*values, tail=None):
    return DiagonalSpec.of(*values, tail=tail or TailRule.zero())


def test_kadison_ab_finite_case():
    # five entries of 2/5: all below 1/2, so a = 2 and b = 0
    s = spec(*["2/5"] * 5)
    assert kadison_ab(s) == (F(2), F(0))


def test_kadison_ab_small_side_diverges():
    a, b = kadison_ab(spec(tail=TailRule.constant("2/5")))
    assert a == INF and b == 0


def test_kadison_ab_large_side_diverges():
    a, b = kadison_ab(spec(tail=TailRule.constant("3/5")))
    assert a == 0 and b == INF


def test_kadison_ab_split_sides():
    s = spec("3/10", "1/5", tail=TailRule.one_minus_geometric("1/4", "1/2"))
    assert kadison_ab(s) == (F(1, 2), F(1, 2))


def test_kadison_ab_half_entries_count_as_small():
    a, b = kadison_ab(spec(tail=TailRule.constant("1/2")))
    assert a == INF and b == 0
    a2, b2 = kadison_ab(spec("1/2", "1/2", "1/2"))
    assert (a2, b2) == (F(3, 2), F(0))


def test_classify_verdicts():
    assert classify(spec(*["2/5"] * 5)).verdict == "feasible"
    assert classify(spec(tail=TailRule.constant("2/5"))).case == "nonsummable_a"
    assert classify(spec(tail=TailRule.constant("3/5"))).case == "nonsummable_b"
    r = classify(spec("3/10", "1/5", tail=TailRule.one_minus_geometric("1/4", "1/2")))
    assert r.verdict == "feasible" and r.case == "summable" and r.diff == 0
    assert classify(spec("1/4")).verdict == "infeasible"


def test_classify_integer_gap():
    r = classify(spec(*["2/5"] * 5))
    assert r.diff == 2
    # a - b = 3/2 - 0 is fractional: no projection has this diagonal
    r2 = classify(spec("1/2", "1/2", "1/2"))
    assert r2.verdict == "infeasible" and r2.diff is None


def test_report_json_shape():
    d = classify(spec("1/4")).to_json_dict()
    assert json.loads(json.dumps(d)) == d
    assert d["verdict"] == "infeasible"
    assert d["a"] == "1/4" and d["b"] == "0"


def test_branch_of_infeasible_raises():
    with pytest.raises(InfeasibleDiagonalError, match="is not an integer"):
        branch_of(spec("1/4"))


def test_branch_labels_cover_the_route_table():
    # two inputs per route; each label must be the route carpenter takes
    cases = [
        (spec(tail=TailRule.constant("2/5")), "NonsummableA/S_infty/X_k(k=0)/tetris"),
        (spec("1/3", "1/4", tail=TailRule.constant("1/3")), "NonsummableA/S_infty/X_k(k=0)/tetris"),
        (
            spec("3/4", "2/3", tail=TailRule.constant("2/5")),
            "NonsummableA/S_infty/X_k(k=2)/residue-split(k=2)",
        ),
        (
            spec("3/4", "1/10", "5/8", tail=TailRule.constant("1/2")),
            "NonsummableA/S_infty/X_k(k=2)/residue-split(k=2)",
        ),
        (
            spec(tail=TailRule.constant("3/5")),
            "NonsummableB/S_finite/complement/X_k(k=0)/tetris",
        ),
        (
            spec("7/10", tail=TailRule.constant("4/5")),
            "NonsummableB/S_finite/complement/X_k(k=0)/tetris",
        ),
        (spec(*["2/5"] * 5), "Summable/X_{k1..kn}(n=5)/finite-schur-horn"),
        (
            spec("1/3", "2/3", "1/4", "1/4", "1/2", "1"),
            "Summable/X_{k1..kn}(n=5)/finite-schur-horn",
        ),
        (
            spec("3/10", "1/5", tail=TailRule.one_minus_geometric("1/4", "1/2")),
            "Summable/proper-infinite/X'/X_N(N=2)/decouple",
        ),
        (
            spec("1/5", "3/10", tail=TailRule.one_minus_geometric("1/4", "1/2")),
            "Summable/proper-infinite/X'/X_N(N=2)/decouple",
        ),
        (
            spec("1/4", tail=TailRule.one_minus_geometric("1/8", "1/2")),
            "Summable/proper-infinite/X'/X_N(N=1)/complement-tetris",
        ),
        (
            spec("1/4", "7/8", tail=TailRule.one_minus_geometric("1/16", "1/2")),
            "Summable/proper-infinite/X'/X_N(N=1)/complement-tetris",
        ),
        (
            spec("3/4", "7/8", "3/16", "1/16", tail=TailRule.geometric("1/16", "1/2")),
            "Summable/proper-infinite/X\\X'/complement/X_N(N=2)/decouple",
        ),
        (
            spec("7/8", "3/4", "1/16", "3/16", tail=TailRule.geometric("1/16", "1/2")),
            "Summable/proper-infinite/X\\X'/complement/X_N(N=2)/decouple",
        ),
        (
            spec("3/4", "1/8", tail=TailRule.geometric("1/16", "1/2")),
            "Summable/proper-infinite/X\\X'/X_N(N=1)/tetris",
        ),
        (
            spec("1/8", "3/4", tail=TailRule.geometric("1/16", "1/2")),
            "Summable/proper-infinite/X\\X'/X_N(N=1)/tetris",
        ),
    ]
    for s, want in cases:
        assert "/".join(branch_of(s).path) == want
        trace = {}
        rep = carpenter(s, 6, trace)
        assert trace["branch"] == list(branch_of(s).path)
        assert "route" not in trace  # the branch label is the one record of the route
        # one trace layout for every leaf, the complement leaves included
        assert '"complement_of"' not in json.dumps(trace), want
        if want.endswith("tetris") or "residue-split" in want:
            # every tetris leaf records its fills under parts[], never as top-level fill keys
            assert trace["parts"], want
            assert "min_s" not in trace, want
        settled = trace["settled_prefix"]
        report = verify_projection(rep, s, m=max(6, settled or 0), settled=settled)
        assert report.passed, f"{want}: {report.to_json_dict()}"
        # an untraced build gives the same projection and settled prefix
        assert route(s).build_settled(6) == (rep, settled), want
        assert carpenter(s, 6) == rep, want


def test_branch_label_str():
    lbl = branch_of(spec(tail=TailRule.constant("2/5")))
    assert isinstance(lbl, BranchLabel)
    assert str(lbl) == "/".join(lbl.path)


def test_summable_route_depends_on_improper_entries_only_through_removal():
    # inserting 0s and 1s must not change the route tail of an all-proper spec
    base = spec("3/10", "1/5", tail=TailRule.one_minus_geometric("1/4", "1/2"))
    salted = spec("0", "3/10", "1", "1/5", tail=TailRule.one_minus_geometric("1/4", "1/2"))
    assert branch_of(salted).path[-3:] == branch_of(base).path[-3:]
