import json

import numpy as np
import pytest

from carpenter.cli import main

CONST_25 = {"prefix": [], "tail": {"kind": "constant", "c": "2/5"}}
CONST_35 = {"prefix": [], "tail": {"kind": "constant", "c": "3/5"}}
FINITE_OK = {"prefix": ["1/2", "1/2", "1", "0"], "tail": {"kind": "zero"}}
INFEASIBLE = {"prefix": ["1/4"], "tail": {"kind": "zero"}}


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_feasible(tmp_path, capsys):
    spec = write_json(tmp_path / "s.json", CONST_25)
    code, out, _ = run(capsys, ["check", "--spec", spec])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "feasible"
    assert doc["branch"][-1] == "tetris"


def test_check_infeasible(tmp_path, capsys):
    spec = write_json(tmp_path / "s.json", INFEASIBLE)
    code, out, _ = run(capsys, ["check", "--spec", spec])
    assert code == 2
    doc = json.loads(out)
    assert doc["verdict"] == "infeasible"
    assert "branch" not in doc


def test_construct_document(tmp_path, capsys):
    spec = write_json(tmp_path / "s.json", CONST_25)
    out_file = tmp_path / "rep.json"
    trace_file = tmp_path / "trace.json"
    code, out, _ = run(
        capsys,
        ["construct", "--spec", spec, "--vectors", "6",
         "--out", str(out_file), "--trace", str(trace_file)],
    )
    assert code == 0 and out == ""
    doc = json.loads(out_file.read_text())
    assert set(doc) == {"spec", "branch", "settled", "vectors", "projection"}
    assert doc["vectors"] == 6
    assert doc["settled"] == 13  # six vectors settle entries 1..13 of this stream
    assert json.loads(trace_file.read_text())["branch"] == doc["branch"]


def test_construct_without_a_trace_writes_the_same_document(tmp_path, capsys):
    # a stream, a complement-tetris leaf, and a decouple leaf whose sqrt tail carries "k"
    tetris = {"prefix": [], "tail": {"kind": "one_minus_geometric", "c": "1", "r": "1/2"}}
    decouple = {"prefix": ["3/10", "1/5"], "tail": {"kind": "one_minus_geometric", "c": "1/4", "r": "1/2"}}
    for doc in (CONST_25, tetris, decouple):
        spec = write_json(tmp_path / "s.json", doc)
        texts = []
        for extra in ([], ["--trace", str(tmp_path / "trace.json")]):
            assert main(["construct", "--spec", spec, "--out", str(tmp_path / "rep.json")] + extra) == 0
            texts.append((tmp_path / "rep.json").read_text())
        assert texts[0] == texts[1], doc
    assert '"k": 2' in texts[0]
    assert main(["verify", "--rep", str(tmp_path / "rep.json"), "--spec", spec, "--dim", "12"]) == 0


def test_construct_writes_a_deep_tail_with_its_exponent(tmp_path, capsys):
    # vector 198 of 200 has a sqrt tail from index 2116: c * r**2115 has 16,167 bits
    spec = write_json(tmp_path / "s.json", {
        "prefix": [], "tail": {"kind": "one_minus_geometric", "c": "1", "r": "199/200"}})
    rep = str(tmp_path / "rep.json")
    code, out, err = run(capsys, ["construct", "--spec", spec, "--out", rep])
    assert code == 0 and out == err == "", err
    tails = [v["sqrtTail"] for v in json.loads(open(rep).read())["projection"]["vectors"]]
    assert max(t["rule"].get("k", 0) for t in tails if t) > 2000
    code, out, _ = run(capsys, ["verify", "--rep", rep, "--spec", spec, "--dim", "400"])
    assert code == 0 and json.loads(out)["passed"]
    # the trace's decoupling plan still holds the exact 16k-bit values
    code, out, err = run(capsys, ["construct", "--spec", spec, "--trace", str(tmp_path / "t.json")])
    assert code == 1 and out == "" and err.startswith("error: exact value with "), err


def test_verify_round_trip_and_mismatch(tmp_path, capsys):
    spec = write_json(tmp_path / "s.json", CONST_25)
    rep = tmp_path / "rep.json"
    assert main(["construct", "--spec", spec, "--vectors", "8", "--out", str(rep)]) == 0
    capsys.readouterr()

    code, out, _ = run(capsys, ["verify", "--rep", str(rep), "--spec", spec, "--dim", "12"])
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True and doc["settled"] == 12
    code, out, _ = run(capsys, ["verify", "--rep", str(rep), "--spec", spec, "--dim", "0"])
    assert code == 0 and json.loads(out)["settled"] == 0

    other = write_json(tmp_path / "t.json", CONST_35)
    code, out, _ = run(capsys, ["verify", "--rep", str(rep), "--spec", other, "--dim", "12"])
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False
    assert doc["diagMaxErr"] == pytest.approx(0.2, abs=1e-9)


def test_field_outputs_and_determinism(tmp_path, capsys):
    cells = [
        {"cell": "low mass", "spec": CONST_25},
        {"cell": "finite", "spec": FINITE_OK},
    ]
    inp = write_json(tmp_path / "cells.json", cells)
    outdirs = [tmp_path / "run1", tmp_path / "run2"]
    for d in outdirs:
        assert main(["field", "--input", inp, "--out", str(d), "--vectors", "4"]) == 0
    capsys.readouterr()
    names = sorted(p.name for p in outdirs[0].iterdir())
    assert names == ["cell_finite.json", "cell_low_mass.json", "manifest.json", "partition.json"]
    for name in names:
        assert (outdirs[0] / name).read_bytes() == (outdirs[1] / name).read_bytes()
    manifest = json.loads((outdirs[0] / "manifest.json").read_text())
    assert manifest["vectors"] == 4
    assert [c["cell"] for c in manifest["cells"]] == ["low mass", "finite"]
    partition = json.loads((outdirs[0] / "partition.json").read_text())
    assert partition["finite"][-1] == "finite-schur-horn"
    cell_doc = json.loads((outdirs[0] / "cell_low_mass.json").read_text())
    assert cell_doc["cell"] == "low mass" and cell_doc["settled"] == 8


def test_field_infeasible_cell(tmp_path, capsys):
    cells = [{"cell": "bad", "spec": INFEASIBLE}]
    inp = write_json(tmp_path / "cells.json", cells)
    code, _, err = run(capsys, ["field", "--input", inp, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "bad" in err


def test_field_refuses_ids_that_share_a_file(tmp_path, capsys):
    # "a/b" and "a_b" both become cell_a_b.json: refused before anything is written
    cells = [{"cell": "a/b", "spec": CONST_25}, {"cell": "a_b", "spec": FINITE_OK}]
    inp = write_json(tmp_path / "cells.json", cells)
    out_dir = tmp_path / "o"
    code, _, err = run(capsys, ["field", "--input", inp, "--out", str(out_dir)])
    assert code == 2
    assert "'a/b'" in err and "'a_b'" in err and "cell_a_b.json" in err
    assert not out_dir.exists()


def _cells(tmp_path):
    return write_json(tmp_path / "cells.json", [{"cell": "c", "spec": CONST_25}])


def test_field_out_on_an_existing_file(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    code, _, err = run(capsys, ["field", "--input", _cells(tmp_path), "--out", str(taken)])
    assert code == 2 and err.startswith("error: [Errno") and str(taken) in err, err
    assert taken.read_text() == ""


def test_field_out_below_a_file(tmp_path, capsys):
    (tmp_path / "taken").write_text("")
    out = tmp_path / "taken" / "sub"
    code, _, err = run(capsys, ["field", "--input", _cells(tmp_path), "--out", str(out)])
    assert code == 2 and err.startswith("error: [Errno") and str(out) in err, err


def test_check_spec_is_a_directory(tmp_path, capsys):
    code, _, err = run(capsys, ["check", "--spec", str(tmp_path)])
    assert code == 2 and err.startswith("error: [Errno") and str(tmp_path) in err, err


def test_missing_spec_file_is_named(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    code, out, err = run(capsys, ["construct", "--spec", str(missing)])
    assert code == 2 and out == ""
    assert err == f"error: [Errno 2] No such file or directory: {str(missing)!r}\n"


def test_malformed_json_file_is_named(tmp_path, capsys):
    """Of two input files, the error names the one that is not JSON."""
    spec = write_json(tmp_path / "ok.json", CONST_25)
    code, out, _ = run(capsys, ["construct", "--spec", spec, "--vectors", "4"])
    rep = tmp_path / "rep.json"
    rep.write_text(out)
    bad = tmp_path / "bad.json"
    for text in ("{not json", "[1, 2", "\udcff"):
        bad.write_text(text, errors="surrogateescape")  # the last is a byte that is not UTF-8
        for argv in (["--rep", str(bad), "--spec", spec], ["--rep", str(rep), "--spec", str(bad)]):
            code, out, err = run(capsys, ["verify"] + argv)
            assert code == 2 and out == "", (text, argv, err)
            assert err.startswith(f"error: bad input: {bad} is not a JSON document: "), (text, err)
            assert err.count("\n") == 1 and "Traceback" not in err, (text, err)


def test_schur_horn_command(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        ["schur-horn", "--spectrum", "1, 1, 0", "--target", "3/4, 3/4, 1/2"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["achievedDiagonal"] == pytest.approx([0.75, 0.75, 0.5], abs=1e-12)
    u = np.array(doc["unitary"])
    assert np.allclose(u.T @ u, np.eye(3), atol=1e-12)

    code, _, err = run(
        capsys, ["schur-horn", "--spectrum", "1, 0", "--target", "3/4, 3/4"]
    )
    assert code == 2 and "majorized" in err


def test_si_command(tmp_path, capsys):
    samples = {
        "d": 1,
        "window": [0, 1],
        "fibers": [
            {"xi": [0.25], "values": ["1", "1"]},
            {"xi": [0.5], "values": ["2/5", "2/5"], "tail": {"kind": "constant", "c": "2/5"}},
        ],
    }
    inp = write_json(tmp_path / "samples.json", samples)
    code, out, _ = run(capsys, ["si", "--input", inp, "--vectors", "6"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["fibers"]) == 2
    assert doc["fibers"][1]["branch"][-1] == "tetris"

    samples["fibers"][0]["values"] = ["1/4", "0"]
    inp2 = write_json(tmp_path / "samples2.json", samples)
    code, _, err = run(capsys, ["si", "--input", inp2])
    assert code == 2 and "0.25" in err


def test_oracle_command(capsys):
    code, out, _ = run(capsys, ["oracle", "--dim", "3", "--trials", "50", "--seed", "7"])
    assert code == 0
    doc = json.loads(out)
    assert doc["violations"] == 0 and doc["passed"] is True


def test_usage_errors(capsys):
    assert main([]) == 64
    capsys.readouterr()
    assert main(["frobnicate"]) == 64
    capsys.readouterr()
    assert main(["check"]) == 64  # --spec is required
    capsys.readouterr()
    # counts and dimensions are non-negative integers
    for argv in (
        ["verify", "--rep", "r.json", "--spec", "s.json", "--settled", "-2"],
        ["verify", "--rep", "r.json", "--spec", "s.json", "--dim", "-3"],
        ["verify", "--rep", "r.json", "--spec", "s.json", "--dim", "1.5"],
        ["oracle", "--dim", "-1"],
        ["oracle", "--dim", "3", "--trials", "-1"],
        ["oracle", "--dim", "3", "--seed", "-1"],
        ["construct", "--spec", "s.json", "--vectors", "-1"],
        ["field", "--input", "f.json", "--out", "o", "--vectors", "-1"],
        ["si", "--input", "i.json", "--vectors", "x"],
    ):
        code, _, err = run(capsys, argv)
        assert code == 64 and "non-negative integer" in err, argv
    # tolerances are finite and non-negative
    for cmd in (
        ["verify", "--rep", "r.json", "--spec", "s.json"],
        ["si", "--input", "i.json"],
        ["oracle", "--dim", "3", "--trials", "5"],
    ):
        for tol in ("nan", "inf", "-inf", "-1", "x"):
            code, _, err = run(capsys, cmd + [f"--tol={tol}"])
            assert code == 64 and "finite non-negative number" in err, (cmd, tol)


def test_exact_values_too_long_to_print(tmp_path, capsys):
    # 2000 entries (1 + i mod 3)/p over the first 2000 primes p >= 101: the
    # exact sums have denominators far past the 4300-digit int-to-str limit
    primes, n = [], 101
    while len(primes) < 2000:
        if all(n % d for d in range(2, int(n**0.5) + 1)):
            primes.append(n)
        n += 1
    prefix = [f"{1 + i % 3}/{p}" for i, p in enumerate(primes)]
    for argv, tail in (
        (["check"], {"kind": "zero"}),
        (["construct", "--vectors", "5"], {"kind": "constant", "c": "2/5"}),
    ):
        spec = write_json(tmp_path / "s.json", {"prefix": prefix, "tail": tail})
        code, out, err = run(capsys, argv + ["--spec", spec])
        assert code == 1 and out == "", (argv, err)
        assert err.startswith("error: exact value with ") and err.count("\n") == 1, (argv, err)
        assert "digits" in err and "Traceback" not in err, (argv, err)


def test_bad_input_files(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, _, err = run(capsys, ["check", "--spec", str(broken)])
    assert code == 2 and "bad input" in err
    code, _, err = run(capsys, ["check", "--spec", str(tmp_path / "missing.json")])
    assert code == 2
    # malformed documents: bad rationals, a zero denominator, a bool, non-objects,
    # a constant tail given only a ratio
    for i, doc in enumerate(
        (
            {"prefix": ["abc"]}, {"prefix": ["1/0"]}, {"prefix": [True]}, [1, 2], {"prefix": 5},
            {"prefix": ["1/2"], "tail": {"kind": "constant", "r": "1/3"}},
        )
    ):
        bad = write_json(tmp_path / f"bad{i}.json", doc)
        code, _, err = run(capsys, ["check", "--spec", bad])
        assert code == 2 and err.startswith("error:") and "Traceback" not in err, (doc, err)
    # a geometric tail missing a parameter: the error names the tail kind and the field
    for field, tail in (("c", {"kind": "geometric", "r": "1/2"}), ("r", {"kind": "geometric", "c": "1/2"})):
        bad = write_json(tmp_path / f"tail_{field}.json", {"prefix": ["1/2"], "tail": tail})
        code, _, err = run(capsys, ["check", "--spec", bad])
        assert code == 2 and err.startswith("error:") and "Traceback" not in err, (tail, err)
        assert "geometric" in err and repr(field) in err, (tail, err)
    # a tail without its kind, or with a parameter that is not a rational: the error names the field
    for field, tail in (("kind", {"c": "1/2"}), ("c", {"kind": "constant", "c": "x"}),
                        ("r", {"kind": "geometric", "c": "1/2", "r": "x"}),
                        ("k", {"kind": "geometric", "c": "1/2", "r": "1/2", "k": -1})):
        bad = write_json(tmp_path / f"tail_field_{field}.json", {"prefix": ["1/2"], "tail": tail})
        code, _, err = run(capsys, ["check", "--spec", bad])
        assert code == 2 and err.startswith("error:") and "Traceback" not in err, (tail, err)
        assert repr(field) in err and "KeyError" not in err, (tail, err)
    good = write_json(tmp_path / "good.json", CONST_25)
    # malformed projections: not an object, bad vector lists, non-integer indices and tails
    rule = {"kind": "geometric", "c": "1/2", "r": "1/2"}
    for i, doc in enumerate(
        (
            [1, 2],
            {"form": "frame", "vectors": 5},
            {"form": "frame", "vectors": [{"support": [["a", 0.5]]}]},
            {"form": "frame", "vectors": [{"support": [[True, 0.5]]}]},
            {"form": "frame", "vectors": [{"support": [[1.5, 0.5]]}]},
            {"form": "frame", "vectors": [{"support": [[1, "x"]]}]},
            {"form": "frame", "vectors": [{"support": [[1]]}]},
            {"form": "frame", "vectors": [{"support": [], "sqrtTail": {"start": "x", "rule": rule}}]},
            {"form": "frame", "vectors": [
                {"support": [], "sqrtTail": {"start": 1, "stride": 0.5, "rule": rule}}
            ]},
            {"form": "frame", "vectors": [  # a sqrt tail must decay geometrically
                {"support": [], "sqrtTail": {"start": 1, "rule": {"kind": "constant", "c": "1/2"}}}
            ]},
            {"form": "frame", "vectors": [{"support": [[1, 0.5]], "squares": ["-1/4"]}]},
            {"form": "frame", "vectors": [{"support": [[1, 1.0]], "squares": ["1" + "0" * 400]}]},
            {"form": "frame", "vectors": [{"support": [[1, 0.5]], "squares": ["1/4", "1/4"]}]},
            {"settled": "x", "projection": {"form": "frame", "vectors": []}},
            {"settled": True, "projection": {"form": "frame", "vectors": []}},
            {"settled": -2, "projection": {"form": "frame", "vectors": []}},
            # support values are finite floats (json reads NaN and Infinity)
            {"form": "frame", "vectors": [{"support": [[1, float("nan")]]}]},
            {"form": "frame", "vectors": [{"support": [[1, float("inf")]]}]},
            {"form": "frame", "vectors": [{"support": [[1, -float("inf")]]}]},
            {"form": "frame", "vectors": [{"support": [[1, 10**400]]}]},
        )
    ):
        rep = write_json(tmp_path / f"rep{i}.json", doc)
        code, _, err = run(capsys, ["verify", "--spec", good, "--rep", rep])
        assert code == 2 and err.startswith("error:") and "Traceback" not in err, (doc, err)
    # a forged exact square: e1 e1^T claiming diagonal 1/2 at index 1
    half = write_json(tmp_path / "half.json", {"prefix": ["1/2"], "tail": {"kind": "zero"}})
    forged = {"form": "frame", "vectors": [{"support": [[1, 1.0]], "squares": ["1/2"]}]}
    forged = write_json(tmp_path / "forged.json", forged)
    code, out, err = run(capsys, ["verify", "--spec", half, "--rep", forged])
    assert code == 2 and out == "" and "does not match" in err
    # a NaN support value is bad input, not a failed (or passed) verification
    nan = {"form": "frame", "vectors": [{"support": [[1, float("nan")]]}]}
    nan = write_json(tmp_path / "nan.json", nan)
    code, out, err = run(capsys, ["verify", "--spec", half, "--rep", nan, "--dim", "1"])
    assert code == 2 and out == "" and "finite" in err
    # malformed field and spectral-sample documents
    for i, (cmd, doc) in enumerate(
        (
            ("field", [[1, 2]]),
            ("field", [{"cell": 7, "spec": CONST_25}]),
            ("field", {"cells": 5}),
            ("si", [1]),
            ("si", {"window": [[0]], "fibers": 3}),
            ("si", {"window": [0], "fibers": [{"xi": [0.5], "values": 5}]}),
            ("si", {"window": ["ab"], "fibers": []}),
            ("si", {"window": [True], "fibers": []}),
            ("si", {"window": [0.5], "fibers": []}),
            ("si", {"d": "x", "window": [0], "fibers": []}),
            ("si", {"d": -1, "window": [], "fibers": [{"xi": [], "values": []}]}),
            ("si", {"d": 0, "window": [], "fibers": [{"xi": [], "values": []}]}),
            ("si", {"window": [0], "fibers": [{"xi": "abc", "values": ["1"]}]}),
            ("si", {"window": [0], "fibers": [{"xi": "5", "values": ["1"]}]}),
            ("si", {"window": [0], "fibers": [{"xi": [False], "values": ["1"]}]}),
        )
    ):
        bad = write_json(tmp_path / f"bad_{cmd}{i}.json", doc)
        out = ["--out", str(tmp_path / f"o{i}")] if cmd == "field" else []
        code, _, err = run(capsys, [cmd, "--input", bad] + out)
        assert code == 2 and err.startswith("error:") and "Traceback" not in err, (doc, err)
    # a document missing a field: the error names the field, not a KeyError
    for i, (cmd, field, doc) in enumerate(
        (
            ("verify", "support", {"form": "frame", "vectors": [{}]}),
            ("verify", "vectors", {"form": "frame"}),
            ("verify", "form", {"vectors": []}),
            ("verify", "start", {"form": "frame", "vectors": [{"support": [], "sqrtTail": {"rule": rule}}]}),
            ("verify", "rule", {"form": "frame", "vectors": [{"support": [], "sqrtTail": {"start": 1}}]}),
            ("field", "cell", [{"spec": CONST_25}]),
            ("field", "spec", [{"cell": "a"}]),
            ("field", "cells", {"cells_": []}),
            ("si", "window", {"fibers": []}),
            ("si", "fibers", {"window": [0]}),
            ("si", "xi", {"window": [0], "fibers": [{"values": ["1"]}]}),
        )
    ):
        bad = write_json(tmp_path / f"missing{i}.json", doc)
        argv = ["--spec", good, "--rep", bad] if cmd == "verify" else ["--input", bad]
        argv += ["--out", str(tmp_path / f"m{i}")] if cmd == "field" else []
        code, _, err = run(capsys, [cmd] + argv)
        assert code == 2 and err.startswith("error:") and "Traceback" not in err, (doc, err)
        assert repr(field) in err and "KeyError" not in err, (doc, err)


@pytest.mark.parametrize("index", [2**70, 1e308], ids=["2^70", "1e308"])
def test_verify_ends_on_a_support_row_far_down_a_sqrt_tail(tmp_path, capsys, index):
    from test_selector import deep_frame

    rep = write_json(tmp_path / "rep.json", deep_frame(index))
    spec = write_json(tmp_path / "s.json", {
        "prefix": ["1", "0", "0", "0"], "tail": {"kind": "geometric", "c": "1/2", "r": "1/2"}})
    code, out, err = run(capsys, ["verify", "--rep", rep, "--spec", spec])
    assert code == 0 and err == "" and json.loads(out)["passed"] is True


def test_verify_refusal_past_the_budget_names_the_sqrt_tail_offset(tmp_path, capsys):
    tail = {"start": 2, "stride": 1, "rule": {"kind": "geometric", "c": "1/2", "r": "999/1000"}}
    rep = write_json(tmp_path / "rep.json", {"form": "frame", "vectors": [
        {"support": [], "sqrtTail": tail},
        {"support": [[500_000, 1.0]], "sqrtTail": None},
    ]})
    spec = write_json(tmp_path / "s.json", {"prefix": ["0"], "tail": tail["rule"]})
    code, out, err = run(capsys, ["verify", "--rep", rep, "--spec", spec])
    assert code == 1 and out == "" and err.startswith("error: sqrt tail offset 499999 "), err
    assert "bit budget" in err and "threshold crossing" not in err and "Traceback" not in err
