import json
from fractions import Fraction as F

import numpy as np
import pytest

from carpenter.errors import InfeasibleDiagonalError, SpecError
from carpenter.feasibility import classify
from carpenter.seqcore import TailRule, dumps_canonical, rat
from carpenter.sispectral import (
    RangeFunctionFile,
    SpectralFiber,
    SpectralSamples,
    check_spectral,
    extract_spectral,
    synthesize_range,
)

W4 = ((0,), (1,), (2,), (3,))


def fiber(xi, vals, tail=None):
    return SpectralFiber(
        (xi,) if isinstance(xi, float) else tuple(xi),
        tuple(rat(v) for v in vals),
        tail or TailRule.zero(),
    )


def test_samples_reject_duplicate_window_points():
    with pytest.raises(SpecError, match="distinct"):
        SpectralSamples(1, ((0,), (1,), (0,)), ())


def test_samples_reject_value_count_mismatch():
    f = fiber(0.25, ["1/2", "1/2"])
    with pytest.raises(SpecError, match="2 values"):
        SpectralSamples(1, W4, (f,))


def test_samples_json_round_trip():
    samples = SpectralSamples(
        1,
        W4,
        (
            fiber(0.25, ["1/2", "1/2", "1", "0"]),
            fiber(0.75, ["3/4", "3/4", "3/4", "3/4"], TailRule.constant("3/4")),
        ),
    )
    # the first fiber has no tail, the second a constant one
    doc = {"d": 1, "window": [[0], [1], [2], [3]], "fibers": [
        {"xi": [0.25], "values": ["1/2", "1/2", "1", "0"]},
        {"xi": [0.75], "values": ["3/4"] * 4, "tail": {"kind": "constant", "c": "3/4"}},
    ]}
    back = SpectralSamples.from_json_dict(json.loads(dumps_canonical(doc)))
    assert back == samples


def test_samples_json_scalar_window_and_xi():
    doc = {"d": 1, "window": [-1, 1], "fibers": [{"xi": 0.5, "values": ["1/2", "1/2"]}]}
    s = SpectralSamples.from_json_dict(doc)
    assert s.window == ((-1,), (1,))  # translates are signed
    assert s.fibers[0].xi == (0.5,)


def test_fiber_xi_must_have_dimension_d():
    # both decoders read xi through one check, which names the fiber
    empty = {"form": "frame", "vectors": []}
    for decode, fiber_doc in (
        (SpectralSamples.from_json_dict, {"xi": [0.1, 0.2, 0.3], "values": ["1"]}),
        (RangeFunctionFile.from_json_dict, {"xi": [0.1, 0.2, 0.3], "projection": empty}),
    ):
        doc = {"d": 1, "window": [0], "fibers": [fiber_doc]}
        with pytest.raises(SpecError, match=r"fiber xi = \(0.1, 0.2, 0.3\) has dimension 3, expected 1"):
            decode(doc)
        doc = {"d": 2, "window": [[0, 0]], "fibers": [dict(fiber_doc, xi=0.5)]}
        with pytest.raises(SpecError, match=r"fiber xi = \(0.5\) has dimension 1, expected 2"):
            decode(doc)
        doc["fibers"][0]["xi"] = [0.5, 0.25]
        assert decode(doc).fibers[0].xi == (0.5, 0.25)


def test_samples_refuse_an_xi_of_the_wrong_dimension():
    # what the API builds, its own decoder reads back: the check is the decoders' own
    f = SpectralFiber((0.1, 0.2, 0.3), (F(1),), TailRule.zero())
    msg = r"fiber xi = \(0.1, 0.2, 0.3\) has dimension 3, expected 1"
    with pytest.raises(SpecError, match=msg):
        SpectralSamples(1, ((0,),), (f,))
    ok = SpectralSamples(3, ((0, 0, 0),), (f,))
    rf = synthesize_range(ok, 4)
    assert RangeFunctionFile.from_json_dict(rf.to_json_dict()) == rf
    with pytest.raises(SpecError, match=msg):
        RangeFunctionFile(1, ((0,),), rf.fibers)


def test_samples_refuse_a_window_point_of_the_wrong_dimension():
    f = fiber(0.5, ["1"])
    with pytest.raises(SpecError, match=r"window point \(0,\) has dimension 1, expected 2"):
        SpectralSamples(2, ((0,),), (f,))
    with pytest.raises(SpecError, match=r"window point \(0,\) has dimension 1, expected 2"):
        RangeFunctionFile(2, ((0,),), ())
    for d in (0, -1):
        with pytest.raises(SpecError, match=f"dimension d must be >= 1, got {d}"):
            SpectralSamples(d, (), ())
    doc = {"d": 1, "window": [[0]], "fibers": [{"xi": [0.5], "values": ["1"]}]}
    assert SpectralSamples.from_json_dict(doc).window == ((0,),)


def test_check_spectral_mixed_verdicts():
    samples = SpectralSamples(
        1,
        W4,
        (
            fiber(0.0, ["1", "1", "0", "0"]),
            fiber(0.5, ["1/4", "0", "0", "0"]),
        ),
    )
    out = check_spectral(samples)
    assert [r.verdict for _, r in out] == ["feasible", "infeasible"]
    assert out[1][0].xi == (0.5,)


def test_synthesize_and_extract_round_trip_finite(classify_calls):
    samples = SpectralSamples(
        1,
        W4,
        (
            fiber(0.125, ["1/2", "1/2", "1", "0"]),
            fiber(0.375, ["1", "1", "1", "1"]),
            fiber(0.625, ["0", "0", "0", "0"]),
            fiber(0.875, ["3/4", "3/4", "1/4", "1/4"]),
        ),
    )
    rf = synthesize_range(samples, m=8)
    assert len(classify_calls) == 4  # once per fiber
    assert rf.window == W4
    assert len(rf.fibers) == 4
    back = extract_spectral(rf)
    assert back.window == W4
    for orig, got in zip(samples.fibers, back.fibers):
        assert got.xi == orig.xi
        # rotated constructions read back to float accuracy, not bit-exactly
        assert max(abs(x - y) for x, y in zip(got.values, orig.values)) <= F(1, 10**12)
    # the 0/1 fibers never leave exact arithmetic
    assert back.fibers[1].values == samples.fibers[1].values
    assert back.fibers[2].values == samples.fibers[2].values


def test_synthesize_streams_infinite_fibers():
    samples = SpectralSamples(
        1,
        W4,
        (fiber(0.5, ["2/5", "2/5", "2/5", "2/5"], TailRule.constant("2/5")),),
    )
    rf = synthesize_range(samples, m=16)
    f = rf.fibers[0]
    assert f.branch[-1] == "tetris"
    assert f.settled is not None and f.settled >= len(W4)
    back = extract_spectral(rf)
    assert back.fibers[0].values == (F(2, 5),) * 4


def test_synthesize_names_infeasible_fiber():
    samples = SpectralSamples(
        1,
        W4,
        (
            fiber(0.25, ["1", "0", "0", "0"]),
            fiber(0.77, ["1/4", "0", "0", "0"]),
        ),
    )
    with pytest.raises(InfeasibleDiagonalError, match=r"0\.77") as err:
        synthesize_range(samples, m=8)
    assert err.value.report == classify(samples.fibers[1].spec())  # the fiber's report


def test_range_file_json_round_trip():
    samples = SpectralSamples(
        2,
        ((0, 0), (1, 0), (0, 1)),
        (fiber((0.25, 0.75), ["1/2", "1/2", "1"]),),
    )
    rf = synthesize_range(samples, m=6)
    doc = json.loads(dumps_canonical(rf.to_json_dict()))
    back = RangeFunctionFile.from_json_dict(doc)
    assert back.d == 2 and back.window == rf.window
    a = rf.fibers[0].rep.dense(6)
    b = back.fibers[0].rep.dense(6)
    assert np.allclose(a, b, atol=1e-12)
    assert back.fibers[0].branch == rf.fibers[0].branch


def test_range_file_json_rejects_malformed_documents():
    # the range file reads d and window through the samples' codec
    empty = {"form": "frame", "vectors": []}
    for doc in (
        [1],
        {"window": ["ab"], "fibers": []},
        {"d": 2, "window": [[0]], "fibers": []},
        {"window": [0], "fibers": 3},
        {"window": [0], "fibers": [{"xi": "0.5", "projection": {"form": "frame", "vectors": []}}]},
        {"window": [0], "fibers": [{"xi": [0.5]}]},
        {"window": [0], "fibers": [{"xi": [0.5], "projection": empty, "branch": "abc"}]},
        {"window": [0], "fibers": [{"xi": [0.5], "projection": empty, "settled": "x"}]},
        {"window": [0], "fibers": [{"xi": [0.5], "projection": empty, "branch": [1, None]}]},
        {"window": [0], "fibers": [{"xi": [0.5], "projection": empty, "settled": -3}]},
    ):
        with pytest.raises(SpecError):
            RangeFunctionFile.from_json_dict(doc)
