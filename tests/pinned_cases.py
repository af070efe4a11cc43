"""Pinned bytes, exits, error texts, time limits and memory bounds of the CLI and the API.

``CASES`` maps each case's name to its inputs and steps, which ``test_pinned_cases`` runs and
documents: a new check is one more entry.  The functions after the table are the API steps.
"""

import json
import random
import time

STREAM = {"prefix": [], "tail": {"kind": "constant", "c": "2/5"}}
ONELARGE = {"prefix": ["1/4", "1/4", "3/4"], "tail": {"kind": "geometric", "c": "3/8", "r": "1/2"}}
RNG, D = random.Random(2031), 2**31 - 1  # big.json: 3 entries > 1/2, then 1997 <= 1/2
BIG = {"prefix": ["%d/%d" % (RNG.randint(D // 2 + 1, D - 1), D) for _ in range(3)]
       + ["%d/%d" % (RNG.randint(1, D // 2), D) for _ in range(1997)], "tail": STREAM["tail"]}
SPLIT3 = {"prefix": ["90/97", "80/97", "70/97"] + ["%d/97" % (1 + (7 * k) % 48) for k in range(30)],
          "tail": {"kind": "constant", "c": "1/3"}}
SPLIT3C = {"prefix": ["%d/97" % (97 - int(x.split("/")[0])) for x in SPLIT3["prefix"]],
           "tail": {"kind": "constant", "c": "2/3"}}
TWIN = {"s_rep.json": "a2c8e3ec423de38073b1f298f8ef02f1de003a17c701f77c8d9d6d36041f57ba",  # what "2/4"
        "trace.json": "65b38918a9760264623fdccd6271b2afb780d0366e10db07c2e843db3304dad5"}  # and "1/2" build
PASSED = {"passed": True}
TAILED = {"projection": lambda p: any(v["sqrtTail"] for v in p["vectors"])}
ONE_LARGE = {"branch": lambda b: "/".join(b).endswith("X\\X'/X_N(N=1)/tetris")}


def geo(c, r, kind="geometric", start=None):  # a tail rule, or a sqrt tail from ``start``
    rule = {"kind": kind, "c": c, "r": r}
    return rule if start is None else {"start": start, "stride": 1, "rule": rule}


def omg(r, prefix=()):
    return {"prefix": list(prefix), "tail": geo("1", r, "one_minus_geometric")}


def leaf(label, n, **more):  # the branch's last label and the vector count
    return dict(more, branch=lambda b: b[-1] == label, projection=lambda p: len(p["vectors"]) == n)


def built(s, args="", **checks):  # construct s.json to s_rep.json
    return dict(checks, cli=f"construct --spec {s}.json {args} --out {s}_rep.json")


def verified(s, args="", **checks):  # verify s_rep.json against s.json
    return dict(checks, cli=f"verify --rep {s}_rep.json --spec {s}.json {args}")


CASES = {
    "schur_horn": {"steps": [dict(cli="schur-horn --spectrum 1,1,0 --target 3/4,3/4,1/2")]},
    "stream_canonical": {"inputs": {"stream.json": STREAM}, "steps": [
        built("stream", "--vectors 32"), dict(api="canonical stream_rep.json"), verified("stream")]},
    "norep": {"inputs": {"stream.json": STREAM, "stream_rep.json": {"form": "frame", "vectors": [{}]}},
              "steps": [verified("stream", exit=2, stderr=["'support'"])]},
    "clash": {"inputs": {"clash.json": [{"cell": "a/b", "spec": {"prefix": ["1/2", "1/2"]}},
                                        {"cell": "a_b", "spec": {"prefix": ["1"]}}]}, "steps": [
        dict(cli="field --input clash.json --out clash_out", exit=2, stderr=["'a/b'", "'a_b'"])]},
    "si": {"inputs": {"samples.json": {"d": 1, "window": [0, 1], "fibers": [{"xi": [0.25], "values": ["1", "1"]},
                                       {"xi": [0.5], "values": ["2/5", "2/5"], "tail": STREAM["tail"]}]}},
           "steps": [dict(cli="si --input samples.json --vectors 6 --out range.json")]},
    "onelarge": {"inputs": {"onelarge.json": ONELARGE}, "steps": [
        built("onelarge", "--trace onelarge_trace.json", fields={
            "onelarge_trace.json": dict(ONE_LARGE, beta=[2, 3, 1])}), verified("onelarge", "--dim 8")]},
    "finite64": {"inputs": {"finite64.json": {"prefix": ["%d/97" % k for k in range(1, 33)]
                                              + ["%d/97" % (97 - k) for k in range(1, 33)]}},
                 "input_sha256": {
                     "finite64.json": "409882851d6e474e32901651c751017ef6f7ca914e724f42ea382d25704d23dd"},
                 "steps": [built("finite64"), verified("finite64", "--dim 65 --out finite64_report.json"),
                           dict(api="finite64_gram")]},
    # no n x n array at 2000 vectors; at dim 10^7, S's rows are laid out over the indices they touch
    "long_and_deep_streams": {"inputs": {"long.json": STREAM, "short.json": STREAM}, "steps": [
        built("long", "--vectors 2000"), verified("long", "--dim 600", limit=10),
        built("short", "--vectors 32"), verified("short", "--dim 10000000 --settled 40", limit=10)]},
    "improper": {"inputs": {"improper.json": {"prefix": ["1", "3/4", "0"], "tail": geo("1/8", "1/2")}}, "steps": [
        built("improper", fields={"improper_rep.json": ONE_LARGE}), verified("improper", "--dim 12")]},
    # sqrt-tailed Gram pairs are SparseVector.inner; idempotencyErr is not pinned: BLAS may round it
    "tailed_leaves": {"inputs": {"onelarge.json": ONELARGE, "omg40.json": omg("39/40")}, "limit": 30, "steps": [
        built("onelarge", fields={"onelarge_rep.json": TAILED}),
        dict(api="verify_at onelarge last_row", fields={"onelarge_report.json": dict(
            PASSED, gramMaxErr="0x1.0000000000000p-53", diagMaxErr="0x0.0p+0")}),
        built("omg40", fields={"omg40_rep.json": TAILED}),
        dict(api="verify_at omg40 last_row", fields={"omg40_report.json": dict(
            PASSED, gramMaxErr="0x1.a000000000000p-50", diagMaxErr="0x1.8000000000000p-52")})]},
    # fin's Schur-Horn rows are placed by a map that is not the identity; dec's group 1 pins 299 entries
    "pinning_leaves": {"inputs": {"fin.json": {"prefix": ["1/3", "1", "2/3", "0", "1/2", "1/2"]},
                                  "dec.json": omg("39/40", ["2/97", "95/97"])}, "limit": 30, "steps": [
        built("fin", "--trace fin_trace.json", fields={"fin_rep.json": leaf("finite-schur-horn", 3)}, sha256={
            "fin_rep.json": "7cfd85064d8a6a990c689fd83e254e11be801a2d9a54b24faefcb05916943b13",
            "fin_trace.json": "d4a670700580771425b31e8d78d6839d5b68458579150568e46ba3504c8f2027"}),
        verified("fin", "--out fin_report.json", fields={"fin_report.json": PASSED}),
        built("dec", "--trace dec_trace.json", fields={"dec_rep.json": leaf("decouple", 41)}, sha256={
            "dec_rep.json": "51839f078b57dce612050c998c9e63ee530901412898e114e8ecdf53051f35dc",
            "dec_trace.json": "e7b730cf16c80c3781f09c9da263895233403ac1a7249a2468aac0697f1a4cf2"}),
        verified("dec", "--out dec_report.json", fields={"dec_report.json": PASSED})]},
    # the k = 3 split, filled on integers over denominators of about 62 bits
    "big": {"inputs": {"big.json": BIG}, "input_sha256": {
        "big.json": "01ca34c9e34b8567a1bdada7666d7bc8cb614675794b5eb054aaae77c0b059e6"}, "steps": [
        built("big", "--vectors 64", limit=30, fields={"big_rep.json": {
            "branch": lambda b: "/".join(b).endswith("residue-split(k=3)")}}),
        dict(api="verify_at big settled", limit=30),
        built("big", "--vectors 64 --trace big_trace.json", limit=30, sha256={
            "big_rep.json": "93e29ede834f20a3d9e8cbac8ba293c1f078e933c1c7411339ce373d395e3833",
            "big_trace.json": "c2acc3b86b4f22b9e1d6e1dfd6365a3b9c6eff9e1305a397303c7eba402bc40f"})]},
    # each residue part runs 61 of its 64 fill steps past its prefix, c25 all 20000, on the tail's integers
    "streamed_splits": {"inputs": {"split3.json": SPLIT3, "split3c.json": SPLIT3C, "c25.json": STREAM},
                        "limit": 30, "input_sha256": {
        "split3.json": "85a6ad2d5dd8abe29c8ef2e7802bf9aab0747eccde108ef16dae4d5540ab3895",
        "split3c.json": "3f3fa1bab0085cb084ad6fc1ba96afe8e97fce6a1754b0f6a09a949df1a41948"}, "steps": [
        built("split3", "--vectors 64 --trace split3_trace.json", sha256={
            "split3_rep.json": "bfb26dec7041003654aa187d3d146e8fe8e460e470e97dfd1b8e69dbb383e955",
            "split3_trace.json": "72be00ea7b29e69c51e6a59c6c46e37554e8a9208b3d80a10c399073968b7a77"},
            fields={"split3_rep.json": leaf("residue-split(k=3)", 192, settled=573)}),
        verified("split3", "--dim 573 --out split3_report.json", fields={"split3_report.json": PASSED}),
        built("split3c", "--vectors 64 --trace split3c_trace.json", sha256={
            "split3c_rep.json": "9c46f53e1cd08e48c33203c936d0624d2863b0171b9503b5d02411ab25778144",
            "split3c_trace.json": "37e4e8819e14f5dd39cfc92f65a806bfcb0b12263f9e4b4c3119bedca3754efb"},
            fields={"split3c_rep.json": leaf("residue-split(k=3)", 192, settled=573)}),
        verified("split3c", "--dim 573 --out split3c_report.json", fields={"split3c_report.json": PASSED}),
        built("c25", "--vectors 20000", fields={"c25_rep.json": leaf("tetris", 20000)},
              sha256={"c25_rep.json": "19141794edb00cfd464f2ae3ad2c695c6dcb40b57e5753fc2e374ac650413053"}),
        verified("c25", "--dim 600 --out c25_report.json", fields={"c25_report.json": PASSED})]},
    # the four vectors span 3.5 million entries, read from S_p and the tail's progression
    "constant_tail_m4": {"steps": [dict(api="build constant", limit=60, rss_mb=850)]},
    "unreduced": {"inputs": {"s.json": {"prefix": ["2/4", "12/40"], "tail": {"kind": "constant", "c": "4/10"}}},
                  "limit": 10, "steps": [built("s", "--trace trace.json", sha256=TWIN), verified("s")]},
    "reduced": {"inputs": {"s.json": {"prefix": ["1/2", "3/10"], "tail": {"kind": "constant", "c": "2/5"}}},
                "limit": 10, "steps": [built("s", "--trace trace.json", sha256=TWIN), verified("s")]},
    "geo99": {"inputs": {"geo99.json": omg("99/100")}, "limit": 10, "steps": [built("geo99"), verified("geo99")]},
    "geo199_api": {"steps": [dict(api="build 199/200", limit=30)]},
    "geo199_cli": {"inputs": {"geo199.json": omg("199/200")}, "limit": 30, "steps": [
        built("geo199"), verified("geo199", "--dim 400")]},
    # group 1 holds 10,686 entries of up to 103,074 bits; verify's dense side reads |V|^T W by blocks
    "geo799_api": {"steps": [dict(api="build 799/800 4 30", limit=90, rss_mb=800)]},
    # the sqrt tail's entry at 2^70 reads as 0.0 without its power being taken
    "deep": {"inputs": {"deep.json": {"prefix": ["1", "0", "0", "0"], "tail": geo("1/2", "1/2")}, "deep_rep.json": {
        "form": "frame", "vectors": [{"support": [[1, 1.0]], "sqrtTail": None, "squares": ["1"]},
                                     {"support": [], "sqrtTail": geo("1/2", "1/2", start=5)},
                                     {"support": [[2**70, 1.0]], "sqrtTail": None}]}}, "input_sha256": {
        "deep_rep.json": "840560c3473288499c93c2c49b79f70a766b0544b159f5b9bf66865dbe595679"},
             "steps": [verified("deep", exit=(0, 1), stderr_not=["Traceback"], limit=10)]},
    # the sqrt tail's entry at 500,000 (r = 999/1000) needs a power past the bit budget
    "far": {"inputs": {"far.json": {"prefix": ["0"], "tail": geo("1/2", "999/1000")}, "far_rep.json": {
        "form": "frame", "vectors": [{"support": [], "sqrtTail": geo("1/2", "999/1000", start=2)},
                                     {"support": [[500000, 1.0]], "sqrtTail": None}]}}, "input_sha256": {
        "far_rep.json": "76ba98eab655414d0770c5a174dac9c442529fa3f41ef4b1d266714d751ca594"},
            "steps": [verified("far", exit=1, stderr=["^error:.*bit budget"],
                               stderr_not=["threshold crossing", "Traceback"], limit=10)]},
    # classify finds the 69,315 entries > 1/2 from one estimate; a has 346,575 digits
    "geo5": {"inputs": {"geo5.json": {"prefix": [], "tail": geo("1", "99999/100000")}}, "steps": [dict(
        cli="check --spec geo5.json", exit=1, stderr=["^error: exact value with 346575 digits"], limit=10)]},
    "reach_deep": {"steps": [dict(api="reach_deep geometric", limit=10),
                             dict(api="reach_deep one_minus_geometric", limit=10)]},
}


def canonical(path):
    t = open(path).read()
    assert json.dumps(json.loads(t), sort_keys=True, indent=2) + "\n" == t


def finite64_gram():
    import numpy as np
    from carpenter.seqcore import ProjectionRep

    rep = ProjectionRep.from_json_dict(json.load(open("finite64_rep.json"))["projection"])
    pairwise = [[a.inner(b) if i <= j else b.inner(a) for j, b in enumerate(rep.vectors)]
                for i, a in enumerate(rep.vectors)]
    assert rep.gram().tobytes() == np.array(pairwise).tobytes()
    err = max(abs(x - (i == j)) for i, row in enumerate(pairwise) for j, x in enumerate(row))
    report = json.load(open("finite64_report.json"))
    assert report["passed"] and report["gramMaxErr"] == err, (report, err)


def verify_at(s, dim_from):  # verify to the rep's settled prefix, or to the last row it touches
    from carpenter.cli import main

    out = json.load(open(f"{s}_rep.json"))
    dim = out["settled"] if dim_from == "settled" else 1 + max(
        v["sqrtTail"]["start"] if v["sqrtTail"] else v["support"][-1][0] for v in out["projection"]["vectors"])
    return main(f"verify --rep {s}_rep.json --spec {s}.json --dim {dim} --out {s}_report.json".split())


def build(r, m=None, construct_limit="inf"):  # [1/2] + constant(999999/1000000), or [] + omg(1, r)
    from carpenter.selector import carpenter, verify_projection
    from carpenter.seqcore import DiagonalSpec, TailRule

    if r == "constant":  # built at m = 4, not verified
        rep = carpenter(DiagonalSpec(("1/2",), TailRule.constant("999999/1000000")), 4)
        assert len(rep.vectors) == 4, len(rep.vectors)
        return
    spec = DiagonalSpec((), TailRule.one_minus_geometric(1, r))
    t0 = time.perf_counter()
    rep = carpenter(spec) if m is None else carpenter(spec, int(m))  # no trace: no plan is formatted
    assert (took := time.perf_counter() - t0) < float(construct_limit), f"construct took {took:.1f} s"
    dim = 1 + max(v.sqrt_tail.start if v.sqrt_tail else v.support[-1][0] for v in rep.vectors)
    report = verify_projection(rep, spec, dim)
    assert report.passed, report.to_json_dict()


def reach_deep(kind):  # reach and min_s past the prefix come from closed-form tail sums
    from carpenter.seqcore import DiagonalSpec, TailRule
    from carpenter.tetris import min_s

    if kind == "geometric":
        rule = TailRule.geometric("1/2", "9999/10000")
        j = DiagonalSpec((), rule).reach(2500)
        assert rule.partial_sum(j) >= 2500 > rule.partial_sum(j - 1), j
        assert min_s(DiagonalSpec((), TailRule.geometric("1/2", "999/1000")), 400) == 1609
    else:  # the first offset whose sum reaches x is bisected in [x, x + G], G = c r^k / (1 - r)
        rule = TailRule.one_minus_geometric("1/2", "999/1000")
        j = DiagonalSpec((), rule).reach(10000)
        assert j == 10500 and rule.partial_sum(j) >= 10000 > rule.partial_sum(j - 1), j
        assert min_s(DiagonalSpec((), rule), 10000) == 10500
