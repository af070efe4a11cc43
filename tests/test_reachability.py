"""Every function in ``src/carpenter`` is reached from an entry point, or is listed in ALLOWED.

The entry points are the API (``carpenter``, ``verify_projection`` and the
canonical codec on one spec per route leaf, a long stream, a geometric fill,
``carpenter_field`` and ``synthesize_range``/``extract_spectral``), each CLI
subcommand and every demo.  The test lists every ``def`` under ``src/carpenter``
with ``ast``, runs the entry points under ``sys.setprofile`` and asserts that
the functions no call reached are exactly ALLOWED's names.  A new function that
nothing reaches fails it, and so does an allowed name that is now reached or
deleted: the list only gets shorter.
"""

import ast
import importlib
import inspect
import json
import runpy
import sys
import tempfile
from pathlib import Path

from test_route_corpus import _corpus

import carpenter as package
from carpenter import errors
from carpenter.cli import main
from carpenter.errors import InfeasibleDiagonalError
from carpenter.feasibility import route
from carpenter.selector import carpenter, carpenter_field, verify_projection
from carpenter.seqcore import CellField, DiagonalSpec, ProjectionRep, TailRule, dumps_canonical
from carpenter.sispectral import (
    RangeFunctionFile,
    SpectralSamples,
    extract_spectral,
    synthesize_range,
)

SRC = Path(package.__file__).parent  # the same path strings as the code objects' co_filename
DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
SAMPLES = {"d": 1, "window": [0, 1], "fibers": [
    {"xi": [0.25], "values": ["1", "1"]},
    {"xi": [0.5], "values": ["2/5", "2/5"], "tail": {"kind": "constant", "c": "2/5"}},
]}

# Functions no entry point reaches, each kept for the reason given.
ALLOWED = {
    "schurhorn.finite_projection_pair": "bench/spans.py times it, looked up by getattr",
    "summable.summable_construct": "bench/spans.py times it, looked up by getattr",
    "tetris.nonsummable_construct": "bench/spans.py times it, looked up by getattr",
    "seqcore.conjugate_by_permutation":
        "bench/spans.py times it, looked up by getattr; acceptance criterion 10 calls it",
    "seqcore.PermutationWindow.size": "bench/spans.py sizes conjugate_by_permutation's span by it",
    "seqcore.SparseVector.squares": "bench/worker.py reads the squares' denominator bits",
    "tetris.coupling": "acceptance criterion 02 checks the coupling identity and brackets",
    "tetris.TetrisOutput.a_coef": "acceptance criterion 01 reads the fill's a coefficients",
    "seqcore.SparseVector.exact_norm_sq":
        "exact reference: the norm check of test_tetris's Fraction fill reference",
    "seqcore.SparseVector.from_dense":
        "acceptance criterion 10 and the verify reference tests build frames with it",
}


def _defs() -> dict[tuple[str, int], str]:
    """``(file, first line) -> module.Qualified.name`` for every def under ``SRC``, nested
    ones too; a decorated def's first line is its first decorator's, as in ``co_firstlineno``."""
    out = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    assert name not in out.values(), name
                    out[path, first] = name
            walk(child, path, name)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), str(path), path.stem)
    return out


def _leaf_specs():
    """The first (spec, m) of the route corpus on each leaf, and one infeasible spec."""
    leaves = {}
    for spec, m in _corpus():
        try:
            leaf = "/".join(route(spec).label.path)
        except InfeasibleDiagonalError:
            leaf = "infeasible"
        leaves.setdefault(leaf, (spec, m))
    return list(leaves.values())


def _round_trip(rep: ProjectionRep):
    text = dumps_canonical(rep.to_json_dict())
    assert dumps_canonical(ProjectionRep.from_json_dict(json.loads(text)).to_json_dict()) == text


def _api(specs):
    infeasible = []
    for spec, m in specs:
        trace = {}
        try:
            rep = carpenter(spec, m, trace)
        except InfeasibleDiagonalError:
            infeasible.append(spec)
            continue
        settled = trace["settled_prefix"]
        assert verify_projection(rep, spec, max(m, settled or 0, 6), settled=settled).passed
        _round_trip(rep)
    # past m = 64 verify's bound is summed over the stored entries, not densely
    stream = DiagonalSpec((), TailRule.constant("2/5"))
    trace = {}
    rep = carpenter(stream, 128, trace)
    assert verify_projection(rep, stream, trace["settled_prefix"]).passed
    # a fill boundary past the prefix on a geometric tail: DiagonalSpec.reach's decaying branch
    geometric = DiagonalSpec((), TailRule.geometric("1/2", "3/4"))  # total 2
    trace = {}
    rep = carpenter(geometric, 2, trace)
    assert "/".join(trace["branch"]).endswith("X\\X'/X_N(N=0)/tetris"), trace["branch"]
    assert verify_projection(rep, geometric, 6, settled=trace["settled_prefix"]).passed
    feasible = [spec for spec, _ in specs if spec not in infeasible][:6]
    field = CellField(tuple((f"c{i}", spec) for i, spec in enumerate(feasible)))
    for cell in carpenter_field(field, 4).cells:
        _round_trip(cell.rep)
        assert json.loads(dumps_canonical(cell.to_json_dict()))["cell"] == cell.cell_id
    rf = synthesize_range(SpectralSamples.from_json_dict(SAMPLES), 6)
    extract_spectral(rf)
    assert RangeFunctionFile.from_json_dict(json.loads(dumps_canonical(rf.to_json_dict()))) == rf


def _cli(tmp: Path):
    def doc(name, value):
        (tmp / name).write_text(json.dumps(value))
        return str(tmp / name)

    stream = doc("stream.json", {"prefix": [], "tail": {"kind": "constant", "c": "2/5"}})
    infeasible = doc("infeasible.json", {"prefix": ["1/4"]})
    cells = doc("cells.json", [{"cell": "a", "spec": {"prefix": ["1/2", "1/2"]}}])
    samples = doc("samples.json", SAMPLES)
    rep, trace = str(tmp / "rep.json"), str(tmp / "trace.json")
    runs = [
        (0, ["check", "--spec", stream]),
        (2, ["check", "--spec", infeasible]),
        (0, ["construct", "--spec", stream, "--vectors", "8", "--trace", trace, "--out", rep]),
        (0, ["verify", "--rep", rep, "--spec", stream, "--tol", "1e-9", "--settled", "10"]),
        (0, ["field", "--input", cells, "--out", str(tmp / "field")]),
        (0, ["schur-horn", "--spectrum", "1,1,0", "--target", "3/4,3/4,1/2"]),
        (0, ["si", "--input", samples, "--vectors", "4"]),
        (0, ["oracle", "--dim", "4", "--trials", "5"]),
        (64, ["construct"]),
    ]
    for code, argv in runs:
        assert main(argv) == code, argv


def _demos(tmp: Path, monkeypatch):
    monkeypatch.chdir(tmp)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp))  # demos write temp files
    for demo in DEMOS:
        runpy.run_path(str(demo), run_name="__main__")


def test_every_function_is_reached_or_allowed(tmp_path, monkeypatch):
    defs = _defs()
    specs = _leaf_specs()
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        _api(specs)
        _cli(tmp_path)
        _demos(tmp_path, monkeypatch)
    finally:
        sys.setprofile(previous)
    reached = {(c.co_filename, c.co_firstlineno) for c in codes}
    unreached = {name for key, name in defs.items() if key not in reached}
    assert unreached == set(ALLOWED), (
        f"reached by no entry point, not allowed: {sorted(unreached - set(ALLOWED))}; "
        f"allowed, but reached or gone: {sorted(set(ALLOWED) - unreached)}"
    )


def test_package_names_are_the_modules_all_and_the_errors():
    want = {name for name, value in vars(errors).items() if isinstance(value, type)}
    for path in SRC.glob("*.py"):
        if path.stem != "__init__":
            module = importlib.import_module(f"carpenter.{path.stem}")
            want |= set(getattr(module, "__all__", ()))
    names = {n for n in dir(package) if not n.startswith("_")}
    assert {n for n in names if not inspect.ismodule(getattr(package, n))} == want
