"""Command-line front end.

Subcommands::

    check       feasibility report for one diagonal spec
    construct   build a projection representation for one spec
    field       build per-cell projections for a finite field of specs
    verify      re-check a stored representation against its spec
    schur-horn  finite spectrum-to-diagonal rotation
    si          synthesize a range-function file from spectral samples
    oracle      randomized necessity check on conjugated projections

Exit codes: 0 success, 1 failed verification or internal error, 2 infeasible
or invalid input, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

import numpy as np

from .errors import CarpenterError, InfeasibleDiagonalError, MajorizationError, SpecError
from .feasibility import route
from .schurhorn import schur_horn_unitary
from .selector import carpenter_field, necessity_oracle, verify_projection
from .seqcore import (
    CellField, DiagonalSpec, ProjectionRep, _json_field, _json_int, dumps_canonical, fmt_rat, rat,
)
from .sispectral import SpectralSamples, synthesize_range

USAGE_EXIT = 64
VECTORS = 16  # streamed vectors per subsequence, and verify's truncation dimension
TOL = 1e-9
SEED = 1729


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _count(text: str) -> int:
    """argparse type for counts and dimensions: a non-negative int."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _tol(text: str) -> float:
    """argparse type for tolerances: a finite, non-negative float."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol >= 0):
        raise argparse.ArgumentTypeError(f"expected a finite non-negative number, got {text!r}")
    return tol


def _load_json(path: str):
    """The JSON document in ``path``; a malformed one is a SpecError naming the path."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as e:  # JSONDecodeError, or text that is not UTF-8
            raise SpecError(f"bad input: {path} is not a JSON document: {e}") from e


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text + "\n")
    else:
        with open(out, "w") as fh:
            fh.write(text + "\n")


def _load_spec(path: str) -> DiagonalSpec:
    return DiagonalSpec.from_json_dict(_load_json(path))


def _cmd_check(args) -> int:
    spec = _load_spec(args.spec)
    try:
        r = route(spec)
    except InfeasibleDiagonalError as e:
        _emit(dumps_canonical(e.report.to_json_dict()), args.out)
        return 2
    doc = r.report.to_json_dict()
    doc["branch"] = list(r.label.path)
    _emit(dumps_canonical(doc), args.out)
    return 0


def _cmd_construct(args) -> int:
    spec = _load_spec(args.spec)
    r = route(spec)
    trace = {} if args.trace else None
    rep, settled = r.build_settled(args.vectors, trace)
    doc = {
        "spec": spec.to_json_dict(),
        "branch": list(r.label.path),
        "settled": settled,
        "vectors": args.vectors,
        "projection": rep.to_json_dict(),
    }
    _emit(dumps_canonical(doc), args.out)
    if args.trace:
        _emit(dumps_canonical(trace), args.trace)
    return 0


def _cmd_verify(args) -> int:
    spec = _load_spec(args.spec)
    rep_doc = _load_json(args.rep)
    settled = args.settled
    if isinstance(rep_doc, dict):  # a construct output, or a bare projection
        if settled is None and rep_doc.get("settled") is not None:
            settled = _json_int(rep_doc["settled"], "settled")  # verify rejects a negative one
        rep_doc = rep_doc.get("projection", rep_doc)
    rep = ProjectionRep.from_json_dict(rep_doc)
    report = verify_projection(rep, spec, args.dim, args.tol, settled)
    _emit(dumps_canonical(report.to_json_dict()), args.out)
    return 0 if report.passed else 1


def _safe_name(cell_id: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", cell_id)


def _cmd_field(args) -> int:
    doc = _load_json(args.input)
    items = _json_field(doc, "cells", "cell field") if isinstance(doc, dict) else doc
    field = CellField.from_json_list(items)
    files, owner = {}, {}  # cell id -> file name, and back
    for cell_id, _ in field.cells:
        name = f"cell_{_safe_name(cell_id)}.json"
        if name in owner:
            raise SpecError(f"cells {owner[name]!r} and {cell_id!r} both map to file {name!r}")
        files[cell_id], owner[name] = name, cell_id
    result = carpenter_field(field, args.vectors)  # raises naming the first infeasible cell
    os.makedirs(args.out, exist_ok=True)
    for cell in result.cells:
        _emit(dumps_canonical(cell.to_json_dict()), os.path.join(args.out, files[cell.cell_id]))
    partition = {c.cell_id: list(c.label.path) for c in result.cells}
    _emit(dumps_canonical(partition), os.path.join(args.out, "partition.json"))
    manifest = {
        "vectors": args.vectors,
        "cells": [
            {"cell": c.cell_id, "file": files[c.cell_id], "settled": c.settled}
            for c in result.cells
        ],
    }
    _emit(dumps_canonical(manifest), os.path.join(args.out, "manifest.json"))
    return 0


def _parse_rational_list(text: str) -> list:
    return [rat(tok.strip()) for tok in text.split(",") if tok.strip()]


def _cmd_schur_horn(args) -> int:
    lam = _parse_rational_list(args.spectrum)
    target = _parse_rational_list(args.target)
    u = schur_horn_unitary(lam, target)
    diag = np.diag(u.T @ np.diag([float(x) for x in lam]) @ u)
    doc = {
        "spectrum": [fmt_rat(x) for x in lam],
        "target": [fmt_rat(x) for x in target],
        "unitary": [[float(x) for x in row] for row in u],
        "achievedDiagonal": [float(x) for x in diag],
    }
    _emit(dumps_canonical(doc), args.out)
    return 0


def _cmd_si(args) -> int:
    samples = SpectralSamples.from_json_dict(_load_json(args.input))
    rf = synthesize_range(samples, args.vectors, args.tol)
    _emit(dumps_canonical(rf.to_json_dict()), args.out)
    return 0


def _cmd_oracle(args) -> int:
    report = necessity_oracle(args.dim, args.trials, args.seed, args.tol)
    _emit(dumps_canonical(report.to_json_dict()), args.out)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="carpenter", description="projections with prescribed diagonals")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, vectors=True):
        p.add_argument("--out", help="write JSON here instead of stdout")
        if vectors:
            p.add_argument(
                "--vectors", type=_count, default=VECTORS,
                help=f"streamed vectors per subsequence (default {VECTORS})",
            )

    p = sub.add_parser("check", parents=[], help="feasibility of one spec")
    p.add_argument("--spec", required=True, help="JSON file with prefix/tail")
    common(p, vectors=False)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("construct", help="build a projection for one spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--trace", help="write construction bookkeeping here")
    common(p)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="re-check a stored representation")
    p.add_argument("--rep", required=True, help="construct output (or bare projection JSON)")
    p.add_argument("--spec", required=True)
    p.add_argument("--dim", type=_count, default=VECTORS, help="truncation dimension")
    p.add_argument("--tol", type=_tol, default=TOL)
    p.add_argument("--settled", type=_count, default=None, help="override the settled prefix")
    common(p, vectors=False)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("field", help="per-cell projections for a field of specs")
    p.add_argument("--input", required=True, help="JSON list of {cell, spec}")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--vectors", type=_count, default=VECTORS)
    p.set_defaults(func=_cmd_field)

    p = sub.add_parser("schur-horn", help="finite spectrum-to-diagonal rotation")
    p.add_argument("--spectrum", required=True, help="comma-separated rationals")
    p.add_argument("--target", required=True, help="comma-separated rationals")
    common(p, vectors=False)
    p.set_defaults(func=_cmd_schur_horn)

    p = sub.add_parser("si", help="synthesize a range function from spectral samples")
    p.add_argument("--input", required=True, help="spectral samples JSON")
    p.add_argument("--tol", type=_tol, default=TOL)
    common(p)
    p.set_defaults(func=_cmd_si)

    p = sub.add_parser("oracle", help="randomized necessity check")
    p.add_argument("--dim", type=_count, required=True)
    p.add_argument("--trials", type=_count, default=1000)
    p.add_argument("--seed", type=_count, default=SEED)
    p.add_argument("--tol", type=_tol, default=TOL)
    common(p, vectors=False)
    p.set_defaults(func=_cmd_oracle)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else USAGE_EXIT
    try:
        return args.func(args)
    except (InfeasibleDiagonalError, MajorizationError, SpecError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)  # an OSError's text names its path
        return 2
    except KeyError as e:
        print(f"error: bad input: {e!r}", file=sys.stderr)
        return 2
    except CarpenterError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
