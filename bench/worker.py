"""One workload run in its own process.

Usage: ``python3 bench/worker.py PLAN.json [--setup-only]``, started by
``run.py``.  The plan names the input files and the run settings.

The worker imports the library from the checkout's ``src/``, decodes the
generated inputs (the timed set-up), warms up on inputs from another seed,
then runs ops in a closed loop: one client, the next op starts when the
previous one returns.  It prints one JSON line per op as it finishes, so the
parent still has every finished op if it has to stop the worker, and a last
``summary`` line.

With tracing on, the worker runs the ops untraced, runs the same ops again on
freshly decoded inputs with spans on, then the complexity sweep and the CLI
cold start, and reports per-layer metrics in the summary.

Every time the worker reports is scaled to a fixed machine speed.  Shared
machines change speed by 1.5-2x in phases of 5-15 seconds, far more than
the changes the benchmark must resolve, so after every op (and around set-up
and each CLI start) the worker times a fixed pure-Python kernel and multiplies
the wall time by ``CAL_REF_MS`` / (kernel time, averaged over the op's two
ends).  The factor ``f`` of each op goes out with it, so raw wall times are
``value / f``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

import spans

TOL = 1e-9
# kernel time at the reference speed: about its median on a 2-vCPU Intel Xeon
# VM under Python 3.11, where the benchmark was tuned
CAL_REF_MS = 0.3


def _kernel():
    s = Fraction(0)
    for i in range(1, 80):
        s += Fraction(i, 97)
    return s


def kernel_ms() -> float:
    """Machine speed probe: the fastest of three timings of a fixed kernel.

    The kernel allocates no objects the garbage collector tracks, so it never
    triggers a collection of the program's heap.
    """
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def speed_factor(k_before: float, k_after: float) -> float:
    return 2 * CAL_REF_MS / (k_before + k_after)


def ms_since(t0: float) -> float:
    return (time.perf_counter() - t0) * 1e3


def emit(doc: dict):
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


class Lib:
    """The library's modules, looked up by attribute at every call so the
    tracer's wrappers take effect."""

    def __init__(self, src: str):
        sys.path.insert(0, src)
        import carpenter

        if not os.path.abspath(carpenter.__file__).startswith(os.path.abspath(src) + os.sep):
            raise SystemExit(f"carpenter was imported from {carpenter.__file__}, not {src}")
        from carpenter import errors, feasibility, selector, seqcore, sispectral

        self.errors, self.feasibility = errors, feasibility
        self.selector, self.seqcore, self.sispectral = selector, seqcore, sispectral

    def decode(self, item: dict):
        doc = item["doc"]
        if item["kind"] == "spec":
            return self.seqcore.DiagonalSpec.from_json_dict(doc)
        if item["kind"] == "field":
            return self.seqcore.CellField.from_json_list(doc["cells"])
        return self.sispectral.SpectralSamples.from_json_dict(doc)


def touched_dim(rep) -> int:
    """One past the last index any vector of ``rep`` touches."""
    hi = 1
    for v in rep.vectors:
        if v.support:
            hi = max(hi, v.support[-1][0])
        if v.sqrt_tail is not None:
            hi = max(hi, v.sqrt_tail.start)
    return hi + 1


def verify_dim(rep, settled) -> int:
    return touched_dim(rep) if settled is None else max(settled, 1)


# ---------------------------------------------------------------------------
# one op per input kind: construct, verify, encode, decode


def _construct(lib: Lib, item: dict, obj):
    kind, m = item["kind"], item["m"]
    if kind == "spec":
        trace: dict = {}
        rep = lib.selector.carpenter(obj, m, trace)
        return (rep, trace.get("settled_prefix")), ["/".join(trace["branch"])]
    if kind == "field":
        out = lib.selector.carpenter_field(obj, m)
        return out, [str(c.label) for c in out.cells]
    out = lib.sispectral.synthesize_range(obj, m, TOL)
    return out, ["/".join(f.branch) for f in out.fibers]


def _verify(lib: Lib, item: dict, obj, out) -> bool:
    kind = item["kind"]
    if kind == "spec":
        rep, settled = out
        if item["verify"] == "settled" and settled is None:
            return False  # a streamed spec must report its settled prefix
        dim = verify_dim(rep, settled if item["verify"] == "settled" else None)
        return lib.selector.verify_projection(rep, obj, dim, TOL, settled).passed
    if kind == "field":
        return all(
            lib.selector.verify_projection(c.rep, spec, verify_dim(c.rep, c.settled), TOL,
                                           c.settled).passed
            for (_, spec), c in zip(obj.cells, out.cells)
        )
    back = lib.sispectral.extract_spectral(out)
    return all(
        got.xi == want.xi
        and max(abs(x - y) for x, y in zip(got.values, want.values)) <= TOL
        for got, want in zip(back.fibers, obj.fibers)
    )


def _to_json(item: dict, out) -> dict:
    return (out[0] if item["kind"] == "spec" else out).to_json_dict()


def _from_json(lib: Lib, item: dict, doc: dict):
    kind = item["kind"]
    if kind == "spec":
        return (lib.seqcore.ProjectionRep.from_json_dict(doc), None)
    if kind == "field":
        sel = lib.selector
        return sel.ProjectionField(tuple(
            sel.FieldCell(c["cell"], lib.feasibility.BranchLabel(tuple(c["branch"])),
                          lib.seqcore.ProjectionRep.from_json_dict(c["projection"]),
                          c["settled"])
            for c in doc["cells"]))
    return lib.sispectral.RangeFunctionFile.from_json_dict(doc)


def reps_of(item: dict, out) -> list:
    if item["kind"] == "spec":
        return [out[0]]
    if item["kind"] == "field":
        return [c.rep for c in out.cells]
    return [f.rep for f in out.fibers]


def run_op(lib: Lib, item: dict, obj) -> tuple[dict, object]:
    """Run one op; returns its record and the constructed output (or None).

    Record keys: ok, c/v/e/d (construct, verify, encode, decode ms; None when
    the step did not run), w (whole op ms), labels, text (canonical output),
    why (failure reason).
    """
    rec = {"ok": False, "c": None, "v": None, "e": None, "d": None, "labels": [],
           "text": "", "why": None}
    out = None
    t_op = time.perf_counter()
    try:
        if item.get("bad"):
            t0 = time.perf_counter()
            try:
                _construct(lib, item, obj)
            except lib.errors.InfeasibleDiagonalError as e:
                rec["c"] = ms_since(t0)
                rec["ok"] = item["bad"] in str(e)
                if not rec["ok"]:
                    rec["why"] = f"error does not name {item['bad']}: {e}"
            else:
                rec["why"] = "infeasible input did not raise"
            rec["labels"] = ["infeasible"]
            rec["text"] = f"infeasible {item['bad']}"
            return rec, None
        t0 = time.perf_counter()
        out, rec["labels"] = _construct(lib, item, obj)
        rec["c"] = ms_since(t0)
        t0 = time.perf_counter()
        passed = _verify(lib, item, obj, out)
        rec["v"] = ms_since(t0)
        t0 = time.perf_counter()
        text = lib.seqcore.dumps_canonical(_to_json(item, out))
        rec["e"] = ms_since(t0)
        t0 = time.perf_counter()
        back = _from_json(lib, item, json.loads(text))
        rec["d"] = ms_since(t0)
        rec["text"] = text
        if not passed:
            rec["why"] = "verification failed"
        elif lib.seqcore.dumps_canonical(_to_json(item, back)) != text:
            rec["why"] = "encode-decode-encode is not byte-identical"
        else:
            rec["ok"] = True
    except Exception as e:  # any other exception fails the op, and the run goes on
        rec["why"] = f"{type(e).__name__}: {e}"
    finally:
        rec["w"] = ms_since(t_op)
    return rec, out


def output_sizes(item: dict, out) -> tuple[int, int, int]:
    """(vectors, support entries, largest denominator bits) of an op's output."""
    vectors = nnz = bits = 0
    for rep in reps_of(item, out) if out is not None else []:
        vectors += len(rep.vectors)
        for v in rep.vectors:
            nnz += len(v.support)
            for q in v.squares or ():
                bits = max(bits, q.denominator.bit_length())
    return vectors, nnz, bits


# ---------------------------------------------------------------------------
# phases


def closed_loop(lib, items, objs, seconds, min_ops, period, deadline, phase, first_id=0,
                tracer=None, on_op=None):
    """Run ops in order until ``seconds`` passed, ``min_ops`` finished and the
    schedule completed a whole period (or the inputs or the deadline ran out),
    so every run holds the same mix of slots.  Returns (records, wall seconds).

    Step times in the records are scaled by the op's speed factor ``f``.
    """
    records = []
    start = time.perf_counter()
    k_prev = kernel_ms()
    for i, (item, obj) in enumerate(zip(items, objs)):
        now = time.perf_counter()
        if (now - start >= seconds and i >= min_ops and i % period == 0) or now >= deadline:
            break
        if tracer is None:
            rec, out = run_op(lib, item, obj)
        else:
            with tracer.op(first_id + i):
                rec, out = run_op(lib, item, obj)
        k_next = kernel_ms()
        rec["f"] = speed_factor(k_prev, k_next)
        k_prev = k_next
        for key in "cvedw":
            if rec[key] is not None:
                rec[key] *= rec["f"]
        if on_op is not None:
            on_op(item, out)
        records.append(rec)
        emit({"phase": phase, "i": first_id + i, "ok": rec["ok"], "c": rec["c"], "v": rec["v"],
              "w": rec["w"], "f": rec["f"], "why": rec["why"]})
    return records, time.perf_counter() - start


def labels_and_digest(records, hist_ops):
    head = records[:hist_ops]
    hist = Counter(label for r in head for label in r["labels"])
    digest = hashlib.sha256()
    for r in head:
        digest.update(r["text"].encode())
        digest.update(b"\n")
    return dict(sorted(hist.items())), digest.hexdigest()


def sweep(lib, items, deadline):
    """Median construct and verify ms per bucket, untraced."""
    times: dict[str, dict[str, list]] = {}
    k_prev = kernel_ms()
    for item in items:
        if time.perf_counter() >= deadline:
            break
        rec, _ = run_op(lib, item, lib.decode(item))
        k_next = kernel_ms()
        f = speed_factor(k_prev, k_next)
        k_prev = k_next
        emit({"phase": "sweep", "i": None, "ok": rec["ok"], "c": rec["c"], "v": rec["v"],
              "w": rec["w"], "f": f, "why": rec["why"]})
        for bucket in item["buckets"]:
            slot = times.setdefault(bucket, {"construct_ms": [], "verify_ms": []})
            slot["construct_ms"].append((rec["c"] or 0.0) * f)
            slot["verify_ms"].append((rec["v"] or 0.0) * f)
    return {f"sweep.{b}.{k}": statistics.median(v)
            for b, slot in times.items() for k, v in slot.items()}


def cli_cold_start(root: str, src: str, out_dir: str, repeats: int) -> tuple[float, bool]:
    """Median wall ms of ``python -m carpenter.cli check`` on a one-entry spec."""
    path = os.path.join(out_dir, "one_entry_spec.json")
    with open(path, "w") as fh:
        json.dump({"prefix": ["1"], "tail": {"kind": "zero"}}, fh)
    env = dict(os.environ, PYTHONPATH=src)
    times, ok = [], True
    for _ in range(repeats):
        k0 = kernel_ms()
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "carpenter.cli", "check", "--spec", path],
                              cwd=root, env=env, capture_output=True, text=True, timeout=60)
        times.append(ms_since(t0) * speed_factor(k0, kernel_ms()))
        ok = ok and proc.returncode == 0 and json.loads(proc.stdout)["verdict"] == "feasible"
    return statistics.median(times), ok


def main(argv: list[str]) -> int:
    with open(argv[0]) as fh:
        plan = json.load(fh)
    with open(plan["inputs"]) as fh:
        text = fh.read()
    deadline = time.perf_counter() + plan["budget_s"]

    k0 = kernel_ms()
    t0 = time.perf_counter()
    lib = Lib(plan["src"])
    items = json.loads(text)
    objs = [lib.decode(item) for item in items]
    setup_s = time.perf_counter() - t0
    setup_f = speed_factor(k0, kernel_ms())
    setup = {"summary": True, "setup_s": setup_s * setup_f, "setup_f": setup_f}
    if "--setup-only" in argv:
        emit(setup)
        return 0

    # every decoded input stays alive for the whole run, where a caller would
    # hold one at a time: move them out of the collector's generations so the
    # program's collections do not also walk the benchmark's pile of inputs
    gc.collect()
    gc.freeze()
    with open(plan["warmup"]) as fh:
        warm = json.load(fh)
    for item in warm:
        run_op(lib, item, lib.decode(item))

    seconds, min_ops, hist_ops = plan["seconds"], plan["min_ops"], plan["hist_ops"]
    summary = setup
    if not plan["trace"]:
        records, wall = closed_loop(lib, items, objs, seconds, min_ops, plan["period"],
                                    deadline, "timed")
    else:
        records, wall = closed_loop(lib, items, objs, seconds * plan["untraced_share"],
                                    min_ops, plan["period"], deadline, "untraced")
        summary.update(traced_phase(lib, plan, items[:len(records)], records, deadline))
    hist, digest = labels_and_digest(records, hist_ops)
    summary.update({
        "wall_s": wall, "ops": len(records), "exhausted": len(records) == len(items),
        "histogram": hist, "sha256": digest,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    })
    emit(summary)
    return 0


def traced_phase(lib, plan, items, untraced, deadline) -> dict:
    n = len(items)
    objs = [lib.decode(item) for item in items]  # fresh objects: no warm caches
    sizes = {"vectors": 0, "nnz": 0, "bits": 0}

    def on_op(item, out):
        vectors, nnz, bits = output_sizes(item, out)
        sizes["vectors"] += vectors
        sizes["nnz"] += nnz
        sizes["bits"] = max(sizes["bits"], bits)

    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        traced, _ = closed_loop(lib, items, objs, float("inf"), n, 1, deadline, "traced",
                                first_id=n, tracer=tracer, on_op=on_op)
    finally:
        restore()
    done = len(traced)
    factors = {n + i: r["f"] for i, r in enumerate(traced)}
    layers = spans.layer_metrics(spans.SpanStats(tracer.spans, factors), max(done, 1))
    per_op = lambda key: sum(r[key] or 0.0 for r in traced) / max(done, 1)
    layers.update({
        "seqcore.encode_ms": per_op("e"),
        "seqcore.decode_ms": per_op("d"),
        "seqcore.json_bytes": sum(len(r["text"]) for r in traced) / max(done, 1),
        "seqcore.vectors": sizes["vectors"] / max(done, 1),
        "seqcore.nnz": sizes["nnz"] / max(done, 1),
        "seqcore.denominator_bits_max": sizes["bits"],
        "trace.overhead_ratio":
            sum(r["w"] for r in traced) / max(sum(r["w"] for r in untraced[:done]), 1e-9),
    })
    tracer.write(os.path.join(plan["out_dir"], f"spans-{plan['tag']}.json"))
    del tracer

    with open(plan["sweep"]) as fh:
        layers.update(sweep(lib, json.load(fh), deadline))
    cold_ms, cold_ok = cli_cold_start(plan["root"], plan["src"], plan["out_dir"],
                                      plan["cli_repeats"])
    layers["cli.cold_start_ms"] = cold_ms
    return {"layers": layers, "traced_ops": done, "cli_ok": cold_ok}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
