"""Benchmark of the carpenter library: three workloads, end-to-end and per-layer metrics.

One workload run, the way the command in BENCHMARK.json is run::

    python3 bench/run.py --workload stream --seed 7 --seconds 30 --trace 0

prints a few report lines and, as its last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics, the
complexity sweep and the tracing overhead.  The full record of the run
(machine, seed, input sizes, sample counts, label histogram, output digest)
goes to ``.bench_out/result-<workload>-seed<seed>-trace<t>.json``.

Without ``--workload`` every workload runs untraced and one table lists every
end-to-end metric with its workload and unit.  ``--quick`` shortens a run for
smoke tests; ``python3 bench/selftest.py`` checks the result schema.

Each run generates its inputs from the seed, runs the library in child
processes (set-up alone a few times, then the workload under a wall-time
budget) and stops every child before it returns.  See README.md for what
each workload and metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import gen

BENCH_DIR = Path(__file__).resolve().parent
RUN_SECONDS = 30
MIN_OPS = 100  # every timed run makes at least this many ops, so p90 has 10 above it
HIST_OPS = 12  # label histogram and output digest cover the first ops of a run
WARMUP_OPS = 3
SETUP_REPEATS = 2  # set-up-only children, besides the workload child's own set-up
UNTRACED_SHARE = 1 / 3  # of --seconds, for the untraced half of a traced run
SWEEP_PER_BUCKET = 3
CLI_REPEATS = 3
RUN_LIMIT_S = 170  # the whole run, children included, ends before this
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "PYTHONHASHSEED": "0"}

END_TO_END = (
    ("setup_s", "s"),
    ("construct_ms_p50", "ms"),
    ("construct_ms_p90", "ms"),
    ("verify_ms_p50", "ms"),
    ("verify_ms_p90", "ms"),
    ("ops_per_s", "1/s"),
    ("success_ratio", "1"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("feasibility.classify_ms", "ms"),
    ("feasibility.classify_calls_per_op", "count"),
    ("feasibility.branch_of_ms", "ms"),
    ("tetris.min_s_ms", "ms"),
    ("tetris.min_s_calls", "count"),
    ("tetris.block_sort_ms", "ms"),
    ("tetris.fill_ms", "ms"),
    ("tetris.fill_us_per_vector", "us"),
    ("schurhorn.unitary_ms", "ms"),
    ("schurhorn.unitary_n_max", "count"),
    ("schurhorn.finite_projection_ms", "ms"),
    ("summable.decouple_ms", "ms"),
    ("summable.construct2_ms", "ms"),
    ("summable.group_size_max", "count"),
    ("seqcore.conjugate_ms", "ms"),
    ("seqcore.gram_ms", "ms"),
    ("seqcore.dense_ms", "ms"),
    ("seqcore.diag_ms", "ms"),
    ("seqcore.encode_ms", "ms"),
    ("seqcore.decode_ms", "ms"),
    ("seqcore.json_bytes", "bytes"),
    ("seqcore.vectors", "count"),
    ("seqcore.nnz", "count"),
    ("seqcore.window", "count"),
    ("seqcore.denominator_bits_max", "bits"),
    ("selector.carpenter_self_ms", "ms"),
    ("selector.verify_self_ms", "ms"),
    ("selector.field_self_ms", "ms"),
    ("sispectral.synthesize_ms", "ms"),
    ("sispectral.extract_ms", "ms"),
    ("cli.cold_start_ms", "ms"),
    ("trace.overhead_ratio", "1"),
) + tuple((f"sweep.{b}.{k}", "ms") for b in gen.sweep_bucket_names()
          for k in ("construct_ms", "verify_ms"))


# ---------------------------------------------------------------------------
# machine record


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git; None if absent."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def machine(root: Path) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")),
                       None)
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.machine(),
        "blas_threads": int(CHILD_ENV["OPENBLAS_NUM_THREADS"]),
        "git_commit": _git_commit(root),
        "src_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# children


def run_child(args: list[str], timeout: float) -> tuple[list[dict], bool, int | None]:
    """Run a worker, collecting its JSON lines; kill its process group when
    ``timeout`` runs out.

    Returns (lines, killed, exit code).
    """
    env = dict(os.environ, **CHILD_ENV)
    proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "worker.py"), *args],
                            stdout=subprocess.PIPE, text=True, env=env, start_new_session=True)
    lines: list[dict] = []

    def read():
        for line in proc.stdout:
            lines.append(json.loads(line))

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    killed = False
    try:
        proc.wait(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        killed = True
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and any CLI child it started
        proc.wait()
    reader.join()
    return lines, killed, proc.returncode


def _p(xs: list[float], q: int) -> float:
    """q-th percentile (10 = p10 ... 90 = p90); 0.0 without samples."""
    if not xs:
        return 0.0
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


def _quartiles(xs: list[float]) -> list[float] | None:
    return [_p(xs, 25), _p(xs, 50), _p(xs, 75)] if xs else None


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool,
                 quick: bool) -> tuple[dict, dict]:
    """One run; returns (the result object printed last, the full record)."""
    t_start = time.monotonic()
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    min_ops = HIST_OPS if quick or trace else MIN_OPS
    period = gen.PERIOD[workload]
    # whole periods, one more than the rate cap asks for
    count = period * (math.ceil(max(min_ops, seconds * gen.RATE_CAP[workload]) / period) + 1)
    items = gen.workload_inputs(workload, seed, count)
    files = {"inputs": items,
             "warmup": gen.workload_inputs(workload, seed, WARMUP_OPS, tag="warmup:")}
    if trace:
        files["sweep"] = gen.sweep_inputs(seed, 1 if quick else SWEEP_PER_BUCKET)
    plan = {"src": str(root / "src"), "root": str(root), "out_dir": str(out_dir), "tag": tag,
            "seconds": seconds, "min_ops": min_ops, "period": period,
            "hist_ops": HIST_OPS, "trace": trace,
            "untraced_share": UNTRACED_SHARE, "cli_repeats": 1 if quick else CLI_REPEATS}
    for key, doc in files.items():
        plan[key] = str(out_dir / f"{key}-{tag}.json")
        with open(plan[key], "w") as fh:
            json.dump(doc, fh)
    plan_path = out_dir / f"plan-{tag}.json"

    def write_plan(budget):
        plan["budget_s"] = budget
        with open(plan_path, "w") as fh:
            json.dump(plan, fh)

    setup_samples = []
    if not trace:
        write_plan(60.0)
        for _ in range(1 if quick else SETUP_REPEATS):
            lines, _, _ = run_child([str(plan_path), "--setup-only"], 60.0)
            setup_samples += [l["setup_s"] for l in lines if l.get("summary")]
    budget = RUN_LIMIT_S - (time.monotonic() - t_start)
    write_plan(budget - 10.0)  # the worker starts no op after this
    lines, killed, code = run_child([str(plan_path)], budget)

    summary = next((l for l in lines if l.get("summary")), None)
    ops = [l for l in lines if "phase" in l]
    expected = json.loads((BENCH_DIR / "expected.json").read_text())["histograms"][workload]
    failures = [f"{l['phase']} op {l['i']}: {l['why']}" for l in ops if not l["ok"]]
    hist_ok = summary is not None and summary["ops"] >= HIST_OPS \
        and summary["histogram"] == expected
    if summary is not None and not hist_ok:
        failures.append(f"label histogram of the first {HIST_OPS} ops differs from expected.json")
    if killed or summary is None:
        failures.append(f"worker stopped without a summary (killed={killed}, exit code {code})")
    lost = 1 if killed or summary is None else 0  # the op in flight when it stopped

    # the histogram blames the first HIST_OPS ops of the measured phase
    first = "untraced" if trace else "timed"
    measured = [l for l in ops if l["phase"] == first]
    bad = {id(l) for l in ops if not l["ok"]}
    if not hist_ok:
        bad |= {id(l) for l in measured[:HIST_OPS]}
    if trace:
        cli_runs = plan["cli_repeats"]
        attempted = len(ops) + lost + cli_runs
        failed = len(bad) + lost + (0 if summary and summary.get("cli_ok") else cli_runs)
        layers = summary.get("layers", {}) if summary else {}
        metrics = {name: {"value": float(layers.get(name, 0.0)), "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        attempted = len(measured) + lost
        good = [l for l in measured if id(l) not in bad]
        failed = attempted - len(good)
        construct = [l["c"] for l in measured if l["c"] is not None]
        verify = [l["v"] for l in measured if l["v"] is not None]
        busy_s = sum(l["w"] for l in measured) / 1e3
        if summary:
            setup_samples.append(summary["setup_s"])
        values = {
            "setup_s": statistics.median(setup_samples) if setup_samples else 0.0,
            "construct_ms_p50": _p(construct, 50),
            "construct_ms_p90": _p(construct, 90),
            "verify_ms_p50": _p(verify, 50),
            "verify_ms_p90": _p(verify, 90),
            "ops_per_s": len(good) / busy_s if busy_s > 0 else 0.0,
            "success_ratio": len(good) / attempted if attempted else 0.0,
            "peak_rss_mb": summary["maxrss_kb"] / 1024 if summary else 0.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    result = {"correct": failed == 0 and not failures, "attempted": max(attempted, 1),
              "failed": failed, "metrics": metrics}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "quick": quick,
        "machine": machine(root),
        "load": "closed loop, one client, one process, ops run back to back",
        "inputs": [item["size"] for item in items],
        "setup_samples_s": setup_samples,
        "samples": {"construct": sum(l["c"] is not None for l in measured),
                    "verify": sum(l["v"] is not None for l in measured)},
        "speed_factor": _quartiles([l["f"] for l in ops]),
        "wall_ops_per_s": summary["ops"] / summary["wall_s"] if summary else None,
        "op_ms": [[l["c"], l["v"], l["f"]] for l in measured],
        "ops": summary and summary["ops"], "exhausted": summary and summary["exhausted"],
        "histogram": summary and summary["histogram"], "expected_histogram": expected,
        "sha256": summary and summary["sha256"],
        "failures": failures[:20],
        "result": result,
    }
    if trace and summary:
        record["traced_ops"] = summary.get("traced_ops")
    with open(out_dir / f"result-{tag}.json", "w") as fh:
        json.dump(record, fh, indent=2)
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="short smoke-test run")
    args = parser.parse_args(argv)
    root = BENCH_DIR.parent
    if not (root / "src" / "carpenter" / "__init__.py").is_file():
        print(f"error: no library source at {root / 'src' / 'carpenter'}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else (2 if args.quick else RUN_SECONDS)

    if args.workload is not None:
        result, record = run_workload(root, args.workload, args.seed, seconds, bool(args.trace),
                                      args.quick)
        print(f"workload={args.workload} seed={args.seed} ops={record['ops']} "
              f"construct_samples={record['samples']['construct']} "
              f"verify_samples={record['samples']['verify']}")
        print(f"sha256 {args.workload} {record['sha256']}")
        for why in record["failures"]:
            print(f"failure: {why}")
        print(json.dumps(result))
        return 0

    all_correct = True
    print(f"{'workload':10} {'metric':18} {'value':>14} unit")
    for workload in gen.WORKLOADS:
        result, record = run_workload(root, workload, args.seed, seconds, False, args.quick)
        all_correct = all_correct and result["correct"]
        for name, m in result["metrics"].items():
            print(f"{workload:10} {name:18} {m['value']:14.4f} {m['unit']}")
        print(f"{workload:10} {'attempted/failed':18} {result['attempted']:>9}/{result['failed']}"
              f" ops, {record['samples']['construct']} construct and "
              f"{record['samples']['verify']} verify samples, sha256 {record['sha256']}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
