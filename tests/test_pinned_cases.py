"""The runner of ``pinned_cases.CASES``, each step in a child process of its own, and its tests.

A case has ``inputs`` (file -> JSON value), ``input_sha256`` (file -> digest), ``limit`` (seconds
for all steps) and ``steps``.  A step runs ``cli`` (``python -m carpenter.cli`` arguments) or
``api`` (a function of the table's module and its arguments, returning the exit code) and
states ``exit`` (a code or a tuple of them; default 0; a nonzero one needs an ``error:`` line or
a failed report), ``stderr`` / ``stderr_not`` (regexes that must / must not match a line),
``sha256`` (file -> digest), ``fields`` (JSON file -> {key: value or predicate}, a float read
as ``float.hex``), ``limit`` (seconds; default ``LIMIT``) and ``rss_mb`` (its peak RSS).
"""

import copy
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

from pinned_cases import CASES

HERE = Path(__file__).resolve().parent
LIMIT = 120
# a child made by fork or vfork starts its peak RSS at its parent's, so each step starts from
# this small launcher, which kills it at its limit and prints its os.wait4 peak in KiB
LAUNCH = """import os, subprocess, sys, threading
step = subprocess.Popen(sys.argv[2:])
timer = threading.Timer(float(sys.argv[1]), step.kill)
timer.start()
_, status, usage = os.wait4(step.pid, 0)
timer.cancel()
print(f"\\n{usage.ru_maxrss}", end="")
sys.exit(os.waitstatus_to_exitcode(status) % 256)"""


def run_case(name, case, module="pinned_cases"):
    """Run ``case`` in a fresh directory; a failed check raises AssertionError naming it."""
    path = filter(None, (str(HERE.parent / "src"), str(HERE), os.environ.get("PYTHONPATH")))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    deadline, where = time.monotonic() + case.get("limit", float("inf")), "inputs"

    def fail(what):
        raise AssertionError(f"case {name}, {where}: {what}")

    def read(f):
        return (d / f).read_bytes() if (d / f).is_file() else fail(f"no file {f}")

    def check_sha256(pins):
        for f, want in pins.items():
            if (got := hashlib.sha256(read(f)).hexdigest()) != want:
                fail(f"sha256 of {f} is {got}, expected {want}")

    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for f, value in case.get("inputs", {}).items():
            (d / f).write_text(json.dumps(value) + "\n")
        check_sha256(case.get("input_sha256", {}))
        for k, step in enumerate(case["steps"], 1):
            run = step.get("cli") or step["api"]
            where, (fn, *args) = f"step {k} ({run})", run.split()
            argv = ["-m", "carpenter.cli", fn, *args] if "cli" in step else [
                "-c", f"import sys, {module} as m; sys.exit(m.{fn}(*{args}))"]
            limit = min(step.get("limit", LIMIT), deadline - time.monotonic())
            code, secs, rss, out, err = _run(argv, d, env, limit)
            want = step.get("exit", 0)
            if secs >= limit:
                fail(f"time limit {limit:.3g} s passed")
            if code not in (want if isinstance(want, tuple) else (want,)):
                fail(f"exit {code}, expected {want}; stderr ends {err[-800:]!r}")
            if code and not (re.search("^error:", err, re.M) or '"passed": false' in out):
                fail(f"exit {code} with no error line and no failed report")
            for pat, must in [(p, True) for p in step.get("stderr", ())] + [
                    (p, False) for p in step.get("stderr_not", ())]:
                if bool(re.search(pat, err, re.M)) != must:
                    fail(f"stderr {'does not match' if must else 'matches'} {pat!r}: {err[-800:]!r}")
            if rss > step.get("rss_mb", float("inf")):
                fail(f"peak RSS {rss:.0f} MB, over {step['rss_mb']} MB")
            check_sha256(step.get("sha256", {}))
            for f, fields in step.get("fields", {}).items():
                doc = json.loads(read(f))
                for key, want in fields.items():
                    got = doc.get(key) if isinstance(doc, dict) else None
                    got = float.hex(got) if isinstance(got, float) else got
                    if not (want(got) if callable(want) else got == want):
                        fail(f"field {key} of {f} is {str(got)[:200]}")


def _run(argv, cwd, env, limit):
    """``python argv`` under LAUNCH: (exit, seconds, peak RSS in MB, stdout, stderr)."""
    t0 = time.monotonic()
    p = subprocess.run([sys.executable, "-c", LAUNCH, str(max(limit, 0)), sys.executable, *argv],
                       cwd=cwd, env=env, capture_output=True, text=True, errors="replace")
    out, rss = p.stdout.rsplit("\n", 1)
    return p.returncode, time.monotonic() - t0, int(rss) / 1024, out, p.stderr


@pytest.mark.parametrize("name", list(CASES))
def test_pinned_case(name):
    run_case(name, CASES[name])


@pytest.mark.parametrize("fault, check", [({"sha256": {"s_rep.json": "0" * 64}}, "sha256 of s_rep.json is "),
                                          ({"exit": 1}, "exit 0, expected 1"), ({"limit": 0.05}, "time limit")])
def test_runner_refuses_a_faulty_copy(fault, check):
    case = copy.deepcopy(CASES["reduced"])
    case["steps"][0].update(fault)
    with pytest.raises(AssertionError) as refusal:
        run_case("reduced", case)
    msg = str(refusal.value)
    assert msg.startswith("case reduced, step 1 (construct --spec s.json") and check in msg
