"""almostalg benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen):

* ``acceptance-all``   -- ``run_suite`` over every suite at the acceptance
  gate settings, timed per suite;
* ``deep-level``       -- firm/closed reflection checks on monomial modules
  at p = 3, J = 10;
* ``compute-requests`` -- a closed loop of seeded ``compute`` requests sent
  in-process through ``almostalg.cli.main``.

Every repetition runs in a fresh child process (a CLI user pays cold start
on every invocation), single-threaded, one at a time.  A repetition is
started while it is expected to end within ``--seconds`` (10 % slack); at
least one always runs.  Set-up time (import plus input generation) is also sampled in a
few set-up-only children.  Every output is checked against an answer
known by construction.

``--trace 0`` prints the end-to-end metrics, medians over repetitions.
``--trace 1`` runs one untraced and one traced repetition and prints the
per-layer metrics; spans go to ``.perfbench/`` in the checkout.  Suite
times and request latencies among them come from the untraced repetition.  The last
stdout line is the JSON result; the lines above it are informational.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 9
HARD_LIMIT_S = 170      # the whole run must end within 180 s
SUITES = ("quillen", "complexes", "k0", "algebra", "tilting", "tower")
OPS = ("snf", "decompose", "tilt_basis_iso")


class BenchError(Exception):
    pass


def _child(workload, seed, mode, deadline):
    """Run one child; returns its JSON result, or None when it crashed."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               PYTHONHASHSEED="0")
    timeout = max(1.0, deadline - time.monotonic())
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), workload,
             str(seed), mode],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"{mode} child timed out after {timeout:.0f} s",
              file=sys.stderr)
        return None, time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{mode} child exited {proc.returncode}:\n"
              f"{proc.stderr[-2000:]}", file=sys.stderr)
        return None, time.monotonic() - t0
    return json.loads(lines[-1]), time.monotonic() - t0


def _crashed_rep(elapsed):
    """A repetition whose process died counts as one failed attempt."""
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return {"wall_s": elapsed, "peak_rss_mb": peak, "attempted": 1,
            "failed": 1, "failures": ["child process died"], "detail": {}}


def _rep(workload, seed, mode, deadline):
    res, elapsed = _child(workload, seed, mode, deadline)
    return res if res is not None else _crashed_rep(elapsed)


def _setup_samples(workload, seed, deadline):
    out = []
    for _ in range(SETUP_PROBES):
        res, _ = _child(workload, seed, "setup", deadline)
        if res is None:
            raise BenchError("set-up failed; is this an almostalg checkout?")
        out.append(res)
    return out


def _git_commit():
    """HEAD of the checkout's git repository, read without running git;
    None when the checkout is not a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    """sha256 over src/ (path and content of every .py file)."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _percentile(values, q):
    """Nearest-rank percentile, reported only with >= 10 samples beyond it."""
    xs = sorted(values)
    if len(xs) * (100 - q) / 100 < 10:
        return None
    return xs[min(len(xs) - 1, int(len(xs) * q / 100))]


def _latencies(reps):
    out = {}
    for r in reps:
        for op, xs in r["detail"].get("latency_ms", {}).items():
            out.setdefault(op, []).extend(xs)
    return out


def _detail(workload, reps):
    """Workload-specific end-to-end figures (informational)."""
    d = {}
    if workload == "acceptance-all":
        for name in SUITES:
            xs = [r["detail"][f"suites.{name}.s"] for r in reps
                  if f"suites.{name}.s" in r["detail"]]
            if xs:
                d[f"{name}_s"] = statistics.median(xs)
        shas = {r["detail"].get("report_sha256") for r in reps} - {None}
        with open(os.path.join(HERE, "expected.json")) as fh:
            recorded = json.load(fh)["acceptance-all"]["report_sha256"]
        d["report_sha256"] = sorted(shas)
        d["report_matches_recorded"] = shas == {recorded}
    elif workload == "compute-requests":
        lat = _latencies(reps)
        allx = [x for xs in lat.values() for x in xs]
        if allx:
            d["request_p50_ms"] = statistics.median(allx)
            d["request_p99_ms"] = _percentile(allx, 99)
            d["request_samples"] = len(allx)
            for op in OPS:
                if lat.get(op):
                    d[f"{op}_p50_ms"] = statistics.median(lat[op])
    return d


def _select(values, kind):
    """The metrics BENCHMARK.json lists under `kind`, with their units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)[kind]
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise BenchError(f"no value measured for {missing}")
    return {m["name"]: (values[m["name"]], m["unit"]) for m in spec}


def measure(workload, seed, seconds, deadline):
    """--trace 0: repetitions until `seconds` have passed, medians."""
    start = time.monotonic()
    reps = []
    while True:
        t0 = time.monotonic()
        reps.append(_rep(workload, seed, "run", deadline))
        now = time.monotonic()
        # start another repetition only if it should end within the run
        # length (10 % slack) and well before the hard limit
        if (now + (now - t0) > start + 1.1 * seconds
                or now + (now - t0) > deadline - 15):
            break
    setups = _setup_samples(workload, seed, deadline)
    setup_s = [r["setup_s"] for r in reps + setups if "setup_s" in r]
    values = {
        "setup_s": statistics.median(setup_s),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    return reps, _select(values, "end_to_end")


def measure_traced(workload, seed, deadline):
    """--trace 1: one untraced and one traced repetition."""
    plain = _rep(workload, seed, "run", deadline)
    traced = _rep(workload, seed, "trace", deadline)
    layers = dict(traced.get("layers", {}))
    layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    d = _detail(workload, [plain])
    for name in SUITES:
        layers[f"suites.{name}.s"] = d.get(f"{name}_s", 0.0)
    layers["cli.request.p50_ms"] = d.get("request_p50_ms", 0.0)
    layers["cli.request.p99_ms"] = d.get("request_p99_ms") or 0.0
    layers["cli.request.samples"] = d.get("request_samples", 0)
    for op in OPS:
        layers[f"cli.op.{op}.p50_ms"] = d.get(f"{op}_p50_ms", 0.0)
    return plain, traced, _select(layers, "per_layer")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("acceptance-all", "deep-level",
                             "compute-requests"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "almostalg",
                                       "__init__.py")):
        print(f"error: no almostalg sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + HARD_LIMIT_S
    try:
        if args.trace:
            plain, traced, metrics = measure_traced(
                args.workload, args.seed, deadline)
            print("trace", json.dumps({"file": traced.get("trace_file")}))
            untraced, reps = [plain], [plain, traced]
        else:
            reps, metrics = measure(
                args.workload, args.seed, args.seconds, deadline)
            untraced = reps
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    detail = _detail(args.workload, untraced)
    detail.update(repetitions=len(reps),
                  wall_s_each=[r["wall_s"] for r in reps],
                  failed_share=failed / attempted if attempted else 1.0,
                  failures=[f for r in reps for f in r["failures"]][:10])
    print("provenance", json.dumps({
        "python": platform.python_version(),
        "backend": sorted({r.get("backend") for r in reps} - {None}),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }))
    print("detail", json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
