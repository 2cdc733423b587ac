"""One repetition of a benchmark workload, in a fresh process.

    python3 perfbench/child.py WORKLOAD SEED MODE

MODE is ``setup`` (import and build the inputs only), ``run`` (also run
the timed part) or ``trace`` (run it with the tracer installed).  The
process caps its own address space first, so a memory blow-up shows as a
MemoryError failure instead of exhausting the machine.  The last line of
stdout is one JSON object with the measurements.
"""
from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time

ADDRESS_SPACE_CAP = 2 << 30
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACE_DIR = os.path.join(ROOT, ".perfbench")


def _cli_metrics(tracer):
    """Request latency minus time inside the OPS handler, per request."""
    request, handler = {}, {}
    for sp in tracer.spans:
        if sp.name == "request":
            request[sp.group] = sp.end - sp.start
        elif sp.name.startswith("cli.op."):
            handler[sp.group] = handler.get(sp.group, 0.0) + sp.end - sp.start
    if not request:
        return {"cli.overhead_ms": 0.0}
    over = [(request[g] - handler.get(g, 0.0)) * 1000 for g in request]
    return {"cli.overhead_ms": statistics.median(over)}


def _write_spans(tracer, workload, seed):
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"trace-{workload}-seed{seed}.jsonl")
    with open(path, "w") as fh:
        for sp in tracer.spans:
            fh.write(json.dumps(sp.to_json()) + "\n")
    return os.path.relpath(path, ROOT)


def main(argv):
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    resource.setrlimit(resource.RLIMIT_AS,
                       (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
    import workloads
    setup, run = workloads.WORKLOADS[workload]
    clock = time.perf_counter
    t0 = clock()
    inputs = setup(seed)
    result = {"setup_s": clock() - t0}

    import almostalg
    from almostalg.polys import BACKEND
    src = os.path.join(ROOT, "src", "almostalg")
    if os.path.dirname(os.path.abspath(almostalg.__file__)) != src:
        raise SystemExit(f"almostalg imported from {almostalg.__file__}, "
                         f"not from {src}")
    result["backend"] = BACKEND

    if mode != "setup":
        tracer = workloads.NullTracer()
        if mode == "trace":
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        t0 = clock()
        out = run(inputs, tracer)
        result["wall_s"] = clock() - t0
        if mode == "trace":
            tracer.remove()
            from tracer import layer_metrics
            layers = layer_metrics(tracer, workloads.CHECKS)
            layers.update(_cli_metrics(tracer))
            result["layers"] = layers
            result["trace_file"] = _write_spans(tracer, workload, seed)
        result.update(attempted=out.attempted, failed=out.failed,
                      failures=out.failures, detail=out.detail)
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
