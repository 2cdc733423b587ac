"""The three benchmark workloads, driven through almostalg's public API.

Each workload has ``setup(seed)``, which imports almostalg and builds the
inputs (timed as set-up), and ``run(inputs, tracer)``, the timed part,
which returns an Outcome.  Outputs are checked against the known answers
after the clock stops.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time
from fractions import Fraction

import gen

clock = time.perf_counter


class NullTracer:
    """Stands in for tracer.Tracer in untraced runs."""

    def span(self, name, info=None, group=False):
        return contextlib.nullcontext()


class Outcome:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []   # first few failure descriptions
        self.detail = {}

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)


def _error(exc):
    return f"{type(exc).__name__}: {exc}"[:300]


# -- acceptance-all ------------------------------------------------------------

# The acceptance gate's own settings.  The suites draw their corpora from
# the suite seed, and the share of p = 3, k = 3 samples that the
# cokernel-enumeration oracle draws swings the wall time by about a
# quarter from one suite seed to the next, so this workload keeps the
# gate's fixed seed 0 instead of the benchmark seed.
ACCEPTANCE = {"seed": 0, "corpus_size": 50, "working_level": 8, "depth": 4}
CHECKS = ("cokernel-enumeration-oracle", "snf-random-oracle",
          "firmify-idempotent", "syntomic-ladder", "mu-almost-iso")


def acceptance_setup(seed):
    from almostalg.suites import SuiteOptions
    return SuiteOptions(**ACCEPTANCE)


def acceptance_run(opts, tracer):
    from almostalg.suites import SUITE_NAMES, run_suite
    out = Outcome()
    reports = []
    for name in SUITE_NAMES:
        t0 = clock()
        with tracer.span("suite." + name):
            try:
                reps = run_suite(name, opts)
            except Exception as exc:  # counted, not fatal
                reps = []
                out.check(False, f"{name}: {_error(exc)}")
        out.detail[f"suites.{name}.s"] = clock() - t0
        reports += reps
    doc = [r.to_json() for r in reports]
    for suite in doc:
        for c in suite["checks"]:
            out.check(c["verdict"] == "pass",
                      f"{suite['suite']}/{c['name']}: {c['witness']}")
    # the report `almostalg run-suite all --report` would write
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    out.detail["report_sha256"] = hashlib.sha256(text.encode()).hexdigest()
    return out


# -- deep-level ----------------------------------------------------------------

def deep_setup(seed):
    import almostalg  # noqa: F401  (import time is part of set-up)
    return gen.deep_modules(seed)


def _deep_checks(spec):
    """The firm/closed reflection checks on one module; all are theorems.
    Building the module is part of the timed work."""
    from almostalg import (PExp, PresentedModule, RingConfig, closedify,
                           firmify, is_almost_iso, is_firm, iso_test, mu_map,
                           shriek)
    p, J = gen.DEEP_P, gen.DEEP_J
    cfg = (RingConfig.perfect(p) if spec["mode"] == "perfect"
           else RingConfig.truncated(p, spec["truncation"]))
    exps = [PExp.from_fraction(p, Fraction(e)) for e in spec["exponents"]]
    level = max([0] + [e.k for e in exps])
    M = PresentedModule.from_factors(cfg, level, exps, spec["free_rank"])
    T = firmify(M)
    TT = firmify(T)
    yield "firmify-firm", is_firm(T, J).holds and is_firm(TT, J).holds
    yield "firmify-idempotent", all(
        iso_test(T.component(j), TT.component(j)) for j in (J - 1, J))
    yield "mu-almost-iso", is_almost_iso(mu_map(M), J).holds
    S = shriek(M)
    yield "shriek-roundtrip", (is_firm(S, J).holds
                               and iso_test(closedify(S), closedify(M)))


def deep_run(specs, tracer):
    out = Outcome()
    for i, spec in enumerate(specs):
        with tracer.span("module", info=i, group=True):
            try:
                for name, ok in _deep_checks(spec):
                    out.check(ok, f"module {i} {spec}: {name}")
            except Exception as exc:  # MemoryError included
                out.check(False, f"module {i}: {_error(exc)}")
    return out


# -- compute-requests ----------------------------------------------------------

def requests_setup(seed):
    import almostalg.cli  # noqa: F401
    return gen.compute_requests(seed)


def _verify(req, code, stdout):
    if code != 0:
        return False, f"exit {code}"
    res = json.loads(stdout)["result"]
    want = req["expect"]
    if req["op"] == "snf":
        got = res["invariant_factors"]
        return got == want["invariant_factors"], got
    if req["op"] == "decompose":
        return res == want, res
    keys = [str(k) for k in range(want["entries"])]
    return (sorted(res, key=int) == keys
            and len({tuple(v) for v in res.values()}) == len(keys)), len(res)


def requests_run(reqs, tracer):
    """One client, closed loop: each request is sent through
    ``almostalg.cli.main`` only after the previous one returned."""
    from almostalg.cli import main
    out = Outcome()
    results = []
    saved = sys.stdin, sys.stdout, sys.stderr
    try:
        for req in reqs:
            sys.stdin = io.StringIO(req["payload"])
            sys.stdout = io.StringIO()
            sys.stderr = io.StringIO()
            t0 = clock()
            with tracer.span("request", info=req["op"], group=True):
                try:
                    code = main(req["argv"])
                except Exception as exc:  # a traceback is a failure
                    code = _error(exc)
            results.append((clock() - t0, code, sys.stdout.getvalue(),
                            sys.stderr.getvalue()))
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    latency = {}
    for req, (dt, code, stdout, stderr) in zip(reqs, results):
        latency.setdefault(req["op"], []).append(dt * 1000)
        try:
            ok, got = _verify(req, code, stdout)
        except (ValueError, KeyError, TypeError) as exc:
            ok, got = False, _error(exc)
        out.check(ok, f"{req['op']} {req['payload'][:200]}: got {got} "
                      f"{stderr[:200]}")
    out.detail["latency_ms"] = latency
    return out


WORKLOADS = {
    "acceptance-all": (acceptance_setup, acceptance_run),
    "deep-level": (deep_setup, deep_run),
    "compute-requests": (requests_setup, requests_run),
}
