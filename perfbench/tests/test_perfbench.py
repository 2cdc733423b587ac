"""Tests of the benchmark itself: tracer coverage, known answers, counters.

    python3 -m pytest perfbench/tests -q
"""
import copy
import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import pytest  # noqa: E402

import gen  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, bindings, layer_metrics  # noqa: E402


@pytest.fixture
def tracer():
    import almostalg.cli  # noqa: F401  (load every almostalg module)
    t = Tracer()
    t.install()
    yield t
    t.remove()


def _counters(metrics):
    return {k: v for k, v in metrics.items()
            if not k.endswith(("_s", "_ms"))}


def test_no_binding_escapes_the_tracer(tracer):
    originals = set(tracer.wrappers)
    escaped = [(getattr(c, "__name__", type(c).__name__), k)
               for c, k, v, _ in bindings() if id(v) in originals]
    assert not escaped
    import almostalg
    from almostalg import cli, linalg, modules, polys, suites
    wrapped = set(map(id, tracer.wrappers.values()))
    for value in (polys.poly_mul, linalg.poly_mul, modules.snf, linalg.snf,
                  almostalg.snf, suites.is_firm, linalg._check_snf,
                  cli.OPS["snf"], cli._op_snf, suites.SuiteReport.add,
                  vars(modules.PresentedModule)["__init__"]):
        assert id(value) in wrapped


def test_remove_restores_every_original():
    import almostalg.cli  # noqa: F401
    before = {(id(c), k): v for c, k, v, _ in bindings()}
    t = Tracer()
    t.install()
    assert t.patches
    t.remove()
    after = {(id(c), k): v for c, k, v, _ in bindings()}
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    wrapped = set(map(id, t.wrappers.values()))
    assert not [k for k, v in after.items() if id(v) in wrapped]


def test_spans_nest_and_kernels_aggregate(tracer):
    from almostalg.linalg import PolyMatrix, snf
    with tracer.span("request", group=True):
        snf(PolyMatrix(2, 2, 3, [[[1], []], [[], [0, 1]]]))
        snf(PolyMatrix(2, 2, 3, [[[0, 1], [1, 1]], [[2], [1, 0, 1]]]))
    names = [sp.name for sp in tracer.spans]
    assert names[:2] == ["request", "linalg.snf"]
    assert "linalg.check_snf" in names and "linalg.matmul" in names
    assert {sp.group for sp in tracer.spans} == {0}
    m = layer_metrics(tracer)
    assert m["linalg.snf.calls.pid"] == 2
    assert m["linalg.snf.presolved_share"] == 0.5
    assert m["polys.mul.calls.le8"] > 0
    for sp in tracer.spans:
        assert sp.end - sp.start >= sp.child >= 0


def test_generated_answers_hold_and_wrong_ones_fail():
    reqs = gen.compute_requests(7)[:40]
    assert {r["op"] for r in reqs} == {"snf", "decompose", "tilt_basis_iso"}
    out = workloads.requests_run(reqs, workloads.NullTracer())
    assert (out.attempted, out.failed) == (40, 0), out.failures
    bad = copy.deepcopy(next(r for r in reqs if r["op"] == "snf"))
    bad["expect"]["invariant_factors"].append([1])
    assert workloads.requests_run([bad], workloads.NullTracer()).failed == 1


def test_request_mix_is_fixed_across_seeds():
    def shape(seed):
        out = []
        for r in gen.compute_requests(seed):
            doc = json.loads(r["payload"])
            grid = doc.get("matrix", doc.get("relations", []))
            out.append((r["op"], len(grid), doc.get("p"), r["argv"][:4],
                        "modulus" in doc or "--mode" in r["argv"]))
        return sorted(out, key=repr)
    assert shape(1) == shape(2)
    mass = [[sum(map(Fraction, m["exponents"])) for m in
             gen.deep_modules(seed)] for seed in (1, 2)]
    assert mass[0] == mass[1]
    for m in gen.deep_modules(3):
        assert max(Fraction(e).denominator for e in m["exponents"]) == 27


@pytest.mark.parametrize("run, inputs", [
    (workloads.requests_run, lambda: gen.compute_requests(5)[:60]),
    (workloads.deep_run, lambda: gen.deep_modules(5)[:1]),
])
def test_counters_repeat_exactly(run, inputs):
    runs = []
    for _ in range(2):
        t = Tracer()
        t.install()
        try:
            out = run(inputs(), t)
        finally:
            t.remove()
        assert out.failed == 0, out.failures
        runs.append(_counters(layer_metrics(t, workloads.CHECKS)))
    assert runs[0] == runs[1]
    assert runs[0]["linalg.snf.calls.pid"] + runs[0][
        "linalg.snf.calls.chain"] > 0
