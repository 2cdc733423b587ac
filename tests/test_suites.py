import itertools
import random
import tracemalloc

import pytest

from almostalg import suites
from almostalg.linalg import SNFResult
from almostalg.polys import poly_add, poly_mul, poly_valuation

_real_snf = suites.snf


def _lowered_snf(A):
    """snf(A) with the valuation of its last non-unit invariant factor
    lowered by one (a zero factor counts as s^k over F_p[s]/(s^k))."""
    res = _real_snf(A)
    D = res.D.copy()
    for d in reversed(range(min(D.rows, D.cols))):
        f = D.entry(d, d)
        v = poly_valuation(f) if f else A.modulus
        if v > 0:
            D.set(d, d, [0] * (v - 1) + [1])
            break
    return SNFResult(res.U, D, res.W, res.row_ops, res.col_ops)


@pytest.mark.parametrize("seed, witness", [
    (0, {"sample": 0, "pred": 1, "got": 2}),
    (1, {"sample": 0, "pred": 2, "got": 4}),
])
def test_cokernel_oracle_catches_a_wrong_invariant_factor(
        monkeypatch, seed, witness):
    assert suites.cokernel_enumeration_oracle(seed, 5) is True
    monkeypatch.setattr(suites, "snf", _lowered_snf)
    assert suites.cokernel_enumeration_oracle(seed, 5) == (False, witness)


def _naive_image(A, p, k):
    """{A c : c in R^3}, R = F_p[s]/(s^k), as tuples of coefficient tuples."""
    elems = []
    for tup in itertools.product(range(p), repeat=k):
        e = list(tup)
        while e and not e[-1]:
            e.pop()
        elems.append(e)
    image = set()
    for c in itertools.product(elems, repeat=3):
        vec = []
        for row in A.entries:
            acc = []
            for cj, a in zip(c, row):
                acc = poly_add(acc, poly_mul(cj, a, p), p)
            acc = acc[:k]
            while acc and not acc[-1]:
                acc.pop()
            vec.append(tuple(acc))
        image.add(tuple(vec))
    return image


def test_enumerated_image_matches_naive_enumeration():
    rng = random.Random(3)
    for p, ks in ((2, (1, 2)), (3, (1, 2)), (2, (3, 3))):
        for _ in range(12):
            k = rng.randint(*ks)
            A = suites._random_matrix(rng, 3, 3, p, k - 1, k)
            elems, index, image = suites._enumerated_image(A, p, k)
            assert all(index[tuple(e)] == n for n, e in enumerate(elems))
            N = len(elems)
            assert len(image) == N ** 3 and set(image) <= {0, 1}
            # vector number y = (n0*N + n1)*N + n2
            got = {tuple(tuple(elems[n]) for n in (y // N ** 2, y // N % N,
                                                   y % N))
                   for y, flag in enumerate(image) if flag}
            assert got == _naive_image(A, p, k)


def test_annihilator_count_matches_a_product_count():
    rng = random.Random(4)
    for p, k in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)):
        A = suites._random_matrix(rng, 3, 3, p, k - 1, k)
        elems, index, image = suites._enumerated_image(A, p, k)
        naive = _naive_image(A, p, k)
        for v in range(1, k + 1):
            shifted = []
            for e in elems:
                x = ([0] * v + e)[:k]
                while x and not x[-1]:
                    x.pop()
                shifted.append(tuple(x))
            want = sum(y in naive
                       for y in itertools.product(shifted, repeat=3))
            assert suites._annihilator_count(
                image, elems, index, p, k, v) == want


def test_cokernel_oracle_peaks_below_half_a_megabyte():
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert suites.cokernel_enumeration_oracle(0, 100) is True
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < 500_000


def test_quillen_suite_catches_a_closedify_that_returns_zero(monkeypatch):
    # the fault: closedify rebound in every almostalg module to return the
    # zero module, so that a check comparing two closed forms still passes
    import sys

    from almostalg.modules import PresentedModule

    def zero(x):
        return PresentedModule.zero(x.cfg)

    for name, mod in list(sys.modules.items()):
        if name.partition(".")[0] == "almostalg" and \
                hasattr(mod, "closedify"):
            monkeypatch.setattr(mod, "closedify", zero)
    [rep] = suites.run_suite("quillen", suites.SuiteOptions())
    verdicts = {c["name"]: c["verdict"] for c in rep.checks}
    assert verdicts["closedify-idempotent"] == "fail"
    assert verdicts["shriek-roundtrip"] == "fail"
    assert not rep.ok


def test_the_working_level_decides_no_verdict():
    """Every verdict holds for all stages at once, so the gate's reports
    at working levels 1 and 8 differ only in the level they record."""
    def masked(J):
        docs = [rep.to_json() for rep in suites.run_suite(
            "all", suites.SuiteOptions(seed=0, corpus_size=50,
                                       working_level=J, depth=4))]
        for doc in docs:
            assert doc["config"].pop("working_level") == J
            for check in doc["checks"]:
                assert check.pop("working_level") == J
        return docs

    assert masked(1) == masked(8)
