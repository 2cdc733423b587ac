import random
from fractions import Fraction

import pytest

from almostalg import modules
from almostalg.base_ring import RingConfig
from almostalg.exponents import PExp
from almostalg.linalg import PolyMatrix, snf
from almostalg.modules import (
    ModuleMap,
    PresentedModule,
    _column_monomial_factors,
    cokernel_map,
    direct_sum,
    iso_test,
    kernel_map,
    ring_modulus,
    tensor,
)

V2 = RingConfig.perfect(2)
W2 = RingConfig.truncated(2, 2)


def test_ring_modulus():
    assert ring_modulus(V2, 3) is None
    assert ring_modulus(W2, 2) == 8
    # t^(1/2) is no power of s = t at level 0
    with pytest.raises(ValueError):
        ring_modulus(RingConfig.truncated(2, Fraction(1, 2)), 0)


def test_decompose_cyclic():
    M = PresentedModule.cyclic(V2, Fraction(3, 4))
    assert M.free_rank() == 0
    assert [e.as_fraction() for e in M.decompose_exponents()] == [
        Fraction(3, 4)]


def test_decompose_mixed_factors():
    M = PresentedModule.from_factors(
        V2, 1, [PExp(2, 1, 1), PExp(2, 3, 0)], free_rank=2)
    assert M.free_rank() == 2
    assert sorted(e.as_fraction() for e in M.decompose_exponents()) == [
        Fraction(1, 2), Fraction(3)]


def test_at_level_preserves_class():
    M = PresentedModule.from_factors(V2, 1, [PExp(2, 1, 1)], 1)
    assert iso_test(M, M.at_level(3))


def test_direct_sum_and_tensor():
    A = PresentedModule.cyclic(V2, Fraction(1, 2))
    B = PresentedModule.cyclic(V2, Fraction(1, 4))
    S = direct_sum(A, B)
    assert sorted(e.as_fraction() for e in S.decompose_exponents()) == [
        Fraction(1, 4), Fraction(1, 2)]
    # R/a tensor R/b = R/min(a,b)
    T = tensor(A, B)
    assert [e.as_fraction() for e in T.decompose_exponents()] == [
        Fraction(1, 4)]


def test_kernel_cokernel_image_of_scalar():
    M = PresentedModule.cyclic(V2, Fraction(1))
    f = ModuleMap.scalar(M, Fraction(1, 2))
    K, _ = kernel_map(f)
    C, _ = cokernel_map(f)
    assert [e.as_fraction() for e in K.decompose_exponents()] == [
        Fraction(1, 2)]
    assert [e.as_fraction() for e in C.decompose_exponents()] == [
        Fraction(1, 2)]


def test_a_map_must_respect_the_source_relations():
    # 1 sends the relation t of V/(t) to t, which is not 0 in V/(t^2)
    A, B = PresentedModule.cyclic(V2, 1), PresentedModule.cyclic(V2, 2)
    with pytest.raises(ValueError,
                       match="map does not respect the source relations"):
        ModuleMap(A, B, [[[1]]])
    f = ModuleMap(B, A, [[[1]]])
    assert f.is_well_defined() and not f.is_zero_map()
    # t: V/(t^2) -> V/(t) lands in the relation span
    assert ModuleMap(B, A, [[[0, 1]]]).is_zero_map()


def test_map_composition_and_rank_nullity():
    M = PresentedModule.free(V2, 1, 2)
    mat = PolyMatrix(2, 2, 2, [[[0, 1], [1]], [[], [0, 1]]])
    f = ModuleMap(M, M, mat, check=False)
    K, _ = kernel_map(f)
    C, _ = cokernel_map(f)
    # free source and target of rank 2: over the fraction field
    # dim ker = 2 - dim im = dim coker
    assert K.free_rank() == C.free_rank()


def test_map_level_lifting():
    M = PresentedModule.cyclic(V2, Fraction(1), level=1)
    f = ModuleMap.scalar(M, Fraction(1, 2))
    g = f.at_level(3)
    assert g.source.level == 3
    assert iso_test(kernel_map(f)[0], kernel_map(g)[0])


def test_iso_test_distinguishes():
    A = PresentedModule.cyclic(V2, Fraction(1, 2))
    B = PresentedModule.cyclic(V2, Fraction(1, 4))
    assert not iso_test(A, B)
    assert iso_test(A, PresentedModule.cyclic(V2, Fraction(1, 2), level=3))


def test_truncated_clamps_exponents():
    M = PresentedModule.cyclic(W2, Fraction(3, 2))
    N = PresentedModule.free(W2, 1, 1)
    # over V/(t^2) the free module itself has annihilator t^2
    assert N.free_rank() == 1
    assert [e.as_fraction() for e in M.decompose_exponents()] == [
        Fraction(3, 2)]


def _column_monomial_matrix(rng, p, modulus):
    """Random relations with at most one nonzero entry per column: c*s^v
    over F_p[s] (c a nonzero constant), unit*s^v over F_p[s]/(s^m)."""
    rows, cols = rng.randint(0, 4), rng.randint(0, 7)
    ent = [[[] for _ in range(cols)] for _ in range(rows)]
    for j in range(cols):
        if not rows or rng.random() < 0.2:
            continue  # zero column
        i = rng.randrange(rows)
        if modulus is None:
            v = rng.choice((0, 0, 1, 2, 3, 5))
            ent[i][j] = [0] * v + [rng.randrange(1, p)]
        else:
            v = rng.randrange(modulus)
            unit = [rng.randrange(1, p)] + [rng.randrange(p)
                                            for _ in range(rng.randint(0, 3))]
            ent[i][j] = [0] * v + unit
    return PolyMatrix(rows, cols, p, ent, modulus)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("modulus", [None, 1, 2, 4, 8])
def test_column_monomial_factors_match_snf(p, modulus):
    rng = random.Random(f"column-monomial/{p}/{modulus}")
    for _ in range(60):
        R = _column_monomial_matrix(rng, p, modulus)
        want = [f for f in snf(R).invariant_factors if f]
        assert _column_monomial_factors(R) == want, R


def test_column_monomial_factors_take_each_rows_least_valuation():
    # row 0 holds s^3, 2s and s^2; row 1 nothing; row 2 the unit 2
    R = PolyMatrix(3, 4, 3, [[[0, 0, 0, 1], [0, 2], [], [0, 0, 1]],
                             [[], [], [], []],
                             [[], [], [2], []]])
    assert _column_monomial_factors(R) == [[1], [0, 1]]


def test_column_monomial_factors_refuse_other_shapes():
    two_in_a_column = [[[0, 1]], [[0, 0, 1]]]
    for m in (None, 4):
        assert _column_monomial_factors(
            PolyMatrix(2, 1, 2, two_in_a_column, m)) is None
    # 1 + s is not a monomial over F_p[s], but a unit mod s^m
    one_plus_s = [[[1, 1]]]
    assert _column_monomial_factors(PolyMatrix(1, 1, 3, one_plus_s)) is None
    assert _column_monomial_factors(
        PolyMatrix(1, 1, 3, one_plus_s, 4)) == [[1]]


def test_column_monomial_factors_drop_entries_that_vanish_mod_the_modulus():
    # written into the row dicts past the reducing set(), s^2 over
    # F_2[s]/(s^2) is the zero relation, not a torsion factor s^2
    R = PolyMatrix(2, 2, 2, modulus=2)
    R.nonzero[0][0] = [0, 0, 1]
    assert _column_monomial_factors(R) == []
    R.set(1, 1, [0, 1])
    assert _column_monomial_factors(R) == [[0, 1]]
    assert PresentedModule(RingConfig.truncated(2, 1), 1, 2, R).free_rank() \
        == 1


def _count_snf_calls(monkeypatch):
    calls = []

    def counted(A):
        calls.append(A)
        return snf(A)

    monkeypatch.setattr(modules, "snf", counted)
    return calls


def test_structural_constructors_run_no_snf(monkeypatch):
    calls = _count_snf_calls(monkeypatch)
    third, two_thirds = Fraction(1, 3), Fraction(2, 3)
    # over V/(t) the summand V/(t^2) is the whole ring, hence free
    for cfg, sum_torsion, sum_free in [
            (RingConfig.perfect(3), [third, two_thirds, Fraction(2)], 3),
            (RingConfig.truncated(3, 1), [third, two_thirds], 4)]:
        M = PresentedModule.from_factors(
            cfg, 1, [PExp(3, 1, 1), PExp(3, 2, 0)], 1)
        N = PresentedModule.from_factors(cfg, 1, [PExp(3, 2, 1)], 0)
        S = direct_sum(M, N, PresentedModule.free(cfg, 0, 2))
        T = tensor(M, N)
        for X in (S, S.at_level(3)):
            assert X.free_rank() == sum_free
            assert [e.as_fraction() for e in X.decompose_exponents()] == \
                sum_torsion
        # V/t^a tensor V/t^b = V/t^min(a, b), one factor per pair
        assert T.free_rank() == 0
        assert [e.as_fraction() for e in T.decompose_exponents()] == [
            third, two_thirds, two_thirds]
    assert calls == []


def test_snf_is_computed_once_on_demand(monkeypatch):
    calls = _count_snf_calls(monkeypatch)
    M = PresentedModule.from_factors(V2, 1, [PExp(2, 1, 1)], 1)
    assert calls == []
    res = M.snf()
    assert M.snf() is res and len(calls) == 1
    assert [f for f in res.invariant_factors if f] == [[0, 1]]


def test_killed_by_never_counts_a_free_summand():
    # over V/(t), t^1 = 0 kills the free module R, yet R is not killed at
    # stage 0; torsion is killed exactly up to its largest exponent
    from stage_reference import killed_by
    W = RingConfig.truncated(2, 1)
    assert not killed_by(PresentedModule.free(W, 0, 1), PExp(2, 1))
    assert not killed_by(PresentedModule.free(V2, 0, 1), PExp(2, 5))
    M = PresentedModule.from_factors(W, 2, [PExp(2, 1, 2), PExp(2, 1, 1)])
    assert killed_by(M, PExp(2, 1, 1)) and killed_by(M, PExp(2, 1))
    assert not killed_by(M, PExp(2, 1, 2))
    assert killed_by(PresentedModule.zero(W), PExp(2, 0))
