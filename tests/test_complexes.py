import random
from fractions import Fraction

import pytest

from almostalg.almost import mu_map, const_tower
from almostalg.base_ring import RingConfig
from almostalg.complexes import (
    ChainComplex,
    ChainMap,
    cone,
    cone_perf,
    cylinder,
    direct_sum_complex,
    firmify_perf,
    homology,
    is_acyclic,
    is_almost_qis,
    is_qis,
    mu_perf_map,
    perf_from_complex,
    shift,
    shift_perf,
    sum_perf,
)
from almostalg.linalg import PolyMatrix
from almostalg.modules import ModuleMap, PresentedModule, iso_test, ring_modulus

V2 = RingConfig.perfect(2)
V3 = RingConfig.perfect(3)
W22 = RingConfig.truncated(2, 2)


def two_term(cfg, mat_entries, p=None):
    p = p or cfg.p
    r0 = len(mat_entries)
    r1 = len(mat_entries[0])
    M0 = PresentedModule.free(cfg, 1, r0)
    M1 = PresentedModule.free(cfg, 1, r1)
    mat = PolyMatrix(r0, r1, p, mat_entries, ring_modulus(cfg, 1))
    d = ModuleMap(M1, M0, mat, check=False)
    return ChainComplex(cfg, {0: M0, 1: M1}, {1: d})


def test_dd_zero_enforced():
    M = PresentedModule.free(V2, 0, 1)
    f = ModuleMap.scalar(M, Fraction(1))
    with pytest.raises(ValueError):
        ChainComplex(V2, {0: M, 1: M, 2: M}, {1: f, 2: f})


def test_homology_of_scalar_complex():
    E = two_term(V2, [[[0, 0, 1]]])  # s^2 at level 1 = t
    H0 = homology(E, 0)
    H1 = homology(E, 1)
    assert [e.as_fraction() for e in H0.decompose_exponents()] == [Fraction(1)]
    assert H1.is_zero_module()


def test_cone_of_identity_is_acyclic():
    E = two_term(V3, [[[0, 1], [1]], [[], [0, 1]]])
    C, incl, proj = cone(ChainMap.identity(E))
    assert is_acyclic(C)


def test_cone_long_exact_endpoints():
    # cone of t: V -> V has homology V/t in degree 0
    V = PresentedModule.free(V2, 0, 1)
    E = ChainComplex.from_module(V)
    f = ChainMap(E, E, {0: ModuleMap.scalar(V, Fraction(1))})
    C, incl, proj = cone(f)
    assert iso_test(homology(C, 0), PresentedModule.cyclic(V2, Fraction(1)))
    assert homology(C, 1).is_zero_module()


def test_shift_homology():
    E = two_term(V2, [[[0, 0, 1]]])
    for k in (-2, 1, 3):
        S = shift(E, k)
        assert iso_test(homology(S, k), homology(E, 0))


def test_direct_sum_homology():
    E = two_term(V2, [[[0, 1]]])
    F = two_term(V2, [[[0, 0, 1]]])
    S = direct_sum_complex(E, F)
    H0 = homology(S, 0)
    assert sorted(e.as_fraction() for e in H0.decompose_exponents()) == [
        Fraction(1, 2), Fraction(1)]


def test_cylinder_factorization_random():
    rng = random.Random(3)
    for cfg in (V2, V3, W22):
        p = cfg.p
        for _ in range(4):
            ent = [[[rng.randrange(p) for _ in range(rng.randint(0, 3))]
                    for _ in range(2)] for _ in range(2)]
            A = PresentedModule.free(cfg, 1, 2)
            B = PresentedModule.free(cfg, 1, 2)
            g = ModuleMap(A, B,
                          PolyMatrix(2, 2, p, ent, ring_modulus(cfg, 1)),
                          check=False)
            f = ChainMap(ChainComplex.from_module(A),
                         ChainComplex.from_module(B), {0: g})
            cyl, iota, pi, H = cylinder(f)
            comp = pi.comp(0).compose(iota.comp(0))
            assert comp.equals(g.at_level(comp.level))
            assert is_qis(pi)
            assert all(h.is_zero_map() for h in H.values())


def test_cylinder_iota_is_the_identity_on_the_last_summand():
    # cyl_d = (E_{d-1} + F_d) + E_d, and iota_d : E_d -> cyl_d is the
    # identity onto the last summand, zero elsewhere
    rng = random.Random(7)
    for cfg in (V2, V3, W22):
        p = cfg.p
        for _ in range(3):
            ent = [[[rng.randrange(p) for _ in range(rng.randint(0, 3))]
                    for _ in range(2)] for _ in range(2)]
            E = two_term(cfg, ent)
            c = Fraction(rng.randrange(4), p)
            maps = [ChainMap.identity(E),
                    ChainMap(E, E, {d: ModuleMap.scalar(M, c)
                                    for d, M in E.terms.items()})]
            for f in maps:
                cyl, iota, pi, _ = cylinder(f)
                # both are built unchecked; a checked copy runs the squares
                for h in (iota, pi):
                    ChainMap(h.source, h.target, h.comps)
                assert set(iota.comps) == set(E.terms)
                for d, h in iota.comps.items():
                    mod, re = cyl.terms[d].modulus, E.terms[d].rank
                    rows = cyl.terms[d].rank
                    assert h.matrix == PolyMatrix.block(
                        rows, re, p, mod,
                        [(rows - re, 0, PolyMatrix.identity(re, p, mod))])


def test_qis_and_almost_qis():
    E = two_term(V2, [[[0, 1], [1]], [[], [0, 1]]])
    idm = ChainMap.identity(E)
    assert is_qis(idm)
    assert is_almost_qis(idm).holds
    # mu on a free module is an almost qis but not a qis
    V = PresentedModule.free(V2, 0, 1)
    assert is_almost_qis(mu_map(const_tower(V))).holds
    F = ChainComplex.from_module(V)
    sc = ChainMap(F, F, {0: ModuleMap.scalar(V, Fraction(1))})
    assert not is_qis(sc)
    assert not is_almost_qis(sc).holds


def test_perf_plus_bookkeeping():
    E = two_term(V2, [[[0, 1]]])
    P = perf_from_complex(E)
    assert P.mults == {0: (1, 0), 1: (1, 0)}
    FP = firmify_perf(P)
    assert FP.mults == {0: (0, 1), 1: (0, 1)}
    assert FP.aperf
    S = shift_perf(P, 1)
    assert S.mults == {1: (1, 0), 2: (1, 0)}
    T = sum_perf(P, FP)
    assert T.mults == {0: (1, 1), 1: (1, 1)}


def test_cone_perf_multiplicities():
    E = two_term(V2, [[[0, 1]]])
    P = perf_from_complex(E)
    C = cone_perf(mu_perf_map(P))
    # cone(m-tilde P -> P): firm part shifted up by one degree
    assert C.mults == {0: (1, 0), 1: (1, 1), 2: (0, 1)}


def test_perf_realization_rank_guard():
    E = two_term(V2, [[[0, 1]]])
    P = perf_from_complex(E)
    R = P.realize(4)
    assert R.term(0).rank == 1 and R.term(1).rank == 1


def test_mu_perf_map_is_stage_scalar():
    E = two_term(V2, [[[0, 1]]])
    f = mu_perf_map(perf_from_complex(E))
    stage = f.realize(3)
    # the degree-0 component is multiplication by t^(1/8)
    from almostalg.modules import kernel_map
    comp = stage.comp(0)
    K, _ = kernel_map(comp)
    assert K.is_zero_module()
