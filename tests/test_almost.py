import gc
import weakref
from fractions import Fraction

import pytest

from almostalg.almost import (
    IndMap,
    MonomialTower,
    _residuals,
    as_tower,
    closedify,
    colim_is_zero,
    colocal_ext_vanishing,
    compactness_check,
    const_tower,
    firmify,
    ideal_m,
    is_almost_iso,
    is_almost_zero,
    is_closed,
    is_exact_iso_levelwise,
    is_firm,
    mu_map,
    residue,
    shriek,
)
from almostalg.base_ring import RingConfig
from almostalg.exponents import PExp
from almostalg.modules import PresentedModule, iso_test

V2 = RingConfig.perfect(2)
V3 = RingConfig.perfect(3)
W21 = RingConfig.truncated(2, 1)
J = 8


def test_residue_is_almost_zero_but_nonzero():
    r = residue(V2)
    cert = is_almost_zero(r)
    assert cert.holds and cert.verdict == "certified-structural"
    assert not r.component(3).is_zero_module()


def test_fp_module_almost_zero_only_when_zero_over_domain():
    M = PresentedModule.cyclic(V2, Fraction(1, 2 ** J))
    assert not is_almost_zero(M).holds
    assert is_almost_zero(PresentedModule.zero(V2)).holds


def test_tiny_torsion_almost_zero_at_level_over_truncation():
    # V/(t^(1/2^J)) over V/(t) is not killed by t^(1/2^(J+1)): not almost
    # zero at any level, exactly
    M = PresentedModule.cyclic(W21, Fraction(1, 2 ** J))
    cert = is_almost_zero(M)
    assert not cert.holds and cert.verdict == "fails"
    assert cert.witness["decomposition"] == M.decompose()


def _grid_modules(p, c, J):
    """V/(t^(1/p^k)) for k <= J + 2, V/(t^c) itself and the zero module,
    over V/(t^c)."""
    cfg = RingConfig.truncated(p, c)
    yield PresentedModule.zero(cfg)
    yield PresentedModule.free(cfg, 0, 1)
    for k in range(J + 3):
        yield PresentedModule.cyclic(cfg, PExp(p, 1, k))


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("c", [1, 2])
def test_a_module_its_constant_tower_and_its_firmification_agree(p, c):
    """is_almost_zero gives a module, const_tower(M) and firmify(M) one
    verdict: holds exactly for the zero module, as certified-structural,
    and fails exactly otherwise, however small M's torsion."""
    J = 3
    for M in _grid_modules(p, c, J):
        certs = [is_almost_zero(x)
                 for x in (M, const_tower(M), firmify(M))]
        want = M.is_zero_module()
        assert [(x.holds, x.verdict) for x in certs] == [
            (want, "certified-structural" if want else "fails")] * 3, M


def test_a_tiny_scalar_on_v_mod_t_is_not_almost_iso():
    # t^(1/p^J) on V/(t) has kernel and cokernel V/(t^(1/p^J)), which are
    # not almost zero; over V/(t), V/(t) is the free module R
    from almostalg.modules import ModuleMap
    for p in (2, 3):
        for M in (PresentedModule.free(RingConfig.truncated(p, 1), 0, 1),
                  PresentedModule.cyclic(RingConfig.perfect(p), 1)):
            for level in (1, J):
                f = ModuleMap.scalar(M, PExp(p, 1, level))
                cert = is_almost_iso(f)
                assert not cert.holds and cert.verdict == "fails", (M, level)
                assert cert.witness["cokernel"] == "fails"


def test_mu_and_mu_prime_almost_iso():
    for cfg in (V2, V3, W21):
        for M in (PresentedModule.free(cfg, 0, 1),
                  PresentedModule.cyclic(cfg, Fraction(1, cfg.p)),
                  PresentedModule.from_factors(cfg, 1, [], 2)):
            assert is_almost_iso(mu_map(M)).holds
            # mu': M -> Hom(m, M) is an isomorphism: M is closed
            assert is_closed(M).holds


def test_mu_on_ideal_is_levelwise_iso():
    # m-tilde tensor m -> m is already an isomorphism, not just almost
    for cfg in (V2, V3, W21):
        assert is_exact_iso_levelwise(mu_map(ideal_m(cfg)))


def test_ideal_m_is_firm_and_modules_are_not():
    assert is_firm(ideal_m(V2)).holds
    # a structural no is a failure like every other no
    cert = is_firm(PresentedModule.free(V2, 0, 1))
    assert not cert.holds and cert.verdict == "fails"


def test_constant_towers_are_not_firm_through_their_tower():
    # a module takes is_firm's structural branch; its constant tower is
    # decided by the colimits of mu's kernel and cokernel towers, J = 1
    # included, where the kernel of the mixed-offset sum is exact
    mixed = PresentedModule.from_factors(
        V2, 2, [PExp(2, 1, 2), PExp(2, 1, 1)])
    for M in (PresentedModule.cyclic(V2, Fraction(1)), mixed):
        cert = is_firm(const_tower(M))
        assert not cert.holds and cert.verdict == "fails", M
        assert cert.witness == {
            "reason": "mu is not an isomorphism in the colimit"}


def test_check_commutes_refuses_families_that_are_not_mu():
    # identity towers under t^(1/p^j): the squares do not commute
    f = IndMap(ideal_m(V2), ideal_m(V2))
    assert not f.check_commutes()
    cert = is_almost_iso(f)
    assert not cert.holds and cert.witness == {
        "reason": "map family not natural"}
    # two lines against one: no line-by-line square to compare
    two = firmify(PresentedModule.from_factors(V2, 1, [PExp(2, 1, 1)], 1))
    one = const_tower(PresentedModule.cyclic(V2, Fraction(1)))
    assert not IndMap(two, one).check_commutes()
    assert not is_almost_iso(IndMap(two, one)).holds
    # mu itself is natural
    assert mu_map(two.closed_form).check_commutes()


def test_firmify_produces_firm_idempotently():
    M = PresentedModule.cyclic(V2, Fraction(1, 2))
    T = firmify(M)
    TT = firmify(T)
    assert is_firm(T).holds and is_firm(TT).holds
    for j in (J - 1, J):
        assert iso_test(T.component(j), TT.component(j))


def test_firmify_returns_the_tower_it_built_while_it_is_alive():
    M = PresentedModule.cyclic(V3, PExp(3, 1, 1))
    T = firmify(M)
    assert firmify(M) is T and shriek(M) is T
    TT = firmify(T)
    assert firmify(T) is TT and mu_map(T).source is TT
    # a module and its constant tower are different sources, whose firm
    # towers have the same pieces
    S = firmify(as_tower(M))
    assert S is not T and (S.K, S.forms) == (T.K, T.forms)


def test_the_firmify_memo_keeps_no_tower_alive():
    M = PresentedModule.cyclic(V3, PExp(3, 1, 1))
    # with the cycle collector off, a tower dies with its last reference
    # only if no reference cycle holds it
    gc.disable()
    try:
        T = firmify(M)
        TT = firmify(T)
        assert is_firm(T).holds and is_firm(TT).holds
        refs = [weakref.ref(T), weakref.ref(TT)]
        del T, TT
        assert [r() for r in refs] == [None, None]
        assert is_firm(firmify(M)).holds
    finally:
        gc.enable()


def test_firmify_refuses_what_is_neither_module_nor_tower():
    with pytest.raises(TypeError):
        firmify(3)


def test_is_firm_keeps_its_certificate():
    T = firmify(PresentedModule.cyclic(V2, PExp(2, 1)))
    a = is_firm(T)
    assert a.holds and T._firm_cert is a
    assert is_firm(T) is a


def test_a_positional_working_level_is_accepted_and_decides_nothing():
    # the deep-level benchmark still passes J positionally
    M = PresentedModule.cyclic(V3, PExp(3, 1, 1))
    T = firmify(M)
    with pytest.warns(DeprecationWarning, match="working level"):
        assert is_firm(T, 10) is is_firm(T)
    with pytest.warns(DeprecationWarning, match="working level"):
        cert = is_almost_iso(mu_map(M), 10)
    assert cert.holds and cert.witness == is_almost_iso(mu_map(M)).witness


def test_closedify_identity_on_monomial_modules():
    M = PresentedModule.from_factors(V2, 1, [], 1)
    assert is_closed(M).holds
    assert iso_test(closedify(closedify(M)), M)


def test_constant_towers_are_closed_like_their_module():
    # a constant tower that is not almost zero has its module's verdict,
    # over the perfect ring and over a truncation alike
    for cfg in (V2, W21):
        for M in (PresentedModule.cyclic(cfg, Fraction(1, 2)),
                  PresentedModule.free(cfg, 0, 1)):
            cert = is_closed(const_tower(M))
            assert cert.holds and cert.verdict == "certified-structural"
        with pytest.raises(ValueError):
            is_closed(firmify(PresentedModule.free(cfg, 0, 1)))


def test_residue_is_not_closed():
    cert = is_closed(residue(V2))
    assert not cert.holds and cert.verdict == "fails"


def test_shriek_roundtrip():
    for M in (PresentedModule.free(V2, 0, 1),
              PresentedModule.cyclic(V3, Fraction(1, 3))):
        S = shriek(M)
        assert is_firm(S).holds
        assert iso_test(closedify(S), M)


def test_colocal_ext_vanishing():
    for cfg in (V2, V3, W21):
        cert = colocal_ext_vanishing(ideal_m(cfg), residue(cfg))
        assert cert.holds and cert.verdict == "certified-structural"


def test_colocal_refuses_a_firm_tower_with_torsion_stages():
    # firmify(V/(t)) is firm, but its stages are not free, so Ext^1 is
    # not read off its closed form
    M = firmify(PresentedModule.cyclic(V2, 1))
    assert is_firm(M).holds
    with pytest.raises(ValueError, match="not decidable"):
        colocal_ext_vanishing(M, residue(V2))


def test_colocal_precondition_enforced():
    with pytest.raises(ValueError):
        colocal_ext_vanishing(const_tower(PresentedModule.free(V2, 0, 1)),
                              residue(V2))


def test_every_certificate_of_a_gate_run_is_exact(monkeypatch):
    """The acceptance gate's certificates, every one as it is built, are
    certified-structural or fail: no verdict is finitized at a level, and
    the verdict says which way it went (holds exactly when it is
    certified-structural)."""
    from almostalg.almost import AlmostCertificate
    from almostalg.suites import SuiteOptions, run_suite
    verdicts = []
    init = AlmostCertificate.__init__

    def recording_init(self, verdict, holds, witness=None):
        init(self, verdict, holds, witness)
        verdicts.append((verdict, holds))

    monkeypatch.setattr(AlmostCertificate, "__init__", recording_init)
    run_suite("all", SuiteOptions(seed=0, corpus_size=50, working_level=8,
                                  depth=4))
    assert set(verdicts) == {("certified-structural", True),
                             ("fails", False)}, set(verdicts)


def test_colim_death():
    from almostalg.almost import cokernel_tower
    # coker(mu on m) dies exactly stage by stage
    assert colim_is_zero(cokernel_tower(mu_map(ideal_m(V2))))
    # the residue tower only dies in the limit, never at a finite stage
    assert not colim_is_zero(residue(V2))
    assert not colim_is_zero(const_tower(PresentedModule.free(V2, 0, 1)))


def test_compactness_chain():
    assert compactness_check([Fraction(2), Fraction(1), Fraction(1, 2)])
    with pytest.raises(ValueError):
        compactness_check([Fraction(1), Fraction(2)])


def test_scalar_map_is_not_almost_iso():
    from almostalg.modules import ModuleMap
    M = PresentedModule.free(V2, 0, 1)
    f = ModuleMap.scalar(M, Fraction(1))
    assert not is_almost_iso(f).holds


def test_residuals_of_a_closed_form_tower_match_raw_loop():
    def raw_bound(i, j):
        return (Fraction(1, 3 ** j), Fraction(2) - Fraction(1, 3 ** j),
                None)[i]

    def raw_trans(i, j):
        # each line moves at its own rate
        return (i + 1) * (Fraction(1, 3 ** j) - Fraction(1, 3 ** (j + 1)))

    # the same tower in closed form at K = 0: per line its bound and the
    # running sum (i + 1)(1 - 3^(-j)) of its transitions, each a + g*3^(-j)
    T = MonomialTower(V3, 0, [((0, (0, 1), (1, -1)),),
                              ((0, (2, -1), (2, -2)),),
                              ((0, None, (3, -3)),)])
    for j in range(2 * J + 6):
        assert T.lines(j) == tuple(
            None if raw_bound(i, j) is None
            else PExp.from_fraction(3, raw_bound(i, j)) for i in range(3))
        assert T.trans_exp(j) == tuple(
            PExp.from_fraction(3, raw_trans(i, j)) for i in range(3))
    assert not colim_is_zero(T)
    assert not is_almost_zero(T).holds  # the free line survives
    is_almost_iso(mu_map(T))  # kernel and cokernel towers of T

    # perfect ring: every annihilator bound is the line's own exponent; a
    # residual the raw loop reaches within 40 stages is the exact one (a
    # difference below 0 is reported as 0), and one reached only in the
    # limit lies below every stage's
    for i, res in enumerate(_residuals(T)):
        for j in range(J + 1):
            best, acc = None, Fraction(0)
            for k in range(j, j + 41):
                a = raw_bound(i, k)
                if a is not None and (best is None or a - acc < best):
                    best = a - acc
                acc += raw_trans(i, k)
            if res is None:
                assert best is None
                continue
            r, reached = res.at(j)
            if reached:
                assert r.as_fraction() == max(best, 0), (i, j)
            else:
                assert r.as_fraction() < best, (i, j)


def test_a_bound_below_the_working_level_is_not_almost_zero():
    # one line of constant bound 1/3^5 and no transitions, at p = 3: its
    # colimit V/(t^(1/3^5)) is not almost zero although the bound is below
    # 1/p^4, the bound of a stage test at J = 4, so the line is the
    # witness
    T = MonomialTower(V3, 5, [((0, (1, 0), (0, 0)),)])
    cert = is_almost_zero(T)
    assert not cert.holds and cert.verdict == "fails"
    assert cert.witness == {"stage": 0, "line": 0,
                            "residual": Fraction(1, 243)}


def test_a_generator_that_dies_past_any_window_has_residual_zero():
    # bound 1 - 3^(-20) and transitions 2*3^(-j-1), so S(j) = 1 - 3^(-j):
    # the generator of stage 0 dies at stage 20 and no later one dies
    q = 3 ** 20
    T = MonomialTower(V3, 20, [((0, (q - 1, 0), (q, -q)),)])
    [res] = _residuals(T)
    assert res.at(0) == (PExp(3, 0), True)
    assert res.at(1) == (PExp(3, 2 * 3 ** 19 - 1, 20), False)
    assert not colim_is_zero(T)
    cert = is_almost_zero(T)
    assert not cert.holds and cert.witness["stage"] == 1


def test_residuals_are_read_off_every_piece():
    # bound 3^(-j) on stages 0..2 and 5 from stage 3 on, no transitions:
    # the least bound from stage 0 on is 1/9, at the last stage of the
    # first piece, and the limit 5 is the supremum
    T = MonomialTower(V3, 0, [((0, (0, 1), (0, 0)), (3, (5, 0), (0, 0)))])
    [res] = _residuals(T)
    assert res.at(0) == (PExp(3, 1, 2), True)
    assert res.at(2) == (PExp(3, 1, 2), True)
    assert res.at(3) == (PExp(3, 5), True)
    cert = is_almost_zero(T)
    assert cert.witness == {"stage": 0, "line": 0,
                            "residual": Fraction(1, 9)}
    # a line that is 0 at every stage dies, with or without transitions
    for S in ((0, 0), (1, -1)):
        assert colim_is_zero(MonomialTower(V3, 0, [((0, (0, 0), S),)]))


def test_a_negative_transition_is_refused():
    # S(j) = 3^(-j) - 1 decreases inside its piece; S(2) = 0 < S(1) = 2/3
    # across two pieces
    for line in (((0, None, (-1, 1)),),
                 ((0, None, (1, -1)), (2, None, (0, 0)))):
        with pytest.raises(ValueError, match="negative transition"):
            MonomialTower(V3, 0, [line])


def test_closed_forms_live_at_a_fractional_truncation_level():
    # V/(t^(1/2)) over p = 2: the modulus s^(p^level / 2) needs level >= 1,
    # so the closed forms of m and V/m are built there, like every stage
    from almostalg.exponents import PExp
    cfg = RingConfig.truncated(2, PExp(2, 1, 1))
    m, r = ideal_m(cfg), residue(cfg)
    assert m.closed_form.level == r.closed_form.level == 1
    assert iso_test(closedify(m), m.component(3))
    assert r.closed_form.rank == 0 and closedify(r).is_zero_module()
    assert is_almost_zero(r).holds
