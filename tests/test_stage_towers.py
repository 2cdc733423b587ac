"""The almost checks decided on towers, against their stage pipelines.

Lemma A, theta, the shriek split and firmify-idempotent read their
verdicts off closed-form towers.  tests/stage_reference.py keeps the stage
pipelines they replaced; here every stage module the towers give is
compared with the one the pipeline builds at ring level j, and the
verdicts with the pipeline's, at p = 2, 3 and 5.  The negative controls
make each tower-decided check say no."""
from fractions import Fraction

import pytest

import stage_reference as ref
from almostalg import algebra as alg
from almostalg import almost
from almostalg import tower as towermod
from almostalg.almost import (
    IndMap,
    MonomialTower,
    cokernel_tower,
    diagonal_cokernel,
    firmify,
    kernel_tower,
    same_stages,
)
from almostalg.base_ring import RingConfig
from almostalg.exponents import PExp
from almostalg.k0 import split_check
from almostalg.modules import PresentedModule, cokernel_map, kernel_map
from almostalg.suites import SuiteOptions, monomial_corpus, perf_corpus, \
    run_suite

# the deepest stage compared per prime: stage j is built at ring level j,
# where t^n costs n*p^j slots
DEPTH = {2: 10, 3: 7, 5: 4}


def _rings(p):
    return (RingConfig.perfect(p), RingConfig.truncated(p, 2))


def _bases(cfg):
    """The algebra suite's B, and a free B of rank 2."""
    p = cfg.p
    return (PresentedModule.free(cfg, 0, 1), PresentedModule.cyclic(cfg, 2),
            PresentedModule.cyclic(cfg, PExp(p, 1, 2)),
            PresentedModule.free(cfg, 0, 2))


def _same(M, N):
    """M and N have the same decomposition at a common level."""
    L = max(M.level, N.level)
    return M.at_level(L).decompose() == N.at_level(L).decompose()


def _maps_agree(f, stage, j):
    """Stage j of the tower map f has the kernel and cokernel of the
    stage map built by the pipeline."""
    return (_same(kernel_tower(f).component(j), kernel_map(stage)[0])
            and _same(cokernel_tower(f).component(j),
                      cokernel_map(stage)[0]))


@pytest.mark.parametrize("p", sorted(DEPTH))
def test_lemma_a_towers_match_the_stage_pipelines(p):
    for cfg in _rings(p):
        for n in (1, 2, Fraction(1, p)):
            if cfg.trunc is not None and PExp.from_fraction(p, n) \
                    >= cfg.trunc:
                continue
            An = PresentedModule.cyclic(cfg, n)
            shriek2 = diagonal_cokernel(firmify(An))
            plus = towermod.a_n_plus_tower(n, cfg)
            can = IndMap(shriek2, plus, [(0, 0)] * len(shriek2.forms))
            for j in range(DEPTH[p] + 1):
                stage = ref.lemma_a_map(n, cfg, j)
                assert _same(shriek2.component(j), stage.source), (n, j)
                assert _same(plus.component(j), stage.target), (n, j)
                assert _maps_agree(can, stage, j), (cfg, n, j)
                assert ref.lemma_a_stage(n, cfg, j), (cfg, n, j)
            assert towermod.verify_lemmaA(n, cfg), (cfg, n)
            for J in range(1, DEPTH[p] + 1):
                assert ref.verify_lemmaA(n, cfg, J), (cfg, n, J)


@pytest.mark.parametrize("p", sorted(DEPTH))
def test_theta_and_the_inclusion_match_the_stage_pipelines(p):
    for cfg in _rings(p):
        for B in _bases(cfg):
            theta, incl = alg.theta_map(B), alg.shriek_inclusion(B)
            for j in range(DEPTH[p] + 1):
                assert _maps_agree(theta, ref.theta_stage_map(B, j), j), (
                    B, j)
                assert _maps_agree(incl, ref.inclusion_stage_map(B, j), j), (
                    B, j)
            assert alg.shriek_almost_iso_check(B), B
            for J in range(1, DEPTH[p] + 1):
                assert ref.shriek_almost_iso_check(B, J), (B, J)
            # the pipeline measured the pattern on stages 0..probe and
            # decided the colimit on it; the towers decide it for every
            # stage, with the same measured stages
            measured, follows = ref.shriek_split_pattern(B, DEPTH[p])
            assert follows
            ker, coker = kernel_tower(incl), cokernel_tower(incl)
            for j in range(DEPTH[p] + 1):
                assert tuple(coker.component(j).decompose_exponents()) \
                    == measured["coker"][j] == (PExp(p, 1, j),), (B, j)
                assert tuple(ker.component(j).decompose_exponents()) \
                    == measured["ker"][j], (B, j)
            assert alg.shriek_split_check(B)


def test_firmify_idempotent_compares_what_the_components_compared():
    for p in sorted(DEPTH):
        for M in monomial_corpus(p, 12, primes=(p,)):
            T = firmify(M)
            TT = firmify(T)
            assert same_stages(T, TT)
            assert ref.firm_idem_stages(T, TT, DEPTH[p]), M


# -- negative controls -----------------------------------------------------

@pytest.mark.parametrize("p", [2, 3])
def test_lemma_a_refuses_the_kernel_bound_one_stage_deeper(p):
    """The canonical map's kernel at stage j is V/(t^(1/p^j)) exactly, so
    the bound t^(1/p^(j+1)) is refused by the stage test and by the
    tower's stage."""
    cfg = RingConfig.perfect(p)
    assert not ref.verify_lemmaA(1, cfg, 5, bound=lambda j: PExp(p, 1, j + 1))
    An = PresentedModule.cyclic(cfg, 1)
    shriek2 = diagonal_cokernel(firmify(An))
    can = IndMap(shriek2, towermod.a_n_plus_tower(1, cfg), [(0, 0)])
    for j in range(5):
        K = kernel_tower(can).component(j)
        assert K.decompose_exponents() == [PExp(p, 1, j)]
        assert not ref.killed_by(K, PExp(p, 1, j + 1))


def test_theta_refuses_a_map_without_its_twist(monkeypatch):
    """theta with the B_! lines sent by the identity, not t^(1/p^j), is
    not a map of towers.  B is free of rank 2 here: on a cyclic B the
    twist of generator 0 is implied by the unit leg."""
    theta_map = alg.theta_map

    def untwisted(B):
        f = theta_map(B)
        return IndMap(f.source, f.target, [(0, 0)] * len(f.u))

    monkeypatch.setattr(alg, "theta_map", untwisted)
    for cfg in _rings(2):
        B = PresentedModule.free(cfg, 0, 2)
        assert not alg.shriek_almost_iso_check(B), cfg


def test_a_b_whose_generator_0_is_not_its_first_summand_is_refused():
    """const_tower orders summands by exponent, so for V/(t^2) + V/(t^(1/2))
    the tower B_!! would put the unit on V/(t^(1/2)), where the stage
    pipeline's diagonal reaches generator 0, V/(t^2)."""
    cfg = RingConfig.perfect(2)
    B = PresentedModule.from_factors(cfg, 1, [2, PExp(2, 1, 1)])
    assert ref.b_shriek_shriek(B, 3)[0].decompose_exponents() == [
        PExp(2, 1, 1), PExp(2, 17, 3)]
    for build in (alg.theta_map, alg.shriek_inclusion):
        with pytest.raises(ValueError):
            build(B)


def test_shriek_split_refuses_a_wrong_exponent(monkeypatch):
    """B_! -> B_!! with t^(2/p^j) in place of t^(1/p^j) on V's line."""
    inclusion = alg.shriek_inclusion

    def doubled(B):
        f = inclusion(B)
        return IndMap(f.source, f.target, [(0, 2)] + list(f.u[1:]))

    monkeypatch.setattr(alg, "shriek_inclusion", doubled)
    for B in _bases(RingConfig.perfect(3)):
        assert not alg.shriek_split_check(B), B


def test_same_stages_refuses_a_pair_whose_bounds_differ():
    V = RingConfig.perfect(2)
    T = firmify(PresentedModule.cyclic(V, 1))
    assert same_stages(T, firmify(T))
    assert not same_stages(T, firmify(PresentedModule.cyclic(V, 2)))
    # one piece of one line one stage later
    (lo, A, S), = T.forms[0]
    later = MonomialTower(V, T.K, [((0, A, S), (1, (A[0], 1), S))])
    assert not same_stages(T, later)
    assert not same_stages(T, firmify(PresentedModule.from_factors(
        V, 0, [1, 1])))


def _failing_checks(name):
    [rep] = run_suite(name, SuiteOptions(seed=0, corpus_size=30))
    return {c["name"] for c in rep.checks if c["verdict"] == "fail"}


def test_a_wrong_mu_exponent_at_its_owner_fails_the_gate(monkeypatch):
    """mu's exponent t^(2/p^j) at almost.MU: mu is then not natural, so
    mu-almost-iso fails at the gate.  The stage checks left in the
    library read it through almost.mu_exponent and compare with the
    paper's literal 1/p^j, so a-n-plus-squares and k-ideal fail."""
    monkeypatch.setattr(almost, "MU", (0, 2))
    assert {"mu-almost-iso", "i-tilde-levelwise-iso"} \
        <= _failing_checks("quillen")
    assert "a-n-plus-squares" in _failing_checks("tilting")
    assert "k-ideal" in _failing_checks("k0")


def test_colocal_check_fails_when_a_torsion_tower_is_accepted(monkeypatch):
    from almostalg import suites
    real = suites.colocal_ext_vanishing
    assert "colocal-ext-vanishing" not in _failing_checks("quillen")

    def holds(M, N):
        return almost.AlmostCertificate("certified-structural", True)

    monkeypatch.setattr(suites, "colocal_ext_vanishing", holds)
    assert "colocal-ext-vanishing" in _failing_checks("quillen")
    # the refused input is refused by the real function on every ring
    for cfg in suites._configs((2, 3)):
        torsion = firmify(PresentedModule.cyclic(cfg, PExp(cfg.p, 1, 1)))
        with pytest.raises(ValueError):
            real(torsion, almost.residue(cfg))


def test_each_tower_check_builds_no_stage_module_past_level_one(monkeypatch):
    """No verdict of the tower-decided checks reads a module built at a
    stage's ring level: every PresentedModule they build is at level 1 or
    below, at p = 13."""
    levels = []
    init = PresentedModule.__init__

    def recording(self, cfg, level, *args, **kwargs):
        init(self, cfg, level, *args, **kwargs)
        levels.append(level)

    monkeypatch.setattr(PresentedModule, "__init__", recording)
    cfg = RingConfig.perfect(13)
    for n in (1, 2, 3):
        assert towermod.verify_lemmaA(n, cfg)
    for B in (PresentedModule.free(cfg, 0, 1),
              PresentedModule.cyclic(cfg, 2)):
        assert alg.shriek_almost_iso_check(B)
        assert alg.shriek_split_check(B)
    for P in perf_corpus(0, 10, (13,)):
        assert split_check(P)
    assert levels and max(levels) <= 1, max(levels)
