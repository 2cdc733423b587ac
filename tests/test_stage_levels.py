"""Tower stages are presented at the least level their exponents need.

Differential against stages built at level max(j + 1, k), k the largest
denominator exponent of the stage: lifting s -> s^(p^d) is a free base
change, so a stage, and the kernel and cokernel of each transition, must
decompose alike whichever level they were built at."""
import pytest

from almostalg.almost import (
    cokernel_tower,
    firmify,
    ideal_m,
    kernel_tower,
    mu_map,
    residue,
)
from almostalg.base_ring import RingConfig
from almostalg.exponents import PExp
from almostalg.linalg import PolyMatrix
from almostalg.modules import ModuleMap, PresentedModule, cokernel_map, kernel_map
from almostalg.polys import poly_monomial
from almostalg.suites import monomial_corpus
from tower_reference import transition

# (working level J, corpus size, firmify towers too) per prime.  The
# transition out of stage j multiplies by t^(eps_j), which lives at level
# j + 1 whatever the stage levels, so the deepest transition is at level
# 2J + 6: at p = 5 that is s = t^(1/5^8), and a firmify tower, which keeps
# the module's annihilators at every stage, takes seconds per transition
# there in dense F_p[s].  Firmify towers are covered at p = 2 and 3.
CASES = {2: (4, 6, True), 3: (1, 6, True), 5: (1, 3, False)}


def _towers(p, size, with_firmify):
    cfgs = [RingConfig.perfect(p), RingConfig.truncated(p, 1),
            RingConfig.truncated(p, 2)]
    for cfg in cfgs:
        yield ideal_m(cfg)
        yield residue(cfg)
    for M in monomial_corpus(p, size, primes=(p,)):
        if with_firmify:
            yield firmify(M)
            yield firmify(firmify(M))
        yield kernel_tower(mu_map(M))
        yield cokernel_tower(mu_map(M))


def _stage_at_j_plus_1(tower, j):
    """Stage j built at level max(j + 1, k)."""
    lines = tower.lines(j)
    exps = [a for a in lines if a is not None]
    level = max([j + 1] + [e.k for e in exps])
    return PresentedModule.from_factors(tower.cfg, level, exps,
                                        len(lines) - len(exps))


def _transition_at_j_plus_1(tower, j):
    """The transition between stages built at level j + 1: line i's t^c_i
    on the diagonal."""
    cs = tower.trans_exp(j)
    src, tgt = _stage_at_j_plus_1(tower, j), _stage_at_j_plus_1(tower, j + 1)
    L = max([src.level, tgt.level] + [c.k for c in cs])
    src, tgt = src.at_level(L), tgt.at_level(L)
    p = tower.cfg.p
    mat = PolyMatrix(tgt.rank, src.rank, p, modulus=src.modulus)
    for i, c in enumerate(cs):
        mat.set(i, i, poly_monomial(1, c.to_int_at_level(L), p))
    return ModuleMap(src, tgt, mat)


def _alike(M, N):
    """M and N decompose alike at N's level, which is at least M's."""
    return M.at_level(N.level).decompose() == N.decompose()


@pytest.mark.parametrize("p", sorted(CASES))
def test_stages_at_least_level_decompose_as_at_j_plus_1(p):
    J, size, with_firmify = CASES[p]
    # stages 0..2J + 6, the stages the colimit bookkeeping read before it
    # had closed forms, and the transitions between them
    stages = 2 * J + 7
    for tower in _towers(p, size, with_firmify):
        for j in range(stages):
            comp = tower.component(j)
            exps = [a for a in tower.lines(j) if a is not None]
            assert comp.level == max([0] + [e.k for e in exps]), (tower, j)
            assert _alike(comp, _stage_at_j_plus_1(tower, j)), (tower, j)
            if j + 1 == stages:
                continue
            f, g = transition(tower, j), _transition_at_j_plus_1(tower, j)
            assert _alike(kernel_map(f)[0], kernel_map(g)[0]), (tower, j)
            assert _alike(cokernel_map(f)[0], cokernel_map(g)[0]), (tower, j)


def test_stage_level_covers_a_fractional_truncation():
    # V/(t^(1/2)) lives at level 1, so a free stage cannot be built lower
    cfg = RingConfig.truncated(2, PExp(2, 1, 1))
    tower = firmify(PresentedModule.free(cfg, 1, 1))
    assert tower.component(0).level == 1
    # the transition t^(1/2) kills every stage
    K, _ = kernel_map(transition(tower, 0))
    assert K.free_rank() == 1 and not K.invariant_factors()
