"""Reference for the almost checks that are decided on towers.

The stage pipelines below are how verify_lemmaA, shriek_almost_iso_check,
shriek_split_check, firmify-idempotent and the k0 split check decided
their almost statements before towers had per-line maps: they build the
stage-j modules and maps at ring level j, take kernels and cokernels by
Smith form, and ask whether t^(1/p^j) kills them.  The tests compare them
stage by stage with the towers' closed forms, and their verdicts with the
tower verdicts.
"""
from almostalg.complexes import firmify_perf, homology
from almostalg.exponents import PExp
from almostalg.k0 import phi_object
from almostalg.linalg import PolyMatrix
from almostalg.modules import (
    ModuleMap,
    PresentedModule,
    cokernel_map,
    direct_sum,
    iso_test,
    kernel_map,
    ring_modulus,
)
from almostalg.tower import _unit_generator_check, a_n_plus


def b_shriek_shriek(B, j):
    """coker of the diagonal m-tilde -> V + B_! at stage j.

    B_! = m-tilde tensor Hom(m-tilde, B) is B itself at stage j on the
    monomial class (the t^(1/p^j) twist lives in the maps).  The left leg
    is the inclusion t^(1/p^j) into V, the right leg sends the stage
    generator to the unit of B, generator 0.  Returns (module, diag,
    proj)."""
    cfg = B.cfg
    p = cfg.p
    Bj = B.at_level(max(B.level, j))
    V = PresentedModule.free(cfg, Bj.level, 1)
    tgt = direct_sum(V, Bj)
    L = tgt.level
    mat = PolyMatrix(tgt.rank, 1, p, modulus=ring_modulus(cfg, L))
    k = PExp(p, 1, j).to_int_at_level(L)
    mat.set(0, 0, [0] * k + [1])  # 0 once k reaches mod
    mat.set(1, 0, [p - 1])
    diag = ModuleMap(V.at_level(L), tgt, mat, check=False)
    Q, proj = cokernel_map(diag)
    return Q, diag, proj


def killed_by(M, e):
    """Does t^e kill M: no free summand, and every torsion exponent at
    most e?  The stage tests ask this of t^(1/p^j) at stage j.

    A free summand never counts as killed, even over V/(t^c) with e >= c,
    where t^e is 0: R is not almost zero (t^(c/2) does not kill it), and
    counting it as killed would pass stage 0 over V/(t), where the bound
    is t^1 = 0."""
    return not M.free_rank() and all(a <= e for a in M.decompose_exponents())


def lemma_a_map(n, cfg, j):
    """(A_n)_!! -> A_n^+ at stage j, A = V: the identity on generators
    between the shriek closure and the direct cokernel of the defining
    diagram, at their common level."""
    An = PresentedModule.cyclic(cfg, n, level=max(j, 1))
    Qb, _, _ = b_shriek_shriek(An, j)
    plus, _, _ = a_n_plus(1, n, j, cfg)
    L = max(Qb.level, plus.level)
    Qb, Qp = Qb.at_level(L), plus.at_level(L)
    mat = PolyMatrix.identity(Qb.rank, cfg.p, ring_modulus(cfg, L))
    return ModuleMap(Qb, Qp, mat, check=False)


def lemma_a_stage(n, cfg, j, bound=None):
    """The canonical map at stage j is a well-defined surjection whose
    kernel is killed by t^bound (default 1/p^j)."""
    can = lemma_a_map(n, cfg, j)
    bound = PExp(cfg.p, 1, j) if bound is None else bound
    return (can.is_well_defined()
            and cokernel_map(can)[0].is_zero_module()
            and killed_by(kernel_map(can)[0], bound))


def verify_lemmaA(n, cfg, J, bound=None):
    """Lemma A at stages J - 1 and J: the stage test, A_n^+ the same at
    both stages, and its V-coordinate generating it.  bound(j) replaces
    the kernel bound 1/p^j."""
    plus = []
    for j in (J - 1, J):
        if not lemma_a_stage(n, cfg, j, bound and bound(j)):
            return False
        plus.append(a_n_plus(1, n, j, cfg)[0])
    if len({tuple(Q.decompose_exponents()) for Q in plus}) != 1:
        return False
    return not plus[-1].rank or _unit_generator_check(plus[-1])


def theta_stage_map(B, j):
    """theta: B_!! -> B at stage j: the unit coordinate to 1_B, the B_!
    block by t^(1/p^j)."""
    cfg = B.cfg
    p = cfg.p
    Q, _, _ = b_shriek_shriek(B, j)
    Bj = B.at_level(Q.level)
    L = Q.level
    mat = PolyMatrix(Bj.rank, Q.rank, p, modulus=ring_modulus(cfg, L))
    tw = [0] * PExp(p, 1, j).to_int_at_level(L) + [1]  # 0 once it reaches mod
    mat.set(0, 0, [1])
    for i in range(Bj.rank):
        mat.set(i, 1 + i, tw)
    return ModuleMap(Q, Bj, mat, check=False)


def theta_stage(B, j):
    """theta's kernel and cokernel at stage j are killed by t^(1/p^j)."""
    theta = theta_stage_map(B, j)
    bound = PExp(B.cfg.p, 1, j)
    return (killed_by(kernel_map(theta)[0], bound)
            and killed_by(cokernel_map(theta)[0], bound))


def shriek_almost_iso_check(B, J):
    return theta_stage(B, J - 1) and theta_stage(B, J)


def inclusion_stage_map(B, j):
    """B_! -> B_!! through V + B_! at stage j."""
    cfg = B.cfg
    Q, _, _ = b_shriek_shriek(B, j)
    Bj = B.at_level(Q.level)
    mod = ring_modulus(cfg, Q.level)
    mat = PolyMatrix.block(Q.rank, Bj.rank, cfg.p, mod,
                           [(1, 0, PolyMatrix.identity(Bj.rank, cfg.p, mod))])
    return ModuleMap(Bj, Q, mat, check=False)


def shriek_split_pattern(B, probe):
    """The measured cokernel and kernel exponents of B_! -> B_!! at stages
    0..probe, or None when one has a free summand, and whether they follow
    the pattern e/p^j from stage 0; colimit death was decided on that
    pattern, one line e/p^j per base exponent e along m's transitions."""
    measured = {"coker": [], "ker": []}
    for j in range(probe + 1):
        incl = inclusion_stage_map(B, j)
        for kind, (M, _) in (("coker", cokernel_map(incl)),
                             ("ker", kernel_map(incl))):
            if M.free_rank() > 0:
                return None
            measured[kind].append(tuple(M.decompose_exponents()))
    follows = all(exps == tuple(e.scale_pow(-j) for e in seq[0])
                  for seq in measured.values() for j, exps in enumerate(seq))
    return measured, follows


def firm_idem_stages(T, TT, J):
    """firmify(M) and firmify(firmify(M)) agree at stages J - 1 and J."""
    return all(iso_test(T.component(j), TT.component(j)) for j in (J - 1, J))


def firm_phi_acyclic(E, J):
    """m-tilde tensor cone(mu_E) at stage J: every homology is free-rank
    zero with annihilator exponents <= 1/p^J."""
    C = firmify_perf(phi_object(E))
    R = C.realize(J)
    bound = PExp(E.cfg.p, 1, J)
    return all(killed_by(homology(R, i), bound)
               for i in range(R.min_deg, R.max_deg + 1))
