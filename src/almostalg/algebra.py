"""Algebra-level constructions: unitalization, the shriek functors on
algebra carriers, tight ideals / Nakayama over truncated bases, naive
cotangent complexes, finite-syntomic certification, and the ladder of
syntomic maps between monomial interval algebras.

Algebras are finitely presented V-modules with a structure-constant
multiplication tensor(C, C) -> C; presentations of algebra extensions are
triangular monic systems (each relation is univariate in its own
variable), so the quotient is module-free with a monomial basis and the
Jacobian of the presentation is block diagonal.
"""
from __future__ import annotations

from math import prod

from . import almost
from .almost import (
    IndMap,
    const_tower,
    diagonal_cokernel,
    firmify,
    is_almost_iso,
    is_exact_iso_levelwise,
)
from .base_ring import RingConfig
from .complexes import ChainComplex
from .exponents import PExp
from .linalg import (PolyMatrix, det as poly_det, kron, lift_poly, reduce_mod,
                     snf)
from .modules import (
    ModuleMap,
    PresentedModule,
    cokernel_map,
    direct_sum,
    iso_test,
    kernel_map,
    ring_modulus,
    solve,
    tensor,
)
from .polys import poly_add, poly_mul, poly_neg, poly_scale, poly_valuation


# -- structure-constant algebras ------------------------------------------

def _swap_matrix(r, p, mod):
    S = PolyMatrix(r * r, r * r, p, modulus=mod)
    for i in range(r):
        for j in range(r):
            S.set(j * r + i, i * r + j, [1])
    return S


class NonUnitalAlgebra:
    """Carrier module with multiplication tensor(C, C) -> C."""

    __slots__ = ("carrier", "mult")

    def __init__(self, carrier: PresentedModule, mult: ModuleMap, check=True):
        self.carrier = carrier
        self.mult = mult
        if check and not self.check_axioms():
            raise ValueError("multiplication fails the ring axioms")

    def check_axioms(self) -> bool:
        C = self.carrier
        r = C.rank
        m = self.mult
        L = m.level
        sq = tensor(C, C).at_level(L)
        # commutativity: mult o swap = mult
        S = _swap_matrix(r, C.cfg.p, ring_modulus(C.cfg, L))
        swapped = ModuleMap(sq, m.target, m.matrix.mul(S), check=False)
        if not swapped.equals(m):
            return False
        # associativity on generators: mult(mult x id) = mult(id x mult)
        cube = tensor(sq, C.at_level(L))
        mm = m.at_level(cube.level)
        ident = PolyMatrix.identity(r, C.cfg.p, ring_modulus(C.cfg, mm.level))
        left = mm.matrix.mul(kron(mm.matrix, ident))
        right = mm.matrix.mul(kron(ident, mm.matrix))
        lm = ModuleMap(cube.at_level(mm.level), mm.target, left, check=False)
        rm = ModuleMap(cube.at_level(mm.level), mm.target, right, check=False)
        if not lm.equals(rm):
            return False
        return self.mult.is_well_defined()

    @classmethod
    def zero_square(cls, carrier):
        sq = tensor(carrier, carrier)
        return cls(carrier, ModuleMap.zero(sq, carrier), check=False)


class UnitalAlgebra:
    """Structure-constant algebra with generator 0 acting as the unit."""

    __slots__ = ("carrier", "mult")

    def __init__(self, carrier, mult, check=True):
        self.carrier = carrier
        self.mult = mult
        if check:
            if not NonUnitalAlgebra(carrier, mult, check=False).check_axioms():
                raise ValueError("multiplication fails the ring axioms")
            if not self.check_unit():
                raise ValueError("generator 0 is not a unit")

    def check_unit(self) -> bool:
        C = self.carrier
        r = C.rank
        m = self.mult
        mod = ring_modulus(C.cfg, m.level)
        # 1 * e_j = e_j: columns 0*r + j of the structure matrix
        sel = PolyMatrix.block(r * r, r, C.cfg.p, mod,
                               [(0, 0, PolyMatrix.identity(r, C.cfg.p, mod))])
        prod = ModuleMap(C.at_level(m.level), m.target, m.matrix.mul(sel),
                         check=False)
        return prod.equals(ModuleMap.identity(C.at_level(m.level)))

    def augmentation(self) -> ModuleMap:
        """Projection onto the unit coordinate, x -> coefficient of 1."""
        C = self.carrier
        V = PresentedModule.free(C.cfg, C.level, 1)
        mat = PolyMatrix.block(
            1, C.rank, C.cfg.p, C.modulus,
            [(0, 0, PolyMatrix.identity(1, C.cfg.p, C.modulus))])
        return ModuleMap(C, V, mat, check=False)


def unitalize(B: NonUnitalAlgebra) -> UnitalAlgebra:
    """V + B with (v, b)(v', b') = (vv', vb' + v'b + bb')."""
    C = B.carrier
    cfg = C.cfg
    r = C.rank
    V = PresentedModule.free(cfg, C.level, 1)
    carrier = direct_sum(V, C)
    L = carrier.level
    m = B.mult.at_level(max(L, B.mult.level))
    L = m.level
    carrier = carrier.at_level(L)
    mod = ring_modulus(cfg, L)
    n = 1 + r
    mat = PolyMatrix(n, n * n, cfg.p, modulus=mod)
    for a in range(n):
        for b in range(n):
            col = a * n + b
            if a == 0 or b == 0:
                mat.set(a + b, col, [1])
            else:
                src_col = (a - 1) * r + (b - 1)
                for i in range(r):
                    mat.set(1 + i, col, m.matrix.entry(i, src_col))
    sq = tensor(carrier, carrier)
    return UnitalAlgebra(carrier, ModuleMap(sq, carrier, mat, check=False))


def _factor_through(incl: ModuleMap, vec):
    """Coordinates of a target vector in terms of the subobject generators."""
    A = incl.matrix
    R = incl.target.relations
    aug = A.hstack(R)
    x = solve(aug, snf(aug), vec)
    if x is None:
        return None
    return x[:A.cols]


def augmentation_ideal(C: UnitalAlgebra, aug: ModuleMap) -> NonUnitalAlgebra:
    """Kernel of the augmentation with the restricted multiplication."""
    K, incl = kernel_map(aug)
    r = K.rank
    cfg = K.cfg
    L = max(K.level, C.mult.level)
    incl = incl.at_level(L)
    m = C.mult.at_level(L)
    mod = ring_modulus(cfg, L)
    cols = []
    n = C.carrier.at_level(L).rank
    for i in range(r):
        for j in range(r):
            ci = incl.matrix.column(i)
            cj = incl.matrix.column(j)
            kvec = _kron_vec(ci, cj, n, cfg.p, mod)
            v = m.matrix.apply_to_vector(kvec)
            coords = _factor_through(incl, v)
            if coords is None:
                raise ValueError("multiplication does not preserve the kernel")
            cols.append(coords)
    mat = PolyMatrix.from_columns(cols, r, cfg.p, mod)
    sq = tensor(K.at_level(L), K.at_level(L))
    return NonUnitalAlgebra(K.at_level(L), ModuleMap(sq, K.at_level(L), mat,
                                                     check=False))


def _kron_vec(u, v, n, p, mod):
    return [reduce_mod(poly_mul(u[a], v[b], p), mod)
            for a in range(n) for b in range(n)]


def algebras_isomorphic(B1: NonUnitalAlgebra, B2: NonUnitalAlgebra,
                        phi: ModuleMap) -> bool:
    """phi a module iso intertwining the multiplications."""
    K, _ = kernel_map(phi)
    Q, _ = cokernel_map(phi)
    if not (K.is_zero_module() and Q.is_zero_module()):
        return False
    L = max(phi.level, B1.mult.level, B2.mult.level)
    ph = phi.at_level(L)
    m1 = B1.mult.at_level(L)
    m2 = B2.mult.at_level(L)
    lhs = ph.matrix.mul(m1.matrix)
    rhs = m2.matrix.mul(kron(ph.matrix, ph.matrix))
    cand = ModuleMap(m1.source.at_level(L), m2.target,
                     lhs.add(rhs.neg()), check=False)
    return cand.is_zero_map()


def unitalize_roundtrip_check(B: NonUnitalAlgebra) -> bool:
    """augmentation_ideal(unitalize(B)) recovers B."""
    U = unitalize(B)
    A = augmentation_ideal(U, U.augmentation())
    # canonical map B -> ker(aug): factor the inclusion into V + B
    C = B.carrier
    L = max(C.level, A.carrier.level, U.carrier.level)
    _, incl = kernel_map(U.augmentation())
    incl = incl.at_level(L)
    mod = ring_modulus(C.cfg, L)
    cols = []
    n = U.carrier.at_level(L).rank
    for i in range(C.rank):
        vec = [[] for _ in range(n)]
        vec[1 + i] = [1]
        coords = _factor_through(incl, vec)
        if coords is None:
            return False
        cols.append(coords)
    mat = PolyMatrix.from_columns(cols, A.carrier.rank, C.cfg.p, mod)
    phi = ModuleMap(C.at_level(L), A.carrier.at_level(L), mat, check=False)
    return algebras_isomorphic(B, A, phi)


# -- shriek functors on algebra carriers ----------------------------------

def _unit_tower(B: PresentedModule):
    """B as a constant tower whose line 0 is B's generator 0, the unit of
    B_!!'s diagonal: const_tower orders summands by exponent."""
    if B.is_zero_module() or B.rank > 1 and B.invariant_factors():
        raise ValueError(f"B must be a nonzero cyclic or free module: {B!r}")
    return const_tower(B)


def theta_map(B: PresentedModule) -> IndMap:
    """theta: B_!! -> B on towers, B_!! the diagonal cokernel of
    B_! = firmify(B): V's line to B's generator 0 by the identity, each
    B_! line by t^(1/p^j), mu's exponent."""
    Bt = _unit_tower(B)
    return IndMap(diagonal_cokernel(firmify(Bt)), Bt,
                  [(0, 0)] + [almost.MU] * (len(Bt.forms) - 1), "theta")


def shriek_inclusion(B: PresentedModule) -> IndMap:
    """B_! -> B_!! through V + B_! on towers: generator 0 is t^(1/p^j)
    times V's generator in B_!!, the others go to themselves."""
    Bs = firmify(_unit_tower(B))
    return IndMap(Bs, diagonal_cokernel(Bs),
                  [almost.MU] + [(0, 0)] * (len(Bs.forms) - 1), "incl")


def shriek_split_check(B: PresentedModule) -> bool:
    """After tensoring with m-tilde the sequence splits: m-tilde tensor
    (B_! -> B_!!), the inclusion's u between the firmified towers, has
    kernel and cokernel that die exactly, decided for every stage."""
    f = shriek_inclusion(B)
    return is_exact_iso_levelwise(
        IndMap(firmify(f.source), firmify(f.target), f.u))


def shriek_almost_iso_check(B: PresentedModule) -> bool:
    """B_!! -> B is an almost isomorphism: theta's kernel and cokernel
    towers are almost zero, proved for every stage."""
    return is_almost_iso(theta_map(B)).holds


def monoidal_equiv_check(B: PresentedModule) -> bool:
    """V +_(m-tilde) (m-tilde tensor B) is almost isomorphic to B, and the
    comparison becomes a stage-wise isomorphism after tensoring with
    m-tilde (certified through the dying coker/kernel towers)."""
    return shriek_almost_iso_check(B) and shriek_split_check(B)


def firm_retract_check(cfg: RingConfig, j: int) -> bool:
    """m-tilde tensor A is a direct summand of m-tilde tensor (V + m-tilde
    tensor A) with explicit inclusion and retraction (A = V here)."""
    X = PresentedModule.free(cfg, j, 1)
    Y = PresentedModule.free(cfg, j, 2)
    mod = ring_modulus(cfg, j)
    one = PolyMatrix.identity(1, cfg.p, mod)
    inc = PolyMatrix.block(2, 1, cfg.p, mod, [(1, 0, one)])
    ret = PolyMatrix.block(1, 2, cfg.p, mod, [(0, 1, one)])
    i = ModuleMap(X, Y, inc, check=False)
    r = ModuleMap(Y, X, ret, check=False)
    return r.compose(i).equals(ModuleMap.identity(X))


# -- tight ideals, Nakayama, lifting over truncated bases -----------------

def _check_radical(gens, cfg):
    if cfg.mode != "char-p-truncated":
        raise ValueError("radical machinery runs over truncated bases")
    exps = [PExp.from_fraction(cfg.p, g) for g in gens]
    if not exps or any(e.is_zero() for e in exps):
        raise ValueError("ideal not inside the radical")
    return exps


def is_tight(gens, cfg: RingConfig):
    """Search n <= 4 and a finitely generated m0 with I^n inside m0 A.

    Monomial ideals in the radical are always tight with witness
    (n = 1, m0 = I); larger n is reported when I^n already vanishes."""
    exps = _check_radical(gens, cfg)
    e_min = min(exps)
    out = {"tight": True, "n": 1, "m0": [str(e.as_fraction()) for e in exps]}
    for n in range(1, 5):
        if n * e_min >= cfg.trunc:
            out["vanishes_at"] = n
            break
    return out


def ideal_times(M: PresentedModule, gens) -> ModuleMap:
    """The sum of the scalar multiplications M + ... + M -> M by the
    generators of I; its image is I*M."""
    maps = [ModuleMap.scalar(M, g) for g in gens]
    L = max(f.level for f in maps)
    maps = [f.at_level(L) for f in maps]
    mat = maps[0].matrix
    for f in maps[1:]:
        mat = mat.hstack(f.matrix)
    src = direct_sum(*[M.at_level(L)] * len(maps))
    return ModuleMap(src, M.at_level(L), mat, check=False)


def almost_nakayama(M: PresentedModule, gens) -> bool:
    """IM = M forces M = 0 for I in the radical; vacuously true otherwise."""
    _check_radical(gens, M.cfg)
    Q, _ = cokernel_map(ideal_times(M, gens))
    if Q.is_zero_module():
        return M.is_zero_module()
    return True


def almost_lift_check(f: ModuleMap, gens) -> bool:
    """f congruent to an isomorphism mod I implies f is an isomorphism.

    Checked by determinants over the chain ring: the mod-I reduction
    strips monomials inside I; a unit determinant there forces a unit
    determinant upstairs."""
    exps = _check_radical(gens, f.cfg)
    L = f.level
    cut = min(exps).to_int_at_level(L)
    # determinants are taken on lifted representatives; unit-ness over the
    # chain ring only depends on the valuation of the representative
    A = f.matrix.lift()
    red = A.with_modulus(cut).lift()
    dr = poly_det(red)
    if not dr or poly_valuation(dr) != 0:
        raise ValueError("f is not an isomorphism mod I")
    d = poly_det(A)
    return bool(d) and poly_valuation(d) == 0


# -- presentations and naive cotangent complexes --------------------------

class AlgebraPresentation:
    """B = A[x_1..x_k]/(f_1..f_k) with f_j monic univariate in x_j.

    A coefficient of f_j is an int or an F_p[t] coefficient list (integer
    t-exponents), lowest degree first.  The quotient is free as an
    A-module on the monomials x^a with a_j < deg f_j.
    """

    __slots__ = ("cfg", "rels", "degrees", "rank")

    def __init__(self, cfg, rels):
        p = cfg.p
        self.cfg = cfg
        self.rels = []
        for f in rels:
            coeffs = [poly_scale([c] if isinstance(c, int) else c, 1, p)
                      for c in f]
            if len(coeffs) < 2 or coeffs[-1] != [1]:
                raise ValueError("relations must be monic of degree >= 1")
            self.rels.append(coeffs)
        self.degrees = [len(f) - 1 for f in self.rels]
        self.rank = prod(self.degrees)

    def mult_table(self, j, g, level=0) -> PolyMatrix:
        """Matrix over R_level of multiplication by g on A[x_j]/(f_j), on
        the basis 1, x_j, ..., x_j^(d - 1) with d = deg f_j.  g is a list
        of at most d F_p[t] coefficient lists, lowest degree in x_j first.

        Coefficients are lifted to s = t^(1/p^level).  Column 0 is g and
        column b + 1 is x_j times column b; that column has degree below
        d, so its one x_j^d term folds once through
        x_j^d = -(f_j minus its top term)."""
        p = self.cfg.p
        mod = ring_modulus(self.cfg, level)

        def lift(c):
            return reduce_mod(lift_poly(c, level, p), mod)

        f = self.rels[j]
        d = len(f) - 1
        tail = [(i, e) for i, c in enumerate(f[:-1])
                if (e := lift(poly_neg(c, p)))]
        col = {i: e for i, c in enumerate(g) if (e := lift(c))}
        out = PolyMatrix(d, d, p, modulus=mod)
        for b in range(d):
            for i, e in col.items():
                out.set(i, b, e)
            top = col.pop(d - 1, None)
            col = {i + 1: e for i, e in col.items()}
            if top:
                for i, c in tail:
                    col[i] = reduce_mod(poly_add(col.get(i, []),
                                                 poly_mul(top, c, p), p), mod)
        return out


def naive_cotangent(P: AlgebraPresentation, level=0) -> ChainComplex:
    """Two-term complex (relations -> differentials) in degrees [-1, 0]:
    B^k --Jacobian--> B^k, the degree-0 part spanned by the dx_i.

    The Jacobian is block diagonal.  The block of x_j is multiplication
    by f_j' on B, which is I_pre (x) C_j (x) I_post: C_j is
    P.mult_table(j, f_j'), pre = d_0 ... d_(j-1) and
    post = d_(j+1) ... d_(k-1), because the monomial basis of B runs
    through the last variable fastest."""
    cfg = P.cfg
    p = cfg.p
    k = len(P.rels)
    if k == 0:
        return ChainComplex.zero(cfg)
    mod = ring_modulus(cfg, level)
    placements = []
    for j, f in enumerate(P.rels):
        fprime = [poly_scale(f[i], i, p) for i in range(1, len(f))]
        pre = PolyMatrix.identity(prod(P.degrees[:j]), p, mod)
        post = PolyMatrix.identity(prod(P.degrees[j + 1:]), p, mod)
        block = kron(kron(pre, P.mult_table(j, fprime, level)), post)
        placements.append((j * P.rank, j * P.rank, block))
    n = k * P.rank
    mat = PolyMatrix.block(n, n, p, mod, placements)
    M0 = PresentedModule.free(cfg, level, n)
    M1 = PresentedModule.free(cfg, level, n)
    d0 = ModuleMap(M0, M1, mat, check=False)
    return ChainComplex(cfg, {0: M0, -1: M1}, {0: d0}, check=False)


def tor_amplitude_check(E: ChainComplex, lo: int, hi: int) -> bool:
    """Tor amplitude in [lo, hi], decided on what E shows: every term lies
    in degrees lo..hi and is free.  For a complex of finite free modules
    that is sufficient, since E tensor N then has no term outside [lo, hi]
    for any module N.  It is not necessary: a complex with a term outside
    [lo, hi], or a term that is not free, is refused although it may be
    quasi-isomorphic to one that passes."""
    return all(lo <= d <= hi and not T.invariant_factors()
               for d, T in E.terms.items())


def is_almost_finite_syntomic(P: AlgebraPresentation | None,
                              certificate) -> bool:
    """Condition (1) from the supplied projectivity certificate, condition
    (2) by tor-amplitude [-1, 0] of the naive cotangent complex."""
    if certificate is None:
        return False
    if P is None:
        # identity map: zero cotangent complex
        return certificate.get("free_rank") == 1
    r = certificate.get("free_rank", certificate.get("firm_free_rank"))
    if r != P.rank:
        return False
    L = naive_cotangent(P)
    if not L.terms:
        return True
    return tor_amplitude_check(L, -1, 0)


def cotangent_transitivity_check(P_B: AlgebraPresentation,
                                 extra_rel) -> bool:
    """For A -> B -> C with C = B[y]/(g), g univariate monic: the
    transitivity triangle degenerates to a degree-wise split short exact
    sequence of two-term complexes, so homology must sum up."""
    from .complexes import homology
    cfg = P_B.cfg
    P_C = AlgebraPresentation(cfg, P_B.rels + [extra_rel])
    P_g = AlgebraPresentation(cfg, [extra_rel])
    level = 1
    L_BA = naive_cotangent(P_B, level)
    L_CA = naive_cotangent(P_C, level)
    L_CB = naive_cotangent(P_g, level)
    # base change L_{B/A} tensor C and L_{C/B}'s model over C: C is free of
    # rank d over B, and of rank P_B.rank over A[y]/(g); tensoring a free
    # complex with a free module of rank r makes each homology r copies
    d_extra = P_C.degrees[-1]
    for i in (-1, 0):
        left = direct_sum(*[homology(L_BA, i)] * d_extra,
                          *[homology(L_CB, i)] * P_B.rank)
        if not iso_test(left, homology(L_CA, i)):
            return False
    return True


# -- interval algebras and the syntomic ladder ----------------------------

class IntervalAlgebra:
    """Non-unital algebra on t^lo V / t^hi V, multiplication from V."""

    __slots__ = ("cfg", "lo", "hi")

    def __init__(self, cfg, lo, hi):
        lo = PExp.from_fraction(cfg.p, lo)
        hi = PExp.from_fraction(cfg.p, hi)
        if lo.is_zero() or not lo < hi:
            raise ValueError("need 0 < lo < hi")
        self.cfg = cfg
        self.lo = lo
        self.hi = hi

    def module(self) -> PresentedModule:
        """Cyclic model V/(t^(hi - lo)) on the generator t^lo."""
        return PresentedModule.cyclic(self.cfg, self.hi - self.lo)

    def nonunital(self) -> NonUnitalAlgebra:
        M = self.module()
        sq = tensor(M, M)
        if 2 * self.lo >= self.hi:
            mult = ModuleMap.zero(sq, M)
        else:
            # generator * generator = t^lo * generator; the tensor square of
            # a cyclic module is cyclic, so reuse the scalar matrix
            sc = ModuleMap.scalar(M, self.lo)
            mult = ModuleMap(sq.at_level(sc.level), sc.target, sc.matrix,
                             check=False)
        return NonUnitalAlgebra(M.at_level(mult.level), mult)

    def contains_exponent(self, e) -> bool:
        return self.lo <= PExp.from_fraction(self.cfg.p, e) < self.hi


def n_to_1_check(n: int, m: int, cfg: RingConfig) -> bool:
    """Multiplication by omega^(n-1) is an isomorphism from the n = 1
    interval algebra onto the level-n one.

    Checked on exponents: the shift by n - 1 carries one interval onto
    the other, and both multiplications vanish (2*lo >= hi), so the
    module iso is an algebra iso.  Both modules are V/(t^(hi - lo)) on
    the generator t^lo, the same presentation once the shift matches, so
    they and their shriek closures agree without being compared."""
    p = cfg.p
    u = PExp(p, 1, m)
    A1 = IntervalAlgebra(cfg, PExp(p, 1) + u, PExp(p, 2) + u)
    An = IntervalAlgebra(cfg, PExp(p, n) + u, PExp(p, n + 1) + u)
    shift = PExp(p, n - 1)
    if A1.lo + shift != An.lo or A1.hi + shift != An.hi:
        return False
    return 2 * A1.lo >= A1.hi and 2 * An.lo >= An.hi


def syntomic_ladder(n_max: int, m_max: int, cfg: RingConfig):
    """Construct the maps phi_{n,m} between unitalized interval algebras
    and certify each as finite syntomic.

    phi_{n,m} includes V + t^(n + 1/p^m) V / t^(n+1+1/p^m) V into
    V + t^(1/p^m) V / t^(n+1+1/p^m) V; the target is presented over the
    source by x with x^(n p^m + 1) = omega^n x.
    """
    if n_max > 3 or m_max > 3:
        raise ValueError("ladder parameters are capped at 3")
    out = []
    for n in range(0, n_max + 1):
        for m in range(0, m_max + 1):
            u = PExp(cfg.p, 1, m)
            entry = {"n": n, "m": m}
            if n == 0:
                entry["degenerate"] = True
                entry["syntomic"] = True
                entry["rank"] = 1
                out.append(entry)
                continue
            lo = PExp(cfg.p, n) + u
            tgt = IntervalAlgebra(cfg, u, PExp(cfg.p, n + 1) + u)
            # x = t^(1/p^m) satisfies x^(n p^m + 1) = t^n x inside the target
            deg = n * cfg.p ** m + 1
            assert PExp(cfg.p, deg, m) == lo
            if not tgt.contains_exponent(lo):
                entry["syntomic"] = False
                out.append(entry)
                continue
            # presentation of the extension: f(x) = x^deg - t^n x
            coeffs = [0] * (deg + 1)
            coeffs[1] = [0] * n + [cfg.p - 1]
            coeffs[deg] = 1
            P = AlgebraPresentation(cfg, [coeffs])
            entry["rank"] = P.rank
            entry["syntomic"] = is_almost_finite_syntomic(
                P, {"free_rank": deg})
            entry["n_to_1"] = n_to_1_check(n, m, cfg)
            out.append(entry)
    return out
