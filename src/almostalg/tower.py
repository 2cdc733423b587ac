"""Perfectoid tower checks: Frobenius on truncations, the tilting basis
dictionary, A_n^+ and its comparison with the shriek closure, the
mixed-characteristic zig-zag, and inverse-limit round trips.

The zig-zag transports A/p of the mixed mock through the dictionary
x^k <-> t^(k/p^n): the dictionary itself presents A/p as a V-module,
which must be V/(t).  The char-p Lemma A comparison is verify_lemmaA's
alone; the zig-zag does not run it again.

The omega-adic limit is the depth-c truncation; towers are finite, so
limits are computed as honest compatible-tuple kernels.
"""
from __future__ import annotations

from .almost import (IndMap, diagonal_cokernel, firmify, is_almost_iso,
                     mu_exponent)
from .base_ring import RingConfig
from .exponents import PExp
from .linalg import PolyMatrix, reduce_mod
from .modules import (
    ModuleMap,
    PresentedModule,
    cokernel_map,
    direct_sum,
    iso_test,
    kernel_map,
    ring_modulus,
)
from .polys import poly_add, poly_monomial, poly_mul, poly_scale, poly_trim


class TowerSpec:
    """A finite omega-adic tower A/omega^n, n = 1..depth, for omega = t."""

    __slots__ = ("cfg", "depth")

    def __init__(self, cfg, depth):
        if depth < 1:
            raise ValueError("depth must be at least 1")
        if cfg.mode == "char-p-truncated" and PExp(cfg.p, depth) > cfg.trunc:
            raise ValueError("depth exceeds the truncation")
        self.cfg = cfg
        self.depth = depth


# -- Frobenius on truncations ---------------------------------------------

def _lattice(p, n, hi):
    """Exponents k/p^n in [0, hi)."""
    out = []
    while (e := PExp(p, len(out), n)) < hi:
        out.append(e)
    return out


def frobenius_iso_check(cfg: RingConfig, subring_level=None) -> bool:
    """Frobenius A/omega^(1/p) -> A/omega bijective for omega = t, decided
    by exact basis matching at levels 1..4.

    For the perfect ring the source basis is drawn one level deeper; a
    fixed finite-level subring has no fresh p-th roots and fails."""
    p = cfg.p
    omega = PExp(p, 1)
    if subring_level is not None:
        # A = F_p[t^(1/p^subring_level)]: fixed exponent lattice
        n = subring_level
        if omega.scale_pow(-1) not in set(_lattice(p, n, omega + PExp(p, 1))):
            return False
        src = _lattice(p, n, omega.scale_pow(-1))
        img = sorted(p * e for e in src)
        tgt = _lattice(p, n, omega)
        return img == tgt
    cmax = cfg.trunc  # None over the perfect ring
    for L in range(1, 5):
        hi_s = omega.scale_pow(-1)
        hi_t = omega
        if cmax is not None:
            hi_s = min(hi_s, cmax)
            hi_t = min(hi_t, cmax)
        src = _lattice(p, L + 1, hi_s)
        img = sorted(p * e for e in src)
        tgt = _lattice(p, L, min(hi_t, p * hi_s))
        if cmax is not None and p * hi_s < hi_t:
            # deep truncation: Frobenius lands in the cut-down range and
            # the quotient collapses the rest; restrict the match
            tgt = _lattice(p, L, p * hi_s)
        if img != tgt:
            return False
    return True


# -- tilting dictionary ----------------------------------------------------

def mixed_mock_reduce(f, p, n, c):
    """f, a coefficient list in x over Z/p^c, on the basis x^k, k < p^n, of
    the mixed mock Z[x]/(x^(p^n) - p, p^c): x^(p^n + i) folds down to
    p*x^i until no term is left at or past x^(p^n)."""
    N, q = p ** n, p ** c
    while len(f) > N:
        f = poly_add(poly_trim(f[:N]), poly_scale(f[N:], p, q), q)
    return f


def tilt_basis_iso(p: int, n: int, c: int = 1):
    """Basis bijection x^k <-> t^(k/p^n) between the mixed mock
    Z[x]/(x^(p^n) - p, p^c) mod p and the char-p side V/(t), verified
    multiplicative on every basis pair.

    Both sides are coefficient lists, x^k in x and t^(k/p^n) in
    s = t^(1/p^n), so that V/(t) is F_p[s]/(s^(p^n)).  Returns the
    dictionary {k: (a, b)}, x^k = p^a paired with t^b, both k/p^n, or
    raises if some product disagrees.

    Additivity would reduce multiplicativity to the pairs (x, x^k), but
    those products stop at degree p^n, so mixed_mock_reduce would only
    ever fold x^(p^n).  All pairs fold every x^(p^n + i), i <= p^n - 2.
    One pair per degree a + b (2p^n - 1 products) would reach every fold
    too, and would leave faults that depend on how a + b splits to the
    poly_mul tests alone."""
    N, q = p ** n, p ** c
    basis = [[0] * k + [1] for k in range(N)]
    for a, xa in enumerate(basis):
        for b, xb in enumerate(basis):
            prod_m = mixed_mock_reduce(poly_mul(xa, xb, q), p, n, c)
            # reduce the mixed product mod p: carries x^(p^n) = p die
            prod_m = poly_scale(prod_m, 1, p)
            prod_f = reduce_mod(poly_mul(xa, xb, p), N)
            if a + b < N:
                if prod_m != basis[a + b] or prod_f != basis[a + b]:
                    raise AssertionError(f"product mismatch at ({a},{b})")
            elif prod_m or prod_f:
                raise AssertionError(f"carry products must vanish ({a},{b})")
    return {k: (PExp(p, k, n), PExp(p, k, n)) for k in range(N)}


# -- A_n^+ and Lemma comparison -------------------------------------------

def a_n_plus(A_rank: int, n, j: int, cfg: RingConfig):
    """coker(m/omega^n m -> V/omega^n + (m tensor A/omega^n)) at stage j,
    for A free of rank A_rank over V with unit generator 0: the diagonal
    sends the stage generator to (t^(u_j), -1), u_j mu's exponent.

    Returns (module, diag, proj)."""
    p = cfg.p
    Vn = PresentedModule.cyclic(cfg, n, level=max(j, 1))
    An_block = direct_sum(*[PresentedModule.cyclic(cfg, n, level=max(j, 1))
                            for _ in range(A_rank)])
    tgt = direct_sum(Vn, An_block)
    src = PresentedModule.cyclic(cfg, n, level=max(j, 1))
    L = max(tgt.level, j)
    tgt = tgt.at_level(L)
    src = src.at_level(L)
    mod = ring_modulus(cfg, L)
    mat = PolyMatrix(tgt.rank, 1, p, modulus=mod)
    k = mu_exponent(p, j).to_int_at_level(L)
    mat.set(0, 0, [0] * k + [1])  # 0 once k reaches mod
    mat.set(1, 0, [p - 1])
    diag = ModuleMap(src, tgt, mat)
    Q, proj = cokernel_map(diag)
    return Q, diag, proj


def a_n_plus_checks(n, j: int, cfg: RingConfig) -> bool:
    """Both squares of the defining diagram push out: quotienting A_n^+
    by the m-tensor block recovers coker(m/omega^n -> V/omega^n), and the
    V-coordinate generates A_n^+."""
    Q, _, _ = a_n_plus(1, n, j, cfg)
    # square 1: kill the m-tensor block in A_n^+ and compare with the
    # one-legged cokernel V/omega^n / t^(1/p^j), the paper's exponent
    # written out, so that a wrong mu_exponent fails here
    L = Q.level
    p = cfg.p
    mod = ring_modulus(cfg, L)
    one = PolyMatrix.identity(1, p, mod)
    kill = PolyMatrix.block(Q.rank, 1, p, mod, [(1, 0, one)])
    killed = ModuleMap(PresentedModule.free(cfg, L, 1), Q, kill, check=False)
    Q1, _ = cokernel_map(killed)
    Vn = PresentedModule.cyclic(cfg, n, level=L)
    sc = ModuleMap.scalar(Vn, PExp(p, 1, j))
    Q2, _ = cokernel_map(sc)
    if not iso_test(Q1, Q2):
        return False
    # square 2: the cokernel is generated by the V-coordinate alone
    return _unit_generator_check(Q)


def a_n_plus_tower(n, cfg: RingConfig):
    """A_n^+ for A = V on towers: coker(m/omega^n m -> V/omega^n + (m
    tensor A/omega^n)), the diagonal cokernel with the leg V/(t^n) (the
    source m/omega^n m has m's cokernel: t^n kills both legs)."""
    return diagonal_cokernel(firmify(PresentedModule.cyclic(cfg, n)), n)


def verify_lemmaA(n, cfg: RingConfig) -> bool:
    """(A_n)_!! -> A_n^+ is a canonical isomorphism in the colimit, for
    A = V, decided on towers for every stage: the identity on generators
    has almost-zero kernel and cokernel, A_n^+ is a constant tower (the
    honest colimit), and its lines past V's are zero, so V's coordinate
    generates it and the module iso is the ring comparison.

    (A_n)_!! is the shriek closure, the diagonal cokernel of V + (A_n)_!;
    A_n^+ has the leg V/(t^n).  A free of rank r adds r - 1 summands
    V/(t^n) matched by the identity, since both touch only generator 0 of
    the A block; tests/test_tower.py pins that on the stage modules."""
    plus = a_n_plus_tower(n, cfg)
    shriek2 = diagonal_cokernel(firmify(PresentedModule.cyclic(cfg, n)))
    can = IndMap(shriek2, plus, [(0, 0)] * len(shriek2.forms), "lemma A")
    return is_almost_iso(can).holds and all(
        (A is None or A[1] == 0) and S == (0, 0) and (i == 0 or A == (0, 0))
        for i, line in enumerate(plus.forms) for _, A, S in line)


def _unit_generator_check(Q: PresentedModule) -> bool:
    """Generator 0 generates: the inclusion of its span is onto."""
    mat = PolyMatrix.block(
        Q.rank, 1, Q.cfg.p, Q.modulus,
        [(0, 0, PolyMatrix.identity(1, Q.cfg.p, Q.modulus))])
    span = ModuleMap(PresentedModule.free(Q.cfg, Q.level, 1), Q, mat,
                     check=False)
    C, _ = cokernel_map(span)
    return C.is_zero_module()


def tilting_zigzag_mixed(p: int, n: int) -> bool:
    """The zig-zag (A_1)_!! -> (A_1^+)_!! <- ((A^flat)_1^+)_!! <- (A_1^flat)_!!
    for the mixed mock A = Z[x]/(x^(p^n) - p) and A^flat = F_p[t^(1/p^oo)].

    A/p is read off the tilt dictionary as a V-module: one generator per
    x^k, x acting as t to the exponent the dictionary pairs with x, and
    x^(p^n) = p = 0.  The transport holds when that module is V/(t),
    A^flat mod t.  The Lemma A comparison on the char-p side is
    verify_lemmaA(1, ...), which the tilting suite runs once."""
    flat = RingConfig.perfect(p)
    table = tilt_basis_iso(p, n)
    N = len(table)
    _, e = table[1]
    # column k is x * x^k - x^(k + 1); the last is x * x^(N - 1) = p = 0
    x = poly_monomial(1, e.num, p)
    rel = PolyMatrix(N, N, p)
    for k in range(N):
        rel.set(k, k, x)
        if k + 1 < N:
            rel.set(k + 1, k, [p - 1])
    A_mod_p = PresentedModule(flat, e.k, N, rel)
    return iso_test(A_mod_p, PresentedModule.cyclic(flat, 1))


# -- inverse-limit round trips --------------------------------------------

def _tower_member(spec: TowerSpec, rank: int, n: int, level: int):
    """P tensor A/omega^n as a module over the depth-c ring."""
    return PresentedModule.from_factors(spec.cfg, level, [n] * rank)


def tower_roundtrip(spec: TowerSpec, rank: int, firm_stage=None) -> bool:
    """P over A/omega^depth round-trips through the tower and back.

    The limit is computed as the compatible-tuple kernel of the staggered
    difference map; transitions are checked surjective first (the Milnor
    hypothesis), then both round trips are certified by isomorphism."""
    cfg = spec.cfg
    p = cfg.p
    c = spec.depth
    level = 2 if firm_stage is None else max(2, firm_stage)
    P = _tower_member(spec, rank, c, level)
    members = [_tower_member(spec, rank, n, level) for n in range(1, c + 1)]
    # Milnor hypothesis: every transition P_{n+1} -> P_n surjective
    for n in range(c - 1):
        tr = _transition(members[n + 1], members[n])
        Q, _ = cokernel_map(tr)
        if not Q.is_zero_module():
            raise ValueError("non-surjective transition in the tower")
    # limit = kernel of (x_n) -> (x_{n+1} - x_n as elements of P_n)
    total = direct_sum(*members)
    if c > 1:
        lower = direct_sum(*members[:-1])
        L = total.level
        mod = ring_modulus(cfg, L)
        # row a is x_(n+1) - x_n: p - 1 at column a, 1 at column a + rank
        mat = PolyMatrix(lower.rank, total.rank, p,
                         [[[p - 1] if b == a else [1] if b == a + rank else []
                           for b in range(total.rank)]
                          for a in range(lower.rank)], mod)
        dmap = ModuleMap(total, lower, mat, check=False)
        lim, _ = kernel_map(dmap)
    else:
        lim = members[0]
    if not iso_test(lim, P):
        return False
    # and back down: lim tensor A/omega^n recovers P_n
    for n in range(1, c + 1):
        down = _quotient_exponent(lim, n)
        if not iso_test(down, members[n - 1]):
            return False
    return True


def _transition(src: PresentedModule, tgt: PresentedModule) -> ModuleMap:
    L = max(src.level, tgt.level)
    return ModuleMap(src.at_level(L), tgt.at_level(L),
                     PolyMatrix.identity(src.rank, src.cfg.p,
                                         ring_modulus(src.cfg, L)),
                     check=False)


def _quotient_exponent(M: PresentedModule, e) -> PresentedModule:
    """M / t^e M."""
    return cokernel_map(ModuleMap.scalar(M, e))[0]
