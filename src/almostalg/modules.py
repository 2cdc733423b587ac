"""Finitely presented modules over V = F_p[t^(1/p^inf)] and its truncations.

A module is presented at a working level n: generators are a free module
over R_n = F_p[s] with s = t^(1/p^n), relations are the columns of a
polynomial matrix.  Truncated configs V/(t^c) turn R_n into the chain ring
F_p[s]/(s^(c*p^n)).  All structure (kernels, cokernels, Tor, Ext, ...) is
computed by Smith normal form over these rings; modules at different
levels are compared after lifting to a common level via s -> s^p.

A module's invariant factors are read off its relation matrix when every
column holds at most one nonzero entry and that entry is a monomial c*s^v
(over the chain ring any nonzero entry is a unit times s^v): the cokernel
is then the sum over rows of R_n/(s^v) with v the row's least valuation.
Cyclic modules, their direct sums, level lifts and tensor products all
have this shape.  Other relation matrices go through snf(); the full Smith
form with its transforms is computed only on demand (PresentedModule.snf).
"""
from __future__ import annotations

from .base_ring import CHAR_P_TRUNCATED, RingConfig
from .exponents import PExp
from .linalg import PolyMatrix, kernel_basis, kron, lift_matrix, snf, solve
from .polys import poly_monomial, poly_to_string, poly_valuation


def ring_modulus(cfg: RingConfig, level: int):
    """s-power modulus of R_level, or None for the untruncated ring."""
    if cfg.mode == CHAR_P_TRUNCATED:
        return cfg.trunc.to_int_at_level(level)
    return None


def _column_monomial_factors(R: PolyMatrix):
    """Nonzero invariant factors of R in divisibility order, read off the
    columns, or None when some column has two nonzero entries or, over
    F_p[s], a non-monomial one.

    Each column then relates one generator only, by s^v times a unit, so
    coker R is the direct sum over rows of R_n/(s^(least v in the row)),
    and rows without an entry are free."""
    m = R.modulus
    least = [None] * R.rows
    taken = [False] * R.cols
    for i, row in enumerate(R.nonzero):
        for j, e in row.items():
            v = len(e) - 1
            if e.count(0) != v:
                if m is None:
                    return None
                v = poly_valuation(e)
            if m is not None and v >= m:
                continue  # an unreduced entry that is 0 mod s^m
            if taken[j]:
                return None
            taken[j] = True
            if least[i] is None or v < least[i]:
                least[i] = v
    return [poly_monomial(1, v, R.p)
            for v in sorted(v for v in least if v is not None)]


class PresentedModule:
    """Cokernel of a relation matrix over R_level.

    Only the nonzero invariant factors are kept (units included, so that
    their number is the rank of the relation matrix); the full Smith form
    is computed by snf() when a caller needs its transforms."""

    __slots__ = ("cfg", "level", "rank", "relations", "_factors", "_smith")

    def __init__(self, cfg, level, rank, relations=None):
        self.cfg = cfg
        self.level = level
        self.rank = rank
        m = ring_modulus(cfg, level)
        if relations is None:
            relations = PolyMatrix(rank, 0, cfg.p, modulus=m)
        else:
            if relations.rows != rank:
                raise ValueError("relation matrix rows must equal ambient rank")
            if relations.modulus != m:
                relations = relations.with_modulus(m)
        self.relations = relations
        self._smith = None
        factors = _column_monomial_factors(relations)
        if factors is None:
            factors = [f for f in self.snf().invariant_factors if f]
        self._factors = factors

    # -- constructors ------------------------------------------------------

    @classmethod
    def free(cls, cfg, level, rank):
        return cls(cfg, level, rank)

    @classmethod
    def zero(cls, cfg, level=0):
        return cls(cfg, level, 0)

    @classmethod
    def cyclic(cls, cfg, exponent, level=None):
        """V/(t^exponent) (or its truncated image); exponent None gives V."""
        if exponent is None:
            return cls(cfg, level if level is not None else 0, 1)
        exponent = PExp.from_fraction(cfg.p, exponent)
        if level is None:
            level = exponent.k
        e = exponent.to_int_at_level(level)
        rel = PolyMatrix(1, 1, cfg.p, [[poly_monomial(1, e, cfg.p)]],
                         ring_modulus(cfg, level))
        return cls(cfg, level, 1, rel)

    @classmethod
    def from_factors(cls, cfg, level, exponents, free_rank=0):
        """Direct sum of cyclics V/(t^e) plus a free part, at one level."""
        mods = [cls.cyclic(cfg, e, level) for e in exponents]
        mods.append(cls.free(cfg, level, free_rank))
        return direct_sum(*mods) if mods else cls.zero(cfg, level)

    # -- structure ---------------------------------------------------------

    @property
    def modulus(self):
        return self.relations.modulus

    def snf(self):
        """Smith normal form of the relation matrix, computed once."""
        if self._smith is None:
            self._smith = snf(self.relations)
        return self._smith

    def invariant_factors(self):
        """Nonzero non-unit invariant factors of the relation matrix."""
        return [f for f in self._factors if len(f) > 1]

    def free_rank(self):
        return self.rank - len(self._factors)

    def decompose(self):
        """Canonical decomposition: (free_rank, sorted torsion factors)."""
        facs = sorted(self.invariant_factors(), key=lambda f: (len(f), f))
        return self.free_rank(), facs

    def decompose_exponents(self):
        """Torsion factors as PExp annihilator exponents; monomial class only."""
        out = []
        for f in self.invariant_factors():
            if poly_valuation(f) != len(f) - 1:
                raise ValueError(
                    "module has a non-monomial invariant factor: "
                    + poly_to_string(f))
            out.append(PExp(self.cfg.p, len(f) - 1, self.level))
        return sorted(out)

    def is_zero_module(self):
        return self.free_rank() == 0 and not self.invariant_factors()

    def annihilator_exponent(self):
        """Least e with t^e * M = 0, or None if no such e exists."""
        if self.free_rank() > 0:
            if self.modulus is None:
                return None
            return self.cfg.trunc
        exps = self.decompose_exponents()
        return max(exps) if exps else PExp(self.cfg.p, 0)

    def at_level(self, level):
        """The same module presented at a higher level."""
        if level < self.level:
            raise ValueError("cannot lower the working level")
        if level == self.level:
            return self
        rel = lift_matrix(self.relations, level - self.level)
        return PresentedModule(self.cfg, level, self.rank, rel)

    def __repr__(self):
        fr, facs = self.decompose()
        parts = ["R" for _ in range(fr)]
        parts += [f"R/({poly_to_string(f)})" for f in facs]
        body = " + ".join(parts) if parts else "0"
        return f"<module {body} @level {self.level}>"


def common_level_of(*mods):
    return max((m.level for m in mods), default=0)


def iso_test(M: PresentedModule, N: PresentedModule) -> bool:
    """Isomorphism via canonical decompositions at a common level."""
    if M.cfg != N.cfg:
        return False
    L = common_level_of(M, N)
    return M.at_level(L).decompose() == N.at_level(L).decompose()


def direct_sum(*mods) -> PresentedModule:
    if not mods:
        raise ValueError("empty direct sum needs an explicit zero module")
    cfg = mods[0].cfg
    L = common_level_of(*mods)
    mods = [m.at_level(L) for m in mods]
    rank = sum(m.rank for m in mods)
    p = cfg.p
    mod = ring_modulus(cfg, L)
    placements = []
    r0 = c0 = 0
    for m in mods:
        placements.append((r0, c0, m.relations))
        r0 += m.rank
        c0 += m.relations.cols
    rel = PolyMatrix.block(rank, c0, p, mod, placements)
    return PresentedModule(cfg, L, rank, rel)


def tensor(M: PresentedModule, N: PresentedModule) -> PresentedModule:
    """M tensor N by the standard block presentation."""
    if M.cfg != N.cfg:
        raise ValueError("ring config mismatch")
    L = common_level_of(M, N)
    M, N = M.at_level(L), N.at_level(L)
    p = M.cfg.p
    mod = ring_modulus(M.cfg, L)
    I_m = PolyMatrix.identity(M.rank, p, mod)
    I_n = PolyMatrix.identity(N.rank, p, mod)
    rel = kron(M.relations, I_n).hstack(kron(I_m, N.relations))
    return PresentedModule(M.cfg, L, M.rank * N.rank, rel)


def hom_module(M: PresentedModule, N: PresentedModule) -> PresentedModule:
    """Hom(M, N), assembled from the monomial building blocks.

    Requires monomial invariant factors (raises otherwise): with cyclic
    annihilator exponents a, b one has Hom(V/t^a, V/t^b) = V/t^min(a,b),
    Hom(V, X) = X, and Hom(V/t^a, V) = 0 over the untruncated domain.
    """
    if M.cfg != N.cfg:
        raise ValueError("ring config mismatch")
    cfg = M.cfg
    L = common_level_of(M, N)
    truncated = cfg.mode == CHAR_P_TRUNCATED
    ring_exp = cfg.trunc if truncated else None
    m_exps = M.decompose_exponents() + [None] * M.free_rank()
    n_exps = N.decompose_exponents() + [None] * N.free_rank()
    factors = []
    free_rank = 0
    for a in m_exps:
        for b in n_exps:
            if a is None:
                # Hom(R, X) = X
                if b is None:
                    free_rank += 1
                else:
                    factors.append(b)
            else:
                if b is None:
                    if truncated:
                        # Hom(R/t^a, R) = ann(t^a) = t^(c-a) R = R/t^a
                        factors.append(min(a, ring_exp))
                    # over the domain: torsion into free is zero
                else:
                    factors.append(min(a, b))
    return PresentedModule.from_factors(cfg, L, factors, free_rank)


class ModuleMap:
    """A map of presented modules, given on generators."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source, target, matrix, check=True):
        if source.cfg != target.cfg:
            raise ValueError("ring config mismatch")
        L = common_level_of(source, target)
        source, target = source.at_level(L), target.at_level(L)
        if isinstance(matrix, list):
            matrix = PolyMatrix(target.rank, source.rank, source.cfg.p,
                                matrix, ring_modulus(source.cfg, L))
        if (matrix.rows, matrix.cols) != (target.rank, source.rank):
            raise ValueError("matrix shape does not match generators")
        m = ring_modulus(source.cfg, L)
        if matrix.modulus != m:
            matrix = matrix.with_modulus(m)
        self.source = source
        self.target = target
        self.matrix = matrix
        if check and not self.is_well_defined():
            raise ValueError("map does not respect the source relations")

    @property
    def cfg(self):
        return self.source.cfg

    @property
    def level(self):
        return self.source.level

    def is_well_defined(self):
        """Each source relation must land in the target relation span."""
        R = self.source.relations
        for j in range(R.cols):
            v = self.matrix.apply_to_vector(R.column(j))
            if solve(self.target.relations, self.target.snf(), v) is None:
                if any(e for e in v):
                    return False
        return True

    @classmethod
    def identity(cls, M):
        return cls(M, M, PolyMatrix.identity(M.rank, M.cfg.p, M.modulus),
                   check=False)

    @classmethod
    def zero(cls, M, N):
        L = common_level_of(M, N)
        M, N = M.at_level(L), N.at_level(L)
        return cls(M, N, PolyMatrix(N.rank, M.rank, M.cfg.p,
                                    modulus=ring_modulus(M.cfg, L)), check=False)

    @classmethod
    def scalar(cls, M, exponent):
        """Multiplication by t^exponent on M (level raised if needed)."""
        exponent = PExp.from_fraction(M.cfg.p, exponent)
        L = max(M.level, exponent.k)
        M = M.at_level(L)
        e = exponent.to_int_at_level(L)
        p = M.cfg.p
        mat = PolyMatrix(M.rank, M.rank, p, modulus=M.modulus)
        for i in range(M.rank):
            mat.set(i, i, poly_monomial(1, e, p))
        return cls(M, M, mat, check=False)

    def at_level(self, level):
        if level == self.level:
            return self
        d = level - self.level
        return ModuleMap(self.source.at_level(level), self.target.at_level(level),
                         lift_matrix(self.matrix, d), check=False)

    def compose(self, other):
        """self after other."""
        L = max(self.level, other.level)
        s, o = self.at_level(L), other.at_level(L)
        return ModuleMap(o.source, s.target, s.matrix.mul(o.matrix), check=False)

    def add(self, other):
        L = max(self.level, other.level)
        s, o = self.at_level(L), other.at_level(L)
        return ModuleMap(s.source, s.target, s.matrix.add(o.matrix), check=False)

    def neg(self):
        return ModuleMap(self.source, self.target, self.matrix.neg(), check=False)

    def is_zero_map(self):
        """Zero as a map: every generator image lies in the relation span."""
        for j in range(self.matrix.cols):
            v = self.matrix.column(j)
            if any(e for e in v):
                if solve(self.target.relations, self.target.snf(), v) is None:
                    return False
        return True

    def equals(self, other):
        L = max(self.level, other.level)
        s, o = self.at_level(L), other.at_level(L)
        diff = ModuleMap(s.source, s.target, s.matrix.add(o.matrix.neg()),
                         check=False)
        return diff.is_zero_map()

    def __repr__(self):
        return f"<map {self.source!r} -> {self.target!r}>"


def preimage_gens(A: PolyMatrix, B: PolyMatrix) -> PolyMatrix:
    """Columns generating {y : A*y lies in the column span of B}."""
    if B.cols == 0:
        K = kernel_basis(A)
        return K
    stacked = A.hstack(B.neg())
    K = kernel_basis(stacked)
    return K.top_rows(A.cols)


def _subquotient(cfg, level, gens: PolyMatrix, mod_out: PolyMatrix):
    """Module generated by the columns of gens modulo the span of mod_out."""
    rels = preimage_gens(gens, mod_out)
    return PresentedModule(cfg, level, gens.cols, rels), gens


def kernel_map(f: ModuleMap):
    """(K, inclusion K -> source)."""
    pre = preimage_gens(f.matrix, f.target.relations)
    K, gens = _subquotient(f.cfg, f.level, pre, f.source.relations)
    incl = ModuleMap(K, f.source, gens, check=False)
    return K, incl


def cokernel_map(f: ModuleMap):
    """(C, projection target -> C)."""
    rel = f.matrix.hstack(f.target.relations)
    C = PresentedModule(f.cfg, f.level, f.target.rank, rel)
    proj = ModuleMap(f.target, C,
                     PolyMatrix.identity(f.target.rank, f.cfg.p, f.matrix.modulus),
                     check=False)
    return C, proj


def homology_at(f: ModuleMap | None, g: ModuleMap | None):
    """ker(g) / im(f) for composable maps A -f-> B -g-> C: coker(f) when g
    is None, ker(g) when f is None."""
    if g is None:
        return cokernel_map(f)[0]
    if f is None:
        return kernel_map(g)[0]
    if not g.compose(f).is_zero_map():
        raise ValueError("maps do not compose to zero")
    B = g.source
    pre = preimage_gens(g.matrix, g.target.relations)
    rels = preimage_gens(pre, f.matrix.hstack(B.relations))
    return PresentedModule(B.cfg, B.level, pre.cols, rels)


def free_resolution(M: PresentedModule, length: int):
    """Differentials [d1, ..., dk] of a free resolution F_k -> ... -> F_0 -> M.

    Over the untruncated domain the relation module is free, so the
    resolution stops at length 1; over a truncation it continues (up to the
    requested length) via iterated kernels.
    """
    if length < 1:
        raise ValueError("resolution length must be at least 1")
    p = M.cfg.p
    if not M.rank:
        return []
    res = M.snf()
    # columns U*D restricted to nonzero diagonal entries: a generating set
    # of the relation span that is independent over the domain
    cols = []
    n = min(M.relations.rows, M.relations.cols)
    UD = res.U.mul(res.D)
    for i in range(n):
        if res.D.entry(i, i):
            cols.append(UD.column(i))
    d1 = PolyMatrix.from_columns(cols, M.rank, p, M.modulus) if cols \
        else PolyMatrix(M.rank, 0, p, modulus=M.modulus)
    diffs = [d1]
    while len(diffs) < length:
        k = kernel_basis(diffs[-1])
        if k.cols == 0:
            break
        diffs.append(k)
    return diffs


def tor(M: PresentedModule, N: PresentedModule, i: int) -> PresentedModule:
    """Tor_i(M, N) for i in {0, 1, 2} from a free resolution of M."""
    if i not in (0, 1, 2):
        raise ValueError("tor implemented for i in {0, 1, 2}")
    L = common_level_of(M, N)
    M, N = M.at_level(L), N.at_level(L)
    diffs = free_resolution(M, i + 1) if M.rank else []
    maps = _tensored_complex(M, N, diffs, L)
    f = maps[i + 1] if i + 1 < len(maps) else None
    g = maps[i] if i < len(maps) else None
    if g is None and f is None:
        # M free and i > 0, or trivial
        if i == 0:
            return tensor(M, N)
        return PresentedModule.zero(M.cfg, L)
    if i == 0:
        return tensor(M, N)
    return homology_at(f, g)


def _tensored_complex(M, N, diffs, L):
    """Maps of the complex F_* tensor N indexed by differential position."""
    cfg = M.cfg
    p = cfg.p
    mod = ring_modulus(cfg, L)
    I_n = PolyMatrix.identity(N.rank, p, mod)
    ranks = [M.rank] + [d.cols for d in diffs]
    terms = [_n_copies(N, r, L) for r in ranks]
    maps = [None]
    for idx, d in enumerate(diffs):
        mat = kron(d, I_n)
        maps.append(ModuleMap(terms[idx + 1], terms[idx], mat, check=False))
    return maps


def _n_copies(N, r, L):
    if r == 0:
        return PresentedModule.zero(N.cfg, L)
    return direct_sum(*[N.at_level(L)] * r)


def ext(M: PresentedModule, N: PresentedModule, i: int) -> PresentedModule:
    """Ext^i(M, N) for i in {0, 1, 2} as cohomology of Hom(F_*, N)."""
    if i not in (0, 1, 2):
        raise ValueError("ext implemented for i in {0, 1, 2}")
    L = common_level_of(M, N)
    M, N = M.at_level(L), N.at_level(L)
    diffs = free_resolution(M, i + 1) if M.rank else []
    cfg = M.cfg
    mod = ring_modulus(cfg, L)
    I_n = PolyMatrix.identity(N.rank, cfg.p, mod)
    ranks = [M.rank] + [d.cols for d in diffs]
    terms = [_n_copies(N, r, L) for r in ranks]
    comaps = []
    for idx, d in enumerate(diffs):
        mat = kron(d.transpose(), I_n)
        comaps.append(ModuleMap(terms[idx], terms[idx + 1], mat, check=False))
    f = comaps[i - 1] if 0 <= i - 1 < len(comaps) else None
    g = comaps[i] if i < len(comaps) else None
    if g is None and f is None:
        if i == 0:
            return terms[0]
        return PresentedModule.zero(cfg, L)
    return homology_at(f, g)
