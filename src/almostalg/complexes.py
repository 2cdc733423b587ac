"""Bounded chain complexes of presented modules: cones, shifts, cylinders,
homology, (almost) quasi-isomorphism tests, and the Perf+ object class.

Homological convention: d_n : E_n -> E_{n-1}.  Missing degrees are zero
modules.  Perf+ objects carry per-degree multiplicities of the two
generator types (A-free and m-tilde tensor A-free) plus a realization
recipe producing an honest complex at each tower stage j.
"""
from __future__ import annotations

from .almost import (
    AlmostCertificate,
    IndMap,
    firmify,
    is_almost_iso,
    is_almost_zero,
)
from .exponents import PExp
from .linalg import PolyMatrix
from .modules import ModuleMap, PresentedModule, direct_sum, homology_at


class ChainComplex:
    """terms[d] is the degree-d module; diffs[d] : terms[d] -> terms[d-1]."""

    __slots__ = ("cfg", "terms", "diffs", "min_deg", "max_deg")

    def __init__(self, cfg, terms, diffs, check=True):
        self.cfg = cfg
        self.terms = {d: m for d, m in terms.items() if m.rank > 0}
        degs = sorted(self.terms)
        self.min_deg = degs[0] if degs else 0
        self.max_deg = degs[-1] if degs else 0
        self.diffs = {}
        for d, f in diffs.items():
            if f is not None and d in self.terms and (d - 1) in self.terms:
                self.diffs[d] = f
        if check:
            self._check_dd()

    def _check_dd(self):
        for d in self.diffs:
            if (d - 1) in self.diffs:
                comp = self.diffs[d - 1].compose(self.diffs[d])
                if not comp.is_zero_map():
                    raise ValueError(f"d o d != 0 at degree {d}")
        for d, f in self.diffs.items():
            if not f.is_well_defined():
                raise ValueError(f"differential at degree {d} ill-defined")

    def term(self, d) -> PresentedModule:
        if d in self.terms:
            return self.terms[d]
        return PresentedModule.zero(self.cfg, self.level())

    def diff(self, d) -> ModuleMap:
        if d in self.diffs:
            return self.diffs[d]
        return ModuleMap.zero(self.term(d), self.term(d - 1))

    def level(self):
        return max([m.level for m in self.terms.values()] +
                   [f.level for f in self.diffs.values()], default=0)

    def degrees(self):
        return range(self.min_deg, self.max_deg + 1)

    @classmethod
    def from_module(cls, M, deg=0):
        return cls(M.cfg, {deg: M}, {})

    @classmethod
    def zero(cls, cfg):
        return cls(cfg, {}, {})

    def __repr__(self):
        body = ", ".join(f"{d}:{self.terms[d]!r}" for d in sorted(self.terms))
        return f"<complex {{{body}}}>"


def complex_at_level(E: ChainComplex, L: int) -> ChainComplex:
    """Lift every term and differential to the level-L presentation."""
    terms = {d: m.at_level(L) for d, m in E.terms.items()}
    diffs = {d: f.at_level(L) for d, f in E.diffs.items()}
    return ChainComplex(E.cfg, terms, diffs, check=False)


def _align(*objs):
    """Common level of a mix of complexes and chain maps."""
    L = 0
    for x in objs:
        if isinstance(x, ChainComplex):
            L = max(L, x.level())
        else:
            L = max(L, x.source.level(), x.target.level(),
                    *[f.level for f in x.comps.values()] or [0])
    return L


def chain_map_at_level(f: "ChainMap", L: int) -> "ChainMap":
    return ChainMap(complex_at_level(f.source, L),
                    complex_at_level(f.target, L),
                    {d: g.at_level(L) for d, g in f.comps.items()},
                    check=False)


def shift(E: ChainComplex, k: int) -> ChainComplex:
    """(E[k])_d = E_{d-k}, differential scaled by (-1)^k."""
    terms = {d + k: m for d, m in E.terms.items()}
    diffs = {}
    for d, f in E.diffs.items():
        g = f if k % 2 == 0 else f.neg()
        diffs[d + k] = ModuleMap(g.source, g.target, g.matrix, check=False)
    return ChainComplex(E.cfg, terms, diffs, check=False)


def direct_sum_complex(E: ChainComplex, F: ChainComplex) -> ChainComplex:
    L = _align(E, F)
    E, F = complex_at_level(E, L), complex_at_level(F, L)
    terms = {}
    diffs = {}
    for d in set(E.terms) | set(F.terms):
        terms[d] = direct_sum(E.term(d), F.term(d))
    for d in sorted(terms):
        if (d - 1) in terms or d in set(E.diffs) | set(F.diffs):
            fe, ff = E.diff(d), F.diff(d)
            src = terms[d]
            tgt = terms.get(d - 1)
            if tgt is None:
                continue
            A, B = fe.matrix, ff.matrix
            mat = PolyMatrix.block(A.rows + B.rows, A.cols + B.cols, E.cfg.p,
                                   src.modulus,
                                   [(0, 0, A), (A.rows, A.cols, B)])
            diffs[d] = ModuleMap(src, tgt, mat, check=False)
    return ChainComplex(E.cfg, terms, diffs, check=False)


class ChainMap:
    """Degree-wise maps commuting with the differentials."""

    __slots__ = ("source", "target", "comps")

    def __init__(self, source, target, comps, check=True):
        self.source = source
        self.target = target
        self.comps = {d: f for d, f in comps.items()
                      if d in source.terms and d in target.terms}
        if check:
            self._check_squares()

    def comp(self, d) -> ModuleMap:
        if d in self.comps:
            return self.comps[d]
        return ModuleMap.zero(self.source.term(d), self.target.term(d))

    def _check_squares(self):
        for d in set(self.source.terms) | set(self.target.terms):
            lhs = self.target.diff(d).compose(self.comp(d))
            rhs = self.comp(d - 1).compose(self.source.diff(d))
            if not lhs.add(rhs.neg()).is_zero_map():
                raise ValueError(f"chain map square fails at degree {d}")
            if not self.comp(d).is_well_defined():
                raise ValueError(f"component at degree {d} ill-defined")

    @classmethod
    def identity(cls, E):
        return cls(E, E, {d: ModuleMap.identity(E.terms[d]) for d in E.terms},
                   check=False)

    @classmethod
    def zero(cls, E, F):
        return cls(E, F, {}, check=False)


def cone(f: ChainMap):
    """cone(f)_d = E_{d-1} + F_d, d(e, b) = (-d_E e, d_F b - f e).

    Returns (C, incl: F -> C, proj: C -> E[-1])."""
    f = chain_map_at_level(f, _align(f))
    E, F = f.source, f.target
    cfg = E.cfg
    terms = {}
    degs = set()
    for d in E.terms:
        degs.add(d + 1)
    degs |= set(F.terms)
    for d in degs:
        terms[d] = direct_sum(E.term(d - 1), F.term(d))
    diffs = {}
    for d in degs:
        if (d - 1) not in degs and not (E.term(d - 2).rank or F.term(d - 1).rank):
            continue
        src_e, src_f = E.term(d - 1), F.term(d)
        tgt_e, tgt_f = E.term(d - 2), F.term(d - 1)
        tgt = terms.get(d - 1)
        if tgt is None:
            tgt = direct_sum(tgt_e, tgt_f)
        dE = E.diff(d - 1).neg()
        dF = F.diff(d)
        fd = f.comp(d - 1).neg()
        # [[dE, 0], [fd, dF]]
        mat = PolyMatrix.block(
            tgt_e.rank + tgt_f.rank, src_e.rank + src_f.rank, cfg.p,
            terms[d].modulus,
            [(0, 0, dE.matrix), (tgt_e.rank, 0, fd.matrix),
             (tgt_e.rank, src_e.rank, dF.matrix)])
        diffs[d] = ModuleMap(terms[d], tgt, mat, check=False)
    C = ChainComplex(cfg, terms, diffs, check=False)
    p = cfg.p
    incl = {}
    for d in F.terms:
        if d in C.terms:
            re, rf, mod = E.term(d - 1).rank, F.term(d).rank, C.terms[d].modulus
            I = PolyMatrix.identity(rf, p, mod)
            incl[d] = ModuleMap(F.terms[d], C.terms[d], PolyMatrix.block(
                re + rf, rf, p, mod, [(re, 0, I)]), check=False)
    Em1 = shift(E, 1)
    proj = {}
    for d in C.terms:
        if d in Em1.terms:
            re, rf, mod = E.term(d - 1).rank, F.term(d).rank, C.terms[d].modulus
            I = PolyMatrix.identity(re, p, mod)
            proj[d] = ModuleMap(C.terms[d], Em1.terms[d], PolyMatrix.block(
                re, re + rf, p, mod, [(0, 0, I)]), check=False)
    incl = ChainMap(F, C, incl, check=False)
    proj = ChainMap(C, Em1, proj, check=False)
    return C, incl, proj


def cylinder(f: ChainMap):
    """cyl(f) = cone(g : cone(f)[-1] -> E) with g the E-projection.

    Returns (cyl, iota: E -> cyl, pi: cyl -> F, homotopy) where
    pi o iota = f exactly (the homotopy witness is the zero homotopy)."""
    f = chain_map_at_level(f, _align(f))
    E, F = f.source, f.target
    p = E.cfg.p
    C, _, _ = cone(f)
    Cm1 = shift(C, -1)
    # g : cone(f)[-1] -> E is the projection onto the E-block
    comps = {}
    for d in Cm1.terms:
        if d not in E.terms:
            continue
        re, rf, mod = E.term(d).rank, F.term(d + 1).rank, Cm1.terms[d].modulus
        I = PolyMatrix.identity(re, p, mod)
        comps[d] = ModuleMap(Cm1.terms[d], E.terms[d], PolyMatrix.block(
            re, re + rf, p, mod, [(0, 0, I)]), check=False)
    g = ChainMap(Cm1, E, comps)
    cyl, _, _ = cone(g)
    # cyl_d = (E_{d-1} + F_d) + E_d
    iota = {}
    for d in E.terms:
        if d in cyl.terms:
            skip, re = E.term(d - 1).rank + F.term(d).rank, E.term(d).rank
            mod = cyl.terms[d].modulus
            I = PolyMatrix.identity(re, p, mod)
            iota[d] = ModuleMap(E.terms[d], cyl.terms[d], PolyMatrix.block(
                skip + re, re, p, mod, [(skip, 0, I)]), check=False)
    iota = ChainMap(E, cyl, iota, check=False)
    pi = ChainMap(cyl, F, {
        d: _cyl_projection(f, cyl, d)
        for d in cyl.terms if d in F.terms}, check=False)
    homotopy = {d: ModuleMap.zero(E.term(d), F.term(d + 1))
                for d in E.terms}
    return cyl, iota, pi, homotopy


def _cyl_projection(f, cyl, d):
    """pi(e', b, e) = f(e) - b on cyl_d = E_{d-1} + F_d + E_d."""
    E, F = f.source, f.target
    p = E.cfg.p
    re1 = E.term(d - 1).rank
    rf = F.term(d).rank
    re = E.term(d).rank
    mod = cyl.terms[d].modulus
    out = PolyMatrix.block(rf, re1 + rf + re, p, mod,
                           [(0, re1, PolyMatrix.identity(rf, p, mod).neg()),
                            (0, re1 + rf, f.comp(d).matrix)])
    return ModuleMap(cyl.terms[d], F.term(d), out, check=False)


def homology(E: ChainComplex, i: int) -> PresentedModule:
    incoming = E.diffs.get(i + 1)
    outgoing = E.diffs.get(i)
    if incoming is None and outgoing is None:
        return E.term(i)
    return homology_at(incoming, outgoing)


def is_acyclic(E: ChainComplex) -> bool:
    return all(homology(E, i).is_zero_module()
               for i in range(E.min_deg, E.max_deg + 1))


def is_qis(f: ChainMap) -> bool:
    C, _, _ = cone(f)
    return is_acyclic(C)


def is_almost_qis(f, J: int) -> AlmostCertificate:
    """Almost quasi-isomorphism: the firmified cone is acyclic, i.e. every
    cone homology is almost zero."""
    if isinstance(f, (IndMap, ModuleMap)):
        return is_almost_iso(f, J)
    C, _, _ = cone(f)
    worst = None
    for i in range(C.min_deg, C.max_deg + 1):
        H = homology(C, i)
        cert = is_almost_zero(firmify(H), J)
        if not cert.holds:
            return AlmostCertificate("fails", False, J,
                                     {"degree": i, "homology": H.decompose(),
                                      **cert.witness})
        if worst is None or cert.verdict == "holds-at-level":
            worst = cert
    if worst is None:
        return AlmostCertificate("certified-structural", True, J,
                                 {"reason": "cone has no terms"})
    return AlmostCertificate(worst.verdict, True, J, {})


# -- Perf+ ----------------------------------------------------------------

class PerfPlus:
    """Complex generated degreewise by A-free and (m-tilde tensor A)-free
    summands, with multiplicity bookkeeping and stage realizations.

    mults[d] = (a, b): a copies of the free generator, b copies of the
    firm generator in degree d.  realize(j) produces the stage-j complex,
    where the firm generator is the free module twisted by t^(1/p^j) --
    the twist shows up in maps mixing the two types, not in the terms.
    """

    __slots__ = ("cfg", "mults", "_realize_fn", "aperf", "witness", "_cache")

    def __init__(self, cfg, mults, realize_fn, aperf, witness):
        self.cfg = cfg
        self.mults = {d: (a, b) for d, (a, b) in mults.items() if a or b}
        self._realize_fn = realize_fn
        self.aperf = aperf
        self.witness = witness
        self._cache = {}

    def realize(self, j) -> ChainComplex:
        if j not in self._cache:
            E = self._realize_fn(j)
            for d, (a, b) in self.mults.items():
                if E.term(d).rank != a + b:
                    raise AssertionError(
                        f"realization rank mismatch at degree {d}")
            self._cache[j] = E
        return self._cache[j]

    def degrees(self):
        return sorted(self.mults)

    def __repr__(self):
        body = ", ".join(f"{d}:{self.mults[d]}" for d in sorted(self.mults))
        return f"<perf+ {{{body}}} aperf={self.aperf}>"


class PerfPlusMap:
    """Map of Perf+ objects given by stage realizations."""

    __slots__ = ("source", "target", "_realize_fn", "name", "_cache")

    def __init__(self, source, target, realize_fn, name=""):
        self.source = source
        self.target = target
        self._realize_fn = realize_fn
        self.name = name
        self._cache = {}

    def realize(self, j) -> ChainMap:
        if j not in self._cache:
            self._cache[j] = self._realize_fn(j)
        return self._cache[j]


def perf_from_complex(E: ChainComplex) -> PerfPlus:
    """A strictly perfect complex (all terms free) as a Perf+ object."""
    for d, m in E.terms.items():
        if m.invariant_factors():
            raise ValueError("perfect complexes need free terms")
    mults = {d: (m.rank, 0) for d, m in E.terms.items()}
    return PerfPlus(E.cfg, mults, lambda j: E, aperf=False, witness="perfect")


def firmify_perf(P: PerfPlus) -> PerfPlus:
    """m-tilde tensor P: every generator becomes the firm type; stage
    realizations keep the same matrices (the twist is a unit on uniform
    blocks)."""
    mults = {d: (0, a + b) for d, (a, b) in P.mults.items()}
    return PerfPlus(P.cfg, mults, P.realize, aperf=True,
                    witness=f"firmify({P.witness})")


def mu_perf_map(P: PerfPlus) -> PerfPlusMap:
    """mu_P : m-tilde tensor P -> P, stage j is t^(1/p^j) in every degree."""
    FP = firmify_perf(P)
    p = P.cfg.p

    def realize(j):
        E = FP.realize(j)
        F = P.realize(j)
        e = PExp(p, 1, j)
        comps = {}
        for d in E.terms:
            src = E.terms[d]
            tgt = F.term(d)
            L = max(src.level, tgt.level, j)
            sc = ModuleMap.scalar(src.at_level(L), e)
            comps[d] = ModuleMap(sc.source, tgt.at_level(L), sc.matrix,
                                 check=False)
        return ChainMap(E, F, comps, check=False)

    return PerfPlusMap(FP, P, realize, name="mu")


def cone_perf(f: PerfPlusMap) -> PerfPlus:
    S, T = f.source, f.target
    mults = {}
    for d in set(d + 1 for d in S.mults) | set(T.mults):
        sa, sb = S.mults.get(d - 1, (0, 0))
        ta, tb = T.mults.get(d, (0, 0))
        mults[d] = (sa + ta, sb + tb)
    return PerfPlus(S.cfg, mults, lambda j: cone(f.realize(j))[0],
                    aperf=S.aperf and T.aperf,
                    witness=f"cone({f.name or 'map'})")


def shift_perf(P: PerfPlus, k: int) -> PerfPlus:
    mults = {d + k: ab for d, ab in P.mults.items()}
    return PerfPlus(P.cfg, mults, lambda j: shift(P.realize(j), k),
                    aperf=P.aperf, witness=f"shift({P.witness},{k})")


def sum_perf(P: PerfPlus, Q: PerfPlus) -> PerfPlus:
    mults = {}
    for d in set(P.mults) | set(Q.mults):
        pa, pb = P.mults.get(d, (0, 0))
        qa, qb = Q.mults.get(d, (0, 0))
        mults[d] = (pa + qa, pb + qb)
    return PerfPlus(P.cfg, mults,
                    lambda j: direct_sum_complex(P.realize(j), Q.realize(j)),
                    aperf=P.aperf and Q.aperf,
                    witness=f"sum({P.witness},{Q.witness})")
