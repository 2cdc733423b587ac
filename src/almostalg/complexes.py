"""Bounded chain complexes of presented modules: cones, shifts, cylinders,
homology, (almost) quasi-isomorphism tests, and the Perf+ object class.

Homological convention: d_n : E_n -> E_{n-1}.  Missing degrees are zero
modules.  A Perf+ object is its class bookkeeping: per-degree
multiplicities of the two generator types (A-free and m-tilde tensor
A-free), which is all its K0 class reads.
"""
from __future__ import annotations

from .almost import (
    AlmostCertificate,
    IndMap,
    firmify,
    is_almost_iso,
    is_almost_zero,
)
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


def _align(f: "ChainMap"):
    """Common level of a chain map's complexes and components."""
    return max(f.source.level(), f.target.level(),
               *[g.level for g in f.comps.values()] or [0])


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


def cone(f: ChainMap):
    """cone(f)_d = E_{d-1} + F_d, d(e, b) = (-d_E e, d_F b - f e).

    Returns (C, incl: F -> C, proj: C -> E[-1])."""
    f = chain_map_at_level(f, _align(f))
    E, F = f.source, f.target
    cfg = E.cfg
    p = cfg.p
    degs = {d + 1 for d in E.terms} | set(F.terms)
    terms = {d: direct_sum(E.term(d - 1), F.term(d)) for d in degs}
    diffs = {}
    for d in degs:
        if d - 1 not in degs:
            continue
        src_e, src_f = E.term(d - 1), F.term(d)
        tgt_e, tgt_f = E.term(d - 2), F.term(d - 1)
        dE = E.diff(d - 1).neg()
        dF = F.diff(d)
        fd = f.comp(d - 1).neg()
        # [[dE, 0], [fd, dF]]
        mat = PolyMatrix.block(
            tgt_e.rank + tgt_f.rank, src_e.rank + src_f.rank, p,
            terms[d].modulus,
            [(0, 0, dE.matrix), (tgt_e.rank, 0, fd.matrix),
             (tgt_e.rank, src_e.rank, dF.matrix)])
        diffs[d] = ModuleMap(terms[d], terms[d - 1], mat, check=False)
    C = ChainComplex(cfg, terms, diffs, check=False)
    Em1 = shift(E, 1)
    incl, proj = {}, {}
    for d, Cd in C.terms.items():
        re, rf, mod = E.term(d - 1).rank, F.term(d).rank, Cd.modulus
        if d in F.terms:
            I = PolyMatrix.identity(rf, p, mod)
            incl[d] = ModuleMap(F.terms[d], Cd, PolyMatrix.block(
                re + rf, rf, p, mod, [(re, 0, I)]), check=False)
        if d in Em1.terms:
            I = PolyMatrix.identity(re, p, mod)
            proj[d] = ModuleMap(Cd, Em1.terms[d], PolyMatrix.block(
                re, re + rf, p, mod, [(0, 0, I)]), check=False)
    incl = ChainMap(F, C, incl, check=False)
    proj = ChainMap(C, Em1, proj, check=False)
    return C, incl, proj


def cylinder(f: ChainMap):
    """cyl(f) = cone(g : cone(f)[-1] -> E), where g is cone(f)'s projection
    read one degree down: cone(f)[-1]_d = cone(f)_{d+1} = E_d + F_{d+1}, and
    the shift keeps the module objects, so g's components are proj's.

    Returns (cyl, iota: E -> cyl, pi: cyl -> F), where iota is the
    inclusion cone(g) returns and pi(e', b, e) = f(e) - b on
    cyl_d = E_{d-1} + F_d + E_d, so that pi o iota = f exactly."""
    f = chain_map_at_level(f, _align(f))
    E, F = f.source, f.target
    p = E.cfg.p
    C, _, proj = cone(f)
    g = ChainMap(shift(C, -1), E, {d - 1: h for d, h in proj.comps.items()})
    cyl, iota, _ = cone(g)
    pi = {}
    for d, Cd in cyl.terms.items():
        if d in F.terms:
            re1, rf, mod = E.term(d - 1).rank, F.terms[d].rank, Cd.modulus
            pi[d] = ModuleMap(Cd, F.terms[d], PolyMatrix.block(
                rf, Cd.rank, p, mod,
                [(0, re1, PolyMatrix.identity(rf, p, mod).neg()),
                 (0, re1 + rf, f.comp(d).matrix)]), check=False)
    return cyl, iota, ChainMap(cyl, F, pi, check=False)


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


def is_almost_qis(f) -> AlmostCertificate:
    """Almost quasi-isomorphism: the firmified cone is acyclic, i.e. every
    cone homology is almost zero."""
    if isinstance(f, (IndMap, ModuleMap)):
        return is_almost_iso(f)
    C, _, _ = cone(f)
    for i in range(C.min_deg, C.max_deg + 1):
        H = homology(C, i)
        cert = is_almost_zero(firmify(H))
        if not cert.holds:
            return AlmostCertificate("fails", False,
                                     {"degree": i, "homology": H.decompose(),
                                      **cert.witness})
    return AlmostCertificate("certified-structural", True, {})


# -- Perf+ ----------------------------------------------------------------

class PerfPlus:
    """Complex generated degreewise by A-free and (m-tilde tensor A)-free
    summands, kept as its multiplicity bookkeeping.

    mults[d] = (a, b): a copies of the free generator, b copies of the
    firm generator in degree d.  Cones, shifts and sums act on these
    tables; the K0 class is their alternating sum.
    """

    __slots__ = ("cfg", "mults", "aperf")

    def __init__(self, cfg, mults, aperf):
        self.cfg = cfg
        self.mults = {d: (a, b) for d, (a, b) in mults.items() if a or b}
        self.aperf = aperf

    def __repr__(self):
        body = ", ".join(f"{d}:{self.mults[d]}" for d in sorted(self.mults))
        return f"<perf+ {{{body}}} aperf={self.aperf}>"


class PerfPlusMap:
    """Map of Perf+ objects, known by its source and target."""

    __slots__ = ("source", "target")

    def __init__(self, source, target):
        self.source = source
        self.target = target


def perf_from_complex(E: ChainComplex) -> PerfPlus:
    """A strictly perfect complex (all terms free) as a Perf+ object."""
    for d, m in E.terms.items():
        if m.invariant_factors():
            raise ValueError("perfect complexes need free terms")
    mults = {d: (m.rank, 0) for d, m in E.terms.items()}
    return PerfPlus(E.cfg, mults, aperf=False)


def firmify_perf(P: PerfPlus) -> PerfPlus:
    """m-tilde tensor P: every generator becomes the firm type."""
    mults = {d: (0, a + b) for d, (a, b) in P.mults.items()}
    return PerfPlus(P.cfg, mults, aperf=True)


def mu_perf_map(P: PerfPlus) -> PerfPlusMap:
    """mu_P : m-tilde tensor P -> P."""
    return PerfPlusMap(firmify_perf(P), P)


def _sum_mults(M, N):
    """Degree-wise sum of two multiplicity tables."""
    out = dict(M)
    for d, (a, b) in N.items():
        ma, mb = out.get(d, (0, 0))
        out[d] = (ma + a, mb + b)
    return out


def cone_perf(f: PerfPlusMap) -> PerfPlus:
    S, T = f.source, f.target
    mults = _sum_mults({d + 1: ab for d, ab in S.mults.items()}, T.mults)
    return PerfPlus(S.cfg, mults, aperf=S.aperf and T.aperf)


def shift_perf(P: PerfPlus, k: int) -> PerfPlus:
    mults = {d + k: ab for d, ab in P.mults.items()}
    return PerfPlus(P.cfg, mults, aperf=P.aperf)


def sum_perf(P: PerfPlus, Q: PerfPlus) -> PerfPlus:
    return PerfPlus(P.cfg, _sum_mults(P.mults, Q.mults),
                    aperf=P.aperf and Q.aperf)
