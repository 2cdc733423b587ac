"""Almost mathematics over V: the ideal m = colim t^(1/p^j)V, almost-zero
and almost-isomorphism certificates, firmification, closedification and
the shriek functor.

Ind-objects are modelled as *monomial towers*: a list of lines, line i of
stage j a monomial cyclic V/(t^a) or free, and the transition stage j ->
stage j+1 multiplying line i by its own monomial t^(c_ij).  Every tower
the library constructs (m, m tensor M, V/m, constant towers, their kernels
and cokernels) has this shape, and colimit questions reduce to exponent
bookkeeping line by line: a generator of line i at stage j is zero in the
colimit iff the line's accumulated transition exponent reaches its
annihilator bound at some later stage.

Every tower is given by its integer stage table (see MonomialTower.table):
per line, a column of annihilator bounds and a column of transition
exponents over stages 0..n, every exponent scaled by one power p^K.  The
base towers (m, V/m, constant towers) write theirs in closed form; derived
towers (firmify, kernel_tower, cokernel_tower) map their source's table
line by line in integer arithmetic.  A query at working level J reads
stages 0..2J + _LOOKAHEAD of every tower it touches, so each table is
built once per query.  PExp values are built only where a stage is read
as exponents or modules, and for the witnesses and margins of
certificates.

A query is also answered once per tower: firmify(x) returns the tower it
built for the same x while that tower is alive (a weak reference on x, so
the memo neither keeps a tower alive nor forms a reference cycle), and
is_firm keeps its certificate on the tower, one per working level.

All "for all levels" statements are finitized at a working level J;
verdicts say so explicitly (see AlmostCertificate).
"""
from __future__ import annotations

import weakref
from itertools import accumulate

from .base_ring import CHAR_P_PERFECT, CHAR_P_TRUNCATED, RingConfig
from .exponents import PExp
from .linalg import PolyMatrix
from .modules import (
    ModuleMap,
    PresentedModule,
    cokernel_map,
    ext,
    hom_module,
    kernel_map,
)
from .polys import poly_monomial

IDEAL_M = "IDEAL_M"
RESIDUE = "RESIDUE_V_MOD_M"

# extra lookahead stages when searching for the death of a generator
_LOOKAHEAD = 6


def _stages(J):
    """The last stage a query at working level J reads: the residual of
    stage J looks J + _LOOKAHEAD stages ahead."""
    return 2 * J + _LOOKAHEAD

# compares exactly with every int: a line with no annihilator bound
_INF = float("inf")


class AlmostCertificate:
    """Outcome of a finitized almost-mathematics test.

    verdict is one of:
      "certified-structural" -- exact, from the closed form of the tower
      "holds-at-level"       -- verified through working level J
      "fails"                -- a concrete witness contradicts the claim
    """

    __slots__ = ("verdict", "holds", "level", "witness")

    def __init__(self, verdict, holds, level, witness=None):
        self.verdict = verdict
        self.holds = holds
        self.level = level
        self.witness = witness or {}

    def __bool__(self):
        return self.holds

    def __repr__(self):
        tag = "ok" if self.holds else "NO"
        return f"<cert {tag} {self.verdict} J={self.level} {self.witness}>"

    def to_json(self):
        return {"verdict": self.verdict, "holds": self.holds,
                "level": self.level,
                "witness": {k: str(v) for k, v in self.witness.items()}}


def _floor(cfg):
    """The least level a module over cfg's ring can be built at: the
    truncation bound's denominator exponent on a truncated ring (the modulus
    s^(c*p^level) needs c*p^level integral), 0 otherwise."""
    return cfg.trunc.k if cfg.mode == CHAR_P_TRUNCATED else 0


def _scaled(cols, s):
    """Table columns with every exponent multiplied by s (None stays)."""
    if s == 1:
        return cols
    return [[None if a is None else a * s for a in col] for col in cols]


def _bounded(cols, s, cfg, K):
    """Effective annihilator bounds of bounds columns scaled by s to level
    K: a free line has no bound (None) over the domain, and is bounded by
    the truncation (which must live at level K) over a truncated ring."""
    if cfg.mode != CHAR_P_TRUNCATED:
        return _scaled(cols, s)
    cap = cfg.trunc.to_int_at_level(K)
    return [[cap if a is None else a * s for a in col] for col in cols]


class MonomialTower:
    """Ind-module with monomial stages and a monomial transition on each
    line, given by table_fn(n) -> its integer stage table for stages 0..n
    (see table()).

    The table is kept, rebuilt by table_fn when a later stage is asked
    for, and never changed in place.  lines(), trans_exp(), component()
    and transition() build PExp values and modules from it when they are
    read.

    A tower also keeps what was asked of it: _firm is a weak reference to
    firmify(self) (see firmify), and _firm_certs maps a working level J to
    is_firm(self, J).
    """

    __slots__ = ("cfg", "table_fn", "tag", "name", "closed_form",
                 "az_delegate", "_components", "_table", "_firm",
                 "_firm_certs", "__weakref__")

    def __init__(self, cfg, table_fn, tag=None, name="", closed_form=None,
                 az_delegate=None):
        self.cfg = cfg
        self.table_fn = table_fn
        self.tag = tag
        self.name = name
        # PresentedModule X with self = (m-tilde tensor)^k X for some k >= 0,
        # when a closed form is known; drives closedify
        self.closed_form = closed_form
        # object whose almost-zero status equals ours (m-tilde tensor x is
        # almost zero iff x is, since mu is an almost isomorphism)
        self.az_delegate = az_delegate
        self._components = {}
        # (n, K, bounds, trans): the kept table, built for stages 0..n
        self._table = (-1, 0, [], [])
        self._firm = None
        self._firm_certs = {}

    def table(self, n):
        """Stages 0..n as (K, bounds, trans), every exponent scaled by p^K
        to an integer, one column per line: bounds[i][j] is the annihilator
        exponent of line i at stage j (None for a free line), and
        trans[i][j], j < n, the exponent of the transition out of stage j
        on line i.  Free lines come after the bounded ones, as component()
        presents them.

        K is a level every exponent of the table lives at, set by the
        tower's table_fn (each constructor says which).  It may exceed what
        stages 0..n alone need, when a longer table was built first."""
        m, K, bounds, trans = self._grown(n)
        if m == n:
            return K, bounds, trans
        return K, [col[:n + 1] for col in bounds], [col[:n] for col in trans]

    def _grown(self, n):
        """The kept table, first rebuilt to stage n if it stops before."""
        if self._table[0] < n:
            self._table = (n, *self.table_fn(n))
        return self._table

    def lines(self, j):
        """Annihilator exponents of stage j as PExp values, None for a free
        line."""
        _, K, bounds, _ = self._grown(j)
        p = self.cfg.p
        return tuple(None if col[j] is None else PExp(p, col[j], K)
                     for col in bounds)

    def trans_exp(self, j):
        """Transition exponents out of stage j, one PExp per line."""
        _, K, _, trans = self._grown(j + 1)
        p = self.cfg.p
        return tuple(PExp(p, col[j], K) for col in trans)

    def component(self, j) -> PresentedModule:
        """Stage j, presented at the least level its exponents (and the
        ring's truncation bound) live at.

        Lifting s -> s^(p^d) is a free base change, so invariant factors,
        Hom, Ext and iso_test at a common level do not depend on the level
        a stage was built at; every consumer lifts to a common level
        first.  Building it higher only multiplies the s-degree of every
        entry: t^e costs e*p^level slots."""
        if j not in self._components:
            lines = self.lines(j)
            exps = [a for a in lines if a is not None]
            level = max([_floor(self.cfg)] + [e.k for e in exps])
            self._components[j] = PresentedModule.from_factors(
                self.cfg, level, exps, len(lines) - len(exps))
        return self._components[j]

    def transition(self, j) -> ModuleMap:
        """Stage j -> stage j+1: line i's exponent on the diagonal."""
        cs = self.trans_exp(j)
        src, tgt = self.component(j), self.component(j + 1)
        L = max([src.level, tgt.level] + [c.k for c in cs])
        src, tgt = src.at_level(L), tgt.at_level(L)
        p = self.cfg.p
        mat = PolyMatrix(tgt.rank, src.rank, p, modulus=src.modulus)
        for i, c in enumerate(cs):
            mat.set(i, i, poly_monomial(1, c.to_int_at_level(L), p))
        return ModuleMap(src, tgt, mat)

    def __repr__(self):
        label = self.tag or self.name or "tower"
        return f"<ind {label} over {self.cfg!r}>"


# -- tower constructors ----------------------------------------------------

def ideal_m(cfg: RingConfig) -> MonomialTower:
    """m = colim t^(1/p^j)V: one free line, inclusion by
    t^((p - 1)/p^(j+1)), tabled at K = n."""
    p = cfg.p
    return MonomialTower(
        cfg, lambda n: (n, [[None] * (n + 1)],
                        [[(p - 1) * p ** (n - j - 1) for j in range(n)]]),
        tag=IDEAL_M, name="m",
        closed_form=PresentedModule.free(cfg, _floor(cfg), 1))


def residue(cfg: RingConfig) -> MonomialTower:
    """V/m = colim V/(t^(1/p^j)) along the quotient (identity) maps: one
    line, tabled at K = n."""
    p = cfg.p
    return MonomialTower(
        cfg, lambda n: (n, [[p ** (n - j) for j in range(n + 1)]], [[0] * n]),
        tag=RESIDUE, name="V/m",
        closed_form=PresentedModule.zero(cfg, _floor(cfg)))


def const_tower(M: PresentedModule) -> MonomialTower:
    """M at every stage along identities, one constant line per summand,
    tabled at K = M.level."""
    K = M.level
    line = [e.to_int_at_level(K) for e in M.decompose_exponents()] \
        + [None] * M.free_rank()
    return MonomialTower(
        M.cfg, lambda n: (K, [[a] * (n + 1) for a in line],
                          [[0] * n] * len(line)),
        name=f"const({M!r})", closed_form=M, az_delegate=M)


def as_tower(x) -> MonomialTower:
    if isinstance(x, MonomialTower):
        return x
    if isinstance(x, PresentedModule):
        return const_tower(x)
    raise TypeError(f"expected module or tower, got {type(x).__name__}")


def firmify(x) -> MonomialTower:
    """m-tilde tensor x, stage j realized as t^(1/p^j)V tensor (stage j).

    While the tower built for x is alive, firmify(x) returns it again: x
    holds it by a weak reference (x._firm), so the memo never extends its
    life, and the tower's own reference back to x forms no cycle.  A
    module and its constant tower are different x: firmify(M) answers
    almost-zero questions through M, firmify(as_tower(M)) through the
    tower."""
    if isinstance(x, (PresentedModule, MonomialTower)) and x._firm:
        tower = x._firm()
        if tower is not None:
            return tower
    t = as_tower(x)
    tower = MonomialTower(
        t.cfg,
        table_fn=lambda n: _firm_table(t, n),
        name=f"firmify({t.name})" if t.name else "firmify",
        closed_form=t.closed_form,
        az_delegate=x if isinstance(x, PresentedModule) else t,
    )
    if isinstance(x, PresentedModule):
        if x.free_rank() == 1 and not x.invariant_factors():
            tower.tag = IDEAL_M
    x._firm = weakref.ref(tower)
    return tower


def _firm_table(t, n):
    """Table of firmify(t) at K = max(t's K, n): t's bounds, and every
    transition column gains eps_j = (p - 1)/p^(j+1), scaled
    (p - 1)p^(K-j-1)."""
    p = t.cfg.p
    Kt, bounds, trans = t.table(n)
    K = max(Kt, n)
    s = p ** (K - Kt)
    eps = [(p - 1) * p ** (K - j - 1) for j in range(n)]
    return K, _scaled(bounds, s), [[c * s + e for c, e in zip(col, eps)]
                                   for col in trans]


def closedify(x) -> PresentedModule:
    """Hom(m-tilde, x) in closed form.

    Finite direct sums of monomial modules are closed, so on presented
    modules this is the identity; on towers it returns the recorded closed
    form (firmification twists unwind, V/m collapses to 0).
    """
    if isinstance(x, PresentedModule):
        x.decompose_exponents()  # raises on non-monomial factors
        return x
    t = as_tower(x)
    if t.closed_form is None:
        raise ValueError(f"no closed form known for {t!r}")
    return t.closed_form


def shriek(x) -> MonomialTower:
    """(-)_! = m-tilde tensor Hom(m-tilde, -)."""
    return firmify(closedify(x))


class IndMap:
    """The map family of mu between towers of matching line shape: stage
    j multiplies every line by t^(u_j), u_j = 1/p^j, which is p^(K-j) in
    a table at level K."""

    __slots__ = ("source", "target", "name")

    def __init__(self, source, target, name=""):
        self.source = source
        self.target = target
        self.name = name

    def check_commutes(self, upto):
        """Naturality: target transition after map = map after source
        transition, as exponents, on every line out of every stage
        j < upto.  Towers with different line counts are refused."""
        p = self.source.cfg.p
        Ks, _, src = self.source.table(upto)
        Kt, _, tgt = self.target.table(upto)
        if len(src) != len(tgt):
            return False
        K = max(Ks, Kt, upto)
        ss, st = p ** (K - Ks), p ** (K - Kt)
        u = [p ** (K - j) for j in range(upto + 1)]
        return all(b * st + u[j] == u[j + 1] + a * ss
                   for A, B in zip(src, tgt)
                   for j, (a, b) in enumerate(zip(A, B)))


def mu_map(x) -> IndMap:
    """mu: m tensor x -> x (stage j: multiplication by t^(1/p^j))."""
    t = as_tower(x)
    return IndMap(firmify(t), t, name="mu")


def kernel_tower(f: IndMap) -> MonomialTower:
    """Kernel of a scalar map family, line by line.

    ker(t^u on R/t^a) = R/t^(min(u,a)), generated by t^(off) with
    off = a - min(a,u); each line's generator offsets shift its transition
    exponents.
    """
    return MonomialTower(f.source.cfg, table_fn=lambda n: _kernel_table(f, n),
                         name=f"ker({f.name})")


def _kernel_table(f, n):
    """Table of kernel_tower(f) at K = max(source's K, n, truncation
    level).  Line i's transition out of stage j is the source's c_j moved
    by the line's own offsets: c_j + off_i(j) - off_i(j+1).  A line
    without a bound (free over the domain) has kernel 0 and offset 0."""
    cfg, p = f.source.cfg, f.source.cfg.p
    Ks, bounds, trans = f.source.table(n)
    K = max(Ks, n, _floor(cfg))
    s = p ** (K - Ks)
    u = [p ** (K - j) for j in range(n + 1)]
    out, shifted = [], []
    for A, C in zip(_bounded(bounds, s, cfg, K), trans):
        out.append([0 if a is None else min(a, uj) for a, uj in zip(A, u)])
        off = [0 if a is None else a - k for a, k in zip(A, out[-1])]
        shifted.append([c * s + off[j] - off[j + 1] for j, c in enumerate(C)])
    if any(c < 0 for col in shifted for c in col):
        raise ValueError(f"negative transition exponent in {f.name} kernel")
    return K, out, shifted


def cokernel_tower(f: IndMap) -> MonomialTower:
    """coker(t^u on R/t^a) = R/t^(min(a,u)); free lines give R/t^u.
    Transitions are those of the target."""
    return MonomialTower(f.target.cfg,
                         table_fn=lambda n: _cokernel_table(f, n),
                         name=f"coker({f.name})")


def _cokernel_table(f, n):
    """Table of cokernel_tower(f) at K = max(target's K, n, truncation
    level)."""
    cfg, p = f.target.cfg, f.target.cfg.p
    Kt, bounds, trans = f.target.table(n)
    K = max(Kt, n, _floor(cfg))
    s = p ** (K - Kt)
    u = [p ** (K - j) for j in range(n + 1)]
    return K, [[uj if a is None else min(a, uj) for a, uj in zip(A, u)]
               for A in _bounded(bounds, s, cfg, K)], _scaled(trans, s)


# -- colimit bookkeeping ---------------------------------------------------

def _residuals(tower: MonomialTower, J: int):
    """(K, cols): for each line i and stage j <= J, cols[i][j] is the min
    over k in [j, j+J+lookahead] of (annihilator of line i at stage k) -
    (line i's accumulated transition exponent j -> k), scaled by p^K, or
    None for a line with no annihilator bound.  0 means the generator dies
    exactly (a difference below 0 is reported as 0); small positive means
    it dies up to that exponent.

    The stages are read from tower.table(_stages(J)), raised to the
    truncation bound's level when a free line is bounded by it.  With A_k
    a line's scaled annihilator at stage k and S_k the scaled sum of its
    transition exponents below stage k, the residual at (j, k) is
    A_k - (S_k - S_j), so best_j = S_j + min over k of (A_k - S_k)."""
    cfg = tower.cfg
    horizon = J + _LOOKAHEAD
    K, bounds, trans = tower.table(_stages(J))
    Kb = max(K, _floor(cfg))
    s = cfg.p ** (Kb - K)
    cols = []
    for A, C in zip(_bounded(bounds, s, cfg, Kb), _scaled(trans, s)):
        S = [0, *accumulate(C)]
        # A_k - S_k; a stage without an annihilator bound is +infinity
        D = [_INF if a is None else a - Sk for a, Sk in zip(A, S)]
        best = [min(D[j:j + horizon + 1]) + S[j] for j in range(J + 1)]
        cols.append([None if b == _INF else max(b, 0) for b in best])
    return Kb, cols


def colim_is_zero(tower: MonomialTower, J: int) -> bool:
    """Every generator of every tested stage dies exactly (a line without
    a bound never does: its residual is None)."""
    _, cols = _residuals(tower, J)
    return all(r == 0 for col in cols for r in col)


def is_almost_zero(x, J: int) -> AlmostCertificate:
    """Does t^e kill x for every e > 0 (finitized at exponent 1/p^J)?"""
    if J < 1:
        raise ValueError("working level J must be at least 1")
    if isinstance(x, PresentedModule):
        return _fp_almost_zero(x, J)
    t = as_tower(x)
    if t.az_delegate is not None:
        # m-tilde tensor x is almost zero iff x is (mu is an almost iso)
        inner = is_almost_zero(t.az_delegate, J)
        return AlmostCertificate(inner.verdict, inner.holds, J,
                                 {"via": "firm twist base", **inner.witness})
    K, cols = _residuals(t, J)
    free = [(col.index(None), i) for i, col in enumerate(cols) if None in col]
    if free:
        j, i = min(free)
        return AlmostCertificate(
            "fails", False, J,
            {"stage": j, "line": i, "reason": "free line survives"})
    stage_worst = [max(rs) for rs in zip(*cols)] or [0]
    worst = max(stage_worst)
    monotone = all(b <= a for a, b in zip(stage_worst, stage_worst[1:]))
    if worst == 0:
        verdict = "certified-structural" if monotone else "holds-at-level"
        return AlmostCertificate(verdict, True, J,
                                 {"reason": "all tested generators die exactly"})
    # the first stage, and its first line, with the worst residual
    j = stage_worst.index(worst)
    i = [col[j] for col in cols].index(worst)
    worst = PExp(t.cfg.p, worst, K)
    if worst <= PExp(t.cfg.p, 1, J):
        if t.tag == RESIDUE:
            # structural upgrade: the annihilator exponents 1/p^j tend to 0
            # by construction, so every positive power kills the colimit
            return AlmostCertificate("certified-structural", True, J,
                                     {"reason": "annihilator exponents "
                                                "tend to zero"})
        return AlmostCertificate("holds-at-level", True, J,
                                 {"max_residual": worst.as_fraction()})
    return AlmostCertificate("fails", False, J,
                             {"stage": j, "line": i,
                              "residual": worst.as_fraction()})


def _fp_almost_zero(M: PresentedModule, J: int) -> AlmostCertificate:
    if M.cfg.mode == CHAR_P_PERFECT:
        # over the domain a finitely presented almost-zero module is zero
        if M.is_zero_module():
            return AlmostCertificate("certified-structural", True, J,
                                     {"reason": "zero module"})
        return AlmostCertificate(
            "certified-structural", False, J,
            {"reason": "nonzero finitely presented module over the domain",
             "decomposition": M.decompose()})
    ann = M.annihilator_exponent()
    margin = PExp(M.cfg.p, 1, J)
    if ann is not None and ann <= margin:
        return AlmostCertificate("holds-at-level", True, J,
                                 {"annihilator": ann})
    return AlmostCertificate("fails", False, J, {"annihilator": ann})


def is_almost_iso(f, J: int) -> AlmostCertificate:
    """Kernel and cokernel both almost zero."""
    if isinstance(f, ModuleMap):
        K, _ = kernel_map(f)
        C, _ = cokernel_map(f)
        ck = is_almost_zero(K, J)
        cc = is_almost_zero(C, J)
    elif isinstance(f, IndMap):
        if not f.check_commutes(_stages(J)):
            return AlmostCertificate("fails", False, J,
                                     {"reason": "map family not natural"})
        ck = is_almost_zero(kernel_tower(f), J)
        cc = is_almost_zero(cokernel_tower(f), J)
    else:
        raise TypeError(f"expected map, got {type(f).__name__}")
    holds = ck.holds and cc.holds
    verdict = "fails" if not holds else (
        "certified-structural"
        if ck.verdict == cc.verdict == "certified-structural"
        else "holds-at-level")
    return AlmostCertificate(verdict, holds, J,
                             {"kernel": ck.verdict, "cokernel": cc.verdict,
                              **({} if holds else
                                 {"kernel_witness": ck.witness,
                                  "cokernel_witness": cc.witness})})


def is_exact_iso_levelwise(f: IndMap, J: int) -> bool:
    """Kernel and cokernel towers both have zero colimit (exact death)."""
    return (f.check_commutes(_stages(J))
            and colim_is_zero(kernel_tower(f), J)
            and colim_is_zero(cokernel_tower(f), J))


def is_firm(x, J: int) -> AlmostCertificate:
    """Is mu: m tensor x -> x an isomorphism?

    A tower keeps the certificate of each working level J it was asked at
    (x._firm_certs), so asking again, for instance of shriek(M) while
    firmify(M) is alive, builds no table."""
    if isinstance(x, PresentedModule):
        if x.is_zero_module():
            return AlmostCertificate("certified-structural", True, J, {})
        # coker(mu) at stage j is x/t^(1/p^j)x, nonzero for all j
        return AlmostCertificate(
            "certified-structural", False, J,
            {"reason": "nonzero finitely presented module is never firm",
             "cokernel_stage_J": f"x/t^(1/p^{J})x"})
    t = as_tower(x)
    cert = t._firm_certs.get(J)
    if cert is None:
        if is_exact_iso_levelwise(mu_map(t), J):
            cert = AlmostCertificate(
                "certified-structural", True, J,
                {"reason": "mu kernel and cokernel die exactly"})
        else:
            cert = AlmostCertificate(
                "fails", False, J,
                {"reason": "mu is not an isomorphism in the colimit"})
        t._firm_certs[J] = cert
    return cert


def is_closed(x, J: int) -> AlmostCertificate:
    """Is mu': x -> Hom(m, x) an isomorphism?"""
    if isinstance(x, PresentedModule):
        x.decompose_exponents()  # monomial class only
        # compatible sequences (y_j) with y_j = t^(eps_j) y_{j+1} in a
        # monomial module are exactly the multiples of t^(1/p^j); the limit
        # is x itself and mu' is the identity on it
        return AlmostCertificate("certified-structural", True, J,
                                 {"reason": "monomial modules are closed"})
    t = as_tower(x)
    if t.tag == RESIDUE:
        # Hom(m, V/m) = 0 since m has positive transition exponents and V/m
        # is killed by every positive power; mu' has kernel V/m
        return AlmostCertificate("certified-structural", False, J,
                                 {"reason": "Hom(m, V/m) = 0 but V/m != 0"})
    if t.closed_form is not None and t.tag != IDEAL_M:
        cz = is_almost_zero(t, J)
        if cz.verdict == "certified-structural" and not cz.holds \
                and all(c.is_zero() for c in t.trans_exp(0)):
            # constant tower of a module: same verdict as the module
            return is_closed(t.closed_form, J)
    raise ValueError(f"is_closed is not decidable for {t!r}")


def colocal_ext_vanishing(M, N, J: int) -> AlmostCertificate:
    """Hom(M, N) = Ext^1(M, N) = 0 for M firm and N almost zero."""
    Mt = as_tower(M)
    if not is_firm(Mt, J):
        raise ValueError("M is not firm")
    n_az = is_almost_zero(N, J)
    if not n_az.holds:
        raise ValueError("N is not almost zero")

    # Hom: if every transition exponent of M is positive and N is killed by
    # every positive power, any map vanishes stage by stage:
    # phi(x_j) = t^(c_j) phi(x_{j+1}) = 0.
    pos = all(map(all, Mt.table(_stages(J))[2]))
    if pos and n_az.verdict == "certified-structural":
        hom_ok = AlmostCertificate("certified-structural", True, J,
                                   {"reason": "positive transitions into an "
                                              "exactly-almost-zero target"})
    else:
        # levelwise computation against a representative of N
        hom_ok = _levelwise_vanishing(Mt, N, J, hom_module, "hom")
    if not hom_ok.holds:
        return AlmostCertificate("fails", False, J,
                                 {"ext0": hom_ok.witness})

    # Ext^1 levelwise on representatives
    ext_ok = _levelwise_vanishing(Mt, N, J, lambda A, B: ext(A, B, 1),
                                  "ext1")
    if not ext_ok.holds:
        return AlmostCertificate("fails", False, J, {"ext1": ext_ok.witness})
    verdict = "certified-structural" if (
        hom_ok.verdict == ext_ok.verdict == "certified-structural") \
        else "holds-at-level"
    return AlmostCertificate(verdict, True, J,
                             {"ext0": hom_ok.verdict, "ext1": ext_ok.verdict})


def _representative(N, j):
    if isinstance(N, PresentedModule):
        return N
    return as_tower(N).component(j)


def _levelwise_vanishing(Mt, N, J, functor, key):
    """functor(stage j of Mt, a representative of N) is zero for every
    j <= J; exact when every stage is free.  A nonzero stage is the
    witness, under key."""
    all_free = True
    for j in range(J + 1):
        comp = Mt.component(j)
        H = functor(comp, _representative(N, j))
        if not H.is_zero_module():
            return AlmostCertificate("fails", False, J,
                                     {"stage": j, key: H.decompose()})
        all_free = all_free and not comp.invariant_factors()
    return AlmostCertificate(
        "certified-structural" if all_free else "holds-at-level", True, J, {})


def compactness_check(exponents) -> bool:
    """Hom(m-tilde tensor V, colim N_i) = colim Hom(m-tilde tensor V, N_i)
    for a finite chain N_i = t^(e_i)V with e_0 >= e_1 >= ... >= e_k, over
    F_2[t^(1/2^oo)].

    Both sides evaluate through the closed form Hom(m-tilde, t^e V) = V;
    the check verifies the telescoping compatibility of the induced maps.
    """
    exps = [PExp.from_fraction(2, e) for e in exponents]
    if not exps:
        raise ValueError("empty chain")
    for a, b in zip(exps, exps[1:]):
        if a < b:
            raise ValueError("chain must be a chain of inclusions")
    # induced maps on Hom(m-tilde, -): multiplication by the same exponents;
    # composite from stage 0 must equal the direct inclusion exponent
    total = sum((a - b for a, b in zip(exps, exps[1:])), PExp(2, 0))
    return total == exps[0] - exps[-1]
