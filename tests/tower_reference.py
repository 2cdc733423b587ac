"""Reference for the towers' closed forms.

Integer stage tables, built stage by stage the way almost.py built every
tower before its towers had closed forms: a table function n -> (K,
bounds, trans) gives stages 0..n with every exponent scaled by p^K to an
int, one column per line: bounds[i][j] is the annihilator exponent of
line i at stage j (None for a free line) and trans[i][j], j < n, the
exponent of the transition out of stage j on line i.

record_towers catches the towers the library builds and pairs each with
its reference table; transition() builds a tower's stage map as a module
map, for the tests that compare towers with explicit modules.
"""
import sys

from almostalg import almost, algebra
from almostalg.base_ring import CHAR_P_TRUNCATED
from almostalg.exponents import PExp
from almostalg.linalg import PolyMatrix
from almostalg.modules import ModuleMap, PresentedModule
from almostalg.polys import poly_monomial


def transition(tower, j) -> ModuleMap:
    """Stage j -> stage j+1 of tower: line i's exponent on the diagonal."""
    cs = tower.trans_exp(j)
    src, tgt = tower.component(j), tower.component(j + 1)
    L = max([src.level, tgt.level] + [c.k for c in cs])
    src, tgt = src.at_level(L), tgt.at_level(L)
    p = tower.cfg.p
    mat = PolyMatrix(tgt.rank, src.rank, p, modulus=src.modulus)
    for i, c in enumerate(cs):
        mat.set(i, i, poly_monomial(1, c.to_int_at_level(L), p))
    return ModuleMap(src, tgt, mat)


# -- reference tables ------------------------------------------------------

def _floor(cfg):
    return cfg.trunc.k if cfg.mode == CHAR_P_TRUNCATED else 0


def _scaled(cols, s):
    return [[None if a is None else a * s for a in col] for col in cols]


def _bounded(cols, s, cfg, K):
    """Bounds scaled by s to level K; a free line is bounded by the
    truncation over a truncated ring."""
    if cfg.mode != CHAR_P_TRUNCATED:
        return _scaled(cols, s)
    cap = cfg.trunc.to_int_at_level(K)
    return [[cap if a is None else a * s for a in col] for col in cols]


def ideal_m_table(cfg):
    """m: one free line, transitions (p - 1)/p^(j+1), at K = n."""
    p = cfg.p
    return lambda n: (n, [[None] * (n + 1)],
                      [[(p - 1) * p ** (n - j - 1) for j in range(n)]])


def residue_table(cfg):
    """V/m: one line 1/p^j, identity transitions, at K = n."""
    p = cfg.p
    return lambda n: (n, [[p ** (n - j) for j in range(n + 1)]], [[0] * n])


def const_table(M):
    """M at every stage along identities, at K = M.level."""
    K = M.level
    line = [e.to_int_at_level(K) for e in M.decompose_exponents()] \
        + [None] * M.free_rank()
    return lambda n: (K, [[a] * (n + 1) for a in line],
                      [[0] * n] * len(line))


def pattern_table(base):
    """One line e/p^j per base exponent e, identity transitions, at
    K = n + the largest level of base."""
    def table(n):
        K = max([0] + [e.k for e in base]) + n
        return (K, [[e.to_int_at_level(K - j) for j in range(n + 1)]
                    for e in base], [[0] * n] * len(base))
    return table


def firm_table(src, p):
    """firmify: the source's bounds, and every transition gains
    (p - 1)/p^(j+1), at K = max(the source's K, n)."""
    def table(n):
        Kt, bounds, trans = src(n)
        K = max(Kt, n)
        s = p ** (K - Kt)
        eps = [(p - 1) * p ** (K - j - 1) for j in range(n)]
        return K, _scaled(bounds, s), [[c * s + e for c, e in zip(col, eps)]
                                       for col in trans]
    return table


def kernel_table(src, cfg):
    """ker(mu): bounds min(a, 1/p^j), transitions c_j + off(j) - off(j+1)
    with off = a - min(a, 1/p^j); a line without a bound has kernel 0."""
    p = cfg.p

    def table(n):
        Ks, bounds, trans = src(n)
        K = max(Ks, n, _floor(cfg))
        s = p ** (K - Ks)
        u = [p ** (K - j) for j in range(n + 1)]
        out, shifted = [], []
        for A, C in zip(_bounded(bounds, s, cfg, K), trans):
            out.append([0 if a is None else min(a, uj) for a, uj in zip(A, u)])
            off = [0 if a is None else a - k for a, k in zip(A, out[-1])]
            shifted.append([c * s + off[j] - off[j + 1]
                            for j, c in enumerate(C)])
        return K, out, shifted
    return table


def cokernel_table(tgt, cfg):
    """coker(mu): bounds min(a, 1/p^j), 1/p^j on a free line; the
    target's transitions."""
    p = cfg.p

    def table(n):
        Kt, bounds, trans = tgt(n)
        K = max(Kt, n, _floor(cfg))
        s = p ** (K - Kt)
        u = [p ** (K - j) for j in range(n + 1)]
        return K, [[uj if a is None else min(a, uj) for a, uj in zip(A, u)]
                   for A in _bounded(bounds, s, cfg, K)], _scaled(trans, s)
    return table


def table_stages(table, p, n):
    """Stages 0..n of a table as (lines, transitions) per stage, PExp
    values, the way MonomialTower.lines and trans_exp give them."""
    K, bounds, trans = table(n)
    lines = [tuple(None if col[j] is None else PExp(p, col[j], K)
                   for col in bounds) for j in range(n + 1)]
    steps = [tuple(PExp(p, col[j], K) for col in trans) for j in range(n)]
    return lines, steps


# -- catching the towers the library builds --------------------------------

def record_towers(monkeypatch):
    """Patch every tower constructor wherever almostalg bound it, so that
    each tower built from then on, whose sources are known, is recorded
    with its reference table.  Returns the list of (constructor name,
    tower, table) it fills; the list keeps the towers alive."""
    built, tables = [], {}

    def source(x):
        if isinstance(x, PresentedModule):
            return const_table(x)
        return tables.get(id(x))

    def firmify(x):
        src = source(x)
        return src and firm_table(src, x.cfg.p)

    def kernel(f):
        src = tables.get(id(f.source))
        return src and kernel_table(src, f.source.cfg)

    def cokernel(f):
        tgt = tables.get(id(f.target))
        return tgt and cokernel_table(tgt, f.target.cfg)

    references = {
        almost.ideal_m: ideal_m_table,
        almost.residue: residue_table,
        almost.const_tower: const_table,
        almost.firmify: firmify,
        almost.kernel_tower: kernel,
        almost.cokernel_tower: cokernel,
        algebra._shriek_tower: lambda cfg, base, name: firm_table(
            pattern_table(base), cfg.p),
    }

    def catching(build, reference):
        def wrapper(*args):
            tower = build(*args)
            table = reference(*args)
            if table and id(tower) not in tables:
                tables[id(tower)] = table
                built.append((build.__name__, tower, table))
            return tower
        return wrapper

    wrappers = {build: catching(build, ref)
                for build, ref in references.items()}
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] != "almostalg":
            continue
        for key, value in list(vars(mod).items()):
            if callable(value) and value in wrappers:
                monkeypatch.setattr(mod, key, wrappers[value])
    return built
