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

from almostalg import almost
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


def _exponents(f, K, n):
    """f's exponent u_j per line at stages 0..n, ints at level K >= n; f.u
    is a form (a, g), a + g/p^j at stage j."""
    p = f.source.cfg.p
    return [[(a * p ** j + g) * p ** (K - j) for j in range(n + 1)]
            for a, g in f.u]


def kernel_table(src, tgt, f):
    """ker(t^u: R/t^a -> R/t^b) per line: bound a - off with offset
    off = max(0, b - u), transitions c_j + off(j) - off(j+1); a line free
    over the domain has kernel 0 into a free line, and is free with offset
    off into a bounded one."""
    cfg = f.source.cfg
    p = cfg.p

    def table(n):
        Ks, bounds, trans = src(n)
        Kt, tbounds, _ = tgt(n)
        K = max(Ks, Kt, n, _floor(cfg))
        s = p ** (K - Ks)
        out, shifted = [], []
        for A, B, C, U in zip(_bounded(bounds, s, cfg, K),
                              _bounded(tbounds, p ** (K - Kt), cfg, K),
                              trans, _exponents(f, K, n)):
            off = [0 if b is None else max(0, b - u) for b, u in zip(B, U)]
            out.append([0 if b is None else None if a is None else a - o
                        for a, b, o in zip(A, B, off)])
            shifted.append([c * s + off[j] - off[j + 1]
                            for j, c in enumerate(C)])
        return K, out, shifted
    return table


def cokernel_table(tgt, f):
    """coker(t^u: R/t^a -> R/t^b) per line: bound min(b, u), u on a free
    line; the target's transitions."""
    cfg = f.target.cfg
    p = cfg.p

    def table(n):
        Kt, bounds, trans = tgt(n)
        K = max(Kt, n, _floor(cfg))
        s = p ** (K - Kt)
        return K, [[u if b is None else min(b, u) for b, u in zip(B, U)]
                   for B, U in zip(_bounded(bounds, s, cfg, K),
                                   _exponents(f, K, n))], _scaled(trans, s)
    return table


def diagonal_table(src, leg, cfg):
    """coker(m-tilde -> V/(t^leg) + X): line 0 has bound min(leg, X's
    line-0 bound + 1/p^j), V itself for leg None (free over the domain,
    the truncation over a truncated ring), and no transitions; X's other
    lines as they are."""
    p = cfg.p

    def table(n):
        Kx, bounds, trans = src(n)
        leg_k = 0 if leg is None else PExp.from_fraction(p, leg).k
        K = max(Kx, n, leg_k, _floor(cfg))
        s = p ** (K - Kx)
        lines = _bounded(bounds, s, cfg, K)
        if leg is not None:
            cap = PExp.from_fraction(p, leg).to_int_at_level(K)
        else:
            cap = cfg.trunc.to_int_at_level(K) \
                if cfg.mode == CHAR_P_TRUNCATED else None
        first = [None if a is None else a + p ** (K - j)
                 for j, a in enumerate(lines[0])]
        if cap is not None:
            first = [cap if a is None else min(a, cap) for a in first]
        return K, [first] + lines[1:], [[0] * n] + _scaled(trans[1:], s)
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
        src, tgt = tables.get(id(f.source)), tables.get(id(f.target))
        return src and tgt and kernel_table(src, tgt, f)

    def cokernel(f):
        tgt = tables.get(id(f.target))
        return tgt and cokernel_table(tgt, f)

    def diagonal(X, leg=None):
        src = tables.get(id(X))
        return src and diagonal_table(src, leg, X.cfg)

    references = {
        almost.ideal_m: ideal_m_table,
        almost.residue: residue_table,
        almost.const_tower: const_table,
        almost.firmify: firmify,
        almost.kernel_tower: kernel,
        almost.cokernel_tower: cokernel,
        almost.diagonal_cokernel: diagonal,
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
