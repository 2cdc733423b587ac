"""Differential for the tower bookkeeping.

The towers, the kernel and cokernel towers of mu, and the residuals that
decide colimit death, are computed from closed forms.  Here they are
recomputed two ways: from explicit modules and maps (the stage map of mu
built by hand as t^(1/p^j) on the diagonal, kernel_map/cokernel_map of
it, and compositions of the towers' transition maps), and from integer
stage tables built stage by stage (tests/tower_reference.py)."""
import sys
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

from almostalg.almost import (
    MonomialTower,
    _residuals,
    cokernel_tower,
    colim_is_zero,
    const_tower,
    diagonal_cokernel,
    firmify,
    ideal_m,
    is_almost_iso,
    is_firm,
    kernel_tower,
    mu_map,
    residue,
    shriek,
)
from almostalg.base_ring import RingConfig
from almostalg.exponents import PExp
from almostalg.linalg import PolyMatrix
from almostalg.modules import (
    ModuleMap,
    PresentedModule,
    cokernel_map,
    kernel_map,
)
from almostalg.polys import poly_monomial, poly_valuation
from almostalg.suites import SuiteOptions, monomial_corpus, run_suite
from tower_reference import (
    const_table,
    diagonal_table,
    firm_table,
    ideal_m_table,
    record_towers,
    residue_table,
    table_stages,
    transition,
)

# working level J and corpus size per prime; stages 0..2J + 6 are
# compared, presented at up to level 2J + 7 (s = t^(1/p^(2J+7))), the
# stages the colimit bookkeeping read before it had closed forms
CASES = {2: (2, 6), 3: (1, 6)}


def _last(J):
    """The last stage compared at working level J."""
    return 2 * J + 6


def _rings(p):
    return (RingConfig.perfect(p), RingConfig.truncated(p, 1),
            RingConfig.truncated(p, 2))


def _mixed_offsets(p):
    """Modules whose kernel lines under mu have offsets that grow at
    different rates: V/(t^(1/4)) + V/(t^(1/2)) and V/(t^(1/2^12)) + V/(t)
    at p = 2."""
    if p == 2:
        V = RingConfig.perfect(2)
        yield PresentedModule.from_factors(V, 2, [PExp(2, 1, 2),
                                                  PExp(2, 1, 1)])
        yield PresentedModule.from_factors(V, 12, [PExp(2, 1, 12),
                                                   PExp(2, 1)])


def _sources(p, size):
    for cfg in _rings(p):
        yield ideal_m(cfg)
        yield residue(cfg)
    yield from monomial_corpus(p, size, primes=(p,))
    yield from _mixed_offsets(p)


def _exp(e, M):
    """An s-exponent of M's level as a fraction of t-exponents."""
    return Fraction(e, M.cfg.p ** M.level)


def _row_bounds(M):
    """Per generator of M, the least t-exponent of its relations (the
    truncation counts as one), or None for a free generator over the
    domain.  Stage modules are direct sums, so each generator is killed by
    exactly that power."""
    out = []
    for row in M.relations.entries:
        vs = [poly_valuation(e) for e in row if e]
        if M.modulus is not None:
            vs.append(M.modulus)
        out.append(_exp(min(vs), M) if vs else None)
    return out


def _diagonal_exps(f):
    """Per line, the t-exponent c of a map that is t^c on the diagonal, or
    None when t^c is 0 in the ring (c at least a truncation bound)."""
    out = []
    for i in range(min(f.matrix.rows, f.matrix.cols)):
        e = f.matrix.entries[i][i]
        out.append(_exp(poly_valuation(e), f) if e else None)
    return out


def _mu_stage(f, j):
    """Stage j of mu: m tensor x -> x, multiplication by t^(1/p^j) from
    stage j of firmify(x) to stage j of x, built by hand."""
    F, T = f.source.component(j), f.target.component(j)
    L = max(F.level, T.level, j)
    F, T = F.at_level(L), T.at_level(L)
    p = F.cfg.p
    mat = PolyMatrix(T.rank, F.rank, p, modulus=F.modulus)
    for i in range(F.rank):
        mat.set(i, i, poly_monomial(1, p ** (L - j), p))
    return ModuleMap(F, T, mat)  # checked to be well defined


def _offsets(incl):
    """Per line of the source, the least t-exponent by which the kernel
    sits inside it: the least valuation among the inclusion's entries that
    are nonzero on that line; 0 without any."""
    offs = []
    for row, b in zip(incl.matrix.entries, _row_bounds(incl.target)):
        vs = [_exp(poly_valuation(e), incl) for e in row if e]
        offs.append(min([v for v in vs if b is None or v < b], default=0))
    return offs


def _shape(tower, j):
    """Stage j as (free rank, sorted nonzero annihilator exponents); over a
    truncated ring a line killed exactly by the truncation is free."""
    free, torsion = 0, []
    for a in tower.lines(j):
        if a is None or a == tower.cfg.trunc:
            free += 1
        elif not a.is_zero():
            torsion.append(a.as_fraction())
    return free, sorted(torsion)


def _module_shape(M):
    return M.free_rank(), [e.as_fraction() for e in M.decompose_exponents()]


def _alike(f, g):
    """f and g have kernels and cokernels that decompose alike."""
    L = max(f.level, g.level)
    f, g = f.at_level(L), g.at_level(L)
    return (kernel_map(f)[0].decompose() == kernel_map(g)[0].decompose()
            and cokernel_map(f)[0].decompose()
            == cokernel_map(g)[0].decompose())


@pytest.mark.parametrize("p", sorted(CASES))
def test_kernel_and_cokernel_towers_match_explicit_stage_maps(p):
    J, size = CASES[p]
    stages = _last(J) + 1
    for x in _sources(p, size):
        mu = mu_map(x)
        t = mu.target  # x as a tower
        ker, cok = kernel_tower(mu), cokernel_tower(mu)
        mus = [_mu_stage(mu, j) for j in range(stages)]
        kers = [kernel_map(f) for f in mus]
        for j, f in enumerate(mus):
            K, incl = kers[j]
            C, _ = cokernel_map(f)
            assert _shape(ker, j) == _module_shape(K), (x, j)
            assert _shape(cok, j) == _module_shape(C), (x, j)
            if j + 1 == stages:
                continue
            # each kernel line's transition is the source's on that line,
            # moved by the line's offsets at stage j and at stage j + 1
            for c, o, o1, want in zip(ker.trans_exp(j), _offsets(incl),
                                      _offsets(kers[j + 1][1]),
                                      _diagonal_exps(transition(mu.source,
                                                                j))):
                c = c.as_fraction() - o + o1
                if want is None:
                    assert c >= t.cfg.trunc.as_fraction(), (x, j)
                else:
                    assert c == want, (x, j)
            # the target's transition induces the cokernel's transition
            sigma = transition(t, j)
            C1, _ = cokernel_map(mus[j + 1])
            L = max(sigma.level, C.level, C1.level)
            induced = ModuleMap(C.at_level(L), C1.at_level(L),
                                sigma.at_level(L).matrix)
            assert cok.trans_exp(j) == t.trans_exp(j), (x, j)
            assert _alike(induced, transition(cok, j)), (x, j)


def test_kernel_towers_of_mixed_offsets_are_exact():
    """ker(mu) of a sum of cyclics whose kernel offsets grow at different
    rates contains V/m from the larger summand, so its colimit is not 0:
    V/(t^(1/4)) + V/(t^(1/2)) and V/(t^(1/2^12)) + V/(t).  mu is still an
    almost isomorphism, proved for every stage."""
    M, N = _mixed_offsets(2)
    assert not colim_is_zero(kernel_tower(mu_map(M)))
    cert = is_almost_iso(mu_map(M))
    assert cert.holds and cert.witness["kernel"] == "certified-structural"
    assert not colim_is_zero(kernel_tower(mu_map(N)))


def test_kernel_of_a_direct_sum_dies_when_both_kernels_do():
    """ker(mu) of M + N is ker(mu on M) + ker(mu on N) line by line, so
    it dies exactly iff both do: every sum of two cyclics V/(t^a) with
    0 < a < 2 of denominator at most p^4, p = 2 and 3."""
    for p in (2, 3):
        cfg = RingConfig.perfect(p)
        exps = [PExp(p, a, 4) for a in range(1, 2 * p ** 4)]
        dies = {e: colim_is_zero(kernel_tower(mu_map(
            PresentedModule.cyclic(cfg, e, e.k)))) for e in exps}
        for a, b in combinations_with_replacement(exps, 2):
            M = PresentedModule.from_factors(cfg, max(a.k, b.k), [a, b])
            assert colim_is_zero(kernel_tower(mu_map(M))) == \
                (dies[a] and dies[b]), (a, b)


def _brute_residuals(tower, J, horizon):
    """For line i and stage j <= J: the least of (annihilator of line i at
    stage k) - (exponent of the composite transition j -> k) over
    k = j, ..., j + horizon, from the composed transition maps; 0 when the
    composite kills the line, None for a line without annihilator."""
    out = []
    for j in range(J + 1):
        comp = ModuleMap.identity(tower.component(j))
        best = [None] * comp.source.rank
        for k in range(j, j + horizon + 1):
            if k > j:
                comp = transition(tower, k - 1).compose(comp)
            bounds = _row_bounds(comp.target)
            for i in range(min(len(best), len(bounds))):
                if bounds[i] is None:
                    continue
                e = comp.matrix.entries[i][i]
                r = bounds[i] - _exp(poly_valuation(e), comp) if e else 0
                if best[i] is None or r < best[i]:
                    best[i] = r
        out.append([None if b is None else max(b, 0) for b in best])
    return [list(col) for col in zip(*out)]


@pytest.mark.parametrize("p", sorted(CASES))
def test_residuals_match_composed_transitions(p):
    """The exact residual of every stage j <= J equals the least one that
    composed stage maps reach within 2J + 6 stages of j wherever the exact
    one is reached, and lies below it where it is only a limit."""
    J, size = CASES[p]
    for x in _sources(p, size):
        f = mu_map(x)
        towers = [kernel_tower(f), cokernel_tower(f)]
        if isinstance(x, MonomialTower):  # ideal_m and residue themselves
            towers.append(x)
        for tower in towers:
            exact = [[None if r is None else r.at(j) for j in range(J + 1)]
                     for r in _residuals(tower)]
            brute = _brute_residuals(tower, J, _last(J))
            for line, want in zip(exact, brute):
                for got, b in zip(line, want):
                    if got is None:
                        assert b is None, (tower, x)
                        continue
                    r, reached = got[0].as_fraction(), got[1]
                    assert b == r if reached else b > r, (tower, x, got, b)


def _shriek_towers(p):
    """(B, B_!!) for V and V/(t^(1/p)) over the perfect ring and V/(t^2),
    and for a sum of cyclics with fractional exponents: B_!! is the
    diagonal cokernel of firmify(B), as theta and shriek_split_check
    build it."""
    for cfg in (RingConfig.perfect(p), RingConfig.truncated(p, 2)):
        for B in (PresentedModule.free(cfg, 0, 1),
                  PresentedModule.cyclic(cfg, PExp(p, 1, 1))):
            yield B, diagonal_cokernel(firmify(const_tower(B)))
    B = PresentedModule.from_factors(
        RingConfig.perfect(p), 2,
        [PExp(p, 1, 2), PExp(p, 2 * p + 1, 1), PExp(p, 3)])
    yield B, diagonal_cokernel(firmify(const_tower(B)))


@pytest.mark.parametrize("p", sorted(CASES))
def test_base_tables_match_their_definitions(p):
    J, size = CASES[p]
    last = _last(J)
    zero = PExp(p, 0)
    # (tower, lines of stage j, transition out of stage j on every line)
    want = []
    for cfg in _rings(p):
        want.append((ideal_m(cfg), lambda j: (None,),
                     lambda j: (PExp(p, p - 1, j + 1),)))
        want.append((residue(cfg), lambda j: (PExp(p, 1, j),),
                     lambda j: (zero,)))
    for M in monomial_corpus(p, size, primes=(p,)):
        line = tuple(M.decompose_exponents()) + (None,) * M.free_rank()
        want.append((const_tower(M), lambda j, line=line: line,
                     lambda j, line=line: (zero,) * len(line)))
    # B_!!: V's line bounded by B's line 0 plus 1/p^j (the truncation
    # caps both), no transitions; B's other lines along m's
    for B, t in _shriek_towers(p):
        cap = B.cfg.trunc
        line = tuple(B.decompose_exponents()) + (cap,) * B.free_rank()

        def first(j, a=line[0], cap=cap):
            if a is None:
                return None
            a = a + PExp(p, 1, j)
            return a if cap is None or a < cap else cap

        want.append((t, lambda j, line=line, first=first:
                     (first(j),) + line[1:],
                     lambda j, rest=len(line) - 1:
                     (zero,) + (PExp(p, p - 1, j + 1),) * rest))
    for tower, lines, trans in want:
        for j in range(last + 1):
            assert tower.lines(j) == lines(j), (tower, j)
            if j < last:
                assert tower.trans_exp(j) == trans(j), (tower, j)


@pytest.mark.parametrize("p", sorted(CASES))
def test_a_longer_table_extends_a_shorter_one(p):
    """A reference table built to stage 10 extends the one built to stage
    3, and both agree with the closed form on every stage they hold,
    whatever the order the stages are read in."""
    J, size = CASES[p]
    towers = []
    for cfg in _rings(p):
        towers.append((ideal_m(cfg), ideal_m_table(cfg)))
        towers.append((residue(cfg), residue_table(cfg)))
    for M in monomial_corpus(p, size, primes=(p,)):
        towers.append((const_tower(M), const_table(M)))
    for B, t in _shriek_towers(p):
        towers.append((t, diagonal_table(firm_table(const_table(B), p), None,
                                         B.cfg)))
    for tower, table in towers:
        short = table_stages(table, p, 3)
        lines, steps = table_stages(table, p, 10)
        assert short == (lines[:4], steps[:3]), tower
        for n in (10, 3):
            lines, steps = table_stages(table, p, n)
            for j in reversed(range(n + 1)):
                assert tower.lines(j) == lines[j], (tower, n, j)
                if j < n:
                    assert tower.trans_exp(j) == steps[j], (tower, n, j)


def _deep_level(seeds):
    """The checks of perfbench's deep-level workload (p = 3, J = 10) on
    the modules it draws for each seed."""
    bench = str(Path(__file__).resolve().parent.parent / "perfbench")
    sys.path.insert(0, bench)
    try:
        import gen
        import workloads
    finally:
        sys.path.remove(bench)
    for seed in seeds:
        for spec in gen.deep_modules(seed):
            assert all(ok for _, ok in workloads._deep_checks(spec)), spec
    return gen.DEEP_J


def _run(name):
    """Build towers through the library's own paths; returns the working
    level J of the run.  The acceptance gate covers p = 2, 3 over the
    perfect ring and two truncations, deep-level's checks p = 3, perfect
    and truncated at 2, and the quillen and algebra suites p = 5."""
    if name == "gate":
        run_suite("all", SuiteOptions(seed=0, corpus_size=50,
                                      working_level=8, depth=4))
        return 8
    if name == "deep-level":
        return _deep_level((1, 2, 3))
    for suite in ("quillen", "algebra"):
        run_suite(suite, SuiteOptions(seed=0, corpus_size=10,
                                      working_level=3, primes=(5,)))
    return 3


@pytest.mark.parametrize("run", ["deep-level", "gate", "p5"])
def test_closed_forms_match_the_reference_tables(run, monkeypatch):
    """Every tower a run builds, evaluated at stages 0..2J + 6, equals the
    reference table of the same construction: base, shriek, firmify,
    kernel and cokernel towers."""
    built = record_towers(monkeypatch)
    J = _run(run)
    for _, tower, table in built:
        p = tower.cfg.p
        lines, steps = table_stages(table, p, _last(J))
        for j, want in enumerate(lines):
            assert tower.lines(j) == want, (run, tower, j)
        for j, want in enumerate(steps):
            assert tower.trans_exp(j) == want, (run, tower, j)
    kinds = {kind for kind, _, _ in built}
    assert kinds >= {"const_tower", "firmify", "kernel_tower",
                     "cokernel_tower"}, kinds
    if run != "deep-level":
        assert kinds >= {"ideal_m", "residue", "diagonal_cokernel"}, kinds


def test_each_closed_form_is_built_once_per_tower(monkeypatch):
    """A query builds each tower it needs once, and with it the tower's
    closed form: no two towers built in is_firm(firmify(M)) or in
    is_almost_iso(mu_map(M)) have the same name and pieces.  A query
    already answered builds none: holding T = firmify(M),
    is_firm(shriek(M)) after is_firm(T), as the deep-level benchmark
    asks."""
    built = []
    init = MonomialTower.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append((self.name, self.K, self.forms))

    monkeypatch.setattr(MonomialTower, "__init__", recording_init)
    for p in sorted(CASES):
        _, size = CASES[p]
        for M in monomial_corpus(p, size, primes=(p,)):
            for query in (lambda: is_firm(firmify(M)),
                          lambda: is_almost_iso(mu_map(M))):
                built.clear()
                query()
                assert built and len(set(built)) == len(built), (M, built)
            T = firmify(M)
            is_firm(T)
            built.clear()
            assert is_firm(shriek(M)) is is_firm(T)
            assert not built, (M, built)
