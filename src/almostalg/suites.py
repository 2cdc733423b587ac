"""Seeded verification suites with machine-readable reports.

Each suite returns a SuiteReport; the CLI serializes it.  All randomness
flows from the single seed in the options, so reports are reproducible
byte-for-byte (timing is opt-in and excluded from the deterministic
fields by default).
"""
from __future__ import annotations

import itertools
import random
import time

from . import algebra as alg
from . import k0 as k0mod
from . import tower as towermod
from .almost import (
    colocal_ext_vanishing,
    compactness_check,
    closedify,
    const_tower,
    firmify,
    ideal_m,
    is_almost_iso,
    is_closed,
    is_exact_iso_levelwise,
    is_firm,
    mu_map,
    residue,
    same_stages,
    shriek,
)
from .base_ring import RingConfig
from .complexes import (
    ChainComplex,
    ChainMap,
    cone,
    cone_perf,
    cylinder,
    firmify_perf,
    homology,
    is_acyclic,
    is_almost_qis,
    is_qis,
    mu_perf_map,
    perf_from_complex,
    shift,
    shift_perf,
    sum_perf,
)
from .exponents import PExp
from .linalg import PolyMatrix, is_unimodular, snf, solve
from .modules import ModuleMap, PresentedModule, iso_test, ring_modulus
from .polys import (
    poly_add, poly_divides, poly_mul, poly_sub, poly_trim, poly_valuation)

SUITE_NAMES = ("quillen", "complexes", "k0", "algebra", "tilting", "tower")


class SuiteOptions:
    """Knobs shared by every suite; unspecified fields take the documented
    defaults.  working_level is recorded in the report; every verdict
    holds for all stages at once, so no check reads it."""

    def __init__(self, seed=0, corpus_size=30, working_level=8, depth=4,
                 timing=False, primes=(2, 3)):
        self.seed = seed
        self.corpus_size = corpus_size
        self.working_level = working_level
        self.depth = depth
        self.timing = timing
        self.primes = tuple(primes)

    def to_json(self):
        return {"seed": self.seed, "corpus_size": self.corpus_size,
                "working_level": self.working_level, "depth": self.depth,
                "primes": list(self.primes)}


class SuiteReport:
    def __init__(self, name, options):
        self.name = name
        self.options = options
        self.checks = []

    def add(self, name, fn):
        t0 = time.monotonic()
        try:
            result = fn()
            witness = None
            if isinstance(result, tuple):
                result, witness = result
            ok = bool(result)
        except Exception as exc:  # a crash is a failed check, not a crash
            ok = False
            witness = f"{type(exc).__name__}: {exc}"
        elapsed = time.monotonic() - t0
        self.checks.append({
            "name": name,
            "verdict": "pass" if ok else "fail",
            "working_level": self.options.working_level,
            "witness": witness,
            "elapsed": round(elapsed, 3) if self.options.timing else None,
        })
        return ok

    @property
    def ok(self):
        return all(c["verdict"] == "pass" for c in self.checks)

    def to_json(self):
        return {
            "suite": self.name,
            "config": self.options.to_json(),
            "checks": sorted(self.checks, key=lambda c: c["name"]),
            "overall": "pass" if self.ok else "fail",
        }


# -- corpora ---------------------------------------------------------------

def _configs(primes):
    out = []
    for p in primes:
        out.append(RingConfig.perfect(p))
        for c in (1, 2):
            out.append(RingConfig.truncated(p, c))
    return out


def monomial_corpus(seed, size, primes=(2, 3)):
    """Random monomial modules across the configured base rings."""
    rng = random.Random(seed)
    cfgs = _configs(primes)
    out = []
    for i in range(size):
        cfg = cfgs[i % len(cfgs)]
        p = cfg.p
        level = rng.randint(1, 3)
        cmax = cfg.trunc  # None over the perfect ring
        nfac = rng.randint(0, 3)
        exps = []
        for _ in range(nfac):
            k = rng.randint(0, level)
            num = rng.randint(1, 2 * p ** k)
            e = PExp(p, num, k)
            if cmax is None or e < cmax:
                exps.append(e)
        free = rng.randint(0, 2)
        if not exps and free == 0:
            free = 1
        out.append(PresentedModule.from_factors(cfg, level, exps, free))
    return out


def _random_matrix(rng, rows, cols, p, maxdeg, modulus=None):
    ent = [[[rng.randrange(p) for _ in range(rng.randint(0, maxdeg + 1))]
            for _ in range(cols)] for _ in range(rows)]
    return PolyMatrix(rows, cols, p, ent, modulus)


# -- quillen suite ---------------------------------------------------------

def quillen_suite(opts: SuiteOptions) -> SuiteReport:
    rep = SuiteReport("quillen", opts)
    corpus = monomial_corpus(opts.seed, max(30, opts.corpus_size), opts.primes)

    def mu_all():
        for M in corpus:
            c = is_almost_iso(mu_map(M))
            if not c.holds:
                return False, {"module": repr(M), "cert": c.to_json()}
        return True

    def mu_prime_all():
        for M in corpus:
            if not is_closed(M).holds:
                return False, repr(M)
        return True

    def i_tilde():
        return all(is_exact_iso_levelwise(mu_map(ideal_m(cfg)))
                   for cfg in _configs(opts.primes))

    # m against V/m holds, and a firm tower with torsion stages is refused:
    # V/(t^(1/p)) is torsion over every ring here (V/(t) is free over V/(t))
    def colocal():
        for cfg in _configs(opts.primes):
            N = residue(cfg)
            if not colocal_ext_vanishing(ideal_m(cfg), N).holds:
                return False, repr(N)
            torsion = firmify(PresentedModule.cyclic(cfg, PExp(cfg.p, 1, 1)))
            try:
                colocal_ext_vanishing(torsion, N)
                return False, repr(torsion)
            except ValueError:
                pass
        return True

    def firm_idem():
        for M in corpus[:10]:
            T = firmify(M)
            TT = firmify(T)
            if not (is_firm(T).holds and is_firm(TT).holds
                    and same_stages(T, TT)):
                return False, repr(M)
        return True

    # monomial modules are closed, so each closed form is compared with M
    # itself: a closedify that lost M would pass against its own output
    def closed_idem():
        return all(iso_test(closedify(closedify(M)), M) for M in corpus)

    def shriek_roundtrip():
        for M in corpus[:10]:
            S = shriek(M)
            if not is_firm(S).holds:
                return False, repr(M)
            if not iso_test(closedify(S), M):
                return False, repr(M)
        return True

    def compact():
        chains = [[2, 1, PExp(2, 1, 1)], [1], [PExp(2, 3, 1), PExp(2, 3, 1)]]
        return all(compactness_check(ch) for ch in chains)

    rep.add("mu-almost-iso", mu_all)
    rep.add("mu-prime-almost-iso", mu_prime_all)
    rep.add("i-tilde-levelwise-iso", i_tilde)
    rep.add("colocal-ext-vanishing", colocal)
    rep.add("firmify-idempotent", firm_idem)
    rep.add("closedify-idempotent", closed_idem)
    rep.add("shriek-roundtrip", shriek_roundtrip)
    rep.add("compactness", compact)
    rep.add("snf-random-oracle", lambda: snf_random_oracle(opts.seed, 500))
    rep.add("cokernel-enumeration-oracle",
            lambda: cokernel_enumeration_oracle(opts.seed, 100))
    return rep


def snf_random_oracle(seed, per_class=500) -> bool:
    """A = U D W with unimodular transforms and a divisibility chain, for
    random instances in each size class, over the PID and the chain rings."""
    rng = random.Random(seed + 1)
    classes = [(2, 2), (3, 2), (3, 3)]
    for rows, cols in classes:
        for _ in range(per_class):
            p = rng.choice((2, 3))
            modulus = rng.choice((None, None, 4, 8))
            A = _random_matrix(rng, rows, cols, p, 3, modulus)
            res = snf(A)
            if res.U.mul(res.D).mul(res.W) != A:
                return False
            if modulus is None:
                if not (is_unimodular(res.U) and is_unimodular(res.W)):
                    return False
            else:
                if res.U.mul(res.u_inv) != PolyMatrix.identity(
                        rows, p, modulus):
                    return False
                if res.W.mul(res.w_inv) != PolyMatrix.identity(
                        cols, p, modulus):
                    return False
            diag = res.invariant_factors
            for a, b in zip(diag, diag[1:]):
                if a and b:
                    if modulus is None:
                        if not poly_divides(a, b, p):
                            return False
                    elif not _val(a) <= _val(b):
                        return False
    return True


def _val(f):
    return poly_valuation(f) if f else None


def _chain_ring_elems(p, k):
    """All elements of F_p[s]/(s^k) as coefficient lists."""
    out = []
    for tup in itertools.product(range(p), repeat=k):
        e = list(tup)
        while e and e[-1] == 0:
            e.pop()
        out.append(e)
    return out


def _enumerated_image(A, p, k):
    """The image of the 3x3 matrix A acting on R^3, R = F_p[s]/(s^k), by
    enumeration.

    Ring elements are numbered as in _chain_ring_elems, and the vector
    (n0, n1, n2) of R^3 as (n0*N + n1)*N + n2, N = |R|.  The image is built
    as an iterated sum-set: it starts as {0}, and for each column j every
    member y is replaced by the vectors y + c * A[:, j], one for each distinct
    multiple of the column, added entrywise through the addition table of R.
    Returns the elements, their numbering (coefficient tuple -> number) and
    the image as a bytearray with one flag per vector of R^3.
    """
    elems = _chain_ring_elems(p, k)
    index = {tuple(e): n for n, e in enumerate(elems)}
    add = [[index[tuple(_redk(poly_add(x, y, p), k))] for y in elems]
           for x in elems]
    N = len(elems)
    image = bytearray(N ** 3)
    image[0] = 1
    for col in A.columns():
        multiples = {tuple(index[tuple(_redk(poly_mul(c, e, p), k))]
                           for e in col) for c in elems}
        grown = bytearray(N ** 3)
        for y0, y1, y2 in _members(image, N):
            a0, a1, a2 = add[y0], add[y1], add[y2]
            for m0, m1, m2 in multiples:
                grown[(a0[m0] * N + a1[m1]) * N + a2[m2]] = 1
        image = grown
    return elems, index, image


def _members(image, N):
    """The flagged vectors of R^3, |R| = N, as number triples in order."""
    return itertools.compress(itertools.product(range(N), repeat=3), image)


def _annihilator_count(image, elems, index, p, k, v):
    """|{x in R^3 : s^v x in image}| for _enumerated_image's flag array, as
    the sum over the image's members y of mult[y0]*mult[y1]*mult[y2], where
    mult[n] = |{x in R : s^v x = n}|."""
    sv = [0] * v + [1]
    mult = [0] * len(elems)
    for x in elems:
        mult[index[tuple(_redk(poly_mul(sv, x, p), k))]] += 1
    return sum(mult[y0] * mult[y1] * mult[y2]
               for y0, y1, y2 in _members(image, len(elems)))


def cokernel_enumeration_oracle(seed, samples=100) -> bool:
    """Brute-force cardinality oracle over F_p[s]/(s^k), k <= 3: the
    cokernel size and its annihilator profile computed by enumeration must
    match the SNF invariant factors."""
    rng = random.Random(seed + 2)
    for i in range(samples):
        # most samples are over F_2; the draws below fix each seed's
        # sequence of samples, so their order and shares stay as they are
        p = 3 if rng.random() < 0.15 else 2
        k = rng.randint(1, 3)
        A = _random_matrix(rng, 3, 3, p, k - 1, k)
        elems, index, image = _enumerated_image(A, p, k)
        size = image.count(1)
        coker_size = len(image) // size
        res = snf(A)
        pred = 1
        vals = []
        for d in range(3):
            f = res.D.entry(d, d) if d < min(res.D.rows, res.D.cols) else []
            v = _val(f)
            v = k if v is None else min(v, k)
            vals.append(v)
            pred *= p ** v
        if pred != coker_size:
            return False, {"sample": i, "pred": pred, "got": coker_size}
        # annihilator profile: |{x : s^v x in image}| = |ann_v(coker)|*|image|
        for v in range(1, k + 1):
            count = _annihilator_count(image, elems, index, p, k, v)
            want = size
            for w in vals:
                want *= p ** min(v, w)
            if count != want:
                return False, {"sample": i, "v": v}
    return True


def _redk(f, k):
    f = f[:k]
    while f and f[-1] == 0:
        f = f[:-1]
    return f


# -- complexes suite -------------------------------------------------------

def complexes_suite(opts: SuiteOptions) -> SuiteReport:
    rep = SuiteReport("complexes", opts)
    rng = random.Random(opts.seed + 10)

    def cone_id_acyclic():
        for p in opts.primes:
            cfg = RingConfig.perfect(p)
            M = PresentedModule.free(cfg, 1, 2)
            E = ChainComplex.from_module(M)
            C, _, _ = cone(ChainMap.identity(E))
            if not is_acyclic(C):
                return False
        return True

    def cone_scalar():
        cfg = RingConfig.perfect(2)
        V = PresentedModule.free(cfg, 0, 1)
        E = ChainComplex.from_module(V)
        f = ChainMap(E, E, {0: ModuleMap.scalar(V, 1)})
        C, _, _ = cone(f)
        return (iso_test(homology(C, 0), PresentedModule.cyclic(cfg, 1))
                and homology(C, 1).is_zero_module())

    def cylinder_factorization():
        for trial in range(8):
            p = rng.choice(opts.primes)
            cfg = RingConfig.perfect(p) if trial % 2 else \
                RingConfig.truncated(p, 2)
            A = PresentedModule.free(cfg, 1, 2)
            B = PresentedModule.free(cfg, 1, 2)
            mat = _random_matrix(rng, 2, 2, p, 2, ring_modulus(cfg, 1))
            g = ModuleMap(A, B, mat, check=False)
            cm = ChainMap(ChainComplex.from_module(A),
                          ChainComplex.from_module(B), {0: g})
            _, iota, pi = cylinder(cm)
            comp = pi.comp(0).compose(iota.comp(0))
            if not comp.equals(g.at_level(comp.level)):
                return False, trial
            if not is_qis(pi):
                return False, trial
        return True

    def qis_implies_almost():
        cfg = RingConfig.perfect(2)
        M = PresentedModule.free(cfg, 1, 2)
        E = ChainComplex.from_module(M)
        return is_almost_qis(ChainMap.identity(E)).holds

    def mu_is_almost_qis():
        for p in opts.primes:
            cfg = RingConfig.perfect(p)
            V = PresentedModule.free(cfg, 0, 1)
            if not is_almost_qis(mu_map(const_tower(V))).holds:
                return False
        return True

    def scalar_not_almost_qis():
        cfg = RingConfig.perfect(2)
        V = PresentedModule.free(cfg, 0, 1)
        E = ChainComplex.from_module(V)
        f = ChainMap(E, E, {0: ModuleMap.scalar(V, 1)})
        return not is_almost_qis(f).holds

    def shift_signs():
        cfg = RingConfig.perfect(3)
        V = PresentedModule.free(cfg, 0, 1)
        E = ChainComplex.from_module(V)
        f = ChainMap(E, E, {0: ModuleMap.scalar(V, 2)})
        C, _, _ = cone(f)
        S = shift(C, 2)
        return iso_test(homology(S, 2), homology(C, 0))

    def firmify_commutes():
        cfg = RingConfig.perfect(2)
        M = PresentedModule.free(cfg, 1, 2)
        P = perf_from_complex(ChainComplex.from_module(M))
        lhs = firmify_perf(shift_perf(P, 1))
        rhs = shift_perf(firmify_perf(P), 1)
        if lhs.mults != rhs.mults:
            return False
        mu = mu_perf_map(P)
        lhs2 = firmify_perf(cone_perf(mu))
        rhs2 = cone_perf(mu_perf_map(firmify_perf(P)))
        # same multiplicity profile in the firm column
        got = {d: a + b for d, (a, b) in rhs2.mults.items()}
        want = {d: a + b for d, (a, b) in lhs2.mults.items()}
        return got == want

    rep.add("cone-of-identity-acyclic", cone_id_acyclic)
    rep.add("cone-of-scalar-homology", cone_scalar)
    rep.add("cylinder-factorization", cylinder_factorization)
    rep.add("qis-implies-almost-qis", qis_implies_almost)
    rep.add("mu-inclusion-almost-qis", mu_is_almost_qis)
    rep.add("scalar-not-almost-qis", scalar_not_almost_qis)
    rep.add("shift-sign-conventions", shift_signs)
    rep.add("firmify-commutes-with-cone-shift", firmify_commutes)
    return rep


# -- k0 suite --------------------------------------------------------------

def perf_corpus(seed, size, primes=(2, 3)):
    rng = random.Random(seed + 20)
    out = []
    for i in range(size):
        p = primes[i % len(primes)]
        cfg = RingConfig.perfect(p)
        r0, r1 = rng.randint(1, 2), rng.randint(1, 2)
        M0 = PresentedModule.free(cfg, 1, r0)
        M1 = PresentedModule.free(cfg, 1, r1)
        mat = _random_matrix(rng, r0, r1, p, 2)
        f = ModuleMap(M1, M0, mat, check=False)
        E = ChainComplex(cfg, {0: M0, 1: M1}, {1: f})
        P = perf_from_complex(E)
        op = rng.choice(("plain", "firm", "shift", "sum", "cone_mu"))
        if op == "firm":
            P = firmify_perf(P)
        elif op == "shift":
            P = shift_perf(P, rng.choice((-1, 1, 2)))
        elif op == "sum":
            P = sum_perf(P, firmify_perf(P))
        elif op == "cone_mu":
            P = cone_perf(mu_perf_map(P))
        out.append(P)
    return out


def k0_suite(opts: SuiteOptions) -> SuiteReport:
    rep = SuiteReport("k0", opts)
    size = max(50, opts.corpus_size)
    corpus = perf_corpus(opts.seed, size, opts.primes)

    def split_all():
        for i, P in enumerate(corpus):
            if not k0mod.split_check(P):
                return False, i
        return True

    def ledger_checks():
        led = k0mod.RelationLedger()
        for P in corpus[:20]:
            led.harvest(mu_perf_map(P))
        return (led.verify() and led.projectors_descend()
                and led.rotations_hold())

    def class_moves():
        return all(k0mod.class_preserves_moves(P) for P in corpus[:12])

    def surjectivity():
        aperf = [firmify_perf(P) for P in corpus[:15]]
        return k0mod.almost_k_surjectivity(aperf)

    def k_ideal():
        return all(k0mod.k_ideal_check(RingConfig.perfect(p))
                   and k0mod.k_ideal_check(RingConfig.truncated(p, 2))
                   for p in opts.primes)

    def gersten():
        return all(k0mod.gersten_check(RingConfig.perfect(p))
                   for p in opts.primes)

    rep.add("split-projectors", split_all)
    rep.add("triangle-ledger", ledger_checks)
    rep.add("class-elementary-moves", class_moves)
    rep.add("aperf-class-surjectivity", surjectivity)
    rep.add("k-ideal", k_ideal)
    rep.add("gersten-retraction", gersten)
    return rep


# -- algebra suite ---------------------------------------------------------

def _random_element(rng, rank, p, maxdeg):
    return [poly_trim([rng.randrange(p)
                       for _ in range(rng.randint(0, maxdeg + 1))])
            for _ in range(rank)]


def _alg_product(U, u, v):
    """Product of two coordinate vectors in a structure-constant algebra."""
    C = U.carrier
    m = U.mult
    n = C.at_level(m.level).rank
    mod = ring_modulus(C.cfg, m.level)
    kvec = alg._kron_vec(u, v, n, C.cfg.p, mod)
    return m.matrix.apply_to_vector(kvec)


def _vec_eq(U, a, b):
    C = U.mult.target
    diff = [poly_sub(x, y, C.cfg.p) for x, y in zip(a, b)]
    if not any(diff):
        return True
    return solve(C.relations, C.snf(), diff) is not None


def unitalization_axiom_search(seed, triples=1000, primes=(2, 3)) -> bool:
    """Random (x, y, z) triples in unitalized algebras: commutativity,
    associativity and the unit law hold element-wise."""
    rng = random.Random(seed + 30)
    algebras = []
    for p in primes:
        cfg = RingConfig.perfect(p)
        for carrier in (PresentedModule.cyclic(cfg, 1),
                        PresentedModule.free(cfg, 1, 1),
                        PresentedModule.from_factors(
                            cfg, 1, [PExp(p, 1, 1)], 1)):
            algebras.append(alg.unitalize(
                alg.NonUnitalAlgebra.zero_square(carrier)))
        algebras.append(alg.unitalize(
            alg.IntervalAlgebra(cfg, PExp(p, 1, 1), 2).nonunital()))
    per = triples // len(algebras) + 1
    for U in algebras:
        C = U.carrier.at_level(U.mult.level)
        n = C.rank
        p = C.cfg.p
        for _ in range(per):
            x = _random_element(rng, n, p, 3)
            y = _random_element(rng, n, p, 3)
            z = _random_element(rng, n, p, 3)
            xy = _alg_product(U, x, y)
            yx = _alg_product(U, y, x)
            if not _vec_eq(U, xy, yx):
                return False
            if not _vec_eq(U, _alg_product(U, xy, z),
                           _alg_product(U, x, _alg_product(U, y, z))):
                return False
            one = [[] for _ in range(n)]
            one[0] = [1]
            if not _vec_eq(U, _alg_product(U, one, x), x):
                return False
    return True


def nakayama_search(seed, instances=500) -> bool:
    rng = random.Random(seed + 40)
    for _ in range(instances):
        p = rng.choice((2, 3))
        c = rng.choice((1, 2))
        cfg = RingConfig.truncated(p, c)
        cmax = cfg.trunc
        pool = [PExp(p, 1, 1), PExp(p, 1, 2), PExp(p, 1),
                PExp(p, p - 1, 1), PExp(p, p + 1, 1)]
        gens = [e for e in rng.sample(pool, rng.randint(1, 3)) if e < cmax]
        if not gens:
            gens = [cmax.scale_pow(-1)]
        nfac = rng.randint(0, 2)
        exps = []
        for _ in range(nfac):
            e = rng.choice(pool)
            if e < cmax:
                exps.append(e)
        M = PresentedModule.from_factors(cfg, 2, exps, rng.randint(0, 2))
        if not alg.almost_nakayama(M, gens):
            return False
    return True


def lift_search(seed, instances=100) -> bool:
    """Maps congruent to the identity mod I lift to isomorphisms."""
    rng = random.Random(seed + 50)
    for _ in range(instances):
        p = rng.choice((2, 3))
        c = rng.choice((1, 2))
        cfg = RingConfig.truncated(p, c)
        gen = PExp(p, 1, 1)
        L = 2
        cut = gen.to_int_at_level(L)
        mod = ring_modulus(cfg, L)
        r = rng.randint(1, 3)
        F = PresentedModule.free(cfg, L, r)
        mat = PolyMatrix(r, r, p, modulus=mod)
        for i in range(r):
            for j in range(r):
                tail = [0] * cut + [rng.randrange(p)
                                    for _ in range(rng.randint(0, 2))]
                if i == j:
                    tail[0] = 1  # identity plus an entry of valuation >= cut
                mat.set(i, j, tail)
        f = ModuleMap(F, F, mat, check=False)
        if not alg.almost_lift_check(f, [gen]):
            return False
    return True


def algebra_suite(opts: SuiteOptions) -> SuiteReport:
    rep = SuiteReport("algebra", opts)

    def roundtrips():
        for p in opts.primes:
            cfg = RingConfig.perfect(p)
            for carrier in (PresentedModule.cyclic(cfg, 1),
                            PresentedModule.free(cfg, 0, 1)):
                B = alg.NonUnitalAlgebra.zero_square(carrier)
                if not alg.unitalize_roundtrip_check(B):
                    return False
        return True

    def shriek_corpus():
        for p in opts.primes:
            cfg = RingConfig.perfect(p)
            for B in (PresentedModule.free(cfg, 0, 1),
                      PresentedModule.cyclic(cfg, 2),
                      PresentedModule.cyclic(cfg, PExp(p, 1, 2))):
                if not alg.monoidal_equiv_check(B):
                    return False
        return True

    def ladder():
        for p in opts.primes:
            cfg = RingConfig.perfect(p)
            for e in alg.syntomic_ladder(3, 3, cfg):
                if not e["syntomic"]:
                    return False, e
                if "n_to_1" in e and not e["n_to_1"]:
                    return False, e
        return True

    def tight():
        w = alg.is_tight([PExp(2, 1, 1)], RingConfig.truncated(2, 1))
        return w["tight"] and w["n"] == 1

    def retract():
        return all(alg.firm_retract_check(RingConfig.perfect(p), 5)
                   for p in opts.primes)

    def cotangent():
        ctr = RingConfig.truncated(3, 2)
        minus_t = [0, 2]
        P = alg.AlgebraPresentation(ctr, [[minus_t, 0, 1]])
        if not alg.tor_amplitude_check(alg.naive_cotangent(P), -1, 0):
            return False
        return alg.cotangent_transitivity_check(P, [0, minus_t, 0, 1])

    rep.add("unitalize-axiom-search",
            lambda: unitalization_axiom_search(opts.seed, 1000, opts.primes))
    rep.add("unitalize-roundtrips", roundtrips)
    rep.add("shriek-sequence-corpus", shriek_corpus)
    rep.add("syntomic-ladder", ladder)
    rep.add("tight-witness", tight)
    rep.add("firm-retract", retract)
    rep.add("naive-cotangent", cotangent)
    rep.add("nakayama-search", lambda: nakayama_search(opts.seed, 500))
    rep.add("lift-search", lambda: lift_search(opts.seed, 100))
    return rep


# -- tilting suite ---------------------------------------------------------

def tilting_suite(opts: SuiteOptions) -> SuiteReport:
    rep = SuiteReport("tilting", opts)

    def tables():
        for p in opts.primes:
            for n in (1, 2, 3):
                towermod.tilt_basis_iso(p, n)
        return True

    def lemma_a():
        for p in opts.primes:
            cfg = RingConfig.perfect(p)
            for n in (1, 2, 3):
                if not towermod.verify_lemmaA(n, cfg):
                    return False, (p, n)
        return True

    def zigzag():
        return all(towermod.tilting_zigzag_mixed(p, 2)
                   for p in opts.primes)

    def a_plus():
        cfg = RingConfig.perfect(2)
        return all(towermod.a_n_plus_checks(n, 4, cfg) for n in (1, 2, 3))

    rep.add("tilt-basis-tables", tables)
    rep.add("lemma-a-pipelines", lemma_a)
    rep.add("tilting-zigzag", zigzag)
    rep.add("a-n-plus-squares", a_plus)
    return rep


# -- tower suite -----------------------------------------------------------

def tower_suite(opts: SuiteOptions) -> SuiteReport:
    rep = SuiteReport("tower", opts)

    def frobenius():
        for p in opts.primes:
            if not towermod.frobenius_iso_check(RingConfig.perfect(p)):
                return False
            if not towermod.frobenius_iso_check(RingConfig.truncated(p, 2)):
                return False
            if towermod.frobenius_iso_check(RingConfig.perfect(p),
                                            subring_level=0):
                return False
        return True

    def roundtrips():
        for p in opts.primes:
            spec_depth = min(opts.depth, 4)
            for rank in range(1, 5):
                for depth in range(1, spec_depth + 1):
                    spec = towermod.TowerSpec(RingConfig.perfect(p), depth)
                    if not towermod.tower_roundtrip(spec, rank):
                        return False, (p, rank, depth)
        return True

    def firm_roundtrips():
        for p in opts.primes:
            spec = towermod.TowerSpec(RingConfig.perfect(p),
                                      min(opts.depth, 4))
            if not towermod.tower_roundtrip(spec, 1, firm_stage=3):
                return False
        return True

    rep.add("frobenius-checks", frobenius)
    rep.add("limit-roundtrips", roundtrips)
    rep.add("firm-twist-roundtrips", firm_roundtrips)
    return rep


SUITES = {
    "quillen": quillen_suite,
    "complexes": complexes_suite,
    "k0": k0_suite,
    "algebra": algebra_suite,
    "tilting": tilting_suite,
    "tower": tower_suite,
}


def run_suite(name: str, opts: SuiteOptions):
    """Run one suite (or all); returns a list of SuiteReports."""
    if name == "all":
        return [SUITES[n](opts) for n in SUITE_NAMES]
    if name not in SUITES:
        raise KeyError(name)
    return [SUITES[name](opts)]
