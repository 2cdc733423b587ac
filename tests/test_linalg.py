import ast
import pathlib
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from almostalg.linalg import (
    PolyMatrix,
    SNFResult,
    _check_snf,
    det,
    is_unimodular,
    kernel_basis,
    lift_matrix,
    lift_poly,
    snf,
    solve,
)
from almostalg import linalg
from almostalg.modules import kron
from almostalg.polys import (poly_add, poly_deg, poly_divides, poly_mul,
                             poly_valuation)


def rand_matrix(rng, rows, cols, p, maxdeg, modulus=None):
    ent = [[[rng.randrange(p) for _ in range(rng.randint(0, maxdeg + 1))]
            for _ in range(cols)] for _ in range(rows)]
    return PolyMatrix(rows, cols, p, ent, modulus)


def test_snf_small_example():
    # diag(1, s^3) from a generic 2x2 over F_2[s]
    A = PolyMatrix(2, 2, 2, [[[0, 1], [1]], [[], [0, 0, 1]]])
    res = snf(A)
    assert res.U.mul(res.D).mul(res.W) == A
    assert res.invariant_factors == [[1], [0, 0, 0, 1]]


coeff = st.integers(0, 2)
poly = st.lists(coeff, max_size=4)


@settings(max_examples=60, deadline=None)
@given(st.lists(poly, min_size=4, max_size=4))
def test_snf_roundtrip_property(entries):
    A = PolyMatrix(2, 2, 3,
                   [[[c % 3 for c in entries[0]], [c % 3 for c in entries[1]]],
                    [[c % 3 for c in entries[2]], [c % 3 for c in entries[3]]]])
    res = snf(A)
    assert res.U.mul(res.D).mul(res.W) == A
    assert is_unimodular(res.U) and is_unimodular(res.W)
    diag = res.invariant_factors
    for a, b in zip(diag, diag[1:]):
        if a and b:
            assert poly_divides(a, b, 3)


def test_snf_chain_ring():
    rng = random.Random(5)
    for _ in range(50):
        p = rng.choice((2, 3))
        m = rng.choice((2, 4))
        A = rand_matrix(rng, 3, 3, p, m - 1, m)
        res = snf(A)
        assert res.U.mul(res.D).mul(res.W) == A
        assert res.U.mul(res.u_inv) == PolyMatrix.identity(3, p, m)
        assert res.W.mul(res.w_inv) == PolyMatrix.identity(3, p, m)
        vals = [poly_valuation(f) if f else None
                for f in res.invariant_factors]
        present = [v for v in vals if v is not None]
        assert present == sorted(present)


@pytest.mark.parametrize("D, match", [
    # not diagonal
    (PolyMatrix(2, 2, 3, [[[1], [0, 1]], [[], [0, 1]]]), "not diagonal"),
    # 2 + 2s is not monic
    (PolyMatrix(1, 1, 3, [[[2, 2]]]), "not monic"),
    # s + s^2 = s * unit, not exactly s over F_3[s]/(s^4)
    (PolyMatrix(1, 1, 3, [[[0, 1, 1]]], 4), "s\\^v"),
    # s^2 does not divide s over F_3[s]/(s^4)
    (PolyMatrix(2, 2, 3, [[[0, 0, 1], []], [[], [0, 1]]], 4), "divisibility"),
], ids=["non-diagonal", "non-monic", "not-s^v", "chain-not-dividing"])
def test_check_snf_rejects_a_non_smith_d(D, match):
    # U = W = I makes U*D*W = A hold, so only the form of D can fail
    I = PolyMatrix.identity(D.rows, 3, D.modulus)
    with pytest.raises(AssertionError, match=match):
        _check_snf(D, SNFResult(I, D, I, [], []))


def test_check_snf_rejects_misshapen_transforms():
    # the extra column of U is invisible to U*D when D is 1x1
    A = PolyMatrix.identity(1, 3)
    U = PolyMatrix(1, 2, 3, [[[1], [1]]])
    with pytest.raises(AssertionError, match="shapes"):
        _check_snf(A, SNFResult(U, A, A, [], []))


def test_unit_inverse_is_an_inverse_mod_s_to_the_m():
    # the chain-ring snf scales each unit pivot by this inverse
    rng = random.Random(17)
    for p in (2, 3, 13):
        for m in (1, 2, 3, 8, 33, 128, 512):
            for _ in range(3):
                u = [rng.randrange(1, p)] + [
                    rng.randrange(p) for _ in range(rng.randint(0, m - 1))]
                while u[-1] == 0:
                    u.pop()
                v = linalg._unit_inverse(u, m, p)
                assert len(v) <= m and v[-1]
                prod = poly_mul(u, v, p)[:m]
                assert prod[0] == 1 and not any(prod[1:])


def test_snf_chain_ring_agrees_with_lift():
    # over F_p[s]/(s^m), coker A = coker [A_lift | s^m I] over F_p[s], so the
    # valuations of snf(A) (zero counting as m, padded with m to A.rows) are
    # the degrees of the monic monomial invariant factors of the lift
    rng = random.Random(13)
    for _ in range(150):
        p = rng.choice((2, 3, 5))
        m = rng.choice((1, 2, 4, 8))
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        A = rand_matrix(rng, rows, cols, p, m - 1, m)
        facs = snf(A).invariant_factors
        vals = [poly_valuation(f) if f else m for f in facs]
        vals += [m] * (rows - len(facs))
        sm = PolyMatrix(rows, rows, p, [[[0] * m + [1] if i == j else []
                                         for j in range(rows)]
                                        for i in range(rows)])
        lifted = snf(A.lift().hstack(sm)).invariant_factors
        assert all(f[-1] == 1 and f.count(0) == len(f) - 1 for f in lifted)
        assert [poly_deg(f) for f in lifted] == vals


def _digits(word):
    """Coefficient list from its digits, constant term first."""
    return [int(c) for c in word]


def _scrambled(rng, n, p):
    """(A, factors): A = U * diag(factors) * W over F_p[s] for U and W
    products of n random row and n random column add-multiples (multiplier
    of degree <= 2) and a swap each, factors monic with each dividing the
    next and, one time in three, a zero last."""
    factors, d = [], [1]
    for _ in range(n - rng.choice((0, 0, 1))):
        f = [rng.randrange(p) for _ in range(rng.choice((0, 0, 1, 1, 2)))]
        d = poly_mul(d, f + [1], p)
        factors.append(d)
    factors += [[]] * (n - len(factors))
    A = [[list(factors[i]) if i == j else [] for j in range(n)]
         for i in range(n)]
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        f = [rng.randrange(p) for _ in range(rng.randint(1, 3))]
        A[i] = [poly_add(x, poly_mul(f, y, p), p) for x, y in zip(A[i], A[j])]
        A[i], A[j] = A[j], A[i]
        i, j = rng.sample(range(n), 2)
        f = [rng.randrange(p) for _ in range(rng.randint(1, 3))]
        for row in A:
            row[i] = poly_add(row[i], poly_mul(f, row[j], p), p)
            row[i], row[j] = row[j], row[i]
    return PolyMatrix(n, n, p, A), factors


# the 8x8 snf request over F_3[s] that perfbench/gen.py draws with
# rng = random.Random(294); p = rng.choice(PRIMES);
# _snf_request(rng, 8, p, False), entries as digit strings, constant term
# first; clearing with xgcd steps in place of remainders swells its entries
# past degree 1000 against a bound of 48
_SEED_294 = [
    "010212001201 0201200121 00021122112 0 02220222 0001110111 0 0002220222",
    "0011000210121021 01101022202011 000111110220222 00211122 001101002202 "
    "00202111222101 0 00000022212102",
    "0102101022111 01210110201 001001020002 0 010222212 02121122121 0 "
    "00010222212",
    "02111121101001 022112011221 0021021120012 010212 0211000122 "
    "011210201211 0 000001202022",
    "0002220222 02121102 000221001 0 020121 00010212 0 00020121",
    "012012211101 0110010021 01212211212 0 01202022 0220102011 0 0001202022",
    "01222212202002 011221022112 0012012210021 01110111 0122000211 "
    "022120102122 0221001 000002101011",
    "0 0 0 01101 0 0 0 002101011",
]
_SEED_294_FACTORS = "01 01 021 01101 020121 0221001 0221001 002101011"


def test_snf_pid_entry_degrees_stay_within_input_plus_det(monkeypatch):
    # every intermediate entry of D has degree at most the input's largest
    # degree plus deg det (the degree of the product of the nonzero
    # invariant factors); checked after each logged row or column operation
    cases = [(PolyMatrix(8, 8, 3, [[_digits(w) for w in row.split()]
                                   for row in _SEED_294]),
              [_digits(w) for w in _SEED_294_FACTORS.split()])]
    rng = random.Random(11)
    for n in (7, 8):
        for p in (2, 3, 5, 7):
            cases += [_scrambled(rng, n, p) for _ in range(5)]
    real = linalg._logged
    bound = 0

    def logged(D, ops, op, *args):
        real(D, ops, op, *args)
        top = max(len(e) - 1 for row in D.nonzero for e in row.values())
        assert top <= bound, f"entry degree {top} over the bound {bound}"

    monkeypatch.setattr(linalg, "_logged", logged)
    for A, factors in cases:
        bound = (max(len(e) - 1 for row in A.nonzero for e in row.values())
                 + sum(len(f) - 1 for f in factors if f))
        assert snf(A).invariant_factors == factors


def test_kernel_basis_is_a_kernel():
    rng = random.Random(7)
    for _ in range(30):
        p = rng.choice((2, 3))
        A = rand_matrix(rng, 2, 3, p, 2)
        K = kernel_basis(A)
        prod = A.mul(K)
        assert prod.is_zero()
        # every kernel column is nonzero (basis, not padding)
        for j in range(K.cols):
            assert any(K.entries[i][j] for i in range(K.rows))


def test_solve_consistency():
    rng = random.Random(9)
    for _ in range(40):
        p = 2
        A = rand_matrix(rng, 3, 2, p, 2)
        x = [[rng.randrange(p) for _ in range(2)] for _ in range(2)]
        b = A.apply_to_vector(x)
        sol = solve(A, snf(A), b)
        assert sol is not None
        assert A.apply_to_vector(sol) == b


def test_solve_detects_inconsistency():
    # column space of [[s],[s]] misses (1, 0)
    A = PolyMatrix(2, 1, 2, [[[0, 1]], [[0, 1]]])
    assert solve(A, snf(A), [[1], []]) is None


def test_det_multiplicative():
    rng = random.Random(11)
    for _ in range(20):
        p = 3
        A = rand_matrix(rng, 2, 2, p, 2)
        B = rand_matrix(rng, 2, 2, p, 2)
        assert det(A.mul(B)) == poly_mul(det(A), det(B), p)


def test_unimodular_detection():
    U = PolyMatrix(2, 2, 2, [[[1], [0, 1]], [[], [1]]])
    assert is_unimodular(U)
    S = PolyMatrix(2, 2, 2, [[[0, 1], []], [[], [1]]])
    assert not is_unimodular(S)


def test_mul_rejects_modulus_mismatch():
    A = PolyMatrix.identity(2, 3, modulus=4)
    B = PolyMatrix.identity(2, 3)
    assert A.mul(A) == A
    with pytest.raises(ValueError):
        A.mul(B)
    with pytest.raises(ValueError):
        B.mul(A)


def _naive_mul_entries(X, Y):
    """Triple loop with a plain coefficient convolution, reduced at the end."""
    p, m = X.p, X.modulus
    XE, YE = X.entries, Y.entries
    out = []
    for i in range(X.rows):
        row = []
        for j in range(Y.cols):
            acc = {}
            for k in range(X.cols):
                for da, ca in enumerate(XE[i][k]):
                    for db, cb in enumerate(YE[k][j]):
                        acc[da + db] = (acc.get(da + db, 0) + ca * cb) % p
            e = [acc.get(d, 0) for d in range(max(acc, default=-1) + 1)]
            if m is not None:
                e = e[:m]
            while e and not e[-1]:
                e.pop()
            row.append(e)
        out.append(row)
    return out


def _sparse_matrix(rng, rows, cols, p, density, modulus):
    def entry():
        if rng.random() >= density:
            return []
        return [rng.randrange(p) for _ in range(rng.randint(0, 4))] + [
            rng.randrange(1, p)]
    return PolyMatrix(rows, cols, p, [[entry() for _ in range(cols)]
                                      for _ in range(rows)], modulus)


@pytest.mark.parametrize("modulus", [None, 1, 3])
@pytest.mark.parametrize("density", [0, 0.1, 0.5, 1, 0.02])
def test_mul_matches_naive_triple_loop(modulus, density):
    rng = random.Random(f"{modulus}-{density}")
    shapes = [(0, 3, 2), (2, 0, 3), (3, 2, 0), (1, 4, 3), (3, 1, 2),
              (4, 5, 3), (6, 6, 6)]
    if density == 0.02:  # the sparse shape of presentation matrices
        shapes = [(30, 30, 30)]
    for _ in range(5):
        for rows, inner, cols in shapes:
            p = rng.choice((2, 3, 5))
            X = _sparse_matrix(rng, rows, inner, p, density, modulus)
            Y = _sparse_matrix(rng, inner, cols, p, density, modulus)
            before = (X.copy(), Y.copy())
            Z = X.mul(Y)
            assert (Z.rows, Z.cols, Z.p, Z.modulus) == (rows, cols, p, modulus)
            assert Z.entries == _naive_mul_entries(X, Y)
            for row in Z.nonzero:  # the product shares no list with X or Y
                for e in row.values():
                    e.append(1)
            assert (X, Y) == before


def test_block_places_blocks_and_checks_them():
    A = PolyMatrix(1, 2, 3, [[[1], [0, 1]]], 4)
    I = PolyMatrix.identity(2, 3, 4)
    M = PolyMatrix.block(3, 4, 3, 4, [(0, 0, A), (1, 2, I)])
    assert M == PolyMatrix(3, 4, 3, [[[1], [0, 1], [], []],
                                     [[], [], [1], []],
                                     [[], [], [], [1]]], 4)
    M.nonzero[0][0].append(2)
    assert A.entry(0, 0) == [1]  # blocks are copied, not shared
    with pytest.raises(ValueError):
        PolyMatrix.block(3, 4, 3, None, [(0, 0, A)])
    with pytest.raises(ValueError):
        PolyMatrix.block(3, 4, 3, 4, [(2, 2, I)])


def test_kron_and_stacks_reject_modulus_mismatch():
    A = PolyMatrix(1, 1, 3, [[[0, 0, 0, 0, 0, 1]]])  # s^5 over F_3[s]
    B = PolyMatrix.identity(1, 3, modulus=4)
    for X, Y in ((A, B), (B, A)):
        with pytest.raises(ValueError):
            kron(X, Y)
        with pytest.raises(ValueError):
            X.hstack(Y)
    assert kron(A, A) == PolyMatrix(1, 1, 3, [[[0] * 10 + [1]]])
    assert B.hstack(B) == PolyMatrix(1, 2, 3, [[[1], [1]]], 4)


def test_a_matrix_is_not_hashable():
    # set() changes rows in place, so a content hash would go stale in a
    # set or dict
    with pytest.raises(TypeError):
        hash(PolyMatrix.identity(2, 3))


def test_only_linalg_writes_or_reduces_entries():
    # every PolyMatrix entry is canonical because linalg.py alone writes
    # and reduces entries; the other modules build through its API
    import almostalg
    found = []
    for path in sorted(pathlib.Path(almostalg.__file__).parent.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            targets = []
            if isinstance(node, (ast.Assign, ast.Delete)):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            if any(isinstance(sub, ast.Attribute)
                   and sub.attr in ("entries", "nonzero")
                   for t in targets for sub in ast.walk(t)):
                found.append(f"{path.name}:{node.lineno} writes entries")
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "_reduce"):
                found.append(f"{path.name}:{node.lineno} calls _reduce")
    assert found == []


def test_only_the_cli_reads_the_dense_grid():
    # PolyMatrix.entries builds a dense grid on each read; the library
    # reads the sparse rows or entry(i, j), and only the CLI's U/D/W output
    # (and det, inside linalg.py) needs the dense shape
    import almostalg
    found = []
    for path in sorted(pathlib.Path(almostalg.__file__).parent.glob("*.py")):
        if path.name in ("linalg.py", "cli.py"):
            continue
        found += [f"{path.name}:{node.lineno}"
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Attribute) and node.attr == "entries"]
    assert found == []


def test_sparse_matrices_cost_memory_by_their_nonzero_entries():
    # 400 x 400 with two nonzero entries per row, as in the Kronecker
    # tensors of companion presentations: a dense grid holds 160k empty
    # lists per matrix, about 10 MB, where the sparse rows need well
    # under 1 MB for all of these together
    p, m = 2, 4
    tracemalloc.start()
    try:
        C = PolyMatrix(20, 20, p, modulus=m)
        for i in range(20):
            C.set(i, i, [0, 1])
            C.set((i + 1) % 20, i, [1])
        K = kron(C, PolyMatrix.identity(20, p, m))
        A = PolyMatrix(400, 400, p, modulus=m)
        for i in range(400):
            A.set(i, (7 * i + 3) % 400, [1])
        P = lift_matrix(K.mul(A), 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"peak {peak} bytes"
    assert (P.rows, P.cols, P.modulus) == (400, 400, 8)
    assert sum(map(len, K.nonzero)) == sum(map(len, P.nonzero)) == 800
    # K * A permutes the columns of K: row i of K at column c lands at
    # column 7c + 3 of the product, lifted s -> s^2
    for i, row in enumerate(K.nonzero):
        assert P.nonzero[i] == {(7 * c + 3) % 400: lift_poly(e, 1, p)
                                for c, e in row.items()}


def test_only_exponents_imports_fractions():
    # PExp is the one exponent type: Fraction input is parsed by
    # PExp.from_fraction, and no other module imports fractions
    import almostalg
    found = []
    for path in sorted(pathlib.Path(almostalg.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n.split(".")[0] == "fractions" for n in names):
                found.append(path.name)
    assert found == ["exponents.py"]


def _own_nodes(fn):
    """The nodes of fn's body outside nested scopes; a nested def, lambda
    or class is yielded itself, as a name fn binds."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def test_every_parameter_and_local_is_read():
    # a parameter no body reads is an option no caller can use, and a
    # local no body reads is work whose result is thrown away; a value
    # unpacked and dropped is named _
    import almostalg
    found = []
    for path in sorted(pathlib.Path(almostalg.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name)
                    and isinstance(n.ctx, ast.Load)}
            a = fn.args
            params = [x.arg for x in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                      a.vararg, a.kwarg) if x is not None]
            bound = {}
            for node in _own_nodes(fn):
                if isinstance(node, ast.Name) and isinstance(node.ctx,
                                                             ast.Store):
                    bound.setdefault(node.id, node.lineno)
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    bound.setdefault(node.name, node.lineno)
            where = f"{path.name}:{fn.lineno} {fn.name}"
            found += [f"{where} parameter {x}" for x in params
                      if x not in ("self", "cls") and x not in read]
            found += [f"{where} local {x} (line {line})"
                      for x, line in bound.items()
                      if x != "_" and x not in params and x not in read]
    assert found == []


def _assert_canonical(M):
    """Nonzero trimmed entries of degree < modulus inside the shape, as the
    reducing constructor would store them."""
    assert len(M.nonzero) == M.rows
    for row in M.nonzero:
        for j, e in row.items():
            assert 0 <= j < M.cols, M
            assert e and e[-1] != 0, M
            assert M.modulus is None or len(e) <= M.modulus, M
    assert M == PolyMatrix(M.rows, M.cols, M.p, M.entries, M.modulus)


def _raw_entry(rng, p):
    """A coefficient list, often untrimmed or longer than the modulus."""
    if rng.random() < 0.3:
        return []
    return [rng.randrange(p) for _ in range(rng.randint(1, 10))]


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("modulus", [None, 1, 3, 8])
def test_every_matrix_operation_keeps_entries_canonical(p, modulus):
    rng = random.Random(f"canonical-{p}-{modulus}")

    def raw(rows, cols, density):
        # density None: the 30 % of zeros that _raw_entry draws itself
        return [[_raw_entry(rng, p)
                 if density is None or rng.random() < density else []
                 for _ in range(cols)] for _ in range(rows)]

    def shapes():
        for _ in range(20):
            yield rng.randint(1, 3), rng.randint(1, 3), None
        yield 30, 30, 0.02  # the sparse shape of presentation matrices

    for r, c, density in shapes():
        A = PolyMatrix(r, c, p, raw(r, c, density), modulus)
        B = PolyMatrix(r, c, p, raw(r, c, density), modulus)
        C = PolyMatrix(c, r, p, raw(c, r, density), modulus)
        _assert_canonical(A)
        shrink = 2 if modulus is None else max(1, modulus - 2)
        grow = None if modulus is None else modulus + 3
        results = [
            A.copy(), A.lift(), A.transpose(), A.hstack(B),
            A.with_modulus(shrink), A.with_modulus(grow),
            A.with_modulus(None), A.with_modulus(modulus),
            PolyMatrix.block(r + c, c + r, p, modulus,
                             [(0, 0, A), (r, c, C)]),
            PolyMatrix.from_columns([[_raw_entry(rng, p) for _ in range(r)]
                                     for _ in range(c)], r, p, modulus),
            A.mul(C), A.add(B), A.neg(), kron(A, C),
        ]
        assert results[4].entries == PolyMatrix(r, c, p, A.entries,
                                                shrink).entries
        # level lifts and row slices take entries as they are; the reducing
        # constructor would store the same
        for d in (1, 2):
            L = lift_matrix(A, d)
            assert L == PolyMatrix(
                r, c, p, [[lift_poly(e, d, p) for e in row]
                          for row in A.entries],
                None if modulus is None else modulus * p ** d)
            results.append(L)
        n = rng.randint(0, r)
        T = A.top_rows(n)
        assert T == PolyMatrix(n, c, p, A.entries[:n], modulus)
        results.append(T)
        S = PolyMatrix(r, c, p, modulus=modulus)
        for i in range(r):
            for j in range(c):
                S.set(i, j, _raw_entry(rng, p))
        results.append(S)
        before = A.copy()
        for M in results:
            _assert_canonical(M)
            for row in M.nonzero:  # no result shares an entry list with A
                for e in row.values():
                    e.append(0)
        assert A == before


def test_set_stores_s_to_the_modulus_as_zero():
    # over V/(t) at stage 0, t^(1/p^0) = s^m is zero in F_p[s]/(s^m)
    for p, m in ((2, 2), (3, 3), (5, 1)):
        M = PolyMatrix(2, 1, p, modulus=m)
        M.set(0, 0, [0] * m + [1])
        M.set(1, 0, [p - 1, 0, 0])
        assert M.entries == [[[]], [[p - 1]]]
        assert M.copy().entries == M.with_modulus(m + 1).entries \
            == M.entries


@pytest.mark.parametrize("modulus", [None, 3, 5], ids=["pid", "s^3", "s^5"])
def test_snf_inverse_transforms_replayed_on_first_use(modulus):
    rng = random.Random(11)
    for rows, cols in [(3, 3), (4, 4), (2, 5), (5, 2), (4, 3)]:
        for _ in range(8):
            p = rng.choice((2, 3, 5))
            res = snf(rand_matrix(rng, rows, cols, p, 2, modulus))
            I_r = PolyMatrix.identity(rows, p, modulus)
            I_c = PolyMatrix.identity(cols, p, modulus)
            u_inv, w_inv = res.u_inv, res.w_inv
            assert res.U.mul(u_inv) == I_r and u_inv.mul(res.U) == I_r
            assert res.W.mul(w_inv) == I_c and w_inv.mul(res.W) == I_c
            assert res.u_inv is u_inv and res.w_inv is w_inv
