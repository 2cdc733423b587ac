import random

import pytest
from hypothesis import given, settings, strategies as st

from almostalg.linalg import (
    PolyMatrix,
    SNFResult,
    _check_snf,
    det,
    is_unimodular,
    kernel_basis,
    snf,
    solve,
)
from almostalg.modules import kron
from almostalg.polys import poly_deg, poly_divides, poly_mul, poly_valuation


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
        _check_snf(D, SNFResult(I, D, I, I, I))


def test_check_snf_rejects_misshapen_transforms():
    # the extra column of U is invisible to U*D when D is 1x1
    A = PolyMatrix.identity(1, 3)
    U = PolyMatrix(1, 2, 3, [[[1], [1]]])
    with pytest.raises(AssertionError, match="shapes"):
        _check_snf(A, SNFResult(U, A, A, A, A))


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
        sol = solve(A, b)
        assert sol is not None
        assert A.apply_to_vector(sol) == b


def test_solve_detects_inconsistency():
    # column space of [[s],[s]] misses (1, 0)
    A = PolyMatrix(2, 1, 2, [[[0, 1]], [[0, 1]]])
    assert solve(A, [[1], []]) is None


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
    out = []
    for i in range(X.rows):
        row = []
        for j in range(Y.cols):
            acc = {}
            for k in range(X.cols):
                for da, ca in enumerate(X.entries[i][k]):
                    for db, cb in enumerate(Y.entries[k][j]):
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
@pytest.mark.parametrize("density", [0, 0.1, 0.5, 1])
def test_mul_matches_naive_triple_loop(modulus, density):
    rng = random.Random(f"{modulus}-{density}")
    shapes = [(0, 3, 2), (2, 0, 3), (3, 2, 0), (1, 4, 3), (3, 1, 2),
              (4, 5, 3), (6, 6, 6)]
    for _ in range(5):
        for rows, inner, cols in shapes:
            p = rng.choice((2, 3, 5))
            X = _sparse_matrix(rng, rows, inner, p, density, modulus)
            Y = _sparse_matrix(rng, inner, cols, p, density, modulus)
            before = (X.copy(), Y.copy())
            Z = X.mul(Y)
            assert (Z.rows, Z.cols, Z.p, Z.modulus) == (rows, cols, p, modulus)
            assert Z.entries == _naive_mul_entries(X, Y)
            for row in Z.entries:  # the product shares no list with X or Y
                for e in row:
                    e.append(1)
            assert (X, Y) == before


def test_block_places_blocks_and_checks_them():
    A = PolyMatrix(1, 2, 3, [[[1], [0, 1]]], 4)
    I = PolyMatrix.identity(2, 3, 4)
    M = PolyMatrix.block(3, 4, 3, 4, [(0, 0, A), (1, 2, I)])
    assert M == PolyMatrix(3, 4, 3, [[[1], [0, 1], [], []],
                                     [[], [], [1], []],
                                     [[], [], [], [1]]], 4)
    M.entries[0][0].append(2)
    assert A.entries[0][0] == [1]  # blocks are copied, not shared
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
        with pytest.raises(ValueError):
            X.vstack(Y)
    assert kron(A, A) == PolyMatrix(1, 1, 3, [[[0] * 10 + [1]]])
    assert B.hstack(B) == PolyMatrix(1, 2, 3, [[[1], [1]]], 4)
    assert B.vstack(B) == PolyMatrix(2, 1, 3, [[[1]], [[1]]], 4)
