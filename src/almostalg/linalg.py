"""Exact matrix algebra over F_p[s] and the chain ring F_p[s]/(s^m).

Each matrix row is a dict from column to entry holding only the nonzero
entries, which are dense polynomials (see polys.py); entries is a read-only
dense view built on each read, for the CLI's output and tests.

The central routine is snf(), Smith normal form with tracked unimodular
transforms, computed for both rings by one elimination whose only clearing
step subtracts a quotient times the pivot row or column; a remainder left
behind becomes the next pivot.  The inverse transforms are replayed from
its operation log only when a caller reads them.  Kernels, solving and
cokernel invariants are all derived from it; solve() takes an SNF the
caller already has.  modules.py answers its kernels and homology
through one kernel-modulo step on kernel_basis, and its span tests
through solve.

Every stored entry is canonical: a nonzero trimmed coefficient list, of
degree below the modulus when the matrix has one.  This module is the only
one that writes entries.  The constructor, from_columns and set() reduce
what they are given through reduce_mod; copies (copy, lift, hstack,
top_rows, block, lift_matrix, and with_modulus to a modulus that
is not smaller) take entries as they are.  A matrix is mutable (set()
and snf() change rows in place), so it has no hash.
"""
from __future__ import annotations

import functools
import operator

from .polys import (
    poly_add,
    poly_deg,
    poly_divmod,
    poly_monomial,
    poly_mul,
    poly_neg,
    poly_sub,
    poly_trim,
    poly_valuation,
    poly_to_string,
)


def reduce_mod(e, m):
    """Reduce the coefficient list e in place mod s^m (m=None: just trim)."""
    if m is not None and len(e) > m:
        del e[m:]
    return poly_trim(e)


def _put(row, j, e):
    """Store the canonical entry e at column j of a row dict (zero: drop)."""
    if e:
        row[j] = e
    else:
        row.pop(j, None)


def _reduced(items, m):
    """Row dict of the (column, entry) pairs in items whose entry, a fresh
    list reduced in place mod s^m, is nonzero."""
    return {j: e for j, e in items if reduce_mod(e, m)}


def _copied(row, shift=0):
    """Copy of a row dict, its columns moved right by shift."""
    return {j + shift: list(e) for j, e in row.items()}


class PolyMatrix:
    """Sparse matrix over F_p[s], optionally reduced mod s^modulus.

    nonzero[i] maps column j to entry (i, j) for every nonzero entry of row
    i; each is canonical (see the module docstring).  Read an entry through
    entry(i, j) and write one through set().  The constructor takes a dense
    grid of coefficient lists.
    """

    __slots__ = ("rows", "cols", "p", "modulus", "nonzero")

    def __init__(self, rows, cols, p, entries=None, modulus=None):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        self.rows = rows
        self.cols = cols
        self.p = p
        self.modulus = modulus
        if entries is None:
            self.nonzero = [{} for _ in range(rows)]
        else:
            if len(entries) != rows or any(len(r) != cols for r in entries):
                raise ValueError("entry grid does not match dimensions")
            self.nonzero = [_reduced(enumerate(map(list, row)), modulus)
                            for row in entries]

    @classmethod
    def _of(cls, rows, cols, p, nonzero, modulus):
        """Wrap fresh row dicts of canonical entries as they are."""
        out = cls.__new__(cls)
        out.rows, out.cols, out.p = rows, cols, p
        out.modulus, out.nonzero = modulus, nonzero
        return out

    @property
    def entries(self):
        """Dense grid of the entries, zeros included, built on each read.
        Its nonzero cells are the stored entry lists: do not modify them."""
        return [[row.get(j, []) for j in range(self.cols)]
                for row in self.nonzero]

    def entry(self, i, j):
        """Entry (i, j) as stored ([] when zero); do not modify it."""
        return self.nonzero[i].get(j, [])

    def set(self, i, j, e):
        """Write a copy of e, reduced, as entry (i, j)."""
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} outside {self.cols}")
        _put(self.nonzero[i], j, reduce_mod(list(e), self.modulus))

    @classmethod
    def identity(cls, n, p, modulus=None):
        return cls._of(n, n, p, [{i: [1]} for i in range(n)], modulus)

    @classmethod
    def block(cls, rows, cols, p, modulus, placements):
        """rows x cols matrix, zero outside the placed blocks.

        placements is a list of (row_offset, col_offset, matrix); each placed
        matrix must fit, must not overlap another and must have the target
        modulus.
        """
        out = cls(rows, cols, p, modulus=modulus)
        for r0, c0, M in placements:
            if M.modulus != modulus:
                raise ValueError(
                    f"block modulus {M.modulus} differs from target {modulus}")
            if r0 < 0 or c0 < 0 or r0 + M.rows > rows or c0 + M.cols > cols:
                raise ValueError("block does not fit")
            for orow, row in zip(out.nonzero[r0:r0 + M.rows], M.nonzero):
                orow.update(_copied(row, c0))
        return out

    def _copy(self, modulus):
        return PolyMatrix._of(self.rows, self.cols, self.p,
                              [_copied(row) for row in self.nonzero], modulus)

    def copy(self):
        return self._copy(self.modulus)

    def lift(self):
        """Same entries viewed over F_p[s] (drop the modulus)."""
        return self._copy(None)

    def with_modulus(self, m):
        """The same entries mod s^m; reduced only when m is smaller."""
        out = self._copy(m)
        if m is not None and (self.modulus is None or m < self.modulus):
            out.nonzero = [_reduced(row.items(), m) for row in out.nonzero]
        return out

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.p == other.p
            and self.modulus == other.modulus
            and self.nonzero == other.nonzero
        )

    def is_zero(self):
        return not any(self.nonzero)

    def mul(self, other):
        if self.cols != other.rows:
            raise ValueError(f"dimension mismatch {self.cols} vs {other.rows}")
        self._same_modulus(other)
        p, m = self.p, self.modulus
        # only products of two nonzero entries contribute: pair each nonzero
        # self[i][k] with the nonzero entries of other's row k
        out = []
        for row in self.nonzero:
            acc = {}
            for k, a in row.items():
                for j, b in other.nonzero[k].items():
                    t = poly_mul(a, b, p)
                    acc[j] = poly_add(acc[j], t, p) if j in acc else t
            out.append(_reduced(acc.items(), m))
        return PolyMatrix._of(self.rows, other.cols, p, out, m)

    def add(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch")
        out = self.copy()
        for orow, row in zip(out.nonzero, other.nonzero):
            for j, e in row.items():
                _put(orow, j, reduce_mod(poly_add(orow.get(j, []), e, self.p),
                                         self.modulus))
        return out

    def neg(self):
        return PolyMatrix._of(
            self.rows, self.cols, self.p,
            [{j: poly_neg(e, self.p) for j, e in row.items()}
             for row in self.nonzero], self.modulus)

    def _same_modulus(self, other):
        if self.modulus != other.modulus:
            raise ValueError(
                f"modulus mismatch {self.modulus} vs {other.modulus}")

    def hstack(self, other):
        if self.rows != other.rows:
            raise ValueError("row mismatch")
        self._same_modulus(other)
        return PolyMatrix._of(self.rows, self.cols + other.cols, self.p,
                              [{**_copied(a), **_copied(b, self.cols)}
                               for a, b in zip(self.nonzero, other.nonzero)],
                              self.modulus)

    def top_rows(self, n):
        """The first n rows, entries as they are."""
        return PolyMatrix._of(n, self.cols, self.p,
                              [_copied(row) for row in self.nonzero[:n]],
                              self.modulus)

    def column(self, j):
        return [list(row.get(j, ())) for row in self.nonzero]

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    @classmethod
    def from_columns(cls, cols, rows, p, modulus=None):
        if any(len(col) != rows for col in cols):
            raise ValueError("column length mismatch")
        return cls(rows, len(cols), p,
                   [[col[i] for col in cols] for i in range(rows)], modulus)

    def apply_to_vector(self, vec):
        """Matrix times a column vector (list of polys)."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        p = self.p
        out = []
        for row in self.nonzero:
            acc = []
            for k, a in row.items():
                if vec[k]:
                    acc = poly_add(acc, poly_mul(a, vec[k], p), p)
            out.append(reduce_mod(acc, self.modulus))
        return out

    def __repr__(self):
        body = "; ".join(
            ", ".join(poly_to_string(e) for e in row) for row in self.entries)
        tail = f" mod s^{self.modulus}" if self.modulus is not None else ""
        return f"<{self.rows}x{self.cols} [{body}]{tail}>"


def kron(A: PolyMatrix, B: PolyMatrix) -> PolyMatrix:
    """Kronecker product (A tensor B)."""
    A._same_modulus(B)
    p, m = A.p, A.modulus
    return PolyMatrix._of(A.rows * B.rows, A.cols * B.cols, p, [
        _reduced(((j * B.cols + l, poly_mul(a, b, p))
                  for j, a in arow.items() for l, b in brow.items()), m)
        for arow in A.nonzero for brow in B.nonzero], m)


def lift_poly(f, delta, p):
    """Rewrite a level-n polynomial at level n+delta: s -> s^(p^delta)."""
    if delta == 0:
        return list(f)
    step = p ** delta
    out = [0] * (len(f) * step)
    for i, c in enumerate(f):
        out[i * step] = c
    return poly_trim(out)


def lift_matrix(A: PolyMatrix, delta: int) -> PolyMatrix:
    """A at level n+delta: every entry lifted by lift_poly, modulus times
    p^delta.  A canonical entry of degree d < m lifts to degree d*p^delta
    < m*p^delta, so the lifted entries are canonical as they are."""
    if delta == 0:
        return A
    p = A.p
    m = A.modulus * (p ** delta) if A.modulus is not None else None
    return PolyMatrix._of(A.rows, A.cols, p,
                          [{j: lift_poly(e, delta, p) for j, e in row.items()}
                           for row in A.nonzero], m)


class SNFResult:
    """A = U * D * W with U, W unimodular; D diagonal, d1 | d2 | ..., each
    nonzero d_i monic over F_p[s] and exactly s^v over the chain ring.

    snf() finds D = L * A * R by row operations (L) and column operations
    (R) on A, and tracks U = L^-1 and W = R^-1 as it goes.  L and R
    themselves are only logged: row_ops and col_ops list each operation as
    (helper, args), in order.  u_inv = L and w_inv = R are built on first
    use by replaying the log onto the identity, and kept.
    """

    def __init__(self, U, D, W, row_ops, col_ops):
        self.U = U
        self.D = D
        self.W = W
        self.row_ops = row_ops
        self.col_ops = col_ops
        n = min(D.rows, D.cols)
        self.invariant_factors = [list(D.entry(i, i)) for i in range(n)]

    @functools.cached_property
    def u_inv(self):
        return _replay(self.row_ops, self.U)

    @functools.cached_property
    def w_inv(self):
        return _replay(self.col_ops, self.W)


def _logged(D, ops, op, *args):
    """Apply the row or column operation op to D and log it in ops."""
    op(D, *args)
    ops.append((op, args))


def _replay(ops, T):
    """The product of the logged operations applied to the identity of T's
    size, ring and modulus."""
    M = PolyMatrix.identity(T.rows, T.p, T.modulus)
    for op, args in ops:
        op(M, *args)
    return M


def _row_swap(M, i, j):
    M.nonzero[i], M.nonzero[j] = M.nonzero[j], M.nonzero[i]

def _col_swap(M, i, j):
    for row in M.nonzero:
        x, y = row.pop(i, []), row.pop(j, [])
        _put(row, i, y)
        _put(row, j, x)

def _row_addmul(M, i, j, f, p, m=None):
    """row i += f * row j"""
    if not f:
        return
    ri = M.nonzero[i]
    for c, e in M.nonzero[j].items():
        _put(ri, c, reduce_mod(poly_add(ri.get(c, []), poly_mul(f, e, p), p), m))

def _col_addmul(M, i, j, f, p, m=None):
    """col i += f * col j"""
    if not f:
        return
    for row in M.nonzero:
        if j in row:
            _put(row, i, reduce_mod(poly_add(row.get(i, []),
                                             poly_mul(f, row[j], p), p), m))

def _row_mulpoly(M, i, f, p, m=None):
    """row i *= f (f must be a unit in context for invertibility)."""
    M.nonzero[i] = _reduced(((c, poly_mul(f, e, p))
                             for c, e in M.nonzero[i].items()), m)

def _col_mulpoly(M, j, f, p, m=None):
    for row in M.nonzero:
        if j in row:
            _put(row, j, reduce_mod(poly_mul(f, row[j], p), m))


def snf(A: PolyMatrix) -> SNFResult:
    """Smith normal form with tracked transforms, over F_p[s] or, when A has
    a modulus m, over the chain ring F_p[s]/(s^m).

    One deterministic elimination serves both rings.  The pivot is the
    nonzero entry of least degree over F_p[s] and of least s-valuation over
    the chain ring (row-major ties); it is swapped into place, and every
    other entry of its column and row is reduced to its remainder by the
    pivot.  A nonzero remainder has lower degree than the pivot and becomes
    the next one, so the pivot degree falls until its row and column are
    clear; a row whose entries the pivot does not divide is then added to
    the pivot row, and the pivot is made monic at the end.  Over the chain
    ring the pivot is first scaled to exactly s^v, the least valuation
    present, so every remainder is zero and one sweep clears it.  The result
    is verified by _check_snf before it is returned.
    """
    p = A.p
    m = A.modulus
    key = poly_deg if m is None else poly_valuation
    D = A.copy()
    # D = L * A * R: U = L^-1 and W = R^-1 are tracked, the operations that
    # make up L and R are logged (see SNFResult)
    U = PolyMatrix.identity(A.rows, p, m)
    W = PolyMatrix.identity(A.cols, p, m)
    row_ops, col_ops = [], []
    n = min(A.rows, A.cols)

    for k in range(n):
        while True:
            piv = _find_pivot(D, k, key)
            if piv is None:
                break
            pi, pj = piv
            if pi != k:
                _logged(D, row_ops, _row_swap, k, pi)
                _col_swap(U, k, pi)
            if pj != k:
                _logged(D, col_ops, _col_swap, k, pj)
                _row_swap(W, k, pj)
            if m is not None:
                d = D.entry(k, k)
                unit = d[poly_valuation(d):]
                if unit != [1]:
                    uin = _unit_inverse(unit, m, p)
                    _logged(D, row_ops, _row_mulpoly, k, uin, p, m)
                    _col_mulpoly(U, k, unit, p, m)
            if (_clear_column(D, row_ops, U, k, p, m)
                    or _clear_row(D, col_ops, W, k, p, m)):
                continue
            # Row and column k are clear; enforce that the pivot divides
            # every remaining entry, else fold the offending row in.
            bad = _find_nondivisible(D, k)
            if bad is None:
                break
            _logged(D, row_ops, _row_addmul, k, bad, [1], p, m)
            _col_addmul(U, bad, k, [p - 1], p, m)
        # normalize pivot monic (over the chain ring it is already s^v)
        d = D.entry(k, k)
        if d and d[-1] != 1:
            c = d[-1]
            cinv = [pow(c, p - 2, p)]
            _logged(D, row_ops, _row_mulpoly, k, cinv, p, m)
            _col_mulpoly(U, k, [c], p, m)

    res = SNFResult(U, D, W, row_ops, col_ops)
    _check_snf(A, res)
    return res


def _clear_column(D, row_ops, U, k, p, m):
    """Reduce each entry below the pivot in column k to its remainder by
    the pivot: subtract the quotient times row k, log the row operation and
    apply its inverse to the columns of U.  Returns True if a remainder is
    left; it has lower degree than the pivot and so signals another sweep,
    in which it (or something smaller) is the pivot."""
    a = D.entry(k, k)
    changed = False
    for i in range(k + 1, D.rows):
        b = D.nonzero[i].get(k)
        if not b:
            continue
        q, r = poly_divmod(b, a, p)
        _logged(D, row_ops, _row_addmul, i, k, poly_neg(q, p), p, m)
        _col_addmul(U, k, i, q, p, m)
        changed = changed or bool(r)
    return changed


def _clear_row(D, col_ops, W, k, p, m):
    """Column-operation mirror of _clear_column for row k.  Reducing column
    j changes column j only, so the columns to reduce are known up front."""
    a = D.entry(k, k)
    changed = False
    for j in sorted(c for c in D.nonzero[k] if c > k):
        q, r = poly_divmod(D.nonzero[k][j], a, p)
        _logged(D, col_ops, _col_addmul, j, k, poly_neg(q, p), p, m)
        _row_addmul(W, k, j, q, p, m)
        changed = changed or bool(r)
    return changed


def _find_pivot(D, k, key):
    """Nonzero entry of least key (degree or valuation) in the trailing
    block, row-major ties."""
    best = None
    best_key = None
    for i in range(k, D.rows):
        row = D.nonzero[i]
        for j in sorted(row):
            if j >= k and (best_key is None or key(row[j]) < best_key):
                best, best_key = (i, j), key(row[j])
    return best


def _find_nondivisible(D, k):
    """Row index i > k containing an entry not divisible by the pivot.

    No division can fail over the chain ring, where the pivot s^v has the
    least valuation in the trailing block and exact clearing only adds
    multiples of s^v, nor when the pivot is a nonzero constant."""
    a = D.entry(k, k)
    if D.modulus is not None or len(a) == 1:
        return None
    for i in range(k + 1, D.rows):
        row = D.nonzero[i]
        for j in sorted(row):
            if j > k and poly_divmod(row[j], a, D.p)[1]:
                return i
    return None


def _check_snf(A, res):
    """Exact verification of A = U * D * W: D has A's shape and is diagonal,
    its nonzero entries are monic over F_p[s] and exactly s^v over the chain
    ring, each divides the next and zeros come last."""
    p = A.p
    m = A.modulus
    U, D, W = res.U, res.D, res.W
    if ((U.rows, U.cols, D.rows, D.cols, W.rows, W.cols)
            != (A.rows, A.rows, A.rows, A.cols, A.cols, A.cols)):
        raise AssertionError("SNF verification failed: shapes")
    if any(j != i for i, row in enumerate(D.nonzero) for j in row):
        raise AssertionError("SNF verification failed: D is not diagonal")
    facs = res.invariant_factors
    for f in facs:
        if f and (f[-1] != 1 or m is not None and f.count(0) != len(f) - 1):
            raise AssertionError("SNF verification failed: invariant "
                                 "factor not monic (s^v over the chain ring)")
    for i in range(len(facs) - 1):
        if facs[i] and facs[i + 1]:
            if poly_divmod(facs[i + 1], facs[i], p)[1]:
                raise AssertionError("SNF divisibility chain violated")
        elif not facs[i] and facs[i + 1]:
            raise AssertionError("zero invariant factor precedes a nonzero one")
    # D is diagonal, so U * D is U with column j scaled by d_j
    UD = PolyMatrix._of(A.rows, A.cols, p,
                        [_reduced(((j, poly_mul(e, facs[j], p))
                                   for j, e in urow.items()
                                   if j < len(facs) and facs[j]), m)
                         for urow in U.nonzero], m)
    if UD.mul(W).nonzero != A.nonzero:
        raise AssertionError("SNF verification failed: U*D*W != A")


def _unit_inverse(u, m, p):
    """Inverse of a unit of F_p[s]/(s^m) (nonzero constant term), by the
    coefficient recurrence v_0 = 1/u_0 and
    v_k = -(1/u_0) * sum_{i=1..min(k, deg u)} u_i v_{k-i}."""
    if not u or not u[0]:
        raise AssertionError("not a unit in the chain ring")
    c = pow(u[0], -1, p)
    v = [c]
    for k in range(1, m):
        # u[1:k+1] against v[k-1], ..., v[0]; map stops at the shorter
        v.append(-c * sum(map(operator.mul, u[1:k + 1], v[k - 1::-1])) % p)
    return poly_trim(v)


def kernel_basis(A: PolyMatrix) -> PolyMatrix:
    """Columns generate ker(A); verified A*K = 0 before returning."""
    res = snf(A)
    p = A.p
    m = A.modulus
    gens = []  # (row, entry) of each generator, a multiple of a unit vector
    facs = res.invariant_factors
    for i in range(A.cols):
        d = facs[i] if i < len(facs) else []
        if not d:
            gens.append((i, [1]))
        elif m is not None and poly_valuation(d):
            gens.append((i, poly_monomial(1, m - poly_valuation(d), p)))
    E = PolyMatrix(A.cols, len(gens), p, modulus=m)
    if not gens:
        return E
    for g, (i, e) in enumerate(gens):
        E.set(i, g, e)
    K = res.w_inv.mul(E)
    if not A.mul(K).is_zero():
        raise AssertionError("kernel verification failed")
    return K


def solve(A: PolyMatrix, res: SNFResult, b) -> list | None:
    """Some x with A*x = b, or None when no solution exists.

    res is snf(A), which a caller solving against one A many times computes
    once; b is a list of polynomials of length A.rows.
    """
    if len(b) != A.rows:
        raise ValueError(f"vector length {len(b)} != {A.rows} rows")
    p = A.p
    c = res.u_inv.apply_to_vector([list(e) for e in b])
    n = min(A.rows, A.cols)
    y = [[] for _ in range(A.cols)]
    for i in range(A.rows):
        ci = c[i]
        d = res.D.entry(i, i) if i < n else []
        if not d:
            if ci:
                return None
            continue
        if not ci:
            continue
        # over the chain ring d = s^v, so this is c_i shifted down by v
        q, r = poly_divmod(ci, d, p)
        if r:
            return None
        y[i] = q
    x = res.w_inv.apply_to_vector(y)
    check = A.apply_to_vector(x)
    target = [reduce_mod(list(e), A.modulus) for e in b]
    if check != target:
        return None
    return x


def det(A: PolyMatrix) -> list:
    """Determinant over F_p[s] by fraction-free (Bareiss) elimination."""
    if A.rows != A.cols:
        raise ValueError("determinant of non-square matrix")
    if A.modulus is not None:
        d = det(A.lift())
        return poly_divmod(d, poly_monomial(1, A.modulus, A.p), A.p)[1]
    n = A.rows
    if n == 0:
        return [1]
    p = A.p
    M = A.entries  # cells are replaced below, never modified in place
    prev = [1]
    sign = 1
    for k in range(n - 1):
        if not M[k][k]:
            piv = next((i for i in range(k + 1, n) if M[i][k]), None)
            if piv is None:
                return []
            M[k], M[piv] = M[piv], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = poly_sub(
                    poly_mul(M[k][k], M[i][j], p),
                    poly_mul(M[i][k], M[k][j], p), p)
                q, r = poly_divmod(num, prev, p) if prev != [1] else (num, [])
                if r:
                    raise AssertionError("Bareiss exact division failed")
                M[i][j] = q
            M[i][k] = []
        prev = M[k][k]
    d = M[n - 1][n - 1]
    return poly_neg(d, p) if sign < 0 else d


def is_unimodular(A: PolyMatrix) -> bool:
    """Determinant a unit: nonzero constant over F_p[s], valuation-0 element
    over the chain ring."""
    if A.rows != A.cols:
        return False
    if A.modulus is not None:
        d = det(A)
        return bool(d) and poly_valuation(d) == 0
    d = det(A)
    return poly_deg(d) == 0
