"""Seeded benchmark inputs whose answers are known by construction.

Nothing here imports almostalg: every expected answer comes from the
generator, never from the library under test.

* ``compute_requests(seed)`` builds the ``compute`` request stream.  Each
  ``snf`` and ``decompose`` payload is a matrix A = U*D*W, where D is a
  chosen diagonal and U, W are random products of elementary operations
  (hence unimodular).  The invariant factors of A are those of D, so the
  expected ``invariant_factors``, free rank and torsion exponents follow
  from D alone.
* ``deep_modules(seed)`` builds the exponent lists of the deep-level
  monomial modules.  Its checks are theorems, so the known answer is
  "every check holds".

The request and module *shapes* (op, size, ring, prime) are fixed per
workload and only their contents and order depend on the seed, so every
seed asks for the same amount of work.
"""
from __future__ import annotations

import json
import random
from fractions import Fraction

# -- dense polynomials over F_p, lowest degree first (independent twin) -----


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _cut(a, m):
    """Reduce mod s^m (m None: no reduction)."""
    if m is not None and len(a) > m:
        del a[m:]
    return _trim(a)


def _add(a, b, p):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return _trim(out)


def _mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _trim(out)


def _rand_poly(rng, p, deg):
    """Random polynomial of degree exactly deg (nonzero)."""
    return [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]


def _rand_monic(rng, p, deg):
    return [rng.randrange(p) for _ in range(deg)] + [1]


def _mono(e):
    return [0] * e + [1]


def scramble(rng, diag, p, m=None):
    """A = U * diag * W for random unimodular U, W over F_p[s] (or the chain
    ring F_p[s]/(s^m)): n row operations on the left and n column operations
    on the right, each an elementary add-multiple (multiplier of degree
    <= 2), a swap, or a unit scaling."""
    n = len(diag)
    A = [[list(diag[i]) if i == j else [] for j in range(n)] for i in range(n)]
    for side in ("row", "col"):
        for _ in range(n):
            kind = rng.random()
            i, j = rng.sample(range(n), 2)
            if kind < 0.8:
                f = _rand_poly(rng, p, rng.randint(0, 2))
                if side == "row":
                    A[i] = [_cut(_add(x, _mul(f, y, p), p), m)
                            for x, y in zip(A[i], A[j])]
                else:
                    for row in A:
                        row[i] = _cut(_add(row[i], _mul(f, row[j], p), p), m)
            elif kind < 0.9:
                if side == "row":
                    A[i], A[j] = A[j], A[i]
                else:
                    for row in A:
                        row[i], row[j] = row[j], row[i]
            else:
                c = rng.randrange(1, p)
                if side == "row":
                    A[i] = [[(c * x) % p for x in e] for e in A[i]]
                else:
                    for row in A:
                        row[i] = [(c * x) % p for x in row[i]]
    return A


# -- compute-requests --------------------------------------------------------

PRIMES = (2, 3, 5, 7)

# (size, count) per op; fixed so that every seed sends the same mix:
# 60 % snf, 25 % decompose, 15 % tilt_basis_iso.
# Dense SNFs over F_p[s] above 6x6 are sent over the chain ring only: about
# one generic 7x7 or 8x8 input in 300-600 makes snf's xgcd elimination
# swell entry degrees without bound (seconds to minutes per request).
PID_MAX_SIZE = 6
SNF_SIZES = ((2, 160), (3, 160), (4, 130), (5, 100), (6, 70), (7, 32),
             (8, 18))
DECOMPOSE_SIZES = ((2, 100), (3, 90), (4, 60), (5, 30))
TILT_CASES = (((2, 1), 30), ((2, 2), 35), ((2, 3), 20), ((3, 1), 30),
              ((3, 2), 10), ((5, 1), 25), ((7, 1), 16))


def _snf_request(rng, n, p, chain):
    """snf payload over F_p[s] (chain=False) or F_p[s]/(s^m)."""
    if chain:
        m = rng.choice((4, 8, 16, 32))
        vals = sorted(rng.randint(0, m) for _ in range(n))
        diag = [_mono(v) if v < m else [] for v in vals]
        A = scramble(rng, diag, p, m)
        payload = {"p": p, "matrix": A, "modulus": m}
        expect = diag
    else:
        zeros = rng.choice((0, 0, 1))
        diag, d = [], [1]
        for _ in range(n - zeros):
            d = _mul(d, _rand_monic(rng, p, rng.choice((0, 0, 1, 1, 2))), p)
            diag.append(d)
        diag += [[] for _ in range(zeros)]
        A = scramble(rng, diag, p)
        payload = {"p": p, "matrix": A}
        expect = diag
    return {"op": "snf", "argv": ["compute", "snf"],
            "payload": json.dumps(payload),
            "expect": {"invariant_factors": expect}}


def _decompose_request(rng, n, p, truncated):
    """decompose payload: relations U * diag(s^a_i) * W at a level L."""
    level = rng.randint(0, 1)
    argv = ["compute", "decompose", "--p", str(p)]
    if truncated:
        c = rng.randint(1, 2)
        m = c * p ** level
        argv += ["--mode", "truncated", "--truncation", str(c)]
        vals = [rng.randint(0, m) for _ in range(n)]
    else:
        m = None
        top = 2 * p ** level
        vals = [rng.randint(0, top) if rng.random() < 0.85 else None
                for _ in range(n)]
    diag = [[] if v is None or v == m else _mono(v) for v in vals]
    A = scramble(rng, diag, p, m)
    free = sum(1 for e in diag if not e)
    torsion = sorted(Fraction(v, p ** level) for v in vals
                     if v is not None and 0 < v != m)
    payload = {"rank": n, "relations": A, "level": level}
    return {"op": "decompose", "argv": argv, "payload": json.dumps(payload),
            "expect": {"free_rank": free,
                       "torsion_exponents": [str(e) for e in torsion]}}


def _tilt_request(p, n):
    payload = {"p": p, "n": n, "c": 1}
    return {"op": "tilt_basis_iso", "argv": ["compute", "tilt_basis_iso"],
            "payload": json.dumps(payload), "expect": {"entries": p ** n}}


def compute_requests(seed):
    """The closed-loop request stream: a fixed mix, seeded contents and
    order.  Each request is {op, argv, payload (JSON text), expect}."""
    rng = random.Random(f"compute-requests/{seed}")
    reqs = []
    for n, count in SNF_SIZES:
        for i in range(count):
            reqs.append(_snf_request(rng, n, PRIMES[i % 4],
                                     chain=i % 3 == 2 or n > PID_MAX_SIZE))
    for n, count in DECOMPOSE_SIZES:
        for i in range(count):
            reqs.append(_decompose_request(rng, n, PRIMES[i % 4],
                                           truncated=i % 3 == 2))
    for (p, n), count in TILT_CASES:
        reqs.extend(_tilt_request(p, n) for _ in range(count))
    rng.shuffle(reqs)
    return reqs


# -- deep-level --------------------------------------------------------------

DEEP_P = 3
DEEP_J = 10
# (mode, truncation, antithetic exponent pairs, free rank) per module
DEEP_SHAPES = (("perfect", None, 1, 0), ("truncated", 2, 1, 0),
               ("perfect", None, 1, 1), ("truncated", 2, 1, 1),
               ("perfect", None, 2, 0), ("truncated", 2, 2, 0),
               ("perfect", None, 1, 0), ("truncated", 2, 1, 0),
               ("perfect", None, 2, 1))


def deep_modules(seed):
    """Monomial module specs for deep-level.  Exponents come in pairs
    (e, 1 - e) with e = num / 3^k in [1/3, 2/3] in lowest terms,
    1 <= k <= 3, so every module has the same total exponent mass whatever
    the seed; the first pair of each module has denominator 3^3."""
    rng = random.Random(f"deep-level/{seed}")
    mods = []
    for mode, trunc, pairs, free in DEEP_SHAPES:
        exps = []
        for i in range(pairs):
            den = DEEP_P ** (3 if i == 0 else rng.randint(1, 3))
            num = rng.choice([n for n in range(den // 3, 2 * den // 3 + 1)
                              if n % DEEP_P])
            e = Fraction(num, den)
            exps += [e, 1 - e]
        rng.shuffle(exps)
        mods.append({"mode": mode, "truncation": trunc,
                     "exponents": [str(e) for e in exps], "free_rank": free})
    return mods
