"""Dense polynomials over F_p (and Z/p^c), lowest degree first.

A polynomial is a list of ints in [0, p) with no trailing zeros; [] is the
zero polynomial.  poly_trim, poly_add, poly_mul and poly_divmod are the hot
inner loops; everything else (valuation, ...) is built on them.
All of it is plain Python: there is no compiled kernel.

Kernel contract: operands are trimmed and their coefficients lie in
[0, p).  Results obey the same contract and are new lists (an untrimmed
operand still gets a trimmed result).  poly_trim, poly_add, poly_mul,
poly_neg, poly_sub and poly_scale need only a coefficient modulus p >= 2,
so they also compute over Z/p^c; poly_divmod and what is built on it
invert coefficients and need p prime.  poly_scale reduces any
integer coefficients, so poly_scale(a, 1, p) is the reduction mod p.

A one-term operand c*s^k, whose only nonzero coefficient is the last, is
recognised with one list.count, and poly_mul, poly_divmod and poly_scale
then shift and scale instead of running the schoolbook loops; poly_trim
and poly_valuation find the single term of one-term and all-zero lists
with list.count too, at C speed.  The results are exactly those of the
schoolbook loops.
"""
from __future__ import annotations

# perfbench/child.py imports this for its provenance line; it is a
# constant because there is only one kernel.
BACKEND = "python"


def poly_trim(a: list) -> list:
    """Drop trailing zeros in place and return a."""
    n = len(a)
    if n and not a[-1]:
        z = a.count(0)
        if z == n:
            a.clear()
            return a
        if z == n - 1:
            # one nonzero coefficient: keep everything up to it
            del a[a.index(next(filter(None, a))) + 1:]
            return a
        while n and a[n - 1] == 0:
            n -= 1
        del a[n:]
    return a


def poly_add(a: list, b: list, p: int) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i in range(len(b)):
        out[i] = (out[i] + b[i]) % p
    return poly_trim(out)


def poly_mul(a: list, b: list, p: int) -> list:
    if not a or not b:
        return []
    la, lb = len(a), len(b)
    # x is c*s^k iff x[-1] is its only nonzero coefficient; that needs
    # len(x) == 1 or a zero constant term, so dense operands skip the count
    if (la == 1 or not a[0]) and a[-1] and a.count(0) == la - 1:
        if (lb == 1 or not b[0]) and b[-1] and b.count(0) == lb - 1:
            # two nonzero coefficients multiply to 0 only when p is not prime
            c = a[-1] * b[-1] % p
            return [0] * (la + lb - 2) + [c] if c else []
        a, b, lb = b, a, la
    elif not ((lb == 1 or not b[0]) and b[-1] and b.count(0) == lb - 1):
        out = [0] * (la + lb - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] = (out[i + j] + ai * bj) % p
        return poly_trim(out)
    # b = c*s^k: shift a up by k and scale it by c
    c = b[-1]
    if c == 1:
        return poly_trim([0] * (lb - 1) + a)
    return poly_trim([0] * (lb - 1) + [c * x % p for x in a])


def poly_divmod(a: list, b: list, p: int) -> tuple:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = len(b) - 1
    lead_inv = pow(b[db], p - 2, p)
    if len(a) <= db:
        return [], poly_trim(list(a))
    if (db == 0 or not b[0]) and b[db] and b.count(0) == db:
        # b = c*s^db: the quotient is a shifted down by db and scaled by
        # 1/c, the remainder is the low part of a
        q = a[db:] if lead_inv == 1 else [lead_inv * x % p for x in a[db:]]
        return poly_trim(q), poly_trim(a[:db])
    r = list(a)
    q = [0] * (len(r) - db)
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i]
        if c:
            f = (c * lead_inv) % p
            q[i - db] = f
            for j in range(db + 1):
                r[i - db + j] = (r[i - db + j] - f * b[j]) % p
    return poly_trim(q), poly_trim(r)


def poly_monomial(coef: int, deg: int, p: int) -> list:
    coef %= p
    if not coef:
        return []
    return [0] * deg + [coef]

def poly_deg(a: list) -> int:
    """Degree, with deg(0) = -1."""
    return len(a) - 1

def poly_neg(a: list, p: int) -> list:
    return [(-c) % p for c in a]

def poly_sub(a: list, b: list, p: int) -> list:
    return poly_add(a, poly_neg(b, p), p)

def poly_scale(a: list, c: int, p: int) -> list:
    c %= p
    if not c:
        return []
    n = len(a)
    if n and a[-1] and a.count(0) == n - 1:
        c = c * a[-1] % p
        return [0] * (n - 1) + [c] if c else []
    return poly_trim([(c * x) % p for x in a])

def poly_mod(a: list, b: list, p: int) -> list:
    return poly_divmod(a, b, p)[1]

def poly_divides(a: list, b: list, p: int) -> bool:
    """Does a divide b?  Zero divides only zero."""
    if not a:
        return not b
    return not poly_mod(b, a, p)

def poly_valuation(a: list) -> int:
    """Largest k with s^k | a; -1 for the zero polynomial."""
    nonzero = len(a) - a.count(0)
    if not nonzero:
        return -1
    if nonzero == 1 and a[-1]:
        return len(a) - 1
    for i, c in enumerate(a):
        if c:
            return i
    return -1

def poly_to_string(a: list) -> str:
    if not a:
        return "0"
    parts = []
    for i, c in enumerate(a):
        if not c:
            continue
        if i == 0:
            parts.append(str(c))
        elif i == 1:
            parts.append("s" if c == 1 else f"{c}*s")
        else:
            parts.append(f"s^{i}" if c == 1 else f"{c}*s^{i}")
    return " + ".join(parts)
