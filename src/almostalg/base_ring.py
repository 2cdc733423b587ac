"""Arithmetic in the desk-scale base rings.

Three configurations share one element type:

* char-p-perfect:    V = F_p[t^(1/p^inf)], monomials t^e with e in Z[1/p]>=0
* char-p-truncated:  V/(t^c), same but exponents >= c vanish
* mixed-mock:        Z[x]/(x^(p^n) - p, p^c), canonical basis x^k, k < p^n,
                     coefficients in [0, p^c); monomial x^k is stored under
                     the exponent k/p^n so the tilting dictionary
                     x^k <-> t^(k/p^n) is a plain key match

Elements are finite maps exponent -> coefficient with no zero coefficients.
"""
from __future__ import annotations

from .exponents import PExp

CHAR_P_PERFECT = "char-p-perfect"
CHAR_P_TRUNCATED = "char-p-truncated"
MIXED_MOCK = "mixed-mock"


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class RingConfig:
    """Fixes the prime, the mode, and the truncation data."""

    __slots__ = ("p", "mode", "trunc", "level_n")

    def __init__(self, p, mode, trunc=None, level_n=None):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if mode not in (CHAR_P_PERFECT, CHAR_P_TRUNCATED, MIXED_MOCK):
            raise ValueError(f"unknown mode {mode!r}")
        if mode == CHAR_P_PERFECT:
            if trunc is not None:
                raise ValueError("perfect mode takes no truncation")
            level_n = None
        elif mode == CHAR_P_TRUNCATED:
            if trunc is None:
                raise ValueError("truncated mode needs a truncation bound")
            trunc = PExp.from_fraction(p, trunc)
            if trunc.is_zero():
                raise ValueError("truncation bound must be positive")
            level_n = None
        else:
            if level_n is None or level_n < 0:
                raise ValueError("mixed mock needs a level n >= 0")
            if not isinstance(trunc, int) or trunc < 1:
                raise ValueError("mixed mock needs an integer precision c >= 1")
        self.p = p
        self.mode = mode
        self.trunc = trunc
        self.level_n = level_n

    @classmethod
    def perfect(cls, p):
        return cls(p, CHAR_P_PERFECT)

    @classmethod
    def truncated(cls, p, c):
        return cls(p, CHAR_P_TRUNCATED, trunc=c)

    @classmethod
    def mixed(cls, p, n, c):
        return cls(p, MIXED_MOCK, trunc=c, level_n=n)

    @property
    def is_char_p(self):
        return self.mode != MIXED_MOCK

    def coef_modulus(self):
        """Modulus for coefficients: p in char p, p^c in the mixed mock."""
        if self.mode == MIXED_MOCK:
            return self.p ** self.trunc
        return self.p

    def __eq__(self, other):
        if not isinstance(other, RingConfig):
            return NotImplemented
        return (self.p, self.mode, self.trunc, self.level_n) == \
               (other.p, other.mode, other.trunc, other.level_n)

    def __hash__(self):
        return hash((self.p, self.mode, self.trunc, self.level_n))

    def __repr__(self):
        if self.mode == CHAR_P_PERFECT:
            return f"RingConfig(V, p={self.p})"
        if self.mode == CHAR_P_TRUNCATED:
            return f"RingConfig(V/(t^{self.trunc}), p={self.p})"
        return f"RingConfig(mixed p={self.p}, n={self.level_n}, c={self.trunc})"

    def to_json(self):
        out = {"p": self.p, "mode": self.mode}
        if self.mode == CHAR_P_TRUNCATED:
            out["trunc"] = {"num": self.trunc.num, "dexp": self.trunc.k}
        elif self.mode == MIXED_MOCK:
            out["n"] = self.level_n
            out["c"] = self.trunc
        return out

    @classmethod
    def from_json(cls, d):
        mode = d["mode"]
        if mode == CHAR_P_PERFECT:
            return cls.perfect(d["p"])
        if mode == CHAR_P_TRUNCATED:
            t = d["trunc"]
            return cls.truncated(d["p"], PExp(d["p"], t["num"], t["dexp"]))
        return cls.mixed(d["p"], d["n"], d["c"])


class BaseElem:
    """Finite sum of monomials coef * t^e (or coef * x^k in the mixed mock)."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        clean = {}
        p, n = ring.p, ring.level_n
        q = ring.coef_modulus()
        trunc = ring.trunc if ring.mode == CHAR_P_TRUNCATED else None
        # legal mixed-mock exponents are k/p^n with 0 <= k < p^n
        basis = p ** n if ring.mode == MIXED_MOCK else None
        for e, c in terms.items():
            e = PExp.from_fraction(p, e)
            c %= q
            if c == 0:
                continue
            if trunc is not None and not e < trunc:
                continue
            if basis is not None and e.to_int_at_level(n) >= basis:
                raise ValueError(f"mixed-mock exponent {e} out of basis range")
            c = (clean.get(e, 0) + c) % q
            if c:
                clean[e] = c
            else:  # e was met before, spelled another way
                del clean[e]
        self.terms = dict(sorted(clean.items()))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ring):
        return cls(ring, {})

    @classmethod
    def one(cls, ring):
        return cls(ring, {PExp(ring.p, 0): 1})

    @classmethod
    def monomial(cls, ring, e, coef=1):
        return cls(ring, {PExp.from_fraction(ring.p, e): coef})

    # -- ring operations ---------------------------------------------------

    def _check(self, other):
        if not isinstance(other, BaseElem):
            raise TypeError(f"expected BaseElem, got {type(other).__name__}")
        if other.ring is not self.ring and other.ring != self.ring:
            raise ValueError("ring config mismatch")

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return BaseElem(self.ring, terms)

    def __neg__(self):
        return BaseElem(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return BaseElem(self.ring, {e: c * other for e, c in self.terms.items()})
        self._check(other)
        ring = self.ring
        acc = {}
        if ring.mode == MIXED_MOCK:
            one = PExp(ring.p, 1)
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = e1 + e2
                    c = c1 * c2
                    # carry x^(p^n) = p, i.e. exponent 1 trades for a factor p
                    while not e < one:
                        e = e - one
                        c *= ring.p
                    acc[e] = acc.get(e, 0) + c
        else:
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = e1 + e2
                    acc[e] = acc.get(e, 0) + c1 * c2
        return BaseElem(ring, acc)

    __rmul__ = __mul__

    def __pow__(self, n):
        out = BaseElem.one(self.ring)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, BaseElem):
            return NotImplemented
        return ((self.ring is other.ring or self.ring == other.ring)
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring, tuple(self.terms.items())))

    def is_zero(self):
        return not self.terms

    def is_monomial(self):
        return len(self.terms) == 1

    def monomial_exponent(self):
        if not self.is_monomial():
            raise ValueError("not a monomial")
        return next(iter(self.terms))

    def __repr__(self):
        if not self.terms:
            return "0"
        var = "x" if self.ring.mode == MIXED_MOCK else "t"
        parts = []
        for e, c in self.terms.items():
            if e.is_zero():
                parts.append(str(c))
            else:
                ve = f"{var}^({e})" if e.k else f"{var}^{e}"
                parts.append(ve if c == 1 else f"{c}*{ve}")
        return " + ".join(parts)

    def to_json(self):
        return {
            "terms": [{"num": e.num, "dexp": e.k, "coef": c}
                      for e, c in self.terms.items()],
            "ring": self.ring.to_json(),
        }

    @classmethod
    def from_json(cls, d):
        ring = RingConfig.from_json(d["ring"])
        terms = {PExp(ring.p, t["num"], t["dexp"]): t["coef"] for t in d["terms"]}
        return cls(ring, terms)


# -- module-level operations per the library surface ----------------------

def elem_mul(x: BaseElem, y: BaseElem) -> BaseElem:
    return x * y


def frobenius(x: BaseElem) -> BaseElem:
    """coef * t^e -> coef * t^(pe); char-p modes only."""
    if not x.ring.is_char_p:
        raise ValueError("frobenius is only defined in char-p modes")
    return BaseElem(x.ring, {e.scale_pow(1): c for e, c in x.terms.items()})


def frobenius_inv(x: BaseElem) -> BaseElem:
    if not x.ring.is_char_p:
        raise ValueError("frobenius is only defined in char-p modes")
    return BaseElem(x.ring, {e.scale_pow(-1): c for e, c in x.terms.items()})


def divides_monomial(a: BaseElem, b: BaseElem) -> bool:
    """For monomials: exponent(a) <= exponent(b)."""
    if not (a.is_monomial() and b.is_monomial()):
        raise ValueError("divides_monomial needs monomial inputs")
    return a.monomial_exponent() <= b.monomial_exponent()
