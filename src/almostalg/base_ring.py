"""The desk-scale base rings.

Two configurations:

* char-p-perfect:    V = F_p[t^(1/p^inf)], monomials t^e with e in Z[1/p]>=0
* char-p-truncated:  V/(t^c), same but exponents >= c vanish

A RingConfig only names the ring; its elements are the dense coefficient
lists of polys.py in s = t^(1/p^n) at a working level n (see modules.py).
The mixed-characteristic mock Z[x]/(x^(p^n) - p, p^c) of the tilting
dictionary is computed in the same kernel by tower.tilt_basis_iso.
"""
from __future__ import annotations

from .exponents import PExp

CHAR_P_PERFECT = "char-p-perfect"
CHAR_P_TRUNCATED = "char-p-truncated"


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
    """Fixes the prime, the mode, and the truncation bound."""

    __slots__ = ("p", "mode", "trunc")

    def __init__(self, p, mode, trunc=None):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if mode == CHAR_P_PERFECT:
            if trunc is not None:
                raise ValueError("perfect mode takes no truncation")
        elif mode == CHAR_P_TRUNCATED:
            if trunc is None:
                raise ValueError("truncated mode needs a truncation bound")
            trunc = PExp.from_fraction(p, trunc)
            if trunc.is_zero():
                raise ValueError("truncation bound must be positive")
        else:
            raise ValueError(f"unknown mode {mode!r}")
        self.p = p
        self.mode = mode
        self.trunc = trunc

    @classmethod
    def perfect(cls, p):
        return cls(p, CHAR_P_PERFECT)

    @classmethod
    def truncated(cls, p, c):
        return cls(p, CHAR_P_TRUNCATED, trunc=c)

    def __eq__(self, other):
        if not isinstance(other, RingConfig):
            return NotImplemented
        return (self.p, self.mode, self.trunc) == \
               (other.p, other.mode, other.trunc)

    def __hash__(self):
        return hash((self.p, self.mode, self.trunc))

    def __repr__(self):
        if self.mode == CHAR_P_PERFECT:
            return f"RingConfig(V, p={self.p})"
        return f"RingConfig(V/(t^{self.trunc}), p={self.p})"
