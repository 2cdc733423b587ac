"""The exponent lattice Z[1/p]_{>=0}.

Every exponent appearing in the base rings is a nonnegative rational whose
denominator is a power of the fixed prime p.  Arbitrary rationals are
rejected at construction time.
"""
from __future__ import annotations

import functools
import re
import sys
from fractions import Fraction

# the exponent of a decimal string such as "1e5000", as Fraction reads it
_DECIMAL_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


@functools.total_ordering
class PExp:
    """Nonnegative rational num / p**k in canonical form.

    Canonical form: ``p`` does not divide ``num`` unless ``num == 0`` (in
    which case ``k == 0``).
    """

    __slots__ = ("p", "num", "k")

    def __init__(self, p: int, num: int, k: int = 0):
        if p < 2:
            raise ValueError(f"p must be at least 2, got {p}")
        if num < 0:
            raise ValueError(f"negative exponent {num}/{p}^{k}")
        if k < 0:
            raise ValueError(f"negative denominator exponent {k}")
        while k > 0 and num % p == 0:
            num //= p
            k -= 1
        if num == 0:
            k = 0
        self.p = p
        self.num = num
        self.k = k

    @classmethod
    def from_fraction(cls, p: int, q) -> "PExp":
        """Parse q (a PExp, an int, a Fraction or a string such as "3/4")
        as an exponent for the prime p; a PExp is returned as it is.  A
        bool is refused, not read as 0 or 1, and a zero denominator, an
        infinite float or a decimal exponent past the interpreter's
        integer digit limit (sys.get_int_max_str_digits, the limit json
        applies to integer literals) is a ValueError."""
        if isinstance(q, bool):
            raise TypeError(f"an exponent cannot be the boolean {q}")
        if isinstance(q, PExp):
            if q.p != p:
                raise ValueError(f"mixed primes {q.p} and {p}")
            return q
        if isinstance(q, str):
            # Fraction("1e10000000") would build 10^(10^7) first
            m = _DECIMAL_EXPONENT.search(q)
            # 3.10 before 3.10.7 has no such limit; 4,300 is its default
            limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)()
            if m and limit and abs(int(m.group(1))) > limit:
                raise ValueError(f"{q!r} has a decimal exponent past the "
                                 f"{limit}-digit limit")
        try:
            q = Fraction(q)
        except (ZeroDivisionError, OverflowError) as exc:
            # "1/0", and a float that is infinite (1e400 in JSON)
            raise ValueError(f"{q!r} is not an exponent: {exc}") from None
        if q < 0:
            raise ValueError(f"negative exponent {q}")
        den = q.denominator
        k = 0
        while den % p == 0:
            den //= p
            k += 1
        if den != 1:
            raise ValueError(f"{q} is not a p-power-denominator rational for p={p}")
        return cls(p, q.numerator * 1, k)

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, self.p**self.k)

    def _check(self, other: "PExp") -> None:
        if not isinstance(other, PExp):
            raise TypeError(f"expected PExp, got {type(other).__name__}")
        if other.p != self.p:
            raise ValueError(f"mixed primes {self.p} and {other.p}")

    def __add__(self, other: "PExp") -> "PExp":
        self._check(other)
        k = max(self.k, other.k)
        p = self.p
        return PExp(p, self.num * p ** (k - self.k) + other.num * p ** (k - other.k), k)

    def __sub__(self, other: "PExp") -> "PExp":
        self._check(other)
        k = max(self.k, other.k)
        p = self.p
        num = self.num * p ** (k - self.k) - other.num * p ** (k - other.k)
        return PExp(p, num, k)

    def __mul__(self, n: int) -> "PExp":
        if not isinstance(n, int):
            return NotImplemented
        return PExp(self.p, self.num * n, self.k)

    __rmul__ = __mul__

    def scale_pow(self, j: int) -> "PExp":
        """Multiply by p**j (j may be negative)."""
        if j >= 0:
            return PExp(self.p, self.num * self.p**j, self.k)
        return PExp(self.p, self.num, self.k - j)

    def to_int_at_level(self, n: int) -> int:
        """Value * p**n, which must be an integer (requires k <= n)."""
        if self.k > n:
            raise ValueError(f"exponent {self} does not live at level {n}")
        return self.num * self.p ** (n - self.k)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PExp):
            return NotImplemented
        return self.p == other.p and self.num == other.num and self.k == other.k

    def __lt__(self, other: "PExp") -> bool:
        self._check(other)
        k = max(self.k, other.k)
        p = self.p
        return self.num * p ** (k - self.k) < other.num * p ** (k - other.k)

    def __hash__(self):
        return hash((self.p, self.num, self.k))

    def is_zero(self) -> bool:
        return self.num == 0

    def __repr__(self):
        if self.k == 0:
            return f"{self.num}"
        return f"{self.num}/{self.p}^{self.k}"
