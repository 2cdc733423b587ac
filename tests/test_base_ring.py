from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from almostalg.base_ring import RingConfig
from almostalg.exponents import PExp
from almostalg.linalg import lift_poly, reduce_mod
from almostalg.modules import ring_modulus
from almostalg.polys import poly_add, poly_mul
from almostalg.tower import mixed_mock_reduce


def test_config_constructors():
    v = RingConfig.perfect(2)
    assert v.trunc is None
    w = RingConfig.truncated(3, 2)
    assert w.trunc.as_fraction() == 2
    with pytest.raises(ValueError):
        RingConfig.perfect(4)
    with pytest.raises(ValueError):
        RingConfig.truncated(2, 0)
    with pytest.raises(ValueError):
        RingConfig(2, "mixed-mock")


def test_pexp_canonical_form():
    # 2/4 at p=2 is 1/2: numerator coprime to p
    e = PExp.from_fraction(2, Fraction(2, 4))
    assert (e.num, e.k) == (1, 1)
    assert PExp(2, 4, 2) == PExp(2, 1, 0)
    with pytest.raises(ValueError):
        PExp.from_fraction(2, Fraction(1, 3))
    with pytest.raises(ValueError):
        PExp(2, -1, 0)


def test_pexp_refuses_a_decimal_exponent_past_the_digit_limit():
    # Fraction("1e5000") would build 10^5000, and "1e10000000" took
    # seconds before any size limit saw it
    assert PExp.from_fraction(2, "1e3") == PExp(2, 1000)
    assert PExp.from_fraction(2, "25E-2") == PExp(2, 1, 2)
    for text in ("1e5000", "1E+5000", "2.5e-5000", "1e10000000"):
        with pytest.raises(ValueError, match="decimal exponent"):
            PExp.from_fraction(2, text)


@given(st.sampled_from((2, 3, 5)), st.integers(0, 40), st.integers(0, 3),
       st.integers(0, 40), st.integers(0, 3), st.integers(-4, 4))
def test_pexp_arith_matches_fractions(p, a, i, b, j, s):
    # PExp is the library's one exponent type; Fraction is the reference
    x, y = PExp(p, a, i), PExp(p, b, j)
    fx, fy = x.as_fraction(), y.as_fraction()
    assert PExp.from_fraction(p, fx) == x
    assert PExp.from_fraction(p, x) is x
    assert (x + y).as_fraction() == fx + fy
    assert (x < y) == (fx < fy) and (x <= y) == (fx <= fy)
    assert (x == y) == (fx == fy)
    if x == y:
        assert hash(x) == hash(y)
    assert min(x, y).as_fraction() == min(fx, fy)
    assert max(x, y).as_fraction() == max(fx, fy)
    assert x.scale_pow(s).as_fraction() == fx * Fraction(p) ** s
    n = max(i, j)
    assert x.to_int_at_level(n) == fx * p ** n
    if fx >= fy:
        assert (x - y).as_fraction() == fx - fy
    else:
        with pytest.raises(ValueError):
            x - y


def test_to_int_at_level():
    e = PExp(2, 3, 2)  # 3/4
    assert e.to_int_at_level(2) == 3
    assert e.to_int_at_level(4) == 12
    with pytest.raises(ValueError):
        e.to_int_at_level(1)


def test_elem_arith_perfect():
    # at level 1 over p = 2 an element of V is a list in s = t^(1/2)
    t_half, t = [0, 1], [0, 0, 1]
    assert poly_mul(t_half, t_half, 2) == t
    assert poly_add(t, t, 2) == []  # characteristic 2
    assert poly_mul([1], t, 2) == t


def test_truncation_kills_high_exponents():
    # V/(t) at level 2: lists in s = t^(1/4), reduced mod s^4
    m = ring_modulus(RingConfig.truncated(2, 1), 2)
    t_half, t_quarter = [0, 0, 1], [0, 1]
    assert reduce_mod(poly_mul(t_half, t_half, 2), m) == []  # t^1 = 0
    assert reduce_mod(poly_mul(t_quarter, t_quarter, 2), m) == t_half


def test_frobenius_bijective_on_perfect_ring():
    # at level 2 over p = 3 (s = t^(1/9)) Frobenius x -> x^3 sends s to
    # s^3: it is the level lift read at the same level, and taking every
    # third coefficient inverts it
    p = 3
    x = [0, 0, 0, 1] + [0] * 14 + [2]  # t^(1/3) + 2 t^2
    z = [0, 1]  # t^(1/9)

    def frob(f):
        return lift_poly(f, 1, p)

    assert frob(x) == poly_mul(poly_mul(x, x, p), x, p)
    assert frob(x)[::p] == x
    # Frobenius is additive and multiplicative in characteristic p
    assert frob(poly_add(x, z, p)) == poly_add(frob(x), frob(z), p)
    assert frob(poly_mul(x, z, p)) == poly_mul(frob(x), frob(z), p)


def test_mixed_mock_relation():
    # x^(p^n) = p and p^c = 0 in Z[x]/(x^(p^n) - p, p^c), at p = 2, n = 2
    x2 = poly_mul([0, 1], [0, 1], 4)
    x4 = poly_mul(x2, x2, 4)
    assert mixed_mock_reduce(x4, 2, 2, 1) == []  # x^4 = p = 0 when c = 1
    assert mixed_mock_reduce(x4, 2, 2, 2) == [2]  # x^4 = p
    assert mixed_mock_reduce([3, 0, 1, 0, 0, 1], 2, 2, 2) == [3, 2, 1]
    # x^8 = p^2 = 0 at c = 2, folded once through each x^4
    assert mixed_mock_reduce(poly_mul(x4, x4, 4), 2, 2, 2) == []


def test_pexp_helpers():
    assert PExp(2, 1, 1).as_fraction() == Fraction(1, 2)
    assert PExp(2, 0, 3).is_zero()

