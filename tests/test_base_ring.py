from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from almostalg.base_ring import (
    BaseElem,
    RingConfig,
    divides_monomial,
    elem_mul,
    frobenius,
    frobenius_inv,
)
from almostalg.exponents import PExp


def test_config_constructors():
    v = RingConfig.perfect(2)
    assert v.is_char_p
    w = RingConfig.truncated(3, 2)
    assert w.is_char_p and w.trunc.as_fraction() == 2
    m = RingConfig.mixed(2, 3, 1)
    assert not m.is_char_p
    with pytest.raises(ValueError):
        RingConfig.perfect(4)


def test_pexp_canonical_form():
    # 2/4 at p=2 is 1/2: numerator coprime to p
    e = PExp.from_fraction(2, Fraction(2, 4))
    assert (e.num, e.k) == (1, 1)
    assert PExp(2, 4, 2) == PExp(2, 1, 0)
    with pytest.raises(ValueError):
        PExp.from_fraction(2, Fraction(1, 3))
    with pytest.raises(ValueError):
        PExp(2, -1, 0)


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
    v = RingConfig.perfect(2)
    t_half = BaseElem.monomial(v, Fraction(1, 2))
    t = BaseElem.monomial(v, 1)
    assert t_half * t_half == t
    assert t + t == BaseElem.zero(v)  # characteristic 2
    assert BaseElem.one(v) * t == t


def test_truncation_kills_high_exponents():
    w = RingConfig.truncated(2, 1)
    t_half = BaseElem.monomial(w, Fraction(1, 2))
    t_quarter = BaseElem.monomial(w, Fraction(1, 4))
    assert t_half * t_half == BaseElem.zero(w)  # exponent 1 >= trunc
    assert t_quarter * t_quarter == t_half


def test_frobenius_bijective_on_perfect_ring():
    v = RingConfig.perfect(3)
    x = BaseElem.monomial(v, Fraction(1, 3)) + BaseElem.monomial(v, 2, 2)
    y = frobenius(x)
    assert frobenius_inv(y) == x
    # Frobenius is additive and multiplicative in characteristic p
    z = BaseElem.monomial(v, Fraction(1, 9))
    assert frobenius(x + z) == frobenius(x) + frobenius(z)
    assert frobenius(elem_mul(x, z)) == elem_mul(frobenius(x), frobenius(z))


def test_mixed_mock_relation():
    # x^(p^n) = p and p^c = 0 in Z[x]/(x^(p^n) - p, p^c)
    m = RingConfig.mixed(2, 2, 1)
    x = BaseElem.monomial(m, Fraction(1, 4))
    x4 = elem_mul(elem_mul(x, x), elem_mul(x, x))
    assert x4 == BaseElem.zero(m)  # x^4 = p = 0 when c = 1
    m2 = RingConfig.mixed(2, 2, 2)
    x = BaseElem.monomial(m2, Fraction(1, 4))
    x4 = elem_mul(elem_mul(x, x), elem_mul(x, x))
    assert x4 == BaseElem.monomial(m2, 0, coef=2)  # x^4 = p, p^2 = 0


def test_divides_monomial():
    v = RingConfig.perfect(2)
    a = BaseElem.monomial(v, Fraction(1, 2))
    b = BaseElem.monomial(v, 1)
    assert divides_monomial(a, b)
    assert not divides_monomial(b, a)


def test_pexp_helpers():
    assert PExp(2, 1, 1).as_fraction() == Fraction(1, 2)
    assert PExp(2, 0, 3).is_zero()


def test_two_spellings_of_one_exponent_merge_to_a_reduced_coefficient():
    # 1/3 as a Fraction and as a PExp: 2 + 2 = 4 = 1 mod 3
    ring = RingConfig.perfect(3)
    x = BaseElem(ring, {Fraction(1, 3): 2, PExp(3, 1, 1): 2})
    assert x.terms == {PExp(3, 1, 1): 1}
    assert x == BaseElem.monomial(ring, Fraction(1, 3))
