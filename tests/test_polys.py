"""Property tests of the F_p[s] kernels against naive references; mul and
add also over Z/p^c, where nonzero coefficients can multiply to zero."""
import pytest
from hypothesis import assume, given, settings, strategies as st

from almostalg.polys import (
    poly_add,
    poly_divmod,
    poly_mul,
    poly_trim,
    poly_valuation,
)

PRIMES = (2, 3, 5, 7)


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def naive_add(a, b, p):
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    return _trim([(a[k] + b[k]) % p for k in range(n)])


def naive_mul(a, b, p):
    """Coefficient k is the sum of a_i * b_j over i + j = k."""
    if not a or not b:
        return []
    return _trim([sum(a[i] * b[k - i] for i in range(len(a))
                      if 0 <= k - i < len(b)) % p
                  for k in range(len(a) + len(b) - 1)])


def is_reduced(a, p):
    return (not a or a[-1] != 0) and all(0 <= c < p for c in a)


def polys(p):
    """Trimmed polynomials over Z/p: dense ones (the empty list among them)
    and one-term ones c * s^k."""
    dense = st.lists(st.integers(0, p - 1), max_size=12).map(_trim)
    mono = st.builds(lambda c, k: [0] * k + [c],
                     st.integers(1, p - 1), st.integers(0, 12))
    return st.one_of(dense, mono)


@st.composite
def two_polys(draw, max_c=1):
    """A modulus p^c, c <= max_c, and two polynomials over Z/p^c."""
    p = draw(st.sampled_from(PRIMES)) ** draw(st.integers(1, max_c))
    return p, draw(polys(p)), draw(polys(p))


@settings(max_examples=300, deadline=None)
@given(two_polys(max_c=3))
def test_mul_and_add_match_naive_reference(args):
    p, a, b = args
    prod, total = poly_mul(a, b, p), poly_add(a, b, p)
    assert prod == naive_mul(a, b, p)
    assert total == naive_add(a, b, p)
    assert is_reduced(prod, p) and is_reduced(total, p)


@settings(max_examples=300, deadline=None)
@given(two_polys())
def test_divmod_is_euclidean_division(args):
    p, a, b = args
    assume(b)
    q, r = poly_divmod(a, b, p)
    assert is_reduced(q, p) and is_reduced(r, p)
    assert len(r) < len(b)
    assert naive_add(naive_mul(q, b, p), r, p) == a


@pytest.mark.parametrize("p", PRIMES)
def test_divmod_by_zero_raises(p):
    for a in ([], [1], [0, 0, p - 1]):
        with pytest.raises(ZeroDivisionError):
            poly_divmod(a, [], p)


def naive_valuation(a):
    return next((i for i, c in enumerate(a) if c), -1)


def one_term(p, max_deg, min_coef=1):
    """c * s^k with k <= max_deg and min_coef <= c < p."""
    return st.builds(lambda c, k: [0] * k + [c],
                     st.integers(min_coef, p - 1), st.integers(0, max_deg))


@st.composite
def long_one_term_and_dense(draw):
    """A one-term operand of degree up to about 2000 with c != 1, and a
    short dense or one-term operand over the same field."""
    p = draw(st.sampled_from(PRIMES[1:]))
    return p, draw(one_term(p, 2000, min_coef=2)), draw(polys(p))


@settings(max_examples=100, deadline=None)
@given(long_one_term_and_dense())
def test_mul_by_long_one_term_matches_naive_reference(args):
    p, mono, other = args
    want = naive_mul(other, mono, p)  # the short operand drives the loop
    for prod in (poly_mul(mono, other, p), poly_mul(other, mono, p)):
        assert prod == want and is_reduced(prod, p)
    untrimmed = poly_mul(mono, other + [0] * 3, p)
    assert untrimmed == want


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(PRIMES).flatmap(
    lambda p: st.tuples(st.just(p), one_term(p, 40), one_term(p, 2000))))
def test_product_of_two_one_term_operands(args):
    p, short, long_ = args
    want = naive_mul(short, long_, p)
    assert len(want) - want.count(0) == 1
    assert poly_mul(short, long_, p) == want
    assert poly_mul(long_, short, p) == want


@pytest.mark.parametrize("q", PRIMES + (4, 9, 49))
def test_every_split_of_a_one_term_product(q):
    # tilt_basis_iso takes one basis product x^a * x^b per degree a + b;
    # every split of a degree up to 2 * 7^2 is checked here
    top = 2 * 7 ** 2
    for a in range(top + 1):
        for b in range(top + 1 - a):
            want = [0] * (a + b) + [1]
            assert poly_mul([0] * a + [1], [0] * b + [1], q) == want, (a, b)


@st.composite
def dividend_and_long_one_term(draw):
    p = draw(st.sampled_from(PRIMES))
    b = draw(one_term(p, 2000))
    # a = low + s^shift * high: the low part lands in the remainder when
    # the shift reaches deg b, and the quotient stays short
    low, high = draw(polys(p)), draw(polys(p))
    shift = draw(st.integers(0, len(b) + 20))
    a = naive_add(low, [0] * shift + high if high else [], p)
    return p, a, b


@settings(max_examples=150, deadline=None)
@given(dividend_and_long_one_term())
def test_divmod_by_long_one_term_is_euclidean_division(args):
    p, a, b = args
    q, r = poly_divmod(a, b, p)
    assert is_reduced(q, p) and is_reduced(r, p)
    assert len(r) < len(b)
    assert naive_add(naive_mul(q, b, p), r, p) == a


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(PRIMES).flatmap(polys),
       st.integers(0, 3000), st.integers(0, 3000))
def test_trim_and_valuation_on_long_zero_runs(a, lead, tail):
    padded = [0] * lead + a + [0] * tail
    assert poly_trim(list(padded)) == _trim(list(padded))
    assert poly_valuation(padded) == naive_valuation(padded)
    assert poly_trim([0] * tail) == [] and poly_valuation([0] * tail) == -1


@settings(max_examples=200, deadline=None)
@given(two_polys(), st.integers(0, 3), st.integers(0, 3))
def test_mul_of_untrimmed_operands_is_trimmed_product(args, za, zb):
    p, a, b = args
    prod = poly_mul(a + [0] * za, b + [0] * zb, p)
    assert prod == naive_mul(a, b, p) and is_reduced(prod, p)
