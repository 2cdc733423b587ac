"""Property tests of the F_p[s] kernels against naive references."""
import pytest
from hypothesis import assume, given, settings, strategies as st

from almostalg.polys import poly_add, poly_divmod, poly_mul

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
    """Trimmed polynomials over F_p: dense ones (the empty list among them)
    and one-term ones c * s^k."""
    dense = st.lists(st.integers(0, p - 1), max_size=12).map(_trim)
    mono = st.builds(lambda c, k: [0] * k + [c],
                     st.integers(1, p - 1), st.integers(0, 12))
    return st.one_of(dense, mono)


@st.composite
def two_polys(draw):
    p = draw(st.sampled_from(PRIMES))
    return p, draw(polys(p)), draw(polys(p))


@settings(max_examples=300, deadline=None)
@given(two_polys())
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
