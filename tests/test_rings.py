from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fanocalc.rings import PolyElement, TruncatedPolynomialRing, line_ring
from fanocalc.schubert import ChowElement, GrassmannContext, sigma

RING = TruncatedPolynomialRing(("a", "b"), (1, 2), truncation=5)


def ring_elements(ring=RING):
    nv = len(ring.variables)
    exps = st.tuples(*(st.integers(0, 3) for _ in range(nv)))
    return st.dictionaries(exps, st.integers(-7, 7), max_size=4).map(
        lambda terms: PolyElement(ring, terms)
    )


@given(ring_elements(), ring_elements(), ring_elements())
def test_ring_axioms(x, y, z):
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + RING.zero() == x
    assert x * RING.one() == x
    assert x - x == RING.zero()
    assert 3 * x == x + x + x


@given(ring_elements(), ring_elements())
def test_truncation_is_multiplicative(x, y):
    dx, dy = RING.degree(_top_part(x)), RING.degree(_top_part(y))
    if dx is not None and dy is not None and dx + dy > RING.truncation:
        assert not _top_part(x) * _top_part(y)


def _top_part(x):
    if not x.terms:
        return x
    top = max(sum(e * d for e, d in zip(exps, RING.degrees)) for exps in x.terms)
    return PolyElement(
        RING,
        {
            exps: c
            for exps, c in x.terms.items()
            if sum(e * d for e, d in zip(exps, RING.degrees)) == top
        },
    )


def test_generator_degrees():
    a, b = RING.gens
    assert RING.degree(a) == 1
    assert RING.degree(b) == 2
    assert RING.degree(a * b) == 3
    assert RING.degree(RING.zero()) is None


def test_mixed_degree_rejected():
    a, b = RING.gens
    with pytest.raises(ValueError):
        RING.degree(a + b)


def test_power_truncates():
    h_ring = line_ring(3, top_integral=4)
    h = h_ring.gen()
    assert not h ** 4
    assert (h ** 3).coefficient((3,)) == 1


def counting_products(monkeypatch):
    calls = []
    real_mul = PolyElement.__mul__

    def counting(x, y):
        if isinstance(y, PolyElement):
            calls.append((x, y))
        return real_mul(x, y)

    monkeypatch.setattr(PolyElement, "__mul__", counting)
    return calls


def test_power_stops_once_zero(monkeypatch):
    h = line_ring(3).gen()
    calls = counting_products(monkeypatch)
    assert not h ** 200000
    assert len(calls) == 0


def test_power_with_constant_term_makes_at_most_truncation_products(monkeypatch):
    ring = line_ring(3)
    h = ring.gen()
    n = 5000
    expected = PolyElement(ring, {(i,): comb(n, i) * 2 ** (n - i) for i in range(4)})
    calls = counting_products(monkeypatch)
    assert (2 * ring.one() + h) ** n == expected
    assert len(calls) <= ring.truncation


@given(ring_elements(), st.integers(0, 6))
def test_power_equals_repeated_product(x, exponent):
    chain = RING.one()
    for _ in range(exponent):
        chain = chain * x
    assert x**exponent == chain


def test_integral_uses_declared_intersection_number():
    h_ring = line_ring(3, top_integral=4)
    h = h_ring.gen()
    assert h_ring.integral(5 * h ** 3) == 20
    assert h_ring.integral(h_ring.zero()) == 0
    with pytest.raises(ValueError):
        h_ring.integral(h)
    with pytest.raises(ValueError):
        line_ring(3).integral(h_ring.one())


def test_foreign_elements_rejected():
    other = line_ring(5)
    with pytest.raises(ValueError):
        RING.gens[0] + other.gen()
    with pytest.raises(ValueError):
        RING.gens[0] * other.gen()
    with pytest.raises(ValueError):
        line_ring(4).gen() * other.gen()
    with pytest.raises(ValueError):
        RING.degree(other.gen())
    with pytest.raises(ValueError):
        RING.degree(3)


def test_equal_rings_built_apart_combine():
    # ring checks try identity first, then fall back to equality
    first, second = line_ring(4), line_ring(4)
    assert first is not second
    x, y = 2 * first.gen(), second.one() + second.gen()
    assert (x + y).terms == {(0,): 1, (1,): 3}
    assert (x * y).terms == {(1,): 2, (2,): 2}
    assert (y * x) == x * y and (y + x) == x + y
    assert first.degree(second.gen() ** 2) == 2 and second.degree(x) == 1


@given(ring_elements(), ring_elements())
def test_product_matches_full_expansion(x, y):
    # every pair of terms, then the truncation; cancelled keys disappear
    full: dict = {}
    for e1, c1 in x.terms.items():
        for e2, c2 in y.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            full[e] = full.get(e, 0) + c1 * c2
    product = x * y
    assert product.terms == PolyElement(RING, full).terms
    assert all(product.terms.values())


def test_display():
    a, b = RING.gens
    assert str(2 * a + a * b - RING.one()) == "-1 + 2*a + a*b"
    assert str(RING.zero()) == "0"


# -- the validating constructor ------------------------------------------------

def test_key_of_wrong_length_rejected():
    # {(1, 2): 5} on a one-generator ring printed as 5*h but was not 5*h
    with pytest.raises(ValueError):
        PolyElement(line_ring(3), {(1, 2): 5})


def test_negative_exponent_rejected():
    # {(-1,): 1} was h^-1, printed as 1 and had degree -1
    with pytest.raises(ValueError):
        PolyElement(line_ring(3), {(-1,): 1})


def test_empty_key_rejected():
    # {(): 1} printed as 1 but was not the unit
    with pytest.raises(ValueError):
        PolyElement(line_ring(3), {(): 1})


def test_generator_above_the_truncation_is_zero():
    ring = TruncatedPolynomialRing(("a", "b"), (1, 3), truncation=2)
    assert ring.gens[1] == ring.zero()
    assert ring.gens[1].terms == {}


@given(st.dictionaries(st.tuples(st.integers(0, 7), st.integers(0, 4)), st.integers(-7, 7)))
def test_keys_above_truncation_are_dropped(terms):
    a, b = RING.gens
    x = PolyElement(RING, terms)
    in_range = [(i, j, c) for (i, j), c in terms.items() if i + 2 * j <= RING.truncation]
    assert x == sum((c * a**i * b**j for i, j, c in in_range), RING.zero())
    assert all(x.terms.values())
    assert all(RING.key_degree(e) <= RING.truncation for e in x.terms)


def test_polynomial_constructor_is_for_its_ring():
    with pytest.raises(TypeError):
        PolyElement(GrassmannContext(2, 4), {(1,): 1})


def test_inexact_coefficients_rejected():
    # int() once truncated 2.5 to 2 and stored Fraction(1, 2) as a zero term
    for c in (2.5, Fraction(1, 2)):
        with pytest.raises(TypeError):
            PolyElement(line_ring(3), {(1,): c})
        with pytest.raises(TypeError):
            ChowElement(GrassmannContext(2, 4), {(1,): c})


# -- one integer rule: coefficients, scalars and exponents ---------------------

SIGMA_1 = sigma(GrassmannContext(2, 4), 1)


def test_bool_times_element_is_refused():
    # True * s1 was s1
    with pytest.raises(TypeError):
        True * SIGMA_1
    with pytest.raises(TypeError):
        True * RING.gens[0]


def test_element_times_bool_is_refused():
    # s1 * False was 0
    with pytest.raises(TypeError):
        SIGMA_1 * False
    with pytest.raises(TypeError):
        RING.gens[0] * False


def test_bool_exponent_is_refused():
    # s1 ** True was s1
    with pytest.raises(ValueError):
        SIGMA_1 ** True
    with pytest.raises(ValueError):
        RING.gens[0] ** False


def test_coefficient_lookup_checks_its_key():
    # coefficient([1.0]) was 1, though the constructor refuses the key (1.0,)
    h = line_ring(3).gen()
    with pytest.raises(ValueError):
        h.coefficient([1.0])
    with pytest.raises(ValueError):
        h.coefficient([True])
    assert h.coefficient([1]) == 1 and h.coefficient((4,)) == 0


def test_bool_coefficient_is_refused():
    with pytest.raises(TypeError):
        PolyElement(line_ring(3), {(1,): True})


def test_integer_like_scalars_and_exponents_pass_operator_index():
    class Two:
        def __index__(self):
            return 2

    h = line_ring(3).gen()
    assert Two() * h == h * Two() == 2 * h
    assert h ** Two() == h * h
    assert SIGMA_1 * Two() == 2 * SIGMA_1
    with pytest.raises(TypeError):
        2.0 * h
