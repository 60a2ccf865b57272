from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fanocalc import schubert
from fanocalc.rings import GradedElement, line_ring
from fanocalc.schubert import (
    ChowElement,
    GrassmannContext,
    as_partition,
    giambelli,
    integrate,
    multiply,
    pieri,
    sigma,
    tautological_dual,
)
from oracles import gaussian_binomial, horizontal_strips_brute, schubert_product

G24 = GrassmannContext(2, 4)
G25 = GrassmannContext(2, 5)
G36 = GrassmannContext(3, 6)


def boxed_partitions(ctx):
    return st.lists(
        st.integers(1, ctx.cols), min_size=0, max_size=ctx.rows
    ).map(lambda xs: tuple(sorted(xs, reverse=True)))


def elements(ctx):
    return st.dictionaries(
        boxed_partitions(ctx), st.integers(-5, 5), max_size=3
    ).map(lambda terms: ChowElement(ctx, terms))


# -- contexts and partitions -------------------------------------------------

def test_projective_conversion_round_trips():
    assert GrassmannContext.from_projective(1, 4) == GrassmannContext(2, 5)
    for a in range(0, 4):
        for b in range(a + 1, 6):
            ctx = GrassmannContext.from_projective(a, b)
            assert ctx.to_projective() == (a, b)


def test_context_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        GrassmannContext(0, 3)
    with pytest.raises(ValueError):
        GrassmannContext(3, 3)


def test_context_rejects_inexact_dimensions():
    # GrassmannContext(1.5, 4) was G(0.5,3) with top degree 3.75, and True passed as 1
    for k, n, name in ((1.5, 4, "k"), (True, 3, "k"), (2, 4.0, "n")):
        with pytest.raises(ValueError, match=f"{name} must be an int"):
            GrassmannContext(k, n)


def test_partition_normalization():
    assert as_partition([3, 2, 0, 0]) == (3, 2)
    with pytest.raises(ValueError):
        as_partition([1, 2])
    with pytest.raises(ValueError):
        as_partition([2, -1])


def test_sigma_out_of_box_is_zero():
    assert not sigma(G24, 3)
    assert not sigma(G24, 1, 1, 1)
    assert sigma(G24, 2, 2).terms == {(2, 2): 1}


def test_elements_reject_out_of_box_terms():
    with pytest.raises(ValueError):
        ChowElement(G24, {(3,): 1})


@pytest.mark.parametrize("n", range(2, 10))
def test_partitions_are_counted_by_gaussian_binomials(n):
    for k in range(1, n):
        ctx = GrassmannContext(k, n)
        every = list(ctx.partitions())
        assert len(every) == len(set(every)) == comb(n, k)
        assert all(ctx.fits(p) and as_partition(p) == p for p in every)
        counts = gaussian_binomial(n, k)
        assert len(counts) == ctx.top_degree + 1
        for w in range(-1, ctx.top_degree + 2):
            by_weight = list(ctx.partitions(w))
            assert len(by_weight) == (counts[w] if 0 <= w < len(counts) else 0)
            assert all(sum(p) == w for p in by_weight)


# -- the public constructor -----------------------------------------------------

def test_equal_keys_add():
    # the key (2,1,0) once overwrote (2,1) instead of adding to it
    assert ChowElement(G36, {(2, 1, 0): 1, (2, 1): 1}).terms == {(2, 1): 2}
    assert ChowElement(G36, {(2, 1, 0): 1, (2, 1): 1}) == 2 * sigma(G36, 2, 1)


def test_equal_keys_cancel_to_zero():
    x = ChowElement(G24, {(1, 0): 2, (1,): -2})
    assert not x
    assert x.terms == {}


def test_inexact_parts_rejected():
    # int() once truncated 2.2 to 2, 1.9 to 1, '2' to 2 and True to 1
    with pytest.raises(ValueError):
        ChowElement(G36, {(2.2, 1): 4})
    with pytest.raises(ValueError):
        sigma(G36, 1.9, 1)
    with pytest.raises(ValueError):
        as_partition(["2", True])


def test_constructor_is_for_the_ring_element_class():
    with pytest.raises(TypeError):
        ChowElement(line_ring(3), {(1,): 1})
    with pytest.raises(TypeError):
        GradedElement(G24, {(1,): 1})


@st.composite
def padded_terms(draw, ctx):
    """Raw terms whose keys pad partitions with trailing zeros, so that one
    partition may come under several keys, and the sum they stand for."""
    entries = draw(st.lists(
        st.tuples(boxed_partitions(ctx), st.integers(0, ctx.rows + 1), st.integers(-4, 4)),
        max_size=6,
    ))
    terms: dict = {}
    expected = ctx.zero()
    for lam, pad, c in entries:
        key = lam + (0,) * pad
        terms[key] = terms.get(key, 0) + c
        expected = expected + c * sigma(ctx, *lam)
    return terms, expected


@pytest.mark.parametrize("ctx", [G25, G36])
@given(data=st.data())
def test_padded_keys_give_the_sum_of_their_classes(ctx, data):
    terms, expected = data.draw(padded_terms(ctx))
    x = ChowElement(ctx, terms)
    assert x == expected
    assert all(x.terms.values())
    assert all(ctx.key(p) == p for p in x.terms)


# -- Pieri --------------------------------------------------------------------

def test_pieri_square_of_hyperplane_class():
    assert pieri(sigma(G25, 1), 1) == sigma(G25, 2) + sigma(G25, 1, 1)


def test_pieri_kills_s22_times_s2():
    assert not pieri(sigma(G25, 2, 2), 2)


def test_pieri_on_zero_is_zero():
    assert not pieri(G25.zero(), 3)


def test_pieri_rejects_nonpositive_index():
    with pytest.raises(ValueError):
        pieri(sigma(G25, 1), 0)


@pytest.mark.parametrize("bad", [True, False, 2.0])
def test_pieri_index_must_be_an_int(bad):
    with pytest.raises(ValueError, match=f"Pieri index must be an int, got {bad!r}"):
        pieri(sigma(G25, 1), bad)


@pytest.mark.parametrize("ctx", [G24, G25])
def test_pieri_matches_tableau_oracle_exhaustively(ctx):
    for lam in ctx.partitions():
        for a in range(1, ctx.cols + 1):
            expected = schubert_product(ctx.k, ctx.cols, lam, (a,))
            assert pieri(sigma(ctx, *lam), a).terms == expected


@pytest.mark.parametrize("n", range(2, 10))
def test_strip_table_matches_interlacing_oracle_exhaustively(n):
    for k in range(1, n):
        ctx = GrassmannContext(k, n)
        for lam in ctx.partitions():
            for a in range(ctx.cols + 2):
                strips = schubert._horizontal_strips(lam, a, ctx.rows, ctx.cols)
                assert isinstance(strips, tuple)
                assert len(set(strips)) == len(strips)
                assert set(strips) == set(horizontal_strips_brute(lam, a, ctx.rows, ctx.cols))


@st.composite
def strip_keys(draw):
    n = draw(st.integers(2, 16))
    ctx = GrassmannContext(draw(st.integers(1, n - 1)), n)
    return draw(boxed_partitions(ctx)), draw(st.integers(0, ctx.cols + 1)), ctx.rows, ctx.cols


@given(strip_keys())
def test_strip_table_matches_interlacing_oracle_up_to_n_16(key):
    strips = schubert._horizontal_strips(*key)
    assert len(set(strips)) == len(strips)
    assert set(strips) == set(horizontal_strips_brute(*key))


def test_pieri_steps_are_counted_on_a_filled_strip_table(monkeypatch):
    # With every strip of G(2,4) and G(2,5) already tabulated, the products
    # below hit the table only, and still make one Pieri step per factor.
    for ctx in (G24, G25):
        for lam in ctx.partitions():
            for a in range(1, ctx.cols + 1):
                schubert._horizontal_strips(lam, a, ctx.rows, ctx.cols)
    table = schubert._horizontal_strips.cache_info()
    assert table.maxsize is not None and table.maxsize == schubert.STRIP_TABLE_SIZE
    pieris = []
    real_pieri = schubert.pieri
    monkeypatch.setattr(schubert, "pieri", lambda x, a: pieris.append(a) or real_pieri(x, a))
    assert sigma(G24, 1) ** 4 == 2 * sigma(G24, 2, 2)
    assert len(pieris) == 4
    pieris.clear()
    assert integrate(sigma(G25, 1) ** G25.top_degree) == 5
    assert len(pieris) == G25.top_degree
    after = schubert._horizontal_strips.cache_info()
    assert after.misses == table.misses and after.hits > table.hits


# -- Giambelli ----------------------------------------------------------------

def test_giambelli_single_row_is_itself():
    assert giambelli(G25, (3,)) == sigma(G25, 3)


def test_giambelli_two_by_two_determinants():
    # s[2,1] = s2*s1 - s3 and s[1,1] = s1^2 - s2, checked against Pieri
    assert giambelli(G25, (2, 1)) == sigma(G25, 2, 1)
    assert giambelli(G25, (1, 1)) == sigma(G25, 1, 1)
    s1, s2, s3 = sigma(G25, 1), sigma(G25, 2), sigma(G25, 3)
    assert s2 * s1 - s3 == sigma(G25, 2, 1)
    assert s1 * s1 - s2 == sigma(G25, 1, 1)


def test_giambelli_rejects_out_of_box():
    with pytest.raises(ValueError):
        giambelli(G24, (3,))


@pytest.mark.parametrize("ctx", [G24, G25])
def test_giambelli_reproduces_every_boxed_class(ctx):
    for lam in ctx.partitions():
        assert giambelli(ctx, lam) == sigma(ctx, *lam)


# -- multiplication -----------------------------------------------------------

def test_square_of_c1_in_schubert_basis():
    assert sigma(G25, 1) * sigma(G25, 1) == sigma(G25, 2) + sigma(G25, 1, 1)


def test_s11_times_s2():
    assert sigma(G25, 1, 1) * sigma(G25, 2) == sigma(G25, 3, 1)


def test_unit_is_identity():
    x = 3 * sigma(G25, 2, 1) - sigma(G25, 1)
    assert G25.one() * x == x


def test_zero_absorbs():
    assert not G25.zero() * sigma(G25, 2)


def test_context_mismatch_rejected():
    with pytest.raises(ValueError):
        multiply(sigma(G24, 1), sigma(G25, 1))


@pytest.mark.parametrize("ctx", [G24, G25])
def test_multiply_matches_tableau_oracle_exhaustively(ctx):
    for lam in ctx.partitions():
        for mu in ctx.partitions():
            expected = schubert_product(ctx.k, ctx.cols, lam, mu)
            assert multiply(sigma(ctx, *lam), sigma(ctx, *mu)).terms == expected


def test_multiply_matches_oracle_on_bigger_box():
    for lam, mu in [((2, 1), (2, 1)), ((3, 2), (2, 1, 1)), ((2, 2, 1), (3,))]:
        expected = schubert_product(G36.k, G36.cols, lam, mu)
        assert multiply(sigma(G36, *lam), sigma(G36, *mu)).terms == expected


@st.composite
def boxed_pairs(draw):
    k = draw(st.integers(1, 4))
    ctx = GrassmannContext(k, draw(st.integers(k + 1, 9)))
    return ctx, draw(boxed_partitions(ctx)), draw(boxed_partitions(ctx))


@given(boxed_pairs())
def test_multiply_matches_oracle_up_to_g49(pair):
    ctx, lam, mu = pair
    expected = schubert_product(ctx.k, ctx.cols, lam, mu)
    assert multiply(sigma(ctx, *lam), sigma(ctx, *mu)).terms == expected


@pytest.mark.parametrize("lam", [(7, 6, 5, 4, 3, 2, 1), (2,) * 7])
def test_giambelli_seven_rows(lam):
    assert giambelli(GrassmannContext(7, 14), lam).terms == {lam: 1}


@given(elements(G25), elements(G25))
def test_multiply_commutes(x, y):
    assert multiply(x, y) == multiply(y, x)


@given(elements(G25), elements(G25), elements(G25))
def test_multiply_associates(x, y, z):
    assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))


@given(boxed_partitions(G25), boxed_partitions(G25))
def test_grading(lam, mu):
    product = multiply(sigma(G25, *lam), sigma(G25, *mu))
    for parts in product.terms:
        assert sum(parts) == sum(lam) + sum(mu)


# -- cancellation inside the kernels -------------------------------------------

def bilinear_expansion(ctx, x, y_terms):
    """``x * sum(d * sigma_mu)`` term by term through the tableau oracle,
    with cancelled coefficients dropped."""
    out: dict = {}
    for lam, c in x.terms.items():
        for mu, d in y_terms.items():
            for nu, e in schubert_product(ctx.k, ctx.cols, lam, mu).items():
                out[nu] = out.get(nu, 0) + c * d * e
    return {nu: c for nu, c in out.items() if c}


@st.composite
def cancelling_elements(draw, ctx):
    """A mixed-sign element plus c * (sigma_lam - sigma_mu) with lam and mu of
    one weight, whose products share terms that cancel."""
    same_weight = st.sampled_from(list(ctx.partitions(draw(st.integers(0, ctx.top_degree)))))
    lam, mu, c = draw(same_weight), draw(same_weight), draw(st.integers(-5, 5))
    return draw(elements(ctx)) + c * (sigma(ctx, *lam) - sigma(ctx, *mu))


@st.composite
def pieri_cases(draw):
    ctx = draw(st.sampled_from([G25, G36]))
    return ctx, draw(cancelling_elements(ctx)), draw(st.integers(1, ctx.cols))


@st.composite
def element_pairs(draw):
    ctx = draw(st.sampled_from([G25, G36]))
    return ctx, draw(cancelling_elements(ctx)), draw(cancelling_elements(ctx))


@given(pieri_cases())
def test_pieri_of_mixed_signs_is_zero_free_and_bilinear(case):
    ctx, x, a = case
    product = pieri(x, a)
    assert all(product.terms.values())
    assert product.terms == bilinear_expansion(ctx, x, {(a,): 1})


@given(element_pairs())
def test_multiply_of_mixed_signs_is_zero_free_and_bilinear(case):
    ctx, x, y = case
    product = multiply(x, y)
    assert all(product.terms.values())
    assert product.terms == bilinear_expansion(ctx, x, y.terms)


def test_cancelled_classes_leave_no_key():
    # s1 * (s2 - s11) = (s3 + s21) - (s21 + s111) on G(3,6)
    difference = sigma(G36, 2) - sigma(G36, 1, 1)
    expected = sigma(G36, 3) - sigma(G36, 1, 1, 1)
    for product in (pieri(difference, 1), multiply(sigma(G36, 1), difference)):
        assert product == expected
        assert (2, 1) not in product.terms
    # the Giambelli expansion s1 * (s1*s1 - s2) cancels s3 in its partial sum
    assert multiply(sigma(G36, 1), sigma(G36, 1, 1)).terms == {(2, 1): 1, (1, 1, 1): 1}


# -- results are fresh dicts ---------------------------------------------------

@st.composite
def aliasing_cases(draw):
    ctx = draw(st.sampled_from([G25, G36]))
    x, y = draw(elements(ctx)), draw(elements(ctx))
    return ctx, x, y, draw(st.integers(0, 4)), draw(st.integers(1, ctx.cols)), draw(boxed_partitions(ctx))


@given(aliasing_cases())
def test_products_leave_their_operands_alone_and_share_no_terms(case):
    # the kernels keep fresh Pieri and Giambelli dicts as their results, so
    # no result may be an operand's dict, and no operand may be changed
    ctx, x, y, n, a, lam = case
    one = ctx.one()
    operands = (x, y, one)
    before = [dict(z.terms) for z in operands]
    results = [
        multiply(x, y),
        multiply(y, x),
        multiply(x, x),
        x * one,
        one * x,
        x**n,
        pieri(x, a),
        giambelli(ctx, lam),
        giambelli(ctx, lam),
    ]
    assert [z.terms for z in operands] == before
    for i, result in enumerate(results):
        assert all(result.terms is not z.terms for z in operands)
        assert all(result.terms is not other.terms for other in results[:i])


# -- integration and duality --------------------------------------------------

def test_integrate_examples():
    assert integrate(sigma(G25, 1, 1) * sigma(G25, 2) * sigma(G25, 2)) == 1
    assert integrate(sigma(G25, 1) ** 6) == 5
    assert integrate(sigma(G25, 3, 3)) == 1
    assert integrate(G25.zero()) == 0


def test_power_beyond_top_degree_is_zero_without_products(monkeypatch):
    calls = []
    real_pieri = schubert.pieri

    def counting_pieri(x, a):
        calls.append(a)
        return real_pieri(x, a)

    monkeypatch.setattr(schubert, "pieri", counting_pieri)
    assert not sigma(G24, 1) ** 300000
    assert not G24.zero() ** 300000
    assert len(calls) == 0
    assert sigma(G24, 1) ** 4 == 2 * sigma(G24, 2, 2)
    assert len(calls) == 4
    assert G24.one() ** 3 == G24.one()
    assert G24.zero() ** 0 == G24.one()


def counting_multiply(monkeypatch):
    calls = []
    real_multiply = schubert.multiply

    def counting(x, y):
        calls.append((x, y))
        return real_multiply(x, y)

    monkeypatch.setattr(schubert, "multiply", counting)
    return calls


def test_power_with_weight_zero_part_makes_at_most_top_degree_products(monkeypatch):
    expected = sum(
        (comb(20000, i) * sigma(G25, 1) ** i for i in range(G25.top_degree + 1)),
        G25.zero(),
    )
    calls = counting_multiply(monkeypatch)
    assert (G25.one() + sigma(G25, 1)) ** 20000 == expected
    assert len(calls) <= G25.top_degree
    calls.clear()
    assert G25.one() ** 10**9 == G25.one()
    assert (3 * G25.one()) ** 40 == 3**40 * G25.one()
    assert len(calls) == 0


def test_plucker_power_is_one_pieri_step_per_factor(monkeypatch):
    calls = counting_multiply(monkeypatch)
    pieris = []
    real_pieri = schubert.pieri
    monkeypatch.setattr(schubert, "pieri", lambda x, a: pieris.append(a) or real_pieri(x, a))
    assert integrate(sigma(G25, 1) ** G25.top_degree) == 5
    assert len(calls) == len(pieris) == G25.top_degree


@given(
    st.dictionaries(boxed_partitions(G24), st.integers(-3, 3), max_size=4),
    st.integers(0, 7),
)
def test_power_equals_repeated_product(terms, exponent):
    x = ChowElement(G24, terms)
    chain = G24.one()
    for _ in range(exponent):
        chain = multiply(chain, x)
    assert x**exponent == chain


def test_integrate_rejects_non_top_degree():
    with pytest.raises(ValueError):
        integrate(sigma(G25, 1))
    with pytest.raises(ValueError):
        integrate(sigma(G25, 3, 3) + sigma(G25, 1))


@pytest.mark.parametrize("ctx", [G24, G25])
def test_poincare_duality_pairing(ctx):
    for lam in ctx.partitions():
        comp = ctx.complement(lam)
        for mu in ctx.partitions(weight=ctx.top_degree - sum(lam)):
            pairing = integrate(multiply(sigma(ctx, *lam), sigma(ctx, *mu)))
            assert pairing == (1 if mu == comp else 0)


# -- tautological bundle -------------------------------------------------------

def test_tautological_dual_chern_classes():
    ub = tautological_dual(G25)
    assert ub.chern[0] == sigma(G25, 1)
    assert ub.chern[1] == sigma(G25, 1, 1)
    assert tautological_dual(G24).rank == 2
