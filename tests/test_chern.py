import importlib.util
import json
import os
import subprocess
import sys
from itertools import combinations, combinations_with_replacement
from math import comb, factorial, prod
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fanocalc import chern, schubert
from fanocalc.chern import (
    FormalBundle,
    chern_class,
    dual,
    ext_power,
    line_bundle,
    sym_power,
    top_chern,
    trivial_bundle,
    twist_line,
    whitney_sum,
)
from fanocalc.rings import TruncatedPolynomialRing, line_ring
from fanocalc.schubert import GrassmannContext, integrate, sigma, tautological_dual
from oracles import (
    _elementary_product,
    m_times_e_brute,
    power_epolys_brute,
    split_power_chern,
    substitute_by_terms,
    twist_binomial,
    whitney_convolution,
)

P3 = line_ring(3, top_integral=1)
H = P3.gen()


def split_bundle(ring, multiples):
    bundle = trivial_bundle(ring, 0)
    h = ring.gen()
    for a in multiples:
        bundle = whitney_sum(bundle, line_bundle(ring, a * h))
    return bundle


def classes(b):
    """``c_1..c_min(rank, truncation)`` of a bundle, zero classes included."""
    return [chern_class(b, i) for i in range(1, min(b.rank, b.ring.truncation) + 1)]


def total_class(b):
    return sum(b.chern, b.ring.one())


# Summands on a Grassmannian: U*, its dual U, the trivial line O, and the
# lines O(m sigma_1).
PIECES = st.one_of(st.sampled_from(["U*", "U", "O"]), st.integers(-2, 2))


def grassmann_sum(ctx, pieces):
    bundle = trivial_bundle(ctx, 0)
    for piece in pieces:
        if piece == "U*":
            summand = tautological_dual(ctx)
        elif piece == "U":
            summand = dual(tautological_dual(ctx))
        elif piece == "O":
            summand = trivial_bundle(ctx, 1)
        else:
            summand = line_bundle(ctx, piece * sigma(ctx, 1))
        bundle = whitney_sum(bundle, summand)
    return bundle


# -- Whitney sums -------------------------------------------------------------

def test_whitney_binomial_example():
    b = split_bundle(P3, [1, 1, 1, 1])
    assert b.chern == (4 * H, 6 * H**2, 4 * H**3)


def test_whitney_with_trivial_summand_is_identity():
    b = split_bundle(P3, [1, 2])
    assert whitney_sum(b, trivial_bundle(P3, 0)) == b
    widened = whitney_sum(b, trivial_bundle(P3, 3))
    assert widened.rank == 5 and widened.chern == b.chern


def test_euler_sequence_quotient_for_projective_space():
    # c(T) = (1+h)^4 since the sequence starts with the trivial bundle
    tangent = FormalBundle(P3, 3, (4 * H, 6 * H**2, 4 * H**3))
    assert whitney_sum(trivial_bundle(P3, 1), tangent).chern == split_bundle(P3, [1] * 4).chern


def test_whitney_rejects_ring_mismatch():
    with pytest.raises(ValueError):
        whitney_sum(trivial_bundle(P3, 1), trivial_bundle(line_ring(4), 1))
    with pytest.raises(ValueError):
        whitney_sum(trivial_bundle(P3, 1), tautological_dual(GrassmannContext(2, 4)))


def test_equal_rings_built_apart_still_combine():
    # the identity test is only a shortcut: equal rings that are distinct
    # objects still pass the ring check
    first, second = line_ring(4), line_ring(4)
    assert first is not second and first == second
    a = split_bundle(first, [1, 2])
    b = split_bundle(second, [-1])
    assert whitney_sum(a, b) == split_bundle(first, [1, 2, -1])
    assert whitney_sum(b, a) == split_bundle(second, [-1, 1, 2])
    g, h = GrassmannContext(2, 5), GrassmannContext(2, 5)
    assert g is not h
    assert whitney_sum(tautological_dual(g), tautological_dual(h)).chern == (
        2 * sigma(g, 1),
        sigma(g, 1) ** 2 + 2 * sigma(g, 1, 1),
        2 * sigma(g, 1) * sigma(g, 1, 1),
        sigma(g, 1, 1) ** 2,
    )


@given(st.lists(st.integers(-3, 3), min_size=0, max_size=3),
       st.lists(st.integers(-3, 3), min_size=0, max_size=3))
def test_whitney_total_class_multiplies(xs, ys):
    ring = line_ring(4)
    a, b = split_bundle(ring, xs), split_bundle(ring, ys)
    assert classes(whitney_sum(a, b)) == whitney_convolution(a, b)


@given(st.sampled_from([GrassmannContext(2, 5), GrassmannContext(3, 6)]),
       st.lists(PIECES, max_size=4), st.lists(PIECES, max_size=3), st.integers(-3, 3))
def test_sums_and_twists_match_index_formulas_on_grassmannians(ctx, xs, ys, m):
    # up to four copies of U* exceed the truncation of G(2,5) and G(3,6)
    a, b = grassmann_sum(ctx, xs), grassmann_sum(ctx, ys)
    assert classes(whitney_sum(a, b)) == whitney_convolution(a, b)
    t = m * sigma(ctx, 1)
    assert classes(twist_line(a, t)) == twist_binomial(a, t)
    for zero in (0, ctx.zero()):
        assert twist_line(a, zero) == a
        assert classes(a) == twist_binomial(a, zero)


@given(st.integers(1, 3), st.lists(st.integers(-2, 2), min_size=4, max_size=8),
       st.lists(st.integers(-2, 2), max_size=3), st.integers(-2, 2))
def test_sums_and_twists_of_rank_above_the_truncation(dim, xs, ys, m):
    ring = line_ring(dim)
    a, b = split_bundle(ring, xs), split_bundle(ring, ys)
    assert classes(whitney_sum(a, b)) == whitney_convolution(a, b)
    t = m * ring.gen()
    assert classes(twist_line(a, t)) == twist_binomial(a, t)
    assert twist_line(a, t) == split_bundle(ring, [x + m for x in xs])
    for zero in (0, ring.zero()):
        assert twist_line(a, zero) == a
        assert classes(a) == twist_binomial(a, zero)


# -- duals ----------------------------------------------------------------------

def test_dual_sign_rule():
    b = FormalBundle(P3, 2, (3 * H, 2 * H**2))
    assert dual(b).chern == (-3 * H, 2 * H**2)
    assert dual(dual(b)) == b


def test_dual_flips_c3():
    tangent = FormalBundle(P3, 3, (4 * H, 6 * H**2, 4 * H**3))
    assert chern_class(dual(tangent), 3) == -chern_class(tangent, 3)


# -- twists ---------------------------------------------------------------------

def test_twist_rank2_closed_form_symbolically():
    ring = TruncatedPolynomialRing(("c1", "c2", "t"), (1, 2, 1), truncation=2)
    c1, c2, t = ring.gens
    b = FormalBundle(ring, 2, (c1, c2))
    twisted = twist_line(b, t)
    assert twisted.chern == (c1 + 2 * t, c2 + c1 * t + t * t)


def test_twist_by_zero_is_identity():
    b = FormalBundle(P3, 2, (3 * H, 2 * H**2))
    assert twist_line(b, P3.zero()) == b
    assert twist_line(b, 0) == b


def test_twist_of_a_high_symmetric_power_stays_cheap():
    # rank 10001 on P^3: the zero classes above c_3 cost one binomial power
    b = sym_power(split_bundle(P3, [1, 2]), 10000)
    assert classes(twist_line(b, H)) == twist_binomial(b, H)


def test_twist_line_bundle():
    b = line_bundle(P3, 2 * H)
    assert twist_line(b, H).chern == (3 * H,)


def test_twist_rejects_wrong_degree():
    b = line_bundle(P3, H)
    with pytest.raises(ValueError):
        twist_line(b, H**2)


def test_twist_matches_split_shift():
    ring = line_ring(4)
    h = ring.gen()
    assert twist_line(split_bundle(ring, [0, 1, 3]), 2 * h) == split_bundle(ring, [2, 3, 5])


# -- symmetric and exterior powers ----------------------------------------------

def test_sym_first_power_is_identity():
    b = FormalBundle(P3, 2, (3 * H, 2 * H**2))
    assert sym_power(b, 1) == b


def test_sym_cubed_first_chern():
    ring = TruncatedPolynomialRing(("c1", "c2"), (1, 2), truncation=4)
    c1, c2 = ring.gens
    b = FormalBundle(ring, 2, (c1, c2))
    cubed = sym_power(b, 3)
    assert cubed.rank == 4
    assert chern_class(cubed, 1) == 6 * c1


def test_sym_cubed_top_chern_closed_form():
    # c4(S^3) = 9 c2 (2 c1^2 + c2) for a rank-2 bundle, in the generic ring
    ring = TruncatedPolynomialRing(("c1", "c2"), (1, 2), truncation=4)
    c1, c2 = ring.gens
    cubed = sym_power(FormalBundle(ring, 2, (c1, c2)), 3)
    assert chern_class(cubed, 4) == 9 * (c2 * (2 * c1 * c1 + c2))


def test_sym_cubed_tautological_in_schubert_basis():
    ctx = GrassmannContext.from_projective(1, 4)
    c4 = chern_class(sym_power(tautological_dual(ctx), 3), 4)
    assert c4.terms == {(3, 1): 18, (2, 2): 27}


def test_lines_through_a_point_incidence():
    ctx = GrassmannContext.from_projective(1, 4)
    c4 = chern_class(sym_power(tautological_dual(ctx), 3), 4)
    assert integrate(c4 * sigma(ctx, 2)) == 18


def test_cubic_surface_27_lines():
    ctx = GrassmannContext.from_projective(1, 3)
    assert integrate(top_chern(sym_power(tautological_dual(ctx), 3))) == 27


@pytest.mark.parametrize(
    "n,count",
    [
        (3, 27),
        (4, 2875),
        (5, 698005),
        (6, 305093061),
        (7, 210480374951),
        (8, 210776836330775),
        (9, 289139638632755625),
        (10, 520764738758073845321),
        (11, 1192221463356102320754899),
        (12, 3381929766320534635615064019),
    ],
)
def test_lines_on_hypersurfaces_of_degree_2n_minus_3(n, count):
    # OEIS A027363: lines on a general hypersurface of degree 2n-3 in P^n, also
    # the residue sum of c_top(S^(2n-3) U*) over the fixed points of G(2, n+1)
    ctx = GrassmannContext.from_projective(1, n)
    assert integrate(top_chern(sym_power(tautological_dual(ctx), 2 * n - 3))) == count
    top = CHECKS.bott_integral(2, n + 1, lambda roots: CHECKS.sym_power_top(roots, 2 * n - 3))
    assert top == count


def test_three_planes_on_a_cubic_sevenfold(monkeypatch):
    # projective 3-planes of a general cubic in P^8: the zero locus of
    # S^3 U* (rank 20) on the 20-dimensional G(3,8)
    ctx = GrassmannContext.from_projective(3, 8)
    one, multiply, pieri, with_unit, pieris = ctx.one(), schubert.multiply, schubert.pieri, [], []

    def counting(x, y):
        with_unit.append(one in (x, y))
        return multiply(x, y)

    monkeypatch.setattr(schubert, "multiply", counting)
    monkeypatch.setattr(schubert, "pieri", lambda x, a: pieris.append(a) or pieri(x, a))
    assert integrate(top_chern(sym_power(tautological_dual(ctx), 3))) == 321489
    # one product per e-monomial, by the Chern class of its least index, never the unit
    assert len(with_unit) == 481 and not any(with_unit)
    assert len(pieris) == 786


def test_two_spinor_tenfolds_in_g510():
    # S^2 U* on G(5,10) vanishes on the 5-planes isotropic for a quadric:
    # two spinor tenfolds, each of degree 12 in h with sigma_1 = 2h
    ctx = GrassmannContext(5, 10)
    c15 = top_chern(sym_power(tautological_dual(ctx), 2))
    assert integrate(c15 * sigma(ctx, 1) ** 10) == 2 * 2**10 * 12 == 24576


def test_ext_of_rank2_is_determinant():
    ring = TruncatedPolynomialRing(("c1", "c2"), (1, 2), truncation=4)
    c1, c2 = ring.gens
    b = FormalBundle(ring, 2, (c1, c2))
    det = ext_power(b, 2)
    assert det.rank == 1
    assert det.chern == (c1,)


def test_ext_rejects_power_beyond_rank():
    with pytest.raises(ValueError):
        ext_power(line_bundle(P3, H), 2)


def test_ext_top_of_split_is_sum_of_roots():
    ring = line_ring(5)
    h = ring.gen()
    multiples = [1, 2, 3, 4]
    top = ext_power(split_bundle(ring, multiples), 4)
    assert top.chern == (sum(multiples) * h,)


def test_ext_almost_top_is_sum_of_complement_lines():
    # Lambda^n of n+1 line bundles: one line summand per omitted root
    ring = line_ring(5)
    multiples = [1, 2, 3, 4]
    total = sum(multiples)
    expected = split_bundle(ring, [total - a for a in multiples])
    assert ext_power(split_bundle(ring, multiples), 3) == expected


def test_lambda2_tangent_is_twisted_cotangent_on_p3():
    # Lambda^2 T = Omega(4h): both sides computed along different routes
    tangent = FormalBundle(P3, 3, (4 * H, 6 * H**2, 4 * H**3))
    lhs = ext_power(tangent, 2)
    rhs = twist_line(dual(tangent), 4 * H)
    assert lhs == rhs


@pytest.mark.parametrize("op,power_fn", [("sym", sym_power), ("ext", ext_power)])
def test_powers_match_direct_root_enumeration(op, power_fn):
    cases = [
        (6, [1]), (6, [0, 2]), (6, [1, 1, 3]), (6, [-1, 0, 1, 2]), (6, [2, 2, 2, 2]),
        (8, [-2, -1, 0, 1, 3]), (8, [1, 1, 2, 2, 3]),
        (8, [-1, 0, 0, 1, 2, 2]), (8, [1, 1, 1, 1, 1, 2]),
    ]
    runs = [
        (truncation, multiples, k)
        for truncation, multiples in cases
        for k in range(1, 4)
        if op == "sym" or k <= len(multiples)
    ]
    # the largest Gauss tables: rank 6 above degree 8, rank 4 in degree 12
    runs += {
        "ext": [(10, [-2, -1, 0, 1, 2, 3], 2), (12, [-1, 0, 1, 1, 2, 4], 3), (12, [-1, 0, 1, 1, 2, 4], 4)],
        "sym": [(12, [-1, 1, 2, 3], 3)],
    }[op]
    for truncation, multiples, k in runs:
        ring = line_ring(truncation)
        h = ring.gen()
        bundle = split_bundle(ring, multiples)
        expected = split_power_chern(ring, [a * h for a in multiples], k, op)
        got = power_fn(bundle, k)
        for i in range(1, ring.truncation + 1):
            assert chern_class(got, i) == expected[i - 1], (multiples, k, i)


@given(st.sampled_from(["sym", "ext"]), st.integers(1, 4), st.integers(1, 4), st.integers(0, 8))
def test_universal_polynomials_match_full_monomial_route(op, rank, k, dmax):
    if op == "ext":
        k = min(k, rank)
    assert chern._power_epolys(op, rank, k, dmax) == power_epolys_brute(op, rank, k, dmax)


# (functor, rank, power, truncation) of the bundles benchmark workload, and
# the rank-2 lines ladder S^(2n-3) on G(2, n+1)
PINNED_SHAPES = [
    ("sym", 2, 2, 4), ("sym", 2, 5, 10), ("sym", 3, 2, 6), ("sym", 3, 3, 8),
    ("sym", 3, 4, 10), ("sym", 4, 2, 8), ("sym", 4, 3, 10), ("sym", 5, 2, 10),
    ("ext", 4, 2, 6), ("ext", 5, 2, 8), ("ext", 5, 3, 10), ("ext", 6, 2, 8),
    ("ext", 6, 3, 7), ("ext", 6, 4, 7),
] + [("sym", 2, 2 * n - 3, 2 * n - 2) for n in range(3, 9)]


@pytest.mark.parametrize("shape", PINNED_SHAPES, ids=lambda s: "{}-{}-{}-{}".format(*s))
def test_universal_polynomials_pinned_shapes(shape):
    assert chern._power_epolys(*shape) == power_epolys_brute(*shape)


def partitions_of(d, parts, cap=None):
    """Every partition of ``d`` with at most ``parts`` parts, none above ``cap``."""
    if not d:
        yield ()
        return
    if parts:
        for head in range(min(d, cap or d), 0, -1):
            for tail in partitions_of(d - head, parts - 1, head):
                yield (head, *tail)


def padded(lam, rank):
    return lam + (0,) * (rank - len(lam))


def eulerian_brute(p):
    """Coefficients of ``z A_p(z)``, with ``A(p, m)`` from the explicit sum
    ``sum_i (-1)^i C(p + 1, i) (m + 1 - i)^p`` (Stanley, *Enumerative
    Combinatorics* I, 1.4)."""
    return [0] + [
        sum((-1) ** i * comb(p + 1, i) * (m + 1 - i) ** p for i in range(m + 1)) for m in range(p)
    ]


def test_gauss_tables_match_brute_force():
    # every table of degree <= 8 in <= 6 variables: its partitions in
    # decreasing lexicographic order, each e-monomial's column against the
    # full product of elementary polynomials, with leading term m_alpha of
    # coefficient 1 (Gauss's one pass needs it), and the Eulerian products
    for rank in range(1, 7):
        for d in range(9):
            table = chern._gauss_table(d, rank)
            shapes = list(partitions_of(d, rank))
            assert list(table) == [padded(lam, rank) for lam in shapes]
            for alpha, (lam, multinomial, column, eulerian) in table.items():
                assert lam == tuple(a for a in alpha if a)
                assert multinomial == factorial(d) // prod(map(factorial, lam))
                emon = tuple(a - b for a, b in zip(alpha, alpha[1:] + (0,)))
                full = _elementary_product(emon, rank)
                on_m = {mono: c for mono, c in full.items() if list(mono) == sorted(mono, reverse=True)}
                assert len(dict(column)) == len(column)  # no key twice
                assert dict(column) == on_m, alpha
                assert max(on_m) == alpha and on_m[alpha] == 1
                expected = [1]
                for part in lam:
                    factor = eulerian_brute(part)
                    product = [0] * (len(expected) + len(factor) - 1)
                    for i, a in enumerate(expected):
                        for j, b in enumerate(factor):
                            product[i + j] += a * b
                    expected = product
                assert list(eulerian) == expected, lam


@given(st.sampled_from(["sym", "ext"]), st.integers(1, 5), st.integers(1, 8))
def test_factor_moments_match_enumerated_factors(op, rank, k):
    # N(lambda) = sum over the factors g of prod_i g_i^lambda_i, with every
    # factor listed: the k-subsets (ext) or k-multisets (sym) of the roots
    picker = combinations if op == "ext" else combinations_with_replacement
    factors = [[group.count(i) for i in range(rank)] for group in picker(range(rank), k)]
    for d in range(9):
        table = chern._gauss_table(d, rank)
        row = chern._binomial_row(k, d + rank - 1)
        for lam in partitions_of(d, rank):
            expected = sum(prod(g[i] ** part for i, part in enumerate(lam)) for g in factors)
            eulerian = table[padded(lam, rank)][3]
            assert chern._factor_moment(op, rank, k, lam, eulerian, row) == expected, lam


def test_factor_moments_do_not_grow_with_the_power(monkeypatch):
    # S^10 and S^1000000 of a rank-3 bundle on P^3 take one N(lambda) per
    # partition of d = 1, 2, 3: six each, counted through the module global
    real = chern._factor_moment
    calls = []
    monkeypatch.setattr(chern, "_factor_moment", lambda *args: calls.append(args) or real(*args))
    counts = []
    for k in (10, 10**6):
        calls.clear()
        chern._power_epolys.__wrapped__("sym", 3, k, 3)  # past the memo
        counts.append(len(calls))
    assert counts == [6, 6]


def root_sum_classes(k):
    """S^k(O(1) + O(2) + O(3)) on P^3 splits as the sum of the C(k + 2, 2)
    lines O(a + 2b + 3c), a + b + c = k: the count and e_1..e_3 of those roots."""
    e = [1, 0, 0, 0]
    roots = 0
    for a in range(k + 1):
        for b in range(k + 1 - a):
            root = a + 2 * b + 3 * (k - a - b)
            e = [e[0]] + [e[j] + root * e[j - 1] for j in range(1, 4)]
            roots += 1
    return roots, [e[j] * H**j for j in range(1, 4)]


def test_s300_of_a_split_bundle_is_the_product_over_its_root_sums():
    roots, expected = root_sum_classes(300)
    assert roots == comb(302, 2) == 45451
    got = sym_power(split_bundle(P3, [1, 2, 3]), 300)
    assert got.rank == 45451
    assert classes(got) == expected


def test_power_memos_stay_within_their_bounds():
    # S^k for k = 1..2000 once left 2000 universal polynomials in the memo;
    # evicted ones are made again, the same.  What they read does not grow
    # with k: one Gauss table per degree 0..3 of rank 3
    bundle = split_bundle(P3, [1, 2, 3])
    chern._gauss_table.cache_clear()
    answers = [sym_power(bundle, k) for k in range(1, 2001)]
    assert chern._power_epolys.cache_info().currsize <= chern.EPOLY_MEMO_SIZE
    assert chern._gauss_table.cache_info().currsize <= 4
    for k in (1, 2, 3, 300):
        roots, expected = root_sum_classes(k)
        assert answers[k - 1].rank == roots and classes(answers[k - 1]) == expected
    for k in (1, 2, 3, 300, 1999, 2000):
        assert sym_power(bundle, k) == answers[k - 1]


# -- substitution into the base ring ----------------------------------------------

TWO_GENERATORS = TruncatedPolynomialRing(("a", "b"), (1, 1), truncation=4)
P5 = line_ring(5)
# c_2 = 0 with c_3 != 0; and a rank-4 bundle that stores only c_1
MIDDLE_ZERO = FormalBundle(P5, 3, (2 * P5.gen(), P5.zero(), -(P5.gen() ** 3)))
ONLY_C1 = FormalBundle(TWO_GENERATORS, 4, (TWO_GENERATORS.gen(0) - 3 * TWO_GENERATORS.gen(1),))


def quotient_bundle(ctx):
    """The universal quotient bundle Q: ``c_i(Q) = sigma_i``."""
    rank = ctx.n - ctx.k
    return FormalBundle(ctx, rank, tuple(sigma(ctx, i) for i in range(1, rank + 1)))


@st.composite
def substitution_bundles(draw):
    """Bundles of rank at most 5: random classes over a line ring or a
    two-generator ring (zero classes and fewer classes than the rank
    included), or U*, U, Q on G(2,5) and G(3,6), twisted and summed with lines."""
    source = draw(st.sampled_from(["line", "two", "G(2,5)", "G(3,6)"]))
    if source in ("line", "two"):
        ring = line_ring(draw(st.integers(1, 6))) if source == "line" else TWO_GENERATORS
        rank = draw(st.integers(1, 5))
        classes = []
        for i in range(1, draw(st.integers(0, min(rank, ring.truncation))) + 1):
            if source == "line":
                monomials = [ring.gen() ** i]
            else:
                a, b = ring.gens
                monomials = [a**p * b ** (i - p) for p in range(i + 1)]
            size = len(monomials)
            coeffs = draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
            classes.append(sum((c * m for c, m in zip(coeffs, monomials)), ring.zero()))
        return FormalBundle(ring, rank, classes)
    ctx = GrassmannContext(2, 5) if source == "G(2,5)" else GrassmannContext(3, 6)
    u = tautological_dual(ctx)
    bundle = draw(st.sampled_from([u, dual(u), quotient_bundle(ctx)]))
    bundle = twist_line(bundle, draw(st.integers(-2, 2)) * sigma(ctx, 1))
    if draw(st.booleans()):
        bundle = whitney_sum(bundle, line_bundle(ctx, draw(st.integers(-2, 2)) * sigma(ctx, 1)))
    return bundle


@given(substitution_bundles(), st.sampled_from(["sym", "ext"]), st.integers(1, 4))
@example(MIDDLE_ZERO, "sym", 3)
@example(MIDDLE_ZERO, "ext", 2)
@example(ONLY_C1, "sym", 2)
@example(ONLY_C1, "ext", 3)
def test_substitution_matches_the_term_by_term_products(bundle, op, k):
    if op == "ext":
        k = min(k, bundle.rank)
    epolys = chern._power_epolys(op, bundle.rank, k, bundle.ring.truncation)
    classes = chern._substitute_all(epolys, bundle)
    assert classes == substitute_by_terms(epolys, bundle)
    assert all(0 not in c.terms.values() for c in classes)


def test_high_symmetric_power_runs_in_flat_memory():
    # S^10000 of O(1) + O(2) over P^3 has 10001 roots, and none is listed:
    # the power sums of the roots are closed forms in k.  The command runs in
    # a fresh interpreter capped at 512 MiB of address space, which listing
    # every 10000-tuple of roots would exceed, and prints its traced peak
    # after the JSON document.
    code = (
        "import resource, tracemalloc\n"
        "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"
        "tracemalloc.start()\n"
        "from fanocalc.cli import main\n"
        "main(['--json', 'chern', 'sym', '--split', '3:1,2', '--k', '10000'])\n"
        "print(tracemalloc.get_traced_memory()[1])\n"
    )
    src = str(Path(chern.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    document, peak = proc.stdout.splitlines()
    # S^k(O(a) + O(b)) splits as the sum of O(i a + (k - i) b), 0 <= i <= k
    e = [1, 0, 0, 0]
    for i in range(10001):
        root = i * 1 + (10000 - i) * 2
        e = [e[0]] + [e[j] + root * e[j - 1] for j in range(1, 4)]
    h = line_ring(3).gen()
    expected = {"rank": 10001, "chern": [str(e[j] * h**j) for j in range(1, 4)]}
    assert json.loads(document)["result"] == expected
    assert int(peak) < 8 << 20


@pytest.mark.parametrize("op,power_fn,expected", [
    ("sym", sym_power, (30, 420, 3640)), ("ext", ext_power, (20, 180, 960)),
])
def test_square_powers_of_five_hyperplane_lines_on_p3(op, power_fn, expected):
    # S^2 and Lambda^2 of O(1)^5 are O(2)^15 and O(2)^10: ranks above the truncation 3
    got = power_fn(split_bundle(P3, [1] * 5), 2)
    assert got.chern == tuple(c * H**i for i, c in enumerate(expected, start=1))
    assert list(got.chern) == split_power_chern(P3, [H] * 5, 2, op)


def test_square_powers_of_three_copies_of_u_dual_on_g24():
    # U* + U* + U* has rank 6 on G(2,4), whose truncation is 4; with
    # S^2(A + B) = S^2 A + A B + S^2 B and A A = S^2 A + Lambda^2 A
    ctx = GrassmannContext(2, 4)
    u = tautological_dual(ctx)
    thrice = whitney_sum(u, whitney_sum(u, u))
    s2, l2 = total_class(sym_power(u, 2)), total_class(ext_power(u, 2))
    assert total_class(sym_power(thrice, 2)) == s2**6 * l2**3
    assert total_class(ext_power(thrice, 2)) == s2**3 * l2**6


@given(st.lists(st.integers(-2, 2), min_size=4, max_size=7), st.integers(1, 3),
       st.sampled_from(["sym", "ext"]))
def test_powers_of_rank_above_the_truncation_match_root_enumeration(multiples, k, op):
    ring = line_ring(3)
    h = ring.gen()
    power_fn = sym_power if op == "sym" else ext_power
    got = power_fn(split_bundle(ring, multiples), k)
    assert classes(got) == split_power_chern(ring, [a * h for a in multiples], k, op)


@given(st.lists(st.integers(-2, 2), min_size=1, max_size=3), st.integers(1, 3))
def test_dual_commutes_with_sym(multiples, k):
    ring = line_ring(4)
    b = split_bundle(ring, multiples)
    assert dual(sym_power(b, k)) == sym_power(dual(b), k)


# -- the trusted constructor ----------------------------------------------------

def bundle_outputs(bundles, t, k):
    """Every kernel output built from the given bundles: sums, twists by
    ``t``, duals, and powers up to ``k`` (exterior ones up to the rank)."""
    out = []
    for a in bundles:
        out += [dual(a), twist_line(a, t)]
        out += [whitney_sum(a, b) for b in bundles]
        if a.rank:
            out += [sym_power(a, p) for p in range(1, k + 1)]
            out += [ext_power(a, p) for p in range(1, min(k, a.rank) + 1)]
    return out


def assert_revalidates(b):
    # the public constructor re-checks rank, class count and degrees, and
    # strips trailing zeros; a kernel output must already satisfy all of it
    assert FormalBundle(b.ring, b.rank, b.chern) == b
    assert not b.chern or b.chern[-1]


@given(st.integers(1, 5), st.lists(st.integers(-3, 3), max_size=4),
       st.lists(st.integers(-3, 3), max_size=2), st.integers(-3, 3), st.integers(1, 3))
def test_kernel_bundles_pass_public_validation_on_line_rings(dim, xs, ys, m, k):
    ring = line_ring(dim)
    bundles = [split_bundle(ring, xs), split_bundle(ring, ys), trivial_bundle(ring, len(ys))]
    for b in bundle_outputs(bundles, m * ring.gen(), k):
        assert_revalidates(b)


@given(st.sampled_from([GrassmannContext(2, 5), GrassmannContext(3, 6)]),
       st.lists(PIECES, max_size=3), st.lists(PIECES, max_size=2), st.integers(-2, 2),
       st.integers(1, 2))
def test_kernel_bundles_pass_public_validation_on_grassmannians(ctx, xs, ys, m, k):
    u = tautological_dual(ctx)
    assert_revalidates(u)
    bundles = [grassmann_sum(ctx, xs), grassmann_sum(ctx, ys)]
    for b in bundle_outputs(bundles, m * sigma(ctx, 1), k):
        assert_revalidates(b)


def test_cancelled_top_classes_are_stripped():
    # O(1) + O(-1) on P^3: c_1 cancels, c_2 = -h^2 survives; O(1) twisted
    # by -h is trivial, so the sum and the twist both strip their zeros
    b = split_bundle(P3, [1, -1])
    assert b.chern == (P3.zero(), -(H**2))
    assert twist_line(line_bundle(P3, H), -H).chern == ()
    assert dual(trivial_bundle(P3, 2)).chern == ()


# -- m_lambda * e_j ------------------------------------------------------------------

def test_m_times_e_matches_subset_counting():
    # every weakly decreasing lambda with up to six parts, each at most 3,
    # against every e_j, e_0 and one beyond the number of variables included
    cases = 0
    for nvars in range(1, 7):
        for lam in combinations_with_replacement(range(3, -1, -1), nvars):
            for j in range(nvars + 2):
                got = chern._m_times_e(lam, j, nvars)
                assert len({nu for nu, _ in got}) == len(got)
                assert dict(got) == m_times_e_brute(lam, j, nvars), (lam, j)
                cases += 1
    assert cases == 1426


# -- accessors -------------------------------------------------------------------

def test_c0_is_one_and_range_checked():
    b = line_bundle(P3, H)
    assert chern_class(b, 0) == P3.one()
    assert chern_class(b, 3) == P3.zero()
    with pytest.raises(ValueError):
        chern_class(b, -1)
    with pytest.raises(ValueError):
        chern_class(b, 4)


def test_top_chern_degree():
    b = split_bundle(P3, [1, 1, 1, 1, 1])
    assert top_chern(b) == chern_class(b, 3)  # truncation caps the degree


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: FormalBundle(P3, -1, ()), "rank must be nonnegative"),
        (lambda: sym_power(trivial_bundle(P3, 0), 2), "symmetric power needs positive rank"),
        (lambda: ext_power(line_bundle(P3, H), 0), "power must be a positive integer"),
    ],
    ids=["negative-rank", "sym-of-rank-0", "ext-power-0"],
)
def test_bundle_constructions_refuse(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("bad", [True, False, 2.0])
@pytest.mark.parametrize(
    "call,name",
    [
        (lambda k: sym_power(line_bundle(P3, H), k), "power"),
        (lambda k: ext_power(split_bundle(P3, [1, 2]), k), "power"),
        (lambda i: chern_class(line_bundle(P3, H), i), "Chern index"),
        (lambda r: trivial_bundle(P3, r), "rank"),
    ],
    ids=["sym_power", "ext_power", "chern_class", "rank"],
)
def test_a_power_or_index_must_be_an_int(call, name, bad):
    with pytest.raises(ValueError, match=f"{name} must be an int, got {bad!r}"):
        call(bad)


def test_bundle_validation():
    with pytest.raises(ValueError):
        FormalBundle(P3, 1, (H, H**2))  # more classes than rank
    with pytest.raises(ValueError):
        FormalBundle(P3, 2, (H**2,))  # c_1 of degree 2


# -- Bott localization -------------------------------------------------------------


def _load_bench_checks():
    """``bench/checks.py`` (torus localization, Schur values), loaded from its file
    without putting ``bench/`` on ``sys.path``; it imports nothing from fanocalc."""
    path = Path(__file__).resolve().parent.parent / "bench" / "checks.py"
    spec = importlib.util.spec_from_file_location("bench_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CHECKS = _load_bench_checks()


@given(st.sampled_from([(2, 5), (2, 6), (3, 6), (2, 7)]), st.sampled_from(["sym", "ext"]),
       st.integers(1, 3), st.data())
def test_chern_classes_of_functors_of_u_star_by_bott_localization(kn, functor, d, data):
    # integral of c_i(F(U*)) sigma_lambda, F = S^d or Lambda^d, against the residue sum
    # over the torus-fixed points with sigma_lambda = s_lambda(roots of U*)
    k, n = kn
    d = min(d, k) if functor == "ext" else d
    ctx = GrassmannContext(k, n)
    bundle = (sym_power if functor == "sym" else ext_power)(tautological_dual(ctx), d)
    i = data.draw(st.integers(1, min(bundle.rank, ctx.top_degree)), label="i")
    lam = data.draw(st.sampled_from(list(ctx.partitions(ctx.top_degree - i))), label="lambda")

    def localized(roots):
        c_i = CHECKS.split_chern(CHECKS.functor_roots(roots, functor, d), i)[i - 1]
        return c_i * CHECKS.schur_value(lam, roots)

    expected = CHECKS.bott_integral(k, n, localized)
    assert integrate(chern_class(bundle, i) * sigma(ctx, *lam)) == expected
