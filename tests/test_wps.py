import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanocalc.wps import (
    WeightVector,
    canonical_degree,
    cotangent_twist_lmin,
    double_cover_model,
    is_generated,
    normalize,
    singular_strata,
)
from oracles import cotangent_twist_brute, generated_by_reachability, generated_on_smooth_locus

weight_vectors = st.lists(st.integers(1, 9), min_size=2, max_size=6).map(
    lambda ws: WeightVector(tuple(ws))
)


def well_formed(min_size, max_size, top):
    return (
        st.lists(st.integers(1, top), min_size=min_size, max_size=max_size)
        .map(lambda ws: tuple(sorted(ws)))
        .filter(lambda ws: WeightVector(ws).is_well_formed())
    )


def test_weight_vector_validation():
    with pytest.raises(ValueError):
        WeightVector((1,))
    with pytest.raises(ValueError):
        WeightVector((1, 0))


# -- normalization -------------------------------------------------------------

def test_normalize_global_gcd():
    assert normalize(WeightVector((2, 2, 4))) == WeightVector((1, 1, 2))


def test_normalize_all_but_one():
    assert normalize(WeightVector((1, 2, 2))) == WeightVector((1, 1, 1))


def test_normalize_fixed_point():
    assert normalize(WeightVector((1, 1, 1, 1, 2))) == WeightVector((1, 1, 1, 1, 2))


def test_normalize_mixed_reductions():
    assert normalize(WeightVector((6, 10, 15))) == WeightVector((1, 1, 1))


@given(weight_vectors)
def test_normalize_idempotent_and_well_formed(w):
    once = normalize(w)
    assert once.is_well_formed()
    assert normalize(once) == once


# -- singular strata -------------------------------------------------------------

def test_single_singular_point():
    strata = singular_strata(WeightVector((1, 1, 1, 1, 2)))
    assert len(strata) == 1
    assert strata[0].coords == (4,)
    assert strata[0].k == 2
    assert strata[0].dimension == 0


def test_straight_projective_space_is_smooth():
    assert singular_strata(WeightVector((1, 1, 1, 1))) == []


def test_two_singular_points():
    strata = singular_strata(WeightVector((1, 1, 1, 2, 3)))
    assert [(s.k, s.coords) for s in strata] == [(2, (3,)), (3, (4,))]


def test_contained_strata_are_pruned():
    # the order-3 locus sits inside the order-2 locus and is absorbed
    strata = singular_strata(WeightVector((1, 1, 6, 2)))
    assert [(s.k, s.coords) for s in strata] == [(2, (2, 3))]


@given(weight_vectors)
def test_no_strata_iff_all_weights_one(w):
    wf = normalize(w)
    assert (singular_strata(wf) == []) == all(a == 1 for a in wf.weights)


# -- canonical degree -------------------------------------------------------------

def test_canonical_degrees():
    assert canonical_degree(WeightVector((1, 1, 1, 1, 2))) == -6
    assert canonical_degree(WeightVector((1, 1, 1, 1))) == -4
    assert canonical_degree(WeightVector((1, 1, 1, 2, 3))) == -8


def test_non_well_formed_rejected():
    with pytest.raises(ValueError):
        canonical_degree(WeightVector((2, 2, 4)))


# -- base-point freeness ------------------------------------------------------------

def test_generated_examples():
    assert is_generated(WeightVector((1, 1, 1, 1, 2)), 1)
    assert not is_generated(WeightVector((1, 1, 1, 2, 3)), 1)
    assert is_generated(WeightVector((1, 1, 1, 2, 3)), 0)


def test_generated_rejects_negative_twist():
    with pytest.raises(ValueError):
        is_generated(WeightVector((1, 1, 2)), -1)


@pytest.mark.parametrize("weights", [(1, 1, 1, 2, 3), (1, 1, 1, 1, 2), (1, 2, 3, 5)])
def test_generated_matches_monomial_oracle(weights):
    w = WeightVector(weights)
    for m in range(0, 12):
        assert is_generated(w, m) == generated_on_smooth_locus(weights, m), m


@settings(max_examples=60, deadline=None)
@given(well_formed(3, 6, 15), st.integers(0, 3000))
def test_generated_matches_reachability_oracle(weights, m):
    assert is_generated(WeightVector(weights), m) == generated_by_reachability(weights, m)


@pytest.mark.parametrize(
    "weights,frobenius",
    [((1, 1, 2), -1), ((1, 2, 3), 1), ((2, 3, 5, 7), 23), ((7, 8, 9), 55), ((1, 6, 10, 15), 29)],
)
def test_generated_exactly_past_the_frobenius_number(weights, frobenius):
    # the largest Frobenius number over the minimal coprime supports; for
    # P(1,6,10,15) the support {6,10,15} has no coprime pair inside it
    w = WeightVector(weights)
    assert all(is_generated(w, m) for m in range(frobenius + 1, frobenius + 200))
    if frobenius >= 0:
        assert not is_generated(w, frobenius)


def test_generated_for_astronomical_twists():
    assert is_generated((1, 2, 3), 10**30)
    assert is_generated((2, 3, 5, 7), 10**30 + 1)
    assert not is_generated((2, 3, 5, 7), 1)


def test_generated_searches_no_further_than_m():
    # weights near 10^6 and small twists: the Apéry search stops at m
    # instead of covering the 10^6 residues of each support
    w = WeightVector((1000003, 1000033, 1000037))
    tracemalloc.start()
    try:
        assert is_generated(w, 0)
        assert not is_generated(w, 5)
        assert not is_generated(w, 2 * 1000033)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@given(weight_vectors, st.integers(0, 8), st.integers(0, 8))
def test_generated_is_closed_under_sums(w, m1, m2):
    wf = normalize(w)
    if is_generated(wf, m1) and is_generated(wf, m2):
        assert is_generated(wf, m1 + m2)


# -- minimal cotangent twist ----------------------------------------------------------

@pytest.mark.parametrize("n", range(3, 9))
def test_lmin_on_ordinary_projective_space(n):
    assert cotangent_twist_lmin(WeightVector((1,) * n)) == 2


def test_lmin_key_values():
    assert cotangent_twist_lmin(WeightVector((1, 1, 1, 1, 2))) == 3
    assert cotangent_twist_lmin(WeightVector((1, 1, 1, 2, 3))) == 7
    assert cotangent_twist_lmin(WeightVector((1, 1, 2, 3, 5, 7, 11, 13))) == 136


@pytest.mark.parametrize(
    "weights",
    [
        (1, 1, 1, 1),
        (1, 1, 1, 1, 2),
        (1, 1, 1, 2, 3),
        (1, 1, 1, 1, 3),
        (1, 1, 1, 1, 1, 2),
        # twists 34 and 74: beyond a search limit of sum + 2*max weights
        (1, 2, 3, 5, 7),
        (2, 3, 5, 7, 11),
    ],
)
def test_lmin_matches_brute_force(weights):
    expected = cotangent_twist_brute(weights, lmax=100)
    assert expected is not None
    assert cotangent_twist_lmin(WeightVector(weights)) == expected


@settings(max_examples=30, deadline=None)
@given(well_formed(3, 5, 9))
def test_lmin_matches_brute_force_on_drawn_weights(weights):
    # weights <= 9 keep the proven limit, hence the answer, below 100
    expected = cotangent_twist_brute(weights, lmax=100)
    assert expected is not None
    assert cotangent_twist_lmin(WeightVector(weights)) == expected


def test_lmin_needs_enough_weights():
    with pytest.raises(ValueError):
        cotangent_twist_lmin(WeightVector((1, 2)))


# -- double-cover models ----------------------------------------------------------------

def test_double_cover_of_p3():
    model = double_cover_model("P3", 2)
    assert model.ambient == WeightVector((1, 1, 1, 1, 2))
    assert model.degree == 4
    assert "y^2" in model.description


def test_veronese_cone_cover():
    model = double_cover_model("veronese-cone", 3)
    assert model.ambient == WeightVector((1, 1, 1, 2, 3))
    assert model.degree == 6
    assert "z^2" in model.description


def test_quadric_cover():
    model = double_cover_model("quadric-4", 2)
    assert model.ambient == WeightVector((1, 1, 1, 1, 1, 2))
    assert model.degree == 4
    assert "(2,4)" in model.description


def test_projective_space_aliases():
    assert double_cover_model("projective-space-3", 3).ambient == WeightVector((1, 1, 1, 1, 3))


def test_unknown_base_rejected():
    with pytest.raises(ValueError):
        double_cover_model("elliptic-cone", 2)
