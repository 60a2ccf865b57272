import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fanocalc
from fanocalc import wps
from fanocalc.wps import (
    SingularStratum,
    WeightVector,
    _apery_set,
    _minimal_unit_supports,
    canonical_degree,
    cotangent_twist_lmin,
    double_cover_model,
    is_generated,
    normalize,
    singular_strata,
)
from oracles import (
    cotangent_twist_brute,
    generated_by_reachability,
    generated_on_smooth_locus,
    minimal_unit_supports_brute,
    normalize_by_steps,
    singular_strata_by_primes,
    well_formed_brute,
)

weight_vectors = st.lists(st.integers(1, 9), min_size=2, max_size=6).map(
    lambda ws: WeightVector(tuple(ws))
)


def well_formed(min_size, max_size, top):
    return (
        st.lists(st.integers(1, top), min_size=min_size, max_size=max_size)
        .map(lambda ws: tuple(sorted(ws)))
        .filter(lambda ws: WeightVector(ws).is_well_formed())
    )


# Products of the primes up to 11: weights that share factors in many patterns.
smooth_weights = st.lists(
    st.tuples(*(st.integers(0, 2) for _ in range(5))).map(
        lambda e: 2 ** e[0] * 3 ** e[1] * 5 ** e[2] * 7 ** e[3] * 11 ** e[4]
    ),
    min_size=2,
    max_size=9,
).map(tuple)


def _cli_json(*argv: str) -> dict:
    """One ``fanocalc --json`` command in a fresh interpreter, stopped after
    20 seconds, so that a hang fails the test instead of stalling the suite."""
    src = str(Path(fanocalc.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "fanocalc.cli", "--json", *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=20,
    )
    return json.loads(proc.stdout)


def test_weight_vector_validation():
    with pytest.raises(ValueError):
        WeightVector((1,))
    with pytest.raises(ValueError):
        WeightVector((1, 0))


def test_weights_must_be_exact_ints():
    # int() once made P(2.7, 1) into P(2,1), P('3', 1) into P(3,1), and
    # answered is_generated((1.5, 2, 3), 1) for P(1,2,3)
    for weights in ((2.7, 1), ("3", 1), (True, 1, 1), (2.0, 1)):
        with pytest.raises(ValueError):
            WeightVector(weights)
    with pytest.raises(ValueError):
        is_generated((1.5, 2, 3), 1)
    assert WeightVector([1, 2]).weights == (1, 2)


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
    assert well_formed_brute(once.weights)
    assert once.is_well_formed()
    assert normalize(once) == once


@given(weight_vectors)
def test_is_well_formed_matches_definition(w):
    assert w.is_well_formed() == well_formed_brute(w.weights)


# Weights up to 10^6; in the second kind, a factor shared by the weights that
# a bit mask chooses, so that the reduction loop takes several steps.
large_weights = st.one_of(
    st.lists(st.integers(1, 10**6), min_size=2, max_size=8).map(tuple),
    st.tuples(
        st.lists(st.integers(1, 1000), min_size=2, max_size=8),
        st.integers(2, 1000),
        st.integers(0, 255),
    ).map(lambda t: tuple(a * t[1] if t[2] >> i & 1 else a for i, a in enumerate(t[0]))),
)


@settings(max_examples=400, deadline=None)
@given(large_weights)
def test_normalize_matches_the_reduction_loop(weights):
    reduced = normalize(weights)
    assert reduced.weights == normalize_by_steps(weights)
    assert reduced.is_well_formed() and well_formed_brute(reduced.weights)
    assert WeightVector(weights).is_well_formed() == well_formed_brute(weights)


def _first_primes(count: int) -> list[int]:
    primes, k = [], 2
    while len(primes) < count:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    return primes


@pytest.mark.parametrize(
    "weights",
    [(2, 3), (6, 10, 15), (1, 1, 1, 1, 2), (4, 6, 10, 12), (12, 18, 30, 42, 70),
     tuple(math.prod(_first_primes(160)) // p for p in _first_primes(160))],
    ids=["P(2,3)", "P(6,10,15)", "P(1,1,1,1,2)", "P(4,6,10,12)", "five-weights", "160-primes"],
)
def test_normalize_makes_one_gcd_call_per_weight_and_one_more(monkeypatch, weights):
    # the reduction loop made 13201 calls on the 160 weights P / p_i
    calls = []
    monkeypatch.setattr(wps, "gcd", lambda *a: calls.append(a) or math.gcd(*a))
    reduced = normalize(weights)
    assert len(calls) == len(weights) + 1
    assert reduced.weights == normalize_by_steps(weights)


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


@settings(max_examples=200, deadline=None)
@given(st.one_of(smooth_weights, well_formed(2, 7, 400).map(tuple)))
def test_strata_match_trial_division_oracle(weights):
    if not WeightVector(weights).is_well_formed():
        weights = normalize(weights).weights
    strata = singular_strata(weights)
    assert [(s.k, s.coords) for s in strata] == singular_strata_by_primes(weights)


def test_strata_of_a_large_prime_weight_without_factoring():
    # trial division would take about 1.5e9 steps on the Mersenne prime 2^61 - 1
    doc = _cli_json("wps", "sing", f"1,1,{2**61 - 1}")
    assert doc["result"] == [{"coords": [2], "dimension": 0, "k": 2**61 - 1}]
    assert [(s.k, s.coords) for s in singular_strata((1, 1, 1000003))] == (
        singular_strata_by_primes((1, 1, 1000003))
    )


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


def test_generated_stops_at_the_first_failing_support(monkeypatch):
    # three coprime pairs, none of whose semigroups holds 5: the first
    # support decides, and the other two Apéry sets are never searched
    calls = []

    def counted(gens, bound=None):
        calls.append(gens)
        return _apery_set(gens, bound)

    monkeypatch.setattr(wps, "_apery_set", counted)
    assert not is_generated((1000003, 1000033, 1000037), 5)
    assert len(calls) == 1


@pytest.mark.parametrize("weights", [(7, 8, 9), (1, 8, 9)])
def test_schur_bound_is_attained(weights):
    # the support (8, 9) has Frobenius number (8 - 1)(9 - 1) - 1 = 55, the
    # bound of the two largest weights: O(55) has a base point, O(56) none
    assert not is_generated(weights, 55)
    assert is_generated(weights, 56)


def test_generated_past_schur_bound_lists_no_support(monkeypatch):
    # (1000033 - 1)(1000037 - 1) - 1 = 1000068001151: one past it, no support is
    # listed and no Apéry set over 10^6 residues is searched (2 s before the bound)
    calls = []
    monkeypatch.setattr(wps, "_apery_set", lambda gens, bound=None: calls.append(gens))
    assert is_generated((1000003, 1000033, 1000037), 1000068001152)
    assert calls == []


def _schur_edges(weights):
    """The Schur bound (a - 1)(c - 1) - 1 of the two largest weights and of
    each minimal support, a and c its least and largest weight."""
    *_, b, c = weights
    edges = {(b - 1) * (c - 1) - 1}
    for support in _minimal_unit_supports(weights):
        gens = [weights[i] for i in support]
        edges.add((min(gens) - 1) * (max(gens) - 1) - 1)
    return sorted(edges)


@settings(max_examples=150, deadline=None)
@given(well_formed(2, 5, 30), st.data())
def test_generated_matches_reachability_at_the_schur_bounds(weights, data):
    # the twists where a bound starts or stops deciding, which a draw of m
    # from a wide range rarely meets
    edge = data.draw(st.sampled_from(_schur_edges(weights)))
    for m in range(max(0, edge - 2), edge + 3):
        assert is_generated(weights, m) == generated_by_reachability(weights, m), m


def test_apery_set_keeps_the_least_element_per_residue():
    # residue 2 is reached at 11, lowered to 8 by 4 + 4, and the stale heap
    # entry at 11 is popped and skipped; a bound of 7 keeps neither
    assert _apery_set((3, 4, 11)) == {0: 0, 1: 4, 2: 8}
    assert _apery_set((3, 4, 11), 7) == {0: 0, 1: 4}


@settings(max_examples=200, deadline=None)
@given(smooth_weights)
def test_minimal_unit_supports_match_all_subsets(weights):
    assert sorted(list(_minimal_unit_supports(weights))) == minimal_unit_supports_brute(weights)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 60), min_size=2, max_size=10).map(tuple))
def test_minimal_unit_supports_are_the_brute_list_in_order(weights):
    # any weights, well formed or not, repeats included: the same sets, lexicographic
    assert list(_minimal_unit_supports(weights)) == minimal_unit_supports_brute(weights)


def test_supports_of_many_distinct_weights():
    # irredundant sets: no superset of a set with a redundant member is searched
    assert sum(1 for _ in _minimal_unit_supports(tuple(range(1, 201)))) == 20709


def test_generated_stops_at_the_fifth_of_many_supports(monkeypatch):
    # P(1, ..., 200) has 20709 supports, but O(7) fails on the fifth, (2, 9), in
    # lexicographic order: the test ends there.  Schur's bound passes the four
    # before it, (1,), (2, 3), (2, 5) and (2, 7), with no search; the Frobenius
    # number of (2, 9) is (2 - 1)(9 - 1) - 1 = 7, so its Apéry set is the one searched
    calls = []

    def counted(gens, bound=None):
        calls.append(gens)
        return _apery_set(gens, bound)

    monkeypatch.setattr(wps, "_apery_set", counted)
    assert not is_generated(range(1, 201), 7)
    assert calls == [(2, 9)]


def test_many_equal_weights_are_not_an_exponential_search():
    # every subset of the twos has gcd 2, so only pairs (2, 3) are minimal;
    # the subprocess runs first, so an exponential search fails by its timeout
    weights = (2,) * 40 + (3, 3)
    small = (2,) * 6 + (3, 3)
    for m in (1, 7):
        doc = _cli_json("wps", "generated", ",".join(map(str, weights)), "--m", str(m))
        assert doc["result"] is generated_by_reachability(small, m) is (m != 1)
    assert len(list(_minimal_unit_supports(weights))) == 80


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


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: SingularStratum(1, (0, 1)), "stratum order must exceed 1"),
        (lambda: SingularStratum(2, ()), "stratum must support at least one coordinate"),
        (lambda: cotangent_twist_lmin((1, 1)), "need at least three weights"),
    ],
    ids=["stratum-order-1", "stratum-without-coordinates", "lmin-of-two-weights"],
)
def test_wps_refusals(build, message):
    with pytest.raises(ValueError, match=message):
        build()


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
