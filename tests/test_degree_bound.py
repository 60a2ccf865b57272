import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fanocalc import degree_bound
from fanocalc.chern import FormalBundle, chern_class, twist_line
from fanocalc.degree_bound import (
    ALWAYS_OK,
    BOUND,
    INFEASIBLE_FOR_ALL_M,
    FeasibilityWitness,
    SourceInvariants,
    E_value,
    boundedness_verdict,
    cotangent_twist,
    degree_from_multiplier,
    feasibility_witnesses,
    feasible_multipliers,
    generic_iso_exists,
    max_multiplier,
    noether_lefschetz_threshold,
    quadric_degree_bound,
    quadric_multiplier_bound,
    ramification_feasibility,
    source_invariants,
    _last_nonpositive,
    _option_tables,
)
from fanocalc.fano_db import FanoRecord, lookup
from fanocalc.rings import line_ring
from oracles import max_multiplier_scan

QUARTIC_X = SourceInvariants(H3X=4, kappa=-1, c2HX=24, c3OmegaX=56)


# -- cotangent twist -------------------------------------------------------------

def test_cotangent_twist_very_ample_is_two():
    assert cotangent_twist(lookup("V6")) == 2
    assert cotangent_twist(lookup("A5")) == 2


def test_cotangent_twist_from_weighted_models():
    assert cotangent_twist(lookup("A2")) == 3
    assert cotangent_twist(lookup("A1")) == 7
    assert cotangent_twist(lookup("V2")) == 4
    assert cotangent_twist(lookup("V4-double-quadric")) == 3


def test_cotangent_twist_needs_an_ambient_model():
    bare = FanoRecord("A2-bare", 2, 2, None, 20, False, 4)
    with pytest.raises(ValueError):
        cotangent_twist(bare)


# -- the E criterion -------------------------------------------------------------

def test_E_values_for_the_worked_families():
    assert E_value(lookup("V4-quartic"), 2) == 88
    assert E_value(lookup("A4"), 2) == -8
    assert E_value(lookup("A2"), 4) == 0
    assert E_value(lookup("A2"), 3) == 16


def test_E_negative_on_quadric_and_projective_space():
    for twist in range(1, 11):
        assert E_value(lookup("Q3"), twist) == -4 + 8 * twist - 6 * twist**2
        assert E_value(lookup("Q3"), twist) < 0
        assert E_value(lookup("P3"), twist) < 0


def test_E_requires_an_int_twist():
    # E_value(V4-quartic, 2.0) was 88.0
    for twist in (2.0, True):
        with pytest.raises(ValueError, match="twist must be an int"):
            E_value(lookup("V4-quartic"), twist)


def test_E_requires_b3():
    with pytest.raises(ValueError):
        E_value(lookup("V6"), 2)


def test_verdicts():
    assert boundedness_verdict(lookup("V4-quartic"), 2) == "bounded"
    assert boundedness_verdict(lookup("A4"), 2) == "inconclusive"
    assert boundedness_verdict(lookup("A2"), 4) == "inconclusive"


@pytest.mark.parametrize("name", ["V4-quartic", "A4", "A2"])
def test_E_matches_twisted_cotangent_chern_computation(name):
    # Seed the hyperplane-class ring with c(Omega) and compare the degree of
    # c_3(Omega(l h)) with E + l^3 H^3; the twist formula supplies the
    # independent route.
    record = lookup(name)
    r, H3 = record.index, record.H3
    ring = line_ring(3, top_integral=H3)
    h = ring.gen()
    c2_coeff = 24 // (r * H3)
    c3_coeff = (record.b3 - 4) // H3
    cotangent = FormalBundle(
        ring, 3, (-r * h, c2_coeff * h**2, c3_coeff * h**3)
    )
    for twist in range(1, 7):
        twisted = twist_line(cotangent, twist * h)
        total = ring.integral(chern_class(twisted, 3))
        assert total == E_value(record, twist) + twist**3 * H3


# -- the multiplier search ---------------------------------------------------------

def test_identity_self_map_of_the_quartic_is_extremal():
    Y = lookup("V4-quartic")
    assert max_multiplier(QUARTIC_X, Y, 2) == 1
    # equality at m = 1: both sides of the inequality are E = 88
    lhs = 1 * E_value(Y, 2)
    rhs = 56 + 2 * 1 * 24 + 4 * 1 * (-1) * 4
    assert lhs == rhs == 88


def test_multiplier_two_fails_for_the_quartic_self_map():
    Y = lookup("V4-quartic")
    degree = 2**3 * 4 // 4
    lhs = degree * E_value(Y, 2)
    rhs = 56 + 2 * 2 * 24 + 4 * 4 * (-1) * 4
    assert lhs == 704 and rhs == 88 and lhs > rhs


def test_large_c3_gives_cube_root_scale():
    X = SourceInvariants(H3X=4, kappa=-1, c2HX=24, c3OmegaX=10**6)
    assert max_multiplier(X, lookup("V4-quartic"), 2) == 22


@given(st.integers(1, 60), st.integers(-3000, 3000), st.integers(-3000, 3000),
       st.integers(-3000, 3000))
def test_multiplier_bisection_matches_the_scan(a, b, c, d):
    assert _last_nonpositive(a, b, c, d) == max_multiplier_scan(a, b, c, d)


@pytest.mark.parametrize("coefficients, expected", [
    ((1, 0, 0, 8), 2),  # m^3 <= 8: no falling piece
    ((1, 0, 0, 0), 0),  # m^3 <= 0: nothing passes
    ((1, 3, 6, -8), 4),  # (m + 2)(m - 1)(m - 4): on the last rising piece
    ((1, 9, -15, -25), 5),  # (m + 1)(m - 5)^2: the falling piece's right end
    ((1, 23, -161, 303), 3),  # (m - 3)((m - 10)^2 + 1): the first rising piece
])
def test_multiplier_bisection_pieces(coefficients, expected):
    assert _last_nonpositive(*coefficients) == expected == max_multiplier_scan(*coefficients)


@given(st.integers(1, 5), st.lists(st.integers(-30, 30), min_size=3, max_size=3))
def test_multiplier_bisection_on_three_integer_roots(a, roots):
    # a (m - r1)(m - r2)(m - r3) <= 0 exactly for m <= r1 or r2 <= m <= r3
    r1, r2, r3 = sorted(roots)
    b, c, d = a * (r1 + r2 + r3), -a * (r1 * r2 + r1 * r3 + r2 * r3), a * r1 * r2 * r3
    assert _last_nonpositive(a, b, c, d) == max(0, r3)


@given(st.integers(1, 5), st.integers(-30, 30), st.integers(-30, 30), st.integers(1, 40))
def test_multiplier_bisection_with_one_real_root(a, r, s, q):
    # a (m - r)((m - s)^2 + q) <= 0 exactly for m <= r, even when the cubic
    # falls and rises again beyond r (s > r, q small)
    b = a * (r + 2 * s)
    c = -a * (2 * r * s + s * s + q)
    d = a * r * (s * s + q)
    assert _last_nonpositive(a, b, c, d) == max(0, r)


@given(st.integers(1, 64), st.integers(-4, 2), st.integers(-200, 200),
       st.integers(-5000, 5000), st.sampled_from(["V4-quartic", "A2"]), st.integers(1, 3))
def test_max_multiplier_matches_the_scan(h3x, kappa, c2hx, c3x, target, l):
    Y = lookup(target)
    if E_value(Y, l) <= 0:
        return
    X = SourceInvariants(H3X=h3x, kappa=kappa, c2HX=c2hx, c3OmegaX=c3x)
    a = E_value(Y, l) * h3x
    b, c, d = Y.H3 * kappa * h3x * l * l, Y.H3 * c2hx * l, Y.H3 * c3x
    assert max_multiplier(X, Y, l) == max_multiplier_scan(a, b, c, d)


def test_max_multiplier_for_huge_invariants_is_exact():
    # the scan's bound here is about 4.5e18 candidates; the bisection
    # takes a few dozen steps
    X = SourceInvariants(H3X=1, kappa=-1, c2HX=1, c3OmegaX=10**20)
    Y = lookup("V4-quartic")
    m = max_multiplier(X, Y, 2)
    E = E_value(Y, 2)

    def passes(m):
        return E * m**3 <= Y.H3 * (X.c3OmegaX + 2 * m * X.c2HX + 4 * m * m * X.kappa)

    assert m == 1656503 and passes(m) and not passes(m + 1)


def test_max_multiplier_requires_positive_E():
    with pytest.raises(ValueError):
        max_multiplier(QUARTIC_X, lookup("A4"), 2)


def test_identity_always_passes_where_E_is_positive():
    for name in ("V4-quartic", "A2"):
        record = lookup(name)
        twist = cotangent_twist(record)
        if E_value(record, twist) > 0:
            X = source_invariants(record)
            assert max_multiplier(X, record, twist) >= 1


def test_double_cover_of_the_cubic_threefold_is_admitted():
    # special smooth V6 = {y^2 = q(x), f_3(x) = 0} in P^5 cover A3 = {f_3 = 0}
    # in P^4 twice with m = 1, and E(A3, 2) = 6 makes the cubic inequality
    # tight there: an off-by-one in it would exclude a morphism that exists.
    # The table records neither b3, so the classical 40 and 10 are used here.
    V6 = source_invariants(FanoRecord("V6", 1, 6, 4, 40, True, 6))
    A3 = FanoRecord("A3", 2, 3, None, 10, True, 5)
    assert E_value(A3, 2) == 6
    assert max_multiplier(V6, A3, 2) == 1
    assert degree_from_multiplier(1, V6.H3X, A3.H3) == 2
    assert 1 in feasible_multipliers(1, 2, True, range(1, 5))


def test_source_invariants_from_record():
    X = source_invariants(lookup("V4-quartic"))
    assert X == QUARTIC_X
    with pytest.raises(ValueError):
        source_invariants(lookup("V6"))  # b3 unknown


def test_source_invariants_validation():
    with pytest.raises(ValueError):
        SourceInvariants(H3X=0, kappa=-1, c2HX=24, c3OmegaX=56)
    with pytest.raises(ValueError):
        SourceInvariants(H3X=1, kappa=-5, c2HX=24, c3OmegaX=56)


# -- degree arithmetic ---------------------------------------------------------------

def test_degree_from_multiplier():
    assert degree_from_multiplier(1, 4, 4) == 1
    assert degree_from_multiplier(2, 2, 2) == 8
    with pytest.raises(ValueError):
        degree_from_multiplier(1, 3, 4)
    with pytest.raises(ValueError):
        degree_from_multiplier(0, 4, 4)


def test_degree_from_multiplier_requires_ints():
    # degree_from_multiplier(2.0, 1, 1) was 8.0
    for args, name in (((2.0, 1, 1), "multiplier"), ((2, 1.0, 1), "H3X"), ((2, 1, True), "H3Y")):
        with pytest.raises(ValueError, match=f"{name} must be an int"):
            degree_from_multiplier(*args)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: degree_from_multiplier(1, 0, 4), "degrees must be positive"),
        (lambda: degree_from_multiplier(2, 4, -1), "degrees must be positive"),
        (lambda: feasibility_witnesses(1, 1, True, 0), "multiplier must be at least 1"),
        # feasible_multipliers(1, 2, True, [1.5, True, 2]) was {True, 2, 1.5}, and
        # feasibility_witnesses(1, 1, True, True) answered as m = 1
        (lambda: feasible_multipliers(1, 2, True, [1.5, True, 2]), "must be an int"),
        (lambda: feasible_multipliers(1, 2, True, [True]), "must be an int"),
        (lambda: feasible_multipliers(1, 2, True, [2, 3.0]), "must be an int"),
        # each value is checked before any is merged: a set of [1, True] kept only the 1
        (lambda: feasible_multipliers(1, 2, True, [1, True]), "must be an int"),
        (lambda: feasibility_witnesses(1, 1, True, True), "must be an int"),
        (lambda: feasibility_witnesses(1, 1, True, 1.0), "must be an int"),
        (lambda: feasibility_witnesses(1, 1, True, "1"), "must be an int"),
    ],
    ids=["source-degree-0", "negative-target-degree", "witnesses-for-m-0",
         "range-float-and-bool", "range-bool", "range-float", "range-bool-equal-to-an-int",
         "witnesses-for-bool", "witnesses-for-float", "witnesses-for-str"],
)
def test_multiplier_arithmetic_refuses(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# -- ramification feasibility ----------------------------------------------------------

def test_positive_slope_bound():
    verdict = ramification_feasibility(1, 3, SourceInvariants(1, 4, 0, 0))
    assert verdict.kind == BOUND and verdict.bound == 8


def test_fano_source_never_contains_preimage():
    fano = SourceInvariants(2, -1, 0, 0)
    assert ramification_feasibility(1, 2, fano).kind == INFEASIBLE_FOR_ALL_M
    assert ramification_feasibility(2, 4, fano).kind == INFEASIBLE_FOR_ALL_M


def test_negative_kappa_with_positive_slope_is_infeasible():
    assert ramification_feasibility(1, 3, SourceInvariants(2, -1, 0, 0)).kind == INFEASIBLE_FOR_ALL_M


def test_no_constraint_cases():
    assert ramification_feasibility(2, 3, SourceInvariants(1, 5, 0, 0)).kind == ALWAYS_OK
    assert ramification_feasibility(1, 2, SourceInvariants(1, 0, 0, 0)).kind == ALWAYS_OK


def test_input_validation():
    with pytest.raises(ValueError):
        ramification_feasibility(3, 3, QUARTIC_X)
    with pytest.raises(ValueError):
        ramification_feasibility(1, 0, QUARTIC_X)


@given(st.integers(1, 2), st.integers(1, 12), st.integers(-4, 8))
def test_feasibility_matches_direct_inequality(rY, k, kappa):
    X = SourceInvariants(1, kappa, 0, 0)
    verdict = ramification_feasibility(rY, k, X)
    feasible = [m for m in range(1, 60) if Fraction(kappa) >= m * (Fraction(k, 2) - rY)]
    if verdict.kind == INFEASIBLE_FOR_ALL_M:
        assert feasible == []
    elif verdict.kind == BOUND:
        assert feasible == list(range(1, verdict.bound + 1))
    else:
        # no upper bound: large multipliers stay feasible
        assert 59 in feasible


def _rational_verdict(rY, k, kappa):
    """The verdict of ``kappa >= m (k/2 - rY)`` computed in rationals."""
    slope = Fraction(k, 2) - rY
    if slope > 0:
        bound = Fraction(kappa) / slope
        return (INFEASIBLE_FOR_ALL_M, None) if bound < 1 else (BOUND, math.floor(bound))
    if slope == 0 and kappa < 0:
        return (INFEASIBLE_FOR_ALL_M, None)
    return (ALWAYS_OK, None)


def test_ramification_verdicts_match_the_rational_reference():
    # every case of the ranges above, so each boundary 2 kappa = m (k - 2 rY) is met
    for rY, k, kappa in itertools.product((1, 2), range(1, 13), range(-4, 9)):
        verdict = ramification_feasibility(rY, k, SourceInvariants(1, kappa, 0, 0))
        assert (verdict.kind, verdict.bound) == _rational_verdict(rY, k, kappa)


@given(st.integers(1, 2), st.integers(1, 10**6), st.integers(-4, 10**6))
def test_large_ramification_verdicts_match_the_rational_reference(rY, k, kappa):
    verdict = ramification_feasibility(rY, k, SourceInvariants(1, kappa, 0, 0))
    assert (verdict.kind, verdict.bound) == _rational_verdict(rY, k, kappa)


@given(st.integers(1, 2), st.integers(1, 12), st.integers(-4, 8))
def test_fano_with_k_at_least_2r_is_always_infeasible(rY, k, kappa):
    X = SourceInvariants(1, kappa, 0, 0)
    if kappa < 0 and k >= 2 * rY:
        assert ramification_feasibility(rY, k, X).kind == INFEASIBLE_FOR_ALL_M


# -- split maps on rational curves ----------------------------------------------------------

def test_generic_iso_examples():
    assert generic_iso_exists((0, 0), (0, 0))
    assert not generic_iso_exists((1, -1), (0, 0))
    assert generic_iso_exists((0, -1), (1, -1))


pairs = st.tuples(st.integers(-5, 5), st.integers(-5, 5))


@given(pairs)
def test_generic_iso_reflexive(src):
    assert generic_iso_exists(src, src)


@given(pairs, pairs, st.integers(0, 3), st.integers(0, 3))
def test_generic_iso_monotone_in_target(src, dst, da, db):
    c, d = sorted(dst, reverse=True)
    if generic_iso_exists(src, dst):
        assert generic_iso_exists(src, (c + da, d + db))


# -- multiplier enumeration -------------------------------------------------------------------

def test_index_one_to_index_one_forces_multiplier_one():
    assert feasible_multipliers(1, 1, True, range(1, 11)) == {1}


def test_identity_witness_is_the_trivial_line_case():
    witnesses = feasibility_witnesses(1, 1, True, 1)
    assert any(
        w.component == "line" and w.source == (0, -1) and w.target == (0, -1)
        for w in witnesses
    )


def test_multipliers_beyond_one_have_no_witnesses():
    for m in range(2, 6):
        assert feasibility_witnesses(1, 1, True, m) == ()


def test_feasible_multipliers_rejects_empty_range():
    with pytest.raises(ValueError):
        feasible_multipliers(1, 1, True, [])
    with pytest.raises(ValueError):
        feasible_multipliers(1, 1, True, range(5, 3))


@pytest.mark.parametrize("m_range", [range(0, 4), [3, 0, 7], range(-2, 1)])
def test_feasible_multipliers_rejects_multipliers_below_one(m_range):
    with pytest.raises(ValueError, match="at least 1"):
        feasible_multipliers(1, 1, True, m_range)


def _witnesses_reference(rX, rY, very_ample, m):
    """The witnesses for m by the definition: every option triple tested at m."""
    targets, components = _option_tables(rX, rY, very_ample)
    return tuple(
        FeasibilityWitness(component, h, src, ttype, (ttype[0] * m * h, ttype[1] * m * h))
        for component, h, sources in components
        for ttype in targets
        for src in sources
        if generic_iso_exists(src, (ttype[0] * m * h, ttype[1] * m * h))
    )


multiplier_starts = st.integers(1, 400) | st.integers(1, 10**12)


@given(
    st.sampled_from([1, 2]),
    st.sampled_from([1, 2]),
    st.booleans(),
    st.sets(multiplier_starts, min_size=1, max_size=40)
    | st.lists(multiplier_starts, min_size=1, max_size=20).map(lambda ms: ms + ms[::-2])
    | st.builds(lambda lo, n: range(lo, lo + n), multiplier_starts, st.integers(1, 120))
    | st.builds(
        lambda lo, n, step: range(lo, lo + n * step, step),
        multiplier_starts, st.integers(1, 60), st.integers(2, 10**6),
    )
    | st.builds(
        lambda lo, n, step: range(lo + (n - 1) * step, lo - 1, -step),
        multiplier_starts, st.integers(1, 60), st.integers(1, 10**6),
    ),
    st.booleans(),
)
def test_feasible_multipliers_match_witnesses_per_multiplier(rX, rY, very_ample, ms, lazily):
    # sets, lists with repeats, ranges up and down, each also given as a generator
    expected = {m for m in ms if _witnesses_reference(rX, rY, very_ample, m)}
    given_ms = (m for m in ms) if lazily else ms
    assert feasible_multipliers(rX, rY, very_ample, given_ms) == expected


def test_feasible_multipliers_cut_a_range_past_sys_maxsize():
    # a range is cut by index arithmetic: neither len() nor a set of its values
    assert feasible_multipliers(1, 1, True, range(1, 10**30)) == {1}
    assert feasible_multipliers(1, 1, True, range(2, 10**30)) == set()
    top = range(10**30, 10**30 + 7, 3)
    assert feasible_multipliers(1, 2, True, top) == set(top)


@given(st.sampled_from([1, 2]), st.sampled_from([1, 2]), st.booleans(), multiplier_starts)
def test_witnesses_match_the_per_multiplier_definition(rX, rY, very_ample, m):
    assert feasibility_witnesses(rX, rY, very_ample, m) == _witnesses_reference(
        rX, rY, very_ample, m
    )


def test_feasible_multipliers_cost_does_not_grow_with_the_range(monkeypatch):
    calls = []
    real = degree_bound.generic_iso_exists
    monkeypatch.setattr(
        degree_bound, "generic_iso_exists", lambda src, dst: calls.append(src) or real(src, dst)
    )
    counts = []
    for length in (10, 10**4):
        calls.clear()
        assert feasible_multipliers(1, 2, True, range(1, length + 1)) == set(range(1, length + 1))
        assert feasible_multipliers(1, 1, True, range(1, length + 1)) == {1}
        counts.append(len(calls))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("rX", [1, 2])
@pytest.mark.parametrize("rY", [1, 2])
@pytest.mark.parametrize("very_ample", [True, False])
def test_feasibility_is_downward_closed(rX, rY, very_ample):
    feasible = feasible_multipliers(rX, rY, very_ample, range(1, 13))
    for m in range(1, 12):
        if m not in feasible:
            assert m + 1 not in feasible


# -- the quadric threshold ----------------------------------------------------------------------

def test_threshold_values():
    assert noether_lefschetz_threshold(-3) == 7
    assert noether_lefschetz_threshold(0) == 16


@pytest.mark.parametrize("kappa", [-5, -10, -1000])
def test_threshold_refuses_an_index_above_4_as_a_source_does(kappa):
    # noether_lefschetz_threshold(-10) was -14, below the 4 the quadric bound relies on
    message = "a Fano with cyclic Picard group has index at most 4"
    with pytest.raises(ValueError, match=message):
        noether_lefschetz_threshold(kappa)
    with pytest.raises(ValueError, match=message):
        SourceInvariants(H3X=1, kappa=kappa, c2HX=0, c3OmegaX=0)
    assert noether_lefschetz_threshold(-4) == 4


def test_quadric_chain():
    X = SourceInvariants(H3X=2, kappa=-1, c2HX=0, c3OmegaX=0)
    assert quadric_multiplier_bound(X) == 13
    assert quadric_degree_bound(X) == 13**3 * 2 // 2 == 2197


def test_quadric_bound_odd_degree_source():
    X = SourceInvariants(H3X=3, kappa=-1, c2HX=0, c3OmegaX=0)
    # threshold 13 is odd and 13^3*3 is odd, so the chain drops to m = 12
    assert quadric_degree_bound(X) == 12**3 * 3 // 2


def test_quadric_unsupported_combination():
    X = SourceInvariants(H3X=2, kappa=0, c2HX=0, c3OmegaX=0)
    assert quadric_multiplier_bound(X) == 16


def _quadric_degree_by_descent(X):
    """The largest m <= 3 kappa + 16 with m^3 H_X^3 even, found by walking down."""
    for m in range(noether_lefschetz_threshold(X.kappa), 0, -1):
        if (m**3 * X.H3X) % 2 == 0:
            return m**3 * X.H3X // 2
    raise AssertionError("no multiplier gives an integral degree")


def test_quadric_degree_closed_form_matches_descent():
    for kappa in range(-4, 41):
        for H3X in range(1, 41):
            X = SourceInvariants(H3X=H3X, kappa=kappa, c2HX=0, c3OmegaX=0)
            assert quadric_degree_bound(X) == _quadric_degree_by_descent(X), (kappa, H3X)
