from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fanocalc.riemann_roch import (
    SurfaceIntersectionData,
    ThreefoldIntersectionData,
    chi_surface,
    chi_threefold,
    derive_fano_invariants,
    noether_surface_fano,
)


def test_chi_surface_hyperplane_on_plane():
    assert chi_surface(SurfaceIntersectionData(DD=1, DK=-3, KK=9, c2=3)) == 3


def test_chi_surface_structure_sheaf():
    assert chi_surface(SurfaceIntersectionData(DD=0, DK=0, KK=9, c2=3)) == 1


def test_chi_surface_canonical_on_plane():
    assert chi_surface(SurfaceIntersectionData(DD=9, DK=9, KK=9, c2=3)) == 1


def test_chi_threefold_structure_sheaf():
    assert chi_threefold(ThreefoldIntersectionData(0, 0, 0, 0, 24)) == 1


@pytest.mark.parametrize("H3", range(2, 24, 2))
def test_index_one_anticanonical_formula(H3):
    # D = -K = H, c2.H = 24, c1c2 = 24
    data = ThreefoldIntersectionData(D3=H3, KD2=-H3, KKD=H3, c2D=24, c1c2=24)
    assert chi_threefold(data) == Fraction(H3, 2) + 3


@pytest.mark.parametrize("H3", range(1, 6))
def test_index_two_fundamental_formula(H3):
    # D = H, K = -2H, c2.H = 12, c1c2 = 24
    data = ThreefoldIntersectionData(D3=H3, KD2=-2 * H3, KKD=4 * H3, c2D=12, c1c2=24)
    assert chi_threefold(data) == H3 + 2


def test_specific_values():
    assert chi_threefold(ThreefoldIntersectionData(4, -4, 4, 24, 24)) == 5
    assert chi_threefold(ThreefoldIntersectionData(5, -10, 20, 12, 24)) == 7


@given(
    st.integers(-6, 6),
    st.integers(-6, 6),
    st.integers(-20, 20),
    st.integers(-20, 20),
)
def test_chi_surface_integral_under_parity_and_noether(dd, dk, kk, c2_raw):
    # force K^2 + c2 = 0 mod 12 and D.K = D.D mod 2
    c2 = c2_raw * 12 - kk
    dk = dk * 2 + (dd % 2)
    value = chi_surface(SurfaceIntersectionData(dd, dk, kk, c2))
    assert value.denominator == 1


BIG = st.integers(-10**6, 10**6)


@given(BIG, BIG, BIG, BIG)
def test_chi_surface_is_the_two_term_sum(dd, dk, kk, c2):
    value = chi_surface(SurfaceIntersectionData(dd, dk, kk, c2))
    assert type(value) is Fraction
    assert value == Fraction(dd - dk, 2) + Fraction(kk + c2, 12)


@given(BIG, BIG, BIG, BIG, BIG)
def test_chi_threefold_is_the_four_term_sum(d3, kd2, kkd, c2d, c1c2):
    value = chi_threefold(ThreefoldIntersectionData(d3, kd2, kkd, c2d, c1c2))
    assert type(value) is Fraction
    expected = Fraction(d3, 6) - Fraction(kd2, 4) + Fraction(kkd + c2d, 12) + Fraction(c1c2, 24)
    assert value == expected


def test_noether_surface_constants():
    constants = noether_surface_fano()
    assert constants.K2 == 9
    assert constants.c2 == 3
    assert constants.K2 + constants.c2 == 12


def test_derive_fano_invariants_examples():
    quartic = derive_fano_invariants(1, 4, 60)
    assert (quartic.c2H, quartic.c3Omega, quartic.genus) == (24, 56, 3)
    assert quartic.anticanonical_system_dim == 4
    a4 = derive_fano_invariants(2, 4, 4)
    assert (a4.c2H, a4.c3Omega) == (12, 0)
    a2 = derive_fano_invariants(2, 2, 20)
    assert (a2.c2H, a2.c3Omega) == (12, 16)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_index_times_c2H_is_24(r):
    inv = derive_fano_invariants(r, 2, 0)
    assert r * inv.c2H == 24


def test_derive_fano_invariants_rejects_bad_input():
    with pytest.raises(ValueError):
        derive_fano_invariants(1, 7, 0)  # odd (-K)^3
    with pytest.raises(ValueError):
        derive_fano_invariants(5, 2, 0)
    with pytest.raises(ValueError):
        derive_fano_invariants(2, 2, 3)  # odd b3
    with pytest.raises(ValueError):
        derive_fano_invariants(2, 0, 0)


def test_genus_only_defined_in_index_one():
    inv = derive_fano_invariants(2, 4, 4)
    assert inv.genus is None
    with pytest.raises(ValueError):
        inv.anticanonical_system_dim
