"""Closed-form Euler characteristics in dimensions two and three.

For a divisor D on a smooth projective surface,

    chi(O(D)) = D(D - K)/2 + (K^2 + c_2)/12,

and on a smooth projective threefold,

    chi(O(D)) = D^3/6 - K.D^2/4 + D.(K^2 + c_2)/12 + c_1 c_2 / 24.

Values are exact rationals, never rounded: a non-integral value is
returned as it is (``rr chi2`` and ``rr chi3`` report whether it is
integral), since a broken integrality is the best bug detector in this
kind of code.  The module also derives the standard numerical invariants of
a Fano threefold of Picard rank one from its index, degree and third Betti
number.
"""

from __future__ import annotations

from . import _Record, _typed


class SurfaceIntersectionData(_Record):
    """Intersection numbers of a divisor D on a surface.

    ``DD = D^2``, ``DK = D.K``, ``KK = K^2``, ``c2`` the topological Euler
    number.  ``K^2 + c2 = 12 chi(O)`` must be divisible by 12 for actual
    surfaces; the type does not enforce it so near-miss data can be probed.
    """

    DD: int
    DK: int
    KK: int
    c2: int


class ThreefoldIntersectionData(_Record):
    """Intersection numbers of a divisor D on a threefold.

    ``D3 = D^3``, ``KD2 = K.D^2``, ``KKD = K^2.D``, ``c2D = c_2.D`` and
    ``c1c2 = c_1 c_2`` (which equals ``24 chi(O)``).
    """

    D3: int
    KD2: int
    KKD: int
    c2D: int
    c1c2: int


def _fraction(numerator: int, denominator: int) -> Fraction:
    """``Fraction(numerator, denominator)``.  Only the two evaluators below
    build a Fraction, so ``fractions`` (which brings ``decimal``) is imported
    on their first call, which also rebinds this name to the class itself:
    the degree certificates never load it, and later calls pay no import."""
    global _fraction
    from fractions import Fraction

    _fraction = Fraction
    return Fraction(numerator, denominator)


def chi_surface(d: SurfaceIntersectionData) -> Fraction:
    """``D(D-K)/2 + (K^2 + c2)/12`` as an exact rational, over one denominator."""
    return _fraction(6 * (d.DD - d.DK) + d.KK + d.c2, 12)


def chi_threefold(d: ThreefoldIntersectionData) -> Fraction:
    """``D^3/6 - K.D^2/4 + D.(K^2+c_2)/12 + c_1c_2/24`` as an exact rational,
    over one denominator."""
    return _fraction(4 * d.D3 - 6 * d.KD2 + 2 * (d.KKD + d.c2D) + d.c1c2, 24)


class FanoSurfaceConstants(_Record):
    c2: int
    K2: int


def noether_surface_fano() -> FanoSurfaceConstants:
    """Chern numbers of a Fano surface with cyclic Picard group.

    With ``b1 = 0``, ``b2 = 1``, ``b3 = 0`` the Euler number is
    ``c2 = 1 + 1 + 1 = 3``, and Noether's formula ``K^2 + c2 = 12 chi(O) = 12``
    forces ``K^2 = 9`` (the projective plane).
    """
    c2 = 3
    return FanoSurfaceConstants(c2=c2, K2=12 - c2)


class FanoNumericalInvariants(_Record):
    """Numerical invariants of a Fano threefold of Picard rank one.

    ``c2H = c_2(T).H``, ``c3Omega = c_3(Omega) = b_3 - 4`` (the sign
    convention with ``c_3(Omega) = -chi_top``), ``genus`` only for index 1.
    """

    r: int
    H3: int
    c2H: int
    c3Omega: int
    b3: int
    genus: int | None = None

    @property
    def anticanonical_system_dim(self) -> int:
        """``dim |-K| = g + 1``; defined only in index 1."""
        if self.genus is None:
            raise ValueError("genus (and dim |-K|) only defined for index 1")
        return self.genus + 1


def derive_fano_invariants(r: int, H3: int, b3: int) -> FanoNumericalInvariants:
    """Derive ``c2.H``, ``c3(Omega)`` and (index 1) the genus.

    ``c_1 c_2 = 24 chi(O) = 24`` and ``c_1 = r H`` give ``c_2.H = 24/r``;
    ``chi_top = 4 - b3`` for ``(b0, b2, b4, b6) = (1, 1, 1, 1)`` gives
    ``c_3(Omega) = b3 - 4``.  In index 1, ``H^3 = 2g - 2``.
    """
    if _typed(r, "index") not in (1, 2, 3, 4):
        raise ValueError(f"index must be 1..4, got {r}")
    if _typed(H3, "H3") < 1:
        raise ValueError("degree H^3 must be positive")
    if _typed(b3, "b3") < 0 or b3 % 2:
        raise ValueError("b3 must be a nonnegative even integer")
    genus = None
    if r == 1:
        if H3 % 2:
            raise ValueError("index-1 degree (-K)^3 = H^3 must be even")
        genus = (H3 + 2) // 2
    return FanoNumericalInvariants(
        r=r, H3=H3, c2H=24 // r, c3Omega=b3 - 4, b3=b3, genus=genus
    )
