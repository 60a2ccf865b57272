"""Degree certificates for finite morphisms onto Fano threefolds.

Throughout, X and Y are smooth projective threefolds with cyclic Picard
group, f: X -> Y is finite, H denotes the ample generator, l is the twist
making Omega_Y(lH) globally generated, and m is the pullback multiplier
(f^*H_Y = m H_X), so deg f = m^3 H_X^3 / H_Y^3.

The positivity certificate is the integer

    E(Y, l) = c_3(Omega_Y) + c_2(Omega_Y).lH + c_1(Omega_Y).(lH)^2
            = (b_3 - 4) + l(24/r) - l^2 r H^3,

using c_1 c_2 = 24 and c_3(Omega) = b_3 - 4.  When E > 0, comparing zeros
of a generic twisted form upstairs and downstairs bounds m by an exact
integer inequality (cubic versus quadratic growth).  The remaining
operations encode the ramification-multiplicity argument for surfaces swept
by special lines, the normal-bundle enumeration that pins the multiplier of
a morphism between index-1 Fanos to 1, and the ampleness threshold
3 kappa + 16 beyond which a split normal-bundle sequence contradicts the
infinitesimal Noether-Lefschetz theorem on the quadric.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable
from functools import lru_cache
from math import inf, isqrt

from . import _Record, _typed, wps
from .fano_db import (
    FanoRecord,
    conic_normal_bundle_degrees,
    line_normal_bundle_options,
)
from .riemann_roch import derive_fano_invariants


class SourceInvariants(_Record):
    """Numerical invariants of the source threefold X.

    ``kappa`` is the integer with K_X = kappa.H_X; ``c2HX = c_2(T_X).H_X``;
    ``c3OmegaX = c_3(Omega_X) = -chi_top(X)``.
    """

    H3X: int
    kappa: int
    c2HX: int
    c3OmegaX: int

    def __post_init__(self):
        if self.H3X < 1:
            raise ValueError("H_X^3 must be positive")
        noether_lefschetz_threshold(self.kappa)  # refuses a kappa below -4


def source_invariants(record: FanoRecord) -> SourceInvariants:
    """Invariants of a classified Fano family viewed as the source X."""
    if record.b3 is None:
        raise ValueError(f"{record.name}: b3 unknown, c_3(Omega) not determined")
    inv = derive_fano_invariants(record.index, record.H3, record.b3)
    return SourceInvariants(
        H3X=record.H3, kappa=-record.index, c2HX=inv.c2H, c3OmegaX=inv.c3Omega
    )


def cotangent_twist(Y: FanoRecord) -> int:
    """A twist l with Omega_Y(lH) globally generated.

    Very ample H: l = 2 (Omega of the ambient projective space, twisted by
    2, is generated, and Omega_Y(2H) is a quotient).  Otherwise the family's
    weighted ambient model supplies the bound through the Euler sequence.
    """
    if Y.very_ample:
        return 2
    ambient = Y.ambient
    if ambient is None:
        raise ValueError(f"{Y.name}: not very ample and no weighted ambient model recorded")
    return wps.cotangent_twist_lmin(ambient)


def E_value(Y: FanoRecord, l: int) -> int:
    """The certificate integer ``(b3 - 4) + l(24/r) - l^2 r H^3``, with
    ``c2.H`` and ``c3(Omega)`` from ``derive_fano_invariants``."""
    _typed(l, "twist")
    if Y.b3 is None:
        raise ValueError(f"{Y.name}: b3 unknown, E(Y,l) not computable")
    inv = derive_fano_invariants(Y.index, Y.H3, Y.b3)
    return inv.c3Omega + l * inv.c2H - l * l * inv.r * inv.H3


BOUNDED = "bounded"
INCONCLUSIVE = "inconclusive"


def boundedness_verdict(Y: FanoRecord, l: int) -> str:
    """``bounded`` iff E(Y, l) > 0 (then deg f is bounded for all f onto Y)."""
    return BOUNDED if E_value(Y, l) > 0 else INCONCLUSIVE


def max_multiplier(X: SourceInvariants, Y: FanoRecord, l: int) -> int:
    """Largest m passing the comparison of twisted top Chern classes.

    Requires E(Y, l) > 0.  The inequality, cleared of denominators,

        E(Y,l) H_X^3 m^3  <=  H_Y^3 (c3OmegaX + l m c2HX + l^2 m^2 kappa H_X^3),

    fails for all large m since the cubic side dominates; returns 0 when no
    m >= 1 passes.  Integrality of the would-be degree is a separate
    arithmetic filter, not part of this inequality.
    """
    E = E_value(Y, l)
    if E <= 0:
        raise ValueError(f"E({Y.name},{l}) = {E} is not positive")
    return _last_nonpositive(
        E * X.H3X,
        Y.H3 * X.kappa * X.H3X * l * l,
        Y.H3 * X.c2HX * l,
        Y.H3 * X.c3OmegaX,
    )


def _last_nonpositive(a: int, b: int, c: int, d: int) -> int:
    """Largest integer m >= 1 with ``a m^3 - b m^2 - c m - d <= 0`` (``a > 0``),
    0 if there is none, by exact bisection on the cubic's monotone pieces.

    The cubic rises up to its smaller critical point, falls to the larger,
    and rises after; the floor of the larger is ``(b + isqrt(b^2 + 3ac)) //
    3a``, exact.  If the last rising piece passes at its first integer, a
    bisection up to the Cauchy root bound finds the answer.  Otherwise the
    falling piece takes its least value at its right end, so one check
    there decides it; if that fails too, every integer of the falling piece
    fails, the passing m below it form a prefix of the first rising piece,
    and a bisection finds its end.
    """
    lo, hi = 1, 2 + max(abs(b), abs(c), abs(d)) // a  # beyond hi the cubic wins
    disc = b * b + 3 * a * c
    if disc > 0:  # there is a falling piece
        right = (b + isqrt(disc)) // (3 * a)  # floor of the larger critical point
        if right >= 1:
            m = right + 1
            if ((a * m - b) * m - c) * m - d <= 0:
                lo = m
            elif ((a * right - b) * right - c) * right - d <= 0:
                return right
            else:
                hi = right - 1
    while lo <= hi:  # the passing m of [lo, hi] form a prefix
        m = (lo + hi) // 2
        if ((a * m - b) * m - c) * m - d <= 0:
            lo = m + 1
        else:
            hi = m - 1
    return hi


def degree_from_multiplier(m: int, H3X: int, H3Y: int) -> int:
    """``m^3 H_X^3 / H_Y^3`` when integral, else an error: no morphism with
    this multiplier exists numerically."""
    if _typed(m, "multiplier") < 1:
        raise ValueError("multiplier must be at least 1")
    if _typed(H3X, "H3X") < 1 or _typed(H3Y, "H3Y") < 1:
        raise ValueError("degrees must be positive")
    total = m**3 * H3X
    if total % H3Y:
        raise ValueError(
            f"m^3 H_X^3 / H_Y^3 = {total}/{H3Y} is not an integer: "
            "no morphism with this multiplier exists numerically"
        )
    return total // H3Y


ALWAYS_OK = "always_ok"
BOUND = "bound"
INFEASIBLE_FOR_ALL_M = "infeasible_for_all_m"


class RamificationVerdict(_Record):
    """Feasibility of f^{-1}(S) lying inside the critical locus.

    ``infeasible_for_all_m``: impossible for every m >= 1 (the good case:
    preimages of the special surface always have a reduced component).
    ``bound``: possible only for m <= bound.  ``always_ok``: the arithmetic
    admits containment for arbitrarily large m, so no bound follows.
    """

    kind: str
    bound: int | None = None


def ramification_feasibility(rY: int, k: int, X: SourceInvariants) -> RamificationVerdict:
    """Arithmetic of the ramification-multiplicity argument.

    If the preimage of a surface S ~ kH_Y swept by special lines lies in
    the critical locus, every component of f^*S enters the ramification
    divisor with at least half its multiplicity, so K_X = kappa H_X forces

        kappa >= m (k/2 - rY).

    The verdict reports for which m that inequality is satisfiable.  It holds
    for every large m (``ALWAYS_OK``) when the slope is negative, or zero with kappa >= 0.
    """
    if _typed(rY, "target index") not in (1, 2):
        raise ValueError("target index must be 1 or 2")
    if _typed(k, "surface multiple k") < 1:
        raise ValueError("the surface multiple k must be positive")
    # With slope k/2 - rY = (k - 2 rY)/2 > 0 the bound is m <= 2 kappa / (k - 2 rY).
    slope = k - 2 * rY
    if slope > 0:
        if 2 * X.kappa < slope:
            return RamificationVerdict(INFEASIBLE_FOR_ALL_M)
        return RamificationVerdict(BOUND, (2 * X.kappa) // slope)
    if slope == 0 and X.kappa < 0:
        return RamificationVerdict(INFEASIBLE_FOR_ALL_M)
    return RamificationVerdict(ALWAYS_OK)


def generic_iso_exists(src: tuple[int, int], dst: tuple[int, int]) -> bool:
    """Whether split rank-2 bundles on a rational curve admit a map with
    generically nonvanishing determinant: sorted target dominates sorted
    source componentwise."""
    a, b = sorted((_typed(x, "source degree") for x in src), reverse=True)
    c, d = sorted((_typed(x, "target degree") for x in dst), reverse=True)
    return c >= a and d >= b


class FeasibilityWitness(_Record):
    """One normal-bundle configuration passing the generic-isomorphism test."""

    component: str
    h: int
    source: tuple[int, int]
    target_type: tuple[int, int]
    target: tuple[int, int]


def _option_tables(rX: int, rY: int, very_ample: bool) -> tuple[list, list]:
    """The target line types and, per source component (name, H_X.D,
    normal-bundle types), the options a witness is drawn from; none depends
    on the multiplier."""
    targets = sorted(line_normal_bundle_options(rY, very_ample))
    components = [("line", 1, sorted(line_normal_bundle_options(rX, very_ample)))]
    if rX == 1:
        # Conic option table is only established in index 1; line components
        # already cover the reduced pieces of degenerate conics.
        components.append(("conic", 2, sorted(conic_normal_bundle_degrees())))
    return targets, components


def _multiplier_interval(ttype: tuple[int, int], h: int, src: tuple[int, int]) -> tuple | None:
    """The multipliers m >= 1 for which ``generic_iso_exists(src, target)``
    holds, ``target = (t0 m h, t1 m h)`` for the type ``ttype = (t0, t1)``:
    ``(lo, hi)`` with ``hi`` possibly ``inf``, or ``None`` if there is none.

    For m >= 1 and h >= 1, m h > 0, so the target keeps the order of its
    type.  With (T, t) the type and (a, b) the source, each sorted in
    descending order, the test is then two linear inequalities in m:
    T h m >= a and t h m >= b.  A coefficient c = T h or t h against its
    bound k gives m >= ceil(k / c) if c > 0, m <= floor(k / c) if c < 0
    (dividing by c reverses the inequality), and every m or none if c = 0,
    as 0 >= k holds or fails; Python's floor division is exact for either
    sign, and ceil(k / c) = -(-k // c).  Both together hold on one
    interval, possibly empty.
    """
    lo, hi = 1, inf
    for c, k in zip(sorted(ttype, reverse=True), sorted(src, reverse=True)):
        c *= h
        if c > 0:
            lo = max(lo, -(-k // c))
        elif c < 0:
            hi = min(hi, k // c)
        elif k > 0:
            return None
    return (lo, hi) if lo <= hi else None


@lru_cache(maxsize=None, typed=True)  # so 1.0 or 1 is no cached 1 or True
def _multiplier_table(rX: int, rY: int, very_ample: bool) -> tuple[tuple, ...]:
    """Each (component, h, source, target type) that is a witness for some
    multiplier, with the interval ``(lo, hi)`` of the multipliers it is a
    witness for, in the order of the witnesses of one multiplier.  Built once
    per (rX, rY, very_ample), which ``--witnesses`` asks for per multiplier."""
    targets, components = _option_tables(rX, rY, very_ample)
    table = []
    for component, h, sources in components:
        for ttype in targets:
            for src in sources:
                interval = _multiplier_interval(ttype, h, src)
                if interval is not None:
                    table.append((component, h, src, ttype, *interval))
    return tuple(table)


def feasibility_witnesses(
    rX: int, rY: int, very_ample: bool, m: int
) -> tuple[FeasibilityWitness, ...]:
    """All component types compatible with multiplier m.

    A reduced component D of the preimage of a general line on Y is a line
    (H_X.D = 1) or a conic (H_X.D = 2); its normal bundle must map with
    generically nonvanishing determinant onto the pulled-back conormal
    pattern of the target line, whose type (a, b) scales to (a m h, b m h).
    The witnesses are the rows of the multiplier table whose interval
    holds m.
    """
    if _typed(m, "multiplier") < 1:
        raise ValueError("multiplier must be at least 1")
    return tuple(
        FeasibilityWitness(component, h, src, ttype, (ttype[0] * m * h, ttype[1] * m * h))
        for component, h, src, ttype, lo, hi in _multiplier_table(rX, rY, very_ample)
        if lo <= m <= hi
    )


def _cut(values, lo: int, hi: int | float):
    """The values in ``[lo, hi]`` of a sorted sequence (``hi`` possibly ``inf``),
    as a slice: for a range of step s from a, the first index i has a + i s >= lo,
    i = ceil((lo - a) / s), and the stop is one past floor((hi - a) / s); both are
    clamped at 0, as a negative index would count from the end."""
    if isinstance(values, range):
        start, step = values.start, values.step
        stop = None if hi == inf else max(0, (hi - start) // step + 1)
        return values[max(0, -((start - lo) // step)) : stop]
    return values[bisect_left(values, lo) : bisect_right(values, hi)]


def feasible_multipliers(
    rX: int, rY: int, very_ample: bool, m_range: Iterable[int]
) -> set[int]:
    """Multipliers in the range admitting at least one witness, by multiplier
    intervals in closed form: each row of the multiplier table is a witness
    exactly on its interval of m, so the feasible m are the values of the
    range in the union of those intervals, and no m is tested against the
    option tables.

    The values form one sorted sequence, and each interval of the union is
    cut out of it by a slice.  A ``range`` of positive step is already
    sorted, distinct and of ints: it is cut by index arithmetic (``bisect``
    calls ``len``, which fails past ``sys.maxsize``), so none of its values
    is listed and it costs only its answer.  Any other iterable has each
    value checked by the package's integer rule, is sorted and is cut by
    bisection.
    """
    if isinstance(m_range, range) and m_range.step > 0:
        values = m_range
    else:
        values = sorted(_typed(m, "multiplier") for m in m_range)
    if not values:
        raise ValueError("empty multiplier range")
    if values[0] < 1:
        raise ValueError("multiplier must be at least 1")
    union: list[list] = []
    for lo, hi in sorted(row[-2:] for row in _multiplier_table(rX, rY, very_ample)):
        if union and lo <= union[-1][1] + 1:
            union[-1][1] = max(union[-1][1], hi)
        else:
            union.append([lo, hi])
    return {m for lo, hi in union for m in _cut(values, lo, hi)}


def noether_lefschetz_threshold(kappa: int) -> int:
    """The ampleness threshold ``3 kappa + 16``.

    A surface S ~ (3 kappa + 16) H_X is of the form 3K_X + 16A with A = H_X
    very ample, which is ample enough for the infinitesimal
    Noether-Lefschetz property to hold on S; kappa >= -4 keeps it >= 4.
    """
    if _typed(kappa, "kappa") < -4:
        raise ValueError("a Fano with cyclic Picard group has index at most 4")
    return 3 * kappa + 16


def quadric_multiplier_bound(X: SourceInvariants) -> int:
    """Bound on m for a finite morphism onto the quadric threefold.

    The preimage S of a general hyperplane section carries the split normal
    bundle sequence of a line in the quadric pulled back, yet the class of
    the preimage curve does not come from X (C^2 = 0 on S while Pic X = Z).
    That contradicts Noether-Lefschetz on S, so S cannot be ample enough:
    m <= 3 kappa + 16.
    """
    return noether_lefschetz_threshold(X.kappa)


def quadric_degree_bound(X: SourceInvariants) -> int:
    """Largest integral degree m^3 H_X^3 / 2 with m at most the threshold.

    m^3 H_X^3 is even unless m and H_X^3 are both odd, so m is the
    threshold or one less, and the threshold is at least 4.
    """
    m = quadric_multiplier_bound(X)
    if m % 2 and X.H3X % 2:
        m -= 1
    return degree_from_multiplier(m, X.H3X, 2)
