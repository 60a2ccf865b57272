"""Combinatorics of weighted projective spaces.

``P(a_0, ..., a_n)`` is the quotient of affine (n+1)-space minus the origin
by the scaling ``t.(x_0, ..., x_n) = (t^a_0 x_0, ..., t^a_n x_n)``.  Well
forming, the singular stratification, the canonical degree, base points of
``O(m)`` on the smooth locus and the minimal twist making the (restricted)
cotangent sheaf globally generated are all elementary arithmetic in the
weights; this module keeps it exact.

Base points reduce to numerical semigroups: ``O(m)`` is generated on the
smooth locus iff m lies in the semigroup of the weights of every
inclusion-minimal coprime support.  Each such semigroup is held by its Apéry
set modulo its least generator a, the least element of every residue class
mod a (Nijenhuis's minimal-path algorithm, a shortest-path search over the a
residues): m belongs iff ``m >= apery[m % a]``, and ``max(apery) - a`` is
the exact Frobenius number.  Membership therefore costs at most
O(a.|T|.log a) per support T however large m is, and the Frobenius numbers
give the proven search limit of ``cotangent_twist_lmin``.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import combinations
from math import gcd

from . import _Record


class WeightVector(_Record):
    """The ``int`` weights ``(a_0, ..., a_n)`` of a weighted projective space."""

    weights: tuple[int, ...]

    def __post_init__(self):
        w = tuple(self.weights)
        if not all(type(a) is int for a in w):
            raise ValueError(f"weights must be ints, got {w!r}")
        if len(w) < 2:
            raise ValueError("need at least two weights")
        if any(a < 1 for a in w):
            raise ValueError(f"weights must be positive, got {w}")
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        """Dimension of the space (one less than the number of weights)."""
        return len(self.weights) - 1

    def is_well_formed(self) -> bool:
        return normalize(self) == self

    def __str__(self) -> str:
        return "P(" + ",".join(str(a) for a in self.weights) + ")"


def _as_weights(w) -> WeightVector:
    return w if isinstance(w, WeightVector) else WeightVector(tuple(w))


def normalize(w) -> WeightVector:
    """Reduce to the unique well-formed weight vector.

    Divides by the global gcd; while some n of the weights share a factor d,
    divides those n weights by d (the space is unchanged, the polarization
    rescaled).  The loop strictly decreases the weight sum, so it terminates.
    """
    ws = list(_as_weights(w).weights)
    while True:
        g = gcd(*ws)
        if g > 1:
            ws = [a // g for a in ws]
            continue
        for i in range(len(ws)):
            others = ws[:i] + ws[i + 1 :]
            d = gcd(*others)
            if d > 1:
                ws = [a if j == i else a // d for j, a in enumerate(ws)]
                break
        else:
            return WeightVector(tuple(ws))


def _require_well_formed(w) -> WeightVector:
    wv = _as_weights(w)
    if not wv.is_well_formed():
        raise ValueError(f"{wv} is not well-formed; normalize first")
    return wv


class SingularStratum(_Record):
    """A maximal coordinate stratum of the singular locus.

    ``coords`` are the indices allowed to be nonzero; ``k`` is the order of
    the generic stabilizer along the stratum (the gcd of the supported
    weights); ``dimension = len(coords) - 1``.
    """

    k: int
    coords: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return len(self.coords) - 1

    def __post_init__(self):
        if self.k <= 1:
            raise ValueError("stratum order must exceed 1")
        if not self.coords:
            raise ValueError("stratum must support at least one coordinate")


def singular_strata(w) -> list[SingularStratum]:
    """Maximal singular strata, one per maximal divisibility pattern.

    The singular locus is the union over k > 1 of the loci where all
    coordinates with weight not divisible by k vanish, and strata contained
    in bigger ones are pruned.  It suffices to take for k the gcds > 1 of
    sets of weights: every prime p gives the same stratum as the gcd of the
    weights it divides.  Those gcds are found without factoring, from each
    weight by taking gcds with the others while they stay above 1.
    """
    weights = _require_well_formed(w).weights
    divisors, todo = set(), [a for a in weights if a > 1]
    while todo:
        g = todo.pop()
        if g not in divisors:
            divisors.add(g)
            todo.extend(h for a in weights if 1 < (h := gcd(g, a)) < g)
    supports = {tuple(i for i, a in enumerate(weights) if a % g == 0) for g in divisors}
    maximal = [
        s
        for s in supports
        if not any(s != t and set(s) <= set(t) for t in supports)
    ]
    return [
        SingularStratum(k=gcd(*(weights[i] for i in s)), coords=s)
        for s in sorted(maximal)
    ]


def canonical_degree(w) -> int:
    """Degree of the canonical sheaf on the smooth locus: ``-(sum of weights)``."""
    wv = _require_well_formed(w)
    return -sum(wv.weights)


def _minimal_unit_supports(weights: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Inclusion-minimal index sets whose weights have gcd 1.

    These index the coordinate strata meeting the smooth locus; supersets
    only enlarge the value semigroup, so minimal sets carry the binding
    base-point conditions.  A depth-first search grows index sets only while
    their gcd exceeds 1, and only by indices that lower the gcd: in a minimal
    set each index lowers the running gcd, or dropping it would keep gcd 1.
    So a search path is at most one longer than the number of prime factors
    of its first weight.  A set reaching gcd 1 is minimal iff dropping any one
    index leaves a gcd other than 1 (the gcd can only grow on subsets).
    """
    found: list[tuple[int, ...]] = []

    def grow(subset: tuple[int, ...], g: int) -> None:
        for i in range(subset[-1] + 1 if subset else 0, len(weights)):
            extended, h = subset + (i,), gcd(g, weights[i])
            if h == g:
                continue
            if h > 1:
                grow(extended, h)
            elif all(gcd(*(weights[j] for j in extended if j != k)) != 1 for k in extended):
                found.append(extended)

    grow((), 0)
    return found


def _apery_set(gens: tuple[int, ...], bound: int | None = None) -> dict[int, int]:
    """The Apéry set of the numerical semigroup generated by ``gens``
    (gcd 1) modulo its least generator a: residue r mod a maps to the least
    semigroup element congruent to r.  With a ``bound``, only the entries up
    to it are found, so the search never visits more than bound + 1 values.

    Nijenhuis's minimal-path algorithm: a shortest-path search over the a
    residues, each generator g an edge r -> r + g of length g.  An m >= 0 lies
    in the semigroup iff ``m >= apery[m % a]``, and the Frobenius number is
    ``max(apery) - a``.
    """
    a = min(gens)
    apery = {0: 0}
    queue = [(0, 0)]
    while queue:
        value, residue = heappop(queue)
        if value > apery[residue]:
            continue
        for g in gens:
            step, r = value + g, (residue + g) % a
            if (bound is None or step <= bound) and (r not in apery or step < apery[r]):
                apery[r] = step
                heappush(queue, (step, r))
    return apery


def _unit_support_gens(wv: WeightVector) -> list[tuple[int, ...]]:
    """The weights of each minimal unit support."""
    return [
        tuple(wv.weights[i] for i in support)
        for support in _minimal_unit_supports(wv.weights)
    ]


def is_generated(w, m: int) -> bool:
    """Whether ``O(m)`` is base-point free on the smooth locus.

    At a point whose nonzero coordinates form the index set T there is a
    nonvanishing degree-m monomial iff m lies in the numerical semigroup
    generated by the weights supported on T; the point lies in the smooth
    locus iff those weights have gcd 1, and the inclusion-minimal such T
    carry the binding conditions.  Membership is read off the Apéry set of
    each of those semigroups modulo its least weight a (the least element in
    each residue class mod a): m belongs iff ``m >= apery[m % a]``.  Only
    entries up to m are searched, so each support costs
    O(min(a, m + 1).|T|.log a) beside the O(2^n) support scan.
    """
    wv = _require_well_formed(w)
    if m < 0:
        raise ValueError("twist must be nonnegative")
    return all(m % min(gens) in _apery_set(gens, m) for gens in _unit_support_gens(wv))


def cotangent_twist_lmin(w) -> int:
    """Smallest twist l making the cotangent sheaf on the smooth locus a
    quotient of a globally generated split bundle.

    Via the Euler sequence, ``Omega(l)`` is a quotient of the sum over pairs
    j < k of ``O(l - a_j - a_k)``; the returned l is the least one with every
    such summand of nonnegative degree and base-point free on the smooth
    locus.  This is an upper bound for the true minimal twist.

    The Apéry sets of the minimal unit supports are computed once per call
    and answer every membership test of the search.  They also give the
    exact Frobenius number ``max(apery) - a`` of each support; ``O(m)`` is
    generated for every m beyond the largest of them, F, so the twist
    ``max(pair sums) + 1 + F`` always generates and bounds the search.
    """
    wv = _require_well_formed(w)
    if wv.n < 2:
        raise ValueError("need at least three weights")
    pair_sums = sorted({a + b for a, b in combinations(wv.weights, 2)})
    aperys = [(min(gens), _apery_set(gens)) for gens in _unit_support_gens(wv)]
    frobenius = max(max(apery.values()) - a for a, apery in aperys)
    limit = pair_sums[-1] + 1 + frobenius

    def generated(m: int) -> bool:
        return m >= 0 and all(m >= apery[m % a] for a, apery in aperys)

    for twist in range(0, limit):
        if all(generated(twist - s) for s in pair_sums):
            return twist
    return limit


class HypersurfaceModel(_Record):
    """A (complete-intersection) hypersurface model in a weighted space."""

    ambient: WeightVector
    degree: int
    description: str


def double_cover_model(base: str, k: int) -> HypersurfaceModel:
    """Weighted hypersurface model of a double cover.

    ``base`` is one of ``P<n>`` / ``projective-space-<n>`` (double cover of
    projective n-space branched in degree 2k), ``veronese-cone`` (double
    cover of the cone over the Veronese surface) or ``quadric-4`` (double
    cover of the quadric threefold branched in a degree-2k section).
    """
    if k < 1:
        raise ValueError("branch half-degree k must be positive")
    name = base.strip().lower()
    if name.startswith("projective-space-"):
        name = "p" + name[len("projective-space-") :]
    if name.startswith("p") and name[1:].isdigit():
        n = int(name[1:])
        if n < 1:
            raise ValueError("projective base must have positive dimension")
        ambient = WeightVector((1,) * (n + 1) + (k,))
        return HypersurfaceModel(
            ambient=ambient,
            degree=2 * k,
            description=(
                f"y^2 = f(x_0..x_{n}) of weighted degree {2 * k} in {ambient}: "
                f"double cover of P^{n} branched along a degree-{2 * k} hypersurface"
            ),
        )
    if name == "veronese-cone":
        ambient = WeightVector((1, 1, 1, 2, k))
        return HypersurfaceModel(
            ambient=ambient,
            degree=2 * k,
            description=(
                f"z^2 = g(x_0,x_1,x_2,y) of weighted degree {2 * k} in {ambient}: "
                "double cover of the cone over the Veronese surface"
            ),
        )
    if name == "quadric-4":
        ambient = WeightVector((1, 1, 1, 1, 1, k))
        return HypersurfaceModel(
            ambient=ambient,
            degree=2 * k,
            description=(
                f"complete intersection of type (2,{2 * k}) in {ambient}: "
                "a quadric through the singular point and y^2 = a degree-"
                f"{2 * k} section missing it"
            ),
        )
    raise ValueError(f"unknown double-cover base {base!r}")
