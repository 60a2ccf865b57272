"""Combinatorics of weighted projective spaces.

``P(a_0, ..., a_n)`` is the quotient of affine (n+1)-space minus the origin
by the scaling ``t.(x_0, ..., x_n) = (t^a_0 x_0, ..., t^a_n x_n)``.  Well
forming (in one step, from the gcds of every n of the weights), the singular
stratification, the canonical degree, base points of ``O(m)`` on the smooth
locus and the minimal twist making the (restricted) cotangent sheaf globally
generated are elementary arithmetic in the weights, kept exact here.

Base points reduce to numerical semigroups: ``O(m)`` is generated on the
smooth locus iff m lies in the semigroup of the weights of every
inclusion-minimal coprime support.  Schur's bound decides most twists with
arithmetic alone: a numerical semigroup generated by a_1 < ... < a_k contains
every m > (a_1 - 1)(a_k - 1) - 1 (Brauer, Amer. J. Math. 64 (1942); Ramírez
Alfonsín, *The Diophantine Frobenius Problem*, Thm 3.1.1).  So no support is
listed once m passes (b - 1)(c - 1) - 1, for c >= b the two largest weights,
and a support whose own bound is below m takes no search.  Every other
support is held by its Apéry set modulo its least generator a, the least
element of every residue class mod a (Nijenhuis's minimal-path algorithm, a
shortest-path search over the a residues): m belongs iff ``m >=
apery[m % a]``, and ``max(apery) - a`` is the exact Frobenius number.  One
lazy list of (a, Apéry set) per support and one membership rule serve
``is_generated`` and ``cotangent_twist_lmin``, at O(a.|T|.log a) per searched
support T however large m is.  The supports themselves are the irredundant
index sets of gcd 1 (no member can be dropped without raising the gcd), found
by a depth-first search that ends a path as soon as one member could be
dropped, and yielded one by one, so a failing support ends ``is_generated``
before the later ones are found.  The singular strata take one gcd pass over
the weights per candidate divisor, which gives its support as a bit mask.
"""

from __future__ import annotations

from collections.abc import Iterator
from heapq import heappop, heappush
from itertools import combinations
from math import gcd, prod

from . import _Record, _ints, _typed


class WeightVector(_Record):
    """The ``int`` weights ``(a_0, ..., a_n)`` of a weighted projective space."""

    weights: tuple  # of ints, from any iterable: __post_init__ checks them

    def __post_init__(self):
        w = tuple(self.weights)
        if len(w) < 2:
            raise ValueError("need at least two weights")
        if any(_typed(a, "weight") < 1 for a in w):
            raise ValueError(f"weights must be positive, got {w}")
        self.__dict__["weights"] = w

    @property
    def n(self) -> int:
        """Dimension of the space (one less than the number of weights)."""
        return len(self.weights) - 1

    def is_well_formed(self) -> bool:
        """Whether every n of the n + 1 weights, so all of them, have gcd 1."""
        return all(d == 1 for d in _cofactor_gcds(self.weights))

    def __str__(self) -> str:
        return "P(" + ",".join(str(a) for a in self.weights) + ")"


def _as_weights(w) -> WeightVector:
    return w if isinstance(w, WeightVector) else WeightVector(tuple(w))


def _cofactor_gcds(weights) -> list[int]:
    """The gcds ``d_i = gcd(a_j : j != i)``, one ``gcd`` call each."""
    return [gcd(*weights[:i], *weights[i + 1 :]) for i in range(len(weights))]


def normalize(w) -> WeightVector:
    """The unique well-formed weight vector of the same space, in one step.

    Divide by gcd(a); let d_i = gcd(a_j : j != i).  A prime dividing two d_i divides every
    weight, so the d_i are pairwise coprime, prod_{j != i} d_j divides a_i, and dividing the
    a_j (j != i) by d_i for each i gives ``b_i = a_i d_i / prod_j d_j``.  If a prime p divided
    b_j for all j != i, then p | d_i, p is prime to the other d_j and v_p(b_j) = v_p(a_j) -
    v_p(d_i), 0 where v_p(a_j) is least: b is well formed (Iano-Fletcher, LMS LN 281, §5).
    """
    ws = _as_weights(w).weights
    g = gcd(*ws)
    ds = _cofactor_gcds([a // g for a in ws])
    product = prod(ds)
    return WeightVector(tuple(a // g * d // product for a, d in zip(ws, ds)))


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
    weight by taking gcds with the others while they stay above 1.  One gcd
    pass over the weights per divisor g gives g's support as a bit mask, the
    new divisors 1 < gcd(g, a) < g and the order k (the gcd of the supported
    weights); a stratum is maximal when no other mask contains its mask.
    """
    weights = _require_well_formed(w).weights
    orders, seen, todo = {}, set(), [a for a in weights if a > 1]  # orders: mask -> k
    while todo:
        g = todo.pop()
        if g in seen:
            continue
        seen.add(g)
        mask = k = 0
        for i, a in enumerate(weights):
            h = gcd(g, a)
            if h == g:
                mask |= 1 << i
                k = gcd(k, a)
            elif h > 1:
                todo.append(h)
        orders[mask] = k
    strata = [
        SingularStratum(k=k, coords=tuple(i for i in range(len(weights)) if mask >> i & 1))
        for mask, k in orders.items()
        if not any(mask != other and mask & other == mask for other in orders)
    ]
    return sorted(strata, key=lambda s: s.coords)


def canonical_degree(w) -> int:
    """Degree of the canonical sheaf on the smooth locus: ``-(sum of weights)``."""
    wv = _require_well_formed(w)
    return -sum(wv.weights)


def _minimal_unit_supports(weights: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Inclusion-minimal index sets whose weights have gcd 1, lazily and in
    lexicographic order.

    These index the coordinate strata meeting the smooth locus; supersets
    only enlarge the value semigroup, so minimal sets carry the binding
    base-point conditions.  Call a member k of a set S redundant when
    ``gcd(S - k) = gcd(S)``.  A member redundant in S stays redundant in
    every superset T, as ``gcd(T - k) = gcd(gcd(S - k), gcd(T - S)) =
    gcd(T)``; so every subset of an irredundant set is irredundant, and an
    irredundant set with gcd 1 is minimal, since dropping any member leaves
    a gcd above 1.  A minimal set is irredundant and its proper prefixes
    have gcd > 1, so a depth-first search that grows index sets in index
    order, keeps only the irredundant ones and stops at gcd 1 reaches
    exactly the minimal sets, with no minimality check at the end.  It
    carries the cofactor gcds ``gcd(S - k)`` of its set: adding weight w maps
    each to ``gcd(., w)`` and appends the old gcd, and the extension is
    dropped as soon as its gcd is among them.  Each member lowers the running gcd, so
    a search path is at most one longer than the number of prime factors of
    its first weight.
    """

    def grow(subset: tuple[int, ...], g: int, cofactors: list[int]) -> Iterator[tuple[int, ...]]:
        for i in range(subset[-1] + 1 if subset else 0, len(weights)):
            w = weights[i]
            h = gcd(g, w)
            if h == g:  # the new member itself is redundant
                continue
            extended = [gcd(d, w) for d in cofactors]
            if h in extended:
                continue
            extended.append(g)
            if h > 1:
                yield from grow(subset + (i,), h, extended)
            else:
                yield subset + (i,)

    return grow((), 0, [])


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


def _support_aperys(wv: WeightVector, bound: int | None = None):
    """Lazily, each minimal unit support's least weight a and Apéry set mod a.

    With a ``bound``, the sets answer the membership of the bound itself: each
    is searched only up to it, and a support whose Schur bound
    (a - 1)(c - 1) - 1, c its largest weight, is below it holds it and is
    skipped with no search."""
    for support in _minimal_unit_supports(wv.weights):
        gens = tuple(wv.weights[i] for i in support)
        a = min(gens)
        if bound is None or (a - 1) * (max(gens) - 1) - 1 >= bound:
            yield a, _apery_set(gens, bound)


def _generated(m: int, aperys) -> bool:
    """The one membership rule: m lies in the semigroup of every support.  A residue
    missing from a set searched up to a bound >= m has its least element above m."""
    return m >= 0 and all(m >= apery.get(m % a, m + 1) for a, apery in aperys)


def is_generated(w, m: int) -> bool:
    """Whether ``O(m)`` is base-point free on the smooth locus.

    At a point whose nonzero coordinates form the index set T there is a
    nonvanishing degree-m monomial iff m lies in the numerical semigroup
    generated by the weights supported on T; the point lies in the smooth
    locus iff those weights have gcd 1, and the inclusion-minimal such T
    carry the binding conditions.  Membership is read off the Apéry set of
    each of those semigroups modulo its least weight a (the least element in
    each residue class mod a): m belongs iff ``m >= apery[m % a]``.

    Schur's bound (Brauer, Amer. J. Math. 64 (1942); Ramírez Alfonsín, *The
    Diophantine Frobenius Problem*, Thm 3.1.1) puts the Frobenius number of
    a support T with least weight a_T and largest c_T at most
    (a_T - 1)(c_T - 1) - 1.  A minimal support of two or more members has
    a_T <= b and c_T <= c, for c >= b the two largest weights counted with
    multiplicity, and one of a single member is a weight 1; so past
    (b - 1)(c - 1) - 1 the answer is True with no support listed, and a
    support whose own bound is below m passes with no search.  The others
    are visited lazily, each searched only up to m, and the first failing
    one ends the test: each costs O(min(a_T, m + 1).|T|.log a_T).
    """
    wv = _require_well_formed(w)
    if _typed(m, "twist") < 0:
        raise ValueError("twist must be nonnegative")
    *_, b, c = sorted(wv.weights)
    if m > (b - 1) * (c - 1) - 1:
        return True
    return _generated(m, _support_aperys(wv, m))


def cotangent_twist_lmin(w) -> int:
    """Smallest twist l making the cotangent sheaf on the smooth locus a
    quotient of a globally generated split bundle.

    Via the Euler sequence, ``Omega(l)`` is a quotient of the sum over pairs
    j < k of ``O(l - a_j - a_k)``; the returned l is the least one with every
    such summand of nonnegative degree and base-point free on the smooth
    locus.  This is an upper bound for the true minimal twist.

    The full Apéry sets of the minimal unit supports are listed once and
    every twist asks them the membership rule of ``is_generated``.  They
    give the exact Frobenius number ``max(apery) - a`` of each support;
    ``O(m)`` is generated for every m beyond the largest of them, F, so the
    search runs from the largest pair sum (a lower twist has a summand of
    negative degree) up to ``max(pair sums) + 1 + F``, which generates.
    """
    wv = _require_well_formed(w)
    if wv.n < 2:
        raise ValueError("need at least three weights")
    pair_sums = sorted({a + b for a, b in combinations(wv.weights, 2)})
    aperys = list(_support_aperys(wv))
    frobenius = max(max(apery.values()) - a for a, apery in aperys)
    limit = pair_sums[-1] + 1 + frobenius
    for twist in range(pair_sums[-1], limit):
        if all(_generated(twist - s, aperys) for s in pair_sums):
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
    cover of the quadric threefold branched in a degree-2k section).  The
    model of ``P<n>`` has ``n + 2`` weights, so its time and memory grow with
    ``n``; an ``n`` whose weights cannot be held is a ``ValueError`` naming
    the base.
    """
    if _typed(k, "k") < 1:
        raise ValueError("branch half-degree k must be positive")
    name = base.strip().lower()
    if name.startswith("projective-space-"):
        name = "p" + name[len("projective-space-") :]
    n = _ints(name[1:], "base")[0] if name.startswith("p") and name[1:].isdecimal() else None
    if n is not None:
        if n < 1:
            raise ValueError("projective base must have positive dimension")
        try:
            prefix = (1,) * (n + 1)
        except (OverflowError, MemoryError):
            raise ValueError(f"double-cover base {base!r}: too many weights to build") from None
        template = ("y^2 = f(x_0..x_{n}) of weighted degree {d} in {ambient}: "
                    "double cover of P^{n} branched along a degree-{d} hypersurface")
    elif name == "veronese-cone":
        prefix = (1, 1, 1, 2)
        template = ("z^2 = g(x_0,x_1,x_2,y) of weighted degree {d} in {ambient}: "
                    "double cover of the cone over the Veronese surface")
    elif name == "quadric-4":
        prefix = (1, 1, 1, 1, 1)
        template = ("complete intersection of type (2,{d}) in {ambient}: a quadric through "
                    "the singular point and y^2 = a degree-{d} section missing it")
    else:
        raise ValueError(f"unknown double-cover base {base!r}")
    ambient = WeightVector(prefix + (k,))
    return HypersurfaceModel(
        ambient=ambient, degree=2 * k, description=template.format(n=n, d=2 * k, ambient=ambient)
    )
