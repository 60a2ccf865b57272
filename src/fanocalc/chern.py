"""Chern-class algebra of formal bundles via the splitting principle.

A :class:`FormalBundle` is a rank together with Chern classes ``c_1..c_t``
living in a truncated graded coefficient ring (see :mod:`fanocalc.rings`).
Whitney sums and line twists are identities of the total Chern class
(Fulton, *Intersection Theory*, section 3.2).  They, and the symmetric and
exterior powers other than ``S^1`` and ``Lambda^1`` (the bundle itself) and
``Lambda^rank`` (its determinant), take one of two routes, chosen by the
kind of ring (``GradedRing.generator_weight``):

- Over one generator ``h`` (every ``line_ring``: P^n, polarized
  threefolds), each class is an integer times a power of ``h``, read by
  exponent: one reader turns the classes into integers, one writer wraps
  integers into classes.  A Whitney sum takes one ring product of the two
  total classes and cuts it by exponent; a twist by ``m h`` is Horner's
  rule and one binomial row on integers, with no ring product.  Newton's
  identity turns the bundle's Chern numbers into the power sums of its
  roots; the lambda-ring identity ``sum_k t^k ch(S^k E) = prod_i (1 - t
  e^(x_i))^(-1)`` (its Lambda^k twin with ``1 + t``) and the Eulerian
  polynomials turn those into the power sums of the new roots, and Newton
  again into the classes, all on integers (Fulton-Lang, *Riemann-Roch
  Algebra*, I).  No polynomial is built and nothing is memoized but the
  Eulerian rows, one per degree: the cost is O(top^2 min(k, top)^2)
  integer operations for the top degree ``top`` of the answer, whatever
  the rank.
- Over any other ring (a Grassmannian, several generators) a class has
  many terms.  Sums and twists take the ring's own product and cut the
  total class by the degree of each key.  For the powers, universal
  integer polynomials in the elementary symmetric functions ``e_1..e_w``
  of formal Chern roots ``x_1..x_r``, ``w = min(r, top)`` (e_j has degree
  j, so no other can appear), are built for each call, then ``e_i ->
  c_i`` with one ring product per e-monomial, by the Chern class of its
  least index.  That is cheaper there than power sums in the base ring,
  whose products have many terms.  An e-monomial is one integer from Gauss's pass to the base ring,
  its exponents packed as digits over ``w`` places.  The new roots are
  never listed: the power sums of the new roots have closed-form
  coefficients on the monomial symmetric functions ``m_lambda`` (binomials
  for Lambda^k, Eulerian polynomials for S^k), Gauss's algorithm rewrites
  each in ``e_1..e_w`` within the m-basis, and Newton's identities turn
  power sums into Chern classes (Macdonald, *Symmetric Functions and Hall
  Polynomials*, I.2).  The cost depends on the truncation degree and on
  the rank up to it, not on the power.

Every coefficient is an exact integer; Newton's divisions, and those that
build a twist's binomial row, are checked exact.  Validation happens once,
at the public :class:`FormalBundle` constructor (and ``line_bundle``,
``trivial_bundle``); the kernels here
build classes that are homogeneous by construction and wrap them through
``_bundle`` without re-checking their degrees.  Nothing keyed by a rank or
a power is memoized.  What Gauss's rewrite reads is one table per (degree,
width), both at most the truncation, unbounded: it grows with the largest
truncation asked, not with the rank or the power.  The tables are safe
under concurrent use: the computation is pure.
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache
from math import comb
from operator import mul, sub
from types import MappingProxyType

from . import _Record, _typed
from .rings import GradedRing, _accumulate


class FormalBundle(_Record):
    """A rank and a list of Chern classes ``c_1..c_t`` over a graded ring.

    Missing entries (``t < rank``) are zero; trailing zero classes are
    stripped so equal bundles compare equal.  This constructor validates
    its input: a nonnegative int rank, at most ``min(rank, truncation)``
    classes, and ``c_i`` homogeneous of degree ``i``.  The kernels of this
    module build their results through ``_bundle`` instead, which only
    strips trailing zeros: their classes are homogeneous by construction.
    """

    ring: GradedRing
    rank: int
    chern: tuple

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("rank must be nonnegative")
        cs = _stripped(self.chern)
        if len(cs) > min(self.rank, self.ring.truncation):
            raise ValueError("more Chern classes than rank or truncation allows")
        for i, c in enumerate(cs):
            if c and self.ring.degree(c) != i + 1:
                raise ValueError(f"c_{i + 1} is not homogeneous of degree {i + 1}")
        self.__dict__["chern"] = cs


def _stripped(chern) -> tuple:
    """The classes without their trailing zeros."""
    cs = list(chern)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _bundle(ring: GradedRing, rank: int, chern) -> FormalBundle:
    """A kernel's result: trailing zero classes stripped, nothing re-checked."""
    b = object.__new__(FormalBundle)
    b.__dict__.update(ring=ring, rank=rank, chern=_stripped(chern))
    return b


def trivial_bundle(ring: GradedRing, rank: int = 1) -> FormalBundle:
    return FormalBundle(ring, rank, ())


def line_bundle(ring: GradedRing, c1) -> FormalBundle:
    return FormalBundle(ring, 1, (c1,))


def chern_class(b: FormalBundle, i: int):
    """``c_i`` of the bundle, with ``c_0 = 1``; zero beyond the stored list."""
    if _typed(i, "Chern index") < 0 or i > b.ring.truncation:
        raise ValueError(f"Chern index {i} outside 0..{b.ring.truncation}")
    if i == 0:
        return b.ring.one()
    if i <= len(b.chern):
        return b.chern[i - 1]
    return b.ring.zero()


def top_chern(b: FormalBundle):
    """The Chern class in degree ``min(rank, truncation)``."""
    return chern_class(b, min(b.rank, b.ring.truncation))


def whitney_sum(a: FormalBundle, b: FormalBundle) -> FormalBundle:
    """Direct sum: ranks add and total classes multiply, ``c(E+F) = c(E) c(F)``,
    one ring product.  Each total class ``1 + c_1 + ... + c_s`` is merged, not
    summed: its classes have distinct degrees, so their keys are disjoint and
    nothing cancels.  :func:`_from_total` cuts the product into classes."""
    ring = a.ring
    if ring is not b.ring and ring != b.ring:
        raise ValueError("bundles live over different rings")
    new = ring.element._new
    return _from_total(a.rank + b.rank, new(ring, _total_terms(a)) * new(ring, _total_terms(b)))


def _total_terms(b: FormalBundle) -> dict:
    """The terms of ``1 + c_1 + ... + c_s``: the classes' term dicts merged into the unit's."""
    total = {b.ring.unit_key: 1}
    for c in b.chern:
        total.update(c.terms)
    return total


def dual(b: FormalBundle) -> FormalBundle:
    """Dual bundle: ``c_i -> (-1)^i c_i``."""
    cs = tuple(c if (i + 1) % 2 == 0 else -c for i, c in enumerate(b.chern))
    return _bundle(b.ring, b.rank, cs)


def twist_line(b: FormalBundle, t) -> FormalBundle:
    """Tensor with the line bundle of first Chern class ``t`` (0 returns ``b``):
    the total class ``sum_j c_j(b) u^(rank-j)``, ``u = 1 + t``, is Horner's rule
    in ``u`` over the stored ``c_1..c_s``, times ``u^(rank-s)``.

    Over one generator ``h`` (``t = m h``) this runs on integers, with no
    ring product (:func:`_line_twist`).  Over any other ring it takes ring
    products, none with the unit as a factor: Horner's rule starts from
    ``u + c_1``, a partial sum that cancels to the unit (``c_1 = -t``) is
    replaced by the factor itself, and the last factor is left out when
    ``s = rank`` (all of ``u^rank`` when ``s = 0``)."""
    if not t:
        return b
    ring = b.ring
    if ring.degree(t) != 1:
        raise ValueError("twist class must be homogeneous of degree 1")
    if ring.generator_weight:
        (m,) = t.terms.values()
        return _bundle(ring, b.rank, _line_classes(ring, _line_twist(b, m)))
    u = ring.one() + t
    if not b.chern:
        return _from_total(b.rank, u**b.rank)
    unit = {ring.unit_key: 1}
    total = u + b.chern[0]
    for c in b.chern[1:]:
        total = (u if total.terms == unit else total * u) + c
    if b.rank > len(b.chern):
        power = u ** (b.rank - len(b.chern))
        total = power if total.terms == unit else total * power
    return _from_total(b.rank, total)


def _from_total(rank: int, total) -> FormalBundle:
    """The bundle of this rank with total Chern class ``total``, cut into
    classes by exponent over one generator (a key ``(e,)`` in degree ``e *
    weight``, no key graded), by the degree of each key over any other ring."""
    ring = total.ring
    top = min(rank, ring.truncation)
    weight = ring.generator_weight
    if weight:
        numbers = [0] * (top + 1)
        for (e,), c in total.terms.items():
            numbers[e * weight] = c
        return _bundle(ring, rank, _line_classes(ring, numbers))
    parts: list[dict] = [{} for _ in range(top + 1)]
    for key, c in total.terms.items():
        parts[ring.key_degree(key)][key] = c
    return _bundle(ring, rank, [total._new(ring, p) for p in parts[1:]])


def sym_power(b: FormalBundle, k: int) -> FormalBundle:
    """k-th symmetric power; rank ``C(rank+k-1, k)``.  ``S^1`` is ``b`` itself.

    Over a ring of one generator (a ``line_ring``) every class is one
    integer times a power of the generator, so the classes come from
    integer power sums (:func:`_root_power_classes`), in time polynomial
    in the truncation whatever the rank.  Over any other ring (a
    Grassmannian, several generators) they come from the universal
    polynomials (:func:`_power_epolys`), one base-ring product
    per e-monomial: products of many-term classes would make power sums
    in the base ring the slower route there."""
    if _typed(k, "power") < 1:
        raise ValueError("power must be a positive integer")
    if b.rank < 1:
        raise ValueError("symmetric power needs positive rank")
    if k == 1:
        return b
    return _power("sym", b, k, comb(b.rank + k - 1, k))


def ext_power(b: FormalBundle, k: int) -> FormalBundle:
    """k-th exterior power; rank ``C(rank, k)``.  ``Lambda^1`` is ``b`` itself
    and ``Lambda^rank`` the determinant, the line bundle with ``c_1(b)``.
    The other powers take the route of :func:`sym_power`: integer power
    sums over one generator, the universal polynomials over any other ring."""
    if _typed(k, "power") < 1:
        raise ValueError("power must be a positive integer")
    if k > b.rank:
        raise ValueError(f"exterior power {k} exceeds rank {b.rank}")
    if k == 1:
        return b
    if k == b.rank:  # the determinant
        return _bundle(b.ring, 1, b.chern[:1])
    return _power("ext", b, k, comb(b.rank, k))


def _power(op: str, b: FormalBundle, k: int, rank: int) -> FormalBundle:
    """S^k or Lambda^k of ``b``, of this new rank, by the route of its ring:
    integers over one generator, the universal polynomials otherwise."""
    ring = b.ring
    weight = ring.generator_weight
    if weight:
        classes = _root_power_classes(op, b, k, min(rank, ring.truncation))
    else:
        classes = _substitute_all(_power_epolys(op, b.rank, k, ring.truncation), b)
    return _bundle(ring, rank, classes)


# -- over one generator ------------------------------------------------------------

def _line_numbers(b: FormalBundle, top: int) -> list:
    """The total class of ``b`` over a ring of one generator as integers
    ``[1, n_1, ..., n_top]``, ``c_d = n_d h^(d / weight)``: each class has
    one term at most, and ``n_d`` is zero beyond the stored classes."""
    numbers = [1] + [0] * top
    for d, c in enumerate(b.chern[:top], 1):
        if c:
            (numbers[d],) = c.terms.values()
    return numbers


def _line_classes(ring: GradedRing, numbers: list) -> list:
    """The classes ``c_1..c_top`` of the integers ``numbers = [n_0, n_1, ...,
    n_top]`` (``n_0`` is not read) over a ring of one generator ``h``:
    ``c_d = n_d h^(d / weight)``, wrapped with no check.  A weight above 1
    needs ``n_d = 0`` in each degree d that it does not divide."""
    weight, new = ring.generator_weight, ring.element._new
    return [new(ring, {(d // weight,): n} if n else {}) for d, n in enumerate(numbers) if d]


def _line_twist(b: FormalBundle, m: int) -> list:
    """The total class of ``b`` tensored with the line ``O(m h)``, over a
    ring of one generator h of weight 1, as :func:`_line_numbers` reads one.

    With ``u = 1 + m h``, ``s`` stored classes and rank r, it is ``z
    u^(r-s)`` for ``z = sum_(j <= s) c_j u^(s-j)``.  Horner's rule builds z
    in place: step j multiplies the partial sum, of degree below j, by u
    (``z_i += m z_(i-1)`` for i going down) and adds ``c_j``, already in its
    place.  ``u^(r-s)`` is one binomial row ``C(r-s, i) m^i``, i up to the
    top degree, each entry from the one before by ``C(n, i) i = C(n, i-1)
    (n-i+1)``, the division checked exact; one convolution ends it.  That
    is O(top^2) integer operations, whatever the rank."""
    rank, s = b.rank, len(b.chern)
    top = min(rank, b.ring.truncation)
    z = _line_numbers(b, top)
    for j in range(1, s + 1):
        for i in range(j, 0, -1):
            z[i] += m * z[i - 1]
    n = rank - s
    if not n:
        return z
    row = [1]  # C(n, i) m^i
    for i in range(1, min(n, top) + 1):
        value = row[-1] * (n - i + 1)
        quotient, remainder = divmod(value, i)
        if remainder:
            raise ArithmeticError(f"a binomial row left {value} not divisible by {i}")
        row.append(quotient * m)
    total = [0] * (top + 1)
    for j, x in enumerate(z[: s + 1]):
        if x:
            for i, y in enumerate(row[: top + 1 - j], j):
                total[i] += x * y
    return total


def _root_power_classes(op: str, b: FormalBundle, k: int, top: int) -> list:
    """``c_1..c_top`` of S^k or Lambda^k of ``b`` over a ring of one
    generator ``h``, from integers alone: every class is an integer times a
    power of ``h``, so the classes of ``b`` are read as integers
    (:func:`_line_numbers`) and the answer's are wrapped once
    (:func:`_line_classes`), with no ring product.

    Newton's identity turns the Chern numbers of ``b`` into the power sums
    ``pi_j`` of its r roots.  The power sums ``Q_d`` of the new roots, the
    sums ``sum_i g_i x_i`` over the factors ``g``, come from the lambda-ring
    identity ``sum_(k, d) t^k s^d/d! Q_d = prod_i (1 - t e^(s x_i))^(-1)``
    for S^k, ``prod_i (1 + t e^(s x_i))`` for Lambda^k.  By ``sum_m
    m^(j-1) t^m = t A_(j-1)(t) / (1 - t)^j``, A the Eulerian polynomials,
    its logarithm is ``-r log(1 - t)`` plus ``sum_j s^j/j! pi_j B_j(t) /
    (1 - t)^j`` with ``B_j(t) = t A_(j-1)(t)`` for S^k, and ``r log(1 + t)``
    plus the same over ``(1 + t)^j`` with ``B_j(t) = t A_(j-1)(-t)`` for
    Lambda^k.  Its exponential is ``sum_d s^d/d! E_d(t) (1 - t)^(-r-d)``
    (``E_d(t) (1 + t)^(r-d)``), ``E_0 = 1`` and ``E_d = sum_j C(d-1, j-1)
    pi_j B_j E_(d-j)``.  So ``Q_d = sum_s E_d[s] C(k - s + r + d - 1, r +
    d - 1)`` for S^k and ``sum_s E_d[s] C(r - d, k - s)`` for Lambda^k, a
    negative top n read as ``C(n, m) = (-1)^m C(m - n - 1, m)``.  No B_j
    has a constant term and only ``t^k`` is read, so E_d is kept to degree
    ``min(k, top)``.  Newton's identity, its divisions checked exact, turns
    the Q_d into the classes (Fulton-Lang, *Riemann-Roch Algebra*, I;
    Macdonald, *Symmetric Functions and Hall Polynomials*, I.2).  This is
    O(top^2 min(k, top)^2) integer operations, whatever the rank, and
    nothing is memoized but the rows of :func:`_eulerian`.  Degrees are
    counted in the roots' degree 1, so a weight above 1 leaves each degree
    it does not divide at zero.
    """
    r = b.rank
    cap = min(k, top)  # the highest power of t read
    # eps_i = (-1)^i c_i(b), the coefficients of prod_i (1 - x_i u)
    eps = [-n if i % 2 else n for i, n in enumerate(_line_numbers(b, top))]
    sums = [r]  # pi_n = -n eps_n - sum_(0 < i < n) eps_i pi_(n-i)
    for n in range(1, top + 1):
        sums.append(-n * eps[n] - sum(map(mul, eps[1:n], reversed(sums[1:n]))))
    steps = [None]  # pi_j B_j(t) / t, up to t^cap: no B_j has a constant term
    for j in range(1, top + 1):
        p = sums[j]
        eulerian = _eulerian(j - 1)[1 : cap + 1]
        steps.append([-p * a if op == "ext" and s % 2 else p * a for s, a in enumerate(eulerian)])
    series = [None]  # E_d(t) / t for d >= 1, up to t^cap
    power_sums = [None]  # Q_d
    new_eps = [1]  # (-1)^n c_n of the answer
    for d in range(1, top + 1):
        size = min(d, cap)
        out = steps[d][:size]  # j = d, with E_0 = 1
        out += [0] * (size - len(out))
        for j in range(1, d):
            if not sums[j]:
                continue
            scale = comb(d - 1, j - 1)
            before = series[d - j]
            for s, a in enumerate(steps[j][: size - 1]):
                if a:
                    a *= scale
                    for u, e in enumerate(before[: size - 1 - s], s + 1):
                        out[u] += a * e
        series.append(out)
        if op == "sym":
            span = r + d - 1
            q = sum(e * comb(k - s + span, span) for s, e in enumerate(out, 1) if e)
        else:
            n = r - d
            q = sum(
                e * (comb(n, k - s) if n >= 0 else (-1) ** (k - s) * comb(k - s - n - 1, k - s))
                for s, e in enumerate(out, 1)
                if e
            )
        power_sums.append(q)
        # d eps_d = -Q_d - sum_(0 < i < d) eps_i Q_(d-i)
        value = -q - sum(map(mul, new_eps[1:d], reversed(power_sums[1:d])))
        quotient, remainder = divmod(value, d)
        if remainder:
            raise ArithmeticError(f"Newton's identity left {value} not divisible by {d}")
        new_eps.append(quotient)
    return _line_classes(b.ring, [-e if n % 2 else e for n, e in enumerate(new_eps)])


# -- universal polynomials -------------------------------------------------

def _substitute_all(epolys, b: FormalBundle) -> tuple:
    """Substitute ``e_j -> c_j(b)``, zero beyond the stored classes, into each
    e-polynomial dict of ``epolys = (places, classes)``, the output of
    :func:`_power_epolys`: one product per e-monomial, by the Chern class of
    its least index j, times the monomial with one e_j taken out, each
    monomial built once per call along its chain of such quotients.  The
    monomials stay packed over the w = min(rank, top) places, and ``built``
    is keyed by those integers: j is the first index with
    ``key >= places[j]`` and the quotient's key is ``key - places[j]``.  The
    unit and a zero factor take no product.  On a Grassmannian the factor is
    mostly ``c_1``.
    Each class accumulates its scaled monomials into one dict, wrapped once."""
    places, polys = epolys
    zero = b.ring.zero()
    classes = b.chern + (zero,) * (len(places) - len(b.chern))
    built = {0: None}  # the unit, which no product uses

    def substitute(epoly):
        total: dict = {}
        for key, coeff in epoly.items():
            chain = []
            while key not in built:
                j = 0
                while key < places[j]:
                    j += 1
                chain.append((key, j))
                key -= places[j]
            term = built[key]
            for key, j in reversed(chain):
                c = classes[j]
                term = c if term is None else (term * c if term and c else zero)
                built[key] = term
            _accumulate(total, term.terms, coeff)
        return zero._new(b.ring, total)

    return tuple(map(substitute, polys))


def _power_epolys(op: str, rank: int, k: int, dmax: int) -> tuple:
    """Chern classes of S^k/Lambda^k of a rank-``rank`` bundle, as
    polynomials in the elementary symmetric functions of the Chern roots.

    Returns ``(places, classes)``: one e-polynomial per degree ``1..top``,
    top = min(new rank, dmax), each a dict from packed keys to integer
    coefficients.  Only e_1..e_w appear, w = min(rank, top): e_j has degree
    j.  A key packs the exponents of
    e_1..e_w as the digits of one integer in base ``top + 1``, most
    significant first, so integer order is exponent-tuple order, and
    ``places`` holds the w place values ``(top + 1)^(w - 1 - j)``.  No digit
    of a degree-``top`` product reaches the base, so multiplying monomials
    in Newton's products adds their keys.

    The new roots are the sums ``sum_i g_i x_i`` over the factors ``g``: the
    k-subsets of the roots for Lambda^k, the multisets of k roots for S^k.
    Their d-th power sum ``Q_d`` has the coefficient
    ``d!/prod(lambda_i!) * N(lambda)`` on the monomial symmetric function
    ``m_lambda``, N from :func:`_factor_moment` at the true rank, so no
    factor is ever listed.  Gauss's algorithm rewrites each ``Q_d`` in
    e_1..e_w in one pass over :func:`_gauss_table` of width w, and Newton's
    identity ``n c_n = sum_i (-1)^(i-1) c_(n-i) Q_i`` gives the classes,
    divided by n exactly.  The width is exact: a partition of d <= top has
    at most top parts, and :func:`_m_times_e` reads the count of zero parts
    only as a cap that ``w >= len(nu) + j`` leaves slack (Macdonald, I.2).
    The cost depends on the truncation and on the rank up to it, not on k.
    """
    top = min(comb(rank, k) if op == "ext" else comb(rank + k - 1, k), dmax)  # new rank
    width = min(rank, top)
    places = tuple((top + 1) ** (width - 1 - j) for j in range(width))
    signed_sums = [None]  # (-1)^(d-1) Q_d, packed
    for d in range(1, top + 1):
        table = _gauss_table(d, width)
        row = _binomial_row(k, d + rank - 1)
        residue = {
            alpha: multinomial * _factor_moment(op, rank, k, lam, eulerian, row)
            for alpha, (lam, multinomial, _, eulerian) in table.items()
        }
        sign = 1 if d % 2 else -1
        power_sum = {}
        for alpha, (_, _, column, _) in table.items():
            c = residue[alpha]
            if not c:
                continue
            emon = map(sub, alpha, alpha[1:] + (0,))
            power_sum[sum(map(mul, emon, places))] = sign * c
            for nu, coeff in column:
                residue[nu] -= c * coeff
        signed_sums.append(power_sum)
    classes = [{0: 1}]
    for n in range(1, top + 1):
        total = defaultdict(int)
        for i in range(1, n + 1):
            power_sum = signed_sums[i].items()
            for a, x in classes[n - i].items():
                for b, y in power_sum:
                    total[a + b] += x * y
        quotients = {}
        for key, value in total.items():
            q, r = divmod(value, n)
            if r:
                raise ArithmeticError(f"Newton's identity left {value} not divisible by {n}")
            if q:
                quotients[key] = q
        classes.append(quotients)
    return places, classes[1:]


def _factor_moment(op: str, rank: int, k: int, lam: tuple, eulerian: tuple, row: tuple) -> int:
    """``N(lambda) = sum_g prod_i g_i^lambda_i`` over the factors ``g`` of
    S^k (``g`` in N^rank with sum k) or Lambda^k (``g`` a 0/1 vector with
    sum k), for a partition ``lambda`` with at most ``rank`` parts.

    For Lambda^k a term is 1 exactly when ``g`` covers the l = len(lambda)
    first roots, so N = C(rank - l, k - l).  For S^k, N is the coefficient
    of z^k in ``prod_i (sum_n n^lambda_i z^n) / (1 - z)^(rank - l)``; with
    ``sum_n n^p z^n = z A_p(z) / (1 - z)^(p + 1)``, A_p the Eulerian
    polynomial (Stanley, *Enumerative Combinatorics* I, 1.4), that is
    ``sum_j a_j C(k - j + d + rank - 1, d + rank - 1)`` with d = |lambda|:
    ``eulerian`` is the coefficients a of ``prod_i z A_lambda_i(z)``, as
    :func:`_gauss_table` holds them, and ``row`` is
    ``_binomial_row(k, d + rank - 1)``.
    """
    if op == "ext":
        return comb(rank - len(lam), k - len(lam)) if len(lam) <= k else 0
    return sum(map(mul, eulerian, row))


def _binomial_row(k: int, span: int) -> tuple:
    """``C(k - j + span, span)`` for ``j = 0..span``, each from the one
    before: ``C(n - 1, s) = C(n, s) (n - s) / n``, exact."""
    row = [comb(k + span, span)]
    for n in range(k + span, k, -1):
        row.append(row[-1] * (n - span) // n)
    return tuple(row)


@lru_cache(maxsize=None)
def _gauss_table(d: int, rank: int) -> MappingProxyType:
    """What Gauss's rewrite of a degree-``d`` symmetric function in ``rank``
    variables reads (Macdonald, *Symmetric Functions and Hall Polynomials*,
    I.2 and I.6), read-only since every caller shares it.

    Maps each partition ``lambda`` of ``d`` into at most ``rank`` parts,
    padded with zeros to ``alpha``, in decreasing lexicographic order, to
    ``(lambda, d!/prod(lambda_i!), column, eulerian)``.  ``column`` is the
    e-monomial ``e_1^(a1-a2) ... e_rank^(a_rank)`` in the m-basis, as
    ``(nu, coeff)`` pairs with ``nu`` padded: its leading term is
    ``m_alpha`` with coefficient 1, every other term lexicographically
    lower, so a pass in order kills each leading term of the residue with
    one column.  It is the column of alpha less one e_j of least index j,
    from the table of degree d - j, times e_j, each ``m_nu * e_j`` made
    once per table.  ``eulerian`` is the coefficients of
    ``prod_i z A_lambda_i(z)``: those of lambda less its last part, from the
    table of degree d - lambda_last, times :func:`_eulerian` of that part;
    the multinomial comes from the same entry.
    """
    zero = (0,) * rank
    if not d:
        return MappingProxyType({zero: ((), 1, ((zero, 1),), (1,))})
    products: dict = {}  # nu -> m_nu * e_j, where j = d - |nu|
    table = {}
    for lam in _partitions(d, rank):
        alpha = lam + zero[len(lam):]
        j = 1
        while j < rank and alpha[j] == alpha[j - 1]:
            j += 1
        column = defaultdict(int)
        rest = tuple(a - 1 for a in alpha[:j]) + alpha[j:]
        for nu, c in _gauss_table(d - j, rank)[rest][2]:
            product = products.get(nu)
            if product is None:
                product = products[nu] = _m_times_e(nu, j, rank)
            for mu, mult in product:
                column[mu] += c * mult
        last = lam[-1]
        shorter = lam[:-1] + zero[len(lam) - 1:]
        _, multinomial, _, head = _gauss_table(d - last, rank)[shorter]
        factor = _eulerian(last)
        eulerian = [0] * (len(head) + len(factor) - 1)
        for i, a in enumerate(head):
            for m, b in enumerate(factor):
                eulerian[i + m] += a * b
        table[alpha] = (lam, multinomial * comb(d, last), tuple(column.items()), tuple(eulerian))
    return MappingProxyType(table)


def _partitions(d: int, parts: int, cap: int = 0):
    """The partitions of ``d`` into at most ``parts`` parts, none above
    ``cap`` (when given), in decreasing lexicographic order."""
    if not d:
        yield ()
        return
    if parts:
        for head in range(min(d, cap or d), 0, -1):
            for tail in _partitions(d - head, parts - 1, head):
                yield (head, *tail)


@lru_cache(maxsize=None)
def _eulerian(p: int) -> tuple:
    """Coefficients of ``z A_p(z)``, p >= 1, by the Eulerian recurrence
    ``A(p, m) = (m + 1) A(p - 1, m) + (p - m) A(p - 1, m - 1)``."""
    row = [1]
    for q in range(2, p + 1):
        row = [(m + 1) * (row[m] if m < q - 1 else 0) + (q - m) * (row[m - 1] if m else 0)
               for m in range(q)]
    return (0, *row)


def _m_times_e(lam: tuple, j: int, nvars: int) -> tuple:
    """``m_lam * e_j`` in the m-basis, as ``(nu, coeff)`` pairs.

    The coefficient of ``m_nu`` counts the j-subsets S of the variables for
    which ``nu - 1_S`` is a permutation of ``lam``.  Such a ``nu`` raises
    ``t_v`` of the ``a_v`` parts of ``lam`` equal to ``v`` (zeros included)
    by one, with ``sum_v t_v = j``; S is then the choice, for each value w,
    of which ``t_(w-1)`` of the ``b_w = a_w - t_w + t_(w-1)`` parts of
    ``nu`` equal to ``w`` were raised, so the coefficient is the product of
    binomials ``prod_w C(b_w, t_(w-1))`` (Macdonald, I.2).
    """
    values = sorted(set(lam), reverse=True)
    counts = tuple(map(lam.count, values))
    # whether the next value is v - 1, whose raised parts then meet the
    # unraised parts equal to v
    adjacent = [a - b == 1 for a, b in zip(values, values[1:])] + [False]
    out = []
    for raised in _bounded_compositions(j, counts):
        nu: list = []
        coeff = 1
        above = 0  # unraised parts of lam equal to v + 1
        for v, a, t, next_adjacent in zip(values, counts, raised, adjacent):
            if t and above:
                coeff *= comb(t + above, t)
            nu += [v + 1] * t + [v] * (a - t)
            above = a - t if next_adjacent else 0
        out.append((tuple(nu), coeff))
    return tuple(out)


@lru_cache(maxsize=None)
def _bounded_compositions(total: int, caps: tuple) -> tuple:
    """Every tuple ``t`` with ``0 <= t_i <= caps[i]`` and ``sum t = total``."""
    if not caps:
        return () if total else ((),)
    rest = sum(caps[1:])
    return tuple(
        (t, *tail)
        for t in range(max(0, total - rest), min(total, caps[0]) + 1)
        for tail in _bounded_compositions(total - t, caps[1:])
    )
