"""Chern-class algebra of formal bundles via the splitting principle.

A :class:`FormalBundle` is a rank together with Chern classes ``c_1..c_t``
living in a truncated graded coefficient ring (see :mod:`fanocalc.rings`).
Whitney sums and line twists are identities of the total Chern class, taken
by the ring's own product (Fulton, *Intersection Theory*, section 3.2).
Symmetric and exterior powers go through universal integer polynomials in
the elementary symmetric functions ``e_1..e_r`` of formal Chern roots
``x_1..x_r``, then ``e_i -> c_i`` with one product per e-monomial, by the
Chern class of its least index.  The new roots are never listed: the power
sums of the new roots have closed-form coefficients on the monomial
symmetric functions ``m_lambda`` (binomials for Lambda^k, Eulerian
polynomials for S^k), Gauss's algorithm rewrites each in ``e_1..e_r``
within the m-basis, and Newton's identities turn power sums into Chern
classes (Macdonald, *Symmetric Functions and Hall Polynomials*, I.2).  The
cost depends on the rank and the truncation degree, not on the power.
Every coefficient is an exact integer; Newton's divisions are checked
exact.  Validation happens once, at the public :class:`FormalBundle`
constructor (and ``line_bundle``, ``trivial_bundle``); the kernels here
build classes that are homogeneous by construction and wrap them through
``_bundle`` without re-checking their degrees.  The universal polynomials
are memoized per (functor, rank, power, truncation degree), bounded in keys.
What Gauss's rewrite reads is one table per (degree, rank), unbounded: it
grows with each new rank or truncation, not with the power.  All are safe
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
    """Direct sum: ranks add and total classes multiply, ``c(E+F) = c(E) c(F)``."""
    if a.ring is not b.ring and a.ring != b.ring:
        raise ValueError("bundles live over different rings")
    one = a.ring.one()
    return _from_total(a.rank + b.rank, sum(a.chern, one) * sum(b.chern, one))


def dual(b: FormalBundle) -> FormalBundle:
    """Dual bundle: ``c_i -> (-1)^i c_i``."""
    cs = tuple(c if (i + 1) % 2 == 0 else -c for i, c in enumerate(b.chern))
    return _bundle(b.ring, b.rank, cs)


def twist_line(b: FormalBundle, t) -> FormalBundle:
    """Tensor with the line bundle of first Chern class ``t`` (0 returns ``b``):
    the total class ``sum_j c_j(b) u^(rank-j)``, ``u = 1 + t``, is Horner's rule
    in ``u`` over the stored ``c_1..c_s``, times ``u^(rank-s)``."""
    if not t:
        return b
    ring = b.ring
    if ring.degree(t) != 1:
        raise ValueError("twist class must be homogeneous of degree 1")
    u = ring.one() + t
    total = ring.one()
    for c in b.chern:
        total = total * u + c
    return _from_total(b.rank, total * u ** (b.rank - len(b.chern)))


def _from_total(rank: int, total) -> FormalBundle:
    """The bundle of this rank with total Chern class ``total``."""
    ring = total.ring
    parts: list[dict] = [{} for _ in range(min(rank, ring.truncation) + 1)]
    for key, c in total.terms.items():
        parts[ring.key_degree(key)][key] = c
    return _bundle(ring, rank, [total._new(ring, p) for p in parts[1:]])


def sym_power(b: FormalBundle, k: int) -> FormalBundle:
    """k-th symmetric power; rank ``C(rank+k-1, k)``."""
    if _typed(k, "power") < 1:
        raise ValueError("power must be a positive integer")
    if b.rank < 1:
        raise ValueError("symmetric power needs positive rank")
    rank = comb(b.rank + k - 1, k)
    epolys = _power_epolys("sym", b.rank, k, b.ring.truncation)
    return _bundle(b.ring, rank, _substitute_all(epolys, b))


def ext_power(b: FormalBundle, k: int) -> FormalBundle:
    """k-th exterior power; rank ``C(rank, k)``."""
    if _typed(k, "power") < 1:
        raise ValueError("power must be a positive integer")
    if k > b.rank:
        raise ValueError(f"exterior power {k} exceeds rank {b.rank}")
    rank = comb(b.rank, k)
    epolys = _power_epolys("ext", b.rank, k, b.ring.truncation)
    return _bundle(b.ring, rank, _substitute_all(epolys, b))


# -- universal polynomials -------------------------------------------------

def _substitute_all(epolys, b: FormalBundle) -> tuple:
    """Substitute ``e_j -> c_j(b)``, zero beyond the stored classes, into each
    e-polynomial: one product per e-monomial, by the Chern class of its least
    index j, times the monomial with one e_j taken out, each monomial built
    once per call along its chain of such quotients.  The unit and a zero
    factor take no product.  On a Grassmannian the factor is mostly ``c_1``.
    Each class accumulates its scaled monomials into one dict, wrapped once."""
    zero = b.ring.zero()
    classes = b.chern + (zero,) * (b.rank - len(b.chern))
    built = {(0,) * b.rank: None}  # the unit, which no product uses

    def substitute(epoly):
        total: dict = {}
        for emon, coeff in epoly:
            chain = []
            while emon not in built:
                j = 0
                while not emon[j]:
                    j += 1
                chain.append((emon, j))
                emon = emon[:j] + (emon[j] - 1,) + emon[j + 1:]
            term = built[emon]
            for emon, j in reversed(chain):
                c = classes[j]
                term = c if term is None else (term * c if term and c else zero)
                built[emon] = term
            _accumulate(total, term.terms, coeff)
        return zero._new(b.ring, total)

    return tuple(map(substitute, epolys))


# The bound on the memo of universal polynomials, in keys; the least recently
# used go first.  S^k of a rank-3 bundle on P^3 for k = 1..2000 held 4.7 MB
# unbounded, 1.1 MB bounded; the benchmarks use 23 keys.
EPOLY_MEMO_SIZE = 256


@lru_cache(maxsize=EPOLY_MEMO_SIZE)
def _power_epolys(op: str, rank: int, k: int, dmax: int) -> tuple:
    """Chern classes of S^k/Lambda^k of a rank-``rank`` bundle, as
    polynomials in the elementary symmetric functions of the Chern roots.

    Returns one frozen e-polynomial per degree ``1..min(new rank, dmax)``,
    each a tuple of ``(e-exponent tuple, integer coefficient)`` pairs.

    The new roots are the sums ``sum_i g_i x_i`` over the factors ``g``: the
    k-subsets of the roots for Lambda^k, the multisets of k roots for S^k.
    Their d-th power sum ``Q_d`` has the coefficient
    ``d!/prod(lambda_i!) * N(lambda)`` on the monomial symmetric function
    ``m_lambda``, N from :func:`_factor_moment`, so no factor is ever listed.
    Gauss's algorithm rewrites each ``Q_d`` in e_1..e_rank in one pass over
    :func:`_gauss_table`, and Newton's identity
    ``n c_n = sum_i (-1)^(i-1) c_(n-i) Q_i`` gives the classes, divided by n
    exactly.  The cost depends on the rank and the truncation, not on k.
    An e-exponent tuple is packed as one integer, its entries the digits in
    base ``top + 1`` (most significant first, so integer order is tuple
    order): no entry of a degree-``top`` product reaches the base, so
    multiplying monomials in Newton's products adds their keys.
    """
    top = min(comb(rank, k) if op == "ext" else comb(rank + k - 1, k), dmax)  # new rank
    base = top + 1
    places = tuple(base ** (rank - 1 - j) for j in range(rank))
    signed_sums = [None]  # (-1)^(d-1) Q_d, packed
    for d in range(1, top + 1):
        table = _gauss_table(d, rank)
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
    return tuple(
        tuple((_unpacked(key, base, rank), c) for key, c in sorted(classes[n].items()))
        for n in range(1, top + 1)
    )


def _unpacked(key: int, base: int, rank: int) -> tuple:
    """The e-exponent tuple of a packed key: its ``rank`` digits in ``base``."""
    digits = []
    for _ in range(rank):
        key, digit = divmod(key, base)
        digits.append(digit)
    return tuple(reversed(digits))


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
