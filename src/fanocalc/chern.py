"""Chern-class algebra of formal bundles via the splitting principle.

A :class:`FormalBundle` is a rank together with Chern classes ``c_1..c_t``
living in a truncated graded coefficient ring (see :mod:`fanocalc.rings`).
Whitney sums and line twists are identities of the total Chern class, taken
by the ring's own product (Fulton, *Intersection Theory*, section 3.2).
Symmetric and exterior powers go through universal integer polynomials:
apply the functor to formal Chern roots ``x_1..x_r``, rewrite the resulting
symmetric functions in the elementary symmetric polynomials ``e_1..e_r``
(Gauss's algorithm), and substitute ``e_i -> c_i``.  The root product keeps
only the exponent vectors that can still reach a partition of weight at
most the truncation degree, and Gauss's rewrite runs in the basis of
monomial symmetric functions ``m_lambda``, so no symmetric function is ever
expanded into all the plain monomials of r variables (Macdonald, *Symmetric
Functions and Hall Polynomials*, I.2 and I.6).  Every coefficient is an
exact integer; no division ever occurs.  Validation happens once, at the
public :class:`FormalBundle` constructor (and ``line_bundle``,
``trivial_bundle``); the kernels here build classes that are homogeneous
by construction and wrap them through ``_bundle`` without re-checking
their degrees.  The universal polynomials are
memoized per (functor, rank, power, truncation degree), which is safe under
concurrent use because the computation is pure and idempotent.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb

from . import _Record
from .rings import GradedRing


class FormalBundle(_Record):
    """A rank and a list of Chern classes ``c_1..c_t`` over a graded ring.

    Missing entries (``t < rank``) are zero; trailing zero classes are
    stripped so equal bundles compare equal.  This constructor validates
    its input: a nonnegative rank, at most ``min(rank, truncation)``
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
        object.__setattr__(self, "chern", cs)


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
    if i < 0 or i > b.ring.truncation:
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
    if b.rank < 1:
        raise ValueError("symmetric power needs positive rank")
    if k < 1:
        raise ValueError("power must be a positive integer")
    rank = comb(b.rank + k - 1, k)
    epolys = _power_epolys("sym", b.rank, k, b.ring.truncation)
    return _bundle(b.ring, rank, _substitute_all(epolys, b))


def ext_power(b: FormalBundle, k: int) -> FormalBundle:
    """k-th exterior power; rank ``C(rank, k)``."""
    if k < 1:
        raise ValueError("power must be a positive integer")
    if k > b.rank:
        raise ValueError(f"exterior power {k} exceeds rank {b.rank}")
    rank = comb(b.rank, k)
    epolys = _power_epolys("ext", b.rank, k, b.ring.truncation)
    return _bundle(b.ring, rank, _substitute_all(epolys, b))


# -- universal polynomials -------------------------------------------------

def _substitute_all(epolys, b: FormalBundle) -> tuple:
    """Substitute ``e_j -> c_j(b)``, zero beyond the stored classes, into each
    e-polynomial; every term's product starts from its first factor."""
    ring = b.ring
    powers: dict[int, list] = {}

    def power(j: int, m: int):
        """``c_j ** m`` for ``m >= 1``, each power built once per call."""
        if j > len(b.chern):
            return ring.zero()
        built = powers.setdefault(j, [b.chern[j - 1]])
        while len(built) < m:
            built.append(built[-1] * built[0])
        return built[m - 1]

    def substitute(epoly):
        total = ring.zero()
        for emon, coeff in epoly:
            term = None
            for j, mult in enumerate(emon, start=1):
                if mult:
                    factor = power(j, mult)
                    if not factor:
                        break
                    term = factor if term is None else term * factor
            else:
                total = total + coeff * term
        return total

    return tuple(map(substitute, epolys))


@lru_cache(maxsize=None)
def _power_epolys(op: str, rank: int, k: int, dmax: int) -> tuple:
    """Chern classes of S^k/Lambda^k of a rank-``rank`` bundle, as
    polynomials in the elementary symmetric functions of the Chern roots.

    Returns one frozen e-polynomial per degree ``1..min(new rank, dmax)``,
    each a tuple of ``(e-exponent tuple, integer coefficient)`` pairs.

    The root product ``prod_g (1 + sum_{i in g} x_i)`` is taken one linear
    factor at a time, keeping only the exponent vectors that can still grow
    into a monomial ``x^lambda`` with ``lambda`` a partition of weight at
    most ``dmax``: every factor only raises exponents, and the least
    partition above ``alpha`` has weight ``sum_i max_{j >= i} alpha_j``.
    Those partition coefficients are the coefficients of the symmetric
    result on the monomial symmetric functions, which is all Gauss's
    rewrite needs.  The factors are generated one at a time, so the time
    is linear in their number, the new rank.
    """
    poly = {(0,) * rank: 1}
    for factor in _root_factors(op, rank, k):
        grown = dict(poly)
        for alpha, coeff in poly.items():
            for i, c in factor:
                beta = alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:]
                kept = grown.get(beta)
                if kept is not None:  # every kept key passed the bound; none cancels
                    grown[beta] = kept + c * coeff
                elif _hull_weight(beta) <= dmax:
                    grown[beta] = c * coeff
        poly = grown
    top = min(comb(rank, k) if op == "ext" else comb(rank + k - 1, k), dmax)  # new rank
    components: list[dict] = [{} for _ in range(top + 1)]
    for alpha, coeff in poly.items():
        components[sum(alpha)][alpha] = coeff
    return tuple(
        tuple(sorted(_symmetric_to_elementary(components[d], rank).items()))
        for d in range(1, top + 1)
    )


def _root_factors(op: str, rank: int, k: int):
    """The linear factors ``1 + sum_i c_i x_i`` of the root product, one at
    a time, as the pairs ``(i, c_i)`` with ``c_i > 0``: a k-subset of the
    roots for ``ext``; for ``sym`` a multiset of k roots, whose counts are
    the gaps between ``rank - 1`` bars placed among ``k + rank - 1`` slots."""
    if op == "ext":
        for subset in combinations(range(rank), k):
            yield [(i, 1) for i in subset]
        return
    slots = k + rank - 1
    for bars in combinations(range(slots), rank - 1):
        edges = (-1, *bars, slots)
        yield [(i, c) for i in range(rank) if (c := edges[i + 1] - edges[i] - 1)]


def _hull_weight(alpha: tuple) -> int:
    """Weight of the least partition lying componentwise above ``alpha``."""
    total = peak = 0
    for a in reversed(alpha):
        if a > peak:
            peak = a
        total += peak
    return total


def _symmetric_to_elementary(poly: dict, nvars: int) -> dict:
    """Rewrite a symmetric integer polynomial in ``e_1..e_nvars``.

    Only the coefficients on weakly decreasing exponents are read: they are
    the coefficients on the monomial symmetric functions ``m_lambda``, which
    determine a symmetric polynomial.  Gauss's algorithm then works in that
    basis: kill the lex-leading ``m_alpha`` with the elementary product
    ``e_1^(a1-a2) e_2^(a2-a3) ... e_n^(an)``, whose expansion in the
    m-basis has leading term ``m_alpha`` with coefficient 1.
    """
    residue = {
        e: c for e, c in poly.items()
        if c and all(e[i] >= e[i + 1] for i in range(nvars - 1))
    }
    out: dict = {}
    while residue:
        alpha = max(residue)
        c = residue[alpha]
        emon = tuple(alpha[i] - alpha[i + 1] for i in range(nvars - 1)) + (alpha[-1],)
        out[emon] = out.get(emon, 0) + c
        for lam, coeff in _emonomial_expansion_m(emon, nvars):
            val = residue.get(lam, 0) - c * coeff
            if val:
                residue[lam] = val
            else:
                residue.pop(lam, None)
    return out


@lru_cache(maxsize=None)
def _emonomial_expansion_m(emon: tuple, nvars: int) -> tuple:
    """Expansion of ``prod e_j**m_j`` in the m-basis, as ``(lambda, coeff)``
    pairs with ``lambda`` a weakly decreasing ``nvars``-tuple."""
    if not any(emon):
        return (((0,) * nvars, 1),)
    j = max(i for i, mult in enumerate(emon, start=1) if mult)
    rest = emon[: j - 1] + (emon[j - 1] - 1,) + emon[j:]
    out: dict = {}
    for lam, c in _emonomial_expansion_m(rest, nvars):
        for nu, mult in _m_times_e(lam, j, nvars):
            out[nu] = out.get(nu, 0) + c * mult
    return tuple(out.items())


@lru_cache(maxsize=None)
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
    counts = [lam.count(v) for v in values]
    out = []
    for raised in _bounded_compositions(j, counts):
        nu: list = []
        coeff = 1
        above = 0  # unraised parts of lam equal to v + 1
        for i, (v, a, t) in enumerate(zip(values, counts, raised)):
            coeff *= comb(t + above, t)
            nu += [v + 1] * t + [v] * (a - t)
            above = a - t if i + 1 < len(values) and values[i + 1] == v - 1 else 0
        out.append((tuple(nu), coeff))
    return tuple(out)


def _bounded_compositions(total: int, caps: list):
    """Every tuple ``t`` with ``0 <= t_i <= caps[i]`` and ``sum t = total``."""
    if not caps:
        if not total:
            yield ()
        return
    rest = sum(caps[1:])
    for t in range(max(0, total - rest), min(total, caps[0]) + 1):
        for tail in _bounded_compositions(total - t, caps[1:]):
            yield (t, *tail)
