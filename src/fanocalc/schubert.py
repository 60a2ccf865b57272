"""Exact Schubert calculus on a Grassmannian.

The Chow ring of the Grassmannian of k-dimensional subspaces of an
n-dimensional vector space is free over the integers on Schubert classes
``sigma_lambda``, indexed by partitions inside a k x (n-k) box and graded by
the weight of the partition.  Multiplication is realized by a small trusted
kernel: the Pieri rule handles products with single-row classes, and the
Giambelli determinant reduces an arbitrary class to an alternating sum of
single-row products.  The determinant is expanded row by row over subsets of
its columns (Laplace), so a class with l rows costs l * 2^(l-1) Pieri steps
rather than the l * l! of the Leibniz rule.  The horizontal strips of each
(lambda, a, box) are tabulated once per process, in a table bounded at
``STRIP_TABLE_SIZE`` = 2^16 keys, so repeated Pieri steps look their strips
up instead of enumerating them again; the comment above that constant says
what the bound costs in memory.  A partition outside the box is zero where
the ring computes it (``sigma`` and products give zero), while the
constructor and ``giambelli`` raise on it, as on a part that is not an int.

``GrassmannContext`` is this ring as a coefficient ring of
:mod:`fanocalc.rings` (truncated at the top degree, generated in degree one
by ``sigma_1``), so formal bundles live over it directly.  ``ChowElement``
takes its constructor, sums, scaling, powers and printing from
``rings.GradedElement`` and adds only the product.

Two indexing conventions are around.  Internally everything is *linear*:
``G(k, n)`` parametrizes k-dimensional linear subspaces of an n-dimensional
space.  The classical *projective* notation ``G(a, b)`` for a-planes in
projective b-space converts by ``(k, n) = (a + 1, b + 1)``; the lines of
projective 4-space form G(1,4) = linear G(2,5).

Coefficients are arbitrary-precision integers throughout.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import lru_cache
from itertools import combinations_with_replacement

from . import _Record
from .chern import FormalBundle
from .rings import GradedElement, GradedRing

Partition = tuple[int, ...]


def as_partition(parts: Iterable[int]) -> Partition:
    """Normalize to a weakly decreasing tuple of positive ``int`` parts."""
    p = tuple(parts)
    if not all(type(x) is int for x in p):
        raise ValueError(f"partition parts must be ints, got {p!r}")
    while p and p[-1] == 0:
        p = p[:-1]
    if any(x < 0 for x in p):
        raise ValueError(f"negative part in partition {p}")
    if any(p[i] < p[i + 1] for i in range(len(p) - 1)):
        raise ValueError(f"parts must be weakly decreasing, got {p}")
    return p


class ChowElement(GradedElement):
    """Integer combination of Schubert classes of a fixed Grassmannian."""

    __slots__ = ()

    def __mul__(self, other):
        if not isinstance(other, ChowElement):
            return self.__rmul__(other)
        return multiply(self, other)


class GrassmannContext(GradedRing, _Record):
    """Grassmannian of ``k``-dimensional subspaces of an ``n``-dimensional
    space, and its Chow ring: the keys are in-box partitions, the unit is the
    empty one, and ``sigma_1`` generates in degree one."""

    k: int
    n: int

    element = ChowElement
    unit_key = ()

    def __post_init__(self):
        if not 1 <= self.k < self.n:
            raise ValueError(f"need 1 <= k < n, got k={self.k}, n={self.n}")

    @classmethod
    def from_projective(cls, a: int, b: int) -> "GrassmannContext":
        """The Grassmannian of projective a-planes in projective b-space."""
        return cls(a + 1, b + 1)

    def to_projective(self) -> tuple[int, int]:
        return (self.k - 1, self.n - 1)

    @property
    def rows(self) -> int:
        return self.k

    @property
    def cols(self) -> int:
        return self.n - self.k

    @property
    def top_degree(self) -> int:
        return self.k * (self.n - self.k)

    truncation = top_degree

    @property
    def point_class(self) -> Partition:
        return (self.cols,) * self.rows

    key_degree = staticmethod(sum)

    def key(self, parts: Iterable[int]) -> Partition:
        """``parts`` as an in-box partition, or ``ValueError``."""
        p = as_partition(parts)
        if not self.fits(p):
            raise ValueError(f"{p} does not fit the box of {self}")
        return p

    @staticmethod
    def key_name(parts: Partition) -> str:
        return "s[" + ",".join(str(x) for x in parts) + "]" if parts else ""

    def gen(self) -> ChowElement:
        return sigma(self, 1)

    def integral(self, x: ChowElement) -> int:
        return integrate(x)

    def fits(self, parts: Partition) -> bool:
        return len(parts) <= self.rows and (not parts or parts[0] <= self.cols)

    def complement(self, parts: Partition) -> Partition:
        """The partition pairing with ``parts`` to the point class."""
        p = self.key(parts)
        padded = p + (0,) * (self.rows - len(p))
        return as_partition(self.cols - padded[i] for i in range(self.rows - 1, -1, -1))

    def partitions(self, weight: int | None = None) -> Iterator[Partition]:
        """All in-box partitions, optionally restricted to one weight: the
        weakly decreasing choices of ``rows`` parts from ``cols, ..., 0``,
        less their trailing zeros."""
        for p in combinations_with_replacement(range(self.cols, -1, -1), self.rows):
            if weight is None or sum(p) == weight:
                yield p[: len(p) - p.count(0)]

    def __str__(self) -> str:
        a, b = self.to_projective()
        return f"G({a},{b})"


def sigma(ctx: GrassmannContext, *parts: int) -> ChowElement:
    """The Schubert class ``sigma_parts``; out-of-box partitions give zero."""
    p = as_partition(parts)
    return ChowElement._new(ctx, {p: 1}) if ctx.fits(p) else ctx.zero()


# Bound on the strip table, in (lam, a, rows, cols) keys, not in strips,
# whose number per key grows with the box: a full G(7,14) is 24024 keys
# holding 112848 strips, 16.7 MB under tracemalloc, while 2**16 keys of
# G(8,16) held 63.8 MB.  Past the bound the least recently used go first.
STRIP_TABLE_SIZE = 2**16


@lru_cache(maxsize=STRIP_TABLE_SIZE)
def _horizontal_strips(lam: Partition, a: int, rows: int, cols: int) -> tuple[Partition, ...]:
    """Partitions ``mu`` in the box with ``mu/lam`` a horizontal strip of size ``a``.

    Row i of ``mu`` lies between ``lam_i`` and ``lam_(i-1)`` (the box width
    for the first row), and only a new last row may stay empty.  A strip
    has at most one box per column, so the boxes left after row i fit
    between the last row of ``lam`` and ``lam_i``; that bounds ``mu_i`` from
    below, and every branch of the search ends in a strip.
    """
    length = len(lam)
    last = min(rows, length + 1) - 1
    bottom = lam[last] if last < length else 0
    out: list[Partition] = []

    def rec(i: int, remaining: int, prefix: Partition) -> None:
        if not remaining:
            out.append(prefix + lam[i:])
            return
        lo = lam[i] if i < length else 0
        hi = cols if i == 0 else lam[i - 1]
        for part in range(max(lo, bottom + remaining), min(hi, lo + remaining) + 1):
            rec(i + 1, remaining - (part - lo), prefix + (part,))

    rec(0, a, ())
    return tuple(out)


def pieri(x: ChowElement, a: int) -> ChowElement:
    """Multiply by the single-row class ``sigma_a`` (horizontal strips)."""
    if a < 1:
        raise ValueError("Pieri index must be a positive integer")
    ctx = x.ring
    rows, cols = ctx.rows, ctx.cols
    out: dict[Partition, int] = {}
    for lam, coeff in x.terms.items():
        for mu in _horizontal_strips(lam, a, rows, cols):
            c = out.get(mu, 0) + coeff
            if c:
                out[mu] = c
            else:
                del out[mu]
    return ChowElement._new(ctx, out)


def _times_schubert(x: ChowElement, lam: Partition) -> ChowElement:
    """``x * sigma_lam`` through the Giambelli determinant and iterated Pieri.

    The determinant ``det(sigma_(lam_i + j - i))`` is expanded row by row
    (Laplace), keeping one partial product per set of columns used so far.
    Row i moves each partial product on by Pieri with the entry of every
    unused column j, with sign ``(-1)^(#used columns > j)``; entries whose
    index is negative or exceeds the box width are zero.  That is
    ``l * 2^(l-1)`` Pieri steps for ``l`` rows, against ``l * l!`` for the
    Leibniz rule.
    """
    if not lam:
        return x
    ctx = x.ring
    size = len(lam)
    partial = {0: x}
    for i, part in enumerate(lam):
        sums: dict[int, dict[Partition, int]] = {}
        for used, term in partial.items():
            for j in range(size):
                bit = 1 << j
                d = part + j - i
                if used & bit or d < 0 or d > ctx.cols:
                    continue
                moved = pieri(term, d) if d else term
                if not moved:
                    continue
                sign = -1 if (used >> (j + 1)).bit_count() % 2 else 1
                out = sums.setdefault(used | bit, {})
                for mu, coeff in moved.terms.items():
                    c = out.get(mu, 0) + sign * coeff
                    if c:
                        out[mu] = c
                    else:
                        del out[mu]
        partial = {used: ChowElement._new(ctx, terms) for used, terms in sums.items() if terms}
    return partial.get((1 << size) - 1) or ctx.zero()


def giambelli(ctx: GrassmannContext, parts: Iterable[int]) -> ChowElement:
    """Evaluate the Giambelli determinant for ``sigma_parts``.

    Rejects partitions outside the box (unlike :func:`sigma`, which treats
    them as zero) so the determinant identity is tested on genuine classes.
    """
    return _times_schubert(ctx.one(), ctx.key(parts))


def multiply(x: ChowElement, y: ChowElement) -> ChowElement:
    """Product in the Schubert basis; bilinear, commutative, associative."""
    x._check(y)
    if len(x.terms) < len(y.terms):
        x, y = y, x
    out: dict[Partition, int] = {}
    for lam, coeff in y.terms.items():
        for mu, c in _times_schubert(x, lam).terms.items():
            c = out.get(mu, 0) + coeff * c
            if c:
                out[mu] = c
            else:
                del out[mu]
    return ChowElement._new(x.ring, out)


def integrate(x: ChowElement) -> int:
    """Degree of a top-degree class: the coefficient of the point class."""
    if not x.terms:
        return 0
    ctx = x.ring
    if any(sum(p) != ctx.top_degree for p in x.terms):
        raise ValueError("integrate needs a class purely of top degree")
    return x.terms.get(ctx.point_class, 0)


def tautological_dual(ctx: GrassmannContext) -> FormalBundle:
    """The dual ``U*`` of the rank-k tautological subbundle.

    Its Chern classes are the column classes: ``c_i(U*) = sigma_(1^i)``.
    """
    cs = tuple(sigma(ctx, *([1] * i)) for i in range(1, ctx.k + 1))
    return FormalBundle(ctx, ctx.k, cs)
