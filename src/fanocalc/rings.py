"""Truncated graded coefficient rings with exact integer coefficients.

Characteristic-class computations need very little from their coefficient
ring: addition, multiplication, integer scaling, a grading, and a truncation
degree above which all products vanish.  ``GradedRing`` fixes that interface
and ``GradedElement`` implements everything but the ring product once: an
element is a map from basis keys to nonzero integers, and the ring tells the
degree, the printed name and the rule of a key.  The terms never hold a
zero.  The one public constructor, ``GradedElement(ring, terms)``, puts
each key in the ring's canonical form and adds the coefficients of equal
keys; a kernel builds its dict itself, deletes a key at the ``+=`` that
cancels it, and wraps it once, uncopied, through ``GradedElement._new``.
``TruncatedPolynomialRing`` is the workhorse instance (weighted polynomial
generators, products cut off above the truncation degree); the
Grassmannian of ``schubert`` is the other one, its own Chow ring with
Schubert classes as keys.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from math import comb
from operator import add, index, mul

from . import _Record


class GradedRing:
    """Commutative graded ring, truncated above degree ``truncation``.

    A ring names its element class (``element``) and the key of its unit
    (``unit_key``), and grades, prints and checks keys (``key_degree``,
    ``key_name``, ``key``: the canonical form, ``None`` for a key that is
    zero, or ``ValueError``); the keys other than the unit have positive degree.
    """

    truncation: int

    def zero(self):
        """The zero element."""
        return self.element._new(self, {})

    def one(self):
        """The multiplicative unit."""
        return self.element._new(self, {self.unit_key: 1})

    def degree(self, x):
        """Degree of a homogeneous element, ``None`` for zero.

        Raises ``ValueError`` on a mixed-degree element.
        """
        if not isinstance(x, GradedElement) or (x.ring is not self and x.ring != self):
            raise ValueError("element does not belong to this ring")
        return x.degree()


def _integer(x) -> int:
    """``x`` as an int through ``operator.index``, or ``TypeError``; a bool is
    refused, as it is for a partition part or an exponent."""
    if type(x) is bool:
        raise TypeError(f"expected an integer, got {x!r}")
    return index(x)


class GradedElement:
    """Integer combination of the basis keys of a :class:`GradedRing`.

    Elements support ``+``, ``-``, ``*`` (the ring product, which each
    subclass defines, and scaling by integers), ``**`` with nonnegative
    integer exponents, ``==`` and truthiness (zero is falsy).  Coefficients,
    scalars and exponents all pass one rule, ``_integer``: ``operator.index``,
    with bools refused.

    ``terms`` never holds a zero coefficient, so equality is equality of
    dicts.  ``ring.element(ring, terms)`` is the one public constructor
    (``ring.key`` per key, ``_integer`` per coefficient, equal keys
    added, a cancelled key deleted); ``_new`` is the one trusted constructor,
    which wraps a zero-free dict of valid keys without copying it, and every
    kernel deletes a cancelled key where it adds the coefficient that cancels.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: GradedRing, terms: Mapping) -> None:
        if type(self) is not ring.element:
            raise TypeError(f"{type(ring).__name__} elements are {ring.element.__name__}s")
        key = ring.key
        out: dict = {}
        for raw, c in terms.items():
            k, c = key(raw), _integer(c)
            if k is None:
                continue
            c += out.get(k, 0)
            if c:
                out[k] = c
            else:
                out.pop(k, None)
        self.ring = ring
        self.terms = out

    @classmethod
    def _new(cls, ring: GradedRing, terms: dict) -> "GradedElement":
        """Wrap ``terms`` as an element of ``ring``, neither copied nor
        checked: the caller guarantees valid keys and no zero coefficient."""
        x = cls.__new__(cls)
        x.ring = ring
        x.terms = terms
        return x

    def _check(self, other: "GradedElement") -> None:
        """Same ring or raise; identity first, which spares the record ``==``
        over the ring's fields."""
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("elements belong to different rings")

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GradedElement)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    __hash__ = None

    def __neg__(self) -> "GradedElement":
        return self._new(self.ring, {key: -c for key, c in self.terms.items()})

    def __add__(self, other: "GradedElement") -> "GradedElement":
        self._check(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            c += out.get(key, 0)
            if c:
                out[key] = c
            else:
                del out[key]
        return self._new(self.ring, out)

    def __sub__(self, other: "GradedElement") -> "GradedElement":
        return self + (-other)

    def _scaled(self, n: int) -> "GradedElement":
        return self._new(self.ring, {key: c * n for key, c in self.terms.items()} if n else {})

    def __rmul__(self, other):
        """``n * x`` for an integer ``n``; the product of two elements is
        each subclass's ``__mul__``, which sends a scalar here."""
        try:
            n = _integer(other)
        except TypeError:
            return NotImplemented
        return self._scaled(n)

    def __pow__(self, exponent: int) -> "GradedElement":
        """A power of an element with a unit part is a binomial sum: the rest
        is nilpotent, so ``sum_i C(N, i) c^(N-i) rest^i`` stops at its first
        vanishing power, at most one product per degree.  Otherwise the power
        is zero without a product once the least degree times the exponent
        passes the truncation, and a chain of products below that."""
        try:
            exponent = _integer(exponent)
        except TypeError:
            exponent = -1
        if exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        ring = self.ring
        constant = self.terms.get(ring.unit_key, 0)
        if constant:
            rest = self - constant * ring.one()
            total, term = ring.one()._scaled(constant**exponent), rest
            for i in range(1, exponent + 1):
                if not term:
                    break
                total = total + comb(exponent, i) * constant ** (exponent - i) * term
                if i < exponent:
                    term = term * rest
            return total
        if exponent and (
            not self.terms or min(map(ring.key_degree, self.terms)) * exponent > ring.truncation
        ):
            return ring.zero()
        result = ring.one()
        for _ in range(exponent):
            result = result * self
            if not result:
                break
        return result

    def degree(self) -> int | None:
        """Common degree of a homogeneous element; ``None`` for zero."""
        degrees = {self.ring.key_degree(key) for key in self.terms}
        if len(degrees) > 1:
            raise ValueError(f"element is not homogeneous: {self}")
        return degrees.pop() if degrees else None

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        ring = self.ring
        chunks = []
        for key, coeff in sorted(self.terms.items(), key=lambda t: (ring.key_degree(t[0]), t[0])):
            name = ring.key_name(key)
            if not name:
                chunks.append(str(coeff))
            elif coeff == 1:
                chunks.append(name)
            elif coeff == -1:
                chunks.append(f"-{name}")
            else:
                chunks.append(f"{coeff}*{name}")
        return " + ".join(chunks).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"{self.__class__.__name__}({self})"


class PolyElement(GradedElement):
    """Element of a :class:`TruncatedPolynomialRing`, keyed by exponent tuples."""

    __slots__ = ()

    def __mul__(self, other):
        if not isinstance(other, PolyElement):
            return self.__rmul__(other)
        self._check(other)
        ring = self.ring
        key_degree, top = ring.key_degree, ring.truncation
        # the right factor's terms by degree, so each left term stops at the
        # first one that would pass the truncation
        right = [(key_degree(e2), e2, c2) for e2, c2 in other.terms.items()]
        right.sort()
        out: dict = {}
        for e1, c1 in self.terms.items():
            room = top - key_degree(e1)
            for d2, e2, c2 in right:
                if d2 > room:
                    break
                e = tuple(map(add, e1, e2))
                c = out.get(e, 0) + c1 * c2
                if c:
                    out[e] = c
                else:
                    del out[e]
        return self._new(ring, out)

    def coefficient(self, exponents: Iterable[int]) -> int:
        """The coefficient of a monomial, checked by ``ring.key``."""
        key = self.ring.key(tuple(exponents))
        return 0 if key is None else self.terms.get(key, 0)


class TruncatedPolynomialRing(GradedRing, _Record):
    """Integer polynomials in weighted generators, truncated above a degree.

    ``variables`` names the generators, ``degrees`` their (positive) weights.
    Monomials of weighted degree above ``truncation`` are dropped by every
    product.  ``top_integral`` optionally declares the intersection number of
    the top-degree monomial; it is only meaningful for one-generator rings
    (e.g. the hyperplane class ``h`` on a polarized threefold with
    ``h^3 = H^3``).
    """

    variables: tuple[str, ...]
    degrees: tuple[int, ...]
    truncation: int
    top_integral: int | None = None

    element = PolyElement

    def __post_init__(self):
        if len(self.variables) != len(self.degrees):
            raise ValueError("one degree per variable required")
        if any(d < 1 for d in self.degrees):
            raise ValueError("generator degrees must be positive")
        if self.truncation < 0:
            raise ValueError("truncation degree must be nonnegative")

    @property
    def unit_key(self) -> tuple[int, ...]:
        return (0,) * len(self.variables)

    def key_degree(self, exps: tuple[int, ...]) -> int:
        return sum(map(mul, exps, self.degrees))

    def key(self, exps) -> tuple[int, ...] | None:
        """A tuple of nonnegative ints, one per generator; ``None`` above the truncation."""
        width = len(self.variables)
        if type(exps) is not tuple or len(exps) != width or not all(
            type(x) is int and x >= 0 for x in exps
        ):
            raise ValueError(f"{exps!r} is not a tuple of {width} nonnegative int exponents")
        return exps if self.key_degree(exps) <= self.truncation else None

    def key_name(self, exps: tuple[int, ...]) -> str:
        parts = []
        for name, e in zip(self.variables, exps):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

    def gen(self, index: int = 0) -> PolyElement:
        exps = [0] * len(self.variables)
        exps[index] = 1
        return PolyElement(self, {tuple(exps): 1})

    @property
    def gens(self) -> tuple[PolyElement, ...]:
        return tuple(self.gen(i) for i in range(len(self.variables)))

    def integral(self, x: PolyElement) -> int:
        """Evaluate a top-degree class against the declared intersection number."""
        if self.top_integral is None:
            raise ValueError("ring has no declared intersection number")
        if len(self.variables) != 1 or self.degrees != (1,):
            raise ValueError("integral only supported on a single degree-1 generator")
        if not x:
            return 0
        if self.degree(x) != self.truncation:
            raise ValueError("integral requires a top-degree class")
        return x.coefficient((self.truncation,)) * self.top_integral


def line_ring(truncation: int, top_integral: int | None = None) -> TruncatedPolynomialRing:
    """Ring generated by one degree-1 class ``h`` with ``h**(truncation+1) = 0``,
    the hyperplane class of a projective space of dimension ``truncation``."""
    return TruncatedPolynomialRing(("h",), (1,), truncation, top_integral)
