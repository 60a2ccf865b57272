"""Truncated graded coefficient rings with exact integer coefficients.

Characteristic-class computations need very little from their coefficient
ring: addition, multiplication, integer scaling, a grading, and a truncation
degree above which all products vanish.  ``GradedRing`` fixes that interface
and ``GradedElement`` implements everything but the ring product once: an
element is a map from basis keys to nonzero integers, and the ring tells the
degree, the printed name and the rule of a key.  The terms never hold a
zero, a rule ``_accumulate`` owns: it adds a scaled term dict into a dict
in place and deletes a key that cancels.  Sums, binomial powers, Schubert
products and Chern substitution accumulate into one dict each and wrap it
once, uncopied, through ``GradedElement._new``.  Three loops, no sums of
scaled dicts, cancel on their own: the public constructor
``GradedElement(ring, terms)`` puts each key in canonical form,
``PolyElement.__mul__`` computes its keys and stops at the truncation, and
``schubert.pieri`` adds one coefficient to a tuple of strips.
``TruncatedPolynomialRing`` is the workhorse instance (weighted polynomial
generators, products cut off above the truncation degree); the
Grassmannian of ``schubert`` is the other one, its own Chow ring with
Schubert classes as keys.  A product over one generator, as in every
``line_ring``, goes by exponent: the keys add as integers and the
truncation bounds the exponent by ``truncation // weight``, so no key is
graded.  ``GradedRing.generator_weight`` says whether a ring is such a
ring, for this product and for the sums, twists and powers of
:mod:`fanocalc.chern`, which read its classes by exponent.

Two integer rules meet here.  An arithmetic operand (coefficient, scalar,
exponent) passes ``_integer``, ``operator.index`` with bools refused, whose
``TypeError`` lets ``__rmul__`` answer ``NotImplemented`` as the operator
protocol needs.  An argument or a record field (truncation, degrees, a key's
exponents) passes the package's rule, ``fanocalc._typed``: exactly an ``int``.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from math import comb
from operator import add, index, mul

from . import _Record, _typed


class GradedRing:
    """Commutative graded ring, truncated above degree ``truncation``.

    A ring names its element class (``element``) and the key of its unit
    (``unit_key``), and grades, prints and checks keys (``key_degree``,
    ``key_name``, ``key``: the canonical form, ``None`` for a key that is
    zero, or ``ValueError``); the keys other than the unit have positive degree.
    ``generator_weight`` is the weight of the ring's one generator when its
    keys are the exponent tuples ``(e,)`` of that generator, else ``None``:
    the one test by which products and Chern arithmetic go by exponent.
    """

    truncation: int
    generator_weight = None

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


def _accumulate(out: dict, terms: Mapping, scale: int = 1) -> dict:
    """Add ``scale`` (nonzero) times the zero-free ``terms`` into ``out`` in
    place, deleting a key whose coefficient cancels; return ``out``."""
    get = out.get
    for key, c in terms.items():
        c = get(key, 0) + scale * c
        if c:
            out[key] = c
        else:
            del out[key]
    return out


def _integer(x) -> int:
    """The operand rule: ``x`` through ``operator.index``, a bool refused."""
    if type(x) is bool:
        raise TypeError(f"expected an integer, got {x!r}")
    return index(x)


class GradedElement:
    """Integer combination of the basis keys of a :class:`GradedRing`.

    Elements support ``+``, ``-``, ``*`` (the ring product, which each
    subclass defines, and scaling by integers), ``**`` with nonnegative
    integer exponents, ``==`` and truthiness (zero is falsy).  Coefficients,
    scalars and exponents pass ``_integer``.

    ``terms`` never holds a zero coefficient, so equality is equality of
    dicts.  ``ring.element(ring, terms)`` is the one public constructor
    (``ring.key`` per key, ``_integer`` per coefficient, equal keys
    added, a cancelled key deleted); ``_new`` is the one trusted constructor,
    which wraps a zero-free dict of valid keys without copying it, and
    ``_accumulate`` sums scaled term dicts.  ``+`` and ``-`` refuse an
    operand that is not an element with ``TypeError``.
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
        if not isinstance(other, GradedElement):
            return NotImplemented
        self._check(other)
        return self._new(self.ring, _accumulate(dict(self.terms), other.terms))

    def __sub__(self, other: "GradedElement") -> "GradedElement":
        return self + (-other) if isinstance(other, GradedElement) else NotImplemented

    def __rmul__(self, other):
        """``n * x`` for an integer ``n``; the product of two elements is
        each subclass's ``__mul__``, which sends a scalar here."""
        try:
            n = _integer(other)
        except TypeError:
            return NotImplemented
        return self._new(self.ring, {key: c * n for key, c in self.terms.items()} if n else {})

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
        unit = ring.unit_key
        constant = self.terms.get(unit, 0)
        if constant:
            rest = term = self._new(ring, {k: c for k, c in self.terms.items() if k != unit})
            out = {unit: constant**exponent}
            for i in range(1, exponent + 1):
                if not term:
                    break
                _accumulate(out, term.terms, comb(exponent, i) * constant ** (exponent - i))
                if i < exponent:
                    term = term * rest
            return self._new(ring, out)
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
        weight = ring.generator_weight
        if weight:
            top = ring.truncation // weight
            return self._new(ring, _exponent_product(self.terms, other.terms, top))
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


def _exponent_product(left: dict, right: dict, top: int) -> dict:
    """The product of two term dicts over one generator, exponents above
    ``top`` dropped: a key's degree is its exponent times the generator's
    weight, so the exponents alone decide the truncation and the key, and
    no key is graded.  In :mod:`fanocalc.chern` only a Whitney sum calls it,
    once, on its two total classes; twists and the Chern classes of
    symmetric and exterior powers over such a ring run on integers and take
    no product (``chern._line_twist``, ``chern._root_power_classes``)."""
    # the right factor by exponent, so each left term stops at the first
    # one that would pass the truncation
    right = sorted((e2, c2) for (e2,), c2 in right.items())
    out: dict = {}
    get = out.get
    for (e1,), c1 in left.items():
        room = top - e1
        for e2, c2 in right:
            if e2 > room:
                break
            key = (e1 + e2,)
            c = get(key, 0) + c1 * c2
            if c:
                out[key] = c
            else:
                del out[key]
    return out


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
    degrees: tuple  # of ints: __post_init__ checks them
    truncation: int
    top_integral: int | None = None

    element = PolyElement

    def __post_init__(self):
        if len(self.variables) != len(self.degrees):
            raise ValueError("one degree per variable required")
        if any(_typed(d, "generator degree") < 1 for d in self.degrees):
            raise ValueError("generator degrees must be positive")
        if self.truncation < 0:
            raise ValueError("truncation degree must be nonnegative")
        _typed(self.degrees, "degrees", tuple)

    @property
    def unit_key(self) -> tuple[int, ...]:
        return (0,) * len(self.variables)

    @property
    def generator_weight(self) -> int | None:
        degrees = self.degrees
        return degrees[0] if len(degrees) == 1 else None

    def key_degree(self, exps: tuple[int, ...]) -> int:
        return sum(map(mul, exps, self.degrees))

    def key(self, exps) -> tuple[int, ...] | None:
        """A tuple of nonnegative ints, one per generator; ``None`` above the truncation."""
        width = len(self.variables)
        if type(exps) is not tuple or len(exps) != width or not all(
            _typed(x, "exponent") >= 0 for x in exps
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
        exps[_typed(index, "generator index")] = 1
        return PolyElement(self, {tuple(exps): 1})

    @property
    def gens(self) -> tuple[PolyElement, ...]:
        return tuple(self.gen(i) for i in range(len(self.variables)))

    def integral(self, x: PolyElement) -> int:
        """Evaluate a top-degree class against the declared intersection number."""
        if self.top_integral is None:
            raise ValueError("ring has no declared intersection number")
        if self.generator_weight != 1:
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
