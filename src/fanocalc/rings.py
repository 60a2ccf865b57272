"""Truncated graded coefficient rings with exact integer coefficients.

Characteristic-class computations need very little from their coefficient
ring: addition, multiplication, integer scaling, a grading, and a truncation
degree above which all products vanish.  ``GradedRing`` fixes that interface;
``TruncatedPolynomialRing`` is the workhorse instance (weighted polynomial
generators, products cut off above the truncation degree).  The Schubert ring
of a Grassmannian implements the same interface in ``schubert``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from math import comb
from typing import Iterable


class GradedRing(abc.ABC):
    """Commutative graded ring, truncated above degree ``truncation``.

    Elements support ``+``, ``-``, ``*`` (both ring product and scaling by
    Python ints), ``**`` with nonnegative integer exponents, ``==`` and
    truthiness (zero is falsy).
    """

    truncation: int

    @abc.abstractmethod
    def zero(self):
        """The zero element."""

    @abc.abstractmethod
    def one(self):
        """The multiplicative unit."""

    @abc.abstractmethod
    def degree(self, x):
        """Degree of a homogeneous element, ``None`` for zero.

        Raises ``ValueError`` on a mixed-degree element.
        """


def binomial_power(one, constant: int, rest, exponent: int):
    """``(constant * one + rest) ** exponent`` for ``rest`` of positive degree.

    In a truncated ring ``rest`` is nilpotent, so the binomial sum
    ``sum_i C(N, i) constant^(N-i) rest^i`` stops at the first vanishing
    power of ``rest``: at most one ring product per degree up to the
    truncation, whatever the exponent.
    """
    total = one * constant**exponent
    term = rest
    for i in range(1, exponent + 1):
        if not term:
            break
        total = total + comb(exponent, i) * constant ** (exponent - i) * term
        if i < exponent:
            term = term * rest
    return total


class PolyElement:
    """Element of a :class:`TruncatedPolynomialRing`.

    Stored as a map from exponent tuples to nonzero integers.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: "TruncatedPolynomialRing", terms: dict):
        self.ring = ring
        degrees = ring.degrees
        self.terms = {
            e: int(c)
            for e, c in terms.items()
            if c and sum(x * d for x, d in zip(e, degrees)) <= ring.truncation
        }

    def _check(self, other: "PolyElement") -> None:
        if self.ring != other.ring:
            raise ValueError("elements belong to different rings")

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolyElement)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    __hash__ = None

    def __neg__(self) -> "PolyElement":
        return PolyElement(self.ring, {e: -c for e, c in self.terms.items()})

    def __add__(self, other: "PolyElement") -> "PolyElement":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return PolyElement(self.ring, out)

    def __sub__(self, other: "PolyElement") -> "PolyElement":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return PolyElement(self.ring, {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, PolyElement):
            return NotImplemented
        self._check(other)
        ring = self.ring
        degs = ring.degrees
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                if sum(x * d for x, d in zip(e, degs)) > ring.truncation:
                    continue
                out[e] = out.get(e, 0) + c1 * c2
        return PolyElement(ring, out)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __pow__(self, exponent: int) -> "PolyElement":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        ring = self.ring
        origin = (0,) * len(ring.variables)
        constant = self.terms.get(origin, 0)
        if constant:
            rest = PolyElement(ring, {e: c for e, c in self.terms.items() if e != origin})
            return binomial_power(ring.one(), constant, rest, exponent)
        result = ring.one()
        for _ in range(exponent):
            result = result * self
            if not result:
                break
        return result

    def coefficient(self, exponents: Iterable[int]) -> int:
        return self.terms.get(tuple(exponents), 0)

    def _monomial_str(self, exps) -> str:
        parts = []
        for name, e in zip(self.ring.variables, exps):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        ring = self.ring
        keyed = sorted(
            self.terms.items(),
            key=lambda item: (sum(x * d for x, d in zip(item[0], ring.degrees)), item[0]),
        )
        chunks = []
        for exps, coeff in keyed:
            mono = self._monomial_str(exps)
            if not mono:
                chunks.append(str(coeff))
            elif coeff == 1:
                chunks.append(mono)
            elif coeff == -1:
                chunks.append(f"-{mono}")
            else:
                chunks.append(f"{coeff}*{mono}")
        text = " + ".join(chunks)
        return text.replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"PolyElement({self})"


@dataclass(frozen=True)
class TruncatedPolynomialRing(GradedRing):
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

    def __post_init__(self):
        if len(self.variables) != len(self.degrees):
            raise ValueError("one degree per variable required")
        if any(d < 1 for d in self.degrees):
            raise ValueError("generator degrees must be positive")
        if self.truncation < 0:
            raise ValueError("truncation degree must be nonnegative")

    def zero(self) -> PolyElement:
        return PolyElement(self, {})

    def one(self) -> PolyElement:
        return PolyElement(self, {(0,) * len(self.variables): 1})

    def gen(self, index: int = 0) -> PolyElement:
        exps = [0] * len(self.variables)
        exps[index] = 1
        if self.degrees[index] > self.truncation:
            return self.zero()
        return PolyElement(self, {tuple(exps): 1})

    @property
    def gens(self) -> tuple[PolyElement, ...]:
        return tuple(self.gen(i) for i in range(len(self.variables)))

    def degree(self, x: PolyElement):
        if not isinstance(x, PolyElement) or x.ring != self:
            raise ValueError("element does not belong to this ring")
        if not x.terms:
            return None
        degs = {sum(e * d for e, d in zip(exps, self.degrees)) for exps in x.terms}
        if len(degs) > 1:
            raise ValueError(f"element is not homogeneous: {x}")
        return degs.pop()

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


def line_ring(truncation: int, top_integral: int | None = None, name: str = "h") -> TruncatedPolynomialRing:
    """Ring generated by a single degree-1 class with ``name**(d+1) = 0``."""
    return TruncatedPolynomialRing((name,), (1,), truncation, top_integral)
