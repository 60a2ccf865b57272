"""The classification table of Fano threefolds with cyclic Picard group.

Immutable records of numerical invariants (index, degree, genus, b3, very
ampleness of the fundamental class, h^0) plus tabulated geometric facts, each
typed fact parsed once when its record is built; normal-bundle options for
lines and conics.  The data ships as a line-oriented tab-separated text
table so corrections stay diffable.  The loader refuses a table with a
duplicate name or a record that ``validate`` faults: index or degree outside
the classification, a genus other than H^3/2 + 1 in index 1 (any genus in
another index), h^0(H) other than chi(O(H)) by Riemann-Roch, an odd or
negative b3, an ambient of fewer than five weights or not well-formed, a
negative count of lines through a general point, or a special-surface
multiple below 1.
"""

from __future__ import annotations

import os
from collections.abc import Mapping
from functools import lru_cache
from math import gcd
from types import MappingProxyType

from . import _Record, _ints, _typed
from .wps import WeightVector


class FanoRecord(_Record):
    """One family of the classification.  The typed facts are read once, into
    attributes that are not fields (``None`` when absent): ``ambient``, the
    weighted model of a non-very-ample family; ``lines_through_general_point``;
    ``special_surface_multiple``, k with D ~ kH for the surface swept by lines
    with a negative factor; ``hilbert_scheme_notes``.  A malformed one refuses
    the record."""

    name: str
    index: int
    H3: int
    genus: int | None
    b3: int | None
    very_ample: bool
    h0_H: int
    facts: Mapping[str, str] = MappingProxyType({})
    description: str = ""

    def __post_init__(self):
        d = self.__dict__
        facts = d["facts"] = MappingProxyType(dict(self.facts))
        ambient = facts.get("ambient")
        d["ambient"] = None if ambient is None else WeightVector(
            _ints(ambient, "fact ambient", sep=":"))
        for key in ("lines_through_general_point", "special_surface_multiple"):
            value = facts.get(key)
            d[key] = None if value is None else _int(value, f"fact {key}")
        d["hilbert_scheme_notes"] = facts.get("hilbert_scheme_notes")


def _int(text: str, source: str) -> int:
    """The one integer of a column or a fact, named by ``source`` when malformed."""
    values = _ints(text, source)
    if len(values) != 1:
        raise ValueError(f"{source} expects one integer, got {text!r}")
    return values[0]


def validate(record: FanoRecord) -> list[str]:
    """All classification constraints the record violates (empty when valid)."""
    out: list[str] = []
    r = record.index
    if r not in (1, 2, 3, 4):
        out.append(f"index {r} outside 1..4")
        return out
    if r == 4 and (record.name != "P3" or record.H3 != 1):
        out.append("index 4 forces P3 with H^3 = 1")
    if r == 3 and (record.name != "Q3" or record.H3 != 2):
        out.append("index 3 forces the quadric Q3 with H^3 = 2")
    if r == 2:
        if not 1 <= record.H3 <= 5:
            out.append(f"index-2 degree {record.H3} outside 1..5")
        if record.very_ample != (record.H3 >= 3):
            out.append("index 2: H is very ample exactly when H^3 >= 3")
    if r == 1:
        if record.H3 % 2:
            out.append("index-1 degree (-K)^3 must be even")
        elif not 2 <= record.H3 <= 22 or record.H3 == 20:
            out.append(f"index-1 degree {record.H3} outside the even values 2..22 minus 20")
    # In index 1, H = -K and H^3 = 2g - 2 defines the genus; an odd H^3 defines
    # none, and the degree violation above says why.
    genus = record.H3 // 2 + 1 if r == 1 else None
    if record.genus != genus and not (r == 1 and record.H3 % 2):
        out.append(f"genus {record.genus} is not {genus} (H^3/2 + 1 in index 1, None otherwise)")
    # h0(H) = chi(O(H)): H - K = (r + 1)H is ample, so Kodaira kills the higher
    # cohomology.  Riemann-Roch with c1 = rH, c2.H = 24/r (c1.c2 = 24) and chi(O) = 1:
    #   chi(O(H)) = H^3/6 + rH^3/4 + (r^2 H^3 + 24/r)/12 + 1 = (r+1)(r+2)H^3/12 + 2/r + 1,
    # that is 12r chi(O(H)) = r(r+1)(r+2)H^3 + 12(r+2), an identity in integers.
    chi_12r = r * (r + 1) * (r + 2) * record.H3 + 12 * (r + 2)
    if 12 * r * record.h0_H != chi_12r:
        g = gcd(chi_12r, 12 * r)
        chi = chi_12r // g if g == 12 * r else f"{chi_12r // g}/{12 * r // g}"
        out.append(f"h0(H) = {record.h0_H} is not chi(O(H)) = {chi}")
    if record.b3 is not None and (record.b3 < 0 or record.b3 % 2):
        out.append(f"b3 = {record.b3} must be a nonnegative even integer")
    ambient = record.ambient
    # A weighted model is a hypersurface in a weighted P^4 or a complete
    # intersection in a larger weighted space, so it has five weights at least.
    if ambient is not None and ambient.n < 4:
        out.append(f"ambient {ambient} has {ambient.n + 1} weights, fewer than the 5 of a P^4")
    if ambient is not None and not ambient.is_well_formed():
        out.append(f"ambient {ambient} is not well-formed")
    if (record.lines_through_general_point or 0) < 0:
        out.append(f"negative count {record.lines_through_general_point} of lines through a point")
    if record.special_surface_multiple is not None and record.special_surface_multiple < 1:
        out.append(f"special surface multiple {record.special_surface_multiple} below 1")
    return out


def _parse_facts(text: str) -> dict[str, str]:
    if text == "-" or not text:
        return {}
    facts = {}
    for pair in text.split(","):
        key, _, value = pair.partition("=")
        if not _ or not key:
            raise ValueError(f"malformed facts entry {pair!r}")
        facts[key.strip()] = value.strip()
    return facts


def _parse_record(cols: list[str]) -> FanoRecord:
    if len(cols) != 9:
        raise ValueError(f"expected 9 tab-separated columns, got {len(cols)}")
    name, r, h3, genus, b3, va, h0, facts, description = cols
    if va not in ("true", "false"):
        raise ValueError(f"very_ample must be true/false, got {va!r}")
    return FanoRecord(
        name=name, index=_int(r, "index"), H3=_int(h3, "H3"),
        genus=None if genus == "-" else _int(genus, "genus"),
        b3=None if b3 == "-" else _int(b3, "b3"),
        very_ample=va == "true", h0_H=_int(h0, "h0_H"),
        facts=_parse_facts(facts), description=description,
    )


def parse_table(text: str) -> list[FanoRecord]:
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.strip() and not line.lstrip().startswith("#"):
            try:
                records.append(_parse_record(line.split("\t")))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
    return records


class UnknownFamily(KeyError, ValueError):
    """A family name the table lacks: a ``KeyError`` as for any missing key,
    and a ``ValueError`` as every refused input is."""


class FanoDatabase:
    """Validated, immutable collection of classification records."""

    def __init__(self, records: list[FanoRecord]):
        problems = []
        seen: dict[str, FanoRecord] = {}
        for rec in records:
            if rec.name in seen:
                problems.append(f"{rec.name}: duplicate record")
            for message in validate(rec):
                problems.append(f"{rec.name}: {message}")
            seen[rec.name] = rec
        if problems:
            raise ValueError("invalid classification table:\n" + "\n".join(problems))
        self._records = seen

    def names(self) -> list[str]:
        return list(self._records)

    def lookup(self, name: str) -> FanoRecord:
        try:
            return self._records[name]
        except KeyError:
            known = ", ".join(self._records)
            raise UnknownFamily(f"unknown Fano family {name!r}; known: {known}") from None

    def records(self) -> list[FanoRecord]:
        return list(self._records.values())


def load_database(path: str | os.PathLike | None = None) -> FanoDatabase:
    """Load a classification table; defaults to the packaged one."""
    if path is None:
        path = os.path.join(os.path.dirname(__file__), "data", "fano_threefolds.tsv")
    with open(path, encoding="utf-8") as table:
        return FanoDatabase(parse_table(table.read()))


@lru_cache(maxsize=1)
def default_database() -> FanoDatabase:
    return load_database()


def lookup(name: str) -> FanoRecord:
    return default_database().lookup(name)


def line_normal_bundle_options(r: int, very_ample: bool) -> frozenset[tuple[int, int]]:
    """Possible splitting types O(a) + O(b) of the normal bundle of a line.

    Adjunction forces ``a + b = r - 2``, so ``a >= 0`` for ``a >= b``.  With
    H very ample the normal bundle embeds in O(1)^(N-1), so ``a <= 1``.
    Without very ampleness one more splitting type occurs in the known
    families (finitely many (2,-2) lines in the index-2 degree-2 family); the
    index-1 analogue (2,-3) is included by the same extrapolation.
    """
    if _typed(r, "index") not in (1, 2):
        raise ValueError(f"normal-bundle table only covers index 1 and 2, got {r}")
    top = 2 if _typed(very_ample, "very_ample", bool) else 3
    return frozenset((a, r - 2 - a) for a in range(top))


def conic_normal_bundle_degrees() -> frozenset[tuple[int, int]]:
    """Splitting types (a, -a) of the normal bundle of a smooth conic on an
    anticanonically embedded index-1 Fano threefold: a in {0, 1, 2, 4}."""
    return frozenset((a, -a) for a in (0, 1, 2, 4))


CONIC_OPTION_NOTES: Mapping[int, str] = MappingProxyType(
    {
        0: "the general conic; conics sweep out the threefold",
        4: "occurs only on a quartic, with the plane of the conic tangent along it",
    }
)


def expected_line_family_dim(n: int, d: int) -> int:
    """Expected dimension of the family of lines on a degree-d hypersurface
    in projective n-space: ``dim G(1,n) - h^0(O_P1(d)) = 2(n-1) - (d+1)``."""
    if _typed(n, "n") < 2:
        raise ValueError("ambient projective space must have dimension >= 2")
    if _typed(d, "d") < 1:
        raise ValueError("hypersurface degree must be positive")
    return 2 * (n - 1) - (d + 1)
