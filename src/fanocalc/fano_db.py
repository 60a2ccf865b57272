"""The classification table of Fano threefolds with cyclic Picard group.

Immutable records of numerical invariants (index, degree, genus, b3, very
ampleness of the fundamental class, h^0) plus tabulated geometric facts:
normal-bundle options for lines and conics, counts of lines through a
general point, and the multiple of H swept out by special lines.  The data
ships as a line-oriented tab-separated text table so corrections stay
diffable; the loader refuses tables containing an invalid record.
"""

from __future__ import annotations

import os
from collections.abc import Mapping
from functools import lru_cache
from types import MappingProxyType

from . import _Record
from .wps import WeightVector

FAMILY_NAMES = (
    "P3",
    "Q3",
    "A1",
    "A2",
    "A3",
    "A4",
    "A5",
    "V2",
    "V4-quartic",
    "V4-double-quadric",
    "V6",
    "V8",
    "V10",
    "V12",
    "V14",
    "V16",
    "V18",
    "V22",
    "V22-mu",
)


class FanoRecord(_Record):
    """One family of the classification."""

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
        object.__setattr__(self, "facts", MappingProxyType(dict(self.facts)))

    def _int_fact(self, key: str) -> int | None:
        value = self.facts.get(key)
        return int(value) if value is not None else None

    @property
    def lines_through_general_point(self) -> int | None:
        return self._int_fact("lines_through_general_point")

    @property
    def special_surface_multiple(self) -> int | None:
        """k with D ~ kH for the surface swept by lines with a negative factor."""
        return self._int_fact("special_surface_multiple")

    @property
    def hilbert_scheme_notes(self) -> str | None:
        return self.facts.get("hilbert_scheme_notes")

    @property
    def ambient(self) -> WeightVector | None:
        """Weighted ambient space of the model, for non-very-ample families."""
        value = self.facts.get("ambient")
        if value is None:
            return None
        return WeightVector(tuple(int(x) for x in value.split(":")))


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
        if record.h0_H != record.H3 + 2:
            out.append(f"index 2 needs h0(H) = H^3 + 2, got {record.h0_H}")
    if r == 1:
        if record.H3 % 2:
            out.append("index-1 degree (-K)^3 must be even")
        elif not 2 <= record.H3 <= 22 or record.H3 == 20:
            out.append(f"index-1 degree {record.H3} outside the even values 2..22 minus 20")
        if record.genus is None:
            out.append("index-1 record needs a genus")
        else:
            if record.H3 != 2 * record.genus - 2:
                out.append(f"genus {record.genus} inconsistent with H^3 = 2g - 2")
            if record.h0_H != record.genus + 2:
                out.append(f"index 1 needs h0(H) = g + 2, got {record.h0_H}")
    elif record.genus is not None:
        out.append("genus is only defined for index-1 records")
    if record.b3 is not None and (record.b3 < 0 or record.b3 % 2):
        out.append(f"b3 = {record.b3} must be a nonnegative even integer")
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


def _parse_optional_int(text: str) -> int | None:
    return None if text == "-" else int(text)


def parse_table(text: str) -> list[FanoRecord]:
    records = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) != 9:
            raise ValueError(f"line {lineno}: expected 9 tab-separated columns, got {len(cols)}")
        name, r, h3, genus, b3, va, h0, facts, description = cols
        if va not in ("true", "false"):
            raise ValueError(f"line {lineno}: very_ample must be true/false, got {va!r}")
        records.append(
            FanoRecord(
                name=name,
                index=int(r),
                H3=int(h3),
                genus=_parse_optional_int(genus),
                b3=_parse_optional_int(b3),
                very_ample=va == "true",
                h0_H=int(h0),
                facts=_parse_facts(facts),
                description=description,
            )
        )
    return records


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
            raise KeyError(f"unknown Fano family {name!r}; known: {known}") from None

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

    Adjunction forces ``a + b = r - 2``.  With H very ample the normal
    bundle embeds in O(1)^(N-1), so ``a <= 1``.  Without very ampleness one
    more splitting type occurs in the known families (finitely many (2,-2)
    lines in the index-2 degree-2 family); the index-1 analogue (2,-3) is
    included by the same extrapolation.
    """
    if r not in (1, 2):
        raise ValueError(f"normal-bundle table only covers index 1 and 2, got {r}")
    if r == 2:
        options = {(0, 0), (1, -1)}
        if not very_ample:
            options.add((2, -2))
    else:
        options = {(0, -1), (1, -2)}
        if not very_ample:
            options.add((2, -3))
    return frozenset(options)


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
    if n < 2:
        raise ValueError("ambient projective space must have dimension >= 2")
    if d < 1:
        raise ValueError("hypersurface degree must be positive")
    return 2 * (n - 1) - (d + 1)
