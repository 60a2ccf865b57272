"""The frozen-record base of fanocalc's value types (``fanocalc._Record``)."""

from __future__ import annotations

import pickle
import re

import pytest

from fanocalc import _Record
from fanocalc.chern import FormalBundle, _bundle, line_bundle
from fanocalc.cli import CommandResult, _plain
from fanocalc.degree_bound import (
    FeasibilityWitness,
    RamificationVerdict,
    SourceInvariants,
    feasibility_witnesses,
)
from fanocalc.fano_db import FanoRecord, default_database
from fanocalc.riemann_roch import (
    SurfaceIntersectionData,
    ThreefoldIntersectionData,
    derive_fano_invariants,
    noether_surface_fano,
)
from fanocalc.rings import TruncatedPolynomialRing, line_ring
from fanocalc.schubert import GrassmannContext, tautological_dual
from fanocalc.wps import SingularStratum, WeightVector, double_cover_model


def test_assignment_and_deletion_raise():
    w = WeightVector((1, 2, 3))
    with pytest.raises(AttributeError):
        w.weights = (1, 1)
    with pytest.raises(AttributeError):
        w.other = 1
    with pytest.raises(AttributeError):
        del w.weights
    assert w.weights == (1, 2, 3) and not hasattr(w, "other")


def test_equality_and_hash_go_by_fields():
    assert GrassmannContext(2, 4) == GrassmannContext(2, 4)
    assert GrassmannContext(2, 4) != GrassmannContext(2, 5)
    assert hash(GrassmannContext(2, 4)) == hash(GrassmannContext(2, 4)) == hash((2, 4))
    assert len({line_ring(3), line_ring(3), line_ring(4)}) == 2


def test_equality_holds_only_within_one_class():
    # same field names and values, different classes
    assert SingularStratum(2, (0, 1)) != _stratum_lookalike(2, (0, 1))
    assert GrassmannContext(2, 4) != (2, 4)
    assert RamificationVerdict("bound", 2) != FeasibilityWitness("bound", 2, (0, 0), (0, 0), (0, 0))


def _stratum_lookalike(k, coords):
    class Lookalike(_Record):
        k: int
        coords: tuple

    return Lookalike(k, coords)


def test_kernel_bundle_equals_validated_bundle():
    ring = line_ring(3)
    h = ring.gen()
    checked = FormalBundle(ring, 2, (3 * h, 2 * h**2, ring.zero()))
    kernel = _bundle(ring, 2, [3 * h, 2 * h**2, ring.zero()])
    assert kernel == checked and kernel.__dict__ == checked.__dict__
    assert kernel.chern == (3 * h, 2 * h**2)
    with pytest.raises(AttributeError):
        kernel.rank = 3


def test_repr_is_name_and_fields():
    assert repr(WeightVector((1, 2, 3))) == "WeightVector(weights=(1, 2, 3))"
    assert repr(RamificationVerdict("bound")) == "RamificationVerdict(kind='bound', bound=None)"


def test_arguments_bind_positionally_or_by_name():
    assert FeasibilityWitness("line", 1, (0, 0), (1, -1), (2, -2)) == FeasibilityWitness(
        target=(2, -2), target_type=(1, -1), source=(0, 0), h=1, component="line"
    )
    with pytest.raises(TypeError):
        RamificationVerdict()  # missing
    with pytest.raises(TypeError):
        RamificationVerdict("bound", limit=3)  # unknown
    with pytest.raises(TypeError):
        RamificationVerdict("bound", kind="bound")  # duplicated
    with pytest.raises(TypeError):
        RamificationVerdict("bound", 1, 2)  # too many


def test_defaults_apply():
    assert RamificationVerdict("always_ok").bound is None
    assert line_ring(3).top_integral is None
    record = FanoRecord("P3", 4, 1, None, 0, True, 4)
    assert record.facts == {} and record.description == ""


def test_post_init_still_normalizes_and_validates():
    # two plain ``tuple`` fields, left by the base to their __post_init__:
    # WeightVector takes any iterable of weights, while TruncatedPolynomialRing
    # refuses a list of degrees rather than storing it
    assert WeightVector([1, 2]).weights == (1, 2)
    with pytest.raises(ValueError, match=r"^degrees must be a tuple, got \[1\]$"):
        TruncatedPolynomialRing(("a",), [1], 3)
    with pytest.raises(ValueError):
        GrassmannContext(4, 4)


def test_no_shared_mutable_defaults():
    first, second = CommandResult("a", "ok"), CommandResult("b", "ok")
    assert first.inputs == {} and first.provenance == []
    assert first.inputs is not second.inputs and first.provenance is not second.provenance
    with pytest.raises(TypeError, match="mutable default"):

        class Shared(_Record):
            items: list = []


def test_field_without_default_after_one_with_is_refused():
    with pytest.raises(TypeError):

        class Misordered(_Record):
            a: int = 0
            b: int


def test_records_serialize_and_pickle_by_fields():
    verdict = RamificationVerdict("bound", 2)
    assert _plain(verdict) == {"kind": "bound", "bound": 2}
    assert _plain([SingularStratum(2, (0, 1))]) == [{"k": 2, "coords": [0, 1], "dimension": 1}]
    # a value with no form of its own, here a float, passes through unchanged
    assert _plain({"ratio": (0.5,)}) == {"ratio": [0.5]}
    assert pickle.loads(pickle.dumps(GrassmannContext(3, 6))) == GrassmannContext(3, 6)


def _record_classes(cls=_Record) -> set[type]:
    """Every record class of the package, at any depth below ``_Record``."""
    found = set()
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("fanocalc"):
            found.add(sub)
        found |= _record_classes(sub)
    return found


def _samples() -> list:
    """Instances of every record class, each class at least once."""
    ring = line_ring(3, 4)
    return [
        *default_database().records(),
        CommandResult("db list", "ok", {"db": None}, [1, 2], ["table"]),
        SurfaceIntersectionData(1, -3, 9, 3),
        ThreefoldIntersectionData(1, -4, 16, 6, 24),
        noether_surface_fano(),
        derive_fano_invariants(1, 4, 60),
        SourceInvariants(4, -1, 24, 56),
        RamificationVerdict("bound", 2),
        *feasibility_witnesses(1, 1, True, 1),
        line_bundle(ring, 2 * ring.gen()),
        tautological_dual(GrassmannContext(2, 5)),
        ring,
        GrassmannContext(3, 6),
        WeightVector((1, 1, 1, 2, 3)),
        SingularStratum(2, (0, 1)),
        double_cover_model("veronese-cone", 3),
    ]


def test_every_record_survives_a_pickle_round_trip():
    samples = _samples()
    assert {type(sample) for sample in samples} == _record_classes()
    assert len(default_database().records()) == 19
    for sample in samples:
        assert pickle.loads(pickle.dumps(sample)) == sample, sample
    facts = default_database().lookup("A1")
    assert pickle.loads(pickle.dumps(facts)).ambient == WeightVector((1, 1, 1, 2, 3))


# The values each checked annotation refuses; ``None`` passes only ``int | None``.
REFUSED = {
    "int": (True, 1.0, "1", None),
    "int | None": (True, 1.0, "1"),
    "bool": (1, "false", None),
}
# A tuple field refuses each of these as its last entry.
REFUSED_ENTRIES = (True, 0.5, "1", None)
TUPLE_KINDS = ("tuple[int, ...]", "tuple[int, int]")


def _checked_fields(cls) -> list[tuple[str, str]]:
    """The fields of ``cls`` whose annotation the record base enforces, with it."""
    annotations = vars(cls)["__annotations__"]
    kinds = [(name, str(annotations[name])) for name in cls._fields]
    return [(name, kind) for name, kind in kinds if kind in REFUSED or kind in TUPLE_KINDS]


def _refuses_tuple_entries(cls, fields: dict, name: str, kind: str) -> None:
    value = fields[name]
    for bad in REFUSED_ENTRIES:
        # refused by the record base, before any __post_init__ reads it
        with pytest.raises(ValueError, match=f"^{name} entry must be an int, got "
                                             f"{re.escape(repr(bad))}$"):
            cls(**{**fields, name: value[:-1] + (bad,)})
    with pytest.raises(ValueError, match=f"^{name} must be a tuple, got "
                                         f"{re.escape(repr(list(value)))}$"):
        cls(**{**fields, name: list(value)})
    if kind == "tuple[int, int]":
        with pytest.raises(ValueError, match=f"^{name} must hold 2 ints, got "):
            cls(**{**fields, name: value + (0,)})


@pytest.mark.parametrize("cls", sorted(_record_classes(), key=lambda cls: cls.__qualname__),
                         ids=lambda cls: cls.__qualname__)
def test_every_int_and_bool_field_refuses_other_types(cls):
    # 31 of the 35 int fields once took a float, a bool or a string, and
    # FanoRecord(..., very_ample="false") stored the string; SingularStratum(2, (0.5,))
    # and FeasibilityWitness(source=(0.5, 1), ...) built
    examples = {type(sample): sample for sample in _samples()}
    assert cls in examples, f"{cls.__qualname__} has no example in _samples"
    fields = {name: getattr(examples[cls], name) for name in cls._fields}
    assert cls(**fields) == examples[cls]
    for name, kind in _checked_fields(cls):
        if kind in TUPLE_KINDS:
            _refuses_tuple_entries(cls, fields, name, kind)
            continue
        expected = kind.split()[0]
        for bad in REFUSED[kind]:
            message = f"^{name} must be an? {expected}, got {re.escape(repr(bad))}$"
            with pytest.raises(ValueError, match=message):
                cls(**{**fields, name: bad})
        if kind == "int | None":
            assert getattr(cls(**{**fields, name: None}), name) is None


def test_evaluated_annotations_are_checked_too():
    namespace = {"_Record": _Record}
    exec("class Evaluated(_Record):\n    n: int\n    m: int | None = None\n    b: bool = False\n"
         "    t: tuple[int, ...] = ()\n    p: tuple[int, int] = (0, 0)", namespace)
    Evaluated = namespace["Evaluated"]
    assert Evaluated(1, None, True).m is None
    assert Evaluated(1, None, True, (1, 2, 3), (4, 5)).t == (1, 2, 3)
    for args, name in (((1.0,), "n"), ((1, 2.0), "m"), ((1, 2, 1), "b"),
                       ((1, 2, True, (1, 0.5)), "t entry"), ((1, 2, True, [1]), "t"),
                       ((1, 2, True, (), (1, 2, 3)), "p")):
        with pytest.raises(ValueError, match=f"^{name} must"):
            Evaluated(*args)


def test_fields_are_checked_before_post_init_runs():
    ran = []

    class Checked(_Record):
        t: tuple[int, ...]

        def __post_init__(self):
            ran.append(self.t)

    assert Checked((1, 2)).t == (1, 2) and ran == [(1, 2)]
    with pytest.raises(ValueError, match=r"^t entry must be an int, got 0\.5$"):
        Checked((1, 0.5))
    assert ran == [(1, 2)]
