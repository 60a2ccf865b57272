"""The frozen-record base of fanocalc's value types (``fanocalc._Record``)."""

from __future__ import annotations

import pickle

import pytest

from fanocalc import _Record
from fanocalc.chern import FormalBundle, _bundle
from fanocalc.cli import CommandResult, _plain
from fanocalc.degree_bound import FeasibilityWitness, RamificationVerdict
from fanocalc.fano_db import FanoRecord
from fanocalc.rings import line_ring
from fanocalc.schubert import GrassmannContext
from fanocalc.wps import SingularStratum, WeightVector


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
    assert WeightVector([1, 2]).weights == (1, 2)
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
    assert pickle.loads(pickle.dumps(GrassmannContext(3, 6))) == GrassmannContext(3, 6)
