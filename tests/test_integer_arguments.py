"""One integer rule for arguments: an exported function refuses a bool or a float
where it takes an integer, with a ``ValueError`` naming the argument."""

import pytest

from fanocalc.chern import chern_class, ext_power, line_bundle, sym_power, trivial_bundle
from fanocalc.degree_bound import (
    FeasibilityWitness,
    SourceInvariants,
    boundedness_verdict,
    degree_from_multiplier,
    feasibility_witnesses,
    feasible_multipliers,
    generic_iso_exists,
    max_multiplier,
    noether_lefschetz_threshold,
    ramification_feasibility,
)
from fanocalc.fano_db import (
    FanoRecord,
    expected_line_family_dim,
    line_normal_bundle_options,
    lookup,
)
from fanocalc.riemann_roch import derive_fano_invariants
from fanocalc.rings import TruncatedPolynomialRing, line_ring
from fanocalc.schubert import GrassmannContext, as_partition, pieri, sigma
from fanocalc.wps import SingularStratum, WeightVector, double_cover_model, is_generated

X = SourceInvariants(4, -1, 24, 56)
P3 = line_ring(3)
G25 = GrassmannContext(2, 5)
QUARTIC = lookup("V4-quartic")

# (call of the bad value, the name its refusal gives); the comments say what
# the call answered before the rule had one owner
CALLS = {
    "sym_power": (lambda v: sym_power(line_bundle(P3, P3.gen()), v), "power"),
    "ext_power": (lambda v: ext_power(trivial_bundle(P3, 2), v), "power"),
    "chern_class": (lambda v: chern_class(line_bundle(P3, P3.gen()), v), "Chern index"),
    "trivial_bundle": (lambda v: trivial_bundle(P3, v), "rank"),
    # max_multiplier on SourceInvariants(1.5, -1, 24, 56) died in isqrt with a TypeError
    "SourceInvariants": (lambda v: SourceInvariants(v, -1, 24, 56), "H3X"),
    "E_value-twist": (lambda v: boundedness_verdict(QUARTIC, v), "twist"),
    "max_multiplier": (lambda v: max_multiplier(X, QUARTIC, v), "twist"),
    "degree_from_multiplier": (lambda v: degree_from_multiplier(v, 4, 4), "multiplier"),
    # ramification_feasibility(1.0, 3, X) was bound=4.0
    "ramification-index": (lambda v: ramification_feasibility(v, 3, X), "target index"),
    "ramification-k": (lambda v: ramification_feasibility(1, v, X), "surface multiple k"),
    "witnesses-m": (lambda v: feasibility_witnesses(1, 1, True, v), "multiplier"),
    "witnesses-rX": (lambda v: feasibility_witnesses(v, 1, True, 1), "index"),
    "witnesses-rY": (lambda v: feasibility_witnesses(1, v, True, 1), "index"),
    "feasible-m": (lambda v: feasible_multipliers(1, 1, True, [v]), "multiplier"),
    "feasible-rY": (lambda v: feasible_multipliers(2, v, False, range(1, 4)), "index"),
    # noether_lefschetz_threshold(1.0) was 19.0
    "noether_lefschetz_threshold": (lambda v: noether_lefschetz_threshold(v), "kappa"),
    "line_normal_bundle_options": (lambda v: line_normal_bundle_options(v, True), "index"),
    # expected_line_family_dim(4.5, 3) was 3.0
    "expected_line_family_dim-n": (lambda v: expected_line_family_dim(v, 3), "n"),
    "expected_line_family_dim-d": (lambda v: expected_line_family_dim(4, v), "d"),
    # derive_fano_invariants(1.0, 4, 60) gave c2H=24.0
    "derive-r": (lambda v: derive_fano_invariants(v, 4, 60), "index"),
    "derive-H3": (lambda v: derive_fano_invariants(2, v, 60), "H3"),
    "derive-b3": (lambda v: derive_fano_invariants(2, 4, v), "b3"),
    "FanoRecord": (lambda v: FanoRecord("P3", v, 1, None, 0, True, 4), "index"),
    "line_ring": (lambda v: line_ring(v), "truncation"),
    # line_ring(3, top_integral=1.5) integrated h^3 to 1.5
    "line_ring-top_integral": (lambda v: line_ring(3, top_integral=v), "top_integral"),
    "generator-degree": (lambda v: TruncatedPolynomialRing(("a",), (v,), 3), "generator degree"),
    "coefficient": (lambda v: P3.gen().coefficient((v,)), "exponent"),
    # line_ring(3).gen(True) was h
    "gen": (lambda v: P3.gen(v), "generator index"),
    "GrassmannContext": (lambda v: GrassmannContext(2, v), "n"),
    # GrassmannContext(2, 4).partitions(2.0) listed the weight-2 classes
    "partitions": (lambda v: list(G25.partitions(v)), "weight"),
    "pieri": (lambda v: pieri(sigma(G25, 1), v), "Pieri index"),
    "sigma": (lambda v: sigma(G25, 2, v), "partition part"),
    "as_partition": (lambda v: as_partition((v, 0)), "partition part"),
    "WeightVector": (lambda v: WeightVector((1, v, 3)), "weight"),
    # is_generated((1, 2, 3), True) answered as m = 1
    "is_generated": (lambda v: is_generated((1, 2, 3), v), "twist"),
    "SingularStratum": (lambda v: SingularStratum(v, (0,)), "k"),
    # SingularStratum(2, (0.5,)) built a stratum with coordinate 0.5
    "SingularStratum-coords": (lambda v: SingularStratum(2, (0, v)), "coords entry"),
    "FeasibilityWitness-source": (
        lambda v: FeasibilityWitness("line", 1, (v, 1), (0, 0), (0, 0)), "source entry"),
    "FeasibilityWitness-target": (
        lambda v: FeasibilityWitness("line", 1, (0, 1), (0, 0), (0, v)), "target entry"),
    # generic_iso_exists((1.5, 0), (2, 0.5)) was True
    "generic_iso_exists-source": (lambda v: generic_iso_exists((v, 0), (2, 0)), "source degree"),
    "generic_iso_exists-target": (lambda v: generic_iso_exists((1, 0), (2, v)), "target degree"),
    # double_cover_model("P3", 1.5) blamed the weights
    "double_cover_model": (lambda v: double_cover_model("P3", v), "k"),
}


@pytest.mark.parametrize("bad", [True, 1.0, 2.5], ids=["True", "1.0", "2.5"])
@pytest.mark.parametrize("case", sorted(CALLS))
def test_an_integer_argument_refuses_a_bool_or_a_float(case, bad):
    call, name = CALLS[case]
    with pytest.raises(ValueError, match=f"^{name} must be an int, got {bad!r}$"):
        call(bad)


@pytest.mark.parametrize("bad", ["1", None], ids=["'1'", "None"])
@pytest.mark.parametrize("case", ["WeightVector", "generator-degree"])
def test_a_self_checked_entry_refuses_a_string_or_none(case, bad):
    # checked by the record's own __post_init__, not by the record base, so the
    # annotation sweep of test_records.py does not reach these two fields
    call, name = CALLS[case]
    with pytest.raises(ValueError, match=f"^{name} must be an int, got {bad!r}$"):
        call(bad)


@pytest.mark.parametrize(
    "call",
    [
        # each returned the very-ample table, and cotangent_twist of the record answered 2
        lambda v: line_normal_bundle_options(1, v),
        lambda v: feasible_multipliers(1, 1, v, range(1, 4)),
        lambda v: feasibility_witnesses(1, 2, v, 1),
        lambda v: FanoRecord("P3", 4, 1, None, 0, v, 4),
    ],
    ids=["line_normal_bundle_options", "feasible_multipliers", "feasibility_witnesses",
         "FanoRecord"],
)
@pytest.mark.parametrize("bad", ["false", 1, 0, None])
def test_very_ample_must_be_a_bool(call, bad):
    call(True)  # a cached table for True is not reused for an equal 1
    with pytest.raises(ValueError, match=f"^very_ample must be a bool, got {bad!r}$"):
        call(bad)
