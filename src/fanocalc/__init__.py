"""Exact computations around Fano threefolds of Picard rank one.

Schubert calculus on Grassmannians, Chern classes of formal bundles by the
splitting principle, Riemann-Roch in dimensions two and three, weighted
projective combinatorics, the classification table, and the degree
certificates for finite morphisms onto Fano threefolds.  All arithmetic is
exact (arbitrary-precision integers and rationals).

Exports load on first use (PEP 562): ``import fanocalc`` imports no
submodule, and ``fanocalc.sigma``, ``from fanocalc import chern`` or
``from fanocalc import *`` import the modules they name, so a process pays
only for the modules it touches.
"""

import sys as _sys

# The exported names of each submodule; the submodules are exported too.
_EXPORTS = {
    "chern": """FormalBundle chern_class dual ext_power line_bundle sym_power top_chern
        trivial_bundle twist_line whitney_sum""",
    "degree_bound": """E_value RamificationVerdict SourceInvariants boundedness_verdict
        cotangent_twist degree_from_multiplier feasibility_witnesses feasible_multipliers
        generic_iso_exists max_multiplier noether_lefschetz_threshold quadric_degree_bound
        quadric_multiplier_bound ramification_feasibility source_invariants""",
    "fano_db": """FanoDatabase FanoRecord conic_normal_bundle_degrees default_database
        expected_line_family_dim line_normal_bundle_options load_database lookup validate""",
    "riemann_roch": """FanoNumericalInvariants SurfaceIntersectionData ThreefoldIntersectionData
        chi_surface chi_threefold derive_fano_invariants noether_surface_fano""",
    "rings": "GradedRing PolyElement TruncatedPolynomialRing line_ring",
    "schubert": """ChowElement GrassmannContext giambelli integrate multiply pieri sigma
        tautological_dual""",
    "wps": """HypersurfaceModel SingularStratum WeightVector canonical_degree cotangent_twist_lmin
        double_cover_model is_generated normalize singular_strata""",
}
# name -> the submodule that defines it
_HOME = {name: module for module, names in _EXPORTS.items() for name in (module, *names.split())}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, shows under -X importtime.
    __import__(f"{__name__}.{module}")
    value = _sys.modules[f"{__name__}.{module}"]
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
