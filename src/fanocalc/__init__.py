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


class _Record:
    """Base of the package's immutable records, in place of a frozen dataclass:
    importing ``dataclasses`` (with ``inspect``) and decorating each class
    cost a process more time than most commands compute.

    A subclass's fields are its own annotations, in order, and a class
    attribute of a field's name is its default; a ``list``, ``dict`` or
    ``set`` default, which every instance would share, is refused.  Each
    subclass gets one compiled ``__init__``, binding the fields positionally
    or by name and then calling ``__post_init__`` if the class has one, and
    a ``__hash__`` of the fields in order.  Instances refuse assignment and
    deletion (a ``__post_init__`` that normalizes a field writes it with
    ``object.__setattr__``), ``==`` compares the fields of two instances of
    one class, and ``repr`` is ``Name(field=value, ...)``.
    """

    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        namespace = vars(cls)
        fields = tuple(namespace.get("__annotations__", ()))
        defaults = []
        for name in fields:
            if name in namespace:
                default = namespace[name]
                if isinstance(default, (list, dict, set)):
                    raise TypeError(f"{cls.__name__}.{name}: mutable default {default!r}")
                defaults.append(default)
            elif defaults:
                raise TypeError(f"{cls.__name__}.{name}: field without a default after one with")
        body = [f"    d[{name!r}] = {name}" for name in fields]
        if hasattr(cls, "__post_init__"):
            body.append("    self.__post_init__()")
        source = (
            f"def __init__(self, {', '.join(fields)}):\n    d = self.__dict__\n"
            + "\n".join(body)
            + "\ndef __hash__(self):\n    return hash(("
            + "".join(f"self.{name}, " for name in fields)
            + "))\n"
        )
        made: dict = {}
        exec(source, {}, made)
        made["__init__"].__defaults__ = tuple(defaults)
        for method in made.values():
            method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
            setattr(cls, method.__name__, method)
        cls._fields = fields

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
