"""Batch command-line front end.

Every operation of the library is one row of the command table
``COMMANDS``, which maps ``"group op"`` to ``(handler, flags)``.  A handler
takes the parsed arguments and returns ``(result, provenance)``; the flags
are ``(names, add_argument keywords)`` pairs, and flags shared by several
commands (``GR``, ``BUNDLE``, ``TARGET``, ``VERY_AMPLE``) are declared once.
Very-ampleness is the default, so its one flag is ``--not-very-ample``.
``run`` passes every result through ``_plain``, the one serializer.

The grammar is ``fanocalc [--json] [--db PATH] [-h] GROUP OP [ARGS]``, read
level by level with nothing built in advance (no parser per group or op):
a process looks at the table row of its own op only.  Flags
match by exact name (``--name value`` or ``--name=value``; a negative number
is a value; the last repeat wins; ``--`` ends the flags), and every dest of
the op is in ``inputs``, at its default when unset.  Importing this module
loads no library module: handlers reach the library through the lazy
package namespace (``fc.multiply``), which imports a module on first use,
and ``_plain`` recognizes result types only from modules already loaded.

``--json`` switches the output to a single-line machine-readable document
with fields ``{command, status, inputs, result, provenance}``, or
``{command, status, message}`` on an error; usage errors print such a
document too.  ``--json`` and ``--db`` count only before GROUP; after it
they are words like any other.  Exit codes: 0 on success, 1 on a domain
error, 2 on a usage error.
"""

from __future__ import annotations

import json
import re
import sys
from collections.abc import Mapping
from types import SimpleNamespace

import fanocalc as fc


class CommandResult(fc._Record):
    command: str
    status: str
    inputs: dict = None
    result: object = None
    provenance: list = None
    message: str | None = None

    def __post_init__(self):
        # a fresh {} and [] per result, never one shared default
        if self.inputs is None:
            self.__dict__["inputs"] = {}
        if self.provenance is None:
            self.__dict__["provenance"] = []

    def to_json(self) -> str:
        keys = ("inputs", "result", "provenance") if self.status == "ok" else ("message",)
        doc = {key: getattr(self, key) for key in ("command", "status", *keys)}
        return json.dumps(doc, sort_keys=True, ensure_ascii=False)


# -- schubert expression grammar -------------------------------------------

# Largest integer power a literal may be raised to, in bits of the result.
MAX_POWER_BITS = 1 << 16

# A token, or else (second group) the rest of the text from the first place
# where no token starts, unless that rest is blank.
_TOKEN_RE = re.compile(r"\s*(s\[[^\]]*\]|\d+|[+*^])|(\s*\S.*)", re.S)


def parse_schubert_expr(ctx: fc.GrassmannContext, text: str) -> fc.ChowElement:
    """Tiny grammar: ``s[l1,l2,...]``, integer literals, ``+``, ``*``, ``^``
    (an integer literal exponent, binding left to right: ``2^3^2`` is 64).

    One pass, each token read after the one before it: a text that is not
    all tokens is refused first, then the value is built left to right.
    Literals, and products and powers of literals, stay Python ints until
    they meet a class, so ``2^20000*s[1]^2`` is one scalar multiple rather
    than 20000 products of multiples of the unit class.
    """
    found = _TOKEN_RE.findall(text)
    if found and found[-1][1]:
        raise ValueError(f"cannot parse expression at {found[-1][1]!r}")
    tokens = [tok for tok, _ in found]
    total, term, atom = ctx.zero(), 1, None
    # Each token is read by what precedes it: an atom after "+", "*" or the
    # start, an exponent after "^", an operator or the end after an operand.
    for prev, tok in zip(["+", *tokens], [*tokens, None]):
        if prev in ("+", "*"):
            if tok is None:
                raise ValueError("unexpected end of expression")
            if tok.isdigit():
                atom = int(tok)
            elif tok.startswith("s["):
                atom = fc.sigma(ctx, *fc._ints(tok[2:-1], tok))
            else:
                raise ValueError(f"unexpected token {tok!r}")
        elif prev == "^":
            if tok is None or not tok.isdigit():
                raise ValueError("exponent must be an integer literal")
            exp = int(tok)
            # base**exp has more than exp*(bit_length(base) - 1) bits
            if isinstance(atom, int) and exp * (atom.bit_length() - 1) >= MAX_POWER_BITS:
                raise ValueError(f"integer power to the {exp} exceeds {MAX_POWER_BITS} bits")
            atom = atom**exp
        elif tok != "^":
            term = term * atom
            if tok == "*":
                continue
            total = total + (term * ctx.one() if isinstance(term, int) else term)
            term = 1
            if tok not in ("+", None):
                raise ValueError(f"trailing tokens starting at {tok!r}")
    return total


# -- serialization ----------------------------------------------------------

def _chow(value) -> dict:
    return {
        "display": str(value),
        "terms": {
            ",".join(str(x) for x in parts) or "0": coeff
            for parts, coeff in sorted(value.terms.items())
        },
    }


def _invariants(value) -> dict:
    out = {key: getattr(value, key) for key in ("r", "H3", "c2H", "c3Omega", "b3")}
    if value.genus is not None:
        out["genus"] = value.genus
        out["dim_anticanonical_system"] = value.anticanonical_system_dim
    return out


# Result types with a form of their own: (module, class name, form).  A
# result can only be an instance of a class whose module is loaded, so the
# classes are looked up in sys.modules and serializing imports nothing.
_FORMS = (
    ("fanocalc.schubert", "ChowElement", _chow),
    ("fanocalc.chern", "FormalBundle",
     lambda v: {"rank": v.rank, "chern": [str(c) for c in v.chern]}),
    ("fanocalc.rings", "PolyElement", str),
    ("fractions", "Fraction", str),
    ("fanocalc.wps", "WeightVector", lambda v: list(v.weights)),
    ("fanocalc.wps", "SingularStratum",
     lambda v: {"k": v.k, "coords": list(v.coords), "dimension": v.dimension}),
    ("fanocalc.riemann_roch", "FanoNumericalInvariants", _invariants),
)


def _plain(value):
    """The JSON-ready form of a result; a record becomes the dict of its fields."""
    if isinstance(value, (int, str)) or value is None:
        return value
    for module, name, form in _FORMS:
        loaded = sys.modules.get(module)
        if loaded is not None and isinstance(value, getattr(loaded, name)):
            return form(value)
    if isinstance(value, fc._Record):
        return {name: _plain(getattr(value, name)) for name in value._fields}
    if isinstance(value, Mapping):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (set, frozenset)):
        value = sorted(value)
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _inline(items: list) -> str:
    return "(" + ", ".join(str(x) for x in items) + ")"


def _render(value, indent: str = "") -> str:
    if isinstance(value, dict):
        lines = []
        for key, val in value.items():
            if isinstance(val, list) and all(not isinstance(x, (dict, list)) for x in val):
                lines.append(f"{indent}{key}: {_inline(val)}")
            elif isinstance(val, (dict, list)):
                lines.append(f"{indent}{key}:")
                lines.append(_render(val, indent + "  "))
            else:
                lines.append(f"{indent}{key}: {val}")
        return "\n".join(lines)
    if isinstance(value, list):
        if not value:
            return f"{indent}(none)"
        lines = []
        for item in value:
            if isinstance(item, dict):
                lines.append(f"{indent}-")
                lines.append(_render(item, indent + "  "))
            elif isinstance(item, list):
                lines.append(f"{indent}- {_inline(item)}")
            else:
                lines.append(f"{indent}- {item}")
        return "\n".join(lines)
    return f"{indent}{value}"


# -- argument helpers --------------------------------------------------------

def _parse_gr(text: str, flag: str = "--gr") -> fc.GrassmannContext:
    ab = fc._ints(text, flag)
    if len(ab) != 2:
        raise ValueError(f"{flag} expects 'a,b' (projective convention), got {text!r}")
    return fc.GrassmannContext.from_projective(*ab)


def _exprs(args, *texts: str) -> list[fc.ChowElement]:
    """Each expression in the one Grassmannian that ``--gr`` names."""
    ctx = _parse_gr(args.gr)
    return [parse_schubert_expr(ctx, text) for text in texts]


def _weights(args) -> fc.WeightVector:
    return fc.WeightVector(fc._ints(args.weights, "weights"))


def _bundle(args) -> fc.FormalBundle:
    if args.taut and args.split:
        raise ValueError("give exactly one of --taut and --split")
    if args.taut:
        return fc.tautological_dual(_parse_gr(args.taut, "--taut"))
    if args.split:
        head, colon, tail = args.split.partition(":")
        if not colon or len(dim := fc._ints(head, "--split dimension")) != 1:
            raise ValueError("--split expects 'dim:a1,a2,...'")
        ring = fc.line_ring(dim[0], top_integral=1)
        h = ring.gen()
        bundle = fc.FormalBundle(ring, 0, ())
        for a in fc._ints(tail, "--split parts"):
            bundle = fc.whitney_sum(bundle, fc.line_bundle(ring, a * h))
        return bundle
    raise ValueError("a bundle is required: --taut a,b or --split dim:a1,a2,...")


def _db(args) -> fc.FanoDatabase:
    if args.db is not None:
        return fc.load_database(args.db)
    return fc.default_database()


def _target(args, db: fc.FanoDatabase | None = None) -> tuple[fc.FanoRecord, int]:
    """The ``--target`` record and ``--twist``, by default the record's cotangent twist."""
    Y = (_db(args) if db is None else db).lookup(args.target)
    return Y, fc.cotangent_twist(Y) if args.twist is None else args.twist


def _source_from_args(args, db) -> fc.SourceInvariants:
    flags = {f"--{key}": getattr(args, key) for key in ("h3x", "kappa", "c2hx", "c3x")}
    if args.source is not None:
        given = [flag for flag, value in flags.items() if value is not None]
        if given:
            raise ValueError("--source reads the source invariants; drop " + ", ".join(given))
        return fc.source_invariants(db.lookup(args.source))
    missing = [flag for flag, value in flags.items() if value is None]
    if missing:
        raise ValueError(
            "source invariants incomplete: give --source NAME or " + ", ".join(missing)
        )
    return fc.SourceInvariants(
        H3X=args.h3x, kappa=args.kappa, c2HX=args.c2hx, c3OmegaX=args.c3x
    )


def _chi(value) -> dict:
    return {"chi": value, "integral": value.denominator == 1}


# -- handlers that branch ----------------------------------------------------

def _chern_top(args):
    bundle = _bundle(args)
    provenance = ["splitting-principle"]
    if args.sym is not None:
        bundle = fc.sym_power(bundle, args.sym)
    if args.ext is not None:
        bundle = fc.ext_power(bundle, args.ext)
    top = fc.top_chern(bundle)
    if not args.integrate:
        return top, provenance
    pairing = "schubert-degree-pairing" if args.taut else "declared-intersection-number"
    return bundle.ring.integral(top), provenance + [pairing]


def _normal_bundles(args):
    provenance = ["adjunction-normal-bundle-options"]
    if args.conics:
        if args.r is not None or not args.very_ample:
            raise ValueError("--conics lists conic options: give it no --r or --not-very-ample")
        options = fc.conic_normal_bundle_degrees()
        notes = {
            str(a): fc.fano_db.CONIC_OPTION_NOTES[a]
            for a, _ in sorted(options)
            if a in fc.fano_db.CONIC_OPTION_NOTES
        }
        return {"options": options, "notes": notes}, provenance
    if args.r is None:
        raise ValueError("give --r 1|2 for line options or --conics")
    return {"options": fc.line_normal_bundle_options(args.r, args.very_ample)}, provenance


def _bound_E(args):
    Y, twist = _target(args)
    return {
        "E": fc.E_value(Y, twist),
        "twist": twist,
        "verdict": fc.boundedness_verdict(Y, twist),
    }, ["twisted-cotangent-degree-criterion"]


def _max_m(args):
    db = _db(args)
    X = _source_from_args(args, db)  # a faulty source is reported before the twist
    Y, twist = _target(args, db)
    return {"m_max": fc.max_multiplier(X, Y, twist), "twist": twist}, [
        "twisted-cotangent-degree-criterion",
        "exact-integer-search",
    ]


def _neg_lines(args):
    """m <= j when T_X(j) is globally generated (T_X(d - 2) on a degree-d
    hypersurface): the generic surjection T_X|_D -> O_D(-m) + O_D (or
    O_D(-2m) + O_D(m)) needs a negative summand of degree >= -j."""
    if (args.j is None) == (args.hypersurface_degree is None):
        raise ValueError("give exactly one of --j and --hypersurface-degree")
    j = args.j
    provenance = ["negative-normal-direction-bound"]
    if j is None:
        if args.hypersurface_degree < 2:
            raise ValueError("hypersurface degree must be at least 2")
        j = args.hypersurface_degree - 2
        provenance.append("hypersurface-tangent-twist")
    if j < 0:
        raise ValueError("twist must be nonnegative")
    return {"j": j, "m_bound": j}, provenance


# Longest m range that `bound feasible-m` takes.  The answer is found in closed form,
# but the output lists every feasible m, so its size grows with the range.
MAX_M_VALUES = 10**5


def _feasible_m(args):
    if args.m_min < 1 or args.m_max < args.m_min:
        raise ValueError("need 1 <= m-min <= m-max")
    count = args.m_max - args.m_min + 1
    if count > MAX_M_VALUES:
        raise ValueError(f"m-min..m-max spans {count} values; at most {MAX_M_VALUES} are allowed")
    values = range(args.m_min, args.m_max + 1)
    feasible = fc.feasible_multipliers(args.rx, args.ry, args.very_ample, values)
    out = {"feasible": sorted(feasible)}
    if args.witnesses:
        out["witnesses"] = {
            str(m): fc.feasibility_witnesses(args.rx, args.ry, args.very_ample, m)
            for m in sorted(feasible)
        }
    return out, ["normal-bundle-enumeration"]


def _lines_cubic(args):
    from . import reports  # not a package export

    provenance = ["splitting-principle", "pieri-rule", "hurwitz-formula"]
    return reports.lines_on_cubic_threefold(), provenance


def _quadric(args):
    X = fc.SourceInvariants(H3X=args.h3x, kappa=args.kappa, c2HX=0, c3OmegaX=0)
    return {
        "threshold": fc.noether_lefschetz_threshold(args.kappa),
        "m_bound": fc.quadric_multiplier_bound(X),
        "degree_bound": fc.quadric_degree_bound(X),
    }, ["infinitesimal-noether-lefschetz", "ampleness-threshold"]


# -- the command table -------------------------------------------------------

def _arg(*names, **kwargs):
    return names, kwargs


def _int(name, **kwargs):
    """A required integer flag."""
    return _arg(name, type=int, required=True, **kwargs)


GR = _arg("--gr", required=True, help="Grassmannian G(a,b), projective convention")
BUNDLE = (
    _arg("--taut", help="dual tautological bundle on G(a,b)"),
    _arg("--split", help="split bundle 'dim:a1,a2,...' over projective space"),
)
TARGET = (
    _arg("--target", required=True),
    _arg("--twist", type=int, help="defaults to the cotangent twist of the target"),
)
VERY_AMPLE = _arg("--not-very-ample", dest="very_ample", action="store_false")
WEIGHTS = _arg("weights")

GROUPS = {
    "schubert": "Chow ring of a Grassmannian",
    "chern": "formal bundles and their Chern classes",
    "rr": "Riemann-Roch evaluators",
    "wps": "weighted projective spaces",
    "db": "classification database",
    "bound": "morphism degree certificates",
    "report": "composite computations",
}

# Each row: "group op": (handler, flags); see the module docstring.
COMMANDS = {
    "schubert mul": (
        lambda a: (fc.multiply(*_exprs(a, a.lhs, a.rhs)),
                   ["pieri-rule", "giambelli-determinant"]),
        (GR, _arg("--lhs", required=True), _arg("--rhs", required=True))),
    "schubert pieri": (
        lambda a: (fc.pieri(*_exprs(a, a.expr), a.a), ["pieri-rule"]),
        (GR, _arg("--expr", required=True), _int("--a", help="single-row class index"))),
    "schubert integrate": (
        lambda a: (fc.integrate(*_exprs(a, a.expr)),
                   ["pieri-rule", "giambelli-determinant", "schubert-degree-pairing"]),
        (GR, _arg("--expr", required=True))),
    "schubert giambelli": (
        lambda a: (fc.giambelli(_parse_gr(a.gr), fc._ints(a.partition, "--partition")),
                   ["giambelli-determinant", "pieri-rule"]),
        (GR, _arg("--partition", required=True, help="comma-separated parts"))),
    "chern sym": (
        lambda a: (fc.sym_power(_bundle(a), a.k), ["splitting-principle"]), (*BUNDLE, _int("--k"))),
    "chern ext": (
        lambda a: (fc.ext_power(_bundle(a), a.k), ["splitting-principle"]), (*BUNDLE, _int("--k"))),
    "chern dual": (lambda a: (fc.dual(_bundle(a)), ["chern-root-formalism"]), BUNDLE),
    "chern twist": (
        lambda a: (fc.twist_line(b := _bundle(a), a.t * b.ring.gen()), ["chern-root-formalism"]),
        (*BUNDLE, _int("--t", help="multiple of the degree-1 class"))),
    "chern top": (_chern_top, (
        *BUNDLE,
        _arg("--sym", type=int, help="apply the symmetric power S^SYM first"),
        _arg("--ext", type=int, help="then the exterior power Lambda^EXT (after --sym)"),
        _arg("--integrate", action="store_true"))),
    "rr chi2": (
        lambda a: (_chi(fc.chi_surface(fc.SurfaceIntersectionData(
            a.dd, a.dk, a.kk, a.c2))), ["riemann-roch-surface"]),
        tuple(map(_int, ("--dd", "--dk", "--kk", "--c2")))),
    "rr chi3": (
        lambda a: (_chi(fc.chi_threefold(fc.ThreefoldIntersectionData(
            a.d3, a.kd2, a.kkd, a.c2d, a.c1c2))), ["riemann-roch-threefold"]),
        tuple(map(_int, ("--d3", "--kd2", "--kkd", "--c2d", "--c1c2")))),
    "rr fano-invariants": (
        lambda a: (fc.derive_fano_invariants(a.r, a.h3, a.b3),
                   ["riemann-roch-threefold", "euler-number-betti"]),
        tuple(map(_int, ("--r", "--h3", "--b3")))),
    "wps normalize": (
        lambda a: (fc.normalize(_weights(a)), ["weighted-well-forming"]), (WEIGHTS,)),
    "wps sing": (
        lambda a: (fc.singular_strata(_weights(a)), ["weighted-singular-locus"]), (WEIGHTS,)),
    "wps canonical": (
        lambda a: (fc.canonical_degree(_weights(a)), ["weighted-canonical-degree"]), (WEIGHTS,)),
    "wps generated": (
        lambda a: (fc.is_generated(_weights(a), a.m),
                   ["numerical-semigroup-base-point-criterion"]),
        (WEIGHTS, _int("--m"))),
    "wps lmin": (
        lambda a: (fc.cotangent_twist_lmin(_weights(a)),
                   ["euler-sequence", "numerical-semigroup-base-point-criterion"]),
        (WEIGHTS,)),
    "wps model": (
        lambda a: (fc.double_cover_model(a.base, a.k), ["double-cover-weighted-model"]),
        (_arg("--base", required=True, help="P<n>, veronese-cone or quadric-4"),
         _int("--k", help="half the branch degree"))),
    "db lookup": (
        lambda a: (_db(a).lookup(a.name), ["fano-classification-table"]), (_arg("name"),)),
    "db list": (lambda a: (_db(a).names(), ["fano-classification-table"]), ()),
    # A loaded table has passed `validate` record by record, so it has no violation.
    "db validate": (
        lambda a: ({"records": len(_db(a).names()), "violations": {}},
                   ["fano-classification-table"]), ()),
    "db normal-bundles": (_normal_bundles, (
        _arg("--r", type=int, help="index, for line options"),
        VERY_AMPLE,
        _arg("--conics", action="store_true", help="conic option table instead"))),
    "db line-family-dim": (
        lambda a: (fc.expected_line_family_dim(a.n, a.d), ["incidence-dimension-count"]),
        (_int("--n", help="ambient projective dimension"),
         _int("--d", help="hypersurface degree"))),
    "bound E": (_bound_E, TARGET),
    "bound verdict": (
        lambda a: (fc.boundedness_verdict(*_target(a)), ["twisted-cotangent-degree-criterion"]),
        TARGET),
    "bound max-m": (_max_m, (
        *TARGET,
        _arg("--source", help="read source invariants from a classified family"),
        *(_arg(flag, type=int) for flag in ("--h3x", "--kappa", "--c2hx", "--c3x")))),
    "bound degree": (
        lambda a: (fc.degree_from_multiplier(a.m, a.h3x, a.h3y),
                   ["pullback-multiplier-degree"]),
        tuple(map(_int, ("--m", "--h3x", "--h3y")))),
    # The verdict reads only kappa, so the source's H^3 and Chern numbers are placeholders.
    "bound ramification": (
        lambda a: (fc.ramification_feasibility(a.ry, a.k, fc.SourceInvariants(1, a.kappa, 0, 0)),
                   ["ramification-multiplicity-count"]),
        tuple(map(_int, ("--ry", "--k", "--kappa")))),
    "bound neg-lines": (_neg_lines, (
        _arg("--j", type=int, help="twist with T_X(j) globally generated"),
        _arg("--hypersurface-degree", type=int))),
    "bound feasible-m": (_feasible_m, (
        _int("--rx"),
        _int("--ry"),
        VERY_AMPLE,
        _arg("--m-min", type=int, default=1),
        _int("--m-max"),
        _arg("--witnesses", action="store_true"))),
    "bound quadric": (_quadric, (_int("--h3x"), _int("--kappa"))),
    "report lines-cubic": (_lines_cubic, ()),
}


# -- parser -----------------------------------------------------------------

TOP_FLAGS = (
    _arg("--json", action="store_true", help="machine-readable output"),
    _arg("--db", help="path to an alternative classification table"),
)
# A negative number, or a word with a space, is a value and never a flag.
_NUMBER = re.compile(r"-\d+$|-\d*\.\d+$")


class UsageError(SystemExit):
    """A usage error, raised (exit code 2) instead of printed, so that ``main``
    can report it as text or as a JSON document.  ``prog`` names the level
    that refused it: ``fanocalc``, ``fanocalc GROUP`` or ``fanocalc GROUP OP``."""

    def __init__(self, prog: str, usage: str, message: str):
        super().__init__(2)
        self.prog, self.usage, self.message = prog, usage, message


def _dest(names: tuple, kwargs: dict) -> str:
    return kwargs.get("dest") or names[0].lstrip("-").replace("-", "_")


# The value of a store_true or store_false flag when it is not given.
_UNSET = {"store_true": False, "store_false": True}


class _Level:
    """One level of the command line: ``prog``, its flags (a table row) and,
    above an op, the words that choose the next level (``choices``)."""

    def __init__(self, prog: str, row: tuple, choices: dict | None = None, word: str = ""):
        self.prog, self.flags, self.choices, self.word = prog, row, choices, word
        self.options = {name: f for f in self.flags for name in f[0] if name.startswith("-")}
        self.positionals = [f[0][0] for f in self.flags if f[0][0] not in self.options]

    def _is_flag(self, arg: str) -> bool:
        if not arg.startswith("-") or arg == "-":
            return False
        return arg.partition("=")[0] in self.options or not (_NUMBER.match(arg) or " " in arg)

    def error(self, message: str) -> UsageError:
        return UsageError(self.prog, self.usage(), message)

    def read(self, argv: list[str], args: SimpleNamespace):
        """Read this level's part of ``argv`` into ``args``.  Above an op, return
        the chosen word and the arguments after it, which the next level reads."""
        for names, kwargs in self.flags:
            if names[0] in self.options:
                default = kwargs.get("default", _UNSET.get(kwargs.get("action")))
                setattr(args, _dest(names, kwargs), default)
        words, given, flags_ended, i = [], set(), False, 0
        while i < len(argv):
            arg, i = argv[i], i + 1
            if arg == "--" and not flags_ended:
                flags_ended = True
            elif flags_ended or not self._is_flag(arg):
                if self.choices is None:
                    words.append(arg)
                    continue
                if arg not in self.choices:
                    raise self.error(f"argument {self.word}: invalid choice: {arg!r}")
                return arg, argv[i:]
            elif arg in ("-h", "--help"):
                self.help()
            elif arg.partition("=")[0] not in self.options:
                raise self.error(f"unrecognized arguments: {arg}")
            else:
                name, eq, value = arg.partition("=")
                names, kwargs = self.options[name]
                flag = names[0]
                given.add(flag)
                if "action" in kwargs:
                    if eq:
                        raise self.error(f"argument {flag}: ignored explicit argument {value!r}")
                    value = not _UNSET[kwargs["action"]]
                elif not eq:
                    if i == len(argv) or self._is_flag(argv[i]):
                        raise self.error(f"argument {flag}: expected one argument")
                    value, i = argv[i], i + 1
                if "type" in kwargs:
                    try:
                        value = kwargs["type"](value)
                    except ValueError:
                        kind = kwargs["type"].__name__
                        raise self.error(f"argument {flag}: invalid {kind} value: {value!r}")
                setattr(args, _dest(names, kwargs), value)
        missing = [f[0][0] for f in self.flags if f[1].get("required") and f[0][0] not in given]
        missing += [self.word] if self.choices else self.positionals[len(words):]
        if missing:
            raise self.error("the following arguments are required: " + ", ".join(missing))
        if len(words) > len(self.positionals):
            raise self.error("unrecognized arguments: " + " ".join(words[len(self.positionals):]))
        args.__dict__.update(zip(self.positionals, words))

    def _form(self, names: tuple, kwargs: dict) -> str:
        if "action" in kwargs or names[0] in self.positionals:
            return names[0]
        return f"{names[0]} {_dest(names, kwargs).upper()}"

    def usage(self) -> str:
        parts = [self.prog, "[-h]"]
        for names, kwargs in self.flags:
            bare = kwargs.get("required") or names[0] in self.positionals
            parts.append(self._form(names, kwargs) if bare else f"[{self._form(names, kwargs)}]")
        if self.choices:
            parts.append("{" + ",".join(self.choices) + "} ...")
        return " ".join(parts)

    def help(self):
        """Print the usage, the words to choose from and the flags; exit 0."""
        rows = [*(self.choices or {}).items(), ("-h, --help", "show this help message and exit")]
        rows += [(self._form(names, kw), kw.get("help", "")) for names, kw in self.flags]
        print(f"usage: {self.usage()}\n")
        print("\n".join(f"  {left:<24} {right}".rstrip() for left, right in rows))
        raise SystemExit(0)


class _Parser:
    """``fanocalc [--json] [--db PATH] [-h] GROUP OP [ARGS]``, read level by
    level from ``GROUPS`` and ``COMMANDS``; it keeps no state between parses."""

    def parse_args(self, argv: list[str], args: SimpleNamespace | None = None) -> SimpleNamespace:
        args = SimpleNamespace() if args is None else args
        group, rest = _Level("fanocalc", TOP_FLAGS, GROUPS, "group").read(argv, args)
        ops = {c.partition(" ")[2]: "" for c in COMMANDS if c.partition(" ")[0] == group}
        op, rest = _Level(f"fanocalc {group}", (), ops, "op").read(rest, args)
        args.command = f"{group} {op}"
        args.func, flags = COMMANDS[args.command]
        _Level(f"fanocalc {args.command}", flags).read(rest, args)
        return args


def build_parser() -> _Parser:
    """The command-line parser; it reads only the table row of the command it parses."""
    return _Parser()


_PRIVATE_ARGS = {"func", "command", "json", "db"}


def run(argv: list[str], args: SimpleNamespace | None = None) -> CommandResult:
    """Execute one command; usage errors raise ``UsageError``, a ``SystemExit(2)``.
    The parse fills ``args`` if given; ``main`` reads ``--json`` there, also on a usage error.
    A domain error, the ``status: "error"`` result, is what the handlers raise to
    refuse an input: a ``ValueError`` (an unknown family among them) or an
    ``OSError`` (an unreadable ``--db`` table).  Any other exception is a bug, such
    as Newton's inexact division (an ``ArithmeticError``) or a stray ``KeyError``
    from a kernel dict, and propagates."""
    args = build_parser().parse_args(argv, args)
    inputs = {k: v for k, v in vars(args).items() if k not in _PRIVATE_ARGS}
    try:
        result, provenance = args.func(args)
    except (OSError, ValueError) as exc:
        # An OSError (an unreadable --db table) names its file only in its str.
        message = exc if isinstance(exc, OSError) or not exc.args else exc.args[0]
        return CommandResult(command=args.command, status="error", message=str(message))
    return CommandResult(
        command=args.command,
        status="ok",
        inputs=inputs,
        result=_plain(result),
        provenance=provenance,
    )


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    # Exact integers print in full: lift the int-to-str digit limit
    # (Python 3.10.7+), which would otherwise fail on results over 4300 digits.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    args = SimpleNamespace()  # the top level sets --json before it can refuse a word
    try:
        result = run(argv, args)
    except UsageError as exc:
        if args.json:
            # The prog of an op is "fanocalc group op": report the group and op reached.
            command = exc.prog.partition(" ")[2]
            print(CommandResult(command, "error", message=exc.message).to_json())
        else:
            print(f"usage: {exc.usage}", file=sys.stderr)
            print(f"{exc.prog}: error: {exc.message}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    if args.json:
        print(result.to_json())
    elif result.status == "ok":
        print(_render(result.result))
    else:
        print(f"error: {result.message}", file=sys.stderr)
    return 0 if result.status == "ok" else 1


if __name__ == "__main__":
    sys.exit(main())
