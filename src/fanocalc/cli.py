"""Batch command-line front end.

Every operation of the library is one row of the command table
``COMMANDS``, which maps ``"group op"`` to ``(handler, flags)``.  A handler
takes the parsed arguments and returns ``(result, provenance)``; the flags
are ``(names, add_argument keywords)`` pairs, a list of pairs being a
mutually exclusive group, and flag sets shared by several commands (``GR``,
``BUNDLE``, ``TARGET``, ``VERY_AMPLE``) are declared once.
``run`` passes every result through ``_plain``, the one serializer.

A process pays only for the command it runs.  ``build_parser`` builds the
top-level parser and one parser per group; a group's op parsers, and an
op's flags, are added from the table only when argparse selects them
(``_SelectedSubParsers``).  Importing this module loads no library module:
handlers reach the library through the lazy package namespace
(``fc.multiply``), which imports a module on first use, and ``_plain``
recognizes result types only from modules already loaded.

``--json`` switches the output to a single-line machine-readable document
with fields ``{command, status, inputs, result, provenance}``, or
``{command, status, message}`` on an error; usage errors print such a
document too.  Exit codes: 0 on success, 1 on a domain error, 2 on a usage
error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections.abc import Mapping

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
            object.__setattr__(self, "inputs", {})
        if self.provenance is None:
            object.__setattr__(self, "provenance", [])

    def to_json(self) -> str:
        doc = {"command": self.command, "status": self.status}
        if self.status == "ok":
            doc["inputs"] = self.inputs
            doc["result"] = self.result
            doc["provenance"] = self.provenance
        else:
            doc["message"] = self.message
        return json.dumps(doc, sort_keys=True, ensure_ascii=False)


# -- schubert expression grammar -------------------------------------------

# Largest integer power a literal may be raised to, in bits of the result.
MAX_POWER_BITS = 1 << 16

_TOKEN_RE = re.compile(r"\s*(s\[[^\]]*\]|\d+|[+*^])")


def _tokenize(text: str) -> list[str]:
    tokens, pos = [], 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if not match:
            if text[pos:].strip():
                raise ValueError(f"cannot parse expression at {text[pos:]!r}")
            break
        tokens.append(match.group(1))
        pos = match.end()
    return tokens


def parse_schubert_expr(ctx: fc.GrassmannContext, text: str) -> fc.ChowElement:
    """Tiny grammar: ``s[l1,l2,...]``, integer literals, ``+``, ``*``, ``^``.

    Literals, and products and powers of literals, stay Python ints until
    they meet a class, so ``2^20000*s[1]^2`` is one scalar multiple rather
    than 20000 products of multiples of the unit class.
    """
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_atom() -> fc.ChowElement | int:
        tok = peek()
        if tok is None:
            raise ValueError("unexpected end of expression")
        if tok.isdigit():
            take()
            return int(tok)
        if tok.startswith("s["):
            take()
            inner = tok[2:-1].strip()
            parts = [int(x) for x in inner.split(",")] if inner else []
            return fc.sigma(ctx, *parts)
        raise ValueError(f"unexpected token {tok!r}")

    def parse_factor() -> fc.ChowElement | int:
        atom = parse_atom()
        while peek() == "^":
            take()
            if peek() is None or not peek().isdigit():
                raise ValueError("exponent must be an integer literal")
            exp = int(take())
            # base**exp has more than exp*(bit_length(base) - 1) bits
            if isinstance(atom, int) and exp * (atom.bit_length() - 1) >= MAX_POWER_BITS:
                raise ValueError(f"integer power to the {exp} exceeds {MAX_POWER_BITS} bits")
            atom = atom**exp
        return atom

    def parse_term() -> fc.ChowElement:
        node = parse_factor()
        while peek() == "*":
            take()
            node = node * parse_factor()
        return node * ctx.one() if isinstance(node, int) else node

    node = parse_term()
    while peek() == "+":
        take()
        node = node + parse_term()
    if peek() is not None:
        raise ValueError(f"trailing tokens starting at {peek()!r}")
    return node


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
    if isinstance(value, (list, tuple, set, frozenset)):
        items = list(value)
        if isinstance(value, (set, frozenset)):
            items = sorted(items)
        return [_plain(v) for v in items]
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

def _parse_gr(text: str) -> fc.GrassmannContext:
    try:
        a, b = (int(x) for x in text.split(","))
    except Exception:
        raise ValueError(f"--gr expects 'a,b' (projective convention), got {text!r}")
    return fc.GrassmannContext.from_projective(a, b)


def _expr(args, text: str) -> fc.ChowElement:
    return parse_schubert_expr(_parse_gr(args.gr), text)


def _weights(args) -> fc.WeightVector:
    return fc.WeightVector(tuple(int(x) for x in args.weights.split(",")))


def _parse_ints(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(x) for x in text.split(","))


def _bundle(args) -> fc.FormalBundle:
    if args.taut and args.split:
        raise ValueError("give exactly one of --taut and --split")
    if args.taut:
        return fc.tautological_dual(_parse_gr(args.taut))
    if args.split:
        head, _, tail = args.split.partition(":")
        if not _:
            raise ValueError("--split expects 'dim:a1,a2,...'")
        ring = fc.line_ring(int(head), top_integral=1)
        h = ring.gen()
        bundle = fc.FormalBundle(ring, 0, ())
        for a in _parse_ints(tail):
            bundle = fc.whitney_sum(bundle, fc.line_bundle(ring, a * h))
        return bundle
    raise ValueError("a bundle is required: --taut a,b or --split dim:a1,a2,...")


def _db(args) -> fc.FanoDatabase:
    if args.db:
        return fc.load_database(args.db)
    return fc.default_database()


def _twist(args, Y: fc.FanoRecord) -> int:
    """``--twist``, defaulting to the cotangent twist of the target."""
    return args.twist if args.twist is not None else fc.cotangent_twist(Y)


def _source_from_args(args, db) -> fc.SourceInvariants:
    if args.source:
        return fc.source_invariants(db.lookup(args.source))
    missing = [f"--{key}" for key in ("h3x", "kappa", "c2hx", "c3x") if getattr(args, key) is None]
    if missing:
        raise ValueError(
            "source invariants incomplete: give --source NAME or " + ", ".join(missing)
        )
    return fc.SourceInvariants(
        H3X=args.h3x, kappa=args.kappa, c2HX=args.c2hx, c3OmegaX=args.c3x
    )


def _kappa_source(args) -> fc.SourceInvariants:
    """A source given by ``--h3x`` and ``--kappa`` alone."""
    return fc.SourceInvariants(
        H3X=args.h3x, kappa=args.kappa, c2HX=0, c3OmegaX=0
    )


def _chi(value) -> dict:
    return {"chi": value, "integral": value.denominator == 1}


# -- handlers that branch ----------------------------------------------------

def _chern_top(args):
    bundle = _bundle(args)
    provenance = ["splitting-principle"]
    if args.sym:
        bundle = fc.sym_power(bundle, args.sym)
    if args.ext:
        bundle = fc.ext_power(bundle, args.ext)
    top = fc.top_chern(bundle)
    if not args.integrate:
        return top, provenance
    pairing = "schubert-degree-pairing" if args.taut else "declared-intersection-number"
    return bundle.ring.integral(top), provenance + [pairing]


def _normal_bundles(args):
    provenance = ["adjunction-normal-bundle-options"]
    if args.conics:
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
    Y = _db(args).lookup(args.target)
    twist = _twist(args, Y)
    return {
        "E": fc.E_value(Y, twist),
        "twist": twist,
        "verdict": fc.boundedness_verdict(Y, twist),
    }, ["twisted-cotangent-degree-criterion"]


def _bound_verdict(args):
    Y = _db(args).lookup(args.target)
    verdict = fc.boundedness_verdict(Y, _twist(args, Y))
    return verdict, ["twisted-cotangent-degree-criterion"]


def _max_m(args):
    db = _db(args)
    Y = db.lookup(args.target)
    X = _source_from_args(args, db)
    twist = _twist(args, Y)
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


# Longest m range that `bound feasible-m` scans; its time and memory grow with the range.
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
    X = _kappa_source(args)
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
VERY_AMPLE = [
    _arg("--very-ample", dest="very_ample", action="store_true", default=True),
    _arg("--not-very-ample", dest="very_ample", action="store_false"),
]
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
        lambda a: (fc.multiply(_expr(a, a.lhs), _expr(a, a.rhs)),
                   ["pieri-rule", "giambelli-determinant"]),
        (GR, _arg("--lhs", required=True), _arg("--rhs", required=True))),
    "schubert pieri": (
        lambda a: (fc.pieri(_expr(a, a.expr), a.a), ["pieri-rule"]),
        (GR, _arg("--expr", required=True), _int("--a", help="single-row class index"))),
    "schubert integrate": (
        lambda a: (fc.integrate(_expr(a, a.expr)),
                   ["pieri-rule", "giambelli-determinant", "schubert-degree-pairing"]),
        (GR, _arg("--expr", required=True))),
    "schubert giambelli": (
        lambda a: (fc.giambelli(_parse_gr(a.gr), _parse_ints(a.partition)),
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
        _arg("--sym", type=int, help="apply a symmetric power first"),
        _arg("--ext", type=int, help="apply an exterior power first"),
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
    "bound verdict": (_bound_verdict, TARGET),
    "bound max-m": (_max_m, (
        *TARGET,
        _arg("--source", help="read source invariants from a classified family"),
        *(_arg(flag, type=int) for flag in ("--h3x", "--kappa", "--c2hx", "--c3x")))),
    "bound degree": (
        lambda a: (fc.degree_from_multiplier(a.m, a.h3x, a.h3y),
                   ["pullback-multiplier-degree"]),
        tuple(map(_int, ("--m", "--h3x", "--h3y")))),
    "bound ramification": (
        lambda a: (fc.ramification_feasibility(a.ry, a.k, _kappa_source(a)),
                   ["ramification-multiplicity-count"]),
        (*map(_int, ("--ry", "--k", "--kappa")), _arg("--h3x", type=int, default=1))),
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

class UsageError(SystemExit):
    """An argparse usage error, raised (exit code 2) instead of printed, so
    that ``main`` can report it as text or as a JSON document."""

    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(2)
        self.parser = parser
        self.message = message


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(self, message)


class _SelectedSubParsers(argparse._SubParsersAction):
    """Subparsers filled on selection: when argparse picks a choice,
    ``fill(name, parser)`` adds that parser's contents just before it parses
    the rest of the command line.  Choices never picked stay empty."""

    def __init__(self, *args, fill, **kwargs):
        super().__init__(*args, **kwargs)
        self._fill = fill
        self._filled = set()

    def __call__(self, parser, namespace, values, option_string=None):
        name = values[0]
        if name not in self._filled:
            self._filled.add(name)
            self._fill(name, self.choices[name])
        super().__call__(parser, namespace, values, option_string)


def _add_ops(group: str, parser: argparse.ArgumentParser) -> None:
    ops = parser.add_subparsers(
        dest="op", required=True, action=_SelectedSubParsers, fill=_add_flags
    )
    for command, (handler, _flags) in COMMANDS.items():
        head, _, op = command.partition(" ")
        if head == group:
            ops.add_parser(op).set_defaults(func=handler, command=command)


def _add_flags(op: str, parser: argparse.ArgumentParser) -> None:
    for flag in COMMANDS[parser.get_default("command")][1]:
        if isinstance(flag, list):  # a mutually exclusive group
            exclusive = parser.add_mutually_exclusive_group()
            for names, kwargs in flag:
                exclusive.add_argument(*names, **kwargs)
        else:
            parser.add_argument(*flag[0], **flag[1])


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser and one parser per group; the op parsers of a
    group and the flags of an op are added when argparse selects them."""
    parser = _Parser(
        prog="fanocalc",
        description="Exact Schubert calculus, Chern classes and Fano morphism bounds.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--db", help="path to an alternative classification table")
    groups = parser.add_subparsers(
        dest="group", required=True, action=_SelectedSubParsers, fill=_add_ops
    )
    for group, summary in GROUPS.items():
        groups.add_parser(group, help=summary)
    return parser


_PRIVATE_ARGS = {"func", "command", "group", "op", "json", "db"}


def run(argv: list[str]) -> CommandResult:
    """Execute one command; usage errors raise ``UsageError``, a ``SystemExit(2)``."""
    parser = build_parser()
    args = parser.parse_args(argv)
    inputs = {k: v for k, v in vars(args).items() if k not in _PRIVATE_ARGS}
    try:
        result, provenance = args.func(args)
    except OSError as exc:  # an unreadable --db table
        return CommandResult(command=args.command, status="error", message=str(exc))
    except (ValueError, KeyError, RuntimeError, ZeroDivisionError) as exc:
        message = exc.args[0] if exc.args else str(exc)
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
    use_json = "--json" in argv
    try:
        result = run(argv)
    except UsageError as exc:
        if use_json:
            # The prog of a subparser is "fanocalc group op": report the group and op reached.
            command = exc.parser.prog.partition(" ")[2]
            print(CommandResult(command, "error", message=exc.message).to_json())
        else:
            exc.parser.print_usage(sys.stderr)
            print(f"{exc.parser.prog}: error: {exc.message}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    if use_json:
        print(result.to_json())
    elif result.status == "ok":
        print(_render(result.result))
    else:
        print(f"error: {result.message}", file=sys.stderr)
    return 0 if result.status == "ok" else 1


if __name__ == "__main__":
    sys.exit(main())
