"""Batch command-line front end.

Every operation of the library is exposed as a subcommand; ``--json``
switches the output to a single-line machine-readable document with fields
``{command, status, inputs, result, provenance}``.  Exit codes: 0 on
success, 1 on a domain error, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from . import degree_bound, fano_db, reports, riemann_roch, wps
from .chern import (
    FormalBundle,
    chern_class,
    dual,
    ext_power,
    line_bundle,
    sym_power,
    top_chern,
    twist_line,
    whitney_sum,
)
from .rings import PolyElement, line_ring
from .schubert import (
    ChowElement,
    GrassmannContext,
    SchubertRing,
    giambelli,
    integrate,
    multiply,
    pieri,
    sigma,
    tautological_dual,
    unit,
)


@dataclass
class CommandResult:
    command: str
    status: str
    inputs: dict = field(default_factory=dict)
    result: object = None
    provenance: list = field(default_factory=list)
    message: str | None = None

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


def parse_schubert_expr(ctx: GrassmannContext, text: str) -> ChowElement:
    """Tiny grammar: ``s[l1,l2,...]``, integer literals, ``+``, ``*``, ``^``."""
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_atom() -> ChowElement:
        tok = peek()
        if tok is None:
            raise ValueError("unexpected end of expression")
        if tok.isdigit():
            take()
            return int(tok) * unit(ctx)
        if tok.startswith("s["):
            take()
            inner = tok[2:-1].strip()
            parts = [int(x) for x in inner.split(",")] if inner else []
            return sigma(ctx, *parts)
        raise ValueError(f"unexpected token {tok!r}")

    def parse_factor() -> ChowElement:
        atom = parse_atom()
        while peek() == "^":
            take()
            exp = peek()
            if exp is None or not exp.isdigit():
                raise ValueError("exponent must be an integer literal")
            take()
            atom = atom ** int(exp)
        return atom

    def parse_term() -> ChowElement:
        node = parse_factor()
        while peek() == "*":
            take()
            node = node * parse_factor()
        return node

    node = parse_term()
    while peek() == "+":
        take()
        node = node + parse_term()
    if peek() is not None:
        raise ValueError(f"trailing tokens starting at {peek()!r}")
    return node


# -- serialization ----------------------------------------------------------

def _plain(value):
    if isinstance(value, ChowElement):
        return {
            "display": str(value),
            "terms": {
                ",".join(str(x) for x in parts) or "0": coeff
                for parts, coeff in sorted(value.terms.items())
            },
        }
    if isinstance(value, PolyElement):
        return str(value)
    if isinstance(value, FormalBundle):
        return {
            "rank": value.rank,
            "chern": [_plain_class(c) for c in value.chern],
        }
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, wps.WeightVector):
        return list(value.weights)
    if isinstance(value, wps.SingularStratum):
        return {"k": value.k, "coords": list(value.coords), "dimension": value.dimension}
    if isinstance(value, wps.HypersurfaceModel):
        return {
            "ambient": list(value.ambient.weights),
            "degree": value.degree,
            "description": value.description,
        }
    if isinstance(value, fano_db.FanoRecord):
        return {
            "name": value.name,
            "index": value.index,
            "H3": value.H3,
            "genus": value.genus,
            "b3": value.b3,
            "very_ample": value.very_ample,
            "h0_H": value.h0_H,
            "facts": dict(value.facts),
            "description": value.description,
        }
    if isinstance(value, riemann_roch.FanoNumericalInvariants):
        out = {
            "r": value.r,
            "H3": value.H3,
            "c2H": value.c2H,
            "c3Omega": value.c3Omega,
            "b3": value.b3,
        }
        if value.genus is not None:
            out["genus"] = value.genus
            out["dim_anticanonical_system"] = value.anticanonical_system_dim
        return out
    if isinstance(value, riemann_roch.FanoSurfaceConstants):
        return {"c2": value.c2, "K2": value.K2}
    if isinstance(value, degree_bound.RamificationVerdict):
        return {"kind": value.kind, "bound": value.bound}
    if isinstance(value, degree_bound.FeasibilityWitness):
        return {
            "component": value.component,
            "h": value.h,
            "source": list(value.source),
            "target_type": list(value.target_type),
            "target": list(value.target),
        }
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = list(value)
        if isinstance(value, (set, frozenset)):
            items = sorted(items)
        return [_plain(v) for v in items]
    return value


def _plain_class(c):
    return str(c)


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

def _parse_gr(text: str) -> GrassmannContext:
    try:
        a, b = (int(x) for x in text.split(","))
    except Exception:
        raise ValueError(f"--gr expects 'a,b' (projective convention), got {text!r}")
    return GrassmannContext.from_projective(a, b)


def _parse_weights(text: str) -> wps.WeightVector:
    return wps.WeightVector(tuple(int(x) for x in text.split(",")))


def _parse_ints(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(x) for x in text.split(","))


def _bundle_from_args(args) -> tuple[FormalBundle, GrassmannContext | None]:
    if args.taut and args.split:
        raise ValueError("give exactly one of --taut and --split")
    if args.taut:
        ctx = _parse_gr(args.taut)
        return tautological_dual(ctx), ctx
    if args.split:
        head, _, tail = args.split.partition(":")
        if not _:
            raise ValueError("--split expects 'dim:a1,a2,...'")
        dim = int(head)
        ring = line_ring(dim, top_integral=1)
        h = ring.gen()
        bundle = FormalBundle(ring, 0, ())
        for a in _parse_ints(tail):
            bundle = whitney_sum(bundle, line_bundle(ring, a * h))
        return bundle, None
    raise ValueError("a bundle is required: --taut a,b or --split dim:a1,a2,...")


def _db(args) -> fano_db.FanoDatabase:
    if getattr(args, "db", None):
        return fano_db.load_database(args.db)
    return fano_db.default_database()


def _source_from_args(args, db) -> degree_bound.SourceInvariants:
    if getattr(args, "source", None):
        return degree_bound.source_invariants(db.lookup(args.source))
    missing = [
        flag
        for flag, value in (
            ("--h3x", args.h3x),
            ("--kappa", args.kappa),
            ("--c2hx", args.c2hx),
            ("--c3x", args.c3x),
        )
        if value is None
    ]
    if missing:
        raise ValueError(
            "source invariants incomplete: give --source NAME or " + ", ".join(missing)
        )
    return degree_bound.SourceInvariants(
        H3X=args.h3x, kappa=args.kappa, c2HX=args.c2hx, c3OmegaX=args.c3x
    )


# -- handlers ---------------------------------------------------------------

def cmd_schubert_mul(args):
    ctx = _parse_gr(args.gr)
    x = parse_schubert_expr(ctx, args.lhs)
    y = parse_schubert_expr(ctx, args.rhs)
    return _plain(multiply(x, y)), ["pieri-rule", "giambelli-determinant"]


def cmd_schubert_pieri(args):
    ctx = _parse_gr(args.gr)
    x = parse_schubert_expr(ctx, args.expr)
    return _plain(pieri(x, args.a)), ["pieri-rule"]


def cmd_schubert_integrate(args):
    ctx = _parse_gr(args.gr)
    x = parse_schubert_expr(ctx, args.expr)
    return integrate(x), ["pieri-rule", "giambelli-determinant", "schubert-degree-pairing"]


def cmd_schubert_giambelli(args):
    ctx = _parse_gr(args.gr)
    value = giambelli(ctx, _parse_ints(args.partition))
    return _plain(value), ["giambelli-determinant", "pieri-rule"]


def cmd_chern_sym(args):
    bundle, _ = _bundle_from_args(args)
    return _plain(sym_power(bundle, args.k)), ["splitting-principle"]


def cmd_chern_ext(args):
    bundle, _ = _bundle_from_args(args)
    return _plain(ext_power(bundle, args.k)), ["splitting-principle"]


def cmd_chern_dual(args):
    bundle, _ = _bundle_from_args(args)
    return _plain(dual(bundle)), ["chern-root-formalism"]


def cmd_chern_twist(args):
    bundle, ctx = _bundle_from_args(args)
    if ctx is not None:
        t = args.t * sigma(ctx, 1)
    else:
        t = args.t * bundle.ring.gen()
    return _plain(twist_line(bundle, t)), ["chern-root-formalism"]


def cmd_chern_top(args):
    bundle, ctx = _bundle_from_args(args)
    provenance = ["splitting-principle"]
    if args.sym:
        bundle = sym_power(bundle, args.sym)
    if args.ext:
        bundle = ext_power(bundle, args.ext)
    top = top_chern(bundle)
    if not args.integrate:
        return _plain(top), provenance
    provenance.append("schubert-degree-pairing" if ctx else "declared-intersection-number")
    if ctx is not None:
        return integrate(top), provenance
    return bundle.ring.integral(top), provenance


def cmd_rr_chi2(args):
    data = riemann_roch.SurfaceIntersectionData(args.dd, args.dk, args.kk, args.c2)
    value = riemann_roch.chi_surface(data)
    return {"chi": _plain(value), "integral": value.denominator == 1}, ["riemann-roch-surface"]


def cmd_rr_chi3(args):
    data = riemann_roch.ThreefoldIntersectionData(
        args.d3, args.kd2, args.kkd, args.c2d, args.c1c2
    )
    value = riemann_roch.chi_threefold(data)
    return {"chi": _plain(value), "integral": value.denominator == 1}, [
        "riemann-roch-threefold"
    ]


def cmd_rr_fano_invariants(args):
    inv = riemann_roch.derive_fano_invariants(args.r, args.h3, args.b3)
    return _plain(inv), ["riemann-roch-threefold", "euler-number-betti"]


def cmd_wps_normalize(args):
    return _plain(wps.normalize(_parse_weights(args.weights))), ["weighted-well-forming"]


def cmd_wps_sing(args):
    strata = wps.singular_strata(_parse_weights(args.weights))
    return _plain(strata), ["weighted-singular-locus"]


def cmd_wps_canonical(args):
    return wps.canonical_degree(_parse_weights(args.weights)), ["weighted-canonical-degree"]


def cmd_wps_generated(args):
    return wps.is_generated(_parse_weights(args.weights), args.m), [
        "numerical-semigroup-base-point-criterion"
    ]


def cmd_wps_lmin(args):
    return wps.cotangent_twist_lmin(_parse_weights(args.weights)), [
        "euler-sequence",
        "numerical-semigroup-base-point-criterion",
    ]


def cmd_wps_model(args):
    return _plain(wps.double_cover_model(args.base, args.k)), ["double-cover-weighted-model"]


def cmd_db_lookup(args):
    return _plain(_db(args).lookup(args.name)), ["fano-classification-table"]


def cmd_db_list(args):
    return _db(args).names(), ["fano-classification-table"]


def cmd_db_validate(args):
    report = _db(args).validate_all()
    return {"records": len(report), "violations": {k: v for k, v in report.items() if v}}, [
        "fano-classification-table"
    ]


def cmd_db_normal_bundles(args):
    if args.conics:
        options = fano_db.conic_normal_bundle_degrees()
        notes = {
            str(a): fano_db.CONIC_OPTION_NOTES[a]
            for a, _ in sorted(options)
            if a in fano_db.CONIC_OPTION_NOTES
        }
        return {"options": _plain(options), "notes": notes}, [
            "adjunction-normal-bundle-options"
        ]
    if args.r is None:
        raise ValueError("give --r 1|2 for line options or --conics")
    options = fano_db.line_normal_bundle_options(args.r, args.very_ample)
    return {"options": _plain(options)}, ["adjunction-normal-bundle-options"]


def cmd_db_line_family(args):
    return fano_db.expected_line_family_dim(args.n, args.d), [
        "incidence-dimension-count"
    ]


def cmd_bound_E(args):
    Y = _db(args).lookup(args.target)
    twist = args.twist if args.twist is not None else degree_bound.cotangent_twist(Y)
    value = degree_bound.E_value(Y, twist)
    return {
        "E": value,
        "twist": twist,
        "verdict": degree_bound.boundedness_verdict(Y, twist),
    }, ["twisted-cotangent-degree-criterion"]


def cmd_bound_verdict(args):
    Y = _db(args).lookup(args.target)
    twist = args.twist if args.twist is not None else degree_bound.cotangent_twist(Y)
    return degree_bound.boundedness_verdict(Y, twist), [
        "twisted-cotangent-degree-criterion"
    ]


def cmd_bound_max_m(args):
    db = _db(args)
    Y = db.lookup(args.target)
    X = _source_from_args(args, db)
    twist = args.twist if args.twist is not None else degree_bound.cotangent_twist(Y)
    m = degree_bound.max_multiplier(X, Y, twist)
    return {"m_max": m, "twist": twist}, [
        "twisted-cotangent-degree-criterion",
        "exact-integer-search",
    ]


def cmd_bound_degree(args):
    return degree_bound.degree_from_multiplier(args.m, args.h3x, args.h3y), [
        "pullback-multiplier-degree"
    ]


def cmd_bound_ramification(args):
    X = degree_bound.SourceInvariants(
        H3X=args.h3x, kappa=args.kappa, c2HX=0, c3OmegaX=0
    )
    verdict = degree_bound.ramification_feasibility(args.ry, args.k, X)
    return _plain(verdict), ["ramification-multiplicity-count"]


def cmd_bound_neg_lines(args):
    if (args.j is None) == (args.hypersurface_degree is None):
        raise ValueError("give exactly one of --j and --hypersurface-degree")
    j = args.j
    provenance = ["negative-normal-direction-bound"]
    if j is None:
        j = degree_bound.tangent_twist_hypersurface(args.hypersurface_degree)
        provenance.append("hypersurface-tangent-twist")
    return {"j": j, "m_bound": degree_bound.multiplier_bound_from_negative_lines(j)}, provenance


def cmd_bound_feasible_m(args):
    if args.m_min < 1 or args.m_max < args.m_min:
        raise ValueError("need 1 <= m-min <= m-max")
    values = range(args.m_min, args.m_max + 1)
    feasible = degree_bound.feasible_multipliers(args.rx, args.ry, args.very_ample, values)
    out = {"feasible": sorted(feasible)}
    if args.witnesses:
        out["witnesses"] = {
            str(m): _plain(
                degree_bound.feasibility_witnesses(args.rx, args.ry, args.very_ample, m)
            )
            for m in sorted(feasible)
        }
    return out, ["normal-bundle-enumeration"]


def cmd_bound_quadric(args):
    X = degree_bound.SourceInvariants(
        H3X=args.h3x, kappa=args.kappa, c2HX=0, c3OmegaX=0
    )
    m_bound = degree_bound.quadric_multiplier_bound(X)
    return {
        "threshold": degree_bound.noether_lefschetz_threshold(args.kappa),
        "m_bound": m_bound,
        "degree_bound": degree_bound.quadric_degree_bound(X),
    }, ["infinitesimal-noether-lefschetz", "ampleness-threshold"]


def cmd_report_lines_cubic(args):
    return reports.lines_on_cubic_threefold(), [
        "splitting-principle",
        "pieri-rule",
        "hurwitz-formula",
    ]


# -- parser -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fanocalc",
        description="Exact Schubert calculus, Chern classes and Fano morphism bounds.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--db", help="path to an alternative classification table")
    groups = parser.add_subparsers(dest="group", required=True)

    schubert = groups.add_parser("schubert", help="Chow ring of a Grassmannian")
    sub = schubert.add_subparsers(dest="op", required=True)

    def add(subparsers, name, handler, command, **kwargs):
        p = subparsers.add_parser(name, **kwargs)
        p.set_defaults(func=handler, command=command)
        return p

    p = add(sub, "mul", cmd_schubert_mul, "schubert mul")
    p.add_argument("--gr", required=True, help="Grassmannian G(a,b), projective convention")
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)

    p = add(sub, "pieri", cmd_schubert_pieri, "schubert pieri")
    p.add_argument("--gr", required=True)
    p.add_argument("--expr", required=True)
    p.add_argument("--a", type=int, required=True, help="single-row class index")

    p = add(sub, "integrate", cmd_schubert_integrate, "schubert integrate")
    p.add_argument("--gr", required=True)
    p.add_argument("--expr", required=True)

    p = add(sub, "giambelli", cmd_schubert_giambelli, "schubert giambelli")
    p.add_argument("--gr", required=True)
    p.add_argument("--partition", required=True, help="comma-separated parts")

    chern = groups.add_parser("chern", help="formal bundles and their Chern classes")
    sub = chern.add_subparsers(dest="op", required=True)

    def bundle_flags(p):
        p.add_argument("--taut", help="dual tautological bundle on G(a,b)")
        p.add_argument("--split", help="split bundle 'dim:a1,a2,...' over projective space")

    p = add(sub, "sym", cmd_chern_sym, "chern sym")
    bundle_flags(p)
    p.add_argument("--k", type=int, required=True)

    p = add(sub, "ext", cmd_chern_ext, "chern ext")
    bundle_flags(p)
    p.add_argument("--k", type=int, required=True)

    p = add(sub, "dual", cmd_chern_dual, "chern dual")
    bundle_flags(p)

    p = add(sub, "twist", cmd_chern_twist, "chern twist")
    bundle_flags(p)
    p.add_argument("--t", type=int, required=True, help="multiple of the degree-1 class")

    p = add(sub, "top", cmd_chern_top, "chern top")
    bundle_flags(p)
    p.add_argument("--sym", type=int, help="apply a symmetric power first")
    p.add_argument("--ext", type=int, help="apply an exterior power first")
    p.add_argument("--integrate", action="store_true")

    rr = groups.add_parser("rr", help="Riemann-Roch evaluators")
    sub = rr.add_subparsers(dest="op", required=True)

    p = add(sub, "chi2", cmd_rr_chi2, "rr chi2")
    for flag in ("--dd", "--dk", "--kk", "--c2"):
        p.add_argument(flag, type=int, required=True)

    p = add(sub, "chi3", cmd_rr_chi3, "rr chi3")
    for flag in ("--d3", "--kd2", "--kkd", "--c2d", "--c1c2"):
        p.add_argument(flag, type=int, required=True)

    p = add(sub, "fano-invariants", cmd_rr_fano_invariants, "rr fano-invariants")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--h3", type=int, required=True)
    p.add_argument("--b3", type=int, required=True)

    wpsp = groups.add_parser("wps", help="weighted projective spaces")
    sub = wpsp.add_subparsers(dest="op", required=True)

    p = add(sub, "normalize", cmd_wps_normalize, "wps normalize")
    p.add_argument("weights")

    p = add(sub, "sing", cmd_wps_sing, "wps sing")
    p.add_argument("weights")

    p = add(sub, "canonical", cmd_wps_canonical, "wps canonical")
    p.add_argument("weights")

    p = add(sub, "generated", cmd_wps_generated, "wps generated")
    p.add_argument("weights")
    p.add_argument("--m", type=int, required=True)

    p = add(sub, "lmin", cmd_wps_lmin, "wps lmin")
    p.add_argument("weights")

    p = add(sub, "model", cmd_wps_model, "wps model")
    p.add_argument("--base", required=True, help="P<n>, veronese-cone or quadric-4")
    p.add_argument("--k", type=int, required=True, help="half the branch degree")

    db = groups.add_parser("db", help="classification database")
    sub = db.add_subparsers(dest="op", required=True)

    p = add(sub, "lookup", cmd_db_lookup, "db lookup")
    p.add_argument("name")

    add(sub, "list", cmd_db_list, "db list")
    add(sub, "validate", cmd_db_validate, "db validate")

    p = add(sub, "normal-bundles", cmd_db_normal_bundles, "db normal-bundles")
    p.add_argument("--r", type=int, help="index, for line options")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--very-ample", dest="very_ample", action="store_true", default=True)
    group.add_argument("--not-very-ample", dest="very_ample", action="store_false")
    p.add_argument("--conics", action="store_true", help="conic option table instead")

    p = add(sub, "line-family-dim", cmd_db_line_family, "db line-family-dim")
    p.add_argument("--n", type=int, required=True, help="ambient projective dimension")
    p.add_argument("--d", type=int, required=True, help="hypersurface degree")

    bound = groups.add_parser("bound", help="morphism degree certificates")
    sub = bound.add_subparsers(dest="op", required=True)

    p = add(sub, "E", cmd_bound_E, "bound E")
    p.add_argument("--target", required=True)
    p.add_argument("--twist", type=int, help="defaults to the cotangent twist of the target")

    p = add(sub, "verdict", cmd_bound_verdict, "bound verdict")
    p.add_argument("--target", required=True)
    p.add_argument("--twist", type=int)

    p = add(sub, "max-m", cmd_bound_max_m, "bound max-m")
    p.add_argument("--target", required=True)
    p.add_argument("--twist", type=int)
    p.add_argument("--source", help="read source invariants from a classified family")
    p.add_argument("--h3x", type=int)
    p.add_argument("--kappa", type=int)
    p.add_argument("--c2hx", type=int)
    p.add_argument("--c3x", type=int)

    p = add(sub, "degree", cmd_bound_degree, "bound degree")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--h3x", type=int, required=True)
    p.add_argument("--h3y", type=int, required=True)

    p = add(sub, "ramification", cmd_bound_ramification, "bound ramification")
    p.add_argument("--ry", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--kappa", type=int, required=True)
    p.add_argument("--h3x", type=int, default=1)

    p = add(sub, "neg-lines", cmd_bound_neg_lines, "bound neg-lines")
    p.add_argument("--j", type=int, help="twist with T_X(j) globally generated")
    p.add_argument("--hypersurface-degree", type=int)

    p = add(sub, "feasible-m", cmd_bound_feasible_m, "bound feasible-m")
    p.add_argument("--rx", type=int, required=True)
    p.add_argument("--ry", type=int, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--very-ample", dest="very_ample", action="store_true", default=True)
    group.add_argument("--not-very-ample", dest="very_ample", action="store_false")
    p.add_argument("--m-min", type=int, default=1)
    p.add_argument("--m-max", type=int, required=True)
    p.add_argument("--witnesses", action="store_true")

    p = add(sub, "quadric", cmd_bound_quadric, "bound quadric")
    p.add_argument("--h3x", type=int, required=True)
    p.add_argument("--kappa", type=int, required=True)

    report = groups.add_parser("report", help="composite computations")
    sub = report.add_subparsers(dest="op", required=True)
    add(sub, "lines-cubic", cmd_report_lines_cubic, "report lines-cubic")

    return parser


_PRIVATE_ARGS = {"func", "command", "group", "op", "json", "db"}


def run(argv: list[str]) -> CommandResult:
    """Execute one command; argparse usage errors raise SystemExit(2)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    inputs = {k: v for k, v in vars(args).items() if k not in _PRIVATE_ARGS}
    try:
        result, provenance = args.func(args)
    except (ValueError, KeyError, RuntimeError, ZeroDivisionError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        return CommandResult(command=args.command, status="error", message=str(message))
    return CommandResult(
        command=args.command,
        status="ok",
        inputs=inputs,
        result=result,
        provenance=provenance,
    )


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    # Exact integers print in full: lift the int-to-str digit limit
    # (Python 3.10.7+), which would otherwise fail on results over 4300 digits.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        result = run(argv)
    except SystemExit as exc:  # argparse usage errors
        return int(exc.code or 0)
    use_json = "--json" in argv
    if use_json:
        print(result.to_json())
    elif result.status == "ok":
        print(_render(result.result))
    else:
        print(f"error: {result.message}", file=sys.stderr)
    return 0 if result.status == "ok" else 1


if __name__ == "__main__":
    sys.exit(main())
