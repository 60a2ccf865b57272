"""The four workloads: fixed problem ladders plus seeded draws.

``build(name, rng, root)`` returns the operation list of one round.  An
operation is a zero-argument callable timed on its own, plus a check run
after the timed region against ``checks`` (computations made apart from
fanocalc) or ``tests/oracles.py``.  The lists are built after the
wrappers of ``trace`` are installed, and the callables reach fanocalc
through module attributes, so a traced round sees every call.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from importlib import util
from typing import Any, Callable

import checks

WORKLOADS = ("grassmann", "bundles", "certificates", "cli")


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


def equals(expected):
    return lambda value: value == expected


@cache
def load_oracles(root: str):
    """``tests/oracles.py`` of the checkout, loaded once, without touching sys.path."""
    spec = util.spec_from_file_location("bench_oracles", os.path.join(root, "tests", "oracles.py"))
    module = util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def build(name: str, rng, root: str, traced: bool = False) -> list[Op]:
    if name == "cli":
        return _cli(rng, root, traced)
    return {"grassmann": _grassmann, "bundles": _bundles, "certificates": _certificates}[name](rng, root)


def _box_partitions(rows: int, cols: int, weight: int, length: int | None = None) -> list:
    out = []

    def rec(prefix, left, cap):
        if left == 0:
            if length is None or len(prefix) == length:
                out.append(tuple(prefix))
            return
        if len(prefix) == rows:
            return
        for part in range(min(cap, left), 0, -1):
            rec(prefix + [part], left - part, part)

    rec([], weight, cols)
    return out


# -- grassmann -------------------------------------------------------------------

# (k, n, |lambda|, len(lambda), |mu|, len(mu)): every product of a stratum is
# computed, in an order drawn from the seed, so the cost profile of a round
# does not depend on the seed.  SEEDED_PRODUCTS more pairs are drawn from
# SEEDED_STRATUM, whose products all cost well under the median operation,
# so they move the median by the same number of places on every seed.
PRODUCT_STRATA = (
    (2, 7, 3, 2, 4, 2),
    (3, 7, 4, 2, 5, 3),
    (3, 8, 6, 3, 6, 3),
    (4, 8, 6, 3, 6, 3),
    (4, 9, 7, 3, 7, 3),
    (4, 9, 8, 4, 6, 3),
)
SEEDED_STRATUM = (3, 9, 7, 3, 7, 2)
SEEDED_PRODUCTS = 6
# Every operation is kept under about 0.2 s on the reference machine, so
# that the probes on either side of it (worker.probe) see the CPU speed it
# ran at.  c_20(S^3 U*) on G(4,9), 3-planes on a cubic sevenfold, takes 9 s
# and is left out for that reason.
LINES_IN_PN = range(3, 11)
PLUCKER = tuple((k, n) for n in range(4, 11) for k in range(2, n // 2 + 1))
GIAMBELLI_BOX = (7, 14)
GIAMBELLI_COLUMN_ROWS = 6  # (2^7) alone takes about 1 s


def _grassmann(rng, root):
    from fanocalc import chern, reports, schubert

    def top_sym(ctx, d):
        bundle = chern.sym_power(schubert.tautological_dual(ctx), d)
        return schubert.integrate(chern.top_chern(bundle))

    def sym_top_check(k, n, d, published=None):
        def check(value):
            local = checks.bott_integral(k, n, lambda x: checks.sym_power_top(x, d))
            return value == local and published in (None, value)

        return check

    ops = []
    for n in LINES_IN_PN:
        ctx = schubert.GrassmannContext.from_projective(1, n)
        d = 2 * n - 3
        check = sym_top_check(2, n + 1, d, checks.LINES_ON_HYPERSURFACES.get(n))
        ops.append(Op(f"lines-on-degree-{d}-in-P{n}", partial(top_sym, ctx, d), check))

    def plucker(ctx):
        return schubert.integrate(schubert.sigma(ctx, 1) ** ctx.top_degree)

    for k, n in PLUCKER:
        ctx = schubert.GrassmannContext(k, n)
        expected = checks.plucker_degree(k, n)
        ops.append(Op(f"plucker-G({k},{n})", partial(plucker, ctx), equals(expected)))

    ctx = schubert.GrassmannContext(*GIAMBELLI_BOX)
    staircases = [tuple(range(rows, 0, -1)) for rows in range(1, 8)]
    columns = [(2,) * rows for rows in range(1, GIAMBELLI_COLUMN_ROWS + 1)]
    for lam in staircases + columns:
        ops.append(
            Op(
                f"giambelli-{lam}",
                partial(schubert.giambelli, ctx, lam),
                lambda value, lam=lam: value.terms == {lam: 1},
            )
        )

    def product(ctx, lam, mu):
        return schubert.multiply(schubert.sigma(ctx, *lam), schubert.sigma(ctx, *mu))

    def product_check(k, cols, lam, mu):
        return lambda value: value.terms == load_oracles(root).schubert_product(k, cols, lam, mu)

    pairs = []
    for k, n, wl, ll, wm, lm in PRODUCT_STRATA:
        lams, mus = _box_partitions(k, n - k, wl, ll), _box_partitions(k, n - k, wm, lm)
        pairs += [(k, n, lam, mu) for lam in lams for mu in mus]
    rng.shuffle(pairs)
    k, n, wl, ll, wm, lm = SEEDED_STRATUM
    lams, mus = _box_partitions(k, n - k, wl, ll), _box_partitions(k, n - k, wm, lm)
    pairs += [(k, n, rng.choice(lams), rng.choice(mus)) for _ in range(SEEDED_PRODUCTS)]
    for k, n, lam, mu in pairs:
        ctx = schubert.GrassmannContext(k, n)
        ops.append(
            Op(
                f"product-G({k},{n})-{lam}x{mu}",
                partial(product, ctx, lam, mu),
                product_check(k, n - k, lam, mu),
            )
        )

    def cubic_threefold_check(report):
        # Coefficients of the Fano surface class by localization:
        # the coefficient of s_nu is the integral against s_(nu complement).
        def coefficient(nu):
            dual = checks.box_complement(2, 3, nu)
            return checks.bott_integral(
                2, 5, lambda x: checks.sym_power_top(x, 3) * checks.schur_value(dual, x)
            )

        terms = {"2,2": coefficient((2, 2)), "3,1": coefficient((3, 1))}
        return (
            report["fano_scheme_terms"] == terms == {"2,2": 27, "3,1": 18}
            and report["closed_form_identity"] is True
            and report["lines_through_general_point"] == 6
            and report["ramification_degree"] == 30
        )

    ops.append(
        Op("lines-on-cubic-threefold", reports.lines_on_cubic_threefold, cubic_threefold_check)
    )
    return ops


# -- bundles -----------------------------------------------------------------------

# (functor, rank, power, dimension of the projective base); each drawn
# BUNDLE_DRAWS times with fresh splitting types.  The first draw of a shape
# fills the chern memo and costs at most about 0.2 s on the reference machine.
BUNDLE_SHAPES = (
    ("sym", 2, 2, 4),
    ("sym", 2, 5, 10),
    ("sym", 3, 2, 6),
    ("sym", 3, 3, 8),
    ("sym", 3, 4, 10),
    ("sym", 4, 2, 8),
    ("sym", 4, 3, 10),
    ("sym", 5, 2, 10),
    ("ext", 4, 2, 6),
    ("ext", 5, 2, 8),
    ("ext", 5, 3, 10),
    ("ext", 6, 2, 8),
    ("ext", 6, 3, 7),
    ("ext", 6, 4, 7),
)
BUNDLE_DRAWS = 4
ROOT_RANGE = (-3, 3)


def _bundles(rng, root):
    from fanocalc import chern, rings

    def split(ring, roots):
        h = ring.gen()
        bundle = chern.FormalBundle(ring, 0, ())
        for a in roots:
            bundle = chern.whitney_sum(bundle, chern.line_bundle(ring, a * h))
        return bundle

    def functor(ring, roots, name, power):
        apply = chern.sym_power if name == "sym" else chern.ext_power
        bundle = apply(split(ring, roots), power)
        return bundle, chern.top_chern(bundle)

    def whitney(ring, roots, more):
        return chern.whitney_sum(split(ring, roots), split(ring, more))

    def dual(ring, roots):
        return chern.dual(split(ring, roots))

    def twist(ring, roots, t):
        return chern.twist_line(split(ring, roots), t * ring.gen())

    def coefficients(bundle, dim):
        out = [c.coefficient((i + 1,)) for i, c in enumerate(bundle.chern)]
        return out + [0] * (dim - len(out))

    def expect(bundle, rank, root_sums, dim):
        return bundle.rank == rank and coefficients(bundle, dim) == checks.split_chern(root_sums, dim)

    ops = []
    for name, rank, power, dim in BUNDLE_SHAPES:
        ring = rings.line_ring(dim, top_integral=1)
        for _ in range(BUNDLE_DRAWS):
            roots = [rng.randint(*ROOT_RANGE) for _ in range(rank)]
            more = [rng.randint(*ROOT_RANGE) for _ in range(rng.randint(1, 3))]
            t = rng.choice([x for x in range(ROOT_RANGE[0], ROOT_RANGE[1] + 1) if x])
            sums = checks.functor_roots(roots, name, power)
            top = min(len(sums), dim)

            def check_functor(value, sums=sums, dim=dim, top=top):
                bundle, c_top = value
                c = checks.split_chern(sums, dim)
                return expect(bundle, len(sums), sums, dim) and c_top.coefficient((top,)) == c[top - 1]

            tag = f"{name}{power}-rank{rank}-P{dim}-{roots}"
            ops.append(Op(tag, partial(functor, ring, roots, name, power), check_functor))
            ops.append(
                Op(
                    f"whitney-P{dim}-{roots}+{more}",
                    partial(whitney, ring, roots, more),
                    partial(expect, rank=rank + len(more), root_sums=roots + more, dim=dim),
                )
            )
            ops.append(
                Op(
                    f"dual-P{dim}-{roots}",
                    partial(dual, ring, roots),
                    partial(expect, rank=rank, root_sums=[-a for a in roots], dim=dim),
                )
            )
            ops.append(
                Op(
                    f"twist{t}-P{dim}-{roots}",
                    partial(twist, ring, roots, t),
                    partial(expect, rank=rank, root_sums=[a + t for a in roots], dim=dim),
                )
            )
    return ops


# -- certificates ------------------------------------------------------------------

TWISTS = range(0, 13)
HYPOTHETICAL_SOURCES = 120
FEASIBLE_M_MAX = 1500
WPS_DRAWS = 60
SMALL_M_MAX = 14  # monomial enumeration stays cheap below this
SCAN_VALUES = 6000
LARGE_M = (60_000, 30_000, 40_000)
LARGE_M_WEIGHTS = ((1, 1, 1, 2, 3), (2, 3, 5, 7), (1, 1, 1, 1, 1, 2))
BRUTE_LMAX = 60


def _random_well_formed(rng, count, top):
    while True:
        w = tuple(sorted(rng.randint(1, top) for _ in range(count)))
        if checks.is_well_formed(w):
            return w


def _certificates(rng, root):
    from fanocalc import degree_bound, fano_db, riemann_roch, wps

    db = fano_db.default_database()
    records = db.records()
    with_b3 = [r for r in records if r.b3 is not None]
    ops = []

    # E and verdicts for every family with a recorded b3.
    for rec in with_b3:
        for l in TWISTS:
            expected = checks.certificate_E(rec.index, rec.H3, rec.b3, l)
            E = partial(degree_bound.E_value, rec, l)
            ops.append(Op(f"E-{rec.name}-{l}", E, equals(expected)))
            verdict = "bounded" if expected > 0 else "inconclusive"
            verdict_op = partial(degree_bound.boundedness_verdict, rec, l)
            ops.append(Op(f"verdict-{rec.name}-{l}", verdict_op, equals(verdict)))
    acceptance = ((("V4-quartic", 2), 88), (("A4", 2), -8), (("A2", 4), 0))
    for (name, l), value in acceptance:
        E = partial(degree_bound.E_value, db.lookup(name), l)
        ops.append(Op(f"E-acceptance-{name}-{l}", E, equals(value)))

    # max_multiplier over all source/target pairs with E > 0, then over
    # seeded hypothetical sources.
    positive = [
        (rec, l) for rec in with_b3 for l in TWISTS if checks.certificate_E(rec.index, rec.H3, rec.b3, l) > 0
    ]

    def multiplier_check(X, Y, l):
        inv = (X.H3X, X.kappa, X.c2HX, X.c3OmegaX)
        E = checks.certificate_E(Y.index, Y.H3, Y.b3, l)
        bound = checks.multiplier_root_bound(inv, Y.H3, E, l)

        def check(best):
            if best and not checks.multiplier_passes(inv, Y.H3, E, l, best):
                return False
            larger = range(best + 1, bound + 1)
            return not any(checks.multiplier_passes(inv, Y.H3, E, l, m) for m in larger)

        return check

    def max_m(name, X, Y, l):
        op = partial(degree_bound.max_multiplier, X, Y, l)
        ops.append(Op(f"max-m-{name}->{Y.name}-{l}", op, multiplier_check(X, Y, l)))

    for src in with_b3:
        X = degree_bound.source_invariants(src)
        for Y, l in positive:
            max_m(src.name, X, Y, l)
    for _ in range(HYPOTHETICAL_SOURCES):
        X = degree_bound.SourceInvariants(
            H3X=rng.randint(1, 64),
            kappa=rng.randint(-4, 8),
            c2HX=rng.randint(0, 200),
            c3OmegaX=rng.randint(-100, 1000),
        )
        Y, l = rng.choice(positive)
        max_m(str(X), X, Y, l)
    X = degree_bound.SourceInvariants(H3X=4, kappa=-1, c2HX=24, c3OmegaX=56)
    op = partial(degree_bound.max_multiplier, X, db.lookup("V4-quartic"), 2)
    ops.append(Op("max-m-quartic-self-map", op, equals(1)))

    # Ramification, quadric and Noether-Lefschetz bounds.
    def ramification_check(rY, k, kappa):
        def check(verdict):
            feasible = checks.ramification_feasible(rY, k, kappa, 400)
            if verdict.kind == degree_bound.INFEASIBLE_FOR_ALL_M:
                return feasible == []
            if verdict.kind == degree_bound.BOUND:
                return verdict.bound < 400 and feasible == list(range(1, verdict.bound + 1))
            # no bound: every m past some point satisfies the inequality
            return bool(feasible) and feasible == list(range(feasible[0], 401))

        return check

    for rY in (1, 2):
        for k in range(1, 9):
            for kappa in range(-4, 9):
                X = degree_bound.SourceInvariants(rng.randint(1, 30), kappa, 0, 0)
                ops.append(
                    Op(
                        f"ramification-{rY}-{k}-{kappa}",
                        partial(degree_bound.ramification_feasibility, rY, k, X),
                        ramification_check(rY, k, kappa),
                    )
                )
    for kappa in range(-4, 9):
        for H3X in (1, 2, rng.randint(3, 40)):
            X = degree_bound.SourceInvariants(H3X, kappa, 0, 0)
            op = partial(degree_bound.quadric_degree_bound, X)
            ops.append(Op(f"quadric-{H3X}-{kappa}", op, equals(checks.quadric_degree(H3X, kappa))))
        op = partial(degree_bound.noether_lefschetz_threshold, kappa)
        ops.append(Op(f"nl-threshold-{kappa}", op, equals(3 * kappa + 16)))
    X = degree_bound.SourceInvariants(H3X=2, kappa=-1, c2HX=0, c3OmegaX=0)
    ops.append(Op("quadric-acceptance", partial(degree_bound.quadric_degree_bound, X), equals(2197)))

    # Multiplier enumeration over long m ranges.
    for rX in (1, 2):
        for rY in (1, 2):
            for very_ample in (True, False):
                lo = rng.randint(1, 5)
                ms = range(lo, lo + FEASIBLE_M_MAX)
                expected = checks.feasible_multipliers(rX, rY, very_ample, ms)
                ops.append(
                    Op(
                        f"feasible-m-{rX}-{rY}-{very_ample}",
                        partial(degree_bound.feasible_multipliers, rX, rY, very_ample, ms),
                        equals(expected),
                    )
                )
    op = partial(degree_bound.feasible_multipliers, 1, 1, True, range(1, 11))
    ops.append(Op("feasible-m-acceptance", op, equals({1})))

    # Weighted projective spaces over seeded well-formed weights.
    def oracle():
        return load_oracles(root)

    def generated(w, m, check):
        ops.append(Op(f"generated-{w}-{m}", partial(wps.is_generated, w, m), check))

    for _ in range(WPS_DRAWS):
        w = _random_well_formed(rng, rng.randint(3, 6), 15)
        g, d, i = rng.randint(1, 4), rng.choice((2, 3, 5)), rng.randrange(len(w))
        if w[i] % d == 0:
            d = 1
        scaled = tuple(g * (a if j == i else d * a) for j, a in enumerate(w))
        ops.append(
            Op(
                f"normalize-{scaled}",
                partial(wps.normalize, scaled),
                lambda v, w=w: v.weights == w and checks.is_well_formed(v.weights),
            )
        )
        ops.append(
            Op(
                f"strata-{w}",
                partial(wps.singular_strata, w),
                lambda strata, w=w: {(s.k, s.coords) for s in strata} == checks.singular_strata(w)
                and len(strata) == len(checks.singular_strata(w)),
            )
        )
        m = rng.randint(0, SMALL_M_MAX)
        generated(w, m, lambda v, w=w, m=m: v == oracle().generated_on_smooth_locus(w, m))
        # m sized so that every draw scans about SCAN_VALUES values in all
        m = SCAN_VALUES // len(checks.minimal_coprime_supports(w)) + rng.randrange(20)
        generated(w, m, lambda v, w=w, m=m: v == checks.generated_by_semigroups(w, m))
    for w, m in zip(LARGE_M_WEIGHTS, LARGE_M):
        m += rng.randrange(100)
        generated(w, m, lambda v, w=w, m=m: v == checks.generated_by_semigroups(w, m))

    def lmin_check(w):
        return lambda v: v == oracle().cotangent_twist_brute(w, lmax=BRUTE_LMAX)

    ambients = sorted({r.ambient.weights for r in records if r.ambient is not None})
    for w in ambients + [(1,) * n for n in range(4, 9)]:
        ops.append(Op(f"lmin-{w}", partial(wps.cotangent_twist_lmin, w), lmin_check(w)))
    for rec in records:
        if rec.very_ample or rec.ambient is not None:
            check = equals(2) if rec.very_ample else lmin_check(rec.ambient.weights)
            op = partial(degree_bound.cotangent_twist, rec)
            ops.append(Op(f"cotangent-twist-{rec.name}", op, check))

    # Riemann-Roch on the table and on seeded twists.
    def chi3(r, H3, t):
        data = riemann_roch.ThreefoldIntersectionData(
            D3=t**3 * H3, KD2=-r * t * t * H3, KKD=r * r * t * H3, c2D=t * (24 // r), c1c2=24
        )
        return riemann_roch.chi_threefold(data)

    for rec in records:
        r, H3 = rec.index, rec.H3
        anti = Fraction(r**3 * H3, 2) + 3  # chi(-K) = (-K)^3 / 2 + 3
        ops.append(Op(f"chi-anticanonical-{rec.name}", partial(chi3, r, H3, r), equals(anti)))
        ops.append(Op(f"chi-H-{rec.name}", partial(chi3, r, H3, 1), equals(Fraction(rec.h0_H))))
        if r == 2:
            ops.append(Op(f"h0-index2-{rec.name}", partial(chi3, r, H3, 1), equals(Fraction(H3 + 2))))
        for t in sorted(rng.sample(range(-6, 7), 4)):
            ops.append(Op(f"chi-{rec.name}-{t}H", partial(chi3, r, H3, t), equals(checks.fano_chi(r, H3, t))))
        ops.append(Op(f"validate-{rec.name}", partial(fano_db.validate, rec), equals([])))
        if rec.b3 is not None:
            def invariants_check(inv, rec=rec):
                genus = (rec.H3 + 2) // 2 if rec.index == 1 else None
                return (inv.c2H * rec.index, inv.c3Omega, inv.genus) == (24, rec.b3 - 4, genus)

            op = partial(riemann_roch.derive_fano_invariants, r, H3, rec.b3)
            ops.append(Op(f"invariants-{rec.name}", op, invariants_check))
    for d in range(0, 12):
        data = riemann_roch.SurfaceIntersectionData(DD=d * d, DK=-3 * d, KK=9, c2=3)
        op = partial(riemann_roch.chi_surface, data)
        ops.append(Op(f"chi-P2-O({d})", op, equals(Fraction((d + 1) * (d + 2), 2))))
    return ops


# -- cli ------------------------------------------------------------------------------

CLI_ENTRY = "import sys; from fanocalc.cli import main; sys.exit(main())"


def cli_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def run_cli(argv, root, traced=False, timeout=120):
    """One fresh ``fanocalc --json`` process; returns its parsed document and
    its standard error, where the traced entry ``cli_child.py`` writes its spans."""
    if traced:
        head = [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")]
    else:
        head = [sys.executable, "-c", CLI_ENTRY]
    proc = subprocess.run(
        head + ["--json"] + list(argv),
        capture_output=True,
        text=True,
        env=cli_env(root),
        cwd=root,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stdout[-300:]} {proc.stderr[-300:]}")
    return json.loads(proc.stdout), proc.stderr


def _poly_coefficients(texts, dim):
    """Coefficients of ``c*h^d`` strings, one homogeneous class per entry."""
    out = []
    for degree, text in enumerate(texts, start=1):
        text = text.replace(" ", "")
        mono = "h" if degree == 1 else f"h^{degree}"
        if text == "0":
            out.append(0)
        elif text == mono:
            out.append(1)
        elif text == "-" + mono:
            out.append(-1)
        else:
            coeff, _, rest = text.partition("*")
            if rest != mono:
                raise ValueError(f"unexpected class {text!r}")
            out.append(int(coeff))
    return out + [0] * (dim - len(out))


def _cli(rng, root, traced):
    def oracle():
        return load_oracles(root)

    def result(doc):
        return doc[0]["result"] if doc[0]["status"] == "ok" else None

    def split_check(roots_sums, dim, rank):
        return lambda doc: result(doc)["rank"] == rank and _poly_coefficients(
            result(doc)["chern"], dim
        ) == checks.split_chern(roots_sums, dim)

    def terms(mapping):
        return {",".join(map(str, k)) or "0": v for k, v in mapping.items()}

    def res(doc, *keys):
        value = result(doc)
        return tuple(value[k] for k in keys) if keys else value

    table = [
        # README examples
        ("schubert integrate --gr 1,4 --expr s[1]^6", lambda d: res(d) == checks.plucker_degree(2, 5) == 5),
        (
            "schubert mul --gr 1,4 --lhs s[1,1] --rhs s[2]",
            lambda d: res(d, "terms") == (terms(oracle().schubert_product(2, 3, (1, 1), (2,))),),
        ),
        (
            "chern top --taut 1,3 --sym 3 --integrate",
            lambda d: res(d) == checks.LINES_ON_HYPERSURFACES[3],
        ),
        (
            "rr chi3 --d3 4 --kd2 -4 --kkd 4 --c2d 24 --c1c2 24",
            lambda d: res(d) == {"chi": "5", "integral": True},
        ),
        (
            "wps lmin 1,1,1,1,2",
            lambda d: res(d) == oracle().cotangent_twist_brute((1, 1, 1, 1, 2), BRUTE_LMAX) == 3,
        ),
        ("wps model --base P3 --k 2", lambda d: res(d, "ambient", "degree") == ([1, 1, 1, 1, 2], 4)),
        ("db lookup A5", lambda d: res(d, "index", "H3", "h0_H") == (2, 5, 5 + 2)),
        ("db validate", lambda d: res(d) == {"records": 19, "violations": {}}),
        (
            "bound E --target V4-quartic --twist 2",
            lambda d: res(d, "E") == (checks.certificate_E(1, 4, 60, 2),) == (88,),
        ),
        (
            "bound max-m --target V4-quartic --twist 2 --source V4-quartic",
            lambda d: res(d) == {"m_max": 1, "twist": 2},
        ),
        (
            "bound ramification --ry 1 --k 2 --kappa -1",
            lambda d: res(d, "kind") == ("infeasible_for_all_m",)
            and checks.ramification_feasible(1, 2, -1, 400) == [],
        ),
        (
            "bound feasible-m --rx 1 --ry 1 --m-max 10 --witnesses",
            lambda d: res(d, "feasible")
            == (sorted(checks.feasible_multipliers(1, 1, True, range(1, 11))),)
            == ([1],),
        ),
        (
            "bound quadric --h3x 2 --kappa -1",
            lambda d: res(d, "degree_bound") == (checks.quadric_degree(2, -1),) == (2197,),
        ),
        (
            "report lines-cubic",
            lambda d: res(d, "lines_through_general_point", "fano_scheme_terms")
            == (6, {"2,2": 27, "3,1": 18}),
        ),
        # the remaining subcommands
        (
            "schubert pieri --gr 2,5 --expr s[2,1] --a 2",
            lambda d: res(d, "terms") == (terms(oracle().schubert_product(3, 3, (2, 1), (2,))),),
        ),
        (
            "schubert giambelli --gr 3,7 --partition 3,2,1",
            lambda d: res(d, "terms") == ({"3,2,1": 1},),
        ),
        (
            "chern sym --split 6:1,2,-1 --k 2",
            split_check(checks.functor_roots([1, 2, -1], "sym", 2), 6, 6),
        ),
        (
            "chern ext --split 6:1,2,-1,3 --k 2",
            split_check(checks.functor_roots([1, 2, -1, 3], "ext", 2), 6, 6),
        ),
        ("chern dual --split 4:1,2,3", split_check([-1, -2, -3], 4, 3)),
        ("chern twist --split 4:1,-2 --t 2", split_check([3, 0], 4, 2)),
        (
            "rr chi2 --dd 1 --dk -3 --kk 9 --c2 3",
            lambda d: res(d) == {"chi": "3", "integral": True},
        ),
        (
            "rr fano-invariants --r 1 --h3 4 --b3 60",
            lambda d: res(d, "c2H", "c3Omega", "genus") == (24, 56, 3),
        ),
        # (1,1,2,3) with all weights but the 3 doubled
        (
            "wps normalize 2,2,4,3",
            lambda d: checks.is_well_formed(tuple(res(d))) and res(d) == [1, 1, 2, 3],
        ),
        (
            "wps sing 1,1,2,3,6",
            lambda d: {(s["k"], tuple(s["coords"])) for s in res(d)}
            == checks.singular_strata((1, 1, 2, 3, 6)),
        ),
        ("wps canonical 1,1,1,1,2", lambda d: res(d) == -6),
        (
            "wps generated 2,3,5 --m 1",
            lambda d: res(d) is oracle().generated_on_smooth_locus((2, 3, 5), 1) is False,
        ),
        ("db list", lambda d: len(res(d)) == 19 and {"P3", "Q3", "V22"} <= set(res(d))),
        ("db normal-bundles --r 1", lambda d: res(d, "options") == ([[0, -1], [1, -2]],)),
        (
            "db normal-bundles --conics",
            lambda d: res(d, "options") == ([list(s) for s in checks.CONIC_SPLITTINGS],),
        ),
        ("db line-family-dim --n 4 --d 3", lambda d: res(d) == 2),
        (
            "bound verdict --target A2 --twist 3",
            lambda d: res(d) == "bounded" and checks.certificate_E(2, 2, 20, 3) > 0,
        ),
        ("bound degree --m 2 --h3x 4 --h3y 4", lambda d: res(d) == 8),
        ("bound neg-lines --hypersurface-degree 4", lambda d: res(d) == {"j": 2, "m_bound": 2}),
    ]
    commands = [(line.split(), check) for line, check in table]

    # Seeded draws.
    n = rng.randint(3, 5)
    commands.append(
        (
            ["schubert", "integrate", "--gr", f"1,{n}", "--expr", f"s[1]^{2 * (n - 1)}"],
            lambda d, n=n: result(d) == checks.plucker_degree(2, n + 1),
        )
    )
    w = _random_well_formed(rng, rng.randint(3, 5), 9)
    m = rng.randint(0, 12)
    commands.append(
        (
            ["wps", "generated", ",".join(map(str, w)), "--m", str(m)],
            lambda d, w=w, m=m: result(d) == oracle().generated_on_smooth_locus(w, m),
        )
    )
    H3 = rng.randint(1, 5)
    commands.append(
        (
            f"rr chi3 --d3 {H3} --kd2 {-2 * H3} --kkd {4 * H3} --c2d 12 --c1c2 24".split(),
            lambda d, H3=H3: result(d) == {"chi": str(H3 + 2), "integral": True},
        )
    )
    roots = [rng.randint(*ROOT_RANGE) for _ in range(3)]
    commands.append(
        (
            ["chern", "sym", "--split", "6:" + ",".join(map(str, roots)), "--k", "2"],
            split_check(checks.functor_roots(roots, "sym", 2), 6, 6),
        )
    )
    kappa = rng.randint(-4, 4)
    commands.append(
        (
            ["bound", "quadric", "--h3x", "2", "--kappa", str(kappa)],
            lambda d, kappa=kappa: result(d)["degree_bound"] == checks.quadric_degree(2, kappa),
        )
    )

    return [Op(" ".join(argv), partial(run_cli, argv, root, traced), check) for argv, check in commands]
