"""Computations made apart from fanocalc, used to check the benchmark's answers.

Nothing here imports fanocalc.  Each function recomputes a quantity by a
route that shares no code with the package: torus localization on
Grassmannians (Bott's residue formula), the hook-length formula, direct
expansion of split total Chern classes over root multisets, Apery sets of
numerical semigroups, and brute force over the defining inequalities of the
degree certificates.  Published values are cited in ``bench/README.md``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import factorial, gcd, prod

# Lines on a general hypersurface of degree 2n-3 in P^n (OEIS A027363).
LINES_ON_HYPERSURFACES = {
    3: 27,
    4: 2875,
    5: 698005,
    6: 305093061,
    7: 210480374951,
    8: 210776836330775,
}


# -- Grassmannians -------------------------------------------------------------

def _torus_weights(n: int) -> tuple[int, ...]:
    # Any distinct integers work: the residue sum is an identity in them.
    return tuple(j * j + 2 * j for j in range(n))


def bott_integral(k: int, n: int, integrand) -> Fraction:
    """Integral over linear G(k, n) of an equivariant class of top degree.

    ``integrand(roots)`` receives the torus weights of U* at a fixed point
    (the Chern roots there) and returns the class's value.  The tangent
    space Hom(U, Q) at the fixed point spanned by the coordinates in I has
    weights t_j - t_i for i in I, j not in I.
    """
    t = _torus_weights(n)
    total = Fraction(0)
    for fixed in combinations(range(n), k):
        others = [j for j in range(n) if j not in fixed]
        roots = tuple(-t[i] for i in fixed)
        euler = prod(t[j] - t[i] for i in fixed for j in others)
        total += Fraction(integrand(roots), euler)
    return total


def sym_power_top(roots, d: int) -> int:
    """Top Chern class of S^d of a bundle with the given Chern roots."""
    return prod(sum(group) for group in combinations_with_replacement(roots, d))


def _complete_homogeneous(values, top: int) -> list[int]:
    """h_0..h_top of the given values."""
    h = [1] + [0] * top
    for x in values:
        for a in range(1, top + 1):
            h[a] += x * h[a - 1]
    return h


def _det(rows) -> Fraction:
    m = [[Fraction(x) for x in row] for row in rows]
    size, sign, out = len(m), 1, Fraction(1)
    for c in range(size):
        pivot = next((r for r in range(c, size) if m[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        out *= m[c][c]
        for r in range(c + 1, size):
            f = m[r][c] / m[c][c]
            for j in range(c, size):
                m[r][j] -= f * m[c][j]
    return sign * out


def schur_value(shape, values) -> Fraction:
    """s_shape evaluated at the given values (Jacobi-Trudi determinant)."""
    if not shape:
        return Fraction(1)
    size = len(shape)
    h = _complete_homogeneous(values, shape[0] + size)

    def hh(a):
        return h[a] if a >= 0 else 0

    return _det([[hh(shape[i] - i + j) for j in range(size)] for i in range(size)])


def box_complement(k: int, cols: int, shape) -> tuple[int, ...]:
    padded = tuple(shape) + (0,) * (k - len(shape))
    return tuple(x for x in (cols - padded[k - 1 - i] for i in range(k)) if x)


def plucker_degree(k: int, n: int) -> int:
    """Degree of G(k, n) in its Plucker embedding: standard tableaux of the
    k x (n-k) rectangle, by the hook-length formula."""
    cols = n - k
    hooks = prod((k - i) + (cols - j) - 1 for i in range(k) for j in range(cols))
    return factorial(k * cols) // hooks


# -- split bundles over projective space -----------------------------------------

def split_chern(root_sums, dim: int) -> list[int]:
    """c_1..c_dim of a split bundle whose roots are ``s * h``, ``h^(dim+1) = 0``."""
    total = [1] + [0] * dim
    for s in root_sums:
        if not s:
            continue
        for d in range(dim, 0, -1):
            total[d] += s * total[d - 1]
    return total[1:]


def functor_roots(roots, functor: str, power: int) -> list[int]:
    picker = combinations if functor == "ext" else combinations_with_replacement
    return [sum(group) for group in picker(roots, power)]


# -- weighted projective spaces ----------------------------------------------------

def is_well_formed(weights) -> bool:
    if gcd(*weights) != 1:
        return False
    return all(gcd(*(weights[:i] + weights[i + 1 :])) == 1 for i in range(len(weights)))


def singular_strata(weights) -> set[tuple[int, tuple[int, ...]]]:
    """(order, support) of the maximal coordinate strata with a nontrivial
    generic stabilizer, over every divisor d >= 2 rather than primes."""
    supports = set()
    for d in range(2, max(weights) + 1):
        s = tuple(i for i, a in enumerate(weights) if a % d == 0)
        if s:
            supports.add(s)
    maximal = [s for s in supports if not any(s != t and set(s) <= set(t) for t in supports)]
    return {(gcd(*(weights[i] for i in s)), s) for s in maximal}


def _apery(gens) -> list[int]:
    """Least element of the semigroup in each residue class mod min(gens)."""
    a = min(gens)
    best = [None] * a
    best[0] = 0
    frontier = [0]
    while frontier:  # Bellman-Ford relaxation; the graph has a nodes
        nxt = []
        for v in frontier:
            for g in gens:
                w = v + g
                r = w % a
                if best[r] is None or w < best[r]:
                    best[r] = w
                    nxt.append(w)
        frontier = nxt
    return best


def minimal_coprime_supports(weights) -> list[tuple[int, ...]]:
    """Index sets whose weights have gcd 1 and contain no smaller such set."""
    coprime = [
        s
        for size in range(1, len(weights) + 1)
        for s in combinations(range(len(weights)), size)
        if gcd(*(weights[i] for i in s)) == 1
    ]
    return [s for s in coprime if not any(t != s and set(t) <= set(s) for t in coprime)]


def generated_by_semigroups(weights, m: int) -> bool:
    """O(m) is base-point free on the smooth locus iff m lies in the
    semigroup of every coprime set of weights."""
    for size in range(1, len(weights) + 1):
        for subset in combinations(range(len(weights)), size):
            gens = tuple(weights[i] for i in subset)
            if gcd(*gens) != 1:
                continue
            apery = _apery(gens)
            if m < apery[m % min(gens)]:
                return False
    return True


# -- degree certificates -----------------------------------------------------------

def certificate_E(r: int, H3: int, b3: int, l: int) -> int:
    """c3(Omega) + c2(Omega).lH + c1(Omega).(lH)^2 from Betti numbers and Todd.

    chi_top = b0 + b2 + b4 + b6 - b3 = 4 - b3 and c3(Omega) = -chi_top;
    chi(O) = c1 c2 / 24 = 1 with c1 = rH gives c2.H = 24 / r.
    """
    chi_top = 4 - b3
    return -chi_top + l * (24 // r) + l * l * (-r) * H3


def multiplier_passes(X, H3Y: int, E: int, l: int, m: int) -> bool:
    """The comparison E H_X^3 m^3 <= H_Y^3 (c3 + l m c2H + l^2 m^2 kappa H_X^3)."""
    H3X, kappa, c2H, c3 = X
    return E * H3X * m**3 <= H3Y * (c3 + l * m * c2H + l * l * m * m * kappa * H3X)


def multiplier_root_bound(X, H3Y: int, E: int, l: int) -> int:
    """Every m at or past this bound fails: there a m^3 exceeds
    (|b| + |c| + |d|) m^2, which dominates the right-hand side."""
    H3X, kappa, c2H, c3 = X
    a = E * H3X
    rest = abs(H3Y * kappa * H3X * l * l) + abs(H3Y * c2H * l) + abs(H3Y * c3)
    return 1 + rest // a + 1


def ramification_feasible(rY: int, k: int, kappa: int, m_max: int) -> list[int]:
    """Multipliers m <= m_max with kappa >= m (k/2 - rY)."""
    return [m for m in range(1, m_max + 1) if 2 * kappa >= m * (k - 2 * rY)]


def quadric_degree(H3X: int, kappa: int) -> int:
    """Largest integral m^3 H_X^3 / 2 with m <= 3 kappa + 16."""
    threshold = 3 * kappa + 16
    m = max(x for x in range(1, threshold + 1) if x**3 * H3X % 2 == 0)
    return m**3 * H3X // 2


def _line_options(r: int, very_ample: bool) -> list[tuple[int, int]]:
    # O(a) + O(b), a >= b, a + b = r - 2; a <= 1 when H is very ample, one
    # more type (a = 2) otherwise.
    top = 1 if very_ample else 2
    return [(a, r - 2 - a) for a in range(top, -1, -1) if a >= r - 2 - a]


CONIC_SPLITTINGS = ((0, 0), (1, -1), (2, -2), (4, -4))


def feasible_multipliers(rX: int, rY: int, very_ample: bool, ms) -> set[int]:
    """Multipliers admitting a line (or, in index 1, conic) component whose
    normal bundle dominates the pulled-back target pattern."""
    components = [(1, _line_options(rX, very_ample))]
    if rX == 1:
        components.append((2, list(CONIC_SPLITTINGS)))
    out = set()
    for m in ms:
        for h, sources in components:
            for c, d in _line_options(rY, very_ample):
                t = sorted((c * m * h, d * m * h), reverse=True)
                if any(t[0] >= max(s) and t[1] >= min(s) for s in sources):
                    out.add(m)
    return out


def fano_chi(r: int, H3: int, t: int) -> Fraction:
    """chi(O(tH)) on a Fano threefold of index r and degree H^3, from
    Riemann-Roch with c1 = rH, c2.H = 24/r and chi(O) = 1."""
    return Fraction(H3 * t * (t + r) * (2 * t + r), 12) + Fraction(2 * t + r, r)
