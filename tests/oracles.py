"""Independent brute-force oracles for the test suite.

These deliberately avoid the code paths they check: Schubert products are
recomputed through monomial expansions of Schur polynomials (semistandard
tableaux), Schubert expressions by splitting the text on its operators and
folding those products, horizontal strips by filtering every partition of the box
through the interlacing inequalities, power bundles through direct
enumeration of root multisets over actual split bundles, universal
polynomials through full monomial expansions and, where those stop, through
power sums polynomial in e_1..e_w, their substitution into the
base ring through each term's product of Chern-class powers, products in one
generator through dense coefficient lists, products of monomial and
elementary symmetric functions by counting subsets, direct sums and line
twists through the index formulas for each Chern class, the multiplier
search through a scan of every candidate, base-point freeness on
weighted projective spaces through explicit monomial lists and O(m)
reachability lists, minimal coprime supports through all subsets of the
weights, singular strata through the primes found by trial division,
well-formedness through the gcd of every n of the n + 1 weights, well
forming through the reduction loop that divides out one common factor at a
time, and the partitions of a box by weight through the q-Pascal recurrence of the
Gaussian binomials.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, combinations_with_replacement
from math import comb, gcd
from operator import add


# -- Schur polynomials from semistandard tableaux ---------------------------

def _rows(length: int, mins: tuple[int, ...], nvars: int):
    row = [0] * length

    def rec(i: int, lo: int):
        if i == length:
            yield tuple(row)
            return
        for v in range(max(lo, mins[i]), nvars + 1):
            row[i] = v
            yield from rec(i + 1, v)

    yield from rec(0, 1)


@cache
def schur_monomials(shape: tuple[int, ...], nvars: int) -> dict:
    """Monomial expansion of the Schur polynomial s_shape(x_1..x_nvars)."""
    result: dict = {}
    exps = [0] * nvars

    def rec(r: int, above: tuple[int, ...]):
        if r == len(shape):
            key = tuple(exps)
            result[key] = result.get(key, 0) + 1
            return
        length = shape[r]
        mins = tuple(above[i] + 1 if i < len(above) else 1 for i in range(length))
        for row in _rows(length, mins, nvars):
            for v in row:
                exps[v - 1] += 1
            rec(r + 1, row)
            for v in row:
                exps[v - 1] -= 1

    if len(shape) > nvars:
        return {}
    rec(0, ())
    return result


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return out


def schur_expand(poly: dict, nvars: int) -> dict:
    """Expand a symmetric polynomial in the Schur basis (greedy on the
    lex-leading monomial, whose exponent is the leading partition)."""
    residue = {e: c for e, c in poly.items() if c}
    out: dict = {}
    while residue:
        alpha = max(residue)
        lam = tuple(x for x in alpha if x)
        assert all(alpha[i] >= alpha[i + 1] for i in range(nvars - 1)), alpha
        c = residue[alpha]
        out[lam] = c
        for mono, mult in schur_monomials(lam, nvars).items():
            val = residue.get(mono, 0) - c * mult
            if val:
                residue[mono] = val
            else:
                residue.pop(mono, None)
    return out


def schubert_product(k: int, cols: int, lam: tuple[int, ...], mu: tuple[int, ...]) -> dict:
    """Product of two Schubert classes of G(k, k+cols) via Schur polynomials
    in k variables, discarding partitions that leave the box."""
    product = _poly_mul(schur_monomials(tuple(lam), k), schur_monomials(tuple(mu), k))
    expansion = schur_expand(product, k)
    return {nu: c for nu, c in expansion.items() if not nu or nu[0] <= cols}


def _class_product(k: int, cols: int, x: dict, y: dict) -> dict:
    """Product of two integer combinations of Schubert classes of G(k, k+cols)."""
    out: dict = {}
    for lam, a in x.items():
        for mu, b in y.items():
            if sum(lam) + sum(mu) <= k * cols:
                for nu, c in schubert_product(k, cols, lam, mu).items():
                    out[nu] = out.get(nu, 0) + a * b * c
    return {nu: c for nu, c in out.items() if c}


def schubert_expr_value(k: int, cols: int, text: str) -> dict:
    """The ``{partition: coefficient}`` value on G(k, k+cols) of a well-formed
    expression in ``s[l1,l2,...]``, integer literals, ``+``, ``*`` and ``^``
    (an integer exponent): split on ``+``, then ``*``, then ``^``, fold each
    split left to right, and multiply classes with ``schubert_product``."""
    total: dict = {}
    for term in text.split("+"):
        product = {(): 1}
        for factor in term.split("*"):
            base, *exponents = (piece.strip() for piece in factor.split("^"))
            if base.startswith("s["):
                value = {tuple(int(x) for x in base[2:-1].split(",") if x.strip()): 1}
            else:
                value = {(): int(base)}
            for exponent in exponents:
                power = {(): 1}
                for _ in range(int(exponent)):
                    power = _class_product(k, cols, power, value)
                value = power
            product = _class_product(k, cols, product, value)
        for nu, c in product.items():
            total[nu] = total.get(nu, 0) + c
    return {nu: c for nu, c in total.items() if c}


def horizontal_strips_brute(lam: tuple[int, ...], a: int, rows: int, cols: int) -> list:
    """Every partition mu of the rows x cols box with |mu| - |lam| = a and
    mu_1 >= lam_1 >= mu_2 >= lam_2 >= ..., which makes mu/lam a horizontal
    strip of size a."""
    padded = tuple(lam) + (0,) * (rows - len(lam))
    out = []
    # a descending range makes every combination weakly decreasing
    for mu in combinations_with_replacement(range(cols, -1, -1), rows):
        if sum(mu) - sum(padded) != a:
            continue
        if all(mu[i] >= padded[i] for i in range(rows)) and all(
            padded[i] >= mu[i + 1] for i in range(rows - 1)
        ):
            out.append(tuple(x for x in mu if x))
    return out


@cache
def gaussian_binomial(n: int, k: int) -> tuple[int, ...]:
    """Coefficients of the Gaussian binomial [n choose k]_q, lowest degree
    first; the coefficient of q^w counts the partitions of weight w in a
    k x (n - k) box.  Built by q-Pascal: [n, k] = [n-1, k-1] + q^k [n-1, k]."""
    if k == 0 or k == n:
        return (1,)
    out = [0] * (k * (n - k) + 1)
    for w, c in enumerate(gaussian_binomial(n - 1, k - 1)):
        out[w] += c
    for w, c in enumerate(gaussian_binomial(n - 1, k)):
        out[w + k] += c
    return tuple(out)


# -- polynomials in one generator, as dense coefficient lists -----------------

def one_generator_product(a: dict, b: dict, weight: int, truncation: int) -> dict:
    """The product of two polynomials in one generator of degree ``weight``,
    given and returned as ``{(exponent,): coefficient}``: the full
    convolution of their dense coefficient lists, then every exponent of
    degree above ``truncation`` and every zero coefficient dropped."""
    dense_a = [a.get((e,), 0) for e in range(max((e for (e,) in a), default=0) + 1)]
    dense_b = [b.get((e,), 0) for e in range(max((e for (e,) in b), default=0) + 1)]
    full = [0] * (len(dense_a) + len(dense_b) - 1)
    for i, x in enumerate(dense_a):
        for j, y in enumerate(dense_b):
            full[i + j] += x * y
    return {(e,): c for e, c in enumerate(full) if c and e * weight <= truncation}


# -- direct sums and line twists, one Chern class at a time -------------------

def _padded_classes(b) -> list:
    """``c_0..c_rank`` of a bundle: the unit, the stored classes, then zeros."""
    return [b.ring.one(), *b.chern] + [b.ring.zero()] * (b.rank - len(b.chern))


def whitney_convolution(a, b) -> list:
    """``c_1..c_min(rank, truncation)`` of a direct sum by the index
    convolution ``c_i = sum_p c_p(a) c_(i-p)(b)``."""
    ca, cb = _padded_classes(a), _padded_classes(b)
    out = []
    for i in range(1, min(a.rank + b.rank, a.ring.truncation) + 1):
        acc = a.ring.zero()
        for p in range(max(0, i - b.rank), min(i, a.rank) + 1):
            acc = acc + ca[p] * cb[i - p]
        out.append(acc)
    return out


def twist_binomial(b, t) -> list:
    """``c_1..c_min(rank, truncation)`` of the twist by a line bundle with
    first Chern class ``t`` by the binomial rule
    ``c_i = sum_j C(rank-j, i-j) c_j t^(i-j)``."""
    cs = _padded_classes(b)
    out = []
    for i in range(1, min(b.rank, b.ring.truncation) + 1):
        acc = b.ring.zero()
        for j in range(0, i + 1):
            acc = acc + comb(b.rank - j, i - j) * (cs[j] * t ** (i - j))
        out.append(acc)
    return out


# -- power bundles of split bundles -----------------------------------------

def graded_component(elem, degree: int):
    """Degree-d part of a truncated-polynomial ring element."""
    ring = elem.ring
    terms = {
        exps: c
        for exps, c in elem.terms.items()
        if sum(e * d for e, d in zip(exps, ring.degrees)) == degree
    }
    return type(elem)(ring, terms)


def split_power_chern(ring, roots, k: int, op: str) -> list:
    """Chern classes of S^k or Lambda^k of a split bundle with the given
    degree-1 roots, by direct enumeration of multisets / subsets."""
    picker = combinations if op == "ext" else combinations_with_replacement
    total = ring.one()
    for group in picker(range(len(roots)), k):
        s = ring.zero()
        for i in group:
            s = s + roots[i]
        total = total * (ring.one() + s)
    return [graded_component(total, d) for d in range(1, ring.truncation + 1)]


@cache
def _elementary_product(emon: tuple[int, ...], nvars: int) -> dict:
    """``prod e_j**m_j`` over all plain monomials of ``nvars`` variables."""
    poly = {(0,) * nvars: 1}
    for j, mult in enumerate(emon, start=1):
        e_j = {
            tuple(1 if i in subset else 0 for i in range(nvars)): 1
            for subset in combinations(range(nvars), j)
        }
        for _ in range(mult):
            poly = _poly_mul(poly, e_j)
    return poly


def power_epolys_brute(op: str, rank: int, k: int, dmax: int) -> tuple:
    """Chern classes of S^k or Lambda^k of a rank-``rank`` bundle as
    polynomials in e_1..e_rank, laid out as one sorted tuple of
    ``(e-exponent tuple, coefficient)`` pairs per degree 1..min(new rank,
    dmax): the full product over the formal roots on every monomial, then
    Gauss's algorithm on every monomial of each graded component."""
    picker = combinations if op == "ext" else combinations_with_replacement
    groups = list(picker(range(rank), k))
    total = {(0,) * rank: 1}
    for group in groups:
        factor = {(0,) * rank: 1}
        for i in group:
            unit = tuple(int(j == i) for j in range(rank))
            factor[unit] = factor.get(unit, 0) + 1
        total = {e: c for e, c in _poly_mul(total, factor).items() if sum(e) <= dmax}
    out = []
    for d in range(1, min(len(groups), dmax) + 1):
        residue = {e: c for e, c in total.items() if c and sum(e) == d}
        epoly: dict = {}
        while residue:
            alpha = max(residue)
            assert all(alpha[i] >= alpha[i + 1] for i in range(rank - 1)), alpha
            c = residue[alpha]
            emon = tuple(alpha[i] - alpha[i + 1] for i in range(rank - 1)) + (alpha[-1],)
            epoly[emon] = epoly.get(emon, 0) + c
            for mono, coeff in _elementary_product(emon, rank).items():
                val = residue.get(mono, 0) - c * coeff
                if val:
                    residue[mono] = val
                else:
                    residue.pop(mono, None)
        out.append(tuple(sorted(epoly.items())))
    return tuple(out)


def _add_scaled(out: dict, poly: dict, scale: int) -> None:
    for e, c in poly.items():
        out[e] = out.get(e, 0) + scale * c


def _eulerian_row(p: int) -> list[int]:
    """Coefficients of ``t A_p(t)``, t^0 to t^(p+1), A_p the Eulerian
    polynomial: ``sum_(m >= 1) m^p t^m = t A_p(t) / (1 - t)^(p + 1)``, so
    they are those of the series times ``(1 - t)^(p + 1)``."""
    return [sum((-1) ** i * comb(p + 1, i) * (s - i) ** p for i in range(s)) for s in range(p + 2)]


def power_epolys_by_power_sums(op: str, rank: int, k: int, dmax: int) -> tuple:
    """What :func:`power_epolys_brute` returns, by a route whose cost does
    not grow with the number of roots: no product over the roots is
    expanded.  Newton's identity gives the power sums ``pi_j`` of the
    ``rank`` roots as polynomials in e_1..e_w, w = min(rank, top).  The
    lambda-ring identity ``sum_k t^k ch(S^k E) = prod_i (1 - t e^(x_i))^(-1)``
    (``prod_i (1 + t e^(x_i))`` for Lambda^k) with ``sum_(m >= 1) m^(j-1)
    t^m = t A_(j-1)(t) / (1 - t)^j`` gives the power sums ``Q_d`` of the new
    roots: ``E_0 = 1``, ``E_d(t) = sum_j C(d - 1, j - 1) pi_j B_j(t)
    E_(d-j)(t)`` with ``B_j(t) = t A_(j-1)(t)`` (``t A_(j-1)(-t)``), and
    ``Q_d = [t^k] E_d(t) (1 - t)^(-rank-d)`` (``E_d(t) (1 + t)^(rank-d)``).
    Newton's identity, its divisions checked exact, turns the Q_d into the
    classes (Macdonald, *Symmetric Functions and Hall Polynomials*, I.2)."""
    top = min(comb(rank + k - 1, k) if op == "sym" else comb(rank, k), dmax)
    w = min(rank, top)
    zero = (0,) * w
    cap = min(k, top)  # the highest power of t read
    # eps_j = (-1)^j e_j, the coefficients of prod_i (1 - x_i u)
    eps = [{zero: 1}] + [
        {tuple(int(i == j - 1) for i in range(w)): (-1) ** j} if j <= w else {}
        for j in range(1, top + 1)
    ]
    sums = [{zero: rank}]  # pi_n = -n eps_n - sum_(0 < i < n) eps_i pi_(n-i)
    for n in range(1, top + 1):
        pi = {e: -n * c for e, c in eps[n].items()}
        for i in range(1, n):
            _add_scaled(pi, _poly_mul(eps[i], sums[n - i]), -1)
        sums.append(pi)
    steps = [None]  # B_j(t) as {s: coefficient of t^s}
    for j in range(1, top + 1):
        row = _eulerian_row(j - 1)[: cap + 1]
        steps.append({s: -a if op == "ext" and s % 2 == 0 else a for s, a in enumerate(row) if a})
    series = [{0: {zero: 1}}]  # E_d(t) as {s: polynomial in e}, up to t^cap
    power_sums = [None]  # Q_d
    for d in range(1, top + 1):
        out: dict = {}
        for j in range(1, d + 1):
            scale = comb(d - 1, j - 1)
            for u, poly in series[d - j].items():
                if u < cap:
                    product = _poly_mul(sums[j], poly)
                    for s, a in steps[j].items():
                        if s + u <= cap:
                            _add_scaled(out.setdefault(s + u, {}), product, scale * a)
        series.append(out)
        q: dict = {}
        for s, poly in out.items():
            if op == "sym":
                factor = comb(k - s + rank + d - 1, rank + d - 1)
            elif rank >= d:
                factor = comb(rank - d, k - s)
            else:  # C(n, m) = (-1)^m C(m - n - 1, m) for n < 0
                factor = (-1) ** (k - s) * comb(k - s - rank + d - 1, k - s)
            _add_scaled(q, poly, factor)
        power_sums.append(q)
    new = [{zero: 1}]  # d eps'_d = -Q_d - sum_(0 < i < d) eps'_i Q_(d-i)
    for d in range(1, top + 1):
        value = {e: -c for e, c in power_sums[d].items()}
        for i in range(1, d):
            _add_scaled(value, _poly_mul(new[i], power_sums[d - i]), -1)
        quotient = {}
        for e, c in value.items():
            q, r = divmod(c, d)
            if r:
                raise ArithmeticError(f"Newton's identity left {c} not divisible by {d}")
            if q:
                quotient[e] = q
        new.append(quotient)
    pad = (0,) * (rank - w)
    return tuple(
        tuple(sorted((e + pad, -c if d % 2 else c) for e, c in new[d].items()))
        for d in range(1, top + 1)
    )


def substitute_by_terms(epolys, b) -> tuple:
    """Substitute ``e_j -> c_j(b)``, zero beyond the stored classes, into each
    e-polynomial term by term: each power ``c_j ** m`` as a chain of products
    by ``c_j``, then each term as the product of its powers in index order."""
    ring = b.ring
    powers: dict[int, list] = {}

    def power(j: int, m: int):
        if j > len(b.chern):
            return ring.zero()
        built = powers.setdefault(j, [b.chern[j - 1]])
        while len(built) < m:
            built.append(built[-1] * built[0])
        return built[m - 1]

    def substitute(epoly):
        total = ring.zero()
        for emon, coeff in epoly:
            term = None
            for j, mult in enumerate(emon, start=1):
                if mult:
                    factor = power(j, mult)
                    if not factor:
                        break
                    term = factor if term is None else term * factor
            else:
                total = total + coeff * term
        return total

    return tuple(map(substitute, epolys))


def m_times_e_brute(lam: tuple[int, ...], j: int, nvars: int) -> dict:
    """``m_lam * e_j`` in the m-basis as ``{nu: coeff}``: the coefficient of
    ``m_nu`` counts the j-subsets S of the variables for which ``nu - 1_S``
    is a permutation of ``lam``, found by sorting every candidate."""
    subsets = list(combinations(range(nvars), j))
    target = sorted(lam)
    out: dict = {}
    for t in subsets:
        nu = tuple(sorted((lam[i] + (i in t) for i in range(nvars)), reverse=True))
        if nu not in out:
            out[nu] = sum(
                sorted(nu[i] - (i in s) for i in range(nvars)) == target for s in subsets
            )
    return out


# -- degree certificates --------------------------------------------------------

def max_multiplier_scan(a: int, b: int, c: int, d: int) -> int:
    """Largest m >= 1 with ``a m^3 - b m^2 - c m - d <= 0`` (``a > 0``), 0 if
    none, by checking every m up to the Cauchy root bound."""
    limit = 2 + max(abs(b), abs(c), abs(d)) // a
    best = 0
    for m in range(1, limit + 1):
        if a * m**3 - b * m * m - c * m - d <= 0:
            best = m
    return best


# -- weighted projective spaces ----------------------------------------------

def well_formed_brute(weights: tuple[int, ...]) -> bool:
    """P(a_0, ..., a_n) is well formed iff the gcd of all the weights, and the
    gcd of every n of them, is 1."""
    n = len(weights) - 1
    return gcd(*weights) == 1 and all(gcd(*subset) == 1 for subset in combinations(weights, n))


def normalize_by_steps(weights: tuple[int, ...]) -> tuple[int, ...]:
    """The well-formed weights of P(a), one reduction at a time: divide by
    the global gcd; while some n of the weights share a factor d, divide
    those n weights by d.  The weight sum falls at each step, so it ends."""
    ws = list(weights)
    while True:
        g = gcd(*ws)
        if g > 1:
            ws = [a // g for a in ws]
            continue
        for i in range(len(ws)):
            d = gcd(*ws[:i], *ws[i + 1 :])
            if d > 1:
                ws = [a if j == i else a // d for j, a in enumerate(ws)]
                break
        else:
            return tuple(ws)


def degree_m_exponents(weights: tuple[int, ...], m: int):
    """All exponent vectors of weighted degree m."""
    out = []
    exps = [0] * len(weights)

    def rec(i: int, rem: int):
        if i == len(weights):
            if rem == 0:
                out.append(tuple(exps))
            return
        w = weights[i]
        for e in range(0, rem // w + 1):
            exps[i] = e
            rec(i + 1, rem - e * w)
        exps[i] = 0

    rec(0, m)
    return out


def generated_on_smooth_locus(weights: tuple[int, ...], m: int) -> bool:
    """Monomial base-point check: every coordinate stratum meeting the
    smooth locus (supported weights coprime) must carry a monomial."""
    supports = {
        frozenset(i for i, e in enumerate(exps) if e)
        for exps in degree_m_exponents(weights, m)
    }
    indices = range(len(weights))
    for size in range(1, len(weights) + 1):
        for subset in combinations(indices, size):
            if gcd(*(weights[i] for i in subset)) != 1:
                continue
            if not any(s <= set(subset) for s in supports):
                return False
    return True


def semigroup_contains(gens: tuple[int, ...], m: int) -> bool:
    """Whether m is a sum of the generators, by an O(m) reachability list."""
    reachable = [False] * (m + 1)
    reachable[0] = True
    for value in range(1, m + 1):
        reachable[value] = any(reachable[value - g] for g in gens if g <= value)
    return reachable[m]


def generated_by_reachability(weights: tuple[int, ...], m: int) -> bool:
    """Semigroup base-point check: m must be a sum of the weights supported
    on every index set whose weights are coprime (not only the minimal ones)."""
    return all(
        semigroup_contains(tuple(weights[i] for i in subset), m)
        for size in range(1, len(weights) + 1)
        for subset in combinations(range(len(weights)), size)
        if gcd(*(weights[i] for i in subset)) == 1
    )


def cotangent_twist_brute(weights: tuple[int, ...], lmax: int = 20):
    """Least twist making all Euler-sequence pair summands generated,
    searched directly up to lmax (None when the search fails)."""
    pair_sums = {a + b for a, b in combinations(weights, 2)}
    for twist in range(0, lmax + 1):
        if all(
            twist - s >= 0 and generated_on_smooth_locus(weights, twist - s)
            for s in pair_sums
        ):
            return twist
    return None


def minimal_unit_supports_brute(weights: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Index sets whose weights have gcd 1 and contain no smaller such set,
    found among all subsets, in lexicographic order."""
    coprime = [
        subset
        for size in range(1, len(weights) + 1)
        for subset in combinations(range(len(weights)), size)
        if gcd(*(weights[i] for i in subset)) == 1
    ]
    return sorted(s for s in coprime if not any(set(t) < set(s) for t in coprime))


def singular_strata_by_primes(weights: tuple[int, ...]) -> list[tuple[int, tuple[int, ...]]]:
    """``(k, coords)`` of the maximal singular strata: one index set per prime
    dividing a weight (primes by trial division up to the square root), the
    sets contained in others pruned, k the gcd of the supported weights."""
    primes = set()
    for a in weights:
        m, p = a, 2
        while p * p <= m:
            if m % p == 0:
                primes.add(p)
                while m % p == 0:
                    m //= p
            p += 1
        if m > 1:
            primes.add(m)
    supports = {tuple(i for i, a in enumerate(weights) if a % p == 0) for p in primes}
    maximal = [s for s in supports if not any(s != t and set(s) <= set(t) for t in supports)]
    return [(gcd(*(weights[i] for i in s)), s) for s in sorted(maximal)]
