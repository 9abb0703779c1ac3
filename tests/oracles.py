"""Independent oracles and random-instance generators for the test suite.

Everything here deliberately avoids the code paths it checks: signatures
come from Sturm-sequence root counting on the characteristic polynomial,
characteristic classes from brute force over (Z/2)^n, group-ring units
from an exhaustive bounded inverse search, the existence criteria
from a literal Fraction evaluation of the two defining conditions, and
the congruence-search generators from element products, and ring sums,
products and conjugates formed outside the packed ring arithmetic; pairs
congruent along long generator paths are pushed on plain dicts.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import sympy

from spherecalc.groupring import GroupRingElem, LaurentElem
from spherecalc.intlattice import identity_matrix, mat_mul, transpose


def signature_by_sturm(rows) -> int:
    """Count eigenvalue signs of a symmetric integer matrix exactly.

    Factor the characteristic polynomial over Q and count the real roots
    of each (squarefree) irreducible factor in (0, R] and [-R, 0) by Sturm
    sequences, R being a Gershgorin radius.  The monomial factor x carries
    the zero eigenvalues and is skipped.
    """
    n = len(rows)
    if n == 0:
        return 0
    x = sympy.Symbol("x")
    poly = sympy.Matrix([list(r) for r in rows]).charpoly(x).as_expr()
    radius = max(sum(abs(v) for v in row) for row in rows) + 1
    pos = neg = 0
    for factor, mult in sympy.factor_list(poly, x)[1]:
        p = sympy.Poly(factor, x)
        if p == sympy.Poly(x, x):
            continue
        pos += mult * p.count_roots(0, radius)
        neg += mult * p.count_roots(-radius, 0)
    return pos - neg


def characteristic_pairing_table(q_rows):
    """For each a in (Z/2)^n precompute (Q a mod 2, a.a mod 2)."""
    n = len(q_rows)
    table = []
    for a in itertools.product((0, 1), repeat=n):
        qa = tuple(sum(q_rows[i][j] * a[j] for j in range(n)) % 2 for i in range(n))
        aa = sum(a[i] * q_rows[i][j] * a[j] for i in range(n) for j in range(n)) % 2
        table.append((qa, aa))
    return table


def is_characteristic_bruteforce(q_rows, x, table=None) -> bool:
    """x.a = a.a mod 2 checked against every a in (Z/2)^n."""
    if table is None:
        table = characteristic_pairing_table(q_rows)
    return all(
        (sum(xi * qi for xi, qi in zip(x, qa)) - aa) % 2 == 0 for qa, aa in table
    )


def straightline_exists(q_rows, sigma, b2, ks, x) -> bool:
    """Literal evaluation of the two existence conditions.

    The rotation term is computed as written, sigma - (2j(d-j)/d^2) x.x in
    Fraction arithmetic, with no reuse of the library's factored form.
    """
    if all(v == 0 for v in x):
        return True
    n = len(x)
    d = math.gcd(*(abs(v) for v in x))
    xx = sum(x[i] * q_rows[i][j] * x[j] for i in range(n) for j in range(n))
    bound = max(
        abs(Fraction(sigma) - Fraction(2 * j * (d - j), d * d) * xx) for j in range(d)
    )
    if Fraction(b2) < bound:
        return False
    if is_characteristic_bruteforce(q_rows, x):
        diff = sigma - xx
        assert diff % 8 == 0
        if (diff // 8) % 2 != ks % 2:
            return False
    return True


def units_by_bounded_inverse_search(d, box=2, inv_bound=10):
    """Coefficient tuples in [-box, box]^d that have an inverse with
    coefficients in [-inv_bound, inv_bound], found by exhaustive search.

    Any inverse must augment to the same +-1 as the element (augmentation
    is a ring map to Z), so candidates with other coefficient sums are
    exactly the empty search.
    """
    import numpy as np

    all_v = np.array(
        list(itertools.product(range(-inv_bound, inv_bound + 1), repeat=d)),
        dtype=np.int64,
    )
    sums = all_v.sum(axis=1)
    candidates = {1: all_v[sums == 1], -1: all_v[sums == -1]}
    target = np.zeros(d, dtype=np.int64)
    target[0] = 1
    units = set()
    for u in itertools.product(range(-box, box + 1), repeat=d):
        s = sum(u)
        if s not in (1, -1):
            continue
        mult = np.array(
            [[u[(k - j) % d] for k in range(d)] for j in range(d)], dtype=np.int64
        )
        products = candidates[s] @ mult
        if (products == target).all(axis=1).any():
            units.add(u)
    return units


def element_sum(x, y):
    """x + y without the ring's payload addition.

    Cyclic payloads are added coordinatewise; Laurent terms are
    concatenated and left to the constructor, which merges exponents.
    """
    if isinstance(x, GroupRingElem):
        return GroupRingElem(x.d, tuple(a + b for a, b in zip(x.coeffs, y.coeffs)))
    return LaurentElem(x.terms + y.terms)


def element_product(x, y):
    """x * y as the convolution read off the definition, without ``ring.mul``.

    The coefficient of T^k in a cyclic product is the sum of x_i y_j over
    i + j = k mod d; a Laurent product lists every product term and leaves
    merging equal exponents and dropping zeros to the constructor.
    """
    if isinstance(x, GroupRingElem):
        d = x.d
        return GroupRingElem(
            d,
            tuple(
                sum(x.coeffs[i] * y.coeffs[j] for i in range(d) for j in range(d) if (i + j) % d == k)
                for k in range(d)
            ),
        )
    return LaurentElem(tuple((e1 + e2, c1 * c2) for e1, c1 in x.terms for e2, c2 in y.terms))


def element_conj(x):
    """T -> T^-1 read off the definition, coefficient by coefficient."""
    if isinstance(x, GroupRingElem):
        return GroupRingElem(x.d, tuple(x.coeffs[(-k) % x.d] for k in range(x.d)))
    return LaurentElem(tuple((-e, c) for e, c in x.terms))


def apply_generator(gen, p, ring):
    """E P for a packed search generator, in element arithmetic.

    ``gen`` is an entry of ``hermitian._generators``: ("scale", i, i,
    (k, c)), ("swap", i, j) or ("add", i, j, (k, c)), where (k, c) stands
    for the monomial c * T^k.  Rows are scaled and summed elementwise,
    never through the packed row operations the search uses.
    """
    kind, i = gen[0], gen[1]
    if kind == "swap":
        rows = list(p)
        rows[i], rows[gen[2]] = rows[gen[2]], rows[i]
        return tuple(rows)
    _, i, j, (k, c) = gen
    w = ring.monomial(k, c)
    if kind == "scale":
        new_row = tuple(w * v for v in p[i])
    else:
        new_row = tuple(element_sum(v, w * u) for v, u in zip(p[i], p[j]))
    return p[:i] + (new_row,) + p[i + 1:]


# ---------------------------------------------------------------------------
# random instances


def random_unimodular(rng: random.Random, n, ops=8, coeff=2):
    """Product of random elementary matrices (det +-1)."""
    u = [list(row) for row in identity_matrix(n)]
    for _ in range(ops):
        kind = rng.choice(("add", "swap", "neg")) if n > 1 else "neg"
        if kind == "add":
            i, j = rng.sample(range(n), 2)
            c = rng.choice([v for v in range(-coeff, coeff + 1) if v])
            for t in range(n):
                u[i][t] += c * u[j][t]
        elif kind == "swap":
            i, j = rng.sample(range(n), 2)
            u[i], u[j] = u[j], u[i]
        else:
            i = rng.randrange(n)
            u[i] = [-v for v in u[i]]
    return tuple(tuple(row) for row in u)


def conjugate_form(q_rows, u):
    """Congruent form U^T Q U."""
    return mat_mul(mat_mul(transpose(u), q_rows), u)


def random_symmetric(rng: random.Random, n, bound=4):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.randint(-bound, bound)
    return tuple(tuple(row) for row in rows)


# ---------------------------------------------------------------------------
# congruent pairs along long generator paths
#
# Entries are built as {exponent: coefficient} dicts, with exponents mod d
# over Z[Z_d] (``modulus`` d) or unreduced over the Laurent ring (``modulus``
# None), and become ring elements only at the end, so no ring arithmetic
# makes them.


def _dict_shift(x, k, c, modulus):
    """c T^k x."""
    return {(e + k) % modulus if modulus else e + k: c * a for e, a in x.items()}


def _dict_sum(x, y):
    total = dict(x)
    for e, a in y.items():
        total[e] = total.get(e, 0) + a
    return {e: a for e, a in total.items() if a}


def _dict_conj(x, modulus):
    return {-e % modulus if modulus else -e: a for e, a in x.items()}


def _dict_element(x, modulus):
    if modulus:
        return GroupRingElem(modulus, tuple(x.get(e, 0) for e in range(modulus)))
    return LaurentElem(tuple(sorted(x.items())))


def _random_exponent(rng: random.Random, modulus) -> int:
    """0 <= k < d over Z[Z_d]; -2 <= k <= 2, the search's window, over the Laurent ring."""
    return rng.randrange(modulus) if modulus else rng.randint(-2, 2)


def _random_generator(rng: random.Random, modulus, m):
    """A generator in ``hermitian._generators``' format, drawn at random.

    A scaling by +-T^k, a swap, or a transvection adding +-T^k or +-2T^k
    times one row to another.
    """
    k = _random_exponent(rng, modulus)
    kind = rng.choice(("scale", "swap", "add")) if m > 1 else "scale"
    if kind == "scale":
        i = rng.randrange(m)
        return ("scale", i, i, (k, rng.choice((1, -1))))
    i, j = rng.sample(range(m), 2)
    if kind == "swap":
        return ("swap", min(i, j), max(i, j))
    return ("add", i, j, (k, rng.choice((1, -1, 2, -2))))


def _push(gen, rows, z, modulus):
    """E A E* and E z in place, for the elementary matrix E of ``gen``.

    E acts on the rows of A and of z, and E* on the columns of A: a
    scaling by w = c T^k multiplies column i by conj(w) = c T^-k, and the
    transvection row_i += w row_j adds column j times conj(w) to column i.
    """
    kind, i, j = gen[0], gen[1], gen[2]
    if kind == "swap":
        rows[i], rows[j], z[i], z[j] = rows[j], rows[i], z[j], z[i]
        for row in rows:
            row[i], row[j] = row[j], row[i]
        return
    k, c = gen[3]
    if kind == "scale":
        rows[i] = [_dict_shift(v, k, c, modulus) for v in rows[i]]
        for row in rows:
            row[i] = _dict_shift(row[i], -k, c, modulus)
        z[i] = _dict_shift(z[i], k, c, modulus)
    else:
        rows[i] = [_dict_sum(v, _dict_shift(u, k, c, modulus)) for v, u in zip(rows[i], rows[j])]
        for row in rows:
            row[i] = _dict_sum(row[i], _dict_shift(row[j], -k, c, modulus))
        z[i] = _dict_sum(z[i], _dict_shift(z[j], k, c, modulus))


def congruent_pointed_pairs(seed, ring, m, count, steps=(8, 40)):
    """``count`` seeded pointed pairs ((A, z), (P A P*, P z), path) over ``ring`` in rank ``m``.

    A is a random hermitian form: x + conj(x) + n on the diagonal and
    conjugate pairs off it, each x a sum of up to three monomials +-T^k or
    +-2T^k, and -3 <= n <= 3.  z is a basis vector e_i.  ``path`` lists
    ``steps[0]``-``steps[1]`` random generators (``_random_generator``),
    more than the search reaches, and P is their product, the first
    applied first; the pushed pair is built a generator at a time by row
    and column operations.
    """
    modulus = ring.d if isinstance(ring.zero(), GroupRingElem) else None
    rng = random.Random(f"pairs:{seed}:{ring}:{m}")

    def entry():
        x = {}
        for _ in range(rng.randint(0, 3)):
            x = _dict_sum(x, {_random_exponent(rng, modulus): rng.choice((1, -1, 2, -2))})
        return x

    pairs = []
    for _ in range(count):
        rows = [[{}] * m for _ in range(m)]
        for i in range(m):
            x = entry()
            rows[i][i] = _dict_sum(_dict_sum(x, _dict_conj(x, modulus)), {0: rng.randint(-3, 3)})
            for j in range(i + 1, m):
                rows[i][j] = entry()
                rows[j][i] = _dict_conj(rows[i][j], modulus)
        i = rng.randrange(m)
        z = [{0: 1} if r == i else {} for r in range(m)]
        ends = []
        path = [_random_generator(rng, modulus, m) for _ in range(rng.randint(*steps))]
        for gens in ((), path):
            pushed, pushed_z = [list(row) for row in rows], list(z)
            for gen in gens:
                _push(gen, pushed, pushed_z, modulus)
            ends.append(
                (
                    tuple(tuple(_dict_element(v, modulus) for v in row) for row in pushed),
                    tuple(_dict_element(v, modulus) for v in pushed_z),
                )
            )
        pairs.append((*ends, tuple(path)))
    return pairs
