"""Independent oracles and random-instance generators for the test suite.

Everything here deliberately avoids the code paths it checks: signatures
come from Sturm-sequence root counting on the characteristic polynomial,
characteristic classes from brute force over (Z/2)^n, group-ring units
from an exhaustive bounded inverse search, the existence criteria
from a literal Fraction evaluation of the two defining conditions, and
the congruence-search generators from element products, with sums and
conjugates formed outside the packed ring arithmetic.
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
