"""Exact algebra of unimodular symmetric bilinear forms over the integers.

Matrices are tuples of tuples of Python ints, rational intermediate work
happens in :class:`fractions.Fraction`, and no floating point appears
anywhere.  Invariants (rank, signature, parity) decide isometry exactly
for indefinite forms and for definite forms of rank at most 8, where the
classification leaves only Z^n and E8; definite forms of rank 9 or more
are reported ``undecided``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .errors import DimensionMismatch

Matrix = tuple[tuple[int, ...], ...]

#: Hyperbolic plane.
H_MATRIX: Matrix = ((0, 1), (1, 0))

# Gram matrix of the even positive definite rank-8 root lattice
# (simple roots: chain 1..7 with node 8 attached to node 5); det = +1.
E8_MATRIX: Matrix = (
    (2, -1, 0, 0, 0, 0, 0, 0),
    (-1, 2, -1, 0, 0, 0, 0, 0),
    (0, -1, 2, -1, 0, 0, 0, 0),
    (0, 0, -1, 2, -1, 0, 0, 0),
    (0, 0, 0, -1, 2, -1, 0, -1),
    (0, 0, 0, 0, -1, 2, -1, 0),
    (0, 0, 0, 0, 0, -1, 2, 0),
    (0, 0, 0, 0, -1, 0, 0, 2),
)


# ---------------------------------------------------------------------------
# integer matrix helpers


def freeze_matrix(rows) -> Matrix:
    """Coerce a square array-like of ints into a canonical tuple of tuples."""
    out = tuple(tuple(int(v) for v in row) for row in rows)
    for row in out:
        if len(row) != len(out):
            raise DimensionMismatch(
                f"matrix is not square: {len(out)} rows but a row of length {len(row)}"
            )
    return out


def freeze_vector(values) -> tuple[int, ...]:
    return tuple(int(v) for v in values)


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(rows: Matrix) -> Matrix:
    return tuple(zip(*rows)) if rows else ()


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise DimensionMismatch("inner dimensions differ")
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def mat_vec(rows: Matrix, v) -> tuple[int, ...]:
    if rows and len(rows[0]) != len(v):
        raise DimensionMismatch("matrix and vector sizes differ")
    return tuple(sum(r * x for r, x in zip(row, v)) for row in rows)


def block_diag(*blocks: Matrix) -> Matrix:
    """Block-diagonal sum of square integer matrices."""
    total = sum(len(b) for b in blocks)
    rows = []
    offset = 0
    for b in blocks:
        for row in b:
            rows.append((0,) * offset + tuple(row) + (0,) * (total - offset - len(b)))
        offset += len(b)
    return tuple(rows)


def is_symmetric(rows: Matrix) -> bool:
    return all(rows[i][j] == rows[j][i] for i in range(len(rows)) for j in range(i))


def integer_det(rows: Matrix) -> int:
    """Exact determinant of an integer matrix (fraction-free Bareiss)."""
    a = [list(map(int, row)) for row in rows]
    n = len(a)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class IntersectionForm:
    """A unimodular symmetric bilinear form on Z^n in a chosen basis.

    All outputs that depend on the basis are well defined up to integer
    congruence; the class stores one concrete Gram matrix.
    """

    matrix: Matrix
    determinant: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = freeze_matrix(self.matrix)
        if not is_symmetric(rows):
            raise ValueError("intersection form must be symmetric")
        det = integer_det(rows)
        if det not in (1, -1):
            raise ValueError(f"intersection form must be unimodular, got det {det}")
        object.__setattr__(self, "matrix", rows)
        object.__setattr__(self, "determinant", det)

    @property
    def rank(self) -> int:
        return len(self.matrix)


@dataclass(frozen=True)
class HomologyClass:
    """An integer vector in the fixed basis of H_2."""

    coords: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", freeze_vector(self.coords))

    def __len__(self):
        return len(self.coords)

    def scaled(self, k: int) -> "HomologyClass":
        return HomologyClass(tuple(k * c for c in self.coords))


PARITY_EVEN = "even"
PARITY_ODD = "odd"

DEFINITE_POSITIVE = "positive"
DEFINITE_NEGATIVE = "negative"
INDEFINITE = "indefinite"
ZERO_RANK = "zero-rank"


@dataclass(frozen=True)
class FormInvariants:
    rank: int
    signature: int
    parity: str
    definiteness: str

    def __post_init__(self):
        if abs(self.signature) > self.rank:
            raise ValueError("|signature| cannot exceed rank")


def _matrix_rows(q) -> Matrix:
    if isinstance(q, IntersectionForm):
        return q.matrix
    return freeze_matrix(q)


def _coords(x) -> tuple[int, ...]:
    if isinstance(x, HomologyClass):
        return x.coords
    return freeze_vector(x)


# ---------------------------------------------------------------------------
# operations


def divisibility(x) -> int:
    """Largest integer dividing the class; 0 exactly for the zero class."""
    return gcd(*_coords(x)) if len(_coords(x)) else 0


def self_intersection(q, x) -> int:
    """Evaluate x^T Q x exactly."""
    rows = _matrix_rows(q)
    v = _coords(x)
    if len(v) != len(rows):
        raise DimensionMismatch(f"class has length {len(v)}, form has rank {len(rows)}")
    return sum(v[i] * rows[i][j] * v[j] for i in range(len(v)) for j in range(len(v)))


def is_characteristic(q, x) -> bool:
    """True iff x.a = a.a mod 2 for every a.

    The condition is linear in a mod 2, so checking the basis vectors
    decides it.
    """
    rows = _matrix_rows(q)
    v = _coords(x)
    n = len(rows)
    if len(v) != n:
        raise DimensionMismatch(f"class has length {len(v)}, form has rank {n}")
    for i in range(n):
        pairing = sum(v[j] * rows[j][i] for j in range(n))
        if (pairing - rows[i][i]) % 2:
            return False
    return True


def characteristic_vector(q) -> tuple[int, ...]:
    """The w in {0,1}^n with Qw = diag(Q) mod 2.

    x is characteristic iff Qx = diag(Q) mod 2, and a unimodular Q is
    invertible mod 2, so the characteristic classes are exactly the coset
    w + 2Z^n.  Solved by Gauss-Jordan elimination over GF(2).
    """
    rows = _matrix_rows(q)
    n = len(rows)
    aug = [[v % 2 for v in rows[i]] + [rows[i][i] % 2] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise ValueError("form is singular mod 2")
        aug[col], aug[piv] = aug[piv], aug[col]
        for r in range(n):
            if r != col and aug[r][col]:
                aug[r] = [a ^ b for a, b in zip(aug[r], aug[col])]
    return tuple(aug[i][n] for i in range(n))


def signature(q) -> int:
    """Signature by symmetric congruence diagonalization over the rationals.

    When every remaining diagonal entry vanishes but an off-diagonal entry
    does not, a hyperbolic row+column addition manufactures a nonzero
    pivot; a fully zero trailing block contributes nothing.  Exact in
    Fraction arithmetic throughout.
    """
    rows = _matrix_rows(q)
    if not is_symmetric(rows):
        raise ValueError("signature requires a symmetric matrix")
    n = len(rows)
    a = [[Fraction(v) for v in row] for row in rows]
    pos = neg = 0
    k = 0
    while k < n:
        piv = next((i for i in range(k, n) if a[i][i] != 0), None)
        if piv is None:
            pair = next(
                ((i, j) for i in range(k, n) for j in range(i + 1, n) if a[i][j] != 0),
                None,
            )
            if pair is None:
                break
            i, j = pair
            for t in range(n):
                a[i][t] += a[j][t]
            for t in range(n):
                a[t][i] += a[t][j]
            piv = i
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            for t in range(n):
                a[t][k], a[t][piv] = a[t][piv], a[t][k]
        d = a[k][k]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            f = a[i][k] / d
            if f:
                for t in range(n):
                    a[i][t] -= f * a[k][t]
                for t in range(n):
                    a[t][i] -= f * a[t][k]
        k += 1
    return pos - neg


def form_invariants(q) -> FormInvariants:
    """Bundle rank, signature, parity and definiteness of a symmetric form."""
    rows = _matrix_rows(q)
    n = len(rows)
    sig = signature(rows)
    parity = PARITY_EVEN if all(rows[i][i] % 2 == 0 for i in range(n)) else PARITY_ODD
    if n == 0:
        definiteness = ZERO_RANK
    elif sig == n:
        definiteness = DEFINITE_POSITIVE
    elif sig == -n:
        definiteness = DEFINITE_NEGATIVE
    else:
        definiteness = INDEFINITE
    return FormInvariants(rank=n, signature=sig, parity=parity, definiteness=definiteness)


# ---------------------------------------------------------------------------
# isometry decision

ISO_YES = "yes"
ISO_NO = "no"
ISO_UNDECIDED = "undecided"


@dataclass(frozen=True)
class IsometryResult:
    verdict: str
    witness: Matrix | None = None
    reason: str | None = None
    invariants: tuple[FormInvariants, FormInvariants] | None = None


def is_isometric(q1, q2) -> IsometryResult:
    """Decide whether two unimodular symmetric forms are congruent over Z.

    Indefinite (and rank-0) forms are decided exactly by their rank,
    signature and parity.  So are definite forms of rank at most 8: the
    only definite unimodular lattices there are Z^n and, in rank 8, E8
    (Milnor-Husemoller ch. II; Conway-Sloane ch. 16), and E8 is the even
    one.  Definite forms of rank 9 or more come back ``undecided`` with
    both invariant bundles attached, since equal invariants no longer
    suffice there (Z^9 and E8 + <1>).  Only the identity is ever returned
    as a witness.  A ``no`` verdict always names the differing invariant.
    """
    f1 = q1 if isinstance(q1, IntersectionForm) else IntersectionForm(q1)
    f2 = q2 if isinstance(q2, IntersectionForm) else IntersectionForm(q2)
    inv1, inv2 = form_invariants(f1), form_invariants(f2)
    pair = (inv1, inv2)
    for name in ("rank", "signature", "parity"):
        a, b = getattr(inv1, name), getattr(inv2, name)
        if a != b:
            return IsometryResult(
                ISO_NO, reason=f"{name} differs: {a} != {b}", invariants=pair
            )
    if inv1.rank == 0 or f1.matrix == f2.matrix:
        return IsometryResult(ISO_YES, witness=identity_matrix(inv1.rank), invariants=pair)
    if inv1.definiteness == INDEFINITE:
        return IsometryResult(
            ISO_YES,
            reason="indefinite unimodular forms with equal rank, signature and parity"
            " are congruent",
            invariants=pair,
        )
    if inv1.rank <= 8:
        lattice = "E8" if inv1.parity == PARITY_EVEN else f"Z^{inv1.rank}"
        sign = "-" if inv1.definiteness == DEFINITE_NEGATIVE else ""
        return IsometryResult(
            ISO_YES,
            reason="definite unimodular forms of rank <= 8 are classified by rank,"
            f" signature and parity: both are {sign}{lattice}",
            invariants=pair,
        )
    return IsometryResult(
        ISO_UNDECIDED,
        reason="equal rank, signature and parity do not decide definite forms of"
        " rank >= 9: Z^9 and E8 + <1> share them",
        invariants=pair,
    )
