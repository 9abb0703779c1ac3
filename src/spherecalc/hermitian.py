"""Hermitian forms over cyclic group rings and the Laurent ring.

Covers construction from equivariant integer data, augmentation back to
integer forms, nonsingularity, pointed classes, and a bounded congruence
search with sound invariant refutations.  A witness P reported by the
search always satisfies ``P * A0 * conj(P)^T == A1`` exactly and is
invertible over the ring; witnesses are re-verified before being
returned, and a witness that fails raises instead.

Every matrix computation runs on packed matrices, of the entries'
payloads (``terms``), with the payload arithmetic of the ring descriptor
(``groupring``); a form packs its matrix once, when it is built.
Elements appear only at the boundary: parsing, printing, JSON and the
witness; ``ring_mat_mul``, ``ring_mat_vec``, ``conj_transpose`` and
``ring_det`` run the one kernel and wrap its result with ``ring.element``.

The search is a breadth-first walk over products P of monomial scalings,
swaps and monomial transvections.  A pointed form (A, z) is searched as
the bordered form [[A, z], [z*, 0]], on which the generators act through
the first m rows, so each state is one pair (P, B): B = P A0 P*,
bordered by P z0 when pointed.  A queue entry is a parent state and the
generators still to apply to it, and each pop takes the next one; the
child's B is derived from the parent's when it is popped, by updating one
row and one column, so comparing forms needs no matrix product, and the
child's P is built only if its form is new.  A state's children depend
only on B, so the search deduplicates on B alone: a form is expanded
once, and the first P to reach it stays its witness.  The walk runs from
both ends at once, forward from A0 and backward from A1 with the same
generators, whose table is closed under inverses; when the sides reach a
common form with P and Q, the witness is Q^-1 P.  The search takes only
a node budget; the entry-growth limits are the module constants
``COEFF_LIMIT`` and ``EXP_LIMIT``, applied to P and Q alike.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from math import gcd

from . import intlattice
from .errors import (
    DimensionMismatch,
    InvalidForm,
    NotFreeBasis,
    RingMismatch,
    WitnessVerificationFailed,
)
from .groupring import (
    MAX_CYCLIC_ORDER,
    CyclicRing,
    GroupRingElem,
    Ring,
)
from .intlattice import Matrix, freeze_matrix, integer_det, mat_vec

#: Default node budget of the congruence search.
DEFAULT_BUDGET = 10**6

#: Growth limits pruning the search space (entries of candidate matrices):
#: max absolute coefficient, and max |exponent| in the Laurent case.
COEFF_LIMIT = 16
EXP_LIMIT = 8


# ---------------------------------------------------------------------------
# matrix helpers over a ring


def _pack_matrix(ring: Ring, rows) -> tuple:
    """The payloads of a square matrix whose entries coerce into ``ring``."""
    coerce = ring.coerce
    out = tuple(tuple([coerce(v).terms for v in row]) for row in rows)
    if any(len(row) != len(out) for row in out):
        raise DimensionMismatch("matrix over the ring is not square")
    return out


def _element_matrix(ring: Ring, p) -> tuple:
    return tuple(tuple(map(ring.element, row)) for row in p)


def _mat_mul(a, b, ring: Ring) -> tuple:
    add, mul = ring.add, ring.mul
    cols = tuple(zip(*b))
    return tuple(tuple([reduce(add, map(mul, row, col)) for col in cols]) for row in a)


def _conj_transpose(a, ring: Ring) -> tuple:
    conj = ring.conj
    return tuple(tuple(map(conj, col)) for col in zip(*a))


def _det(a, ring: Ring):
    add, mul, neg, nonzero = ring.add, ring.mul, ring.neg, ring.nonzero
    m = len(a)
    prev = {0: ring.one().terms}
    for r in range(m):
        cur: dict[int, object] = {}
        for mask, val in prev.items():
            for j in range(m):
                bit = 1 << j
                if mask & bit or not nonzero(a[r][j]):
                    continue
                contrib = mul(val, a[r][j])
                if bin(mask >> (j + 1)).count("1") % 2:
                    contrib = neg(contrib)
                new = mask | bit
                cur[new] = add(cur[new], contrib) if new in cur else contrib
        prev = {k: v for k, v in cur.items() if nonzero(v)}
        if not prev:
            return ring.zero().terms
    return prev[(1 << m) - 1]


def ring_identity(ring: Ring, m: int):
    one, zero = ring.one(), ring.zero()
    return tuple(tuple(one if i == j else zero for j in range(m)) for i in range(m))


def conj_transpose(rows):
    if not rows:
        return ()
    ring = rows[0][0].ring
    return _element_matrix(ring, _conj_transpose(_pack_matrix(ring, rows), ring))


def ring_mat_mul(a, b, ring: Ring):
    p = _mat_mul(_pack_matrix(ring, a), _pack_matrix(ring, b), ring)
    return _element_matrix(ring, p)


def ring_mat_vec(a, v, ring: Ring):
    column = tuple([(ring.coerce(x).terms,) for x in v])
    return tuple(ring.element(x) for (x,) in _mat_mul(_pack_matrix(ring, a), column, ring))


def ring_det(rows, ring: Ring):
    """Determinant over an arbitrary commutative ring.

    Laplace expansion evaluated by dynamic programming over column
    subsets: division-free, so it is valid even when the ring has zero
    divisors (the cyclic group rings do).  Costs about m * 2^m ring
    multiplications, which is fine at the sizes that occur here.  It runs
    on the payloads: only its argument and result are elements.
    """
    return ring.element(_det(_pack_matrix(ring, rows), ring))


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class HermitianForm:
    """Square matrix over a group ring equal to its own conjugate-transpose."""

    ring: Ring
    matrix: tuple
    packed: tuple = field(init=False, repr=False, compare=False)  # what computations read

    def __post_init__(self):
        rows = tuple(tuple(map(self.ring.coerce, row)) for row in self.matrix)
        packed = _pack_matrix(self.ring, rows)
        if packed != _conj_transpose(packed, self.ring):
            raise InvalidForm("matrix is not hermitian (conjugate-transpose differs)")
        object.__setattr__(self, "matrix", rows)
        object.__setattr__(self, "packed", packed)

    @property
    def size(self) -> int:
        return len(self.matrix)

    @cached_property
    def det(self):
        return self.ring.element(_det(self.packed, self.ring))

    def display(self) -> list[list[str]]:
        return [[str(v) for v in row] for row in self.matrix]

    def to_json_dict(self) -> dict:
        to_json = self.ring.element_to_json
        return {
            "ring": self.ring.to_json(),
            "size": self.size,
            "entries": [[to_json(v) for v in row] for row in self.matrix],
        }


@dataclass(frozen=True)
class PointedHermitianForm:
    """Hermitian form together with a distinguished class z.

    z need not be primitive: ``augmented_divisibility``, the gcd of its
    augmentation vector, is exposed rather than enforced (1 means
    primitive), so that incompatible pointed pairs can still be fed to the
    search and refuted there.  ``packed`` is the bordered form
    [[A, z], [z*, 0]] the search walks; its last column is z.
    """

    form: HermitianForm
    z: tuple
    packed: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ring = self.form.ring
        vec = tuple(ring.coerce(v) for v in self.z)
        if len(vec) != self.form.size:
            raise DimensionMismatch("pointed class length differs from the form size")
        rows = [row + (v,) for row, v in zip(self.form.matrix, vec)]
        border = tuple(v.conjugate() for v in vec) + (0,)
        object.__setattr__(self, "z", vec)
        object.__setattr__(self, "packed", _pack_matrix(ring, rows + [border]))

    @property
    def augmented_divisibility(self) -> int:
        return gcd(*[v.augment() for v in self.z])


@dataclass(frozen=True)
class EquivariantIntegerForm:
    """Symmetric integer form together with a finite-order symmetry preserving it."""

    q: Matrix
    t_action: Matrix
    order: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        q = freeze_matrix(self.q)
        t = freeze_matrix(self.t_action)
        if len(q) != len(t):
            raise DimensionMismatch("form and action have different sizes")
        if not intlattice.is_symmetric(q):
            raise InvalidForm("equivariant data requires a symmetric form")
        if intlattice.mat_mul(intlattice.mat_mul(intlattice.transpose(t), q), t) != q:
            raise InvalidForm("the action does not preserve the form")
        ident = intlattice.identity_matrix(len(t))
        power = t
        order = 1
        while power != ident:
            power = intlattice.mat_mul(power, t)
            order += 1
            if order > MAX_CYCLIC_ORDER:
                raise InvalidForm(
                    f"action has no order up to {MAX_CYCLIC_ORDER}; not a finite symmetry"
                )
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "t_action", t)
        object.__setattr__(self, "order", order)


# ---------------------------------------------------------------------------
# construction and augmentation


def build_equivariant_form(equiv: EquivariantIntegerForm, basis) -> HermitianForm:
    """Assemble the hermitian form of an order-d symmetry on free orbits.

    ``basis`` lists m integer vectors whose orbit under the action must
    span Z^N freely (so m * d = N and the d*m translates are a Z-basis,
    of determinant +-1); entry (i, j) collects Q(b_i, T^k b_j) as the
    coefficient of T^(-k).
    """
    d = equiv.order
    n = len(equiv.q)
    vectors = [intlattice.freeze_vector(b) for b in basis]
    m = len(vectors)
    for v in vectors:
        if len(v) != n:
            raise DimensionMismatch("basis vector length differs from the form size")
    if m * d != n:
        raise NotFreeBasis(
            f"{m} orbit representatives of order {d} cannot span rank {n} freely"
        )
    translates = []
    for v in vectors:
        orbit = [v]
        for _ in range(d - 1):
            orbit.append(mat_vec(equiv.t_action, orbit[-1]))
        translates.append(orbit)
    span = tuple(zip(*[translates[i][k] for i in range(m) for k in range(d)]))
    index = abs(integer_det(span))
    if index == 0:
        raise NotFreeBasis("orbit translates of the basis are linearly dependent")
    if index != 1:
        raise NotFreeBasis(
            f"orbit translates of the basis span a sublattice of index {index}, not Z^{n}"
        )
    ring = CyclicRing(d)
    q_rows = [list(row) for row in equiv.q]
    rows = []
    for i in range(m):
        qb = [sum(vectors[i][r] * q_rows[r][c] for r in range(n)) for c in range(n)]
        row = []
        for j in range(m):
            coeffs = [0] * d
            for k in range(d):
                coeffs[(-k) % d] = sum(q * w for q, w in zip(qb, translates[j][k]))
            row.append(GroupRingElem(d, tuple(coeffs)))
        rows.append(tuple(row))
    return HermitianForm(ring, tuple(rows))


def augment_form(form: HermitianForm) -> Matrix:
    """Entrywise T -> 1; a symmetric integer matrix, not necessarily unimodular."""
    augment = form.ring.augment
    return tuple(tuple(map(augment, row)) for row in form.packed)


def is_nonsingular(form: HermitianForm) -> bool:
    """True iff the determinant over the ring is a unit."""
    return form.det.is_unit()


def extend_integer_form(q, ring: Ring) -> HermitianForm:
    """Read a symmetric integer matrix as a constant-entry hermitian form."""
    rows = q.matrix if isinstance(q, intlattice.IntersectionForm) else freeze_matrix(q)
    if not intlattice.is_symmetric(rows):
        raise InvalidForm("only symmetric matrices extend to hermitian forms")
    return HermitianForm(ring, tuple(tuple(ring.from_int(v) for v in row) for row in rows))


# ---------------------------------------------------------------------------
# congruence search

SEARCH_FOUND = "found"
SEARCH_NOT_FOUND = "not_found_within_budget"
SEARCH_DISPROVEN = "disproven"


@dataclass(frozen=True)
class CongruenceOutcome:
    status: str
    witness: tuple | None = None
    reason: str | None = None
    nodes_explored: int = 0


def verify_congruence(p, form0: HermitianForm, form1: HermitianForm) -> bool:
    """Exact check that P A0 conj(P)^T = A1 and that P is invertible.

    Runs on the payloads with the ring's ``mul``, ``add`` and ``conj``,
    never on the search kernel (``_child_form``, ``_apply``) whose
    witnesses it checks; of the results only det P becomes an element.
    """
    ring = form0.ring
    q = _pack_matrix(ring, p)  # a P of another size gives a product of that size
    product = _mat_mul(_mat_mul(q, form0.packed, ring), _conj_transpose(q, ring), ring)
    return product == form1.packed and ring.element(_det(q, ring)).is_unit()


def _augmentation_refutation(form0: HermitianForm, form1: HermitianForm) -> str | None:
    """Compare augmented integer forms; None when they cannot refute.

    A witness augments to a unimodular integer congruence, so determinant,
    signature and evenness of the augmented forms must agree exactly.
    With the sizes already equal, these are all the invariants an integer
    isometry can be refuted on (``intlattice.is_isometric`` says ``no``
    only on rank, signature or parity).
    """
    a0, a1 = augment_form(form0), augment_form(form1)
    d0, d1 = integer_det(a0), integer_det(a1)
    if d0 != d1:
        return f"augmented forms are not isometric over Z: determinant {d0} != {d1}"
    inv0, inv1 = intlattice.form_invariants(a0), intlattice.form_invariants(a1)
    if inv0.signature != inv1.signature:
        return (
            "augmented forms are not isometric over Z: "
            f"signature {inv0.signature} != {inv1.signature}"
        )
    if inv0.parity != inv1.parity:
        return "augmented forms are not isometric over Z: parity differs"
    return None


def _determinant_refutation(form0: HermitianForm, form1: HermitianForm) -> str | None:
    """Determinant class comparison, applied only where it is sound.

    A congruence multiplies the determinant by u * conj(u) for a unit u.
    Over the Laurent ring, and over cyclic rings of order 1, 2, 3, 4 or 6,
    every unit is +-(monomial), hence u * conj(u) = 1 and the determinant
    must match exactly.  Other cyclic orders have units of infinite order,
    so no bounded check is conclusive and the refutation is skipped.
    """
    if not form0.ring.units_fully_known:
        return None
    if form0.det != form1.det:
        return (
            "determinant class mismatch: "
            f"{form0.det} vs {form1.det} cannot differ by u*conj(u) for a unit u"
        )
    return None


_SCALE, _SWAP, _ADD = "scale", "swap", "add"


@lru_cache(maxsize=8)
def _generators(ring: Ring, m: int) -> tuple:
    """The packed generator table, in fixed order, built once per (ring, m).

    Monomial scalings ("scale", i, i, (k, c)), swaps ("swap", i, j) and
    transvections ("add", i, j, (k, c)), where (k, c) is the monomial
    c * T^k, whose payload is the one pair ((k, c),): a scaling
    multiplies row i by it, a transvection adds it times row j to row i.
    """
    exps = range(ring.d) if isinstance(ring, CyclicRing) else range(-2, 3)
    gens = []
    for i in range(m):
        for w in [(k, c) for k in exps for c in (1, -1)]:
            if w != (0, 1):
                gens.append((_SCALE, i, i, w))
    for i in range(m):
        for j in range(i + 1, m):
            gens.append((_SWAP, i, j))
    for i in range(m):
        for j in range(m):
            if i != j:
                for w in [(k, c) for c in (1, -1, 2, -2) for k in exps]:
                    gens.append((_ADD, i, j, w))
    return tuple(gens)


def _child_form(gen, b, ring: Ring):
    """E B E* for the elementary matrix E of a packed generator.

    Scaling row i by u changes row i and column i of B and keeps B_ii,
    since u * conj(u) = 1; a swap permutes B; a transvection
    row_i += w * row_j changes row i and column i.  Columns follow from
    rows because B stays hermitian.  A bordered form [[A, z], [z*, 0]]
    becomes [[E A E*, E z], [(E z)*, 0]] the same way.
    """
    kind, i = gen[0], gen[1]
    m = len(b)
    if kind == _SWAP:
        j = gen[2]
        perm = list(range(m))
        perm[i], perm[j] = j, i
        return tuple(tuple(b[r][s] for s in perm) for r in perm)
    scale_row, add, conj = ring.scale_row, ring.add, ring.conj
    _, i, j, w = gen
    if kind == _SCALE:
        row = list(scale_row(w, b[i]))
        row[i] = b[i][i]
    else:
        wb = scale_row(w, b[j])
        row = list(map(add, b[i], wb))
        # B'_ii = B_ii + w B_ji + conj(w B_ji) + w conj(w) B_jj
        c = w[1]
        (cc_bjj,) = scale_row((0, c * c), (b[j][j],))
        row[i] = add(add(row[i], conj(wb[i])), cc_bjj)
    row = tuple(row)
    return tuple(
        row if r == i else b[r][:i] + (conj(row[r]),) + b[r][i + 1:] for r in range(m)
    )


def _apply(gen, p, ring: Ring):
    """E P for one packed generator E, without a growth check.

    Every row of E P but row ``gen[1]`` is a row of P, so when P is
    within the growth limits, checking that row checks the whole child.
    """
    rows = list(p)
    if gen[0] == _SWAP:
        i, j = gen[1], gen[2]
        rows[i], rows[j] = rows[j], rows[i]
    else:
        _, i, j, w = gen
        row = ring.scale_row(w, p[j])
        rows[i] = tuple(map(ring.add, p[i], row)) if gen[0] == _ADD else row
    return tuple(rows)


def _inverse(gen, ring: Ring):
    """The packed generator undoing ``gen``; it is in the table too.

    Scaling by c T^k, the one-pair payload ((k, c),), is undone by its
    conjugate c T^-k, a swap by itself, and the transvection
    row_i += c T^k row_j by row_i += -c T^k row_j.
    """
    if gen[0] == _SWAP:
        return gen
    kind, i, j, (k, c) = gen
    if kind == _ADD:
        return kind, i, j, (k, -c)
    return kind, i, j, ring.conj(((k, c),))[0]


def _path(reached: dict, key) -> list:
    """The generators leading from a side's start form to ``key``, last first."""
    gens = []
    while (link := reached[key]) is not None:
        key, gen = link
        gens.append(gen)
    return gens


def _bidirectional_search(
    form0: HermitianForm, form1: HermitianForm, budget: int, pointed=None
) -> CongruenceOutcome:
    """Breadth-first search from both ends, deduplicated on forms.

    The forward side walks P A0 P* from A0, the backward side Q A1 Q*
    from A1, both with the same generators; a pointed search borders each
    form by its point, [[A, z], [z*, 0]], so a state is one matrix.  A
    queue entry holds a parent's packed matrix, the parent's form and the
    generator table, and a per-side cursor walks the first entry's
    generators, so the queue holds one entry per node, not per child.  A
    child is built only when it is popped: its form is derived first, and
    a child whose form its side has already reached is dropped
    uncounted; otherwise the child matrix is built and its one changed
    row checked against the growth limits, and a child outside them is
    dropped without reaching its form.  Children depend only on the
    form, so the first matrix to reach a form stays its witness.  Equal
    matrices give equal forms, and the queues are first in, first out,
    so no set of matrices is needed: a later copy of a matrix is dropped
    as a repeated form, or for the limits that dropped the first copy.

    Each side records, per reached form, the parent form and the
    generator that reached it.  When a form popped on one side has been
    reached on the other, P A0 P* = Q A1 Q* (and P z0 = Q z1, read off
    the border), so W = Q^-1 P is a witness: P is rebuilt from the
    forward path, and Q^-1 P by applying the inverses of the backward
    path's generators to P, last generator first.  Both start forms are
    reached before the first pop, so identical endpoints give the
    identity at 0 nodes.

    The side with fewer children pending pops next, forward on a tie.
    A node is a distinct form popped on either side, the meeting form
    included, and ``budget`` bounds their number.  When either side's
    queue runs out, its whole orbit within the growth limits was
    reached without meeting the other end.
    """
    ring = form0.ring
    m = form0.size
    gens = _generators(ring, m)
    row_ok = ring.row_ok
    start = _pack_matrix(ring, ring_identity(ring, m))
    ends = [end.packed for end in (pointed or (form0, form1))]
    queues = [deque([(start, key, (None,))]) for key in ends]  # one child: the start
    cursors, pending = [0, 0], [1, 1]
    reached = [{key: None} for key in ends]
    meet = ends[0] if ends[0] == ends[1] else None
    nodes = 0
    while meet is None:
        if not pending[0] or not pending[1]:
            return CongruenceOutcome(
                SEARCH_NOT_FOUND,
                reason="generator orbit exhausted within the entry-growth limits",
                nodes_explored=nodes,
            )
        if nodes >= budget:
            return CongruenceOutcome(
                SEARCH_NOT_FOUND, reason="node budget exhausted", nodes_explored=nodes
            )
        side = 1 if pending[1] < pending[0] else 0
        p, key, todo = queues[side][0]
        made_by = todo[cursors[side]]
        cursors[side] = (cursors[side] + 1) % len(todo)
        if not cursors[side]:
            queues[side].popleft()
        pending[side] -= 1
        if made_by is not None:
            parent, key = key, _child_form(made_by, key, ring)
            if key in reached[side]:
                continue
            p = _apply(made_by, p, ring)
            if not row_ok(p[made_by[1]], COEFF_LIMIT, EXP_LIMIT):
                continue
            reached[side][key] = (parent, made_by)
        nodes += 1
        if key in reached[1 - side]:
            meet = key
        else:
            queues[side].append((p, key, gens))
            pending[side] += len(gens)
    witness = start
    for gen in reversed(_path(reached[0], meet)):
        witness = _apply(gen, witness, ring)
    for gen in _path(reached[1], meet):
        witness = _apply(_inverse(gen, ring), witness, ring)
    return CongruenceOutcome(
        SEARCH_FOUND,
        witness=_verified_witness(witness, form0, form1, pointed),
        nodes_explored=nodes,
    )


def _verified_witness(p, form0: HermitianForm, form1: HermitianForm, pointed):
    """The elements of a packed witness, re-verified exactly; raise if it fails."""
    ring = form0.ring
    witness = _element_matrix(ring, p)
    if not verify_congruence(witness, form0, form1):
        raise WitnessVerificationFailed("search witness fails P A0 conj(P)^T == A1")
    if pointed is not None:
        z0, z1 = [tuple(row[-1:] for row in end.packed[:-1]) for end in pointed]
        if _mat_mul(p, z0, ring) != z1:  # the points, as columns
            raise WitnessVerificationFailed("search witness fails P z0 == z1")
    return witness


def _check_compatible(form0: HermitianForm, form1: HermitianForm) -> None:
    if form0.ring != form1.ring:
        raise RingMismatch(f"forms live over different rings: {form0.ring} vs {form1.ring}")
    if form0.size != form1.size:
        raise DimensionMismatch(
            f"forms have different sizes: {form0.size} vs {form1.size}"
        )


def _divisibility_refutation(
    pointed0: PointedHermitianForm, pointed1: PointedHermitianForm
) -> str | None:
    """Compare the augmented divisibilities of the points; None when equal."""
    g0 = pointed0.augmented_divisibility
    g1 = pointed1.augmented_divisibility
    if g0 != g1:
        return (
            "pointed classes have different divisibility after augmentation: "
            f"{g0} vs {g1} (a primitive class must map to a primitive class)"
        )
    return None


def _search(form0, form1, budget, pointed=None):
    """Refute, then search: the one path behind both public searches.

    Refutations run in a fixed order and the first that fires decides:
    pointed divisibility (pointed searches only), the augmented integer
    forms, then the determinant class.
    """
    _check_compatible(form0, form1)
    reason = (
        (pointed is not None and _divisibility_refutation(*pointed))
        or _augmentation_refutation(form0, form1)
        or _determinant_refutation(form0, form1)
    )
    if reason:
        return CongruenceOutcome(SEARCH_DISPROVEN, reason=reason)
    return _bidirectional_search(form0, form1, budget, pointed)


def congruence_search(
    form0: HermitianForm,
    form1: HermitianForm,
    budget: int = DEFAULT_BUDGET,
) -> CongruenceOutcome:
    """Decide congruence of two hermitian forms, within a node budget.

    Runs the sound refutations first (augmented integer forms, then the
    determinant class where the unit group is fully known), then a
    breadth-first search from both forms over products of monomial
    scalings, swaps and bounded transvections.  ``nodes_explored`` counts
    the distinct forms expanded on both sides.  Deterministic for a
    fixed budget.
    """
    return _search(form0, form1, budget)


def pointed_congruence_search(
    pointed0: PointedHermitianForm,
    pointed1: PointedHermitianForm,
    budget: int = DEFAULT_BUDGET,
) -> CongruenceOutcome:
    """As :func:`congruence_search`, requiring additionally P z0 = z1.

    The image of a class under an invertible matrix keeps the gcd of its
    augmentation vector, so pointed pairs whose augmented divisibilities
    differ are disproven outright.
    """
    return _search(pointed0.form, pointed1.form, budget, (pointed0, pointed1))
