import functools
import itertools
import random
import tracemalloc

import pytest

import oracles
from spherecalc import hermitian, intlattice
from spherecalc.errors import (
    DimensionMismatch,
    NotFreeBasis,
    RingMismatch,
    WitnessVerificationFailed,
)
from spherecalc.groupring import CyclicRing, GroupRingElem, LaurentElem, LaurentRing
from spherecalc.hermitian import (
    EquivariantIntegerForm,
    HermitianForm,
    PointedHermitianForm,
    augment_form,
    build_equivariant_form,
    congruence_search,
    conj_transpose,
    extend_integer_form,
    is_nonsingular,
    pointed_congruence_search,
    ring_det,
    ring_identity,
    ring_mat_mul,
    ring_mat_vec,
    verify_congruence,
)
from spherecalc.intlattice import H_MATRIX, block_diag

Z2 = CyclicRing(2)
L = LaurentRing()
HH = block_diag(H_MATRIX, H_MATRIX)
KERNEL_RINGS = [CyclicRing(2), CyclicRing(3), CyclicRing(4), CyclicRing(5), L]

FORM_1 = HermitianForm(Z2, ((1,),))
FORM_T = HermitianForm(Z2, ((Z2.monomial(1),),))


def laurent(terms):
    return LaurentElem(terms.items())


# ---------------------------------------------------------------------------
# construction and validation


def test_hermitian_constructor_rejects_nonhermitian():
    t = L.monomial(1)
    with pytest.raises(ValueError, match="hermitian"):
        HermitianForm(L, ((L.zero(), t), (t, L.zero())))
    with pytest.raises(DimensionMismatch, match="not square"):
        HermitianForm(L, ((L.zero(), t), (t,)))


def test_hermitian_allows_conjugate_pairs():
    t, tinv = L.monomial(1), L.monomial(-1)
    form = HermitianForm(L, ((L.zero(), t), (tinv, L.zero())))
    assert form.size == 2


def test_pointed_form_primitivity_is_reported_not_enforced():
    p = PointedHermitianForm(FORM_T, (Z2.from_int(2),))
    assert p.augmented_divisibility != 1
    assert p.augmented_divisibility == 2
    assert PointedHermitianForm(FORM_T, (Z2.one(),)).augmented_divisibility == 1


def test_pointed_form_length_check():
    with pytest.raises(DimensionMismatch):
        PointedHermitianForm(FORM_T, (Z2.one(), Z2.one()))


# ---------------------------------------------------------------------------
# determinants over the rings


def _permutation_det(rows, ring):
    """The Leibniz expansion, in the oracles' sums and products, not the ring's."""
    m = len(rows)
    total = ring.zero()
    for perm in itertools.permutations(range(m)):
        inversions = sum(
            1 for i in range(m) for j in range(i + 1, m) if perm[i] > perm[j]
        )
        prod = ring.from_int(-1 if inversions % 2 else 1)
        for i in range(m):
            prod = oracles.element_product(prod, rows[i][perm[i]])
        total = oracles.element_sum(total, prod)
    return total


def test_ring_det_matches_permutation_expansion():
    rng = random.Random(23)
    z4 = CyclicRing(4)  # has zero divisors; division-based algorithms would break
    for _ in range(15):
        m = rng.randint(1, 4)
        rows = tuple(
            tuple(
                GroupRingElem(4, tuple(rng.randint(-2, 2) for _ in range(4)))
                for _ in range(m)
            )
            for _ in range(m)
        )
        assert ring_det(rows, z4) == _permutation_det(rows, z4)
    for _ in range(10):
        m = rng.randint(1, 3)
        rows = tuple(
            tuple(
                laurent({rng.randint(-2, 2): rng.randint(-2, 2)}) for _ in range(m)
            )
            for _ in range(m)
        )
        assert ring_det(rows, L) == _permutation_det(rows, L)


def test_ring_det_empty_is_one():
    assert ring_det((), L) == L.one()


def _oracle_mat_mul(a, b, ring):
    """A B entry by entry, in the oracles' sums and products."""
    return tuple(
        tuple(
            functools.reduce(
                oracles.element_sum,
                [oracles.element_product(x, y) for x, y in zip(row, col)],
                ring.zero(),
            )
            for col in zip(*b)
        )
        for row in a
    )


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=str)
def test_matrix_helpers_match_the_oracles(ring):
    rng = random.Random(f"matrices:{ring}")
    assert conj_transpose(()) == ()
    for m in range(1, 5):
        for _ in range(4):
            a, b = [
                tuple(tuple(_random_element(rng, ring) for _ in range(m)) for _ in range(m))
                for _ in range(2)
            ]
            if m > 1 and rng.random() < 0.3:
                a = a[:-1] + a[:1]  # a repeated row: the determinant is zero
            v = tuple(_random_element(rng, ring) for _ in range(m))
            assert ring_mat_mul(a, b, ring) == _oracle_mat_mul(a, b, ring)
            column = _oracle_mat_mul(a, tuple((x,) for x in v), ring)
            assert ring_mat_vec(a, v, ring) == tuple(row[0] for row in column)
            assert conj_transpose(a) == tuple(
                tuple(map(oracles.element_conj, col)) for col in zip(*a)
            )
            assert ring_det(a, ring) == _permutation_det(a, ring)


def test_verify_congruence_needs_a_unit_and_the_exact_product():
    z4 = CyclicRing(4)
    for ring, nonunit in ((z4, z4.from_int(2)), (L, L.one() + L.monomial(1))):
        zero, one = HermitianForm(ring, ((0,),)), HermitianForm(ring, ((1,),))
        minus_one = HermitianForm(ring, ((-1,),))
        # P 0 P* = 0 for every P, so only the determinant can reject P
        assert not verify_congruence(((nonunit,),), zero, zero)
        assert verify_congruence(((ring.one(),),), zero, zero)
        # a unit P whose product differs
        t = ring.monomial(1)
        assert verify_congruence(((t,),), one, one)
        assert not verify_congruence(((t,),), one, minus_one)
        # a P of another size
        assert not verify_congruence(ring_identity(ring, 2), one, one)


def test_pointed_witness_that_misses_the_point_raises():
    form = extend_integer_form(H_MATRIX, Z2)
    e1 = PointedHermitianForm(form, (Z2.one(), Z2.zero()))
    e2 = PointedHermitianForm(form, (Z2.zero(), Z2.one()))
    identity = hermitian._pack_matrix(Z2, ring_identity(Z2, 2))
    assert hermitian._verified_witness(identity, form, form, (e1, e1)) == ring_identity(Z2, 2)
    # the identity carries A to A, but e1 to e1, not to e2
    with pytest.raises(WitnessVerificationFailed, match="z0 == z1"):
        hermitian._verified_witness(identity, form, form, (e1, e2))


# ---------------------------------------------------------------------------
# equivariant construction


def test_conic_cover_form_is_T():
    eq = EquivariantIntegerForm(H_MATRIX, ((0, 1), (1, 0)))
    assert eq.order == 2
    lam = build_equivariant_form(eq, [(1, 0)])
    assert lam.matrix == ((Z2.monomial(1),),)
    assert augment_form(lam) == ((1,),)


def test_trivial_action_recovers_the_form():
    eq = EquivariantIntegerForm(H_MATRIX, ((1, 0), (0, 1)))
    lam = build_equivariant_form(eq, [(1, 0), (0, 1)])
    assert lam.ring == CyclicRing(1)
    assert augment_form(lam) == H_MATRIX


def test_block_swap_on_two_hyperbolics():
    swap_blocks = ((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0))
    eq = EquivariantIntegerForm(HH, swap_blocks)
    lam = build_equivariant_form(eq, [(1, 0, 0, 0), (0, 1, 0, 0)])
    zero, one = Z2.zero(), Z2.one()
    assert lam.matrix == ((zero, one), (one, zero))


def test_build_rejects_wrong_rank():
    eq = EquivariantIntegerForm(H_MATRIX, ((0, 1), (1, 0)))
    with pytest.raises(NotFreeBasis):
        build_equivariant_form(eq, [(1, 0), (0, 1)])


def test_build_rejects_dependent_orbits():
    swap_blocks = ((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0))
    eq = EquivariantIntegerForm(HH, swap_blocks)
    with pytest.raises(NotFreeBasis):
        build_equivariant_form(eq, [(1, 0, 0, 0), (0, 0, 1, 0)])  # same orbit


@pytest.mark.parametrize("basis, index", [([(2, 0)], 4), ([(2, 1)], 3)])
def test_build_rejects_translates_that_span_a_proper_sublattice(basis, index):
    # independent translates of nonunit determinant are no Z-basis of Z^N
    eq = EquivariantIntegerForm(((1, 0), (0, 1)), ((0, 1), (1, 0)))
    with pytest.raises(NotFreeBasis, match=f"index {index}"):
        build_equivariant_form(eq, basis)


def test_equivariant_data_validation():
    with pytest.raises(ValueError, match="preserve"):
        EquivariantIntegerForm(((1, 0), (0, -1)), ((0, 1), (1, 0)))
    with pytest.raises(ValueError, match="symmetric"):
        EquivariantIntegerForm(((0, 1), (2, 0)), ((1, 0), (0, 1)))


def _random_free_equivariant(rng, m, d):
    """Cyclic shift on m blocks of size d with an invariant symmetric form."""
    n = m * d
    t = tuple(
        tuple(
            1 if (j // d == i // d and j % d == (i % d + 1) % d) else 0
            for j in range(n)
        )
        for i in range(n)
    )
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = rng.randint(-2, 2)
    q = [[0] * n for _ in range(n)]
    power = intlattice.identity_matrix(n)
    for _ in range(d):
        conj = intlattice.mat_mul(intlattice.mat_mul(intlattice.transpose(power), a), power)
        for i in range(n):
            for j in range(n):
                q[i][j] += conj[i][j]
        power = intlattice.mat_mul(power, t)
    return EquivariantIntegerForm(q, t), [
        tuple(1 if c == i * d else 0 for c in range(n)) for i in range(m)
    ]


def test_randomized_equivariant_builds_are_hermitian_and_augment_correctly():
    rng = random.Random(31)
    for _ in range(12):
        m, d = rng.randint(1, 2), rng.randint(1, 4)
        eq, basis = _random_free_equivariant(rng, m, d)
        lam = build_equivariant_form(eq, basis)  # constructor asserts hermitian
        n = m * d
        pairings = {}  # (i, j, k) -> Q(b_i, T^k b_j), by direct summation
        power = intlattice.identity_matrix(n)
        for k in range(d):
            for i in range(m):
                for j in range(m):
                    tb = intlattice.mat_vec(power, basis[j])
                    pairings[i, j, k] = sum(
                        basis[i][r] * eq.q[r][c] * tb[c]
                        for r in range(n)
                        for c in range(n)
                    )
            power = intlattice.mat_mul(power, eq.t_action)
        for i in range(m):
            for j in range(m):
                entry = lam.matrix[i][j]
                for k in range(d):
                    assert entry.coeffs[(-k) % d] == pairings[i, j, k]
        aug = augment_form(lam)
        for i in range(m):
            for j in range(m):
                assert aug[i][j] == sum(pairings[i, j, k] for k in range(d))


# ---------------------------------------------------------------------------
# augmentation, extension, nonsingularity


def test_augment_examples():
    assert augment_form(FORM_T) == ((1,),)
    assert augment_form(extend_integer_form(HH, L)) == HH
    assert augment_form(HermitianForm(L, ((laurent({1: 1, -1: 1}),),))) == ((2,),)


def test_extend_examples():
    assert extend_integer_form([[1]], L).matrix == ((L.one(),),)
    assert augment_form(extend_integer_form(HH, L)) == HH
    assert extend_integer_form([[1]], Z2).matrix == ((Z2.one(),),)
    with pytest.raises(ValueError):
        extend_integer_form([[0, 1], [2, 0]], L)


def test_nonsingular_examples():
    assert is_nonsingular(FORM_T) is True
    one_plus_t = Z2.one() + Z2.monomial(1)
    assert is_nonsingular(HermitianForm(Z2, ((one_plus_t,),))) is False
    assert is_nonsingular(extend_integer_form(H_MATRIX, L)) is True


# ---------------------------------------------------------------------------
# congruence search


def test_search_disproves_1_vs_T():
    out = congruence_search(FORM_1, FORM_T)
    assert out.status == hermitian.SEARCH_DISPROVEN
    assert "determinant" in out.reason


def test_search_finds_identity_on_equal_forms():
    form = extend_integer_form(HH, L)
    out = congruence_search(form, form)
    assert out.status == hermitian.SEARCH_FOUND
    assert out.witness == ring_identity(L, 4)


def test_identical_endpoints_are_found_at_budget_zero():
    form = extend_integer_form(HH, L)
    out = congruence_search(form, form, budget=0)
    assert out == hermitian.CongruenceOutcome(
        hermitian.SEARCH_FOUND, witness=ring_identity(L, 4), nodes_explored=0
    )
    pointed = PointedHermitianForm(FORM_T, (GroupRingElem(2, (2, -1)),))
    out = pointed_congruence_search(pointed, pointed, budget=0)
    assert out == hermitian.CongruenceOutcome(
        hermitian.SEARCH_FOUND, witness=ring_identity(Z2, 1), nodes_explored=0
    )


def test_search_finds_monomial_twist():
    form_h = extend_integer_form(H_MATRIX, L)
    twisted = HermitianForm(
        L,
        (
            (L.zero(), L.monomial(1)),
            (L.monomial(-1), L.zero()),
        ),
    )
    out = congruence_search(form_h, twisted)
    assert out.status == hermitian.SEARCH_FOUND
    assert verify_congruence(out.witness, form_h, twisted)
    # the hand witness diag(t, 1) also certifies the congruence
    hand = (
        (L.monomial(1), L.zero()),
        (L.zero(), L.one()),
    )
    assert verify_congruence(hand, form_h, twisted)


def test_search_monomial_twist_of_two_hyperbolics():
    form = extend_integer_form(HH, L)
    p = tuple(
        tuple(
            L.monomial(1) if (i == j == 0)
            else L.monomial(-1) if (i == j == 2)
            else L.one() if i == j
            else L.zero()
            for j in range(4)
        )
        for i in range(4)
    )
    target = HermitianForm(L, ring_mat_mul(ring_mat_mul(p, form.matrix, L), conj_transpose(p), L))
    out = congruence_search(form, target, budget=50_000)
    assert out.status == hermitian.SEARCH_FOUND
    assert verify_congruence(out.witness, form, target)
    assert out.witness == p  # diag(t, 1, t^-1, 1)
    assert out.nodes_explored == 25


def test_search_budget_exhaustion_is_reported():
    form = extend_integer_form(HH, L)
    twisted = HermitianForm(
        L,
        tuple(
            tuple(
                L.monomial(2) if (i, j) == (0, 1)
                else L.monomial(-2) if (i, j) == (1, 0)
                else form.matrix[i][j]
                for j in range(4)
            )
            for i in range(4)
        ),
    )
    out = congruence_search(form, twisted, budget=3)
    assert out.status == hermitian.SEARCH_NOT_FOUND
    assert "budget" in out.reason


def test_capped_pointed_search_keeps_its_frontier_small():
    # H over the Laurent ring, pointed at e0 and at (2 - t) e0: the points
    # augment to the same divisibility, so nothing refutes the pair and the
    # search runs into its budget.  A queue entry per child (59 generators
    # at m = 2) peaked at ~26 MB here; one entry per expanded node peaks at
    # ~6 MB.
    form = extend_integer_form(H_MATRIX, L)
    pointed0 = PointedHermitianForm(form, (L.one(), L.zero()))
    pointed1 = PointedHermitianForm(form, (L.from_int(2) - L.monomial(1), L.zero()))
    tracemalloc.start()
    try:
        out = pointed_congruence_search(pointed0, pointed1, budget=5000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (out.status, out.reason) == (hermitian.SEARCH_NOT_FOUND, "node budget exhausted")
    assert out.nodes_explored == 5000
    assert peak < 12 * 2**20, peak


def test_search_orbit_exhaustion_without_determinant_refutation():
    # order 5 has units beyond +-T^k, so the determinant refutation is
    # skipped and the 1x1 search exhausts the monomial orbit honestly
    z5 = CyclicRing(5)
    lam0 = HermitianForm(z5, ((1,),))
    lam1 = HermitianForm(
        z5, ((GroupRingElem(5, (-1, 0, 1, 1, 0)),),)
    )
    assert lam1.matrix[0][0].conjugate() == lam1.matrix[0][0]
    out = congruence_search(lam0, lam1)
    assert out.status == hermitian.SEARCH_NOT_FOUND
    assert "orbit exhausted" in out.reason
    assert out.nodes_explored == 2


def test_search_disproven_by_augmentation_matches_integer_isometry():
    lam0 = extend_integer_form(((1, 0), (0, 1)), Z2)
    lam1 = extend_integer_form(H_MATRIX, Z2)
    out = congruence_search(lam0, lam1)
    assert out.status == hermitian.SEARCH_DISPROVEN
    assert "augmented" in out.reason
    integer_verdict = intlattice.is_isometric(((1, 0), (0, 1)), H_MATRIX)
    assert integer_verdict.verdict == intlattice.ISO_NO


@pytest.mark.parametrize(
    "ring, q0, q1, reason",
    [
        # the benchmark's L.I++--.vs-I4.aug-signature: determinants 1 and 1
        (
            L,
            block_diag(*[((v,),) for v in (1, 1, -1, -1)]),
            intlattice.identity_matrix(4),
            "signature 0 != 4",
        ),
        # the benchmark's Z3.odd-vs-H.aug-parity: determinants -1 and -1, signatures 0
        (CyclicRing(3), ((1, 1), (1, 0)), H_MATRIX, "parity differs"),
    ],
    ids=["signature", "parity"],
)
def test_augmented_signature_and_parity_refute_without_search(ring, q0, q1, reason):
    out = congruence_search(extend_integer_form(q0, ring), extend_integer_form(q1, ring))
    assert out == hermitian.CongruenceOutcome(
        hermitian.SEARCH_DISPROVEN,
        reason=f"augmented forms are not isometric over Z: {reason}",
        nodes_explored=0,
    )


@pytest.mark.parametrize("ring, nodes, capped_nodes", [(Z2, 11, 16), (L, 23, 38)], ids=str)
def test_growth_limit_prunes_children_and_the_search_still_finds(
    monkeypatch, ring, nodes, capped_nodes
):
    # P = [[1, 2], [0, 1]] carries I2 to [[5, 2], [2, 1]].  With every
    # coefficient capped at 1 the search drops children outside the cap,
    # and meets at more nodes; the cap bounds each side's matrix, not the
    # witness Q^-1 P, whose entry 2 is a product of the two sides.
    form0 = extend_integer_form(intlattice.identity_matrix(2), ring)
    form1 = extend_integer_form(((5, 2), (2, 1)), ring)
    row_ok = type(ring).row_ok
    checks = []

    def recorded(row, coeff_limit, exp_limit):
        checks.append(row_ok(row, coeff_limit, exp_limit))
        return checks[-1]

    monkeypatch.setattr(type(ring), "row_ok", staticmethod(recorded))
    assert congruence_search(form0, form1).nodes_explored == nodes
    assert checks and all(checks)
    checks.clear()
    monkeypatch.setattr(hermitian, "COEFF_LIMIT", 1)
    out = congruence_search(form0, form1)
    assert (out.status, out.nodes_explored) == (hermitian.SEARCH_FOUND, capped_nodes)
    assert verify_congruence(out.witness, form0, form1)
    assert not all(checks)


def test_definite_determinant_twist_is_refuted_without_integer_isometry(monkeypatch):
    # like the benchmark's L.I3.definite-a: the augmentations are I3 and a
    # changed basis of it, so only the determinant class refutes the pair,
    # and the augmentation step never consults is_isometric
    def no_isometry(*args):
        raise AssertionError("is_isometric is not part of the refutations")

    monkeypatch.setattr(intlattice, "is_isometric", no_isometry)
    q = ((1, 0, -2), (0, 1, 0), (-2, 0, 5))  # P P^T, P = ((0,0,1),(0,1,0),(1,0,-2))
    rows = [list(row) for row in extend_integer_form(q, L).matrix]
    rows[0][0] = rows[0][0] + laurent({1: 1, -1: 1, 0: -2})  # augments to 0
    form0 = extend_integer_form(intlattice.identity_matrix(3), L)
    form1 = HermitianForm(L, tuple(map(tuple, rows)))
    out = congruence_search(form0, form1)
    assert out.status == hermitian.SEARCH_DISPROVEN
    assert out.reason.startswith("determinant class mismatch")
    assert out.nodes_explored == 0


def test_search_ring_and_size_preconditions():
    with pytest.raises(RingMismatch):
        congruence_search(FORM_1, extend_integer_form([[1]], L))
    with pytest.raises(DimensionMismatch):
        congruence_search(extend_integer_form(HH, L), extend_integer_form(H_MATRIX, L))


def test_found_witnesses_preserve_determinant_class():
    rng = random.Random(41)
    cases = []
    for ring, base in [(Z2, H_MATRIX), (CyclicRing(3), ((1, 0), (0, -1))), (L, H_MATRIX)]:
        form0 = extend_integer_form(base, ring)
        gens = hermitian._generators(ring, 2)
        p = ring_identity(ring, 2)
        for _ in range(2):
            p = oracles.apply_generator(rng.choice(gens), p, ring)
        form1 = HermitianForm(
            ring, ring_mat_mul(ring_mat_mul(p, form0.matrix, ring), conj_transpose(p), ring)
        )
        out = congruence_search(form0, form1, budget=100_000)
        assert out.status == hermitian.SEARCH_FOUND
        assert verify_congruence(out.witness, form0, form1)
        cases.append((form0, form1, out))
    for form0, form1, out in cases:
        if form0.ring.units_fully_known:
            assert form0.det == form1.det


def test_search_is_deterministic():
    form = extend_integer_form(HH, L)
    p = tuple(
        tuple(
            L.monomial(1) if i == j == 0
            else L.one() if i == j
            else L.zero()
            for j in range(4)
        )
        for i in range(4)
    )
    target = HermitianForm(L, ring_mat_mul(ring_mat_mul(p, form.matrix, L), conj_transpose(p), L))
    first = congruence_search(form, target, budget=20_000)
    second = congruence_search(form, target, budget=20_000)
    assert first == second
    assert first.status == hermitian.SEARCH_FOUND


def test_search_finds_depth_three_witness():
    rng = random.Random(61)
    ring = CyclicRing(2)
    form0 = extend_integer_form(H_MATRIX, ring)
    gens = hermitian._generators(ring, 2)
    p = ring_identity(ring, 2)
    for _ in range(3):
        p = oracles.apply_generator(rng.choice(gens), p, ring)
    form1 = HermitianForm(
        ring, ring_mat_mul(ring_mat_mul(p, form0.matrix, ring), conj_transpose(p), ring)
    )
    out = congruence_search(form0, form1, budget=300_000)
    assert out.status == hermitian.SEARCH_FOUND
    assert verify_congruence(out.witness, form0, form1)


def test_search_raises_when_the_witness_fails_verification(monkeypatch):
    # never bluff, also under ``python -O``: a rejected witness raises
    monkeypatch.setattr(hermitian, "verify_congruence", lambda *args: False)
    form = extend_integer_form(H_MATRIX, L)
    with pytest.raises(WitnessVerificationFailed):
        congruence_search(form, form)


# ---------------------------------------------------------------------------
# the packed search kernel against element arithmetic


def _random_element(rng, ring):
    if isinstance(ring, CyclicRing):
        return GroupRingElem(ring.d, tuple(rng.randint(-2, 2) for _ in range(ring.d)))
    return laurent({rng.randint(-3, 3): rng.randint(-2, 2) for _ in range(rng.randint(0, 3))})


def _random_hermitian(rng, ring, m):
    rows = [[ring.zero()] * m for _ in range(m)]
    for i in range(m):
        x = _random_element(rng, ring)
        rows[i][i] = x + x.conjugate()
        for j in range(i + 1, m):
            rows[i][j] = _random_element(rng, ring)
            rows[j][i] = rows[i][j].conjugate()
    return tuple(map(tuple, rows))


def _within_limits(p):
    """Whole-matrix growth check on elements, the reference for the kernel."""
    coeff_limit, exp_limit = hermitian.COEFF_LIMIT, hermitian.EXP_LIMIT
    for row in p:
        for v in row:
            if isinstance(v, GroupRingElem):
                if any(abs(c) > coeff_limit for c in v.coeffs):
                    return False
            elif any(abs(c) > coeff_limit or abs(e) > exp_limit for e, c in v.terms):
                return False
    return True


def _pack(rows):
    return tuple(tuple(x.terms for x in row) for row in rows)


def _unpack(ring, p):
    return tuple(tuple(ring.element(x) for x in row) for row in p)


# Z12 has exponents above EXP_LIMIT, and scale_row and conj wrap them mod 12;
# over Z1 every exponent is 0, which conj keeps first
@pytest.mark.parametrize("ring", KERNEL_RINGS + [CyclicRing(12), CyclicRing(1)], ids=str)
def test_packed_arithmetic_matches_elements(ring):
    rng = random.Random(f"payloads:{ring}")
    gens = hermitian._generators(ring, 2)
    monomials = [g[3] for g in gens if g[0] != "swap"]
    for _ in range(200):
        x, y = _random_element(rng, ring), _random_element(rng, ring)
        if rng.random() < 0.2:
            y = -x  # cancellation to zero
        w = rng.choice(monomials)
        u = ring.monomial(*w)
        px, py = x.terms, y.terms
        assert ring.element(px) == x
        assert ring.add(px, py) == oracles.element_sum(x, y).terms
        assert ring.conj(px) == oracles.element_conj(x).terms
        assert ring.scale_row(w, (px, py)) == ((u * x).terms, (u * y).terms)
        # the growth check of the search, which over Z[Z_d] reads coefficients only
        limits = hermitian.COEFF_LIMIT, hermitian.EXP_LIMIT
        assert ring.row_ok((px, py), *limits) == _within_limits(((x, y),))
        # the element operators run on the same payload arithmetic
        assert x + y == oracles.element_sum(x, y)
        assert x.conjugate() == oracles.element_conj(x)


def test_large_cyclic_orders_pack_sparsely_and_search_per_nonzero_coefficient():
    ring = CyclicRing(4096)
    assert ring.monomial(4095, -2).terms == ((4095, -2),)
    assert ring.zero().terms == ()
    # one transvection by 1 + T over Z1024: about 5d nodes, each costing
    # per nonzero coefficient, not per d
    ring = CyclicRing(1024)
    t = ring.monomial(1)
    form0 = HermitianForm(ring, ((0, 1), (1, 0)))
    form1 = HermitianForm(ring, ((2 + t + t.conjugate(), 1), (1, 0)))
    out = congruence_search(form0, form1)
    assert (out.status, out.nodes_explored) == (hermitian.SEARCH_FOUND, 5126)
    assert verify_congruence(out.witness, form0, form1)


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=str)
def test_packed_kernel_tracks_element_products_along_random_paths(ring):
    rng = random.Random(f"kernel:{ring}")
    for m in range(1, 5):
        gens = hermitian._generators(ring, m)
        for _ in range(3):
            a0 = _random_hermitian(rng, ring, m)
            z0 = tuple(_random_element(rng, ring) for _ in range(m))
            p = ring_identity(ring, m)
            # the point as the border of the form: [[A0, z0], [z0*, 0]]
            border = tuple(x.conjugate() for x in z0) + (ring.zero(),)
            b = _pack([row + (x,) for row, x in zip(a0, z0)] + [border])
            for _ in range(6):
                packed = _pack(p)
                kept = []
                for gen in gens:
                    child = oracles.apply_generator(gen, p, ring)
                    built = hermitian._apply(gen, packed, ring)
                    assert built == _pack(child)
                    # the search checks only the row a generator changes
                    row_ok = ring.row_ok(
                        built[gen[1]], hermitian.COEFF_LIMIT, hermitian.EXP_LIMIT
                    )
                    assert row_ok == _within_limits(child)
                    if row_ok:
                        kept.append(gen)
                gen = rng.choice(kept)
                p = oracles.apply_generator(gen, p, ring)
                b = hermitian._child_form(gen, b, ring)
                bordered = _unpack(ring, b)
                pz = ring_mat_vec(p, z0, ring)
                assert tuple(row[:m] for row in bordered[:m]) == ring_mat_mul(
                    ring_mat_mul(p, a0, ring), conj_transpose(p), ring
                )
                assert tuple(row[m] for row in bordered[:m]) == pz
                assert bordered[m] == tuple(x.conjugate() for x in pz) + (ring.zero(),)


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=str)
def test_every_generator_inverse_is_in_the_table(ring):
    rng = random.Random(f"inverses:{ring}")
    for m in range(1, 4):
        gens = hermitian._generators(ring, m)
        inverse = {gen: hermitian._inverse(gen, ring) for gen in gens}
        assert tuple(inverse) == gens
        assert set(inverse.values()) == set(gens)
        p = tuple(tuple(_random_element(rng, ring) for _ in range(m)) for _ in range(m))
        for gen in gens:
            there = oracles.apply_generator(gen, p, ring)
            assert oracles.apply_generator(inverse[gen], there, ring) == p


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=str)
def test_search_finds_random_short_paths_from_both_ends(ring):
    rng = random.Random(f"meet:{ring}")
    for m in range(1, 4):
        gens = hermitian._generators(ring, m)
        for pointed in (False, True):
            for _ in range(2):
                a0 = _random_hermitian(rng, ring, m)
                p = ring_identity(ring, m)
                for _ in range(rng.randint(0, 3)):
                    p = oracles.apply_generator(rng.choice(gens), p, ring)
                form0 = HermitianForm(ring, a0)
                form1 = HermitianForm(
                    ring, ring_mat_mul(ring_mat_mul(p, a0, ring), conj_transpose(p), ring)
                )
                if pointed:
                    z0 = tuple(_random_element(rng, ring) for _ in range(m))
                    z1 = ring_mat_vec(p, z0, ring)
                    out = pointed_congruence_search(
                        PointedHermitianForm(form0, z0), PointedHermitianForm(form1, z1)
                    )
                else:
                    out = congruence_search(form0, form1)
                assert out.status == hermitian.SEARCH_FOUND, (ring, m, pointed, out)
                assert verify_congruence(out.witness, form0, form1)
                if pointed:
                    assert ring_mat_vec(out.witness, z0, ring) == z1


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=str)
def test_pointed_search_with_zero_points_matches_the_plain_search(ring):
    # a zero point borders each form with a zero row and column, which no
    # generator changes, so the pointed search walks the plain one
    rng = random.Random(f"zero-point:{ring}")
    gens = hermitian._generators(ring, 2)
    zero = (ring.zero(), ring.zero())
    for _ in range(3):
        a0 = _random_hermitian(rng, ring, 2)
        p = ring_identity(ring, 2)
        for _ in range(rng.randint(1, 3)):
            p = oracles.apply_generator(rng.choice(gens), p, ring)
        form0 = HermitianForm(ring, a0)
        form1 = HermitianForm(
            ring, ring_mat_mul(ring_mat_mul(p, a0, ring), conj_transpose(p), ring)
        )
        for budget in (3, 2_000):  # a tight budget and an ample one
            plain = congruence_search(form0, form1, budget)
            pointed = pointed_congruence_search(
                PointedHermitianForm(form0, zero), PointedHermitianForm(form1, zero), budget
            )
            assert pointed == plain


# ---------------------------------------------------------------------------
# pointed searches


def test_pointed_identity():
    p0 = PointedHermitianForm(FORM_T, (Z2.one(),))
    out = pointed_congruence_search(p0, p0)
    assert out.status == hermitian.SEARCH_FOUND
    assert out.witness == ring_identity(Z2, 1)


def test_pointed_monomial_shift():
    p0 = PointedHermitianForm(FORM_T, (Z2.one(),))
    p1 = PointedHermitianForm(FORM_T, (Z2.monomial(1),))
    out = pointed_congruence_search(p0, p1)
    assert out.status == hermitian.SEARCH_FOUND
    assert out.witness == ((Z2.monomial(1),),)


def test_pointed_primitivity_refutation():
    p0 = PointedHermitianForm(FORM_T, (Z2.one(),))
    p1 = PointedHermitianForm(FORM_T, (Z2.from_int(2),))
    out = pointed_congruence_search(p0, p1)
    assert out.status == hermitian.SEARCH_DISPROVEN
    assert "divisibility" in out.reason


def test_search_finds_signed_permutation_witness():
    z3 = CyclicRing(3)
    lam0 = extend_integer_form(((1, 0), (0, -1)), z3)
    lam1 = extend_integer_form(((-1, 0), (0, 1)), z3)
    out = congruence_search(lam0, lam1)
    assert out.status == hermitian.SEARCH_FOUND
    assert verify_congruence(out.witness, lam0, lam1)


def test_nonsingularity_is_congruence_invariant():
    rng = random.Random(67)
    for ring in (Z2, CyclicRing(3), L):
        for base in (H_MATRIX, ((1, 0), (0, 1)), ((1, 1), (1, 0))):
            form0 = extend_integer_form(base, ring)
            gens = hermitian._generators(ring, 2)
            p = ring_identity(ring, 2)
            for _ in range(2):
                p = oracles.apply_generator(rng.choice(gens), p, ring)
            form1 = HermitianForm(
                ring,
                ring_mat_mul(ring_mat_mul(p, form0.matrix, ring), conj_transpose(p), ring),
            )
            assert is_nonsingular(form0) == is_nonsingular(form1)


def test_pointed_witness_with_identity_augmentation():
    # the isotopy-upgrade condition: a pointed witness whose augmentation
    # is the identity matrix
    p0 = PointedHermitianForm(FORM_T, (Z2.one(),))
    p1 = PointedHermitianForm(FORM_T, (Z2.monomial(1),))
    out = pointed_congruence_search(p0, p1)
    assert out.status == hermitian.SEARCH_FOUND
    assert [[v.augment() for v in row] for row in out.witness] == [[1]]


def test_pointed_nonunit_class_is_honestly_not_found():
    # z = 2 - T is primitive under the augmentation proxy, but no unit can
    # carry 1 to it; the bounded search exhausts the unit orbit and says so
    z = GroupRingElem(2, (2, -1))
    p0 = PointedHermitianForm(FORM_T, (Z2.one(),))
    p1 = PointedHermitianForm(FORM_T, (z,))
    assert p1.augmented_divisibility == 1
    out = pointed_congruence_search(p0, p1)
    assert out.status == hermitian.SEARCH_NOT_FOUND
    assert out.nodes_explored == 8


def test_pointed_constraint_filters_witnesses():
    form = extend_integer_form(((1, 0), (0, 1)), Z2)
    e1 = (Z2.one(), Z2.zero())
    e2 = (Z2.zero(), Z2.one())
    out = pointed_congruence_search(
        PointedHermitianForm(form, e1), PointedHermitianForm(form, e2)
    )
    assert out.status == hermitian.SEARCH_FOUND
    assert hermitian.ring_mat_vec(out.witness, e1, Z2) == e2


# ---------------------------------------------------------------------------
# serialization


def test_json_round_trip():
    data = HermitianForm(L, ((laurent({1: 1, -1: 1}),),)).to_json_dict()
    assert data == {"ring": {"kind": "laurent"}, "size": 1, "entries": [[[[-1, 1], [1, 1]]]]}
    assert FORM_T.to_json_dict()["ring"] == {"kind": "cyclic", "d": 2}
    assert FORM_T.to_json_dict()["entries"] == [[[0, 1]]]
