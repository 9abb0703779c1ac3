import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from spherecalc import intlattice
from spherecalc.errors import DimensionMismatch
from spherecalc.intlattice import (
    E8_MATRIX,
    H_MATRIX,
    FormInvariants,
    IntersectionForm,
    block_diag,
    divisibility,
    form_invariants,
    integer_det,
    is_characteristic,
    is_isometric,
    mat_mul,
    self_intersection,
    signature,
    transpose,
)

HH = block_diag(H_MATRIX, H_MATRIX)
DIAG_1111 = tuple(tuple(1 if i == j else 0 for j in range(4)) for i in range(4))
DIAG_PPMM = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1))


# ---------------------------------------------------------------------------
# construction


def test_intersection_form_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        IntersectionForm([[0, 1], [2, 0]])


def test_intersection_form_rejects_nonunimodular():
    with pytest.raises(ValueError, match="unimodular"):
        IntersectionForm([[2]])


def test_ragged_and_mismatched_matrices_raise():
    with pytest.raises(DimensionMismatch, match="not square"):
        IntersectionForm([[1, 0], [0]])
    with pytest.raises(DimensionMismatch):
        mat_mul(HH, H_MATRIX)
    with pytest.raises(DimensionMismatch):
        intlattice.mat_vec(HH, (1, 0))


def test_builtin_matrices_are_unimodular():
    assert integer_det(E8_MATRIX) == 1
    assert integer_det(H_MATRIX) == -1
    assert IntersectionForm(E8_MATRIX).rank == 8


# ---------------------------------------------------------------------------
# divisibility


def test_divisibility_examples():
    assert divisibility([0, 0, 0, 0]) == 0
    assert divisibility([2, 4, 6, 0]) == 2
    assert divisibility([3, 5, 0, 0]) == 1


@given(
    st.lists(st.integers(-50, 50), min_size=1, max_size=6),
    st.integers(-9, 9),
)
def test_divisibility_scales(coords, k):
    x = tuple(coords)
    scaled = tuple(k * c for c in x)
    if divisibility(x) == 0:
        assert divisibility(scaled) == 0
    else:
        assert divisibility(scaled) == abs(k) * divisibility(x)


# ---------------------------------------------------------------------------
# self-intersection


def test_self_intersection_examples():
    assert self_intersection([[1]], [2]) == 4
    assert self_intersection(HH, [1, 1, 0, 0]) == 2
    assert self_intersection(HH, [2, 2, 0, 0]) == 8


def test_self_intersection_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        self_intersection(HH, [1, 2])


@given(st.lists(st.integers(-9, 9), min_size=4, max_size=4), st.integers(-6, 6))
def test_self_intersection_scales_quadratically(coords, d):
    x = tuple(coords)
    scaled = tuple(d * c for c in x)
    assert self_intersection(HH, scaled) == d * d * self_intersection(HH, x)


# ---------------------------------------------------------------------------
# characteristic classes


def test_characteristic_examples():
    assert is_characteristic([[1]], [1]) is True
    assert is_characteristic([[1]], [2]) is False
    assert is_characteristic(HH, [2, 2, 0, 0]) is True
    assert is_characteristic(HH, [1, 0, 0, 0]) is False


def test_characteristic_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        is_characteristic(HH, [1, 0])


def test_characteristic_agrees_with_bruteforce_on_random_unimodular_forms():
    rng = random.Random(7)
    blocks = {1: ((1,),), -1: ((-1,),), 2: H_MATRIX}
    for _ in range(60):
        n = rng.randint(1, 6)
        rows = []
        while sum(len(b) for b in rows) < n:
            remaining = n - sum(len(b) for b in rows)
            rows.append(blocks[rng.choice([1, -1] + ([2] if remaining >= 2 else []))])
        q = oracles.conjugate_form(block_diag(*rows), oracles.random_unimodular(rng, n))
        table = oracles.characteristic_pairing_table(q)
        for _ in range(8):
            x = tuple(rng.randint(-4, 4) for _ in range(n))
            assert is_characteristic(q, x) == oracles.is_characteristic_bruteforce(
                q, x, table
            )


# ---------------------------------------------------------------------------
# signature


def test_signature_examples():
    assert signature([[1]]) == 1
    assert signature([[1, 0], [0, -1]]) == 0
    # frozen from the Sturm-sequence oracle below
    assert signature(E8_MATRIX) == 8
    assert oracles.signature_by_sturm(E8_MATRIX) == 8


def test_signature_matches_sturm_oracle_on_random_symmetric():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 5)
        q = oracles.random_symmetric(rng, n)
        assert signature(q) == oracles.signature_by_sturm(q)


def test_signature_requires_symmetry():
    with pytest.raises(ValueError):
        signature([[0, 1], [2, 0]])


@settings(max_examples=60)
@given(st.integers(0, 10**6))
def test_signature_invariant_under_unimodular_congruence(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    q = oracles.random_symmetric(rng, n)
    u = oracles.random_unimodular(rng, n)
    assert signature(oracles.conjugate_form(q, u)) == signature(q)


def test_signature_additive_on_block_sums():
    rng = random.Random(29)
    for _ in range(20):
        a = oracles.random_symmetric(rng, rng.randint(1, 4))
        b = oracles.random_symmetric(rng, rng.randint(1, 4))
        assert signature(block_diag(a, b)) == signature(a) + signature(b)
    double_e8 = block_diag(E8_MATRIX, E8_MATRIX)
    minus_e8 = tuple(tuple(-v for v in row) for row in E8_MATRIX)
    assert signature(double_e8) == 16
    assert signature(block_diag(E8_MATRIX, minus_e8)) == 0


def test_exactness_with_huge_entries():
    big = 10**50
    assert divisibility([2 * big, 4 * big]) == 2 * big
    assert self_intersection([[1]], [big]) == big * big
    assert signature([[big, 0], [0, -big]]) == 0
    assert is_characteristic([[1]], [big + 1]) is True


def test_even_unimodular_signature_divisible_by_8():
    rng = random.Random(13)
    bases = [E8_MATRIX, tuple(tuple(-v for v in row) for row in E8_MATRIX), HH,
             block_diag(H_MATRIX, E8_MATRIX)]
    for base in bases:
        q = oracles.conjugate_form(base, oracles.random_unimodular(rng, len(base)))
        assert all(q[i][i] % 2 == 0 for i in range(len(q)))
        assert signature(q) % 8 == 0


# ---------------------------------------------------------------------------
# invariants bundle


def test_form_invariants_examples():
    assert form_invariants(HH) == FormInvariants(4, 0, "even", "indefinite")
    assert form_invariants([[1]]) == FormInvariants(1, 1, "odd", "positive")
    assert form_invariants(E8_MATRIX) == FormInvariants(8, 8, "even", "positive")
    assert form_invariants(()) == FormInvariants(0, 0, "even", "zero-rank")


def test_form_invariants_rejects_bad_signature():
    with pytest.raises(ValueError):
        FormInvariants(1, 2, "odd", "positive")


# ---------------------------------------------------------------------------
# isometry decision


def test_isometry_no_on_parity():
    res = is_isometric(HH, DIAG_PPMM)
    assert res.verdict == intlattice.ISO_NO
    assert "parity" in res.reason


def test_isometry_yes_identity():
    res = is_isometric(H_MATRIX, H_MATRIX)
    assert res.verdict == intlattice.ISO_YES
    assert res.witness == ((1, 0), (0, 1))


def test_isometry_no_on_signature():
    res = is_isometric(DIAG_1111, HH)
    assert res.verdict == intlattice.ISO_NO
    assert "signature" in res.reason


def test_isometry_indefinite_decided_by_invariants():
    q2 = oracles.conjugate_form(HH, oracles.random_unimodular(random.Random(3), 4))
    res = is_isometric(HH, q2)
    assert res.verdict == intlattice.ISO_YES


def test_isometry_identical_definite_forms_get_the_identity_witness():
    # u is a rotation of Z^2, an automorphism: U^T Q U is Q entry for entry
    rng = random.Random(5)
    base = ((1, 0), (0, 1))
    u = oracles.random_unimodular(rng, 2, ops=4, coeff=1)
    q2 = oracles.conjugate_form(base, u)
    assert q2 == base
    res = is_isometric(base, q2)
    assert res.verdict == intlattice.ISO_YES
    p = res.witness
    assert p == intlattice.identity_matrix(2)
    assert mat_mul(mat_mul(transpose(p), base), p) == q2


def _negated(q):
    return tuple(tuple(-v for v in row) for row in q)


def _definite_forms_up_to_rank_8():
    named = [(f"Z^{n}", intlattice.identity_matrix(n)) for n in range(1, 9)]
    for lattice, q in named + [("E8", E8_MATRIX)]:
        name = lattice.replace("^", "")
        yield pytest.param(q, lattice, id=name)
        yield pytest.param(_negated(q), f"-{lattice}", id=f"-{name}")


@pytest.mark.parametrize("q, lattice", _definite_forms_up_to_rank_8())
def test_isometry_definite_rank_le_8_decided_by_classification(q, lattice):
    rng = random.Random(lattice)
    q2 = oracles.conjugate_form(q, oracles.random_unimodular(rng, len(q), ops=12))
    res = is_isometric(q, q2)
    assert res.verdict == intlattice.ISO_YES
    assert res.invariants[0] == res.invariants[1]
    if q2 != q:
        assert res.witness is None
        assert res.reason.endswith(f"both are {lattice}")


def test_isometry_i9_against_e8_plus_one_is_undecided():
    # equal rank, signature and parity, but not isometric: E8 + <1> has
    # two vectors of norm 1, Z^9 has eighteen
    i9 = intlattice.identity_matrix(9)
    res = is_isometric(i9, block_diag(E8_MATRIX, ((1,),)))
    assert res.verdict == intlattice.ISO_UNDECIDED
    assert res.invariants[0] == res.invariants[1]
    assert "do not decide definite forms of rank >= 9" in res.reason


def test_isometry_definite_e8_in_a_changed_basis_is_yes():
    rng = random.Random(9)
    q2 = oracles.conjugate_form(E8_MATRIX, oracles.random_unimodular(rng, 8, ops=10))
    assert q2 != E8_MATRIX
    res = is_isometric(E8_MATRIX, q2)
    assert res.verdict == intlattice.ISO_YES
    assert res.invariants[0] == res.invariants[1]


def test_isometry_reflexive_and_symmetric_on_decided():
    forms = [H_MATRIX, HH, ((1,),), DIAG_PPMM]
    for q in forms:
        assert is_isometric(q, q).verdict == intlattice.ISO_YES
    for q1 in forms:
        for q2 in forms:
            assert is_isometric(q1, q2).verdict == is_isometric(q2, q1).verdict


def test_isometry_definite_rank_gt_8_undecided():
    big = block_diag(E8_MATRIX, ((1,),))
    q2 = oracles.conjugate_form(big, oracles.random_unimodular(random.Random(1), 9))
    res = is_isometric(big, q2)
    assert res.verdict == intlattice.ISO_UNDECIDED
    assert res.invariants[0] == res.invariants[1]
