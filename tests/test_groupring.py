import dataclasses
import doctest
import importlib
import operator
import pkgutil
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
import spherecalc.groupring
from spherecalc.errors import RingMismatch
from spherecalc.groupring import (
    CyclicRing,
    GroupRingElem,
    LaurentElem,
    LaurentRing,
)
from spherecalc.intlattice import integer_det


@st.composite
def cyclic_triple(draw):
    d = draw(st.integers(1, 5))
    def elem():
        return GroupRingElem(d, tuple(draw(st.lists(st.integers(-9, 9), min_size=d, max_size=d))))
    return elem(), elem(), elem()


@st.composite
def laurent_elem(draw):
    terms = draw(st.lists(st.tuples(st.integers(-6, 6), st.integers(-9, 9)), max_size=5))
    return LaurentElem(tuple(terms))


def test_module_doctests():
    names = ["spherecalc"] + [
        f"spherecalc.{m.name}" for m in pkgutil.iter_modules(spherecalc.__path__)
    ]
    for name in names:
        result = doctest.testmod(importlib.import_module(name))
        assert result.failed == 0, name
        if name == "spherecalc.groupring":
            assert result.attempted >= 3


# ---------------------------------------------------------------------------
# conjugation


def test_conjugate_examples():
    assert str(GroupRingElem(2, (1, 2)).conjugate()) == "1 + 2T"
    t2 = LaurentRing().monomial(2) - 3 * LaurentRing().monomial(-1)
    assert t2.conjugate() == LaurentRing().monomial(-2) - 3 * LaurentRing().monomial(1)
    assert CyclicRing(3).monomial(1).conjugate() == CyclicRing(3).monomial(2)


@given(cyclic_triple())
def test_conjugate_is_ring_automorphism_cyclic(triple):
    u, v, _ = triple
    assert u.conjugate().conjugate() == u
    assert (u * v).conjugate() == u.conjugate() * v.conjugate()
    assert (u + v).conjugate() == u.conjugate() + v.conjugate()


@given(laurent_elem(), laurent_elem())
def test_conjugate_is_ring_automorphism_laurent(u, v):
    assert u.conjugate().conjugate() == u
    assert (u * v).conjugate() == u.conjugate() * v.conjugate()
    assert (u + v).conjugate() == u.conjugate() + v.conjugate()


# ---------------------------------------------------------------------------
# augmentation


def test_augment_examples():
    assert GroupRingElem(2, (1, 2)).augment() == 3
    assert (LaurentRing().monomial(1) - LaurentRing().monomial(-1)).augment() == 0
    assert CyclicRing(5).zero().augment() == 0


@given(cyclic_triple())
def test_augment_is_ring_hom_cyclic(triple):
    u, v, _ = triple
    assert (u * v).augment() == u.augment() * v.augment()
    assert (u + v).augment() == u.augment() + v.augment()
    assert u.conjugate().augment() == u.augment()


@given(laurent_elem(), laurent_elem())
def test_augment_is_ring_hom_laurent(u, v):
    assert (u * v).augment() == u.augment() * v.augment()
    assert u.conjugate().augment() == u.augment()


# ---------------------------------------------------------------------------
# ring axioms


@given(cyclic_triple())
def test_ring_axioms_cyclic(triple):
    u, v, w = triple
    assert (u + v) + w == u + (v + w)
    assert u + v == v + u
    assert (u * v) * w == u * (v * w)
    assert u * v == v * u
    assert u * (v + w) == u * v + u * w
    assert u + (-u) == CyclicRing(u.d).zero()
    assert u * CyclicRing(u.d).one() == u


@given(laurent_elem(), laurent_elem(), laurent_elem())
def test_ring_axioms_laurent(u, v, w):
    assert (u + v) + w == u + (v + w)
    assert (u * v) * w == u * (v * w)
    assert u * v == v * u
    assert u * (v + w) == u * v + u * w
    assert u - u == LaurentRing().zero()


@pytest.mark.parametrize(
    "ring", [CyclicRing(d) for d in (*range(2, 8), 12)] + [LaurentRing()], ids=str
)
def test_packed_product_matches_the_convolution_oracle(ring):
    rng = random.Random(f"product:{ring}")

    def element():
        if isinstance(ring, CyclicRing):
            return GroupRingElem(ring.d, tuple(rng.randint(-3, 3) for _ in range(ring.d)))
        n = rng.randint(0, 4)
        return LaurentElem(tuple((rng.randint(-4, 4), rng.randint(-3, 3)) for _ in range(n)))

    one, t = ring.one(), ring.monomial(1)
    # zero operands, and cancelling terms: (1 - t)(1 + t) = 1 - t^2, and
    # over Z_d the norm 1 + T + ... + T^(d-1) times 1 - T is zero
    pairs = [(ring.zero(), element()), (element(), ring.zero()), (one - t, one + t)]
    if isinstance(ring, CyclicRing):
        norm = GroupRingElem(ring.d, (1,) * ring.d)
        pairs.append((norm, one - t))
        assert oracles.element_product(norm, one - t) == ring.zero()
    pairs += [(element(), element()) for _ in range(200)]
    for x, y in pairs:
        expected = oracles.element_product(x, y)
        assert ring.mul(x.terms, y.terms) == expected.terms
        assert x * y == expected


MIXED_PAIRS = [
    (CyclicRing(2).one(), CyclicRing(3).one()),
    (CyclicRing(2).one(), LaurentRing().one()),
    (LaurentRing().one(), CyclicRing(2).one()),
]


def test_mixed_ring_operations_raise():
    for x, y in MIXED_PAIRS:
        for op in (operator.add, operator.sub, operator.mul):
            for a, b in ((x, y), (y, x)):
                with pytest.raises(RingMismatch):
                    op(a, b)


@pytest.mark.parametrize(
    "u",
    [GroupRingElem(3, (1, -2, 5)), LaurentElem(((-1, 2), (3, 1)))],
    ids=["cyclic", "laurent"],
)
def test_int_operands_are_constants_and_others_are_refused(u):
    three = u.ring.from_int(3)
    assert 3 + u == three + u == u + 3
    assert 3 - u == three - u
    assert u * 3 == u * three == 3 * u
    with pytest.raises(TypeError):
        u + "x"
    with pytest.raises(TypeError):
        u - "x"
    with pytest.raises(TypeError):
        "x" - u
    with pytest.raises(TypeError):
        u * 1.5
    assert bool(u.ring.zero()) is False and bool(u.ring.one()) is True


# ---------------------------------------------------------------------------
# units


def test_unit_examples():
    assert LaurentRing().monomial(3, -1).is_unit() is True
    assert (LaurentRing().one() + LaurentRing().monomial(1)).is_unit() is False
    assert CyclicRing(2).monomial(1).is_unit() is True
    one_plus_t = CyclicRing(2).one() + CyclicRing(2).monomial(1)
    assert one_plus_t.multiplication_matrix() == ((1, 1), (1, 1))
    assert one_plus_t.is_unit() is False
    assert CyclicRing(2).from_int(2).is_unit() is False


@given(cyclic_triple())
def test_unit_implies_conjugate_unit_and_augmentation(triple):
    u, _, _ = triple
    if u.is_unit():
        assert u.conjugate().is_unit()
        assert u.augment() in (1, -1)


@given(laurent_elem())
def test_laurent_unit_implies_conjugate_unit(u):
    if u.is_unit():
        assert u.conjugate().is_unit()
        assert u.augment() in (1, -1)


def test_cyclic_is_unit_agrees_with_the_circulant_determinant():
    # the screens at T -> 1 and T -> -1 and the monomial shortcut must not
    # change an answer
    rng = random.Random(47)
    named = {
        (5, (-1, 1, 0, 0, 1)): True,  # -1 + T + T^4
        (5, (1, 0, -1, -1, 0)): True,  # 1 - T^2 - T^3
        (7, (-1, 1, 0, 0, 0, 0, 1)): True,  # -1 + T + T^6
        (8, (-1, 1, 0, 0, 0, 0, 0, 1)): False,  # -1 + T + T^7, det -3
        (7, (1, 1, 0, -1, 0, 0, 0)): False,  # 1 + T - T^3, det 8
    }
    elems = [GroupRingElem(d, coeffs) for d, coeffs in named]
    assert [e.is_unit() for e in elems] == list(named.values())
    assert all(e.augment() in (1, -1) for e in elems)
    for d in range(1, 13):
        ring = CyclicRing(d)
        elems.append(ring.zero())
        elems += [ring.monomial(k, c) for k in range(d) for c in (1, -1, 2)]
        for _ in range(40):
            coeffs = [rng.randint(-2, 2) for _ in range(d)]
            elems.append(GroupRingElem(d, tuple(coeffs)))
            coeffs[0] += rng.choice((1, -1)) - sum(coeffs)  # augmentation +-1
            elems.append(GroupRingElem(d, tuple(coeffs)))
    for e in elems:
        assert e.is_unit() == (integer_det(e.multiplication_matrix()) in (1, -1)), e


def test_units_agree_with_bounded_inverse_search_small():
    # quick version for d <= 3; the full d <= 4 suite runs in acceptance
    import itertools

    for d in (1, 2, 3):
        found = oracles.units_by_bounded_inverse_search(d)
        for coeffs in itertools.product(range(-2, 3), repeat=d):
            assert GroupRingElem(d, coeffs).is_unit() == (coeffs in found)


# ---------------------------------------------------------------------------
# ring descriptors


def test_ring_descriptors():
    z2 = CyclicRing(2)
    assert z2.coerce(3) == CyclicRing(2).from_int(3)
    assert CyclicRing(4).one().ring == CyclicRing(4)
    assert LaurentRing().one().ring == LaurentRing()
    assert CyclicRing(6).units_fully_known and not CyclicRing(5).units_fully_known
    with pytest.raises(RingMismatch):
        z2.coerce(CyclicRing(3).one())
    with pytest.raises(RingMismatch):
        LaurentRing().coerce(CyclicRing(2).one())
    with pytest.raises(ValueError, match="positive"):
        CyclicRing(0)
    with pytest.raises(ValueError, match="expected 3 coefficients"):
        GroupRingElem(3, (1, 2))


def test_cyclic_elements_store_their_ring_and_payload():
    # the sparse pairs are the stored value; d and the dense coeffs are read off them
    assert [f.name for f in dataclasses.fields(GroupRingElem)] == ["ring", "terms"]
    x = CyclicRing(4096).monomial(4095, -2)
    assert x.terms == ((4095, -2),)
    assert (x * x).terms == ((4094, 4),)
    assert x.d == 4096 and len(x.coeffs) == 4096 and x.coeffs[4095] == -2
    assert GroupRingElem(3, (0, 5, 0)).terms == ((1, 5),)
    assert "d=4096" in repr(x)
    # equal payloads over different orders are different elements
    z2, z3 = CyclicRing(2).monomial(1), CyclicRing(3).monomial(1)
    assert z2.terms == z3.terms and z2 != z3
    # equal elements built on distinct descriptor objects are equal, hash equal
    # and combine through coerce
    y = GroupRingElem(4096, x.coeffs)
    assert y.ring is not x.ring and y == x and hash(y) == hash(x)
    assert (x + y).terms == ((4095, -4),)


def test_trivial_ring_order_one():
    one = CyclicRing(1).one()
    five = CyclicRing(1).from_int(5)
    assert (five * five).coeffs == (25,)
    assert five.conjugate() == five
    assert five.augment() == 5
    assert one.is_unit() and CyclicRing(1).from_int(-1).is_unit()
    assert not five.is_unit()
    assert CyclicRing(1).monomial(7, 3) == CyclicRing(1).from_int(3)


def test_str_formatting():
    assert str(CyclicRing(3).zero()) == "0"
    assert str(GroupRingElem(3, (1, -2, 0))) == "1 - 2T"
    assert str(LaurentElem(((-2, 1), (1, -3)))) == "t^-2 - 3t"
    assert str(LaurentRing().monomial(0, -1)) == "-1"
