import itertools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from spherecalc import classifier, intlattice
from spherecalc.classifier import (
    DETERMINED_BY_FORM,
    EXISTS_BY_DEFINITION,
    EXISTS_NO,
    EXISTS_YES,
    NOT_REALIZABLE,
    REALIZABLE,
    UNIQUE_ISOTOPY,
    UNKNOWN,
    FourManifold,
    classify,
    enumerate_representable,
    exists_simple_sphere,
    ks_condition,
    lw_bound,
    realizable_forms_check,
    report_from_json_dict,
    uniqueness_status,
    walk_box,
)
from spherecalc.errors import (
    DimensionMismatch,
    NotApplicable,
    NotCharacteristic,
    RingMismatch,
    ZeroClass,
)
from spherecalc.groupring import CyclicRing, LaurentElem, LaurentRing
from spherecalc.hermitian import HermitianForm, extend_integer_form
from spherecalc.intlattice import H_MATRIX, IntersectionForm, block_diag

CP2 = FourManifold(IntersectionForm([[1]]), 0)
HH_ROWS = block_diag(H_MATRIX, H_MATRIX)
S2XS2_2 = FourManifold(IntersectionForm(HH_ROWS), 0)
L = LaurentRing()


def test_fourmanifold_caches_invariants():
    assert CP2.b2 == 1 and CP2.sigma == 1
    assert S2XS2_2.b2 == 4 and S2XS2_2.sigma == 0
    with pytest.raises(ValueError):
        FourManifold(IntersectionForm([[1]]), 2)


# ---------------------------------------------------------------------------
# the rotation-number bound


def test_lw_bound_examples():
    assert lw_bound(CP2, [2]) == 1
    assert lw_bound(CP2, [3]) == 3
    assert lw_bound(S2XS2_2, [2, 0, 0, 0]) == 0


def test_lw_bound_zero_class():
    with pytest.raises(ZeroClass):
        lw_bound(CP2, [0])


def test_lw_bound_divisibility_one_is_abs_sigma():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(1, 4)
        base = block_diag(*([H_MATRIX] * (n // 2) + [((1,),)] * (n % 2)))
        manifold = FourManifold(IntersectionForm(base), 0)
        x = [0] * len(base)
        x[rng.randrange(len(base))] = 1
        assert lw_bound(manifold, x) == abs(manifold.sigma)


# ---------------------------------------------------------------------------
# the characteristic condition


def test_ks_condition_examples():
    assert ks_condition(CP2, [1]) is True
    assert ks_condition(S2XS2_2, [2, 2, 0, 0]) is False
    assert ks_condition(S2XS2_2, [2, 0, 0, 0]) is True


def test_ks_condition_requires_characteristic():
    with pytest.raises(NotCharacteristic):
        ks_condition(CP2, [2])


def test_ks_condition_sees_the_ks_bit():
    fake = FourManifold(IntersectionForm([[1]]), 1)
    assert ks_condition(fake, [1]) is False
    assert ks_condition(fake, [3]) is True  # (1 - 9)/8 = -1, odd


# ---------------------------------------------------------------------------
# existence


def test_exists_examples():
    res = exists_simple_sphere(CP2, [3])
    assert res.verdict == EXISTS_NO and classifier.REASON_FAILS_LW in res.reasons
    res = exists_simple_sphere(CP2, [2])
    assert res.verdict == EXISTS_YES
    assert res.reasons == (classifier.REASON_PASSES_LW, classifier.REASON_ORDINARY)
    res = exists_simple_sphere(S2XS2_2, [2, 2, 0, 0])
    assert res.verdict == EXISTS_NO
    assert res.reasons == (classifier.REASON_PASSES_LW, classifier.REASON_FAILS_KS)


def test_exists_zero_class():
    res = exists_simple_sphere(CP2, [0])
    assert res.verdict == EXISTS_YES
    assert classifier.CITE_NULLHOMOLOGOUS in res.citations


@given(st.lists(st.integers(-6, 6), min_size=4, max_size=4))
def test_exists_is_orientation_insensitive(coords):
    res_plus = exists_simple_sphere(S2XS2_2, coords)
    res_minus = exists_simple_sphere(S2XS2_2, [-c for c in coords])
    assert res_plus.verdict == res_minus.verdict


def test_exists_monotone_along_multiples_when_bound_grows():
    # empirical check: if the rank bound fails for d*y, it fails for every
    # multiple of y whose bound is at least as large
    for y in [(1, 1, 0, 0), (1, 2, 0, 1), (2, 1, 1, 1)]:
        data = []
        for d in range(1, 7):
            x = tuple(d * c for c in y)
            data.append((lw_bound(S2XS2_2, x), exists_simple_sphere(S2XS2_2, x)))
        for bound_i, res_i in data:
            if classifier.REASON_FAILS_LW not in res_i.reasons:
                continue
            for bound_j, res_j in data:
                if bound_j >= bound_i:
                    assert classifier.REASON_FAILS_LW in res_j.reasons


# ---------------------------------------------------------------------------
# uniqueness


def test_uniqueness_examples():
    assert uniqueness_status(CP2, [1]).verdict == UNIQUE_ISOTOPY
    assert uniqueness_status(CP2, [1]).citations == (classifier.CITE_DIV_ONE,)
    res = uniqueness_status(S2XS2_2, [2, 0, 0, 0])
    assert res.verdict == UNIQUE_ISOTOPY
    assert res.citations == (classifier.CITE_RANK_GT_SIGMA,)
    res = uniqueness_status(CP2, [2])
    assert res.verdict == UNKNOWN
    assert res.citations == (classifier.CITE_OPEN_AT_EQUALITY,)


def test_uniqueness_rank_gt_6_rule():
    big = FourManifold(IntersectionForm(block_diag(*([H_MATRIX] * 4))), 0)
    res = uniqueness_status(big, [2, 0, 0, 0, 0, 0, 0, 0])
    assert res.verdict == UNIQUE_ISOTOPY
    assert res.citations == (classifier.CITE_RANK_GT_6,)


def test_uniqueness_preconditions():
    with pytest.raises(NotApplicable):
        uniqueness_status(CP2, [0])
    with pytest.raises(ValueError):
        uniqueness_status(CP2, [3])


# ---------------------------------------------------------------------------
# assembled reports


def test_classify_composition():
    report = classify(S2XS2_2, [2, 2, 0, 0])
    assert report.exists == EXISTS_NO
    assert report.reasons == (classifier.REASON_PASSES_LW, classifier.REASON_FAILS_KS)
    assert report.divisibility == 2 and report.characteristic is True
    assert report.lw_bound == 4 and report.uniqueness == UNKNOWN

    report = classify(CP2, [1])
    assert report.exists == EXISTS_YES and report.uniqueness == UNIQUE_ISOTOPY

    report = classify(CP2, [0])
    assert report.exists == EXISTS_BY_DEFINITION
    assert report.uniqueness == DETERMINED_BY_FORM
    assert report.lw_bound is None
    assert classifier.CITE_DETERMINED_BY_FORM in report.citations


def test_classify_zero_class_automatic_isometry_flag():
    big = FourManifold(IntersectionForm(block_diag(*([H_MATRIX] * 3))), 0)
    report = classify(big, [0] * 6)
    assert classifier.CITE_AUTOMATIC_ISOMETRY in report.citations  # 6 >= 0 + 6
    assert classifier.CITE_AUTOMATIC_ISOMETRY not in classify(CP2, [0]).citations


def test_classify_report_invariant():
    rng = random.Random(19)
    for _ in range(200):
        x = tuple(rng.randint(-5, 5) for _ in range(4))
        report = classify(S2XS2_2, x)
        if report.divisibility != 0:
            should_exist = classifier.REASON_PASSES_LW in report.reasons and (
                classifier.REASON_ORDINARY in report.reasons
                or classifier.REASON_PASSES_KS in report.reasons
            )
            assert (report.exists == EXISTS_YES) == should_exist


def test_classify_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        classify(CP2, [1, 0])


def test_report_json_round_trip():
    report = classify(S2XS2_2, [2, 2, 0, 0])
    data = report.to_json_dict()
    assert set(data) == {
        "class", "divisibility", "characteristic", "lw_bound", "b2", "sigma",
        "ks", "exists", "reasons", "uniqueness", "citations",
    }
    assert report_from_json_dict(data) == report


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_cp2_small_box():
    reports = enumerate_representable(CP2, 4)
    assert len(reports) == 9
    assert [r.x.coords for r in reports] == [(k,) for k in range(-4, 5)]
    representable = {
        r.x.coords[0]
        for r in reports
        if r.exists in (EXISTS_YES, EXISTS_BY_DEFINITION)
    }
    assert representable == {-2, -1, 0, 1, 2}


def test_enumerate_zero_box():
    reports = enumerate_representable(S2XS2_2, 0)
    assert len(reports) == 1
    assert reports[0].exists == EXISTS_BY_DEFINITION


def test_enumerate_rejects_negative_bound():
    with pytest.raises(ValueError):
        enumerate_representable(CP2, -1)


def test_enumerate_two_hyperbolics_matches_predicate_small_box():
    reports = enumerate_representable(S2XS2_2, 2)
    for report in reports:
        a, b, c, e = report.x.coords
        predicate = (
            report.x.coords == (0, 0, 0, 0)
            or math.gcd(*(abs(v) for v in report.x.coords)) == 1
            or a * b + c * e == 0
        )
        assert (report.exists in (EXISTS_YES, EXISTS_BY_DEFINITION)) == predicate
        if report.exists == EXISTS_YES and a * b + c * e == 0 and report.divisibility >= 2:
            assert report.uniqueness == UNIQUE_ISOTOPY  # strict inequality holds here


def test_walk_box_matches_the_direct_invariants_on_random_boxes():
    rng = random.Random(23)
    bases = [((1,),), H_MATRIX, HH_ROWS, ((1, 2), (2, 3)), block_diag(H_MATRIX, ((1,),), ((-1,),))]
    for _ in range(40):
        base = bases[rng.randrange(len(bases))]
        rows = oracles.conjugate_form(base, oracles.random_unimodular(rng, len(base)))
        manifold = FourManifold(IntersectionForm(rows), rng.randint(0, 1))
        max_abs = rng.randint(0, 3 if len(rows) <= 3 else 2)
        coords = range(-max_abs, max_abs + 1)
        walked = list(walk_box(manifold, max_abs))
        assert [x for x, *_ in walked] == list(itertools.product(coords, repeat=len(rows)))
        for x, d, xx, characteristic in walked:
            assert d == intlattice.divisibility(x)
            assert xx == intlattice.self_intersection(rows, x)
            assert characteristic == intlattice.is_characteristic(rows, x)
    assert list(walk_box(FourManifold(IntersectionForm(()), 0), 2)) == [((), 0, 0, True)]


def test_characteristic_vector_spans_the_characteristic_coset():
    rng = random.Random(29)
    for base in (((1,),), H_MATRIX, ((1, 2), (2, 3)), block_diag(H_MATRIX, ((1,),), ((-1,),))):
        rows = oracles.conjugate_form(base, oracles.random_unimodular(rng, len(base)))
        w = intlattice.characteristic_vector(rows)
        for a in itertools.product((0, 1), repeat=len(rows)):
            assert oracles.is_characteristic_bruteforce(rows, a) == (a == w)


@pytest.mark.parametrize("max_abs", [0, 1, 2])
def test_enumerate_representable_matches_per_class_classify(max_abs):
    odd = FourManifold(IntersectionForm(block_diag(H_MATRIX, ((1,),), ((-1,),))), 1)
    for manifold in (CP2, S2XS2_2, odd, FourManifold(IntersectionForm(()), 0)):
        coords = range(-max_abs, max_abs + 1)
        expected = [classify(manifold, x) for x in itertools.product(coords, repeat=manifold.b2)]
        assert enumerate_representable(manifold, max_abs) == expected


def test_cp2_closed_form_up_to_50():
    for k in range(-50, 51):
        expected = k in (-2, -1, 0, 1, 2)
        res = exists_simple_sphere(CP2, [k])
        assert (res.verdict == EXISTS_YES) == expected


def test_ks_bit_changes_the_catalog():
    # same form as CP2 but with the opposite smoothing obstruction: the
    # characteristic classes +-1 now fail the mod-2 condition
    fake = FourManifold(IntersectionForm([[1]]), 1)
    representable = {
        r.x.coords[0]
        for r in enumerate_representable(fake, 3)
        if r.exists in (EXISTS_YES, EXISTS_BY_DEFINITION)
    }
    assert representable == {-2, 0, 2}
    assert exists_simple_sphere(fake, [1]).reasons == (
        classifier.REASON_PASSES_LW,
        classifier.REASON_FAILS_KS,
    )


def test_lw_bound_endpoint_form_agrees_with_the_explicit_maximum():
    from fractions import Fraction

    rng = random.Random(37)
    manifolds = [
        CP2,
        S2XS2_2,
        FourManifold(IntersectionForm(block_diag(H_MATRIX, ((1,),), ((-1,),))), 0),
    ]
    checked = 0
    for _ in range(150):
        manifold = manifolds[rng.randrange(len(manifolds))]
        y = tuple(rng.randint(-3, 3) for _ in range(manifold.b2))
        if all(v == 0 for v in y):
            continue
        k = rng.randint(1, 25)
        x = tuple(k * v for v in y)
        d = math.gcd(*(abs(v) for v in x))
        xx = sum(
            x[i] * manifold.form.matrix[i][j] * x[j]
            for i in range(len(x))
            for j in range(len(x))
        )
        explicit = max(
            abs(Fraction(manifold.sigma) - Fraction(2 * j * (d - j), d * d) * xx)
            for j in range(d)
        )
        assert lw_bound(manifold, x) == explicit
        checked += 1
    assert checked > 100


def test_classify_with_huge_coordinates_is_exact():
    big = 10**40
    report = classify(CP2, [2 * big])
    assert report.divisibility == 2 * big
    assert report.exists == EXISTS_NO
    # bound peaks at j = d/2: |1 - 2 (d/2)^2| with d = 2*big
    assert report.lw_bound == 2 * big * big - 1


# ---------------------------------------------------------------------------
# realizable forms (zero class)


def test_realizable_forms_examples():
    assert realizable_forms_check(CP2, extend_integer_form([[1]], L)).status == REALIZABLE
    res = realizable_forms_check(
        CP2, HermitianForm(L, ((LaurentElem.from_terms({1: 1, -1: 1}),),))
    )
    assert res.status == NOT_REALIZABLE
    assert "singular" in res.reason
    assert (
        realizable_forms_check(S2XS2_2, extend_integer_form(HH_ROWS, L)).status
        == REALIZABLE
    )


def test_realizable_forms_rank_and_isometry_refutations():
    res = realizable_forms_check(CP2, extend_integer_form(H_MATRIX, L))
    assert res.status == NOT_REALIZABLE and "rank" in res.reason
    diag_pm = ((1, 0), (0, -1))
    res = realizable_forms_check(
        FourManifold(IntersectionForm(H_MATRIX), 0), extend_integer_form(diag_pm, L)
    )
    assert res.status == NOT_REALIZABLE and "isometric" in res.reason


def test_realizable_forms_requires_laurent_ring():
    with pytest.raises(RingMismatch):
        realizable_forms_check(CP2, extend_integer_form([[1]], CyclicRing(2)))


def test_realizable_forms_nonunimodular_augmentation():
    form = HermitianForm(L, ((LaurentElem.from_terms({1: 1, -1: 1, 0: 1}),),))
    res = realizable_forms_check(CP2, form)
    assert res.status == NOT_REALIZABLE


def test_realizable_forms_propagates_undecided():
    # equal invariants do not decide definite integer isometry in rank 9,
    # so the realizability check stays undecided
    from spherecalc.intlattice import E8_MATRIX

    big_rows = block_diag(E8_MATRIX, ((1,),))
    big = FourManifold(IntersectionForm(big_rows), 0)
    twisted = oracles.conjugate_form(big_rows, oracles.random_unimodular(random.Random(2), 9))
    res = realizable_forms_check(big, extend_integer_form(twisted, L))
    assert res.status == classifier.REALIZABILITY_UNDECIDED
    assert res.isometry is not None


def test_oracle_agreement_on_the_box_small():
    # straight-line oracle sanity on a thin slice; the full box runs in acceptance
    sigma, b2 = S2XS2_2.sigma, S2XS2_2.b2
    for x in itertools.product(range(-2, 3), repeat=4):
        expected = oracles.straightline_exists(HH_ROWS, sigma, b2, 0, x)
        got = exists_simple_sphere(S2XS2_2, x).verdict == EXISTS_YES or all(
            v == 0 for v in x
        )
        assert got == expected


# ---------------------------------------------------------------------------
# metamorphic properties: a change of basis and a reversed orientation

#: The manifolds of the benchmark's catalog and query workloads, and two
#: of rank 3 and 5 with sigma < 0, where the rule b2 > |sigma| + 2 decides
#: uniqueness for classes with y.y = 0.
METAMORPHIC_MANIFOLDS = (
    ("CP2", 0), ("H", 0), ("diag(1,-1)", 1), ("[[1,2],[2,3]]", 1),
    ("[[0,1],[1,0]]#CP2", 0), ("H#H", 1), ("CP2#CP2#CP2#diag(-1,-1)", 1),
    ("H#H#H", 0), ("E8", 1), ("E8#H", 0), ("CP2#E8#diag(-1,-1,-1)", 0),
    ("E8#E8#H#H#H", 0), ("diag(" + ",".join(["1"] * 3 + ["-1"] * 19) + ")", 1),
    ("diag(1,-1,-1)", 0), ("CP2#diag(-1,-1,-1,-1)", 1), ("CP2#CP2#CP2", 0),
)


def random_classes(rng, rows, count):
    """Zero, characteristic, highly divisible (d up to 10^15) and ordinary classes."""
    n = len(rows)
    w = intlattice.characteristic_vector(rows)
    classes = [(0,) * n]
    for _ in range(count):
        kind = rng.choice(("characteristic", "divisible", "ordinary"))
        if kind == "characteristic":
            classes.append(tuple(wi + 2 * rng.randint(-2, 2) for wi in w))
        elif kind == "divisible":
            d = rng.choice((rng.randint(2, 60), rng.randint(10**12, 10**15)))
            y = [rng.randint(-3, 3) for _ in range(n)]
            y[rng.randrange(n)] = rng.choice((1, -1))
            classes.append(tuple(d * v for v in y))
        else:
            classes.append(tuple(rng.randint(-5, 5) for _ in range(n)))
    return classes


def without_class(report):
    data = report.to_json_dict()
    del data["class"]
    return data


@pytest.mark.parametrize("literal,ks", METAMORPHIC_MANIFOLDS)
def test_classify_is_invariant_under_a_change_of_basis(literal, ks):
    from spherecalc import cli

    rows = cli.parse_manifold_spec(literal).matrix
    rng = random.Random(f"basis:{literal}")
    p = oracles.random_unimodular(rng, len(rows))
    manifold = FourManifold(IntersectionForm(rows), ks)
    changed = FourManifold(IntersectionForm(oracles.conjugate_form(rows, p)), ks)
    for y in random_classes(rng, changed.form.matrix, 60):
        x = intlattice.mat_vec(p, y)  # (P^T Q P, y) with y = P^-1 x
        assert without_class(classify(changed, y)) == without_class(classify(manifold, x))


@pytest.mark.parametrize("literal,ks", METAMORPHIC_MANIFOLDS)
def test_existence_and_uniqueness_survive_reversed_orientation(literal, ks):
    from spherecalc import cli

    rows = cli.parse_manifold_spec(literal).matrix
    rng = random.Random(f"orientation:{literal}")
    manifold = FourManifold(IntersectionForm(rows), ks)
    reversed_ = FourManifold(IntersectionForm(tuple(tuple(-v for v in r) for r in rows)), ks)
    for x in random_classes(rng, rows, 60):
        a, b = classify(manifold, x), classify(reversed_, x)
        assert (a.exists, a.reasons, a.uniqueness, a.citations) == (
            b.exists, b.reasons, b.uniqueness, b.citations
        )
