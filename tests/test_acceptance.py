"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they are produced; tolerances and runtime limits are pinned here and
nowhere else.
"""

import itertools
import json
import math
import random
import time

import oracles
from spherecalc import cli, hermitian
from spherecalc.classifier import (
    EXISTS_BY_DEFINITION,
    EXISTS_YES,
    NOT_REALIZABLE,
    REALIZABLE,
    UNIQUE_ISOTOPY,
    UNKNOWN,
    FourManifold,
    classify,
    exists_simple_sphere,
    realizable_forms_check,
    uniqueness_status,
)
from spherecalc.groupring import CyclicRing, GroupRingElem, LaurentElem, LaurentRing
from spherecalc.hermitian import (
    EquivariantIntegerForm,
    HermitianForm,
    PointedHermitianForm,
    augment_form,
    build_equivariant_form,
    congruence_search,
    extend_integer_form,
    pointed_congruence_search,
    verify_congruence,
)
from spherecalc.intlattice import (
    H_MATRIX,
    IntersectionForm,
    block_diag,
    is_characteristic,
    signature,
)

CP2 = FourManifold(IntersectionForm([[1]]), 0)
HH_ROWS = block_diag(H_MATRIX, H_MATRIX)
S2XS2_2 = FourManifold(IntersectionForm(HH_ROWS), 0)
L = LaurentRing()
Z2 = CyclicRing(2)


def _line(number, description, ok):
    print(f"criterion {number} [{'PASS' if ok else 'FAIL'}]: {description}")


def test_criterion_1_cp2_catalog(tmp_path):
    out_path = tmp_path / "cp2.json"
    start = time.perf_counter()
    code = cli.main(
        ["enumerate", "--manifold", "CP2", "--ks", "0", "--max-abs", "50",
         "--out", str(out_path)]
    )
    elapsed = time.perf_counter() - start
    catalog = json.loads(out_path.read_text(encoding="utf-8"))
    representable = sorted(
        r["class"][0]
        for r in catalog["reports"]
        if r["exists"] in (EXISTS_YES, EXISTS_BY_DEFINITION)
    )
    ok = code == 0 and representable == [-2, -1, 0, 1, 2] and elapsed < 1.0
    _line(1, f"CP2 catalog |x|<=50 -> {{-2..2}} in {elapsed:.3f}s", ok)
    assert code == 0
    assert representable == [-2, -1, 0, 1, 2]
    assert elapsed < 1.0


def test_criterion_2_two_hyperbolics_existence_box():
    sigma = oracles.signature_by_sturm(HH_ROWS)
    assert sigma == S2XS2_2.sigma
    b2, ks = S2XS2_2.b2, S2XS2_2.ks
    start = time.perf_counter()
    mismatches = []
    for x in itertools.product(range(-5, 6), repeat=4):
        a, b, c, e = x
        got = (
            exists_simple_sphere(S2XS2_2, x).verdict == EXISTS_YES
            or x == (0, 0, 0, 0)
        )
        predicate = (
            x == (0, 0, 0, 0)
            or math.gcd(*(abs(v) for v in x)) == 1
            or a * b + c * e == 0
        )
        oracle = oracles.straightline_exists(HH_ROWS, sigma, b2, ks, x)
        if not (got == predicate == oracle):
            mismatches.append((x, got, predicate, oracle))
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 10.0
    _line(2, f"11^4 existence box vs predicate and oracle in {elapsed:.2f}s", ok)
    assert mismatches == []
    assert elapsed < 10.0


def test_criterion_3_characteristic_detection_box():
    table = oracles.characteristic_pairing_table(HH_ROWS)
    mismatches = []
    for x in itertools.product(range(-5, 6), repeat=4):
        got = is_characteristic(HH_ROWS, x)
        all_even = all(v % 2 == 0 for v in x)
        brute = oracles.is_characteristic_bruteforce(HH_ROWS, x, table)
        if not (got == all_even == brute):
            mismatches.append((x, got, all_even, brute))
    ok = not mismatches
    _line(3, "characteristic iff all coordinates even, vs (Z/2)^4 brute force", ok)
    assert mismatches == []


def test_criterion_4_equivariant_form_of_the_conic():
    eq = EquivariantIntegerForm(H_MATRIX, ((0, 1), (1, 0)))
    lam = build_equivariant_form(eq, [(1, 0)])
    built = lam.matrix == ((Z2.monomial(1),),)
    augmented = augment_form(lam) == ((1,),)
    ok = built and augmented
    _line(4, "double branched cover of the conic: form (T), augmentation (1)", ok)
    assert built
    assert augmented


def test_criterion_5_form_distinction_with_parity_check():
    lam0 = HermitianForm(Z2, ((1,),))
    lam1 = HermitianForm(Z2, ((Z2.monomial(1),),))
    outcome = congruence_search(lam0, lam1)
    disproven = outcome.status == hermitian.SEARCH_DISPROVEN
    parity_ok = True
    target = Z2.monomial(1)
    for a in range(-3, 4):
        for b in range(-3, 4):
            p = GroupRingElem(2, (a, b))
            norm = p * p.conjugate()
            if norm.coeffs[1] % 2 != 0 or norm == target:
                parity_ok = False
    ok = disproven and parity_ok
    _line(5, "(1) vs (T): disproven; T-coefficient of p*conj(p) always even", ok)
    assert disproven, outcome
    assert parity_ok


def test_criterion_6_realizable_form_criterion():
    yes = realizable_forms_check(CP2, extend_integer_form([[1]], L))
    no = realizable_forms_check(
        CP2, HermitianForm(L, ((LaurentElem(((1, 1), (-1, 1))),),))
    )
    ok = yes.status == REALIZABLE and no.status == NOT_REALIZABLE
    _line(6, "CP2 realizability: (1) realizable, (t+t^-1) not", ok)
    assert yes.status == REALIZABLE
    assert no.status == NOT_REALIZABLE


def test_criterion_7_property_suites():
    failures = []

    # ring axioms and involution laws on >= 10^4 randomized elements
    rng = random.Random(20260810)
    elements_seen = 0
    while elements_seen < 10_000:
        if rng.random() < 0.5:
            d = rng.randint(1, 6)
            mk = lambda: GroupRingElem(d, tuple(rng.randint(-9, 9) for _ in range(d)))
        else:
            mk = lambda: LaurentElem(
                {rng.randint(-5, 5): rng.randint(-9, 9) for _ in range(rng.randint(0, 4))}.items()
            )
        u, v, w = mk(), mk(), mk()
        elements_seen += 3
        checks = [
            (u + v) + w == u + (v + w),
            u + v == v + u,
            (u * v) * w == u * (v * w),
            u * v == v * u,
            u * (v + w) == u * v + u * w,
            u.conjugate().conjugate() == u,
            (u * v).conjugate() == u.conjugate() * v.conjugate(),
            (u + v).conjugate() == u.conjugate() + v.conjugate(),
            (u * v).augment() == u.augment() * v.augment(),
            u.conjugate().augment() == u.augment(),
        ]
        if not all(checks):
            failures.append(("ring axioms", u, v, w))
            break
    axioms_ok = not failures

    # signature invariance under 10^3 random unimodular congruences
    rng = random.Random(97)
    signature_ok = True
    for _ in range(1000):
        n = rng.randint(1, 6)
        q = oracles.random_symmetric(rng, n)
        u = oracles.random_unimodular(rng, n)
        if signature(oracles.conjugate_form(q, u)) != signature(q):
            signature_ok = False
            failures.append(("signature invariance", q, u))
            break

    # unit detection vs exhaustive bounded inverse search, d <= 4
    units_ok = True
    for d in (1, 2, 3, 4):
        found = oracles.units_by_bounded_inverse_search(d)
        for coeffs in itertools.product(range(-2, 3), repeat=d):
            if GroupRingElem(d, coeffs).is_unit() != (coeffs in found):
                units_ok = False
                failures.append(("unit oracle", d, coeffs))

    # every Found witness re-verifies by exact multiplication
    witnesses_ok = True
    found_count = 0
    rng = random.Random(5)
    searches = []
    form_hh = extend_integer_form(HH_ROWS, L)
    searches.append((form_hh, form_hh, None))
    form_h = extend_integer_form(H_MATRIX, L)
    twisted = HermitianForm(
        L,
        (
            (L.zero(), L.monomial(1)),
            (L.monomial(-1), L.zero()),
        ),
    )
    searches.append((form_h, twisted, None))
    form_t = HermitianForm(Z2, ((Z2.monomial(1),),))
    searches.append(
        (
            form_t,
            form_t,
            (
                (Z2.one(),),
                (Z2.monomial(1),),
            ),
        )
    )
    for ring, base in [
        (Z2, H_MATRIX),
        (CyclicRing(3), ((1, 0), (0, -1))),
        (CyclicRing(4), H_MATRIX),
        (L, ((1, 0), (0, -1))),
    ]:
        form0 = extend_integer_form(base, ring)
        gens = hermitian._generators(ring, 2)
        for _ in range(3):
            p = hermitian.ring_identity(ring, 2)
            for _ in range(2):
                p = oracles.apply_generator(rng.choice(gens), p, ring)
            product = hermitian.ring_mat_mul(
                hermitian.ring_mat_mul(p, form0.matrix, ring),
                hermitian.conj_transpose(p),
                ring,
            )
            searches.append((form0, HermitianForm(ring, product), None))
    for form0, form1, point in searches:
        if point is None:
            outcome = congruence_search(form0, form1, 200_000)
        else:
            outcome = pointed_congruence_search(
                PointedHermitianForm(form0, point[0]),
                PointedHermitianForm(form1, point[1]),
                200_000,
            )
        if outcome.status != hermitian.SEARCH_FOUND:
            witnesses_ok = False
            failures.append(("search did not find", form0, form1, outcome))
            continue
        found_count += 1
        if not verify_congruence(outcome.witness, form0, form1):
            witnesses_ok = False
            failures.append(("witness failed re-verification", outcome))

    ok = axioms_ok and signature_ok and units_ok and witnesses_ok
    _line(
        7,
        f"property suites: axioms on {elements_seen} elements, 1000 congruences, "
        f"units d<=4, {found_count} verified witnesses",
        ok,
    )
    assert axioms_ok
    assert signature_ok
    assert units_ok
    assert witnesses_ok
    assert failures == []


def test_criterion_8_uniqueness_rules():
    cp2_gen = uniqueness_status(CP2, [1])
    hh_double = uniqueness_status(S2XS2_2, [2, 0, 0, 0])
    cp2_conic = classify(CP2, [2])
    ok = (
        cp2_gen.verdict == UNIQUE_ISOTOPY
        and hh_double.verdict == UNIQUE_ISOTOPY
        and cp2_conic.uniqueness == UNKNOWN
        and "uniqueness.open-at-equality" in cp2_conic.citations
    )
    _line(8, "uniqueness: CP2/(1) isotopy, (2,0,0,0) isotopy, CP2/(2) unknown+note", ok)
    assert cp2_gen.verdict == UNIQUE_ISOTOPY
    assert hh_double.verdict == UNIQUE_ISOTOPY
    assert cp2_conic.uniqueness == UNKNOWN
    assert "uniqueness.open-at-equality" in cp2_conic.citations
