"""Existence, uniqueness and enumeration of simple-sphere classes.

For a closed simply-connected 4-manifold, given by its intersection form
and the Z/2 smoothing obstruction ``ks``, a homology class of divisibility
d != 0 is representable by a simple sphere iff the rank of the form
dominates the rotation-number bound, and, for characteristic classes, the
mod-2 condition on (signature - x.x)/8 additionally holds.  The zero
class is always representable; its equivalence classes correspond to
isometry classes of nonsingular hermitian forms over the Laurent ring
that augment to the intersection form.

Uniqueness verdicts come from three sufficient rules (divisibility one;
rank > 6 with strict inequality in the bound; rank > |signature| + 2 with
strict inequality); everything else is reported as unknown with a
machine-readable citation tag.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from . import hermitian, intlattice
from .errors import (
    DimensionMismatch,
    DivisibilityViolation,
    NotApplicable,
    NotCharacteristic,
    RingMismatch,
    ZeroClass,
)
from .groupring import LaurentRing
from .intlattice import HomologyClass, IntersectionForm

EXISTS_YES = "Yes"
EXISTS_NO = "No"
EXISTS_BY_DEFINITION = "YesByDefinition"

UNIQUE_ISOTOPY = "UniqueIsotopy"
DETERMINED_BY_FORM = "DeterminedByForm"
UNKNOWN = "Unknown"

REASON_FAILS_LW = "FailsLW"
REASON_PASSES_LW = "PassesLW"
REASON_FAILS_KS = "FailsKS"
REASON_PASSES_KS = "PassesKS"
REASON_ORDINARY = "Ordinary"

CITE_RANK_BOUND = "existence.rank-bound"
CITE_CHARACTERISTIC_KS = "existence.characteristic-ks"
CITE_NULLHOMOLOGOUS = "existence.nullhomologous"
CITE_DIV_ONE = "uniqueness.divisibility-one"
CITE_RANK_GT_6 = "uniqueness.rank-gt-6"
CITE_RANK_GT_SIGMA = "uniqueness.rank-gt-abs-sigma-plus-2"
CITE_OPEN_AT_EQUALITY = "uniqueness.open-at-equality"
CITE_NO_RULE = "uniqueness.no-rule-applies"
CITE_DETERMINED_BY_FORM = "uniqueness.determined-by-form"
CITE_AUTOMATIC_ISOMETRY = "uniqueness.automatic-isometry"

REALIZABLE = "Realizable"
NOT_REALIZABLE = "NotRealizable"
REALIZABILITY_UNDECIDED = "Undecided"


@dataclass(frozen=True)
class FourManifold:
    """Closed simply-connected 4-manifold datum: intersection form and ks bit."""

    form: IntersectionForm
    ks: int = 0

    def __post_init__(self):
        form = self.form
        if not isinstance(form, IntersectionForm):
            form = IntersectionForm(form)
        if self.ks not in (0, 1):
            raise ValueError("ks must be 0 or 1")
        object.__setattr__(self, "form", form)

    @property
    def b2(self) -> int:
        return self.form.rank

    @cached_property
    def sigma(self) -> int:
        return intlattice.signature(self.form)


@dataclass(frozen=True)
class ExistenceResult:
    verdict: str
    reasons: tuple[str, ...]
    citations: tuple[str, ...]


@dataclass(frozen=True)
class UniquenessResult:
    verdict: str
    citations: tuple[str, ...]


@dataclass(frozen=True)
class SphereClassReport:
    """Per-class verdict: representability, reason codes, uniqueness status."""

    x: HomologyClass
    divisibility: int
    characteristic: bool
    lw_bound: int | None
    b2: int
    sigma: int
    ks: int
    exists: str
    reasons: tuple[str, ...]
    uniqueness: str
    citations: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "class": list(self.x.coords),
            "divisibility": self.divisibility,
            "characteristic": self.characteristic,
            "lw_bound": self.lw_bound,
            "b2": self.b2,
            "sigma": self.sigma,
            "ks": self.ks,
            "exists": self.exists,
            "reasons": list(self.reasons),
            "uniqueness": self.uniqueness,
            "citations": list(self.citations),
        }


def report_from_json_dict(data) -> SphereClassReport:
    return SphereClassReport(
        x=HomologyClass(tuple(data["class"])),
        divisibility=int(data["divisibility"]),
        characteristic=bool(data["characteristic"]),
        lw_bound=None if data["lw_bound"] is None else int(data["lw_bound"]),
        b2=int(data["b2"]),
        sigma=int(data["sigma"]),
        ks=int(data["ks"]),
        exists=data["exists"],
        reasons=tuple(data["reasons"]),
        uniqueness=data["uniqueness"],
        citations=tuple(data["citations"]),
    )


def _class_of(x) -> HomologyClass:
    return x if isinstance(x, HomologyClass) else HomologyClass(tuple(x))


# ---------------------------------------------------------------------------
# the two existence criteria


def lw_bound(manifold: FourManifold, x) -> int:
    """max over 0 <= j < d of |sigma - 2j(d-j) * (y.y)| where x = d*y.

    Integral because x.x = d^2 (y.y); undefined for the zero class.  The
    term is affine in j(d-j), so the max over j is attained at j = 0 or
    j = d//2; evaluating those two endpoints keeps divisibilities of any
    size exact without iterating.
    """
    cls = _class_of(x)
    d = intlattice.divisibility(cls)
    if d == 0:
        raise ZeroClass("the rotation-number bound is undefined for the zero class")
    y = HomologyClass(tuple(c // d for c in cls.coords))
    yy = intlattice.self_intersection(manifold.form, y)
    peak = (d // 2) * (d - d // 2)
    return max(abs(manifold.sigma), abs(manifold.sigma - 2 * peak * yy))


def ks_condition(manifold: FourManifold, x) -> bool:
    """Mod-2 test of ks = (sigma - x.x)/8 for a characteristic class.

    (sigma - x.x) is divisible by 8 whenever x is characteristic and the
    form is unimodular; that divisibility is asserted, and the equality is
    read in Z/2 since ks is a Z/2 invariant.
    """
    cls = _class_of(x)
    if not intlattice.is_characteristic(manifold.form, cls):
        raise NotCharacteristic("the ks criterion applies to characteristic classes only")
    diff = manifold.sigma - intlattice.self_intersection(manifold.form, cls)
    if diff % 8:
        raise DivisibilityViolation(
            f"signature - x.x = {diff} is not divisible by 8 for a characteristic class"
        )
    return manifold.ks % 2 == (diff // 8) % 2


def exists_simple_sphere(manifold: FourManifold, x) -> ExistenceResult:
    """Representability verdict with reason codes.

    Nonzero classes need the rank bound, plus the ks condition when
    characteristic.  The zero class is always representable (an unknotted
    sphere in a small ball).
    """
    cls = _class_of(x)
    d = intlattice.divisibility(cls)
    if d == 0:
        return ExistenceResult(EXISTS_YES, (), (CITE_NULLHOMOLOGOUS,))
    reasons = []
    citations = [CITE_RANK_BOUND]
    bound = lw_bound(manifold, cls)
    passes_bound = manifold.b2 >= bound
    reasons.append(REASON_PASSES_LW if passes_bound else REASON_FAILS_LW)
    if intlattice.is_characteristic(manifold.form, cls):
        citations.append(CITE_CHARACTERISTIC_KS)
        passes_ks = ks_condition(manifold, cls)
        reasons.append(REASON_PASSES_KS if passes_ks else REASON_FAILS_KS)
        verdict = EXISTS_YES if passes_bound and passes_ks else EXISTS_NO
    else:
        reasons.append(REASON_ORDINARY)
        verdict = EXISTS_YES if passes_bound else EXISTS_NO
    return ExistenceResult(verdict, tuple(reasons), tuple(citations))


# ---------------------------------------------------------------------------
# uniqueness rules


def uniqueness_status(manifold: FourManifold, x) -> UniquenessResult:
    """Uniqueness verdict for a representable class of nonzero divisibility.

    The three sufficient rules are applied with the strict reading of the
    inequality; equality cases are reported unknown with a citation tag so
    a reader can see exactly why no verdict was issued.
    """
    cls = _class_of(x)
    d = intlattice.divisibility(cls)
    if d == 0:
        raise NotApplicable(
            "uniqueness of the zero class is governed by isometry classes of "
            "hermitian forms; see classify, which reports DeterminedByForm"
        )
    existence = exists_simple_sphere(manifold, cls)
    if existence.verdict != EXISTS_YES:
        raise ValueError("uniqueness is only defined for representable classes")
    if d == 1:
        return UniquenessResult(UNIQUE_ISOTOPY, (CITE_DIV_ONE,))
    bound = lw_bound(manifold, cls)
    strict = manifold.b2 > bound
    if manifold.b2 > 6 and strict:
        return UniquenessResult(UNIQUE_ISOTOPY, (CITE_RANK_GT_6,))
    if manifold.b2 > abs(manifold.sigma) + 2 and strict:
        return UniquenessResult(UNIQUE_ISOTOPY, (CITE_RANK_GT_SIGMA,))
    tag = CITE_OPEN_AT_EQUALITY if manifold.b2 == bound else CITE_NO_RULE
    return UniquenessResult(UNKNOWN, (tag,))


# ---------------------------------------------------------------------------
# assembled reports


def classify(manifold: FourManifold, x) -> SphereClassReport:
    """Full per-class report: divisibility, bounds, existence, uniqueness."""
    cls = _class_of(x)
    if len(cls) != manifold.b2:
        raise DimensionMismatch(
            f"class has length {len(cls)}, form has rank {manifold.b2}"
        )
    d = intlattice.divisibility(cls)
    characteristic = intlattice.is_characteristic(manifold.form, cls)
    existence = exists_simple_sphere(manifold, cls)
    citations = list(existence.citations)
    if d == 0:
        exists = EXISTS_BY_DEFINITION
        bound = None
        uniqueness = DETERMINED_BY_FORM
        citations.append(CITE_DETERMINED_BY_FORM)
        if manifold.b2 >= manifold.sigma + 6:
            citations.append(CITE_AUTOMATIC_ISOMETRY)
    else:
        exists = existence.verdict
        bound = lw_bound(manifold, cls)
        if exists == EXISTS_YES:
            unique = uniqueness_status(manifold, cls)
            uniqueness = unique.verdict
            citations.extend(unique.citations)
        else:
            uniqueness = UNKNOWN
    seen = set()
    deduped = tuple(c for c in citations if not (c in seen or seen.add(c)))
    return SphereClassReport(
        x=cls,
        divisibility=d,
        characteristic=characteristic,
        lw_bound=bound,
        b2=manifold.b2,
        sigma=manifold.sigma,
        ks=manifold.ks,
        exists=exists,
        reasons=existence.reasons,
        uniqueness=uniqueness,
        citations=deduped,
    )


def enumerate_representable(manifold: FourManifold, max_abs: int) -> list[SphereClassReport]:
    """Classify every class with coordinates in [-max_abs, max_abs].

    Classes are visited and reported in lexicographic order, so the output
    is deterministic.
    """
    if max_abs < 0:
        raise ValueError("max_abs must be nonnegative")
    coords = range(-max_abs, max_abs + 1)
    return [
        classify(manifold, HomologyClass(x))
        for x in itertools.product(coords, repeat=manifold.b2)
    ]


# ---------------------------------------------------------------------------
# realizable hermitian forms (zero-class side)


@dataclass(frozen=True)
class RealizabilityResult:
    status: str
    reason: str | None = None
    isometry: intlattice.IsometryResult | None = None


def realizable_forms_check(
    manifold: FourManifold, form: hermitian.HermitianForm
) -> RealizabilityResult:
    """Does the Laurent hermitian form arise from a nullhomologous sphere?

    Realizable iff the form is nonsingular over the ring and its
    augmentation is isometric to the intersection form; an undecided
    integer isometry propagates.
    """
    if not isinstance(form.ring, LaurentRing):
        raise RingMismatch("realizability applies to forms over the Laurent ring")
    if not hermitian.is_nonsingular(form):
        return RealizabilityResult(
            NOT_REALIZABLE, reason=f"form is singular: det {form.det} is not a unit"
        )
    augmented = hermitian.augment_form(form)
    if intlattice.integer_det(augmented) not in (1, -1):
        return RealizabilityResult(
            NOT_REALIZABLE, reason="augmented form is not unimodular"
        )
    if len(augmented) != manifold.b2:
        return RealizabilityResult(
            NOT_REALIZABLE,
            reason=f"rank differs: form has {len(augmented)}, manifold has {manifold.b2}",
        )
    result = intlattice.is_isometric(IntersectionForm(augmented), manifold.form)
    if result.verdict == intlattice.ISO_YES:
        return RealizabilityResult(REALIZABLE, isometry=result)
    if result.verdict == intlattice.ISO_NO:
        return RealizabilityResult(
            NOT_REALIZABLE,
            reason=f"augmentation is not isometric to the intersection form: {result.reason}",
            isometry=result,
        )
    return RealizabilityResult(REALIZABILITY_UNDECIDED, reason=result.reason, isometry=result)
