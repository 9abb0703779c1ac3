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

Every verdict is a function of b2, sigma, ks and three invariants of the
class: its divisibility d, the square y.y of y = x/d, and whether x is
characteristic.  One private function, ``_verdict``, holds all the rules;
``classify`` and the single-rule functions compute the invariants of one
class and read their answer off it.  ``walk_box`` yields the invariants of
every class in a coordinate box by an odometer walk that costs O(1) per
class in the innermost coordinate, and ``enumerate_representable`` builds
its reports from that walk.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from math import gcd

from . import hermitian, intlattice
from .errors import (
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
# the verdict of a class from its invariants


@dataclass(frozen=True)
class _Verdict:
    lw_bound: int | None
    passes_ks: bool | None  # None for an ordinary class
    exists: str
    reasons: tuple[str, ...]
    uniqueness: str
    existence_citations: tuple[str, ...]
    uniqueness_citations: tuple[str, ...]


def _verdict(b2: int, sigma: int, ks: int, d: int, yy: int, characteristic: bool) -> _Verdict:
    """Every existence and uniqueness rule, as a function of the invariants.

    ``d`` is the divisibility, ``yy`` the square y.y of the primitive class
    y with x = d*y (0 for the zero class), and ``characteristic`` whether x
    is characteristic.

    Rotation-number bound: max over 0 <= j < d of |sigma - 2j(d-j) (y.y)|.
    The term is affine in j(d-j), so the max is attained at j = 0 or
    j = d//2; evaluating those two endpoints keeps divisibilities of any
    size exact without iterating.

    ks condition: for a characteristic class (sigma - x.x) is divisible by
    8 because the form is unimodular; that divisibility is asserted, and
    ks = (sigma - x.x)/8 is read in Z/2 since ks is a Z/2 invariant.

    Uniqueness: the three sufficient rules of the module docstring, with
    the strict reading of the inequality; an equality case is unknown with
    a citation tag, so a reader can see exactly why no verdict was issued.
    The zero class is tagged automatic-isometry when b2 >= |sigma| + 6:
    reversing the orientation maps the spheres and the isometries of Q to
    those of -Q, so the rule is symmetric in sigma.
    """
    passes_ks = None
    if characteristic:
        diff = sigma - d * d * yy
        if diff % 8:
            raise DivisibilityViolation(
                f"signature - x.x = {diff} is not divisible by 8 for a characteristic class"
            )
        passes_ks = ks % 2 == (diff // 8) % 2
    if d == 0:
        uniqueness_citations = (CITE_DETERMINED_BY_FORM,)
        if b2 >= abs(sigma) + 6:
            uniqueness_citations += (CITE_AUTOMATIC_ISOMETRY,)
        return _Verdict(
            None, passes_ks, EXISTS_BY_DEFINITION, (), DETERMINED_BY_FORM,
            (CITE_NULLHOMOLOGOUS,), uniqueness_citations,
        )
    peak = (d // 2) * (d - d // 2)
    bound = max(abs(sigma), abs(sigma - 2 * peak * yy))
    passes_bound = b2 >= bound
    bound_reason = REASON_PASSES_LW if passes_bound else REASON_FAILS_LW
    if characteristic:
        reasons = (bound_reason, REASON_PASSES_KS if passes_ks else REASON_FAILS_KS)
        existence_citations = (CITE_RANK_BOUND, CITE_CHARACTERISTIC_KS)
        exists = passes_bound and passes_ks
    else:
        reasons = (bound_reason, REASON_ORDINARY)
        existence_citations = (CITE_RANK_BOUND,)
        exists = passes_bound
    if not exists:
        return _Verdict(bound, passes_ks, EXISTS_NO, reasons, UNKNOWN, existence_citations, ())
    strict = b2 > bound
    if d == 1:
        uniqueness, tag = UNIQUE_ISOTOPY, CITE_DIV_ONE
    elif b2 > 6 and strict:
        uniqueness, tag = UNIQUE_ISOTOPY, CITE_RANK_GT_6
    elif b2 > abs(sigma) + 2 and strict:
        uniqueness, tag = UNIQUE_ISOTOPY, CITE_RANK_GT_SIGMA
    else:
        uniqueness = UNKNOWN
        tag = CITE_OPEN_AT_EQUALITY if b2 == bound else CITE_NO_RULE
    return _Verdict(bound, passes_ks, EXISTS_YES, reasons, uniqueness, existence_citations, (tag,))


def _invariants(manifold: FourManifold, cls: HomologyClass) -> tuple[int, int, bool]:
    """(divisibility, x.x, characteristic) of one class."""
    return (
        intlattice.divisibility(cls),
        intlattice.self_intersection(manifold.form, cls),
        intlattice.is_characteristic(manifold.form, cls),
    )


def _verdict_of(manifold: FourManifold, d: int, xx: int, characteristic: bool) -> _Verdict:
    yy = xx // (d * d) if d else 0  # exact: x.x = d^2 (y.y)
    return _verdict(manifold.b2, manifold.sigma, manifold.ks, d, yy, characteristic)


def report_from_invariants(
    manifold: FourManifold, x, d: int, xx: int, characteristic: bool
) -> SphereClassReport:
    """The report of class ``x`` given its divisibility, x.x and characteristic flag."""
    v = _verdict_of(manifold, d, xx, characteristic)
    return SphereClassReport(
        x=_class_of(x),
        divisibility=d,
        characteristic=characteristic,
        lw_bound=v.lw_bound,
        b2=manifold.b2,
        sigma=manifold.sigma,
        ks=manifold.ks,
        exists=v.exists,
        reasons=v.reasons,
        uniqueness=v.uniqueness,
        citations=v.existence_citations + v.uniqueness_citations,
    )


# ---------------------------------------------------------------------------
# the public rules, each read off the verdict


def lw_bound(manifold: FourManifold, x) -> int:
    """max over 0 <= j < d of |sigma - 2j(d-j) * (y.y)| where x = d*y.

    Integral because x.x = d^2 (y.y); undefined for the zero class.
    """
    v = _verdict_of(manifold, *_invariants(manifold, _class_of(x)))
    if v.lw_bound is None:
        raise ZeroClass("the rotation-number bound is undefined for the zero class")
    return v.lw_bound


def ks_condition(manifold: FourManifold, x) -> bool:
    """Mod-2 test of ks = (sigma - x.x)/8 for a characteristic class."""
    v = _verdict_of(manifold, *_invariants(manifold, _class_of(x)))
    if v.passes_ks is None:
        raise NotCharacteristic("the ks criterion applies to characteristic classes only")
    return v.passes_ks


def exists_simple_sphere(manifold: FourManifold, x) -> ExistenceResult:
    """Representability verdict with reason codes.

    Nonzero classes need the rank bound, plus the ks condition when
    characteristic.  The zero class is always representable (an unknotted
    sphere in a small ball).
    """
    v = _verdict_of(manifold, *_invariants(manifold, _class_of(x)))
    verdict = EXISTS_YES if v.exists == EXISTS_BY_DEFINITION else v.exists
    return ExistenceResult(verdict, v.reasons, v.existence_citations)


def uniqueness_status(manifold: FourManifold, x) -> UniquenessResult:
    """Uniqueness verdict for a representable class of nonzero divisibility."""
    v = _verdict_of(manifold, *_invariants(manifold, _class_of(x)))
    if v.exists == EXISTS_BY_DEFINITION:
        raise NotApplicable(
            "uniqueness of the zero class is governed by isometry classes of "
            "hermitian forms; see classify, which reports DeterminedByForm"
        )
    if v.exists != EXISTS_YES:
        raise ValueError("uniqueness is only defined for representable classes")
    return UniquenessResult(v.uniqueness, v.uniqueness_citations)


def classify(manifold: FourManifold, x) -> SphereClassReport:
    """Full per-class report: divisibility, bounds, existence, uniqueness."""
    cls = _class_of(x)
    return report_from_invariants(manifold, cls, *_invariants(manifold, cls))


# ---------------------------------------------------------------------------
# the box


def walk_box(manifold: FourManifold, max_abs: int) -> Iterator[tuple[tuple[int, ...], int, int, bool]]:
    """Yield (x, divisibility, x.x, characteristic) for every class in the box.

    The box holds the classes with coordinates in [-max_abs, max_abs], and
    they come in lexicographic order.  An odometer walks the leading n-1
    coordinates and carries h, Qh and h.h for h = (x_0, ..., x_{n-2}, 0):
    stepping coordinate k by delta changes h.h by 2 delta (Qh)_k +
    delta^2 Q_kk and Qh by delta Q[k].  The last coordinate t runs inside,
    where x.x = h.h + 2t (Qh)_{n-1} + t^2 Q_{n-1,n-1}.  The characteristic
    classes are the coset w + 2Z^n (``intlattice.characteristic_vector``),
    so the flag is a parity comparison with w.
    """
    if max_abs < 0:
        raise ValueError("max_abs must be nonnegative")
    q = manifold.form.matrix
    n = len(q)
    if n == 0:
        yield (), 0, 0, True
        return
    w = intlattice.characteristic_vector(q)
    m = max_abs
    last = n - 1
    head = [-m] * last
    qh = [-m * sum(row[:last]) for row in q]
    hh = -m * sum(qh[:last])

    def step(k: int, delta: int) -> None:
        nonlocal qh, hh
        hh += 2 * delta * qh[k] + delta * delta * q[k][k]
        qh = [v + delta * c for v, c in zip(qh, q[k])]
        head[k] += delta

    q_last, w_last = q[last][last], w[last]
    run = range(-m, m + 1)
    while True:
        prefix = tuple(head)
        g = gcd(*prefix)
        a = 2 * qh[last]
        head_characteristic = all((h - wi) % 2 == 0 for h, wi in zip(prefix, w))
        for t in run:
            yield (
                prefix + (t,),
                gcd(g, t),
                hh + t * (a + t * q_last),
                head_characteristic and (t - w_last) % 2 == 0,
            )
        k = last - 1
        while k >= 0 and head[k] == m:
            k -= 1
        if k < 0:
            return
        for j in range(k + 1, last):
            step(j, -2 * m)
        step(k, 1)


def enumerate_representable(manifold: FourManifold, max_abs: int) -> list[SphereClassReport]:
    """Classify every class with coordinates in [-max_abs, max_abs].

    Classes are visited and reported in lexicographic order, so the output
    is deterministic.
    """
    return [report_from_invariants(manifold, *inv) for inv in walk_box(manifold, max_abs)]


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
