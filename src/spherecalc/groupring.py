"""Group-ring arithmetic with the involution T -> T^(-1).

Two coefficient rings appear: the group ring of a finite cyclic group of
order d and integer Laurent polynomials.  Both are exact; unit detection
never leaves integer arithmetic.

An element stores only its ring and its payload ``terms``: sorted
(exponent, coefficient) pairs with no zero coefficient, one format for
both rings (defined on ``_RingDescriptor``), so arithmetic over Z[Z_d]
costs per nonzero coefficient, not per d.  Payloads are canonical, so
within a ring payload equality is element equality.  Every rule that
reads a payload lives on the ring descriptor, ``CyclicRing`` or
``LaurentRing``: sum, product, negation, conjugate, augmentation, the
printed form, and the row rules of the congruence search in
``hermitian``, ``scale_row`` and ``row_ok`` (the growth check); the
search sums rows entrywise with ``add``.  The element operators are
written once, on the base class of both element types: each applies a
rule of the descriptor ``ring`` to ``terms`` and wraps the result with
``ring.element``, which takes a payload as canonical.

>>> u = GroupRingElem(2, (1, 2))
>>> str(u * u)
'5 + 4T'
>>> (u * u).terms
((0, 5), (1, 4))
>>> L = LaurentRing()
>>> str(L.monomial(2) - 3 * L.monomial(-1))
'-3t^-1 + t^2'
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from .errors import RingMismatch
from .intlattice import integer_det

#: Cyclic orders whose group rings contain only the trivial units (+-T^k).
TRIVIAL_UNIT_ORDERS = frozenset({1, 2, 3, 4, 6})

#: Largest cyclic order accepted from input, for what still grows with d:
#: the search's generator table (4d transvections per ordered pair of rows),
#: the O(d^3) circulant determinant of ``is_unit``, the d coefficients of a
#: ``form`` JSON entry, and the search for the order of a finite symmetry.
MAX_CYCLIC_ORDER = 4096


# ---------------------------------------------------------------------------
# ring descriptors: constructors, coercion and every payload rule


class _RingDescriptor:
    """The constants, the coercion and the payload rules both rings share.

    A payload is a tuple of (exponent, coefficient) pairs sorted by
    exponent, with no zero coefficient; the exponents lie in 0..d-1 over
    Z[Z_d] and anywhere over the Laurent ring.  Sum, negation,
    augmentation, truth and the printed form read it the same way in
    both rings; the product, the conjugate and ``scale_row`` (by a
    monomial c * T^k, passed as the one pair (k, c)) fold exponents mod d
    over Z[Z_d], and ``row_ok`` checks a row against the growth limits.
    """

    def from_int(self, n: int):
        return self.monomial(0, n)

    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def coerce(self, value):
        """``value`` as an element of this ring; an int becomes a constant."""
        if isinstance(value, int):
            return self.from_int(value)
        if isinstance(value, _RingElement) and value.ring == self:
            return value
        raise RingMismatch(f"cannot coerce {value!r} into {self}")

    @staticmethod
    def add(x, y):
        if not x:
            return y
        if not y:
            return x
        acc = dict(x)
        for e, a in y:
            acc[e] = acc.get(e, 0) + a
        return tuple(sorted([t for t in acc.items() if t[1]]))

    @staticmethod
    def neg(x):
        return tuple([(e, -c) for e, c in x])

    @staticmethod
    def augment(x) -> int:
        return sum([c for _, c in x])

    nonzero = staticmethod(bool)

    def format(self, x) -> str:
        parts = []
        for e, c in x:
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                v = self.var if e == 1 else f"{self.var}^{e}"
                body = v if mag == 1 else f"{mag}{v}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts) if parts else "0"


@dataclass(frozen=True)
class CyclicRing(_RingDescriptor):
    d: int
    var = "T"

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("group order must be positive")

    def monomial(self, k: int, c: int = 1):
        return self.element(((k % self.d, int(c)),) if c else ())

    @property
    def units_fully_known(self) -> bool:
        """Whether every unit of the ring is of the form +-T^k."""
        return self.d in TRIVIAL_UNIT_ORDERS

    def to_json(self) -> dict:
        return {"kind": "cyclic", "d": self.d}

    def __str__(self):
        return f"Z[Z_{self.d}]"

    # -- the element of a payload, and the rules that fold exponents mod d

    def element(self, x) -> GroupRingElem:
        """The element whose payload is ``x``, taken as canonical, not merged again."""
        value = object.__new__(GroupRingElem)
        object.__setattr__(value, "ring", self)
        object.__setattr__(value, "terms", x)
        return value

    @staticmethod
    def element_to_json(value) -> list:
        return list(value.coeffs)

    def mul(self, x, y):
        d = self.d
        out: dict[int, int] = {}
        for e1, c1 in x:
            for e2, c2 in y:
                e = (e1 + e2) % d
                out[e] = out.get(e, 0) + c1 * c2
        return tuple(sorted([t for t in out.items() if t[1]]))

    def conj(self, x):
        # T^0 stays first; T^e becomes T^(d-e), which reverses the rest
        d = self.d
        rest = tuple([(d - e, a) for e, a in reversed(x) if e])
        return x[:1] + rest if x and not x[0][0] else rest

    def scale_row(self, w, row):
        """Each payload of ``row`` times the monomial w = (k, c)."""
        k, c = w
        d = self.d
        return tuple([tuple(sorted([((e + k) % d, c * a) for e, a in x])) if x else x for x in row])

    @staticmethod
    def row_ok(row, coeff_limit: int, exp_limit: int) -> bool:
        """Every coefficient within +-coeff_limit (exponents are bounded by d)."""
        for x in row:
            for _, c in x:
                if c > coeff_limit or c < -coeff_limit:
                    return False
        return True


@dataclass(frozen=True)
class LaurentRing(_RingDescriptor):
    var = "t"

    def monomial(self, k: int, c: int = 1):
        return self.element(((int(k), int(c)),) if c else ())

    @property
    def units_fully_known(self) -> bool:
        return True

    def to_json(self) -> dict:
        return {"kind": "laurent"}

    def __str__(self):
        return "Z[t,t^-1]"

    @staticmethod
    def element(x) -> LaurentElem:
        """The element whose payload is ``x``, taken as canonical, not merged again."""
        value = object.__new__(LaurentElem)
        object.__setattr__(value, "terms", x)
        return value

    @staticmethod
    def element_to_json(value) -> list:
        return [[e, c] for e, c in value.terms]

    @staticmethod
    def mul(x, y):
        out: dict[int, int] = {}
        for e1, c1 in x:
            for e2, c2 in y:
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return tuple(sorted([t for t in out.items() if t[1]]))

    @staticmethod
    def conj(x):
        return tuple([(-e, a) for e, a in reversed(x)])

    @staticmethod
    def scale_row(w, row):
        """Each payload of ``row`` times the monomial w = (k, c)."""
        k, c = w
        if c == 1:
            return tuple([tuple([(e + k, a) for e, a in x]) for x in row])
        return tuple([tuple([(e + k, c * a) for e, a in x]) for x in row])

    @staticmethod
    def row_ok(row, coeff_limit: int, exp_limit: int) -> bool:
        """Every coefficient within +-coeff_limit, every exponent within +-exp_limit."""
        for x in row:
            for e, c in x:
                if c > coeff_limit or c < -coeff_limit or e > exp_limit or e < -exp_limit:
                    return False
        return True


Ring = CyclicRing | LaurentRing


# ---------------------------------------------------------------------------
# elements


class _RingElement:
    """The operators of both element types, on the payload rules of ``ring``.

    An int operand is a constant of the ring, an element of another ring
    raises ``RingMismatch``, and any other operand is ``NotImplemented``.
    """

    def _coerce(self, other):
        """Payload of ``other`` in this element's ring; None for a non-ring operand."""
        ring = self.ring
        if other.__class__ is self.__class__ and other.ring is ring:
            return other.terms
        if isinstance(other, (int, _RingElement)):
            return ring.coerce(other).terms
        return None

    def __add__(self, other):
        y = self._coerce(other)
        if y is None:
            return NotImplemented
        ring = self.ring
        return ring.element(ring.add(self.terms, y))

    __radd__ = __add__

    def __neg__(self):
        ring = self.ring
        return ring.element(ring.neg(self.terms))

    def __sub__(self, other):
        y = self._coerce(other)
        if y is None:
            return NotImplemented
        ring = self.ring
        return ring.element(ring.add(self.terms, ring.neg(y)))

    def __rsub__(self, other):
        y = self._coerce(other)
        if y is None:
            return NotImplemented
        ring = self.ring
        return ring.element(ring.add(y, ring.neg(self.terms)))

    def __mul__(self, other):
        y = self._coerce(other)
        if y is None:
            return NotImplemented
        ring = self.ring
        return ring.element(ring.mul(self.terms, y))

    __rmul__ = __mul__

    def __bool__(self):
        return self.ring.nonzero(self.terms)

    def conjugate(self):
        """Apply T -> T^(-1); an involutive ring automorphism."""
        ring = self.ring
        return ring.element(ring.conj(self.terms))

    def augment(self) -> int:
        """Ring homomorphism to Z given by T -> 1."""
        return self.ring.augment(self.terms)

    def __str__(self):
        return self.ring.format(self.terms)


@dataclass(frozen=True, init=False)
class GroupRingElem(_RingElement):
    """Element of the integral group ring of the cyclic group of order d.

    Built from d dense coefficients, ``coeffs[k]`` the coefficient of T^k,
    and stored as its ring and payload ``terms``, the nonzero ones as
    (k, coeffs[k]) pairs; ``d`` and ``coeffs`` are read back from those.
    """

    ring: CyclicRing
    terms: tuple[tuple[int, int], ...]

    def __init__(self, d: int, coeffs) -> None:
        ring = CyclicRing(d)  # rejects an order below 1
        coeffs = tuple(map(int, coeffs))
        if len(coeffs) != d:
            raise ValueError(f"expected {d} coefficients, got {len(coeffs)}")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", tuple([t for t in enumerate(coeffs) if t[1]]))

    @property
    def d(self) -> int:
        return self.ring.d

    @property
    def coeffs(self) -> tuple[int, ...]:
        coeffs = [0] * self.ring.d
        for e, c in self.terms:
            coeffs[e] = c
        return tuple(coeffs)

    def multiplication_matrix(self) -> tuple[tuple[int, ...], ...]:
        """Circulant d x d integer matrix of multiplication by this element."""
        coeffs, d = self.coeffs, self.d
        return tuple(tuple(coeffs[(i - j) % d] for j in range(d)) for i in range(d))

    def is_unit(self) -> bool:
        """True iff the element is invertible.

        T -> 1 is a ring map to Z, and so is T -> -1 when d is even, so a
        unit maps to +-1 under each; then a single nonzero coefficient
        makes the element +-T^k, a unit.  Any other element is decided by
        the circulant determinant, O(d^3).
        """
        terms = self.terms
        if self.augment() not in (1, -1):
            return False
        if self.d % 2 == 0 and sum([-c if e % 2 else c for e, c in terms]) not in (1, -1):
            return False
        if len(terms) == 1:
            return True
        return integer_det(self.multiplication_matrix()) in (1, -1)


@dataclass(frozen=True)
class LaurentElem(_RingElement):
    """Integer Laurent polynomial, stored as sorted (exponent, coefficient) pairs.

    Repeated exponents are summed and zero coefficients are never stored,
    so equality is structural.
    """

    terms: tuple[tuple[int, int], ...] = ()
    ring: ClassVar[LaurentRing] = LaurentRing()

    def __post_init__(self):
        merged: dict[int, int] = {}
        for e, c in self.terms:
            merged[int(e)] = merged.get(int(e), 0) + int(c)
        object.__setattr__(
            self, "terms", tuple(sorted((e, c) for e, c in merged.items() if c))
        )

    def is_unit(self) -> bool:
        """Units of the integer Laurent ring are exactly +-t^k."""
        return len(self.terms) == 1 and self.terms[0][1] in (1, -1)
