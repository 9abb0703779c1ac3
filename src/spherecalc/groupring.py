"""Group-ring arithmetic with the involution T -> T^(-1).

Two coefficient rings appear: the group ring of a finite cyclic group of
order d and integer Laurent polynomials.  Both are exact; unit detection
never leaves integer arithmetic.

Every computation runs on packed payloads, one format for both rings
(defined on ``_RingDescriptor``), so a search over Z[Z_d] costs per
nonzero coefficient, not per d.  Payloads are canonical, so payload
equality is element equality.  Every rule that reads a payload lives on
the ring descriptor, ``CyclicRing`` or ``LaurentRing``: sum, product,
negation, conjugate, augmentation, the printed form, and the row rules
of the congruence search in ``hermitian``, ``scale_row`` and ``row_ok``
(the growth check); the search sums rows entrywise with ``add``.  The
descriptor's ``pack`` and ``unpack`` convert at the boundary: a
``GroupRingElem`` keeps its dense length-d ``coeffs``, a ``LaurentElem``
its ``terms``.  The element operators are written once, on the base
class of both element types, and each asks the element's descriptor
``ring`` for its rule.  Elements are built by their ring (``monomial``,
``from_int``, ``zero``, ``one``) or from their payload.

>>> u = GroupRingElem(2, (1, 2))
>>> str(u * u)
'5 + 4T'
>>> L = LaurentRing()
>>> str(L.monomial(2) - 3 * L.monomial(-1))
'-3t^-1 + t^2'
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from operator import attrgetter
from typing import ClassVar

from .errors import RingMismatch
from .intlattice import integer_det

#: Cyclic orders whose group rings contain only the trivial units (+-T^k).
TRIVIAL_UNIT_ORDERS = frozenset({1, 2, 3, 4, 6})

#: Largest cyclic order accepted from input: a cyclic-ring element stores
#: d coefficients, and a finite symmetry is sought up to this order.
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
        return self.unpack(((k % self.d, int(c)),))

    @property
    def units_fully_known(self) -> bool:
        """Whether every unit of the ring is of the form +-T^k."""
        return self.d in TRIVIAL_UNIT_ORDERS

    def to_json(self) -> dict:
        return {"kind": "cyclic", "d": self.d}

    def __str__(self):
        return f"Z[Z_{self.d}]"

    # -- the payload of a dense element, and the rules that fold mod d

    @staticmethod
    def pack(value):
        return tuple([t for t in enumerate(value.coeffs) if t[1]])

    def unpack(self, x) -> GroupRingElem:
        """The element with payload ``x``."""
        coeffs = [0] * self.d
        for e, c in x:
            coeffs[e] = c
        return GroupRingElem(self.d, tuple(coeffs))

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
        d = self.d
        return tuple(sorted([(-e % d, a) for e, a in x]))

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
        return LaurentElem(((int(k), int(c)),))

    @property
    def units_fully_known(self) -> bool:
        return True

    def to_json(self) -> dict:
        return {"kind": "laurent"}

    def __str__(self):
        return "Z[t,t^-1]"

    # -- the payload is the element's own terms

    pack = attrgetter("terms")

    @staticmethod
    def unpack(x) -> LaurentElem:
        """The element with payload ``x``."""
        return LaurentElem(x)

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


@lru_cache(maxsize=256)
def _cyclic_ring(d: int) -> CyclicRing:
    """One descriptor per recent order, so that its elements share it.

    Sharing lets the operators recognise a same-ring operand by identity;
    elements whose descriptors differ as objects still compare equal.
    """
    return CyclicRing(d)


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
            return ring.pack(other)
        if isinstance(other, (int, _RingElement)):
            return ring.pack(ring.coerce(other))
        return None

    def __add__(self, other):
        y = self._coerce(other)
        if y is None:
            return NotImplemented
        ring = self.ring
        return ring.unpack(ring.add(ring.pack(self), y))

    __radd__ = __add__

    def __neg__(self):
        ring = self.ring
        return ring.unpack(ring.neg(ring.pack(self)))

    def __sub__(self, other):
        y = self._coerce(other)
        if y is None:
            return NotImplemented
        ring = self.ring
        return ring.unpack(ring.add(ring.pack(self), ring.neg(y)))

    def __rsub__(self, other):
        y = self._coerce(other)
        if y is None:
            return NotImplemented
        ring = self.ring
        return ring.unpack(ring.add(y, ring.neg(ring.pack(self))))

    def __mul__(self, other):
        y = self._coerce(other)
        if y is None:
            return NotImplemented
        ring = self.ring
        return ring.unpack(ring.mul(ring.pack(self), y))

    __rmul__ = __mul__

    def __bool__(self):
        ring = self.ring
        return ring.nonzero(ring.pack(self))

    def conjugate(self):
        """Apply T -> T^(-1); an involutive ring automorphism."""
        ring = self.ring
        return ring.unpack(ring.conj(ring.pack(self)))

    def augment(self) -> int:
        """Ring homomorphism to Z given by T -> 1."""
        ring = self.ring
        return ring.augment(ring.pack(self))

    def __str__(self):
        ring = self.ring
        return ring.format(ring.pack(self))


@dataclass(frozen=True)
class GroupRingElem(_RingElement):
    """Element of the integral group ring of the cyclic group of order d.

    ``coeffs[k]`` is the coefficient of T^k; there are exactly d of them.
    """

    d: int
    coeffs: tuple[int, ...]
    ring: CyclicRing = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ring = _cyclic_ring(self.d)  # rejects an order below 1
        coeffs = tuple(map(int, self.coeffs))
        if len(coeffs) != self.d:
            raise ValueError(f"expected {self.d} coefficients, got {len(coeffs)}")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "ring", ring)

    def multiplication_matrix(self) -> tuple[tuple[int, ...], ...]:
        """Circulant d x d integer matrix of multiplication by this element."""
        return tuple(
            tuple(self.coeffs[(i - j) % self.d] for j in range(self.d))
            for i in range(self.d)
        )

    def is_unit(self) -> bool:
        """True iff the element is invertible.

        T -> 1 is a ring map to Z, and so is T -> -1 when d is even, so a
        unit maps to +-1 under each; then a single nonzero coefficient
        makes the element +-T^k, a unit.  Any other element is decided by
        the circulant determinant, O(d^3).
        """
        if self.augment() not in (1, -1):
            return False
        if self.d % 2 == 0 and sum(self.coeffs[::2]) - sum(self.coeffs[1::2]) not in (1, -1):
            return False
        if self.coeffs.count(0) == self.d - 1:
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
