"""Group-ring arithmetic with the involution T -> T^(-1).

Two coefficient rings appear: the group ring of a finite cyclic group of
order d (dense length-d coefficient vectors, index arithmetic mod d) and
integer Laurent polynomials (sparse exponent -> coefficient maps).  Both
are exact; unit detection never leaves integer arithmetic.

This module owns the packed payload of an element and its arithmetic:
``GroupRingElem.coeffs`` (a dense length-d tuple) and
``LaurentElem.terms`` (sorted (exponent, coefficient) pairs, no zeros).
Both are canonical, so payload equality is element equality.  The ring
descriptors ``CyclicRing`` and ``LaurentRing`` carry the payload
operations (sum, conjugate, a row scaled by a monomial c * T^k passed as
the pair (k, c)); the element operators and the congruence search in
``hermitian`` both run on them.

>>> u = GroupRingElem(2, (1, 2))
>>> str(u * u)
'5 + 4T'
>>> str(LaurentElem.monomial(2) - 3 * LaurentElem.monomial(-1))
'-3t^-1 + t^2'
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Iterable, Mapping

from .errors import RingMismatch
from .intlattice import integer_det

#: Cyclic orders whose group rings contain only the trivial units (+-T^k).
TRIVIAL_UNIT_ORDERS = frozenset({1, 2, 3, 4, 6})

#: Largest cyclic order accepted from input: a cyclic-ring element stores
#: d coefficients, and a finite symmetry is sought up to this order.
MAX_CYCLIC_ORDER = 4096


def _format_terms(pairs, var: str) -> str:
    parts = []
    for e, c in pairs:
        if c == 0:
            continue
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            v = var if e == 1 else f"{var}^{e}"
            body = v if mag == 1 else f"{mag}{v}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts) if parts else "0"


@dataclass(frozen=True)
class GroupRingElem:
    """Element of the integral group ring of the cyclic group of order d.

    ``coeffs[k]`` is the coefficient of T^k; there are exactly d of them.
    """

    d: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("group order must be positive")
        coeffs = tuple(int(c) for c in self.coeffs)
        if len(coeffs) != self.d:
            raise ValueError(f"expected {self.d} coefficients, got {len(coeffs)}")
        object.__setattr__(self, "coeffs", coeffs)

    # -- constructors

    @classmethod
    def from_int(cls, d: int, n: int) -> "GroupRingElem":
        return cls(d, (int(n),) + (0,) * (d - 1))

    @classmethod
    def zero(cls, d: int) -> "GroupRingElem":
        return cls.from_int(d, 0)

    @classmethod
    def one(cls, d: int) -> "GroupRingElem":
        return cls.from_int(d, 1)

    @classmethod
    def monomial(cls, d: int, k: int, c: int = 1) -> "GroupRingElem":
        coeffs = [0] * d
        coeffs[k % d] = int(c)
        return cls(d, tuple(coeffs))

    # -- ring structure

    def _coerce(self, other):
        if isinstance(other, int):
            return GroupRingElem.from_int(self.d, other)
        if isinstance(other, GroupRingElem):
            if other.d != self.d:
                raise RingMismatch(f"cyclic orders differ: {self.d} vs {other.d}")
            return other
        if isinstance(other, LaurentElem):
            raise RingMismatch("cannot mix cyclic and Laurent elements")
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GroupRingElem(self.d, CyclicRing.add(self.coeffs, o.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return GroupRingElem(self.d, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = [0] * self.d
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs):
                    if b:
                        out[(i + j) % self.d] += a * b
        return GroupRingElem(self.d, tuple(out))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined in the group ring")
        result = GroupRingElem.one(self.d)
        for _ in range(n):
            result = result * self
        return result

    def __bool__(self):
        return any(self.coeffs)

    # -- involution, augmentation, units

    def conjugate(self) -> "GroupRingElem":
        """Apply T -> T^(-1); an involutive ring automorphism."""
        return GroupRingElem(self.d, CyclicRing.conj(self.coeffs))

    def augment(self) -> int:
        """Ring homomorphism to Z given by T -> 1."""
        return sum(self.coeffs)

    def multiplication_matrix(self) -> tuple[tuple[int, ...], ...]:
        """Circulant d x d integer matrix of multiplication by this element."""
        return tuple(
            tuple(self.coeffs[(i - j) % self.d] for j in range(self.d))
            for i in range(self.d)
        )

    def is_unit(self) -> bool:
        """True iff the element is invertible; decided by the circulant determinant."""
        return integer_det(self.multiplication_matrix()) in (1, -1)

    def __str__(self):
        return _format_terms(enumerate(self.coeffs), "T")


@dataclass(frozen=True)
class LaurentElem:
    """Integer Laurent polynomial, stored as sorted (exponent, coefficient) pairs.

    Zero coefficients are never stored, so equality is structural.
    """

    terms: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        merged: dict[int, int] = {}
        for e, c in self.terms:
            merged[int(e)] = merged.get(int(e), 0) + int(c)
        object.__setattr__(
            self, "terms", tuple(sorted((e, c) for e, c in merged.items() if c))
        )

    # -- constructors

    @classmethod
    def from_terms(cls, terms: Mapping[int, int] | Iterable[tuple[int, int]]) -> "LaurentElem":
        if isinstance(terms, Mapping):
            terms = terms.items()
        return cls(tuple(terms))

    @classmethod
    def from_int(cls, n: int) -> "LaurentElem":
        return cls(((0, int(n)),))

    @classmethod
    def zero(cls) -> "LaurentElem":
        return cls(())

    @classmethod
    def one(cls) -> "LaurentElem":
        return cls.from_int(1)

    @classmethod
    def monomial(cls, k: int, c: int = 1) -> "LaurentElem":
        return cls(((int(k), int(c)),))

    # -- ring structure

    def _coerce(self, other):
        if isinstance(other, int):
            return LaurentElem.from_int(other)
        if isinstance(other, LaurentElem):
            return other
        if isinstance(other, GroupRingElem):
            raise RingMismatch("cannot mix Laurent and cyclic elements")
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return LaurentElem(LaurentRing.add(self.terms, o.terms))

    __radd__ = __add__

    def __neg__(self):
        return LaurentElem(tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out: dict[int, int] = {}
        for e1, c1 in self.terms:
            for e2, c2 in o.terms:
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return LaurentElem.from_terms(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined; invert a monomial instead")
        result = LaurentElem.one()
        for _ in range(n):
            result = result * self
        return result

    def __bool__(self):
        return bool(self.terms)

    # -- involution, augmentation, units

    def conjugate(self) -> "LaurentElem":
        """Apply t -> t^(-1) by negating every exponent."""
        return LaurentElem(LaurentRing.conj(self.terms))

    def augment(self) -> int:
        return sum(c for _, c in self.terms)

    def is_unit(self) -> bool:
        """Units of the integer Laurent ring are exactly +-t^k."""
        return len(self.terms) == 1 and self.terms[0][1] in (1, -1)

    def __str__(self):
        return _format_terms(self.terms, "t")


# ---------------------------------------------------------------------------
# ring descriptors: constructors, coercion and the packed payload arithmetic


@dataclass(frozen=True)
class CyclicRing:
    d: int
    kind: ClassVar[str] = "cyclic"

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("group order must be positive")

    def zero(self):
        return GroupRingElem.zero(self.d)

    def one(self):
        return GroupRingElem.one(self.d)

    def from_int(self, n: int):
        return GroupRingElem.from_int(self.d, n)

    def monomial(self, k: int, c: int = 1):
        return GroupRingElem.monomial(self.d, k, c)

    def coerce(self, value):
        if isinstance(value, int):
            return self.from_int(value)
        if isinstance(value, GroupRingElem):
            if value.d != self.d:
                raise RingMismatch(f"cyclic orders differ: {self.d} vs {value.d}")
            return value
        raise RingMismatch(f"cannot coerce {value!r} into Z[Z_{self.d}]")

    @property
    def units_fully_known(self) -> bool:
        """Whether every unit of the ring is of the form +-T^k."""
        return self.d in TRIVIAL_UNIT_ORDERS

    # -- packed payloads: dense length-d coefficient tuples

    @staticmethod
    def pack(value) -> tuple:
        return value.coeffs

    def unpack(self, x) -> GroupRingElem:
        return GroupRingElem(self.d, x)

    def scale_row(self, w, row):
        """Each payload of ``row`` times the monomial w = (k, c)."""
        k, c = w
        s = self.d - k  # c * T^k moves the coefficient of T^i to T^(i+k)
        if c == 1:
            return tuple([x[s:] + x[:s] for x in row])
        return tuple([tuple([c * a for a in x[s:] + x[:s]]) for x in row])

    @staticmethod
    def add(x, y):
        return tuple(map(int.__add__, x, y))

    @staticmethod
    def add_rows(r1, r2):
        return tuple([tuple(map(int.__add__, x, y)) for x, y in zip(r1, r2)])

    @staticmethod
    def conj(x):
        return x[:1] + x[:0:-1]

    @staticmethod
    def row_ok(row, coeff_limit: int, exp_limit: int) -> bool:
        """Every coefficient within +-coeff_limit (exponents are bounded by d)."""
        for x in row:
            for c in x:
                if c > coeff_limit or c < -coeff_limit:
                    return False
        return True

    def __str__(self):
        return f"Z[Z_{self.d}]"


@dataclass(frozen=True)
class LaurentRing:
    kind: ClassVar[str] = "laurent"

    def zero(self):
        return LaurentElem.zero()

    def one(self):
        return LaurentElem.one()

    def from_int(self, n: int):
        return LaurentElem.from_int(n)

    def monomial(self, k: int, c: int = 1):
        return LaurentElem.monomial(k, c)

    def coerce(self, value):
        if isinstance(value, int):
            return self.from_int(value)
        if isinstance(value, LaurentElem):
            return value
        raise RingMismatch(f"cannot coerce {value!r} into the Laurent ring")

    @property
    def units_fully_known(self) -> bool:
        return True

    # -- packed payloads: sorted (exponent, coefficient) pairs without zeros

    @staticmethod
    def pack(value) -> tuple:
        return value.terms

    @staticmethod
    def unpack(x) -> LaurentElem:
        return LaurentElem(x)

    @staticmethod
    def scale_row(w, row):
        """Each payload of ``row`` times the monomial w = (k, c)."""
        k, c = w
        if c == 1:
            return tuple([tuple([(e + k, a) for e, a in x]) for x in row])
        return tuple([tuple([(e + k, c * a) for e, a in x]) for x in row])

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
    def add_rows(r1, r2):
        add = LaurentRing.add
        return tuple([add(x, y) if x and y else x or y for x, y in zip(r1, r2)])

    @staticmethod
    def conj(x):
        return tuple([(-e, a) for e, a in reversed(x)])

    @staticmethod
    def row_ok(row, coeff_limit: int, exp_limit: int) -> bool:
        """Every coefficient within +-coeff_limit, every exponent within +-exp_limit."""
        for x in row:
            for e, c in x:
                if c > coeff_limit or c < -coeff_limit or e > exp_limit or e < -exp_limit:
                    return False
        return True

    def __str__(self):
        return "Z[t,t^-1]"


Ring = CyclicRing | LaurentRing


def ring_of(value) -> Ring:
    if isinstance(value, GroupRingElem):
        return CyclicRing(value.d)
    if isinstance(value, LaurentElem):
        return LaurentRing()
    raise TypeError(f"not a group-ring element: {value!r}")


def element_to_json(value):
    """JSON payload for one element: coefficient list (cyclic) or pair list."""
    if isinstance(value, GroupRingElem):
        return list(value.coeffs)
    if isinstance(value, LaurentElem):
        return [[e, c] for e, c in value.terms]
    raise TypeError(f"not a group-ring element: {value!r}")


def element_from_json(ring: Ring, data):
    if isinstance(ring, CyclicRing):
        return GroupRingElem(ring.d, tuple(int(c) for c in data))
    return LaurentElem.from_terms([(int(e), int(c)) for e, c in data])


def ring_to_json(ring: Ring) -> dict:
    if isinstance(ring, CyclicRing):
        return {"kind": "cyclic", "d": ring.d}
    return {"kind": "laurent"}


def ring_from_json(data) -> Ring:
    if data.get("kind") == "cyclic":
        return CyclicRing(int(data["d"]))
    if data.get("kind") == "laurent":
        return LaurentRing()
    raise ValueError(f"unknown ring tag: {data!r}")
