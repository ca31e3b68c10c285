"""Exact scalars q·ζ^e in a fixed cyclotomic field, and elements of that field.

A :class:`CycScalar` is a nonzero rational ``q = num/den`` times a power of
``ζ = exp(2πi/L)``; the order ``L`` is fixed once per problem instance.  It
holds plain integers: ``num`` and ``den`` in lowest terms with ``den > 0``,
and the exponent ``e``.  The canonical form keeps the exponent in ``[0, L)``
and, when ``L`` is even, folds exponents ``e ≥ L/2`` into the sign of ``num``
via ``ζ^{L/2} = −1``.  After folding, two scalars of one order are equal as
complex numbers exactly when their ``(num, den, e)`` agree, so equality and
hashing are structural; products, quotients and powers take one ``gcd``.

A general element of ``Q(ζ_L)`` is a :class:`CycVector`: integer numerators
over the power basis ``1, ζ, …, ζ^{φ(L)−1}`` modulo the L-th cyclotomic
polynomial ``Φ_L``, with one positive common denominator, in lowest terms.
This form is unique, so equality and hashing are structural and zero-testing
is a scan for a nonzero numerator.  Every construction reduces once: a sum
``Σ qᵢ·ζ^{eᵢ}`` or a product is folded modulo ``x^L − 1`` (which ``Φ_L``
divides), then divided by the monic ``Φ_L``; the division is skipped when the
top exponent is already below ``φ(L)``.  An element takes O(φ(L)) memory.
The per-order tables are ``Φ_L`` itself, built from the Möbius product
``Φ_L = ∏_{d | L} (x^d − 1)^{μ(L/d)}`` (``cyclotomic_polynomial``), and the
reduced powers of ζ as sparse numerators (``zeta_terms``), one bounded cache
that the support's class sums and the realizer's term plans share.  The one
division, ``CycVector.inverse``, is a product of Galois conjugates over the
rational norm, so no polynomial arithmetic over Q is kept beside the integer
numerators.

No floating point is used anywhere; ``complex(x)`` is provided only so tests
can cross-check against numeric evaluation.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, compress, count
from math import gcd, lcm, prod
from typing import Iterable

from .errors import InputError, OrderMismatchError


def _prime_factors(m: int) -> list[int]:
    """The distinct primes dividing ``m``, increasing."""
    out, p = [], 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    return out + ([m] if m > 1 else [])


@lru_cache(maxsize=None)
def cyclotomic_polynomial(order: int) -> tuple[int, ...]:
    """Integer coefficients of Φ_order, low degree first.

    The Möbius product ``Φ_L = ∏_{d | L} (x^d − 1)^{μ(L/d)}``: multiply by each
    ``x^d − 1`` with ``μ(L/d) = 1``, then divide exactly by each with
    ``μ(L/d) = −1``.  Only squarefree ``L/d`` count, so there are ``2^ω(L)``
    factors and each step is one pass over the coefficients."""
    if order < 1:
        raise InputError("cyclotomic order must be positive", order=order)
    ups, downs = [], []
    primes = _prime_factors(order)
    for k in range(len(primes) + 1):
        for S in combinations(primes, k):
            (downs if k % 2 else ups).append(order // prod(S))
    poly = [1]
    for d in sorted(ups):  # poly·x^d − poly; short factors first
        poly = [b - a for a, b in zip(poly + [0] * d, [0] * d + poly)]
    for d in sorted(downs, reverse=True):  # q·(x^d − 1) = poly: q_j = poly_{j+d} + q_{j+d}
        poly = poly[d:]
        for j in range(len(poly) - 1 - d, -1, -1):
            poly[j] += poly[j + d]
    return tuple(poly)


@lru_cache(maxsize=None)
def _phi_taps(order: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    # deg Φ_order and the nonzero lower coefficients (j, c) of Φ_order.
    phi = cyclotomic_polynomial(order)
    return len(phi) - 1, tuple((j, c) for j, c in enumerate(phi[:-1]) if c)


def _reduce(order: int, poly: list[int]) -> list[int]:
    """Power-basis coordinates of an integer polynomial of length at least
    φ(order) (low-to-high, reduced in place) modulo Φ_order."""
    deg, taps = _phi_taps(order)
    if len(poly) > order:
        for i in range(order, len(poly)):
            poly[i % order] += poly[i]
        del poly[order:]
    for i in range(len(poly) - 1, deg - 1, -1):
        c = poly[i]
        if c:
            base = i - deg
            for j, t in taps:
                poly[base + j] -= c * t
    del poly[deg:]
    return poly


@lru_cache(maxsize=1 << 14)
def zeta_terms(order: int, m: int) -> tuple[tuple[int, int], ...]:
    """The nonzero power-basis numerators of ζ_order^m as (position, integer)
    pairs, for ``0 ≤ m < order``: the one pair ``(m, 1)`` below φ(order), and
    one reduction of x^m modulo Φ_order, kept in a bounded cache, above."""
    deg = _phi_taps(order)[0]
    if m < deg:
        return ((m, 1),)
    poly = [0] * (m + 1)
    poly[m] = 1
    num = _reduce(order, poly)
    return tuple((k, num[k]) for k in compress(count(), num))


class CycScalar:
    """Nonzero ``(num/den) · ζ_order^e`` in canonical (sign-folded) form.

    ``num`` and ``den`` are integers in lowest terms with ``den > 0``, and
    ``e`` lies in ``[0, order)``, below ``order/2`` when ``order`` is even.
    The hash is computed once, from the order-independent key of ``_key``.
    ``q`` is the rational part as a ``Fraction``, for the direct evaluation
    oracles and the tests; arithmetic stays in integers."""

    __slots__ = ("num", "den", "e", "order", "_hash")

    def __init__(self, q, e: int, order: int):
        if type(q) is int:
            num, den = q, 1
        else:
            q = Fraction(q)
            num, den = q.numerator, q.denominator
        if not num:
            raise InputError("scalar part must be nonzero")
        if order < 1:
            raise InputError("cyclotomic order must be positive", order=order)
        _fill(self, num, den, e, order)

    def __setattr__(self, *_):
        raise AttributeError("CycScalar is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def ratio(cls, num: int, den: int, e: int, order: int) -> "CycScalar":
        """``(num/den)·ζ_order^e`` from integers, brought to lowest terms."""
        if not den:
            raise InputError("scalar denominator must be nonzero")
        if not num:
            raise InputError("scalar part must be nonzero")
        if order < 1:
            raise InputError("cyclotomic order must be positive", order=order)
        return _reduced(num, den, e, order)

    @classmethod
    def one(cls, order: int) -> "CycScalar":
        return cls(1, 0, order)

    @classmethod
    def from_rational(cls, q, order: int) -> "CycScalar":
        return cls(q, 0, order)

    @classmethod
    def zeta(cls, order: int, e: int = 1) -> "CycScalar":
        return cls(1, e, order)

    @property
    def q(self) -> Fraction:
        return Fraction(self.num, self.den)

    # -- arithmetic ----------------------------------------------------

    def _check(self, other: "CycScalar") -> None:
        if self.order != other.order:
            raise OrderMismatchError(
                "scalars have different cyclotomic orders",
                left=self.order,
                right=other.order,
            )

    def __mul__(self, other: "CycScalar") -> "CycScalar":
        if not isinstance(other, CycScalar):
            return NotImplemented
        self._check(other)
        return _reduced(self.num * other.num, self.den * other.den, self.e + other.e, self.order)

    def __truediv__(self, other: "CycScalar") -> "CycScalar":
        if not isinstance(other, CycScalar):
            return NotImplemented
        self._check(other)
        return _reduced(self.num * other.den, self.den * other.num, self.e - other.e, self.order)

    def __pow__(self, m: int) -> "CycScalar":
        if m < 0:
            return _reduced(self.den ** -m, self.num ** -m, self.e * m, self.order)
        return _reduced(self.num ** m, self.den ** m, self.e * m, self.order)

    def __neg__(self) -> "CycScalar":
        return _reduced(-self.num, self.den, self.e, self.order)

    # -- structure -----------------------------------------------------

    def _key(self):
        # Order-independent invariant: the argument in turns, folded into
        # [0, 1/2) by the sign of q as the even-order canonical form is, as a
        # fraction in lowest terms.  Odd orders have e/order ≥ 1/2 to fold.
        num, turns, full = self.num, 2 * self.e, 2 * self.order
        if turns >= self.order:
            num, turns = -num, turns - self.order
        g = gcd(turns, full)
        return (num, self.den, turns // g, full // g)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycScalar):
            return NotImplemented
        if self.order == other.order:
            return self.e == other.e and self.num == other.num and self.den == other.den
        return self._key() == other._key()

    def __hash__(self) -> int:
        return self._hash

    @property
    def is_one(self) -> bool:
        return self.e == 0 and self.num == 1 and self.den == 1

    def with_order(self, order: int) -> "CycScalar":
        """Re-express in a field of larger compatible order."""
        if order % self.order:
            raise OrderMismatchError(
                "target order must be a multiple of the current order",
                current=self.order,
                target=order,
            )
        return _reduced(self.num, self.den, self.e * (order // self.order), order)

    def __complex__(self) -> complex:
        return self.num / self.den * cmath.exp(2j * cmath.pi * self.e / self.order)

    def __repr__(self) -> str:
        q = self.num if self.den == 1 else f"{self.num}/{self.den}"
        if self.e == 0:
            return f"CycScalar({q})"
        return f"CycScalar({q}*z{self.order}^{self.e})"


# The slots' own setters: ``__setattr__`` refuses every write, and these are
# cheaper than ``object.__setattr__`` by name.
_SET_SLOTS = tuple(getattr(CycScalar, name).__set__ for name in CycScalar.__slots__)


def _fill(out: CycScalar, num: int, den: int, e: int, order: int) -> None:
    # Fold e into [0, order), and past a half turn into the sign at even
    # order; then set the slots and the hash of ``_key``.
    e %= order
    if order % 2 == 0 and e >= order // 2:
        num = -num
        e -= order // 2
    set_num, set_den, set_e, set_order, set_hash = _SET_SLOTS
    set_num(out, num)
    set_den(out, den)
    set_e(out, e)
    set_order(out, order)
    set_hash(out, hash(out._key()))


def _reduced(num: int, den: int, e: int, order: int) -> CycScalar:
    # The scalar (num/den)·ζ^e for num, den ≠ 0: the integer path of every
    # operation, brought to lowest terms by one gcd.
    g = gcd(num, den)
    if den < 0:
        g = -g
    if g != 1:
        num //= g
        den //= g
    out = object.__new__(CycScalar)
    _fill(out, num, den, e, order)
    return out


def root_of_unity_order_divides(a: CycScalar, k: int) -> bool:
    """True iff ``a^k = 1``, i.e. ``a`` is a k-th root of unity."""
    if k < 1:
        raise InputError("k must be positive", k=k)
    return (a ** k).is_one


def phase(a: CycScalar) -> int:
    """The exponent ``g`` with ``a/|a| = ζ_{2L}^g``, ``L`` the order:
    ``a/|a| = (−1)^s·ζ_L^e`` and ``−1 = ζ_{2L}^L``, so ``g = 2e + s·L``."""
    return 2 * a.e + (a.order if a.num < 0 else 0)


def phase_order(g: int, order: int) -> int:
    """The multiplicative order of ``ζ_{2·order}^g``."""
    return 2 * order // gcd(2 * order, g)


class CycVector:
    """Element of ``Q(ζ_L)``: integer numerators ``num`` over the power basis
    ``1, ζ, …, ζ^{φ(L)−1}`` and a positive common denominator ``den``, in
    lowest terms (the zero element has ``den = 1``).

    ``CycVector(order, coeffs)`` takes ``L`` rational coefficients over the
    spanning set ``1, ζ, …, ζ^{L−1}`` and reduces them modulo ``Φ_L``.
    """

    __slots__ = ("order", "num", "den")

    def __init__(self, order: int, coeffs: Iterable | None = None, *, _num=None, _den=1):
        # Internal callers pass reduced numerators ``_num`` (length φ(L)) over
        # a positive ``_den``; they are brought to lowest terms here.
        if _num is None:
            c = [] if coeffs is None else [Fraction(x) for x in coeffs]
            if coeffs is not None and len(c) != order:
                raise InputError("coefficient vector has wrong length")
            _num, _den = _fold(order, enumerate(c))
        if _den != 1:
            g = gcd(_den, *_num)
            if g != 1:
                _num = [a // g for a in _num]
                _den //= g
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "num", tuple(_num))
        object.__setattr__(self, "den", _den)

    def __setattr__(self, *_):
        raise AttributeError("CycVector is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "CycVector":
        return cls(order)

    @classmethod
    def from_terms(cls, order: int, terms: Iterable[tuple[int, object]]) -> "CycVector":
        """``Σ q·ζ^e`` over ``(e, q)`` pairs with integer ``e`` (any sign) and
        ``q`` an ``int`` or ``Fraction``; reduced once."""
        num, den = _fold(order, terms)
        return cls(order, _num=num, _den=den)

    @classmethod
    def from_rational(cls, q, order: int) -> "CycVector":
        return cls.from_terms(order, [(0, Fraction(q))])

    # -- structure -----------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Canonical power-basis coordinates, length φ(L)."""
        return tuple(Fraction(x, self.den) for x in self.num)

    def is_zero(self) -> bool:
        return not any(self.num)

    def _check(self, other: "CycVector") -> None:
        if self.order != other.order:
            raise OrderMismatchError(
                "vectors have different cyclotomic orders",
                left=self.order,
                right=other.order,
            )

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycVector):
            return NotImplemented
        self._check(other)
        return self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        return hash((self.order, self.den, self.num))

    # -- arithmetic ----------------------------------------------------

    def _combine(self, other: "CycVector", sign: int) -> "CycVector":
        self._check(other)
        den = lcm(self.den, other.den)
        fa = den // self.den
        fb = sign * (den // other.den)
        num = [a * fa + b * fb for a, b in zip(self.num, other.num)]
        return CycVector(self.order, _num=num, _den=den)

    def __add__(self, other: "CycVector") -> "CycVector":
        return self._combine(other, 1)

    def __sub__(self, other: "CycVector") -> "CycVector":
        return self._combine(other, -1)

    def __neg__(self) -> "CycVector":
        return CycVector(self.order, _num=tuple(-a for a in self.num), _den=self.den)

    def scale(self, s: CycScalar, weight=1) -> "CycVector":
        """Multiply by ``weight · s`` (scalar q·ζ^e acts by a weighted shift)."""
        if s.order != self.order:
            raise OrderMismatchError(
                "scalar and vector orders differ", scalar=s.order, vector=self.order
            )
        num, den = _fold(self.order, [(s.e, Fraction(weight) * s.num / s.den)])
        return CycVector(self.order, _num=mul_mod(self.order, self.num, num), _den=self.den * den)

    def scale_rational(self, w) -> "CycVector":
        w = Fraction(w)
        num = [w.numerator * a for a in self.num]
        return CycVector(self.order, _num=num, _den=self.den * w.denominator)

    def __mul__(self, other: "CycVector") -> "CycVector":
        self._check(other)
        return _product(self, other)

    def inverse(self) -> "CycVector":
        """Field inverse through the norm: with ``c = ∏ σ_u(x)`` over the
        Galois automorphisms ``σ_u: ζ ↦ ζ^u``, ``1 < u < L``, ``gcd(u, L) = 1``,
        the norm ``N(x) = x·c`` is rational and ``x⁻¹ = c/N(x)`` (Lang,
        *Algebra*, VI §5).  No engine path needs it; it is the tests' oracle,
        and the benchmark tracer wraps it."""
        if self.is_zero():
            raise ZeroDivisionError("zero element of the cyclotomic field")
        # c is built from the numerators: a rational multiple of the c above.
        L, terms = self.order, list(enumerate(self.num))
        c = CycVector.from_rational(1, L)
        for u in range(2, L):
            if gcd(u, L) == 1:
                c = _product(c, CycVector.from_terms(L, [(u * e, a) for e, a in terms]))
        return c.scale_rational(1 / _product(self, c).coeffs[0])

    def __complex__(self) -> complex:
        z = cmath.exp(2j * cmath.pi / self.order)
        return sum(x / self.den * z ** j for j, x in enumerate(self.num))

    def __repr__(self) -> str:
        terms = [f"{c}*z^{j}" for j, c in enumerate(self.coeffs) if c]
        return "CycVector(" + (" + ".join(terms) if terms else "0") + f"; L={self.order})"


def _fold(order: int, terms) -> tuple[list[int], int]:
    # (exponent, rational) pairs -> reduced numerators over a common denominator.
    terms = [(e % order, q) for e, q in terms if q]
    den = lcm(*(q.denominator for _, q in terms))
    deg, _ = _phi_taps(order)
    top = max((e for e, _ in terms), default=0)
    poly = [0] * max(deg, top + 1)
    for e, q in terms:
        poly[e] += q.numerator * (den // q.denominator)
    return _reduce(order, poly), den


def _product(a: CycVector, b: CycVector) -> CycVector:
    return CycVector(a.order, _num=mul_mod(a.order, a.num, b.num), _den=a.den * b.den)


# Numerator arithmetic: an element of Z[ζ_L] is its power-basis numerators, a
# sequence of φ(L) integers; the realizer's echelon rows are built from these.

def mul_mod(order: int, a, b) -> list[int]:
    """Numerators of the product of ``a`` and ``b`` modulo Φ_order."""
    bs = [(j, b[j]) for j in compress(count(), b)]
    if not bs:
        return [0] * len(a)
    poly = [0] * (len(a) + bs[-1][0])
    for i in compress(count(), a):
        x = a[i]
        for j, y in bs:
            poly[i + j] += x * y
    return _reduce(order, poly)


def to_numerators(vec) -> tuple[int, list[int]]:
    """The lcm ``den`` of the denominators of the elements ``vec`` and
    ``den·vec`` as one integer row: the numerators of each element in turn."""
    den = lcm(*(x.den for x in vec))
    return den, [a * (den // x.den) for x in vec for a in x.num]


def from_numerators(order: int, row, den: int) -> list[CycVector]:
    """The elements with numerators ``row`` (φ(order) per element) over ``den``."""
    w = _phi_taps(order)[0]
    return [CycVector(order, _num=row[k:k + w], _den=den) for k in range(0, len(row), w)]


def sum_is_zero(terms: Iterable[tuple[CycScalar, object]]) -> bool:
    """Exact zero-test of ``Σ wᵢ·qᵢ·ζ^{eᵢ}`` for rational weights ``wᵢ``.

    An empty sum is zero.  All scalars must share the same order.
    """
    terms = list(terms)
    if not terms:
        return True
    order = terms[0][0].order
    for s, _ in terms:
        if s.order != order:
            raise OrderMismatchError(
                "terms have different cyclotomic orders", left=order, right=s.order
            )
    terms = [(s.e, Fraction(w) * s.num / s.den) for s, w in terms]
    return CycVector.from_terms(order, terms).is_zero()
