import cmath
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from loopmod.cyclotomic import (
    CycScalar,
    CycVector,
    _reduce,
    cyclotomic_polynomial,
    phase,
    phase_order,
    root_of_unity_order_divides,
    sum_is_zero,
    zeta_terms,
)
from loopmod.errors import InputError, OrderMismatchError

from helpers import reference_multiplicative_order, vector_from_scalar


def test_canonical_fold():
    a = CycScalar(3, 5, 6)          # 3ζ₆⁵ = −3ζ₆²
    assert (a.q, a.e) == (Fraction(-3), 2)
    b = CycScalar(-2, 3, 6)         # −2ζ₆³ = 2
    assert (b.q, b.e) == (Fraction(2), 0)
    c = CycScalar(5, 2, 5)          # odd order: no fold
    assert (c.q, c.e) == (Fraction(5), 2)
    with pytest.raises(InputError):
        CycScalar(0, 0, 4)


def test_mul_examples():
    assert CycScalar(2, 1, 4) * CycScalar(3, 3, 4) == CycScalar(6, 0, 4)
    x = CycScalar(7, 3, 12)
    assert CycScalar.one(12) * x == x
    # ζ₆³ = −1, so the square folds to 1
    assert CycScalar(1, 3, 6) * CycScalar(1, 3, 6) == CycScalar(1, 0, 6)
    z = complex(CycScalar(1, 3, 6))
    assert abs(z * z - 1) < 1e-12


def test_mul_order_mismatch():
    with pytest.raises(OrderMismatchError):
        CycScalar(1, 0, 4) * CycScalar(1, 0, 6)


def test_pow_examples():
    minus = CycScalar(-1, 0, 2)
    for m in range(-5, 6):
        expect = CycScalar(1 if m % 2 == 0 else -1, 0, 2)
        assert minus ** m == expect
    # (2ζ₄)^{−2} = 1/(4ζ₄²) = −1/4
    got = CycScalar(2, 1, 4) ** -2
    assert (got.q, got.e) == (Fraction(-1, 4), 0)
    assert abs(complex(got) - (2j) ** -2) < 1e-12
    assert CycScalar(5, 3, 8) ** 0 == CycScalar.one(8)


def test_div_inverts_mul():
    a = CycScalar(Fraction(3, 2), 5, 12)
    b = CycScalar(-7, 4, 12)
    assert (a * b) / b == a


def test_equality_across_orders():
    assert CycScalar(2, 1, 4) == CycScalar(2, 3, 12)
    assert hash(CycScalar(2, 1, 4)) == hash(CycScalar(2, 3, 12))
    assert CycScalar(-1, 0, 2) == CycScalar(1, 3, 6)
    # An odd order's exponents past a half turn equal a sign-folded pair.
    assert CycScalar(1, 4, 5) == CycScalar(-1, 3, 10)
    assert hash(CycScalar(1, 4, 5)) == hash(CycScalar(-1, 3, 10))


@st.composite
def scalars(draw, max_order=24):
    order = draw(st.integers(1, max_order))
    num = draw(st.integers(-20, 20).filter(lambda x: x != 0))
    den = draw(st.integers(1, 20))
    e = draw(st.integers(0, order - 1))
    return CycScalar(Fraction(num, den), e, order)


@given(scalars(), scalars())
@settings(max_examples=300, deadline=None)
def test_canonical_uniqueness_vs_complex(a, b):
    # Same complex value iff same canonical pair (orders may differ).
    close = abs(complex(a) - complex(b)) < 1e-9
    assert close == (a == b)


@given(scalars(), st.integers(-20, 20), st.integers(-20, 20))
@settings(max_examples=200, deadline=None)
def test_pow_multiplicative(a, m1, m2):
    assert a ** (m1 + m2) == (a ** m1) * (a ** m2)


def _reference(q: Fraction, e: int, order: int) -> tuple[Fraction, int]:
    # The canonical (q, e) of q·ζ^e, folded directly from the definition.
    e %= order
    if order % 2 == 0 and e >= order // 2:
        q, e = -q, e - order // 2
    return q, e


def _assert_canonical(a: CycScalar, q: Fraction, e: int, order: int) -> None:
    assert isinstance(a.num, int) and isinstance(a.den, int)
    assert a.den > 0 and gcd(a.num, a.den) == 1 and a.num != 0
    assert (Fraction(a.num, a.den), a.e, a.order) == (*_reference(q, e, order), order)
    assert a.q == Fraction(a.num, a.den)
    assert 0 <= a.e < (order // 2 if order % 2 == 0 else order)
    assert abs(complex(a) - complex(q) * cmath.exp(2j * cmath.pi * e / order)) <= 1e-9 * (
        1 + abs(complex(q)))


@st.composite
def same_order_parts(draw, max_order=30):
    order = draw(st.integers(1, max_order))
    rationals = st.builds(
        Fraction, st.integers(-40, 40).filter(bool), st.integers(1, 40)
    )
    return order, [(draw(rationals), draw(st.integers(-3 * order, 3 * order))) for _ in range(2)]


@given(same_order_parts(), st.integers(-6, 6), st.integers(1, 6))
@settings(max_examples=300, deadline=None)
def test_integer_arithmetic_against_fraction_reference(parts, m, k):
    order, [(qa, ea), (qb, eb)] = parts
    a, b = CycScalar(qa, ea, order), CycScalar(qb, eb, order)
    _assert_canonical(a, qa, ea, order)
    _assert_canonical(a * b, qa * qb, ea + eb, order)
    _assert_canonical(a / b, qa / qb, ea - eb, order)
    _assert_canonical(a ** m, qa ** m, ea * m, order)
    _assert_canonical(-a, -qa, ea, order)
    lifted = a.with_order(order * k)
    _assert_canonical(lifted, qa, ea * k, order * k)
    # Equal scalars of different orders are equal and hash alike.
    assert lifted == a and hash(lifted) == hash(a)
    assert (lifted == b) == (a == b)
    # The integer path and the Fraction path give the same scalar.
    assert CycScalar.ratio(qa.numerator * 3, qa.denominator * 3, ea, order) == a
    assert CycScalar.ratio(-qa.numerator, -qa.denominator, ea, order) == a


@pytest.mark.parametrize("zero", [0, Fraction(0), "0", "0/5"])
def test_zero_part_is_input_error(zero):
    with pytest.raises(InputError):
        CycScalar(zero, 1, 6)


@pytest.mark.parametrize("num, den", [(0, 5), (1, 0)])
def test_zero_ratio_part_is_input_error(num, den):
    with pytest.raises(InputError):
        CycScalar.ratio(num, den, 1, 6)


def test_multiplicative_order_matches_the_power_loop():
    # Every exponent and both signs at orders 1–60, and non-unit rationals,
    # at every bound 1…2L+1: the least t ≤ bound with a^t = 1 is the order
    # ``phase_order(phase(a), L)`` of a/|a| when |q| = 1 and that order is
    # at most the bound, and there is none otherwise.  The loop's answer at
    # bound b is its answer at 2L+1 when that is at most b, and None
    # otherwise, so one loop per scalar gives it for every bound.
    cases = 0
    for order in range(1, 61):
        for e in range(order):
            for q in (1, -1, 2, Fraction(-1, 3)):
                a = CycScalar(q, e, order)
                top = reference_multiplicative_order(a, 2 * order + 1)
                assert top is None or top <= 2 * order
                t = phase_order(phase(a), order) if abs(a.q) == 1 else None
                for bound in range(1, 2 * order + 2):
                    expected = top if top is not None and top <= bound else None
                    assert (t if t is not None and t <= bound else None) == expected, (a, bound)
                    cases += 1
    assert cases == sum(4 * L * (2 * L + 1) for L in range(1, 61))


def test_root_of_unity_order_divides():
    assert root_of_unity_order_divides(CycScalar(-1, 0, 2), 2)
    assert not root_of_unity_order_divides(CycScalar(2, 0, 2), 2)
    assert root_of_unity_order_divides(CycScalar(1, 2, 6), 3)  # ζ₆² = ζ₃
    assert not root_of_unity_order_divides(CycScalar(1, 1, 6), 3)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


@pytest.mark.parametrize("order", range(1, 301))
def test_cyclotomic_product_identity(order):
    # ∏_{d | L} Φ_d(x) = x^L − 1
    prod = [1]
    for d in range(1, order + 1):
        if order % d:
            continue
        phi = cyclotomic_polynomial(d)
        out = [0] * (len(prod) + len(phi) - 1)
        for i, a in enumerate(prod):
            for j, b in enumerate(phi):
                out[i + j] += a * b
        prod = out
    expected = [-1] + [0] * (order - 1) + [1]
    assert prod == expected


def test_sum_is_zero_examples():
    zeta3 = [CycScalar.zeta(3, e) for e in range(3)]
    assert sum_is_zero([(z, 1) for z in zeta3])
    assert not sum_is_zero([(zeta3[0], 1), (zeta3[1], 1)])
    assert sum_is_zero([])
    # weighted: 2 − ζ₆³·2 has value 4, not zero
    assert not sum_is_zero([(CycScalar(2, 0, 6), 1), (CycScalar(1, 3, 6), -2)])
    # but 2 + ζ₆³·2 = 0
    assert sum_is_zero([(CycScalar(2, 0, 6), 1), (CycScalar(1, 3, 6), 2)])


def test_sum_is_zero_against_float():
    rng = random.Random(20260811)
    pool_orders = [1, 2, 3, 4, 6, 8, 12, 24]
    checked_zero = 0
    for trial in range(400):
        order = rng.choice(pool_orders)
        terms = []
        if trial % 2 == 0:
            # Construct an exact zero: scaled complete ζ_d-orbits.
            for _ in range(rng.randint(1, 4)):
                d = rng.choice([d for d in (2, 3, 4, 6) if order % d == 0] or [1])
                if d == 1:
                    continue
                q = Fraction(rng.randint(1, 5), rng.randint(1, 3))
                rot = rng.randrange(order)
                for t in range(d):
                    terms.append(
                        (CycScalar(q, rot + t * (order // d), order), 1)
                    )
        else:
            for _ in range(rng.randint(1, 12)):
                q = Fraction(rng.randint(-6, 6) or 1, rng.randint(1, 4))
                terms.append(
                    (CycScalar(q, rng.randrange(order), order),
                     Fraction(rng.randint(-3, 3) or 1))
                )
        value = sum(
            (complex(s) * float(w) for s, w in terms), complex(0)
        )
        exact = sum_is_zero(terms)
        if exact:
            checked_zero += 1
            assert abs(value) < 1e-9
        else:
            assert abs(value) > 1e-6
    assert checked_zero > 50


def test_vector_zero_detection_nontrivial():
    # 1 + ζ₃ + ζ₃² vanishes only after reduction mod Φ₃.
    raw = [Fraction(1)] * 3
    v = CycVector(3, raw)
    assert any(raw) and v.is_zero()
    w = CycVector(3, [Fraction(1), Fraction(1), Fraction(0)])
    assert not w.is_zero()


def test_vector_scale_and_mul():
    v = vector_from_scalar(CycScalar(2, 1, 6))
    w = v.scale(CycScalar(3, 5, 6))
    assert w == vector_from_scalar(CycScalar(6, 6, 6))
    prod = v * vector_from_scalar(CycScalar(1, 5, 6))
    assert prod == vector_from_scalar(CycScalar(2, 0, 6))


def test_vector_inverse():
    rng = random.Random(7)
    for _ in range(25):
        order = rng.choice((1, 2, 3, 4, 6, 12))
        coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(order)]
        v = CycVector(order, coeffs)
        if v.is_zero():
            continue
        inv = v.inverse()
        assert v * inv == CycVector.from_rational(1, order)


def test_vector_inverse_of_one_coordinate():
    # (a/d)·ζ^e with one nonzero power-basis coordinate inverts to (d/a)·ζ^{−e}.
    for order in (1, 2, 3, 4, 5, 12, 60):
        phi = len(cyclotomic_polynomial(order)) - 1
        for e in range(phi):
            v = CycVector.from_terms(order, [(e, Fraction(-3, 7))])
            assert v * v.inverse() == CycVector.from_rational(1, order)


_PROPERTY_ORDERS = (1, 2, 3, 4, 6, 12, 60, 105)


def _close(x: complex, y: complex) -> bool:
    return abs(x - y) <= 1e-9 * max(1.0, abs(y))


@st.composite
def field_elements(draw, order):
    coeffs = [Fraction(0)] * order
    for _ in range(draw(st.integers(0, 5))):
        e = draw(st.integers(0, order - 1))
        coeffs[e] += Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 4)))
    return coeffs


@st.composite
def element_pairs(draw):
    order = draw(st.sampled_from(_PROPERTY_ORDERS))
    return order, draw(field_elements(order)), draw(field_elements(order))


@given(element_pairs(), st.integers(0, 104), st.integers(-3, 3), st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_vector_arithmetic_vs_complex(data, e, wn, wd):
    order, ca, cb = data
    a, b = CycVector(order, ca), CycVector(order, cb)
    za, zb = complex(a), complex(b)
    z = cmath.exp(2j * cmath.pi / order)
    assert _close(za, sum(float(c) * z ** j for j, c in enumerate(ca)))
    assert _close(complex(a + b), za + zb)
    assert _close(complex(a - b), za - zb)
    assert _close(complex(a * b), za * zb)
    s = CycScalar(Fraction(wn or 1, wd), e, order)
    assert _close(complex(a.scale(s, wd)), za * complex(s) * wd)
    w = Fraction(wn, wd)
    assert _close(complex(a.scale_rational(w)), za * float(w))
    assert a.scale(s, wd) == a * vector_from_scalar(s, wd)
    assert (a == b) == _close(za, zb)
    if not a.is_zero():
        inv = a.inverse()
        assert a * inv == CycVector.from_rational(1, order)
        assert abs(complex(inv) * za - 1) <= 1e-6


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_vector_equal_implies_equal_hash(draw):
    # Adding a full orbit of p-th roots of unity (a zero sum) changes the
    # spanning-set coefficients but not the element.
    order = draw.draw(st.sampled_from(_PROPERTY_ORDERS))
    ca = draw.draw(field_elements(order))
    p = draw.draw(st.sampled_from([d for d in (2, 3, 5, 7) if order % d == 0] or [1]))
    shifted = list(ca)
    if p > 1:
        c = Fraction(draw.draw(st.integers(1, 5)))
        r = draw.draw(st.integers(0, order - 1))
        for t in range(p):
            shifted[(r + t * (order // p)) % order] += c
    a, b = CycVector(order, ca), CycVector(order, shifted)
    assert a == b and hash(a) == hash(b)
    assert a + b - b == a and hash(a + b - b) == hash(a)


@pytest.mark.parametrize("order", (12, 60, 210, 1024, 2003))
def test_zeta_terms_are_the_reduced_powers_of_zeta(order):
    # Every power ζ^m, m < L, against one reduction of x^m modulo Φ_L.
    w = len(cyclotomic_polynomial(order)) - 1
    for m in range(order):
        poly = [0] * max(w, m + 1)
        poly[m] = 1
        num = _reduce(order, poly)
        assert zeta_terms(order, m) == tuple((k, x) for k, x in enumerate(num) if x), m
