import math
import random
from fractions import Fraction

import pytest

from qkm.scalars import (
    DenominatorError,
    LaurentPoly,
    PoleError,
    QScalar,
    evaluate_numeric,
    poly_gcd,
    q_factorial,
    q_integer,
    q_power,
)

V = LaurentPoly.monomial(1)
VINV = LaurentPoly.monomial(-1)


def qs(poly):
    return QScalar(poly)


def random_scalar(rng, span=3):
    num = LaurentPoly.from_dict(
        {rng.randrange(-span, span + 1): Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
         for _ in range(rng.randrange(1, 4))})
    den = LaurentPoly.zero()
    while den.is_zero():
        den = LaurentPoly.from_dict(
            {rng.randrange(-span, span + 1): rng.randrange(-3, 4)
             for _ in range(rng.randrange(1, 3))})
    return QScalar(num, den)


def test_trivial_identities():
    x = qs(V - VINV)
    assert x / x == QScalar.one()
    assert q_power(Fraction(1, 2), 2) * q_power(Fraction(1, 2), 2) == qs(LaurentPoly.monomial(2))
    assert q_power(0, 5) == QScalar.one()
    assert q_power(1, 1) == qs(V)
    assert q_power(Fraction(-3, 2), 2) == qs(LaurentPoly.monomial(-3))


def test_exponent_must_fit_grid():
    with pytest.raises(DenominatorError):
        q_power(Fraction(1, 3), 2)


def test_division_matches_long_division_oracle():
    # (q^2 - q^-2) / (q - q^-1) computed independently by polynomial long division
    num = LaurentPoly.monomial(2) - LaurentPoly.monomial(-2)
    den = V - VINV
    quot, rem = (num.shift(2)).divmod_poly(den.shift(1))
    assert rem.is_zero()
    expected = quot.shift(-1)
    assert QScalar(num, den) == qs(expected)
    assert expected == V + VINV


def test_q_integers():
    assert q_integer(0) == QScalar.zero()
    assert q_factorial(0) == QScalar.one()
    assert q_integer(2) == qs(V + VINV)
    # [3] via the defining quotient, reduced by long division
    num = LaurentPoly.monomial(3) - LaurentPoly.monomial(-3)
    quot, rem = num.shift(3).divmod_poly((V - VINV).shift(1))
    assert rem.is_zero()
    assert q_integer(3) == qs(quot.shift(-2))
    assert q_integer(3) == qs(LaurentPoly.monomial(2) + LaurentPoly.one() + LaurentPoly.monomial(-2))
    # q_i = q^2 scaling
    assert q_integer(2, e=2, D=1) == qs(LaurentPoly.monomial(2) + LaurentPoly.monomial(-2))


def test_field_axioms_randomized():
    rng = random.Random(20260809)
    for _ in range(60):
        a = random_scalar(rng)
        b = random_scalar(rng)
        c = random_scalar(rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if not b.is_zero():
            assert (a / b) * b == a
    with pytest.raises(ZeroDivisionError):
        a / QScalar.zero()


def test_equality_agrees_with_cross_multiplication():
    rng = random.Random(7)
    for _ in range(40):
        a = random_scalar(rng)
        b = random_scalar(rng)
        lhs = a == b
        rhs = (a.num * b.den) == (b.num * a.den)
        assert lhs == rhs


def test_gcd_reduction_is_canonical():
    # (v^2 - 1)/(v - 1) must reduce to v + 1 with monic denominator
    x = QScalar(LaurentPoly.monomial(2) - LaurentPoly.one(), V - LaurentPoly.one())
    assert x == qs(V + LaurentPoly.one())
    y = QScalar(2 * (V - LaurentPoly.one()), 2 * (V + LaurentPoly.one()))
    assert y.den == V + LaurentPoly.one()


def test_poly_gcd():
    a = (V - LaurentPoly.one()) * (V + LaurentPoly.one())
    b = (V - LaurentPoly.one()) * (V - LaurentPoly.one())
    g = poly_gcd(a, b)
    assert g == V - LaurentPoly.one()


def test_numeric_evaluation():
    assert evaluate_numeric(QScalar.one(), 0.3 + 0.1j, 2) == pytest.approx(1.0)
    assert evaluate_numeric(q_power(1, 1), 0.0, 1) == pytest.approx(1.0)
    x = q_integer(2)  # q + q^-1
    val = evaluate_numeric(x, 0.2, 1)
    assert abs(val - 2 * math.cosh(0.1)) < 1e-12
    assert abs(val - 2.0100083361116073) < 1e-12


def test_evaluation_is_ring_homomorphism():
    rng = random.Random(99)
    hbar = 0.17 + 0.05j
    for _ in range(40):
        a = random_scalar(rng)
        b = random_scalar(rng)
        try:
            va = evaluate_numeric(a, hbar, 2)
            vb = evaluate_numeric(b, hbar, 2)
            vab = evaluate_numeric(a * b, hbar, 2)
            vsum = evaluate_numeric(a + b, hbar, 2)
        except PoleError:
            continue
        scale = max(abs(va * vb), 1.0)
        assert abs(vab - va * vb) <= 1e-12 * scale
        assert abs(vsum - (va + vb)) <= 1e-12 * max(abs(va) + abs(vb), 1.0)


def test_q_factorial_classical_limit():
    for m in range(1, 6):
        val = evaluate_numeric(q_factorial(m), 1e-6, 1)
        assert abs(val - math.factorial(m)) / math.factorial(m) < 1e-4


def test_pole_detection():
    x = QScalar(LaurentPoly.one(), V - LaurentPoly.one())
    with pytest.raises(PoleError):
        evaluate_numeric(x, 0.0, 1)
    # q - q^-1 vanishes at q = 1 but not at generic hbar
    y = QScalar(LaurentPoly.one(), V - VINV)
    assert abs(evaluate_numeric(y, 0.5, 1) - 1 / (2 * math.sinh(0.25))) < 1e-12


def test_serialization_round_shape():
    x = QScalar(V + 2 * VINV, (V - VINV))
    s = str(x)
    assert "/" in s and "v" in s
    assert str(QScalar.zero()) == "0"
    assert str(QScalar.one()) == "1"


def test_values_are_immutable_and_hashable():
    x = q_integer(2)
    d = {x: "two"}
    assert d[qs(V + VINV)] == "two"


def random_integer_laurent(rng, step=1, residue=0):
    """A nonzero integer Laurent polynomial with negative exponents and
    negative coefficients, every exponent in residue + step Z."""
    return LaurentPoly.from_dict(
        {residue + step * rng.randrange(-4, 5): rng.choice((-1, 1))
         * rng.randrange(1, 10) for _ in range(rng.randrange(1, 6))})


def test_kronecker_packing_is_a_ring_map():
    # the value of v^(-lo) p at v^step = 2^bits: additive, multiplicative
    # (the lows add up), and injective while coefficients stay below
    # 2^(bits - 1) in absolute value
    rng = random.Random(20261019)
    for _ in range(300):
        step = rng.choice((1, 2, 3))
        a = random_integer_laurent(rng, step, rng.randrange(step))
        b = random_integer_laurent(rng, step, rng.randrange(step))
        bits = rng.randrange(1, 12)
        la = a.min_exp - step * rng.randrange(3)
        lb = b.min_exp - step * rng.randrange(3)
        ka, kb = a.kronecker(bits, la, step), b.kronecker(bits, lb, step)
        assert (a * b).kronecker(bits, la + lb, step) == ka * kb
        c = random_integer_laurent(rng, step, a.min_exp % step)
        lc = min(la, c.min_exp)
        if a + c:
            assert ((a + c).kronecker(bits, lc, step)
                    == a.kronecker(bits, lc, step) + c.kronecker(bits, lc, step))
        wide = max(map(abs, (a - c).coeffs), default=0).bit_length() + 1
        assert ((a.kronecker(wide, lc, step) == c.kronecker(wide, lc, step))
                == (a == c))


def test_kronecker_packing_small_cases():
    p = LaurentPoly.from_dict({-1: 3, 1: -2})      # 3 v^-1 - 2 v
    assert p.kronecker(4, -1, 1) == 3 - 2 * 16 ** 2
    assert p.kronecker(4, -1, 2) == 3 - 2 * 16
    assert p.kronecker(4, -3, 2) == (3 - 2 * 16) * 16
    assert LaurentPoly.monomial(-5, -7).kronecker(3, -5, 1) == -7
