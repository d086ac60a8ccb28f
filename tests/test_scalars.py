import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkm import scalars
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


def cleared_quotient(num, den):
    """num/den for dicts {exponent: rational coefficient}, built from integer
    numerators: both sides times the lcm L of the coefficients'
    denominators, QScalar(L * num, L * den)."""
    L = math.lcm(*(Fraction(c).denominator
                   for c in (*num.values(), *den.values())))
    return QScalar(*(LaurentPoly.from_dict({e: int(c * L) for e, c in d.items()})
                     for d in (num, den)))


def random_scalar(rng, span=3):
    num = {rng.randrange(-span, span + 1): Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
           for _ in range(rng.randrange(1, 4))}
    den = LaurentPoly.zero()
    while den.is_zero():
        den_terms = {rng.randrange(-span, span + 1): rng.randrange(-3, 4)
                     for _ in range(rng.randrange(1, 3))}
        den = LaurentPoly.from_dict(den_terms)
    return cleared_quotient(num, den_terms)


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


def test_coefficients_are_integers():
    with pytest.raises(TypeError):
        LaurentPoly(0, (Fraction(1, 2),))
    with pytest.raises(TypeError):
        V * Fraction(1, 2)
    # a rational scalar keeps its denominator in QScalar
    half = QScalar(Fraction(1, 2))
    assert (half.num, half.den) == (LaurentPoly.one(), LaurentPoly(0, (2,)))
    assert half == QScalar(1, 2) == QScalar(LaurentPoly.one(), 2)
    assert half + half == QScalar.one()


def test_poly_gcd_keeps_the_content():
    one = LaurentPoly.one()
    assert poly_gcd(6 * V + 6 * one, 4 * V * V - 4 * one) == 2 * V + 2 * one
    # offsets are discarded and the leading coefficient made positive
    assert poly_gcd(-3 * VINV, 6 * V) == LaurentPoly(0, (3,))
    assert poly_gcd(LaurentPoly.zero(), -2 * V + one) == 2 * V - one
    assert poly_gcd(LaurentPoly.zero(), LaurentPoly.zero()).is_zero()


def test_normal_form_is_unique_over_z():
    rng = random.Random(20261020)
    for _ in range(200):
        a = random_integer_laurent(rng)
        b = random_integer_laurent(rng)
        c = random_integer_laurent(rng)
        x = QScalar(a, b)
        y = QScalar(a * c, b * c)
        assert (y.num, y.den) == (x.num, x.den)
        assert x.den.offset == 0 and x.den.coeffs[0] != 0
        assert x.den.leading_coeff() > 0
        assert poly_gcd(x.num, x.den) == LaurentPoly.one()


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
    # zero entries of a packed matrix, at a low above 0
    assert LaurentPoly.zero().kronecker(3, 2, 1) == 0


def test_kronecker_layout_step_is_the_gcd_of_every_exponent_gap():
    # the step is the gcd of every nonzero term's distance from its group's
    # low, here taken term by term: groups with zero polynomials, single
    # terms and negative offsets, on grids of strides 1 to 12, where a
    # polynomial's span is often a multiple of the stride that some inner
    # term refutes, and some terms fall off the grid
    rng = random.Random(20261021)
    for _ in range(400):
        stride = rng.randrange(1, 13)
        groups = []
        for _ in range(rng.randrange(1, 4)):
            base = rng.randrange(-40, 41)
            group = []
            for _ in range(rng.randrange(5)):
                kind = rng.randrange(4)
                exps = {base + stride * rng.randrange(-6, 7)
                        for _ in range(1 if kind == 1 else rng.randrange(2, 6))}
                if kind == 3:
                    exps.add(base + rng.randrange(1, 4 * stride + 1))
                group.append(LaurentPoly.zero() if kind == 0 else
                             LaurentPoly.from_dict(
                                 {e: rng.choice((-1, 1)) * rng.randrange(1, 50)
                                  for e in exps}))
            groups.append(group)
        bound = rng.randrange(1, 1 << 40)
        lows = [min((p.offset for p in g if p), default=0) for g in groups]
        gaps = [p.offset + i - lo for lo, g in zip(lows, groups) for p in g
                for i, c in enumerate(p.coeffs) if c]
        assert scalars.kronecker_layout(groups, bound) == (
            bound.bit_length() + 1, lows, math.gcd(*gaps) or 1)


def test_signed_kronecker_unpack_inverts_the_packing():
    # every digit in [-2^(bits-1), 2^(bits-1)), the extremes included, at
    # table widths of 1, 2 and 8 bytes and past 64 bits; and any integer,
    # in range or not, unpacks to a polynomial that packs back to it, also
    # one near the top of its slot range, whose signed digits are one slot
    # longer than its bit length
    rng = random.Random(20261020)
    for bits in (8, 16, 64, 72):
        half = 1 << (bits - 1)
        digits = (-half, half - 1, -1, 0, 1)
        edges = [s * ((1 << bits * k - top) - d) for k in (1, 2, 3)
                 for top in (0, 1) for d in (1, half, half + 1)
                 for s in (1, -1)]
        for _ in range(40):
            step = rng.choice((1, 2, 3))
            lo = rng.randrange(-6, 7)
            polys = [LaurentPoly.from_dict(
                {lo + step * rng.randrange(6): rng.choice(digits)
                 for _ in range(rng.randrange(4))}) for _ in range(5)]
            values = [p.kronecker(bits, lo, step) for p in polys]
            assert scalars.kronecker_unpack(values, bits, lo, step) == polys
            # one value per call: a wider value in the same call would
            # size the table for it
            for x in rng.sample(edges, 4) + [
                    rng.randrange(-(1 << 3 * bits), 1 << 3 * bits)
                    for _ in range(4)]:
                (p,) = scalars.kronecker_unpack([x], bits, lo, step)
                assert p.kronecker(bits, lo, step) == x


COEFFS = st.one_of(st.integers(-4, 4),
                   st.fractions(-3, 3, max_denominator=4))


@st.composite
def qscalars(draw):
    """Normal-form scalars, zero included, drawn with Fraction coefficients
    and denominators of any degree."""
    num = draw(st.dictionaries(st.integers(-4, 4), COEFFS, max_size=3))
    den = draw(st.dictionaries(
        st.integers(-2, 3), COEFFS.filter(bool), min_size=1, max_size=3))
    return cleared_quotient(num, den)


def _refuse_gcd(a, b):
    raise AssertionError("poly_gcd called")


def _same(x, y):
    return x.num == y.num and x.den == y.den


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(qscalars(), st.integers(-6, 6))
def test_shortcuts_agree_with_the_general_path(x, e):
    # x * v^e and x + 0 skip the gcd; both must be the normal form the
    # general constructor gives
    unit = QScalar(LaurentPoly.monomial(e))
    zero = QScalar.zero()
    with mock.patch.object(scalars, "poly_gcd", _refuse_gcd):
        products = [x * unit, unit * x]
        sums = [x + zero, zero + x, x + 0, 0 + x, x + Fraction(0)]
    expected = QScalar(x.num * LaurentPoly.monomial(e), x.den)
    for y in products:
        assert _same(y, expected)
        assert _same(y, QScalar(x.num * unit.num, x.den * unit.den))
    for y in sums:
        assert y == x and _same(y, QScalar(x.num, x.den))
    # a unit monomial times a unit monomial, and zero times one
    assert _same(unit * unit, QScalar(LaurentPoly.monomial(2 * e)))
    assert (zero * unit).is_zero() and (unit * zero).is_zero()
