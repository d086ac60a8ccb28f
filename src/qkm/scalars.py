"""Exact arithmetic in Q(v), v = q^(1/D), with numeric evaluation at complex hbar.

Every exact computation in this package runs over the field of rational
functions in one variable v with rational coefficients.  The variable v
stands for a D-th root of q = e^(hbar/2), where D is a session-wide
positive integer chosen so that every exponent of q that can occur (form
values between roots and weights, times D) is an integer.  Numeric
evaluation substitutes v = exp(hbar / (2 D)).

Q(v) is the fraction field of Z[v^+-1], and Z is the only coefficient
ring: a `LaurentPoly` has int coefficients, and a `QScalar` is a quotient
of two of them, so a rational number a/b is QScalar(a, b).  Greatest
common divisors are taken in Z[v], content included (`poly_gcd`).
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import gcd as _int_gcd

import numpy as np


class PoleError(ArithmeticError):
    """Numeric evaluation hit a zero of a denominator."""


class DenominatorError(ValueError):
    """An exponent is not representable over the session denominator D."""


def rational_residue(c, p: int) -> int:
    """The image of a rational number in F_p."""
    c = Fraction(c)
    return c.numerator * pow(c.denominator, -1, p) % p


def _mul_lists(a, b):
    """Convolution of two coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out


class LaurentPoly:
    """A Laurent polynomial sum(coeffs[k] * v^(offset+k)) with integer coefficients.

    Invariant: coeffs is a tuple of ints with nonzero first and last
    entries; the zero polynomial is stored as offset 0, coeffs ().
    """

    __slots__ = ("offset", "coeffs")

    def __init__(self, offset: int, coeffs):
        if not isinstance(coeffs, (list, tuple)):
            coeffs = list(coeffs)
        if not all(type(c) is int for c in coeffs):
            raise TypeError("LaurentPoly coefficients must be ints")
        self._set(offset, coeffs)

    def _set(self, offset, coeffs) -> None:
        lo = 0
        hi = len(coeffs)
        while lo < hi and coeffs[lo] == 0:
            lo += 1
        while hi > lo and coeffs[hi - 1] == 0:
            hi -= 1
        if lo == hi:
            self.offset = 0
            self.coeffs = ()
        else:
            self.offset = offset + lo
            self.coeffs = tuple(coeffs[lo:hi])

    @staticmethod
    def _trimmed(offset: int, coeffs) -> "LaurentPoly":
        """The constructor without the type check, for coefficient lists
        that are ints by construction (results of this class's arithmetic
        and unpacked Kronecker images)."""
        out = LaurentPoly.__new__(LaurentPoly)
        out._set(offset, coeffs)
        return out

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly._trimmed(0, ())

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly._trimmed(0, (1,))

    @staticmethod
    def monomial(exp: int, coeff=1) -> "LaurentPoly":
        return LaurentPoly(exp, (coeff,))

    @staticmethod
    def from_dict(d) -> "LaurentPoly":
        if not d:
            return LaurentPoly.zero()
        lo = min(d)
        hi = max(d)
        coeffs = [d.get(e, 0) for e in range(lo, hi + 1)]
        return LaurentPoly(lo, coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def min_exp(self) -> int:
        return self.offset

    @property
    def max_exp(self) -> int:
        return self.offset + len(self.coeffs) - 1

    def shift(self, k: int) -> "LaurentPoly":
        if self.is_zero():
            return self
        out = LaurentPoly.__new__(LaurentPoly)
        out.offset = self.offset + k
        out.coeffs = self.coeffs
        return out

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.offset == other.offset and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.offset, self.coeffs))

    def __neg__(self):
        return LaurentPoly._trimmed(self.offset, [-c for c in self.coeffs])

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        lo = min(self.offset, other.offset)
        hi = max(self.max_exp, other.max_exp)
        coeffs = [0] * (hi - lo + 1)
        for i, c in enumerate(self.coeffs):
            coeffs[self.offset - lo + i] += c
        for i, c in enumerate(other.coeffs):
            coeffs[other.offset - lo + i] += c
        return LaurentPoly._trimmed(lo, coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly.zero()
            return LaurentPoly._trimmed(self.offset,
                                        [c * other for c in self.coeffs])
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return LaurentPoly.zero()
        if other.coeffs == (1,):
            return self.shift(other.offset)
        return LaurentPoly._trimmed(self.offset + other.offset,
                                    _mul_lists(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("use QScalar for negative powers")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def leading_coeff(self):
        return self.coeffs[-1] if self.coeffs else 0

    def divmod_poly(self, other: "LaurentPoly"):
        """Quotient and remainder in Z[v], treating both as polynomials in v.

        Offsets must be nonnegative (ordinary polynomials).  The divisor's
        leading coefficient must divide every leading coefficient met, as
        it does for a monic divisor or a quotient in Z[v]; ArithmeticError
        otherwise.
        """
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.offset < 0 or other.offset < 0:
            raise ValueError("divmod_poly needs ordinary polynomials")
        rem = [0] * (self.max_exp + 1) if not self.is_zero() else [0]
        for i, c in enumerate(self.coeffs):
            rem[self.offset + i] = c
        dd = other.max_exp
        dl = other.leading_coeff()
        dcoef = [0] * (dd + 1)
        for i, c in enumerate(other.coeffs):
            dcoef[other.offset + i] = c
        quot = [0] * max(len(rem) - dd, 1)
        for k in range(len(rem) - 1, dd - 1, -1):
            c = rem[k]
            if c == 0:
                continue
            f, r = divmod(c, dl)
            if r:
                raise ArithmeticError("polynomial quotient leaves Z[v]")
            quot[k - dd] = f
            for j in range(dd + 1):
                if dcoef[j]:
                    rem[k - dd + j] -= f * dcoef[j]
        return LaurentPoly._trimmed(0, quot), LaurentPoly._trimmed(0, rem)

    def exact_div(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact division; raises if the division leaves a remainder."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return LaurentPoly.zero()
        shift = self.offset - other.offset
        a = self.shift(-self.offset)
        b = other.shift(-other.offset)
        q, r = a.divmod_poly(b)
        if not r.is_zero():
            raise ArithmeticError("inexact polynomial division")
        return q.shift(shift)

    def evaluate(self, v: complex) -> complex:
        if self.is_zero():
            return 0j
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * v + complex(c)
        return acc * v ** self.offset

    def residue(self, x: int, p: int) -> int:
        """The value at v = x in F_p, by Horner's rule; x is a unit mod p."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % p
        return acc * pow(x, self.offset, p) % p

    def kronecker(self, bits: int, lo: int, step: int) -> int:
        """The integer value of v^(-lo) * self at v^step = 2^bits, by Horner's
        rule over Z (Kronecker substitution).  Needs lo <= min_exp, and every
        exponent with a nonzero coefficient in lo + step Z; the zero polynomial packs to 0 at any lo.  The map is
        multiplicative (with lo adding up), and it is injective on
        polynomials whose coefficients all lie below 2^(bits - 1) in
        absolute value."""
        if not self.coeffs:
            return 0
        acc = 0
        for c in reversed(self.coeffs[::step]):
            acc = (acc << bits) + c
        return acc << bits * ((self.offset - lo) // step)

    def magnitude_at(self, v: complex) -> float:
        """Sum of |coeff| * |v|^exp; a scale reference for pole detection."""
        av = abs(v)
        return sum(abs(c) * av ** (self.offset + i)
                   for i, c in enumerate(self.coeffs))

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            e = self.offset + i
            if e == 0:
                body = str(abs(c))
            else:
                vpow = "v" if e == 1 else f"v^{e}"
                a = abs(c)
                body = vpow if a == 1 else f"{a}*{vpow}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self):
        return f"LaurentPoly({self})"


def _divided(coeffs, c):
    """The coefficients divided by the integer c, which divides each."""
    return coeffs if c == 1 else [x // c for x in coeffs]


def _pseudo_remainder(x, y):
    """A nonzero integer multiple of the remainder of x by y in Q[v], with
    the powers of v that divide it removed; [] when y divides x.  x and y
    are coefficient sequences, lowest degree first, with len(x) >= len(y)
    >= 2, and each step scales only by the cofactor of gcd(leading terms)."""
    r = list(x)
    m = len(y) - 1
    lc = y[-1]
    terms = [(j, yj) for j, yj in enumerate(y[:m]) if yj]
    for k in range(len(r) - 1, m - 1, -1):
        c = r[k]
        if not c:
            continue
        g = _int_gcd(c, lc)
        s, t = lc // g, c // g
        if s != 1:
            r[:k] = [s * e for e in r[:k]]
        for j, yj in terms:
            r[k - m + j] -= t * yj
    r = r[:m]
    lo, hi = 0, m
    while hi > lo and not r[hi - 1]:
        hi -= 1
    while lo < hi and not r[lo]:
        lo += 1
    return r[lo:hi]


def poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """The gcd in Z[v] of the polynomial parts (offsets discarded), content
    included, with a positive leading coefficient; 0 when both are 0.

    By Gauss's lemma it is the gcd of the contents times the gcd of the
    primitive parts.  The latter is the last nonzero term of Euclid's
    remainder sequence on primitive pseudo-remainders: each remainder is
    made primitive at once, so the loop stays in Z[v] and its coefficients
    stay small (von zur Gathen & Gerhard, Modern Computer Algebra, ch. 6).
    Every polynomial in the loop has a nonzero constant term, so the powers
    of v a remainder picks up are no part of the gcd and are dropped."""
    x, y = a.coeffs, b.coeffs
    if not x or not y:
        g = x or y
        return LaurentPoly(0, g if not g or g[-1] > 0 else [-c for c in g])
    cx, cy = _int_gcd(*x), _int_gcd(*y)
    c = _int_gcd(cx, cy)
    if len(x) < len(y):
        x, y, cx, cy = y, x, cy, cx
    if len(y) > 1:
        x, y = _divided(x, cx), _divided(y, cy)
        while len(y) > 1:
            r = _pseudo_remainder(x, y)
            x, y = y, _divided(r, _int_gcd(*r))
        if not y:
            sign = c if x[-1] > 0 else -c
            return LaurentPoly(0, [sign * e for e in x])
    return LaurentPoly(0, (c,))


def poly_lcm(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Least common multiple in Z[v] of two ordinary polynomials with
    nonzero constant terms and positive leading coefficients."""
    return a * b.exact_div(poly_gcd(a, b))


def kronecker_layout(groups, bound: int):
    """One Kronecker substitution for integer Laurent polynomials that are
    multiplied and summed: (bits, lows, step).

    groups is a list of lists of polynomials.  lows[g] is the least
    exponent in group g, and step the gcd of every exponent's distance from
    its group's low (1 when all are 0).  A factor from group g packs as
    `p.kronecker(bits, lows[g], step)`; a product packs at the sum of its
    factors' lows, so products with the same lows, and their sums, compare
    as integers.  On the v-grid of a session denominator step is often D or
    2D, and packing in v^step keeps the integers that many times shorter.
    bound is the caller's bound on the absolute value of every coefficient
    of what it compares; bits = bound.bit_length() + 1 puts 2^(bits - 1)
    above it, so such a polynomial packs to 0 only if it is 0."""
    lows = [min((p.offset for p in g if p), default=0) for g in groups]
    bits = bound.bit_length() + 1
    step = 0
    for lo, g in zip(lows, groups):
        for p in g:
            if step == 1:
                return bits, lows, 1
            if not p:
                continue
            # the candidate divides the span; it is confirmed in C, since
            # every coefficient off its grid is zero exactly when the zeros
            # off the grid are as many as its places, and a failed one
            # drops to a proper divisor at the first offending index
            coeffs = p.coeffs
            step = _int_gcd(step, p.offset - lo, len(coeffs) - 1)
            while step > 1:
                on = coeffs[::step]
                if coeffs.count(0) - on.count(0) == len(coeffs) - len(on):
                    break
                step = _int_gcd(step, next(i for i, c in enumerate(coeffs)
                                           if c and i % step))
    return bits, lows, step or 1


def kronecker_unpack(values, bits: int, lo: int, step: int) -> list:
    """The Laurent polynomials whose `kronecker(bits, lo, step)` images are
    `values`; bits is a multiple of 8.  Any integer unpacks to the
    polynomial with digits in [-2^(bits-1), 2^(bits-1)) that packs back to
    it: 2^(bits-1) is added to every slot of a table one slot wider than
    the widest value, and taken off the polynomial read back.  Equal values
    share one polynomial; the distinct values are read as one table of 1,
    2, 4 or 8-byte slots, or one `int.from_bytes` per slot beyond 64 bits."""
    distinct = list(dict.fromkeys(values))
    width = bits // 8
    slots = -(-max((x.bit_length() for x in distinct), default=0)
              // bits) + 1
    half = 1 << (bits - 1)
    bias = half * (((1 << bits * slots) - 1) // ((1 << bits) - 1))
    size = slots * width
    data = b"".join((x + bias).to_bytes(size, "little") for x in distinct)
    if width in (1, 2, 4, 8):
        table = np.frombuffer(data, f"<u{width}")
    else:
        table = np.array([int.from_bytes(data[k:k + width], "little")
                          for k in range(0, len(data), width)], object)
    table = table.reshape(len(distinct), slots)
    if step > 1:
        spread = np.zeros((len(distinct), (slots - 1) * step + 1), table.dtype)
        spread[:, ::step] = table
        table = spread
    bias_poly = LaurentPoly._trimmed(
        lo, [half] + ([0] * (step - 1) + [half]) * (slots - 1))
    polys = {x: LaurentPoly._trimmed(lo, row) - bias_poly
             for x, row in zip(distinct, table.tolist())}
    return [polys[x] for x in values]


def one_norm(p):
    """|p|_1, the sum of the absolute values of p's coefficients."""
    return sum(map(abs, p.coeffs))


_ONE = LaurentPoly.one()


def _over_z(x):
    """(numerator in Z[v^+-1], positive integer denominator) of an int, a
    Fraction or a LaurentPoly."""
    if isinstance(x, LaurentPoly):
        return x, 1
    if isinstance(x, Fraction):
        return LaurentPoly(0, (x.numerator,)), x.denominator
    return LaurentPoly(0, (x,)), 1


class QScalar:
    """An exact rational function num/den in v.

    Normal form: num lies in Z[v^+-1]; den is an ordinary polynomial in
    Z[v] with nonzero constant term and positive leading coefficient; and
    gcd(num-part, den) = 1 in Z[v], content included.  The units of
    Z[v^+-1] are +-v^k, so the form is unique: equality is structural and
    agrees with cross-multiplication.  Either argument may be an int, a
    Fraction or a LaurentPoly; a rational a/b enters as QScalar(a, b).
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = _ONE
        if not (isinstance(num, LaurentPoly) and isinstance(den, LaurentPoly)):
            (num, a), (den, b) = _over_z(num), _over_z(den)
            num, den = num * b, den * a
        if den.is_zero():
            raise ZeroDivisionError("QScalar with zero denominator")
        if num.is_zero():
            self.num = LaurentPoly.zero()
            self.den = LaurentPoly.one()
            return
        # shift so den is an ordinary polynomial with nonzero constant term
        k = den.offset
        num = num.shift(-k)
        den = den.shift(-k)
        if den.coeffs != (1,):
            g = poly_gcd(num, den)
            if g.coeffs != (1,):
                num = num.exact_div(g)
                den = den.exact_div(g)
            if den.coeffs[-1] < 0:
                num, den = -num, -den
        self.num = num
        self.den = den

    @staticmethod
    def zero() -> "QScalar":
        return QScalar(0)

    @staticmethod
    def one() -> "QScalar":
        return QScalar(1)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return not self.num.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QScalar(other)
        if not isinstance(other, QScalar):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __neg__(self):
        out = QScalar.__new__(QScalar)
        out.num = -self.num
        out.den = self.den
        return out

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QScalar(other)
        if not isinstance(other, QScalar):
            return NotImplemented
        # a sum with zero is the other operand, already in normal form
        if not other.num:
            return self
        if not self.num:
            return other
        if self.den == other.den:
            return QScalar(self.num + other.num, self.den)
        return QScalar(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QScalar(other)
        if not isinstance(other, QScalar):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return QScalar(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QScalar(other)
        if not isinstance(other, QScalar):
            return NotImplemented
        # times a unit monomial v^e: the numerator shifts and the denominator
        # stays, so the product is in normal form (v does not divide den)
        if other.den.coeffs == (1,) and other.num.coeffs == (1,):
            return self._shifted(other.num.offset)
        if self.den.coeffs == (1,) and self.num.coeffs == (1,):
            return other._shifted(self.num.offset)
        return QScalar(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def _shifted(self, e: int) -> "QScalar":
        """self * v^e, in normal form without a gcd."""
        out = QScalar.__new__(QScalar)
        out.num = self.num.shift(e)
        out.den = self.den
        return out

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QScalar(other)
        if not isinstance(other, QScalar):
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("QScalar division by zero")
        return QScalar(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return QScalar(other) / self

    def __pow__(self, n: int):
        if n == 0:
            return QScalar.one()
        if n < 0:
            return QScalar.one() / self ** (-n)
        out = QScalar.__new__(QScalar)
        out.num = self.num ** n
        out.den = self.den ** n
        return out

    def __str__(self):
        if self.den == LaurentPoly.one():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"QScalar({self})"

    def evaluate(self, v: complex) -> complex:
        dval = self.den.evaluate(v)
        scale = self.den.magnitude_at(v)
        if abs(dval) <= 1e-13 * max(scale, 1.0):
            raise PoleError(f"denominator {self.den} vanishes at v = {v}")
        return self.num.evaluate(v) / dval


def exponent_to_int(e, D: int) -> int:
    """Scale a rational q-exponent to the v-grid; error if it does not fit."""
    f = Fraction(e) * D
    if f.denominator != 1:
        raise DenominatorError(
            f"exponent {e} of q is not an integer multiple of 1/{D}; "
            f"session denominator too small")
    return int(f)


def q_power(e, D: int) -> QScalar:
    """q^e as the Laurent monomial v^(e*D)."""
    return QScalar(LaurentPoly.monomial(exponent_to_int(e, D)))


def v_difference(e: int) -> LaurentPoly:
    """v^e - v^(-e); at e = D * e' this is q^e' - q^-e'."""
    return LaurentPoly.monomial(e) - LaurentPoly.monomial(-e)


def q_integer(m: int, e=1, D: int = 1) -> QScalar:
    """The quantum integer [m] for q_i = q^e: (q_i^m - q_i^-m)/(q_i - q_i^-1)."""
    if m < 0:
        raise ValueError("q_integer needs m >= 0")
    k = exponent_to_int(e, D)
    if m == 0:
        return QScalar.zero()
    # exact Laurent quotient: v^(k(m-1)) + v^(k(m-3)) + ... + v^(-k(m-1))
    return QScalar(LaurentPoly.from_dict({k * (m - 1 - 2 * j): 1 for j in range(m)}))


def q_factorial(m: int, e=1, D: int = 1) -> QScalar:
    """[m]! = [1][2]...[m], with [0]! = 1."""
    if m < 0:
        raise ValueError("q_factorial needs m >= 0")
    out = QScalar.one()
    for j in range(1, m + 1):
        out = out * q_integer(j, e, D)
    return out


def evaluate_numeric(x: QScalar, hbar: complex, D: int) -> complex:
    """Value of x at q = e^(hbar/2), i.e. v = e^(hbar/(2D))."""
    v = cmath.exp(complex(hbar) / (2 * D))
    return x.evaluate(v)
