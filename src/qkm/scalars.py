"""Exact arithmetic in Q(v), v = q^(1/D), with numeric evaluation at complex hbar.

Every exact computation in this package runs over the field of rational
functions in one variable v with rational coefficients.  The variable v
stands for a D-th root of q = e^(hbar/2), where D is a session-wide
positive integer chosen so that every exponent of q that can occur (form
values between roots and weights, times D) is an integer.  Numeric
evaluation substitutes v = exp(hbar / (2 D)).
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import gcd as _int_gcd, lcm as _int_lcm


class PoleError(ArithmeticError):
    """Numeric evaluation hit a zero of a denominator."""


class DenominatorError(ValueError):
    """An exponent is not representable over the session denominator D."""


def _coeff(c):
    """Normalize a rational coefficient, preferring int over Fraction."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return int(c)
        return c
    if isinstance(c, int):
        return c
    raise TypeError(f"coefficient must be int or Fraction, got {type(c)!r}")


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
    """A Laurent polynomial sum(coeffs[k] * v^(offset+k)) with rational coefficients.

    Invariant: coeffs is a tuple with nonzero first and last entries;
    the zero polynomial is stored as offset 0, coeffs ().
    """

    __slots__ = ("offset", "coeffs")

    def __init__(self, offset: int, coeffs):
        if not isinstance(coeffs, (list, tuple)):
            coeffs = list(coeffs)
        if not all(type(c) is int for c in coeffs):
            coeffs = [_coeff(c) for c in coeffs]
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
    def zero() -> "LaurentPoly":
        return LaurentPoly(0, ())

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly(0, (1,))

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
        return LaurentPoly(self.offset, [-c for c in self.coeffs])

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
        return LaurentPoly(lo, coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return LaurentPoly.zero()
            return LaurentPoly(self.offset, [c * other for c in self.coeffs])
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return LaurentPoly.zero()
        if other.coeffs == (1,):
            return self.shift(other.offset)
        return LaurentPoly(self.offset + other.offset,
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

    def complexity(self):
        """Pivot-selection key: term count, then exponent span."""
        nz = sum(1 for c in self.coeffs if c)
        return (nz, len(self.coeffs))

    def divmod_poly(self, other: "LaurentPoly"):
        """Quotient and remainder, treating both as polynomials in v.

        Offsets must be nonnegative (ordinary polynomials).
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
            if type(c) is int and type(dl) is int:
                q, r = divmod(c, dl)
                f = q if r == 0 else Fraction(c, dl)
            else:
                f = _coeff(Fraction(c) / Fraction(dl))
            quot[k - dd] = f
            for j in range(dd + 1):
                if dcoef[j]:
                    rem[k - dd + j] -= f * dcoef[j]
        return LaurentPoly(0, quot), LaurentPoly(0, rem)

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

    def content(self) -> Fraction:
        """Positive rational c with self/c integer-primitive, 0 for the zero poly."""
        if self.is_zero():
            return Fraction(0)
        num = 0
        den = 1
        for c in self.coeffs:
            f = Fraction(c)
            num = _int_gcd(num, abs(f.numerator))
            den = den * f.denominator // _int_gcd(den, f.denominator)
        return Fraction(num, den)

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
            c = c if type(c) is int else rational_residue(c, p)
            acc = (acc * x + c) % p
        return acc * pow(x, self.offset, p) % p

    def kronecker(self, bits: int, lo: int, step: int) -> int:
        """The integer value of v^(-lo) * self at v^step = 2^bits, by Horner's
        rule over Z (Kronecker substitution).  Needs integer coefficients,
        lo <= min_exp, and every exponent with a nonzero coefficient in
        lo + step Z; the zero polynomial packs to 0 at any lo.  The map is
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
        return sum(abs(float(Fraction(c))) * av ** (self.offset + i)
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
                body = str(abs(c) if not isinstance(c, Fraction) else abs(c))
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


def poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Monic gcd of the polynomial parts (offsets discarded)."""
    a = a.shift(-a.offset) if not a.is_zero() else a
    b = b.shift(-b.offset) if not b.is_zero() else b
    while not b.is_zero():
        _, r = a.divmod_poly(b)
        if not r.is_zero():
            r = r.shift(-r.offset)
            lc = r.leading_coeff()
            if lc != 1:
                # keep remainders monic so Euclid's coefficients stay tame
                r = LaurentPoly(r.offset, [_coeff(Fraction(c) / Fraction(lc))
                                           for c in r.coeffs])
        a, b = b, r
    if a.is_zero():
        return a
    lc = a.leading_coeff()
    if lc != 1:
        a = LaurentPoly(a.offset, [_coeff(Fraction(c) / Fraction(lc)) for c in a.coeffs])
    return a


def poly_lcm(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Least common multiple of two ordinary polynomials with nonzero
    constant terms; monic when both are."""
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
    step = 0
    for lo, g in zip(lows, groups):
        for p in g:
            if p:
                step = _int_gcd(step, p.offset - lo,
                                *(i for i, c in enumerate(p.coeffs) if c))
    return bound.bit_length() + 1, lows, step or 1


def coefficient_lcm(polys) -> int:
    """The least positive integer that clears the Laurent polynomials
    `polys` into Z[v^+-1]: the lcm of their coefficients' denominators."""
    return _int_lcm(*(c.denominator for p in polys for c in p.coeffs
                      if type(c) is not int))


def one_norm(p):
    """|p|_1, the sum of the absolute values of p's coefficients."""
    return sum(map(abs, p.coeffs))


class QScalar:
    """An exact rational function num/den in v.

    Normal form: den is an ordinary polynomial in v, monic, with nonzero
    constant term, and gcd(num-part, den) = 1.  Equality is structural and
    agrees with cross-multiplication.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, (int, Fraction)):
            num = LaurentPoly(0, (num,))
        if den is None:
            den = LaurentPoly.one()
        elif isinstance(den, (int, Fraction)):
            den = LaurentPoly(0, (den,))
        if den.is_zero():
            raise ZeroDivisionError("QScalar with zero denominator")
        # shift so den is an ordinary polynomial with nonzero constant term
        k = den.offset
        num = num.shift(-k)
        den = den.shift(-k)
        if num.is_zero():
            self.num = LaurentPoly.zero()
            self.den = LaurentPoly.one()
            return
        g = poly_gcd(num, den)
        if g.max_exp > 0:
            num = num.exact_div(g)
            den = den.exact_div(g)
        lc = den.leading_coeff()
        if lc != 1:
            inv = Fraction(1) / lc
            num = num * inv
            den = den * inv
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
