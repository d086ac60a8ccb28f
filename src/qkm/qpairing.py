"""The Drinfeld pairing on the free algebra over E_1..E_n, its Gram blocks,
and the relation ideal given by their null spaces.

The pairing is the unique symmetric bilinear form with

    B(x y, z) = B(x (x) y, Delta(z)),   B(z, x y) = B(Delta(z), x (x) y),
    B(q^a, q^b) = q^{-(a,b)},           B(E_i, E_j) = delta_ij / (q - q^{-1}),

for the coproduct Delta(E_i) = E_i (x) q^{gamma_i} + 1 (x) E_i with
gamma_i = d_i h_i.  Peeling the trailing letter of the first argument
against the coproduct of the second yields the closed recursion

    B(w E_i, z) = (q - q^{-1})^{-1} *
        sum over positions t with z_t = i of
            q^{- sum_{u > t} (alpha_i, alpha_{z_u})} * B(w, z minus position t).

Values of fixed multidegree m share the denominator (q - q^{-1})^{|m|}; the
engine works on the Laurent-polynomial numerators and attaches the
denominator at the boundary.  A slow oracle that expands the Hopf axioms
with explicit group-like bookkeeping (and no closed recursion) is kept
alongside for cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as _int_gcd
from math import lcm as _int_lcm

from .cartan import CartanDatum, session_denominator
from .freealg import (
    FreeElement,
    ResourceLimitError,
    add_degrees,
    enumerate_words,
    total_degree,
    unit_degree,
    word_degree,
)
from .linalg import certified_laurent_nullspace
from .scalars import (
    LaurentPoly,
    QScalar,
    exponent_to_int,
    poly_gcd,
    q_factorial,
    q_power,
    v_difference,
)


class NotApplicableError(ValueError):
    """An operation needs a generalized Cartan matrix and did not get one."""


# deterministic specialization points for certified kernel extraction
EVAL_POINTS = tuple(Fraction(*t) for t in
                    [(2, 1), (3, 1), (5, 2), (7, 2), (7, 3), (11, 3),
                     (13, 5), (17, 5), (19, 7), (23, 7), (29, 11), (31, 11)])


@dataclass(frozen=True)
class GramBlock:
    """The pairing matrix on one multidegree component.

    Entries are numerators over the common denominator (q - q^{-1})^{|m|}.
    """

    degree: tuple[int, ...]
    basis: tuple[tuple[int, ...], ...]
    numerators: tuple[tuple[LaurentPoly, ...], ...]
    denom_power: int
    D: int

    def entry(self, a: int, b: int) -> QScalar:
        return QScalar(self.numerators[a][b], v_difference(self.D) ** self.denom_power)

    def size(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class KernelBasis:
    """A basis of the null space of one Gram block: every vector pairs to
    zero against all words of the same degree.  The engine's
    `quotient_basis` names the words whose classes survive."""

    degree: tuple[int, ...]
    vectors: tuple[FreeElement, ...]
    quotient_dim: int


def _frac_gcd(a: Fraction, b: Fraction) -> Fraction:
    return Fraction(_int_gcd(a.numerator, b.numerator),
                    _int_lcm(a.denominator, b.denominator) if a != 0 or b != 0 else 1)


def _normalize_poly_vector(vec):
    """Canonical form of a polynomial vector: divide out the monic gcd of the
    entries and the rational content, shift the lowest exponent to zero, and
    make the first nonzero entry's lowest coefficient positive."""
    nonzero = [e for e in vec if e]
    if not nonzero:
        return vec
    g = nonzero[0]
    for e in nonzero[1:]:
        g = poly_gcd(g, e)
        if g.max_exp == 0 and g.min_exp == 0:
            break
    if g.max_exp > 0:
        vec = [e.exact_div(g) if e else e for e in vec]
        nonzero = [e for e in vec if e]
    shift = min(e.min_exp for e in nonzero)
    cont = Fraction(0)
    for e in nonzero:
        cont = _frac_gcd(cont, e.content())
    first = next(e for e in vec if e)
    sign = 1 if first.coeffs[0] > 0 else -1
    scale = Fraction(sign, 1) / cont
    return [LaurentPoly(e.offset - shift, [c * scale for c in e.coeffs])
            if e else e for e in vec]


def degrees_upto(n: int, max_total: int, include_zero: bool = False):
    """Multidegrees in graded lexicographic order."""
    out = []
    for total in range(0 if include_zero else 1, max_total + 1):
        out.extend(sorted(_compositions(total, n)))
    return out


def _compositions(total: int, n: int):
    if n == 1:
        return [(total,)]
    out = []
    for first in range(total + 1):
        for rest in _compositions(total - first, n - 1):
            out.append((first,) + rest)
    return out


class GradedForm:
    """A form on free words, graded by multidegree, whose null space in each
    degree is the relation space there.

    The base owns the degree cap, the caches and the quotient.  A subclass
    sets the field's `one` and `zero`, and certifies the kernel of a degree
    in its public kernel method (reached through `_solve`), which records
    the word rewriting with `_set_reduction`; only `quotient_basis` and
    `reduce` read it.
    """

    def __init__(self, cd: CartanDatum, degree_cap: int = 8):
        self.cd = cd
        self.cap = degree_cap
        self._memo: dict = {}         # (word, word) -> form value
        self._block: dict = {}        # degree -> Gram block
        self._kernel: dict = {}       # degree -> certified kernel
        self._reduction: dict = {}    # degree -> (quotient basis, rewriting)

    def _check_cap(self, m) -> None:
        if total_degree(m) > self.cap:
            raise ResourceLimitError(
                f"multidegree {m} exceeds the degree cap {self.cap}")

    def _set_reduction(self, m, words, pivots, vectors, ratio) -> None:
        """Rewrite every word of degree m as (quotient index, coefficient)
        pairs over the pivot words: the kernel vector of free column f gives
        w_f = sum_p ratio(-vec[p], vec[f]) w_p."""
        basis = tuple(words[p] for p in pivots)
        rewrite = {w: ((r, self.one),) for r, w in enumerate(basis)}
        free = [c for c in range(len(words)) if c not in pivots]
        for f, vec in zip(free, vectors):
            rewrite[words[f]] = tuple((r, ratio(-vec[p], vec[f]))
                                      for r, p in enumerate(pivots) if vec[p])
        self._reduction[tuple(m)] = (basis, rewrite)

    def _rewriting(self, m):
        m = tuple(m)
        if m not in self._reduction:
            self._solve(m)
        return self._reduction[m]

    def quotient_basis(self, m) -> tuple:
        """The pivot words of degree m; their classes form a basis of the
        quotient by the relations."""
        return self._rewriting(m)[0]

    def reduce(self, m, combo) -> list:
        """Coordinates over `quotient_basis(m)` of sum c * w for the
        (word, coefficient) pairs in combo, all words of degree m."""
        basis, rewrite = self._rewriting(m)
        one = self.one
        out = [None] * len(basis)
        for w, c in combo:
            for r, x in rewrite[w]:
                # skip unit factors: each product builds a new scalar
                term = x if c == one else c if x is one else c * x
                out[r] = term if out[r] is None else out[r] + term
        return [self.zero if x is None else x for x in out]

    def quotient_dim(self, m) -> int:
        return len(self.quotient_basis(m))

    def quotient_dims(self, max_total_degree: int):
        """Table multidegree -> quotient dimension, graded-lex order."""
        return {m: self.quotient_dim(m)
                for m in degrees_upto(self.cd.n, max_total_degree)}


class DrinfeldPairing(GradedForm):
    """Pairing engine for one Cartan datum and session denominator.

    Gram blocks and kernels are memoized per multidegree; the (word, word)
    recursion shares one memo table.  All cached values are immutable, so
    the caches are safe for concurrent reads once populated.
    """

    one = QScalar.one()
    zero = QScalar.zero()

    def __init__(self, cd: CartanDatum, D: int | None = None, degree_cap: int = 8,
                 exponent_sign: int = -1):
        super().__init__(cd, degree_cap)
        self.D = D if D is not None else session_denominator(cd)
        if exponent_sign not in (-1, 1):
            raise ValueError("exponent_sign must be +1 or -1")
        # -1 is the Hopf-axiom value; +1 is its bar-conjugate, kept for the
        # convention regression tests
        self.sign = exponent_sign
        n = cd.n
        self._form = tuple(tuple(exponent_to_int(cd.alpha_form(i, j), self.D)
                                 for j in range(n)) for i in range(n))
        self._dual: dict = {}          # rmatrix.dual_bases per degree
        self._oracle_memo: dict = {}

    # -- fast path ---------------------------------------------------------

    def pair_numerator(self, x, z) -> LaurentPoly:
        """B(x, z) * (q - q^{-1})^{|x|} as a Laurent polynomial."""
        if word_degree(x, self.cd.n) != word_degree(z, self.cd.n):
            return LaurentPoly.zero()
        return self._pair_rec(tuple(x), tuple(z))

    def _pair_rec(self, x, z) -> LaurentPoly:
        if not x:
            return LaurentPoly.one()
        key = (x, z)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        i = x[-1]
        w = x[:-1]
        form_i = self._form[i]
        acc = LaurentPoly.zero()
        # exponent carries the form values of the letters strictly after t
        suffix = [0] * (len(z) + 1)
        for u in range(len(z) - 1, -1, -1):
            suffix[u] = suffix[u + 1] + form_i[z[u]]
        for t, letter in enumerate(z):
            if letter != i:
                continue
            sub = self._pair_rec(w, z[:t] + z[t + 1:])
            if sub.is_zero():
                continue
            acc = acc + sub.shift(self.sign * suffix[t + 1])
        self._memo[key] = acc
        return acc

    def pair_words(self, x, z) -> QScalar:
        """The pairing of two words, exact."""
        num = self.pair_numerator(x, z)
        if num.is_zero():
            return QScalar.zero()
        return QScalar(num, v_difference(self.D) ** len(x))

    def gram_block(self, m) -> GramBlock:
        m = tuple(m)
        if m in self._block:
            return self._block[m]
        self._check_cap(m)
        words = enumerate_words(m)
        nums = tuple(tuple(self.pair_numerator(wa, wb) for wb in words)
                     for wa in words)
        block = GramBlock(degree=m, basis=words, numerators=nums,
                          denom_power=total_degree(m), D=self.D)
        self._block[m] = block
        return block

    # -- kernels and the quotient ------------------------------------------

    def kernel_block(self, m) -> KernelBasis:
        m = tuple(m)
        if m in self._kernel:
            return self._kernel[m]
        block = self.gram_block(m)
        rank, pivots, vectors = certified_laurent_nullspace(
            block.numerators, LaurentPoly.zero(), LaurentPoly.one(),
            EVAL_POINTS, LaurentPoly.evaluate_fraction, _normalize_poly_vector)
        words = block.basis
        self._set_reduction(m, words, pivots, vectors, QScalar)
        els = tuple(FreeElement.from_dict(
            m, {words[c]: QScalar(p) for c, p in enumerate(vec) if p})
            for vec in vectors)
        kb = KernelBasis(degree=m, vectors=els, quotient_dim=rank)
        self._kernel[m] = kb
        return kb

    def _solve(self, m) -> None:
        self.kernel_block(m)

    # -- quantum Serre elements ---------------------------------------------

    def quantum_serre_element(self, i: int, j: int) -> FreeElement:
        """sum_m (-1)^m / ([m]_i! [1-a_ij-m]_i!) E_i^{1-a_ij-m} E_j E_i^m."""
        cd = self.cd
        a = cd.A[i][j]
        if i == j or cd.A[i][i] != 2 or a > 0 or a.denominator != 1:
            raise NotApplicableError(
                "quantum Serre elements need a_ii = 2 and a_ij a nonpositive "
                f"integer; got a[{i + 1}][{j + 1}] = {a}")
        nterms = 1 - int(a)
        e_i = cd.d[i]
        terms = {}
        for m in range(nterms + 1):
            denom = q_factorial(m, e_i, self.D) * q_factorial(nterms - m, e_i, self.D)
            coeff = QScalar(1 if m % 2 == 0 else -1) / denom
            word = (i,) * (nterms - m) + (j,) + (i,) * m
            terms[word] = coeff
        degree = add_degrees(tuple(nterms * u for u in unit_degree(cd.n, i)),
                             unit_degree(cd.n, j))
        return FreeElement.from_dict(degree, terms)

    def verify_serre_in_kernel(self, i: int, j: int) -> bool:
        """True iff the Serre element pairs to zero against all its degree."""
        el = self.quantum_serre_element(i, j)
        m = el.degree
        self._check_cap(m)
        for z in enumerate_words(m):
            acc = QScalar.zero()
            for w, c in el.terms:
                num = self.pair_numerator(w, z)
                if not num.is_zero():
                    acc = acc + c * QScalar(num)
            if acc:
                return False
        return True

    # -- slow Hopf-axiom oracle ----------------------------------------------

    def oracle_pair_words(self, x, z) -> QScalar:
        """The pairing computed from the Hopf axioms alone.

        Words become sequences of symbols ('E', i); the coproduct is expanded
        term by term with group-like factors q^{gamma_i} kept explicit, so no
        commutation rule or closed recursion enters.
        """
        sx = tuple(("E", i) for i in x)
        sz = tuple(("E", i) for i in z)
        return self._oracle(sx, sz)

    def _oracle(self, x, z) -> QScalar:
        key = (x, z)
        cached = self._oracle_memo.get(key)
        if cached is not None:
            return cached
        if len(x) > 1:
            first, rest = x[:1], x[1:]
            total = QScalar.zero()
            for z1, z2 in self._coproduct(z):
                b1 = self._oracle(first, z1)
                if b1:
                    b2 = self._oracle(rest, z2)
                    if b2:
                        total = total + b1 * b2
        elif len(z) > 1:
            zfirst, zrest = z[:1], z[1:]
            total = QScalar.zero()
            for x1, x2 in self._coproduct(x):
                b1 = self._oracle(x1, zfirst)
                if b1:
                    b2 = self._oracle(x2, zrest)
                    if b2:
                        total = total + b1 * b2
        else:
            total = self._oracle_base(x, z)
        self._oracle_memo[key] = total
        return total

    def _coproduct(self, word):
        """All terms of Delta(word) as pairs of symbol sequences."""
        pairs = [((), ())]
        n = self.cd.n
        for sym in word:
            new = []
            if sym[0] == "E":
                i = sym[1]
                kvec = tuple(int(k == i) for k in range(n))
                options = [((sym,), (("K", kvec),)), ((), (sym,))]
            else:
                options = [((sym,), (sym,))]
            for left, right in pairs:
                for ol, orr in options:
                    new.append((left + ol, right + orr))
            pairs = new
        return pairs

    def _oracle_base(self, x, z) -> QScalar:
        def kind(sym_seq):
            if not sym_seq:
                return ("K", (0,) * self.cd.n)
            return sym_seq[0]

        a = kind(x)
        b = kind(z)
        if a[0] == "K" and b[0] == "K":
            form = Fraction(0)
            for i, ai in enumerate(a[1]):
                if ai:
                    for j, bj in enumerate(b[1]):
                        if bj:
                            form += ai * bj * self.cd.alpha_form(i, j)
            return q_power(-form, self.D)
        if a[0] == "E" and b[0] == "E":
            if a[1] != b[1]:
                return QScalar.zero()
            return QScalar(LaurentPoly.one(), v_difference(self.D))
        return QScalar.zero()
