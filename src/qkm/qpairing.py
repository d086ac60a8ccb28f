"""The Drinfeld pairing on the free algebra over E_1..E_n, its Gram blocks,
and the relation ideal given by their null spaces.

The pairing is the unique symmetric bilinear form with

    B(x y, z) = B(x (x) y, Delta(z)),   B(z, x y) = B(Delta(z), x (x) y),
    B(q^a, q^b) = q^{-(a,b)},       B(E_i, E_j) = delta_ij / (q_i - q_i^{-1}),

with q_i = q^{d_i}, for the coproduct Delta(E_i) = E_i (x) q^{gamma_i} +
1 (x) E_i with gamma_i = d_i h_i.  The per-letter normalization matches the
modules' [E_i, F_i] = (K_i - K_i^{-1}) / (q_i - q_i^{-1}), so the dual bases
built from the pairing give the R-matrix of those modules.  Peeling the
trailing letter of the first argument against the coproduct of the second
yields the closed recursion

    B(w E_i, z) = (q_i - q_i^{-1})^{-1} *
        sum over positions t with z_t = i of
            q^{- sum_{u > t} (alpha_i, alpha_{z_u})} * B(w, z minus position t).

Values of fixed multidegree m share the denominator
prod_i (q_i - q_i^{-1})^{m_i} (`DrinfeldPairing.denominator`); the engine
works on the Laurent-polynomial numerators, which do not depend on the
d_i, and attaches the denominator at the boundary.  The recursion builds
them as Kronecker-packed integers, one per entry: each term a left shift,
each sum an integer sum, each block unpacked once, or only the sub-block
that R's dual bases read (`DrinfeldPairing` gives the bound that makes the
packing exact).  A slow oracle that expands the Hopf axioms with explicit
group-like bookkeeping (and no closed recursion) is kept alongside for
cross-checking.

The classical contravariant form (`classical.ShapovalovForm`) obeys the
same recursion with the factor x_i - sum_{u > t} a_{i z_u}, and so does the
form at a fixed weight (`qmodules.HighestWeightForm`).  `GradedForm` runs
it once for all three: a subclass states the factor (`_factor`) and the
reduction of its ring to F_p (`_residue`), and `GradedForm._gram` builds
every Gram block, exact or mod p (mod p one gathered product per letter).
Graded dimensions are certified without exact blocks: the ideal generated
by the kernels one letter down gives an upper bound, and the recursion at
v = MOD_P_V mod a prime a lower bound, the rank of the block on the
columns outside the pivots of that ideal's span.

The same ideal gives the exact kernels where it fills the degree:
`DrinfeldPairing.kernel_block` takes rank and pivots mod p from the
dimension certificate's block and the vectors (i,) + k and k + (i,) over
the certified kernels k one letter down, and solves a corank x corank
system on them (`linalg.kernel_side_basis`), unpacking no numerator.
Elsewhere (the Serre degrees for a GCM) `linalg.certified_laurent_nullspace`
certifies the kernel on the Gram numerators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial, gcd, prod
from operator import mul

import numpy as np

from .cartan import CartanDatum, session_denominator
from .freealg import (
    combination,
    enumerate_words,
    unit_degree,
    word_degree,
)
from .linalg import (
    BadPointError,
    certified_laurent_nullspace,
    kernel_side_basis,
    rank_mod_p,
)
from .scalars import (
    LaurentPoly,
    QScalar,
    exponent_to_int,
    kronecker_unpack,
    poly_gcd,
    q_factorial,
    q_power,
    v_difference,
)


class NotApplicableError(ValueError):
    """An operation needs a generalized Cartan matrix and did not get one."""


# the values of v, read in F_p, at which exact kernels are certified
EVAL_POINTS = tuple(Fraction(*t) for t in
                    [(2, 1), (3, 1), (5, 2), (7, 2), (7, 3), (11, 3),
                     (13, 5), (17, 5), (19, 7), (23, 7), (29, 11), (31, 11)])

# the primes of the dimension certificate: the first that divides no
# denominator of A is used
PRIMES = (2**31 - 1, 2**31 - 19, 2**31 - 61)

# the quantum point of the dimension certificate: v = MOD_P_V mod p
MOD_P_V = 1000003


@dataclass(frozen=True)
class GramBlock:
    """The pairing matrix on the multidegree m of `gram_block(m)`.

    Entries are numerators over the common denominator
    prod_i (q_i - q_i^{-1})^{m_i}, one factor per letter.
    """

    basis: tuple[tuple[int, ...], ...]
    numerators: tuple[tuple[LaurentPoly, ...], ...]
    denominator: LaurentPoly


@dataclass(frozen=True)
class KernelBasis:
    """A basis of the null space of the Gram block of `kernel_block(m)`:
    every vector pairs to zero against all words of degree m, a combination
    of words (`freealg.combination`) with Laurent-polynomial coefficients.
    The engine's `quotient_basis` names the words whose classes survive."""

    vectors: tuple[tuple, ...]
    quotient_dim: int


def _normalize_poly_vector(vec):
    """Canonical form of a vector over Z[v^+-1]: divide out the gcd of the
    entries in Z[v], shift the lowest exponent to zero, and make the first
    nonzero entry's lowest coefficient positive."""
    nonzero = [e for e in vec if e]
    if not nonzero:
        return vec
    g = nonzero[0]
    for e in nonzero[1:]:
        g = poly_gcd(g, e)
        if g.coeffs == (1,):
            break
    if g.coeffs != (1,):
        vec = [e.exact_div(g) if e else e for e in vec]
        nonzero = [e for e in vec if e]
    shift = min(e.min_exp for e in nonzero)
    sign = 1 if nonzero[0].coeffs[0] > 0 else -1
    return [LaurentPoly(e.offset - shift, [c * sign for c in e.coeffs])
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

    Both forms obey one recursion.  Peeling letter i off the row word x (its
    first letter when `_peels_first`, else its last) against each position
    t of the column word z with z_t = i,

        B(x, z) = sum over t with z_t = i of
                      f_i(deg z[t + 1:]) * B(x minus i, z minus position t),

    from B((), ()) = 1.  `_ring_gram` builds every Gram block letter by
    letter from the blocks one letter down, over the subclass's exact ring
    or mod a prime p at the fixed point of the dimension certificate, and
    `_gram` reads the exact blocks from it.  A subclass states two facts
    about its ring (and its unit, `_ring_one`):

    - `_factor(i, tail, p=None)`: the factor f_i at the tail degree, exact
      or mod p;
    - `_residue(entry, p)`: the image in F_p, at the fixed point, of an
      entry of an exact block or of an exact kernel vector.

    A ring may store its blocks in another form than their entries: the
    Drinfeld pairing's exact ring is Kronecker-packed integers, where a
    factor acts on a column of the block one letter down as a left shift
    (`_times`, a product by default) and `_gram` unpacks each block once
    (`DrinfeldPairing.numerators_on` a sub-block).

    The base owns the caches and the quotient.  A subclass sets the field's
    `one` and `zero` and solves a degree in `_solve`, which records the word
    rewriting and the exact kernel vectors with `_set_reduction`; only
    `quotient_basis`, `reduce` and the dimension certificate read them.  A
    third subclass, `qmodules.HighestWeightForm`, is over a field (Q(v) or
    Q), so one RREF solves a degree; it has no `_residue` and no mod-p
    certificate.

    Quotient dimensions have a cheaper certificate that builds no exact
    block.  Degree by degree in graded-lex order, modulo p:

    - upper bound: #words - rank mod p of the span S of (i,) + k and
      k + (i,) over k in K(m - e_i), where K holds mod-p images of genuine
      kernel vectors.  The relations are the radical of a Hopf pairing
      (resp. of the contravariant form at a generic weight), a two-sided
      ideal, so S lies in the kernel;
    - lower bound: the rank mod p of the principal block G_p[F, F] of the
      Gram block at the fixed point, F the columns outside the pivots of
      an echelon basis of S, so |F| is the upper bound.  Specializing is a
      ring homomorphism and a principal block has no larger rank than the
      whole block, so the rank can only drop.  When S lies in the kernel
      of the symmetric G_p, every column (and row) of G_p outside F is a
      combination of those in F, and the two ranks are equal: an
      |F| x |F| elimination in place of a #words x #words one.  G_p is
      checked to kill one combination of the rows of S (else
      AssertionError), since a corrupted K would make the bounds meet on
      a wrong dimension.

    When the bounds meet, the dimension is certified and an echelon basis
    of the span becomes K(m).  When they do not (the degrees of new
    generators of the ideal, such as the Serre degrees, or an unlucky
    point), the exact kernel of that degree alone is certified and the
    residues of its vectors seed K(m).

    `_letter_maps` places a word w of degree m - e_i as (i,) + w and
    w + (i,) in degree m, for the span above and for the exact kernels of
    `DrinfeldPairing`, whose candidates come from the same ideal.
    """

    def __init__(self, cd: CartanDatum):
        self.cd = cd
        self._gram_cache: dict = {}   # (degree, p or None) -> Gram block
        self._factors: dict = {}      # (i, tail degree, p or None) -> factor
        self._block: dict = {}        # degree -> public Gram block
        self._kernel: dict = {}       # degree -> certified kernel
        self._reduction: dict = {}    # degree -> (quotient basis, rewriting)
        self._vectors: dict = {}      # degree -> exact kernel vectors
        origin = (0,) * cd.n
        self._dim: dict = {origin: 1}  # degree -> certified quotient dim
        # degree -> echelon rows mod p of kernel vectors
        self._kernel_p: dict = {origin: np.zeros((0, 1), np.int64)}

    @cached_property
    def p(self) -> int:
        """The prime of the dimension certificate: the first of PRIMES that
        divides no denominator of A."""
        dens = {a.denominator for row in self.cd.A for a in row}
        for p in PRIMES:
            if all(d % p for d in dens):
                return p
        raise BadPointError("every prime of the dimension certificate "
                            "divides a denominator of A")

    def _set_reduction(self, m, words, pivots, vectors, ratio) -> None:
        """Keep the exact kernel vectors of degree m, and rewrite every word
        of degree m as (quotient index, coefficient) pairs over the pivot
        words: the kernel vector of free column f gives
        w_f = sum_p ratio(-vec[p], vec[f]) w_p."""
        basis = tuple(words[p] for p in pivots)
        rewrite = {w: ((r, self.one),) for r, w in enumerate(basis)}
        free = [c for c in range(len(words)) if c not in pivots]
        for f, vec in zip(free, vectors):
            rewrite[words[f]] = tuple((r, ratio(-vec[p], vec[f]))
                                      for r, p in enumerate(pivots) if vec[p])
        self._reduction[tuple(m)] = (basis, rewrite)
        self._vectors[tuple(m)] = vectors

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
        """The certified dimension of the quotient in degree m (see the
        class docstring)."""
        m = tuple(m)
        if m not in self._dim:
            self._certify_dim(m)
        return self._dim[m]

    def quotient_dims(self, max_total_degree: int):
        """Table multidegree -> quotient dimension, graded-lex order."""
        return {m: self.quotient_dim(m)
                for m in degrees_upto(self.cd.n, max_total_degree)}

    def _certify_dim(self, m) -> None:
        """Certify the quotient dimension of degree m and record K(m); the
        degrees below m are certified first."""
        p = self.p
        index, gram = self._gram(m, p)
        rank, basis = rank_mod_p(self._span_p(m, index), p)
        # the block kills the span: checked on the sum of its echelon rows,
        # reducing each product (a sum of unreduced ones overflows int64);
        # flatnonzero, as in rank_mod_p: a first ndarray.any() in a process
        # raises its peak RSS by about 0.1 MB
        killed = (gram * (basis.sum(axis=0) % p) % p).sum(axis=1) % p
        if np.flatnonzero(killed).size:
            raise AssertionError(f"the ideal's span at {m} is not in the "
                                 "kernel of its block mod p")
        pivots = {int(np.flatnonzero(row)[0]) for row in basis}
        free = [c for c in range(len(index)) if c not in pivots]
        lower = rank_mod_p(gram[np.ix_(free, free)], p)[0]
        upper = dim = len(index) - rank
        if lower != upper:
            self._solve(m)
            vectors = [[self._residue(e, p) for e in v]
                       for v in self._vectors[m]]
            basis = rank_mod_p(np.array(vectors, np.int64).reshape(
                len(vectors), len(index)), p)[1]
            dim = len(index) - len(vectors)
        if not lower <= dim <= upper:
            raise AssertionError(f"quotient dimension {dim} at {m} is outside "
                                 f"its mod-p bounds [{lower}, {upper}]")
        self._kernel_p[m] = basis
        self._dim[m] = dim

    def _span_p(self, m, index):
        """Rows mod p, under index, spanning the images (i,) + k and
        k + (i,) of K(m - e_i) in degree m; the degrees below m are
        certified first."""
        span = [np.zeros((0, len(index)), np.int64)]
        for prev, cols in self._letter_maps(m, index):
            self.quotient_dim(prev)
            kernel = self._kernel_p[prev]
            rows = np.zeros((len(kernel), len(index)), np.int64)
            rows[:, cols] = kernel
            span.append(rows)
        return np.vstack(span)

    def _predecessors(self, m):
        """(i, m - e_i) for every letter i occurring in degree m."""
        return [(i, m[:i] + (m[i] - 1,) + m[i + 1:])
                for i in range(len(m)) if m[i]]

    def _letter_maps(self, m, index):
        """(m - e_i, cols) for every letter i occurring in degree m and each
        side: cols[c] is the column in degree m (under `index`) of (i,) + w,
        resp. w + (i,), for the c-th word w of degree m - e_i."""
        for i, prev in self._predecessors(m):
            words = enumerate_words(prev)
            yield prev, [index[(i,) + w] for w in words]
            yield prev, [index[w + (i,)] for w in words]

    def _gram(self, m, p=None):
        """(word index, Gram block) of degree m: an object array over the
        exact ring, or an int64 array mod p at the fixed point when p is
        given."""
        return self._ring_gram(m, p)

    def _times(self, i, prev, p):
        """How a factor acts on a column of the block of degree prev =
        m - e_i in the recursion for degree m: (column, factor) -> term.
        Multiplication here; a subclass whose ring stores its blocks in
        another form (the packed integers of `DrinfeldPairing`) says how."""
        return mul

    def _ring_gram(self, m, p=None):
        """(word index, block) of degree m in the recursion's ring: the
        subclass's exact ring, or F_p at the fixed point when p is given.
        The rows (i,) + w (resp. w + (i,)) of letter i come from the block
        one letter down: column z sums, over the m_i positions t with
        z_t = i, the factor at the degree of z[t + 1:] times column z minus
        t (`_letter_terms`).  Mod p that is one gather of the source
        columns, one product by the factors and one sum over each column's
        m_i terms per letter; the exact rings sum column by column."""
        key = (m, p)
        if key in self._gram_cache:
            return self._gram_cache[key]
        words = enumerate_words(m)
        index = {w: c for c, w in enumerate(words)}
        gram = np.empty((len(words), len(words)), np.int64 if p else object)
        if not any(m):
            gram[0, 0] = 1 if p else self._ring_one
        for i, prev in self._predecessors(m):
            pindex, pgram = self._ring_gram(prev, p)
            rows = [index[(i,) + w if self._peels_first else w + (i,)]
                    for w in pindex]
            terms = self._letter_terms(i, words, pindex, p)
            if p:
                src, factors = zip(*terms)
                block = pgram[:, np.array(src, np.intp)]
                block *= np.array(factors, np.int64)
                # reduce each product: a sum of unreduced ones overflows int64
                block %= p
                gram[rows] = block.sum(axis=2) % p
                continue
            times = self._times(i, prev, p)
            for c, (src, factors) in enumerate(terms):
                col = times(pgram[:, src[0]], factors[0])
                for s, f in zip(src[1:], factors[1:]):
                    col = col + times(pgram[:, s], f)
                gram[rows, c] = col
        self._gram_cache[key] = (index, gram)
        return index, gram

    def _letter_terms(self, i, words, pindex, p):
        """The terms of letter i in the recursion, word by word: for each
        word z of words, (src, factors), where src[k] is the column of the
        block one letter down (under pindex) and factors[k] the factor of
        the k-th position t with z_t = i, from the last.  Every word has
        the same number m_i of such positions."""
        factors = self._factors
        for z in words:
            src, fs = [], []
            tail = [0] * self.cd.n
            for t in range(len(z) - 1, -1, -1):
                if z[t] == i:
                    fkey = (i, tuple(tail), p)
                    f = factors.get(fkey)
                    if f is None:
                        f = factors[fkey] = self._factor(*fkey)
                    src.append(pindex[z[:t] + z[t + 1:]])
                    fs.append(f)
                tail[z[t]] += 1
            yield src, fs


class DrinfeldPairing(GradedForm):
    """Pairing engine for one Cartan datum and session denominator.

    Gram blocks and kernels are memoized per multidegree.  The Gram
    numerators lie in Z[v^+-1]; the fixed point of the dimension
    certificate is v = MOD_P_V.  A kernel comes from the kernels one letter
    down where those fill its degree (`_from_ideal`), and from its Gram
    numerators otherwise.  All cached values are immutable, so the caches
    are safe for concurrent reads once populated.

    The exact recursion runs on Kronecker-packed integers (von zur Gathen &
    Gerhard, Modern Computer Algebra, ch. 8), and each block is unpacked
    into Laurent numerators once; R's dual bases unpack only the rows and
    columns of the quotient words (`numerators_on`).  Every factor of the
    recursion is a monomial v^e with coefficient 1, and B((), ()) = 1, so
    every numerator N of degree m has nonnegative coefficients, which sum
    to prod_k m_k! (its value at v = 1 counts the letter-preserving
    bijections between the two words).  Let g be the gcd of the entries of `_form`, so every
    exponent of degree m lies in L(m) + g Z, with the least exponent

        L(0) = 0,  L(m) = min_i [L(m - e_i)
                                  + sum_j min(0, sign form[i][j]) (m - e_i)_j],

    a quadratic form in m (`_low`).  Then v^(-L(m)) N packed at v^g = 2^b
    is injective once 2^b > prod_k m_k!, with no sign to handle, for
    either `exponent_sign`.  A term of the recursion is v^e times an entry
    of degree m - e_i, a left shift by b (e + L(m - e_i) - L(m)) / g >= 0
    of its packed value, and a sum of terms is an integer sum.  The width
    b is one for all packed blocks, the least of 8, 16, 32, ... bits that
    fits every degree unpacked so far (`_packed`); a degree that needs
    more doubles it and builds every packed block again.
    """

    one = QScalar.one()
    zero = QScalar.zero()
    _peels_first = False
    _ring_one = 1   # v^0, packed

    def __init__(self, cd: CartanDatum, D: int | None = None,
                 exponent_sign: int = -1):
        super().__init__(cd)
        self.D = D if D is not None else session_denominator(cd)
        if exponent_sign not in (-1, 1):
            raise ValueError("exponent_sign must be +1 or -1")
        # -1 is the Hopf-axiom value; +1 is its bar-conjugate, kept for the
        # convention regression tests
        self.sign = exponent_sign
        n = cd.n
        self._form = tuple(tuple(exponent_to_int(cd.alpha_form(i, j), self.D)
                                 for j in range(n)) for i in range(n))
        self._g = gcd(*(x for row in self._form for x in row)) or 1
        self._bits = 8                 # packing width of the exact recursion
        self._exact: dict = {}         # degree -> (index, Laurent numerators)
        self._denominators: dict = {}  # degree -> denominator
        self._dual: dict = {}          # rmatrix.dual_bases per degree
        self._oracle_memo: dict = {}

    # -- fast path ---------------------------------------------------------

    def pair_numerator(self, x, z) -> LaurentPoly:
        """B(x, z) times the denominator of its degree, as a Laurent
        polynomial: an entry of the exact Gram block of their degree."""
        m = word_degree(x, self.cd.n)
        if m != word_degree(z, self.cd.n):
            return LaurentPoly.zero()
        index, gram = self._gram(m)
        return gram[index[tuple(x)], index[tuple(z)]]

    def _factor(self, i, tail, p=None):
        """v^e, e = sign * sum of (alpha_i, alpha_u) over the letters u of
        the tail: its value at v = MOD_P_V mod p, or e / g for the packed
        recursion (see `_times`)."""
        e = self.sign * sum(f * k for f, k in zip(self._form[i], tail))
        return pow(MOD_P_V, e, p) if p else e // self._g

    def _times(self, i, prev, p):
        """Mod p a product; packed, the shift of a column of degree prev by
        b (e + L(prev) - L(m)) / g for the factor e / g (class docstring)."""
        if p:
            return mul
        bits = self._bits
        lift = -sum(min(0, self.sign * f) * k
                    for f, k in zip(self._form[i], prev)) // self._g
        return lambda col, e: col << bits * (e + lift)

    def _low(self, m) -> int:
        """L(m) / g, the least exponent of degree m in steps of g: the
        recursion of the class docstring in closed form,
        sum over a < b of c_ab m_a m_b + sum_a c_aa m_a (m_a - 1) / 2
        with c = min(0, sign form) / g."""
        c = [[min(0, self.sign * f) // self._g for f in row]
             for row in self._form]
        return sum(c[a][b] * m[a] * (m[b] - (a == b))
                   for a in range(len(m)) for b in range(len(m))) // 2

    def _gram(self, m, p=None):
        """The Laurent numerators of degree m, unpacked once from the packed
        recursion (class docstring), or the block mod p."""
        if p:
            return self._ring_gram(m, p)
        m = tuple(m)
        if m not in self._exact:
            index, packed = self._packed(m)
            self._exact[m] = index, self._unpack(m, packed)
        return self._exact[m]

    def _packed(self, m):
        """(word index, packed block) of degree m at a width that unpacks
        it: a degree that needs more doubles the width and drops every
        packed block built so far (class docstring)."""
        need = prod(map(factorial, m))
        if need >> self._bits:
            while need >> self._bits:
                self._bits *= 2
            self._gram_cache = {k: v for k, v in self._gram_cache.items()
                                if k[1]}
        return self._ring_gram(m)

    def _unpack(self, m, packed) -> np.ndarray:
        """The Laurent numerators of degree m packed in the int array
        `packed` (from `_packed`), in its shape."""
        out = np.empty(packed.size, object)
        out[:] = kronecker_unpack(packed.ravel().tolist(), self._bits,
                                  self._g * self._low(m), self._g)
        return out.reshape(packed.shape)

    def numerators_on(self, m, words) -> np.ndarray:
        """The Laurent numerators of degree m on the rows and columns of
        words, unpacked from that sub-block of the packed block alone."""
        m = tuple(m)
        index, packed = self._packed(m)
        cols = [index[w] for w in words]
        return self._unpack(m, packed[np.ix_(cols, cols)])

    def _residue(self, entry: LaurentPoly, p: int) -> int:
        """The value of a Laurent polynomial at v = MOD_P_V, mod p."""
        return entry.residue(MOD_P_V, p)

    def denominator(self, m) -> LaurentPoly:
        """prod_i (q_i - q_i^{-1})^{m_i}, q_i = q^{d_i}: the denominator of
        the pairing on degree m."""
        m = tuple(m)
        out = self._denominators.get(m)
        if out is None:
            out = LaurentPoly.one()
            for di, k in zip(self.cd.d, m):
                if k:
                    out = out * v_difference(exponent_to_int(di, self.D)) ** k
            self._denominators[m] = out
        return out

    def gram_block(self, m) -> GramBlock:
        m = tuple(m)
        if m not in self._block:
            self._block[m] = GramBlock(
                basis=enumerate_words(m),
                numerators=tuple(map(tuple, self._gram(m)[1])),
                denominator=self.denominator(m))
        return self._block[m]

    # -- kernels and the quotient ------------------------------------------

    def kernel_block(self, m) -> KernelBasis:
        m = tuple(m)
        if m in self._kernel:
            return self._kernel[m]
        found = self._from_ideal(m)
        if found is None:
            found = certified_laurent_nullspace(
                self.gram_block(m).numerators, _normalize_poly_vector,
                self.p, EVAL_POINTS)
        rank, pivots, vectors = found
        words = enumerate_words(m)
        self._set_reduction(m, words, pivots, vectors, QScalar)
        els = tuple(combination({w: QScalar(p) for w, p in zip(words, vec)
                                 if p}) for vec in vectors)
        kb = KernelBasis(vectors=els, quotient_dim=rank)
        self._kernel[m] = kb
        return kb

    def _solve(self, m) -> None:
        self.kernel_block(m)

    def _from_ideal(self, m):
        """(rank, pivots, vectors) of degree m where the ideal fills it, else
        None.  The rank r mod p is at most the generic rank (specializing is
        a ring homomorphism), and #words - r independent exact kernel
        vectors (`_propagated`) span the kernel.  A check G_p r = 0 mod p on
        their residues sends a corrupted cached vector to the Gram side."""
        p = self.p
        index, gram = self._ring_gram(m, p)
        rank, echelon = rank_mod_p(gram, p)
        known = self._propagated(m)
        if len(index) - rank != len(known):
            return None
        pivots = [int(np.flatnonzero(row)[0]) for row in echelon]
        vectors = []
        if known:
            vectors = kernel_side_basis(known, pivots, _normalize_poly_vector)
            if vectors is None:
                return None
        for v in vectors:
            r = np.array([self._residue(e, p) for e in v], np.int64)
            # reduce each product: a sum of unreduced ones overflows int64
            if ((gram * r % p).sum(axis=1) % p).any():
                return None
        return rank, pivots, vectors

    def _propagated(self, m):
        """An independent subset of the vectors (i,) + k and k + (i,), for k
        over the exact kernels one letter down that are already certified
        (none is computed here).  The relations form a two-sided ideal, so
        these lie in the kernel of degree m; vectors whose residues at the
        fixed point are independent mod p are independent over Q(v).  Words
        are indexed by the mod-p block: nothing is unpacked."""
        index = self._ring_gram(m, self.p)[0]
        zero = LaurentPoly.zero()
        found = []
        for prev, cols in self._letter_maps(m, index):
            for k in self._vectors.get(prev, ()):
                vec = [zero] * len(index)
                for c, e in zip(cols, k):
                    vec[c] = e
                found.append(vec)
        if not found:
            return []
        residues = [[self._residue(e, self.p) for e in v] for v in found]
        echelon = rank_mod_p(np.array(residues, np.int64).T, self.p)[1]
        return [found[int(np.flatnonzero(row)[0])] for row in echelon]

    # -- quantum Serre elements ---------------------------------------------

    def quantum_serre_element(self, i: int, j: int) -> tuple:
        """sum_m (-1)^m / ([m]_i! [1-a_ij-m]_i!) E_i^{1-a_ij-m} E_j E_i^m,
        a combination of words (`freealg.combination`)."""
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
        return combination(terms)

    def verify_serre_in_kernel(self, i: int, j: int) -> bool:
        """True iff the Serre element pairs to zero against all its degree."""
        el = self.quantum_serre_element(i, j)
        for z in enumerate_words(word_degree(el[0][0], self.cd.n)):
            acc = QScalar.zero()
            for w, c in el:
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
            return QScalar(LaurentPoly.one(),
                           self.denominator(unit_degree(self.cd.n, a[1])))
        return QScalar.zero()
