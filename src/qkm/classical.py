"""The classical side: graded dimensions of the quotient algebra, root
multiplicities, the Weyl-Kac oracles, and the Casimir two-tensor.

The relation ideal of U(n+) is extracted from the contravariant (Shapovalov
type) Gram blocks at an indeterminate highest weight: the form on free
f-words with formal values x_i = lambda(h_i) has, generically, exactly the
relation space as its null space, and that null space is defined over Q.
Everything classical (graded dimensions, root multiplicities, module
construction) derives from these certified kernels, computed independently
of the quantum pairing (the two engines share only the bookkeeping of
`qpairing.GradedForm`), which is what gives the flat-deformation
comparison its content.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import factorial

from .cartan import CartanDatum, Weight, weight_form
from .freealg import (
    enumerate_words,
    lift_pair_action,
    tensor_block_basis,
    total_degree,
    word_degree,
)
from .linalg import certified_rational_nullspace, invert, matrix_rank
from .qpairing import GradedForm, degrees_upto


class PolyN:
    """A polynomial in n commuting variables over Q (dict exponent -> coeff)."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = n
        clean = {}
        for e, c in (terms or {}).items():
            if c:
                clean[tuple(e)] = c
        self.terms = clean

    @staticmethod
    def constant(n: int, c) -> "PolyN":
        return PolyN(n, {(0,) * n: c})

    @staticmethod
    def variable(n: int, i: int) -> "PolyN":
        return PolyN(n, {tuple(int(k == i) for k in range(n)): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, PolyN) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __neg__(self):
        return PolyN(self.n, {e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PolyN.constant(self.n, other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return PolyN(self.n, out)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PolyN.constant(self.n, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return PolyN(self.n)
            return PolyN(self.n, {e: c * other for e, c in self.terms.items()})
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return PolyN(self.n, out)

    __rmul__ = __mul__

    def evaluate(self, point) -> Fraction:
        total = Fraction(0)
        for e, c in self.terms.items():
            val = Fraction(c)
            for x, k in zip(point, e):
                if k:
                    val *= Fraction(x) ** k
            total += val
        return total

    def complexity(self):
        return (len(self.terms),)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(f"x{i + 1}^{k}" if k > 1 else f"x{i + 1}"
                            for i, k in enumerate(e) if k)
            parts.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(parts)


def _weight_points(n: int):
    """Deterministic stream of rational weight points used for certification."""
    primes = [101, 157, 211, 263, 317, 373, 433, 487, 547, 601, 659, 733]
    for k in range(len(primes)):
        yield tuple(Fraction(primes[(k + 3 * i) % len(primes)] + 7 * k,
                             2 + (k + i) % 4) for i in range(n))


class ShapovalovForm(GradedForm):
    """Contravariant Gram blocks at an indeterminate highest weight.

    The entry for words x, z is computed by straightening: applying the
    raising generators of x (left to right) to the f-word z and reading the
    coefficient of the highest weight vector, with lambda(h_i) left formal.
    """

    one = Fraction(1)
    zero = Fraction(0)

    def pair_words(self, x, z) -> PolyN:
        if word_degree(x, self.cd.n) != word_degree(z, self.cd.n):
            return PolyN(self.cd.n)
        return self._pair_rec(tuple(x), tuple(z))

    def _pair_rec(self, x, z) -> PolyN:
        n = self.cd.n
        if not x:
            return PolyN.constant(n, 1)
        key = (x, z)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        i = x[0]
        rest = x[1:]
        A = self.cd.A
        acc = PolyN(n)
        suffix = [Fraction(0)] * (len(z) + 1)
        for u in range(len(z) - 1, -1, -1):
            suffix[u] = suffix[u + 1] + A[i][z[u]]
        for t, letter in enumerate(z):
            if letter != i:
                continue
            sub = self._pair_rec(rest, z[:t] + z[t + 1:])
            if sub.is_zero():
                continue
            coeff = PolyN.variable(n, i) - PolyN.constant(n, suffix[t + 1])
            acc = acc + coeff * sub
        self._memo[key] = acc
        return acc

    def block(self, m):
        m = tuple(m)
        if m in self._block:
            return self._block[m]
        self._check_cap(m)
        words = enumerate_words(m)
        mat = [[self.pair_words(x, z) for z in words] for x in words]
        self._block[m] = (words, mat)
        return self._block[m]

    def kernel(self, m):
        """(quotient dim, rational kernel vectors, pivot columns)."""
        m = tuple(m)
        if m not in self._kernel:
            words, mat = self.block(m)
            rank, pivots, basis = certified_rational_nullspace(
                mat, _weight_points(self.cd.n), PolyN.evaluate)
            self._set_reduction(m, words, pivots, basis, Fraction)
            self._kernel[m] = (rank, basis, pivots)
        return self._kernel[m]

    def _solve(self, m) -> None:
        self.kernel(m)

    def generic_block(self, m):
        """The Gram block at a certified-generic rational weight.

        Returns (weight point, Fraction matrix); the point is the first in
        the deterministic stream whose specialized rank equals the generic
        rank, so the null space dimension equals the relation space
        dimension at this multidegree.
        """
        m = tuple(m)
        words, mat = self.block(m)
        rank = self.quotient_dim(m)
        for pt in _weight_points(self.cd.n):
            spec = [[e.evaluate(pt) for e in row] for row in mat]
            if matrix_rank(spec) == rank:
                return pt, spec
        raise RuntimeError("no weight point matched the generic rank")


def normalized_classical_block(m, cd: CartanDatum, form: ShapovalovForm | None = None):
    """The classical contravariant Gram block as an exact rational matrix.

    Evaluated at a deterministic generic weight certified to preserve the
    generic rank; its null space dimension equals the dimension of the
    relation space in this multidegree.
    """
    form = form or ShapovalovForm(cd)
    return form.generic_block(m)[1]


# -- root multiplicities -----------------------------------------------------


def _gen_binom(e: int, j: int) -> int:
    """Generalized binomial coefficient C(e, j) for any integer e."""
    num = 1
    for k in range(j):
        num *= e - k
    return num // factorial(j)


def _series_mul_binom(series, beta, exponent: int, cap: int):
    """Multiply a truncated Z^n-graded series by (1 - t^beta)^exponent."""
    if exponent == 0:
        return series
    out = {}
    step = total_degree(beta)
    for offset, coeff in series.items():
        room = (cap - total_degree(offset)) // step
        for j in range(room + 1):
            factor = (-1) ** j * _gen_binom(exponent, j)
            if factor:
                target = tuple(a + j * b for a, b in zip(offset, beta))
                out[target] = out.get(target, 0) + coeff * factor
    return {k: v for k, v in out.items() if v}


def root_multiplicities(cd: CartanDatum, max_total_degree: int,
                        form: ShapovalovForm | None = None):
    """dim of the positive root space per root, from the graded quotient
    dimensions by Poincare-Birkhoff-Witt inversion."""
    form = form or ShapovalovForm(cd, degree_cap=max_total_degree)
    udims = form.quotient_dims(max_total_degree)
    series = {(0,) * cd.n: 1}
    mults = {}
    for beta in degrees_upto(cd.n, max_total_degree):
        mult = udims[beta] - series.get(beta, 0)
        mults[beta] = mult
        if mult:
            series = _series_mul_binom(series, beta, -mult, max_total_degree)
    return mults


# -- root spaces, the invariant form, and the Casimir tensor ------------------


@dataclass
class OmegaBlock:
    """The Casimir operator restricted to one total-weight block of V (x) W.

    basis entries are (offset_V, index_V, offset_W, index_W); the matrix is
    exact rational, matrix[r][c] = coefficient of basis vector r in the
    image of basis vector c.
    """

    total_offset: tuple
    basis: tuple
    matrix: list


class CasimirEngine:
    """Dual bases of the positive and negative root spaces under the
    invariant form, and the resulting two-site Casimir action.

    Root space bases are built from left-normed brackets of the generators,
    reduced modulo the relation ideal; the form is evaluated through the
    invariance recursion ([z, e_i], y) = (z, [e_i, y]) down to
    (e_i, f_j) = delta_ij / d_i.
    """

    def __init__(self, cd: CartanDatum, form: ShapovalovForm | None = None,
                 degree_cap: int = 8):
        self.cd = cd
        self.form = form or ShapovalovForm(cd, degree_cap=degree_cap)
        self.cap = degree_cap
        self._basis: dict = {}
        self._duals: dict = {}

    # root space elements are stored as (word -> Fraction) dicts plus the
    # bracket provenance (parent basis index at degree beta - 1_i, i)

    def root_basis(self, beta):
        beta = tuple(beta)
        if beta in self._basis:
            return self._basis[beta]
        n = self.cd.n
        if total_degree(beta) == 1:
            i = beta.index(1)
            out = [({(i,): Fraction(1)}, None)]
            self._basis[beta] = out
            return out
        rows = []
        out = []
        for i in range(n):
            prev = tuple(b - int(k == i) for k, b in enumerate(beta))
            if any(x < 0 for x in prev):
                continue
            for parent_idx, (combo, _) in enumerate(self.root_basis(prev)):
                cand = {}
                for w, c in combo.items():
                    cand[w + (i,)] = cand.get(w + (i,), 0) + c
                    cand[(i,) + w] = cand.get((i,) + w, 0) - c
                newrows = rows + [self.form.reduce(beta, cand.items())]
                if matrix_rank(newrows) == len(newrows):
                    rows = newrows
                    out.append((cand, (prev, parent_idx, i)))
        self._basis[beta] = out
        return out

    def _bracket_e_with_fside(self, i: int, combo):
        """[e_i, y] for y a Lie element written in f-words; the h_i terms
        must cancel, which is asserted."""
        A = self.cd.A
        pure = {}
        hview = {}
        for w, c in combo.items():
            for t, letter in enumerate(w):
                if letter != i:
                    continue
                rest = w[:t] + w[t + 1:]
                drop = -sum(Fraction(A[i][w[u]]) for u in range(t + 1, len(w)))
                if drop:
                    pure[rest] = pure.get(rest, 0) + c * drop
                hview[rest] = hview.get(rest, 0) + c
        if any(v for v in hview.values()):
            raise AssertionError("bracket left the negative nilpotent part")
        return {w: c for w, c in pure.items() if c}

    def invariant_form(self, beta, pos_index: int, f_combo) -> Fraction:
        """(x, y) for x the pos_index-th root basis element of degree beta
        and y a combo of f-words of the same degree."""
        beta = tuple(beta)
        combo, prov = self.root_basis(beta)[pos_index]
        if prov is None:
            i = beta.index(1)
            return (Fraction(combo.get((i,), 0)) * Fraction(f_combo.get((i,), 0))
                    / self.cd.d[i])
        prev, parent_idx, i = prov
        bracketed = self._bracket_e_with_fside(i, f_combo)
        if not bracketed:
            return Fraction(0)
        return self.invariant_form(prev, parent_idx, bracketed)

    def dual_root_pairs(self, beta):
        """Pairs (e-combo, f-combo) with (e_a, f-dual_b) = delta_ab.

        The f-side candidates mirror the bracket combos letterwise; the dual
        basis comes from inverting the invariant-form Gram matrix.
        """
        beta = tuple(beta)
        if beta in self._duals:
            return self._duals[beta]
        basis = self.root_basis(beta)
        if not basis:
            self._duals[beta] = []
            return []
        size = len(basis)
        gram = [[self.invariant_form(beta, a, basis[b][0]) for b in range(size)]
                for a in range(size)]
        inv = invert(gram)
        pairs = []
        for b in range(size):
            fdual = {}
            for a in range(size):
                if inv[a][b]:
                    for w, c in basis[a][0].items():
                        fdual[w] = fdual.get(w, 0) + c * inv[a][b]
            pairs.append((basis[b][0], {w: c for w, c in fdual.items() if c}))
        self._duals[beta] = pairs
        return pairs

    def pair_action(self, V, W, mV: tuple, a: int, mW: tuple, b: int):
        """Casimir action on a single product basis vector v_a (x) w_b.

        Returns a list of ((offset_V, r, offset_W, s), Fraction) terms,
        including the diagonal Cartan contribution (mu, nu).
        """
        cd = self.cd
        out = {}
        muV = V.weight_at(mV)
        muW = W.weight_at(mW)
        cart = weight_form(muV, muW, cd)
        if cart:
            out[(mV, a, mW, b)] = cart
        vecV = V.unit(mV, a)
        vecW = W.unit(mW, b)
        for beta in degrees_upto(cd.n, self.cap):
            pairs = self.dual_root_pairs(beta)
            for e_combo, f_combo in pairs:
                self._accumulate(out, V, W, mV, mW, vecV, vecW,
                                 e_combo, f_combo, beta, e_first=True)
                self._accumulate(out, V, W, mV, mW, vecV, vecW,
                                 e_combo, f_combo, beta, e_first=False)
        return [(key, val) for key, val in out.items() if val]

    def _accumulate(self, out, V, W, mV, mW, vecV, vecW, e_combo, f_combo,
                    beta, e_first: bool):
        sign = 1 if e_first else -1
        tV = tuple(x - sign * y for x, y in zip(mV, beta))
        tW = tuple(x + sign * y for x, y in zip(mW, beta))
        if any(x < 0 for x in (tV if e_first else tW)):
            return
        on_v, on_w = (e_combo, f_combo) if e_first else (f_combo, e_combo)
        resV = V.apply_combo(on_v.items(), mV, vecV, raising=e_first)
        if resV is None:
            return
        resW = W.apply_combo(on_w.items(), mW, vecW, raising=not e_first)
        if resW is None:
            return
        for r, cv in enumerate(resV):
            if not cv:
                continue
            for s, cw in enumerate(resW):
                if not cw:
                    continue
                key = (tV, r, tW, s)
                out[key] = out.get(key, Fraction(0)) + cv * cw


def casimir_omega(V, W, total_offset, engine: CasimirEngine | None = None) -> OmegaBlock:
    """The Casimir operator on the total-weight block of V (x) W."""
    if V.kind != "classical" or W.kind != "classical":
        raise ValueError("the Casimir tensor acts on classical modules")
    engine = engine or CasimirEngine(V.cd, form=V.engine,
                                     degree_cap=min(V.depth, W.depth))
    pairs = tensor_block_basis((V, W), total_offset)
    mat = [[Fraction(0)] * len(pairs) for _ in pairs]
    action = partial(engine.pair_action, V, W)
    for r, c, val in lift_pair_action(pairs, action, 0, 1, swap=False):
        mat[r][c] += val
    basis = tuple((mV, a, mW, b) for (mV, a), (mW, b) in pairs)
    return OmegaBlock(total_offset=tuple(total_offset), basis=basis, matrix=mat)


# -- Weyl-Kac oracles --------------------------------------------------------


def _weyl_numerator(cd: CartanDatum, coroot_values, cap: int):
    """sum over the Weyl group of det(w) t^(v - w(v)) truncated at |.| <= cap,
    for a dominant regular v given by its values on the coroots."""
    if not cd.is_gcm():
        raise ValueError("Weyl group machinery needs a generalized Cartan matrix")
    n = cd.n
    A = cd.A
    start = (0,) * n
    series = {}
    seen = {start}
    frontier = [(start, 1)]
    while frontier:
        new = []
        for c, sign in frontier:
            series[c] = series.get(c, 0) + sign
            for j in range(n):
                val = coroot_values[j] - sum(c[i] * A[j][i] for i in range(n))
                if val <= 0:
                    continue
                c2 = list(c)
                c2[j] += int(val)
                c2 = tuple(c2)
                if total_degree(c2) > cap or c2 in seen:
                    continue
                seen.add(c2)
                new.append((c2, -sign))
        frontier = new
    return {k: v for k, v in series.items() if v}


def weyl_kac_multiplicities(cd: CartanDatum, cap: int):
    """Root multiplicities implied by the Weyl-Kac denominator identity,
    computed purely from truncated series over the root lattice."""
    rho = [Fraction(1)] * cd.n
    target = _weyl_numerator(cd, rho, cap)
    running = {(0,) * cd.n: 1}
    mults = {}
    for beta in degrees_upto(cd.n, cap):
        m = running.get(beta, 0) - target.get(beta, 0)
        mults[beta] = m
        if m:
            running = _series_mul_binom(running, beta, m, cap)
    return mults


def weyl_kac_character(highest, cd: CartanDatum, depth: int):
    """Weight multiplicities of the irreducible with dominant integral
    highest weight, from the Weyl-Kac character formula (series quotient)."""
    lam = highest if isinstance(highest, Weight) else Weight.highest(highest, cd.n)
    vals = [lam.value_on_coroot(cd, i) for i in range(cd.n)]
    for v in vals:
        if v.denominator != 1 or v < 0:
            raise ValueError("character oracle needs a dominant integral weight")
    lam_rho = [v + 1 for v in vals]
    numer = _weyl_numerator(cd, lam_rho, depth)
    denom = _weyl_numerator(cd, [Fraction(1)] * cd.n, depth)
    # divide truncated series: denom has constant term 1
    quot = {}
    for beta in degrees_upto(cd.n, depth, include_zero=True):
        acc = numer.get(beta, 0)
        for gamma, c in denom.items():
            if c == 0 or gamma == (0,) * cd.n:
                continue
            rem = tuple(b - g for b, g in zip(beta, gamma))
            if any(x < 0 for x in rem):
                continue
            acc -= c * quot.get(rem, 0)
        if acc:
            quot[beta] = acc
    return quot
