"""The classical side: graded dimensions of the quotient algebra, root
multiplicities, the Weyl-Kac oracles, and the Casimir two-tensor.

The relation ideal of U(n+) is extracted from the contravariant (Shapovalov
type) Gram blocks at an indeterminate highest weight: the form on free
f-words with formal values x_i = lambda(h_i) has, generically, exactly the
relation space as its null space, and that null space is defined over Q.
Module construction reads these certified kernels.  The form obeys the
recursion of the Drinfeld pairing with the factor x_i - sum_{u > t} a_{i z_u}
in place of a power of v, so `ShapovalovForm` states only that factor
(`_factor`, over Q[x_1..x_n] or mod p) and the reduction of a polynomial to
F_p at the weight x_i = MOD_P_WEIGHT^(i + 1) (`_residue`); the one column
recursion of `qpairing.GradedForm` builds its Gram blocks.  Graded
dimensions and root multiplicities come from the dimension certificate of
`GradedForm`: the form mod p at that weight bounds each dimension from
below, the ideal generated by the kernels one letter down bounds it from
above, and a kernel is computed only where the two differ.  The two forms
share the recursion, not its factor: the classical values never pass
through Q(v), which is what gives the flat-deformation comparison its
content.  The Casimir engine reads root-space bases and their duals off the
same Gram blocks, certifying no kernel: x y v = (x | y)(lambda, beta) v for
x, y in n+-_beta, and (x | y) pairs n+_beta with n-_beta nondegenerately.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, partial
from math import factorial, prod

from .cartan import CartanDatum, highest_weight, weight_form
from .freealg import (
    PairOperator,
    add_pair_image,
    enumerate_words,
    total_degree,
    unit_degree,
)
from .linalg import certified_rational_nullspace, invert, rref
from .qpairing import GradedForm, degrees_upto
from .scalars import rational_residue

# the classical point of the dimension certificate: the weight with
# x_i = MOD_P_WEIGHT^(i + 1) mod p
MOD_P_WEIGHT = 1000033


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

    The entry for words x, z is the coefficient of the highest weight
    vector in e_x f_z v, with x_i = lambda(h_i) left formal.  Straightening
    the first raising generator e_i of x through the f-word z gives the
    recursion of `GradedForm`, peeling the first letter, with the factor
    x_i - sum of a_iu over the letters u after the struck one.
    """

    one = Fraction(1)
    zero = Fraction(0)
    _peels_first = True

    @cached_property
    def _ring_one(self) -> PolyN:
        return PolyN.constant(self.cd.n, 1)

    def pair_words(self, x, z) -> PolyN:
        return self._pair(x, z, PolyN(self.cd.n))

    def _factor(self, i, tail, p=None):
        """x_i - sum of a_iu over the letters u of the tail, or its value at
        the weight x_j = MOD_P_WEIGHT^(j + 1) mod p."""
        shift = sum(a * k for a, k in zip(self.cd.A[i], tail))
        if p:
            return (pow(MOD_P_WEIGHT, i + 1, p) - rational_residue(shift, p)) % p
        return PolyN.variable(self.cd.n, i) - shift

    def _residue(self, entry, p: int) -> int:
        """The value of a polynomial (or of a rational kernel coordinate) at
        the weight x_j = MOD_P_WEIGHT^(j + 1), mod p."""
        if not isinstance(entry, PolyN):
            entry = PolyN.constant(self.cd.n, entry)
        x = [pow(MOD_P_WEIGHT, j + 1, p) for j in range(self.cd.n)]
        return sum(rational_residue(c, p)
                   * prod(pow(xj, k, p) for xj, k in zip(x, e))
                   for e, c in entry.terms.items()) % p

    def block(self, m):
        """(words, matrix) of degree m, entries in the polynomial ring."""
        m = tuple(m)
        if m not in self._block:
            self._block[m] = (enumerate_words(m), self._gram(m)[1].tolist())
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
    form = form or ShapovalovForm(cd)
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


class CasimirEngine:
    """Dual bases of the positive and negative root spaces under the
    invariant form, and the resulting two-site Casimir action.

    Only the form's Gram blocks are read, by two facts: x y v = [x, y] v =
    (x | y)(lambda, beta) v on the highest weight vector for x in n+_beta,
    y in n-_beta, with (lambda, beta) = sum_i beta_i d_i x_i; and (x | y)
    pairs n+_beta with n-_beta nondegenerately (Kac, Thm 2.2).  So a
    bracket vanishes exactly when its pairings with all brackets do.
    """

    def __init__(self, cd: CartanDatum, form: ShapovalovForm | None = None):
        self.cd = cd
        self.form = form or ShapovalovForm(cd)
        self._spaces: dict = {}

    def _pairings(self, beta, e_combos, f_combos):
        """(x | y) for x over e_combos and y over f_combos, combos of words
        of degree beta: their Gram entry over (lambda, beta).  The form's
        row word acts first letter first, so x's words are read reversed."""
        n = self.cd.n
        words, mat = self.form.block(beta)
        index = {w: c for c, w in enumerate(words)}
        line = PolyN(n, {unit_degree(n, i): b * d
                         for i, (b, d) in enumerate(zip(beta, self.cd.d))})
        unit, scale = next(iter(line.terms.items()))
        out = []
        for x in e_combos:
            rows = [(mat[index[w[::-1]]], c) for w, c in x.items()]
            out.append([])
            for y in f_combos:
                entry = sum((row[index[z]] * (c * c2) for row, c in rows
                             for z, c2 in y.items()), PolyN(n))
                ratio = Fraction(entry.terms.get(unit, 0)) / scale
                if entry != line * ratio:
                    raise AssertionError(f"the pairing at {beta} is not a "
                                         "multiple of (lambda, beta)")
                out[-1].append(ratio)
        return out

    def _root_space(self, beta):
        """(basis, dual pairs) at beta; see `root_basis`.  A degree without
        candidates builds no Gram block."""
        if beta not in self._spaces:
            cands = [{(beta.index(1),): Fraction(1)}] if sum(beta) == 1 else []
            for i, prev in self.form._predecessors(beta):
                for combo in (self.root_basis(prev) if any(prev) else ()):
                    cand = {}
                    for w, c in combo.items():
                        cand[w + (i,)] = cand.get(w + (i,), 0) + c
                        cand[(i,) + w] = cand.get((i,) + w, 0) - c
                    cands.append(cand)
            gram = self._pairings(beta, cands, cands) if cands else []
            keep = rref(list(zip(*gram)))[1]
            basis = [cands[a] for a in keep]
            inv = invert([[gram[a][b] for b in keep] for a in keep])
            pairs = []
            for b, x in enumerate(basis):
                fdual = {}
                for a, y in enumerate(basis):
                    if inv[a][b]:
                        for w, c in y.items():
                            fdual[w] = fdual.get(w, 0) + c * inv[a][b]
                pairs.append((x, {w: c for w, c in fdual.items() if c}))
            self._spaces[beta] = basis, pairs
        return self._spaces[beta]

    def root_basis(self, beta):
        """A basis of n+_beta: the left-normed brackets [x, e_i], x over the
        basis at beta - 1_i (e_i itself at a simple root), whose rows of
        pairings against all of them are independent, in order."""
        return self._root_space(tuple(beta))[0]

    def invariant_form(self, beta, pos_index: int, f_combo) -> Fraction:
        """(x, y) for x the pos_index-th root basis element of degree beta
        and y a combo of f-words of the same degree."""
        x = self.root_basis(beta)[pos_index]
        return self._pairings(beta, [x], [f_combo])[0][0]

    def dual_root_pairs(self, beta):
        """Pairs (e-combo, f-combo) with (e_a, f-dual_b) = delta_ab; the
        f-side mirrors the brackets letterwise, and the duals come from
        inverting the pairing on the basis."""
        return self._root_space(tuple(beta))[1]

    def pair_action(self, V, W, mV: tuple, a: int, mW: tuple, b: int):
        """Casimir action on a single product basis vector v_a (x) w_b.

        Returns a list of ((offset_V, r, offset_W, s), Fraction) terms,
        including the diagonal Cartan contribution (mu, nu).  Each root pair
        adds e (x) f, raising the V site by beta, and f (x) e, lowering it
        (`freealg.add_pair_image`).  Roots run up to the shallower depth: a
        deeper one moves a site out of its cone or past its depth.
        """
        key = (mV, a, mW, b)
        out = {}
        cart = weight_form(V.weight_at(mV), W.weight_at(mW), self.cd)
        if cart:
            out[key] = cart
        for beta in degrees_upto(self.cd.n, min(V.depth, W.depth)):
            for e, f in self.dual_root_pairs(beta):
                add_pair_image(out, V, W, key, e.items(), f.items(), True)
                add_pair_image(out, V, W, key, f.items(), e.items(), False)
        return [(key, val) for key, val in out.items() if val]


class CasimirTensor(PairOperator):
    """The Casimir tensor on V (x) W of classical modules: the two-site
    operator whose `pair_terms` (Fraction values) are
    `CasimirEngine.pair_action` over the dual root bases of V's form."""

    def __init__(self, V, W):
        if V.kind != "classical" or W.kind != "classical":
            raise ValueError("the Casimir tensor acts on classical modules")
        engine = CasimirEngine(V.cd, form=V.engine)
        super().__init__(V, W, partial(engine.pair_action, V, W))


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
    lam = highest_weight(highest, cd)
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
