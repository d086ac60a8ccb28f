"""Dual bases under the Drinfeld pairing, the truncated R-matrix on tensor
products of category-O modules, braid operators, and Yang-Baxter checks.

The braiding acts blockwise on total-weight components of tensor products.
On v (x) w of weights mu, nu it is q^{(mu, nu)} times the sum over graded
pieces of (dual negative-side basis acting on the first factor) tensor
(positive-side word basis acting on the second factor); on a pair of
highest weight vectors only the scalar q^{(mu, nu)} survives.  Truncation
is exact on category-O blocks because raising out of the cone vanishes.

R is a `freealg.PairOperator`: its image of each basis pair is computed
once, and its blocks on V (x) W and the braid generators sigma R on V^(x k)
are sparse lifts of that one operator (the latter with the sites flipped);
a `BraidOperator` lifts every generator of a block onto one basis.  The
word images that make up R's terms (E-words on W, dual F-combinations on
V) are computed once per module (`WeightModule.image`) and shared by every
basis pair that reaches them, through `freealg.add_pair_image`.

The braid relation is decided without field arithmetic.  On each block the
two generators m1, m2 are scaled by one common c in Z[v], the lcm of their
entries' denominators, so N = c m has entries in Z[v^+-1] and
m1 m2 m1 = m2 m1 m2 exactly when N1 N2 N1 = N2 N1 N2.  Each entry of N is
then replaced by its Kronecker image, the integer value of v^(-lo) N at
v^s = 2^b, where lo is the least exponent in N1 and N2 and every exponent
lies in lo + s Z.  With d the block dimension and M the largest sum of
|coefficients| of an entry, every coefficient of either triple product is
at most d^2 M^3 in absolute value, so for 2^(b-1) > 2 d^2 M^3 their
difference vanishes at 2^b only if it is zero: equal integer products prove
the identity over Q(v).  The layout (lo, s, b) comes from
`scalars.kronecker_layout`, which the kernel certificate of `linalg` uses
too, with its own bound.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import product

from .cartan import session_denominator, weight_form
from .freealg import (
    MAX_COMPONENT_DIM,
    PairOperator,
    ResourceLimitError,
    add_pair_image,
    combination,
    tensor_block_basis,
    total_degree,
)
from .linalg import invert
from .qmodules import WeightModule
from .qpairing import DrinfeldPairing
from .scalars import (
    DenominatorError,
    LaurentPoly,
    QScalar,
    kronecker_layout,
    one_norm,
    poly_lcm,
    q_power,
)

# The negative-side partner of an E-word keeps the letter order (the
# letterwise algebra mirror E_i -> F_i), so the duality reads
# B(u_a, mirror(v_b)) = delta_ab.  Validated by the exact Yang-Baxter check:
# on sl3 tensor cubes the braid relation holds only for this choice, while
# the reversed (antiautomorphism) mirror fails on multi-letter blocks.  The
# regression test for the rejected convention lives in the test suite.
MIRROR_REVERSES = False


@dataclass(frozen=True)
class DualBasisPair:
    """Bases of the positive piece of degree beta (`dual_bases(beta, ...)`)
    and its pairing-dual negative piece."""

    u_basis: tuple          # E-words (the surviving pivot words)
    v_basis: tuple          # combinations of f-words, QScalar coefficients


def dual_bases(beta, pairing: DrinfeldPairing) -> DualBasisPair:
    """u-basis and v-basis with B(u_a, omega(v_b)) = delta_ab exactly."""
    beta = tuple(beta)
    if beta in pairing._dual:
        return pairing._dual[beta]
    words = pairing.quotient_basis(beta)
    # the block is N / den for the numerators N, so its inverse is den N^-1
    try:
        inv = invert([[QScalar(x) for x in row]
                      for row in pairing.numerators_on(beta, words)],
                     QScalar.one())
    except ValueError:
        raise ArithmeticError("quotient Gram block is singular; the pairing "
                              "must be nondegenerate on the quotient")
    den = QScalar(pairing.denominator(beta))
    inv = [[x * den if x else x for x in row] for row in inv]
    v_els = []
    for b in range(len(words)):
        terms = {}
        for a, w in enumerate(words):
            coeff = inv[a][b]
            if coeff:
                key = tuple(reversed(w)) if MIRROR_REVERSES else w
                terms[key] = terms.get(key, QScalar.zero()) + coeff
        v_els.append(combination(terms))
    pair = DualBasisPair(words, tuple(v_els))
    pairing._dual[beta] = pair
    return pair


def _betas_below(bound):
    ranges = [range(b + 1) for b in bound]
    for beta in product(*ranges):
        if any(beta):
            yield beta


class TruncatedR(PairOperator):
    """The braiding operator R on V (x) W: the two-site operator whose
    `pair_terms` (QScalar values) come from the dual bases of the pairing,
    times the Cartan factor q^{(mu, nu)} of the input pair."""

    def __init__(self, V: WeightModule, W: WeightModule, pairing: DrinfeldPairing):
        if V.kind != "quantum" or W.kind != "quantum":
            raise ValueError("the R-matrix acts on quantum modules")
        if V.D != pairing.D or W.D != pairing.D:
            raise ValueError("modules and pairing disagree on the session "
                             "denominator")
        # q^{(mu, nu)} needs a finer grid than the modules' own relations
        need = session_denominator(V.cd, [V.highest, W.highest])
        if pairing.D % need:
            raise DenominatorError(f"session denominator too small for R: "
                                   f"needs a multiple of D = {need}")
        super().__init__(V, W, self._r_terms)
        self.pairing = pairing

    def _r_terms(self, mV, a, mW, b):
        V, W = self.V, self.W
        key = (mV, a, mW, b)
        one = QScalar.one()
        out = {key: one}
        for beta in _betas_below(mW):
            db = dual_bases(beta, self.pairing)
            for u, v in zip(db.u_basis, db.v_basis):
                add_pair_image(out, V, W, key, v, ((u, one),), False)
        cartan = q_power(weight_form(V.weight_at(mV), W.weight_at(mW), V.cd),
                         V.D)
        return [(k2, cartan * v) for k2, v in out.items() if v]


# -- braid operators on tensor powers -----------------------------------------


def total_offsets(V: WeightModule, k: int):
    """All total offsets of V^(x k) with a nonzero block, graded order.  The
    block dimensions (V's character convolved k times) never shrink as
    factors are added, so the first one over the component cap is refused."""
    dims = {(0,) * V.cd.n: 1}
    for _ in range(k):
        new = Counter()
        for (t, a), (m, b) in product(dims.items(), V.occupied):
            new[tuple(x + y for x, y in zip(t, m))] += a * b
        dims = new
        if max(dims.values()) > MAX_COMPONENT_DIM:
            raise ResourceLimitError(
                f"V^(x {k}) has a block of dimension at least "
                f"{max(dims.values())} (cap {MAX_COMPONENT_DIM})")
    return sorted(dims, key=lambda t: (total_degree(t), t))


class BraidOperator:
    """The generators sigma_i R_{i,i+1} (i < k) on total-weight blocks of
    V^(x k), for an R on V (x) V shared by every generator and block."""

    def __init__(self, r: TruncatedR, k: int):
        self.r = r
        self.k = k

    def block(self, total):
        """(basis, [sigma_1 R, ..., sigma_{k-1} R]) on one block, each
        generator as sparse rows over that one basis."""
        basis = tensor_block_basis((self.r.V,) * self.k, total)
        return basis, [self.r.lift(basis, i, i + 1, flip=True)
                       for i in range(self.k - 1)]


def _mat_mul(A, B):
    """Product of matrices stored as lists of sparse rows {column: value};
    entries that cancel are dropped, so equal products compare equal."""
    out = []
    for Ar in A:
        row = {}
        for k, a in Ar.items():
            for c, b in B[k].items():
                row[c] = row.get(c, 0) + a * b
        out.append({c: x for c, x in row.items() if x})
    return out


@dataclass(frozen=True)
class YangBaxterReport:
    blocks: tuple            # (total_offset, dimension, holds) triples

    @property
    def holds(self) -> bool:
        return all(ok for _, _, ok in self.blocks)


def _cleared(m1, m2):
    """c m1 and c m2 for sparse rows m1, m2, with entries in Z[v^+-1], for
    c the lcm in Z[v] of the entries' denominators."""
    dens = {x.den for m in (m1, m2) for row in m for x in row.values()}
    lcm = LaurentPoly.one()
    for den in dens:
        lcm = poly_lcm(lcm, den)
    cofactor = {den: lcm.exact_div(den) for den in dens}
    return [[{c: x.num * cofactor[x.den] for c, x in row.items()}
             for row in m] for m in (m1, m2)]


def _braid_relation_holds(m1, m2) -> bool:
    """m1 m2 m1 == m2 m1 m2 over Q(v), decided on the Kronecker images of the
    cleared sparse rows (the module docstring gives the bound)."""
    n1, n2 = _cleared(m1, m2)
    polys = [p for n in (n1, n2) for row in n for p in row.values()]
    norm = max(map(one_norm, polys))
    bits, (lo,), step = kronecker_layout([polys], 2 * len(m1) ** 2 * norm ** 3)
    k1, k2 = ([{c: p.kronecker(bits, lo, step) for c, p in row.items()}
               for row in n] for n in (n1, n2))
    return _mat_mul(_mat_mul(k1, k2), k1) == _mat_mul(_mat_mul(k2, k1), k2)


def check_ybe(V: WeightModule, totals=None) -> YangBaxterReport:
    """Exact braid-relation check for sigma R on V^(x 3), blockwise, with
    the R of the module's own pairing.  Each block's two generators are
    cleared of denominators by one common scalar and compared as products
    of Kronecker-packed integer matrices, with the packing width chosen so
    that equal integers prove equal Laurent polynomials."""
    braid = BraidOperator(TruncatedR(V, V, V.engine), 3)
    if totals is None:
        totals = total_offsets(V, 3)
    results = []
    for total in totals:
        basis, (m1, m2) = braid.block(total)
        if not basis:
            continue
        ok = _braid_relation_holds(m1, m2)
        results.append((total, len(basis), ok))
    return YangBaxterReport(tuple(results))
