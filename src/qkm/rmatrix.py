"""Dual bases under the Drinfeld pairing, the truncated R-matrix on tensor
products of category-O modules, braid operators, and Yang-Baxter checks.

The braiding acts blockwise on total-weight components of tensor products.
On v (x) w of weights mu, nu it is q^{(mu, nu)} times the sum over graded
pieces of (dual negative-side basis acting on the first factor) tensor
(positive-side word basis acting on the second factor); on a pair of
highest weight vectors only the scalar q^{(mu, nu)} survives.  Truncation
is exact on category-O blocks because raising out of the cone vanishes.

R is a `freealg.PairOperator`: its image of each basis pair is computed
once, and its blocks on V (x) W and the braid generators sigma R on
V^(x k) are lifts of that one operator (the latter with the sites flipped).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .cartan import weight_form
from .freealg import (
    FreeElement,
    PairOperator,
    add_tensor_terms,
    tensor_block_basis,
    total_degree,
)
from .linalg import invert
from .qmodules import WeightModule
from .qpairing import DrinfeldPairing
from .scalars import QScalar, q_power

# The negative-side partner of an E-word keeps the letter order (the
# letterwise algebra mirror E_i -> F_i), so the duality reads
# B(u_a, mirror(v_b)) = delta_ab.  Validated by the exact Yang-Baxter check:
# on sl3 tensor cubes the braid relation holds only for this choice, while
# the reversed (antiautomorphism) mirror fails on multi-letter blocks.  The
# regression test for the rejected convention lives in the test suite.
MIRROR_REVERSES = False


@dataclass(frozen=True)
class DualBasisPair:
    """Bases of the positive piece and its pairing-dual negative piece."""

    degree: tuple
    u_basis: tuple          # E-words (the surviving pivot words)
    v_basis: tuple          # FreeElements in f-words with QScalar coefficients


def dual_bases(beta, pairing: DrinfeldPairing) -> DualBasisPair:
    """u-basis and v-basis with B(u_a, omega(v_b)) = delta_ab exactly."""
    beta = tuple(beta)
    if beta in pairing._dual:
        return pairing._dual[beta]
    words = pairing.quotient_basis(beta)
    gram = [[pairing.pair_words(a, b) for b in words] for a in words]
    try:
        inv = invert(gram, QScalar.one())
    except ValueError:
        raise ArithmeticError("quotient Gram block is singular; the pairing "
                              "must be nondegenerate on the quotient")
    v_els = []
    for b in range(len(words)):
        terms = {}
        for a, w in enumerate(words):
            coeff = inv[a][b]
            if coeff:
                key = tuple(reversed(w)) if MIRROR_REVERSES else w
                terms[key] = terms.get(key, QScalar.zero()) + coeff
        v_els.append(FreeElement.from_dict(beta, terms))
    pair = DualBasisPair(beta, words, tuple(v_els))
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
        super().__init__(V, W, self._r_terms)
        self.pairing = pairing

    def _r_terms(self, mV, a, mW, b):
        V, W = self.V, self.W
        out = {(mV, a, mW, b): QScalar.one()}
        vecW = W.unit(mW, b)
        vecV = V.unit(mV, a)
        for beta in _betas_below(mW):
            db = dual_bases(beta, self.pairing)
            tV = tuple(x + y for x, y in zip(mV, beta))
            for u, v in zip(db.u_basis, db.v_basis):
                tW, imgW = W.apply_e_word(u, mW, vecW)
                if all(not c for c in imgW):
                    continue
                imgV = V.apply_combo(v.terms, mV, vecV, raising=False)
                if imgV is not None:
                    add_tensor_terms(out, tV, imgV, tW, imgW)
        cartan = q_power(weight_form(V.weight_at(mV), W.weight_at(mW), V.cd),
                         V.D)
        return [(k2, cartan * v) for k2, v in out.items() if v]


# -- braid operators on tensor powers -----------------------------------------


def total_offsets(V: WeightModule, k: int):
    """All total offsets of V^(x k) with a nonzero block, graded order."""
    sums = {(0,) * V.cd.n: 1}
    occupied = [m for m in V.offsets() if V.dim(m)]
    for _ in range(k):
        new = {}
        for t in sums:
            for m in occupied:
                s = tuple(a + b for a, b in zip(t, m))
                new[s] = 1
        sums = new
    return sorted(sums, key=lambda t: (total_degree(t), t))


class BraidOperator:
    """sigma_i composed with R_{i,i+1} on a total-weight block of V^(x k),
    for an R on V (x) V shared by every generator and block."""

    def __init__(self, r: TruncatedR, k: int, i: int):
        if not (0 <= i < k - 1):
            raise ValueError("strand index out of range")
        self.r = r
        self.k = k
        self.i = i

    def block(self, total):
        basis = tensor_block_basis((self.r.V,) * self.k, total)
        return basis, self.r.lift(basis, self.i, self.i + 1, flip=True)


def _mat_mul(A, B, zero):
    rows = len(A)
    inner = len(B)
    cols = len(B[0]) if inner else 0
    out = [[zero] * cols for _ in range(rows)]
    for r in range(rows):
        Ar = A[r]
        for k in range(inner):
            a = Ar[k]
            if not a:
                continue
            Bk = B[k]
            row = out[r]
            for c in range(cols):
                if Bk[c]:
                    row[c] = row[c] + a * Bk[c]
    return out


@dataclass(frozen=True)
class YangBaxterReport:
    blocks: tuple            # (total_offset, dimension, holds) triples
    holds: bool


def check_ybe(V: WeightModule, totals=None) -> YangBaxterReport:
    """Exact braid-relation check for sigma R on V^(x 3), blockwise, with
    the R of the module's own pairing."""
    r = TruncatedR(V, V, V.engine)
    b1 = BraidOperator(r, 3, 0)
    b2 = BraidOperator(r, 3, 1)
    if totals is None:
        totals = total_offsets(V, 3)
    results = []
    all_ok = True
    zero = QScalar.zero()
    for total in totals:
        basis, m1 = b1.block(total)
        _, m2 = b2.block(total)
        if not basis:
            continue
        lhs = _mat_mul(_mat_mul(m1, m2, zero), m1, zero)
        rhs = _mat_mul(_mat_mul(m2, m1, zero), m2, zero)
        ok = lhs == rhs
        all_ok = all_ok and ok
        results.append((total, len(basis), ok))
    return YangBaxterReport(blocks=tuple(results), holds=all_ok)
