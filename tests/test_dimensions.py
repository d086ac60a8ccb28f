"""The dimension certificate of `GradedForm.quotient_dims`: a rank mod p at
a fixed point (lower bound) against the ideal generated by the kernels one
letter down (upper bound), with the exact kernel of a degree computed only
when the two do not meet.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from qkm import classical, qpairing
from qkm.cartan import build_realization
from qkm.classical import ShapovalovForm
from qkm.freealg import enumerate_words
from qkm.linalg import matrix_rank, rank_mod_p
from qkm.qpairing import DrinfeldPairing, degrees_upto

MATRICES = {
    "sl2": [[2]],
    "sl3": [[2, -1], [-1, 2]],
    "affine": [[2, -2], [-2, 2]],
    "sl2xsl2": [[2, 0], [0, 2]],
    "rational": [[2, Fraction(-1, 2)], [Fraction(-1, 2), 2]],
    "hyperbolic": [[2, -3], [-3, 2]],
    "borcherds": [[2, -1], [-1, 0]],
}
# the exact quantum kernels at total degree 6 take seconds on these two
CROSS_CHECK_CAP = {"affine": 5, "hyperbolic": 5}


def _exact_dims(cd, cap):
    """Quotient dimensions from the exact kernels of every degree, on a
    quantum and a classical engine of their own."""
    bp = DrinfeldPairing(cd)
    sf = ShapovalovForm(cd)
    quantum, classic = {}, {}
    for m in degrees_upto(cd.n, cap):
        quantum[m] = bp.kernel_block(m).quotient_dim
        classic[m] = len(enumerate_words(m)) - len(sf.kernel(m)[1])
    return quantum, classic


def _spy_exact_kernels(monkeypatch):
    """Record the degrees whose exact kernel each engine computes."""
    seen = {DrinfeldPairing: set(), ShapovalovForm: set()}
    for cls, name in ((DrinfeldPairing, "kernel_block"),
                      (ShapovalovForm, "kernel")):
        method = getattr(cls, name)

        def spy(self, m, method=method, cls=cls):
            seen[cls].add(tuple(m))
            return method(self, m)

        monkeypatch.setattr(cls, name, spy)
    return seen


@pytest.mark.parametrize("name", sorted(MATRICES))
def test_certified_dims_equal_exact_kernel_ranks(name):
    cd = build_realization(MATRICES[name])
    cap = CROSS_CHECK_CAP.get(name, 6)
    quantum, classic = _exact_dims(cd, cap)
    assert DrinfeldPairing(cd).quotient_dims(cap) == quantum
    assert ShapovalovForm(cd).quotient_dims(cap) == classic


def test_exact_kernels_only_at_the_serre_degrees(monkeypatch):
    seen = _spy_exact_kernels(monkeypatch)
    cd = build_realization(MATRICES["affine"])
    DrinfeldPairing(cd).quotient_dims(7)
    ShapovalovForm(cd).quotient_dims(7)
    assert seen[DrinfeldPairing] == seen[ShapovalovForm] == {(1, 3), (3, 1)}


def test_non_generic_point_falls_back_to_exact_kernels(monkeypatch):
    # v = 1 makes every numerator block rank one (all entries are the
    # products of the letter factorials), and the zero weight kills the
    # contravariant form on f_i^2; both certificates then miss their bounds
    cd = build_realization(MATRICES["affine"])
    quantum, classic = _exact_dims(cd, 5)
    seen = _spy_exact_kernels(monkeypatch)
    monkeypatch.setattr(qpairing, "MOD_P_V", 1)
    monkeypatch.setattr(classical, "MOD_P_WEIGHT", 0)
    assert DrinfeldPairing(cd).quotient_dims(5) == quantum
    assert ShapovalovForm(cd).quotient_dims(5) == classic
    assert {(1, 1), (2, 2), (2, 3)} <= seen[DrinfeldPairing]
    assert {(2, 0), (2, 2), (2, 3)} <= seen[ShapovalovForm]


@pytest.mark.parametrize("name, cap", [("sl3", 8), ("affine", 8),
                                       ("hyperbolic", 7)])
def test_flatness_of_certified_dims(name, cap):
    """The paper's flatness theorem: the quantum and classical relation
    spaces have equal graded dimensions."""
    cd = build_realization(MATRICES[name])
    quantum = DrinfeldPairing(cd).quotient_dims(cap)
    assert quantum == ShapovalovForm(cd).quotient_dims(cap)


def _residue(x: Fraction, p: int) -> int:
    return x.numerator * pow(x.denominator, -1, p) % p


@pytest.mark.parametrize("name", ["sl3", "affine", "rational", "borcherds"])
def test_gram_mod_p_matches_the_exact_recursion(name):
    """The Gram recursion run mod p equals the exact blocks evaluated at the
    same point and reduced mod p."""
    cd = build_realization(MATRICES[name])
    bp = DrinfeldPairing(cd)
    sf = ShapovalovForm(cd)
    p = bp.p
    weight = [pow(classical.MOD_P_WEIGHT, i + 1, p) for i in range(cd.n)]
    for m in degrees_upto(cd.n, 4):
        numerators = bp.gram_block(m).numerators
        assert bp._gram(m, p)[1].tolist() == [
            [sum(_residue(Fraction(c), p) * pow(qpairing.MOD_P_V, e, p)
                 for e, c in enumerate(f.coeffs, f.offset)) % p for f in row]
            for row in numerators]
        words, mat = sf.block(m)
        assert sf._gram(m, p)[1].tolist() == [
            [sum(_residue(Fraction(c), p)
                 * math.prod(pow(x, k, p) for x, k in zip(weight, e))
                 for e, c in f.terms.items()) % p for f in row]
            for row in mat]


def test_rank_mod_p():
    p = 7
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1], [3, 0, 0]]
    rank, basis = rank_mod_p(rows, p)
    assert rank == 3 and basis.shape == (3, 3)
    # 2 * (1, 2, 3) - (2, 4, 6) vanishes over Q; mod 7, 7 * e_1 vanishes too
    assert rank_mod_p([[7, 0], [0, 1]], p)[0] == 1
    assert rank_mod_p(np.zeros((0, 4), np.int64), p)[0] == 0
    big = 2**31 - 1
    assert rank_mod_p([[big - 1, big - 2], [1, 2]], big)[0] == 1
    # entries in [-2, 2] keep every minor of a 6 x 6 matrix below 2^31 - 1
    # (Hadamard), so the rank mod p is the rank over Q
    rng = random.Random(0)
    for _ in range(50):
        rows = [[rng.choice((-2, -1, 0, 0, 1, 2)) for _ in range(6)]
                for _ in range(rng.randint(1, 6))]
        rows[-1] = [a + b for a, b in zip(rows[0], rows[-1])]
        assert rank_mod_p(rows, big)[0] == matrix_rank(
            [[Fraction(x) for x in row] for row in rows])


def test_prime_divides_no_denominator_of_a():
    # 2^31 - 1 divides a denominator of A, so the next prime is used; the
    # classical engine alone, since v^(2^31 - 1) is no size for Z[v^+-1]
    a = Fraction(-1, 2**31 - 1)
    cd = build_realization([[2, a], [a, 2]])
    sf = ShapovalovForm(cd)
    exact = ShapovalovForm(cd)
    assert sf.p == 2**31 - 19
    assert sf.quotient_dims(4) == {
        m: len(enumerate_words(m)) - len(exact.kernel(m)[1])
        for m in degrees_upto(2, 4)}


def test_engines_answer_past_degree_eight():
    # the degree is bounded by the input (the CLI's max_degree) alone
    sl2 = build_realization([[2]])
    assert set(ShapovalovForm(sl2).quotient_dims(10).values()) == {1}
    assert DrinfeldPairing(sl2).kernel_block((9,)).quotient_dim == 1
