from fractions import Fraction

import pytest

from qkm.cartan import Weight, build_realization
from qkm.classical import (
    PolyN,
    ShapovalovForm,
    root_multiplicities,
    weyl_kac_character,
    weyl_kac_multiplicities,
)
from qkm.linalg import (
    certified_rational_nullspace,
    invert,
    matrix_rank,
    nullspace,
    rref,
)
from qkm.qpairing import DrinfeldPairing, degrees_upto
from qkm.rmatrix import dual_bases
from qkm.scalars import LaurentPoly, QScalar

SL2 = build_realization([[2]])
SL3 = build_realization([[2, -1], [-1, 2]])
AFF = build_realization([[2, -2], [-2, 2]])
SL2SL2 = build_realization([[2, 0], [0, 2]])
RAT = build_realization([[2, Fraction(-1, 2)], [Fraction(-1, 2), 2]])


def test_block_degree_11_matches_hand_formula():
    # <f_i f_j v, ...> at formal weight: straightening by hand gives
    # [[x2 (x1 - a12), x1 x2], [x1 x2, x1 (x2 - a21)]] in basis (12, 21)
    for cd in (SL3, AFF, SL2SL2):
        sf = ShapovalovForm(cd)
        words, mat = sf.block((1, 1))
        x1 = PolyN.variable(2, 0)
        x2 = PolyN.variable(2, 1)
        a12 = PolyN.constant(2, cd.A[0][1])
        a21 = PolyN.constant(2, cd.A[1][0])
        assert mat[0][0] == x2 * (x1 - a12)
        assert mat[0][1] == x1 * x2
        assert mat[1][0] == x1 * x2
        assert mat[1][1] == x1 * (x2 - a21)


def test_form_is_symmetric():
    for cd in (SL3, AFF):
        sf = ShapovalovForm(cd)
        for m in degrees_upto(2, 4):
            _, mat = sf.block(m)
            for a in range(len(mat)):
                for b in range(a + 1, len(mat)):
                    assert mat[a][b] == mat[b][a]


def test_kernels_and_quotients():
    sf2 = ShapovalovForm(SL2)
    for k in range(1, 7):
        assert sf2.quotient_dim((k,)) == 1

    sf3 = ShapovalovForm(SL3)
    assert sf3.quotient_dim((1, 1)) == 2
    assert sf3.quotient_dim((2, 1)) == 2
    assert sf3.quotient_dim((2, 2)) == 3
    rank, basis, _ = sf3.kernel((2, 1))
    assert len(basis) == 1
    # classical Serre element e1^2 e2 - 2 e1 e2 e1 + e2 e1^2
    vec = basis[0]
    scaled = [c / vec[0] for c in vec]
    assert scaled == [1, -2, 1]

    assert ShapovalovForm(SL2SL2).quotient_dim((1, 1)) == 1
    assert ShapovalovForm(AFF).quotient_dim((1, 1)) == 2


def test_kernel_vectors_kill_block_symbolically():
    sf = ShapovalovForm(AFF)
    for m in [(2, 1), (3, 1), (2, 2)]:
        words, mat = sf.block(m)
        _, basis, _ = sf.kernel(m)
        for vec in basis:
            for row in mat:
                acc = PolyN(2)
                for e, c in zip(row, vec):
                    if c:
                        acc = acc + e * c
                assert acc.is_zero()


def _at_weight(cd, m, weight):
    """The contravariant block of degree m at one rational weight."""
    return [[e.evaluate(weight) for e in row]
            for row in ShapovalovForm(cd).block(m)[1]]


def test_normalized_block_rationality_and_rank():
    generic = (Fraction(101, 2), Fraction(7, 3))
    blk = _at_weight(SL3, (2, 1), generic)
    assert all(isinstance(x, Fraction) for row in blk for x in row)
    assert matrix_rank(blk) == 2
    kern = nullspace(blk)
    assert len(kern) == 1
    v = kern[0]
    assert [c / v[0] for c in v] == [1, -2, 1]
    one = _at_weight(SL2, (1,), generic[:1])
    assert len(one) == 1 and one[0][0] != 0
    # the same core over Q(v): constant QScalar entries reduce exactly as
    # their Fraction values do
    square = _at_weight(SL3, (1, 1), generic)
    for mat in (blk, square):
        red, pivots = rref(mat)
        assert rref(_as_qscalar(mat)) == (_as_qscalar(red), pivots)
    assert nullspace(_as_qscalar(blk), QScalar.one()) == _as_qscalar(kern)
    assert (invert(_as_qscalar(square), QScalar.one())
            == _as_qscalar(invert(square)))
    with pytest.raises(ValueError):
        invert(blk)
    with pytest.raises(ValueError):
        invert(_as_qscalar(blk), QScalar.one())


def _as_qscalar(mat):
    return [[QScalar(x) for x in row] for row in mat]


def test_dual_bases_singular_gram():
    bp = DrinfeldPairing(SL3)
    # a rank-one Gram on the two pivot words of degree (1, 1), given after
    # the kernel has fixed those words
    assert len(bp.quotient_basis((1, 1))) == 2
    one = LaurentPoly.one()
    bp.numerators_on = lambda m, words: [[one, one], [one, one]]
    with pytest.raises(ArithmeticError, match="quotient Gram block is "
                       "singular; the pairing must be nondegenerate"):
        dual_bases((1, 1), bp)


def test_flatness_small():
    # generic-q kernel ranks equal the classical kernel ranks
    for cd in (SL3, AFF, SL2SL2, RAT):
        bp = DrinfeldPairing(cd)
        sf = ShapovalovForm(cd)
        for m in degrees_upto(2, 4):
            assert bp.kernel_block(m).quotient_dim == sf.quotient_dim(m), (cd.A, m)


def _multiplicities(cd, cap):
    return root_multiplicities(ShapovalovForm(cd).quotient_dims(cap))


def test_root_multiplicities_sl2_sl3():
    assert _multiplicities(SL2, 5) == {(k,): (1 if k == 1 else 0) for k in range(1, 6)}
    mults = _multiplicities(SL3, 4)
    expected_roots = {(1, 0), (0, 1), (1, 1)}
    for beta, m in mults.items():
        assert m == (1 if beta in expected_roots else 0), beta


def test_root_multiplicities_affine():
    mults = _multiplicities(AFF, 6)
    for beta, m in mults.items():
        a, b = beta
        is_root = abs(a - b) <= 1 and beta != (0, 0)
        assert m == (1 if is_root else 0), beta


def test_weyl_kac_denominator_oracle_agreement():
    assert weyl_kac_multiplicities(AFF, 6) == _multiplicities(AFF, 6)
    assert weyl_kac_multiplicities(SL3, 5) == _multiplicities(SL3, 5)


def test_pbw_consistency():
    # regenerate the graded dimensions from the multiplicities
    from qkm.classical import _series_mul_binom
    sf = ShapovalovForm(AFF)
    dims = sf.quotient_dims(5)
    mults = root_multiplicities(dims)
    series = {(0, 0): 1}
    for beta, m in mults.items():
        if m:
            series = _series_mul_binom(series, beta, -m, 5)
    for m_, d in dims.items():
        assert series.get(m_, 0) == d


def test_weyl_kac_character_sl2():
    # sl2 irreducible with highest weight 3: weights 3, 1, -1, -3
    lam = Weight.highest((Fraction(3),), 1)
    ch = weyl_kac_character(lam, SL2, 6)
    assert ch == {(0,): 1, (1,): 1, (2,): 1, (3,): 1}


def test_weyl_kac_character_sl3_adjoint():
    lam = Weight.highest((Fraction(1), Fraction(1)), 2)
    ch = weyl_kac_character(lam, SL3, 4)
    # adjoint representation: 8 dimensions within the cone
    assert ch[(0, 0)] == 1
    assert ch[(1, 0)] == 1 and ch[(0, 1)] == 1
    assert ch[(1, 1)] == 2
    assert ch[(2, 1)] == 1 and ch[(1, 2)] == 1
    assert ch[(2, 2)] == 1


def test_weyl_kac_character_affine_level1():
    lam = Weight.highest((Fraction(1), Fraction(0), Fraction(0)), 2)
    ch = weyl_kac_character(lam, AFF, 10)
    # basic representation: multiplicity of lambda - k delta is the number
    # of partitions of k
    for k, p in enumerate([1, 1, 2, 3, 5, 7]):
        assert ch.get((k, k), 0) == p
    # node 1 carries the level: lambda - alpha_1 survives, lambda - alpha_2 not
    assert ch[(1, 0)] == 1
    assert ch.get((0, 1), 0) == 0
    assert ch[(2, 1)] == 1


def test_rational_certificate_skips_a_non_generic_point():
    # at the zero weight every f-word is singular, so the sl3 (2,1) block
    # vanishes there; the next point certifies the generic kernel
    sf = ShapovalovForm(SL3)
    _, mat = sf.block((2, 1))
    zero, generic = (Fraction(0), Fraction(0)), (Fraction(101, 2), Fraction(7, 3))
    assert matrix_rank([[e.evaluate(zero) for e in row] for row in mat]) == 0
    rank, pivots, basis = certified_rational_nullspace(
        mat, [zero, generic], PolyN.evaluate)
    assert rank == 2
    assert (rank, basis, pivots) == sf.kernel((2, 1))
