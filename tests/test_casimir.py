from fractions import Fraction

import pytest

from qkm.cartan import Weight, build_realization
from qkm.classical import CasimirEngine, CasimirTensor, ShapovalovForm
from qkm.qmodules import classical_module
from qkm.qpairing import degrees_upto

SL2 = build_realization([[2]])
SL3 = build_realization([[2, -1], [-1, 2]])
AFF = build_realization([[2, -2], [-2, 2]])


def hw(cd, *vals):
    coords = list(map(Fraction, vals)) + [Fraction(0)] * (cd.h_dim - len(vals))
    return Weight.highest(coords, cd.n)


def invariant_form(eng, beta, pos_index, f_combo):
    """(x, y) for x the pos_index-th root basis element of degree beta and y
    a combo of f-words of the same degree."""
    x = eng.root_basis(beta)[pos_index]
    return eng._pairings(beta, [x], [f_combo])[0][0]


@pytest.fixture(scope="module")
def sl2_v():
    return classical_module(hw(SL2, 1), "irreducible", 2, SL2)


def test_sl2_module_shape(sl2_v):
    assert [sl2_v.dim((k,)) for k in range(3)] == [1, 1, 0]
    assert sl2_v.complete


def test_highest_pair_coefficient(sl2_v):
    _, matrix = CasimirTensor(sl2_v, sl2_v).block((0,))
    assert matrix == [{0: Fraction(1, 2)}]


def test_sl2_middle_block(sl2_v):
    basis, matrix = CasimirTensor(sl2_v, sl2_v).block((1,))
    assert basis == [((0,), 0, (1,), 0), ((1,), 0, (0,), 0)]
    assert matrix == [{0: Fraction(-1, 2), 1: Fraction(1)},
                      {0: Fraction(1), 1: Fraction(-1, 2)}]
    # eigenvalues 1/2 and -3/2
    tr = matrix[0][0] + matrix[1][1]
    det = matrix[0][0] * matrix[1][1] - matrix[0][1] * matrix[1][0]
    assert tr == Fraction(-1) and det == Fraction(-3, 4)


def test_lowest_block(sl2_v):
    _, matrix = CasimirTensor(sl2_v, sl2_v).block((2,))
    assert matrix == [{0: Fraction(1, 2)}]


def _diagonal_action_matrix(V, W, total, gen, raising):
    """Matrix of x (x) 1 + 1 (x) x between total-weight blocks."""
    src, _ = CasimirTensor(V, W).block(total)
    step = -1 if raising else 1
    target_total = tuple(t + step * int(k == gen) for k, t in enumerate(total))
    dst, _ = CasimirTensor(V, W).block(target_total)
    index = {key: r for r, key in enumerate(dst)}
    mat = [[Fraction(0)] * len(src) for _ in range(len(dst))]
    for c, (mV, a, mW, b) in enumerate(src):
        vecV = [Fraction(int(k == a)) for k in range(V.dim(mV))]
        vecW = [Fraction(int(k == b)) for k in range(W.dim(mW))]
        if raising:
            tV, imgV = V.apply_e(gen, mV, vecV)
            tW, imgW = W.apply_e(gen, mW, vecW)
        else:
            tV, imgV = V.apply_f(gen, mV, vecV)
            tW, imgW = W.apply_f(gen, mW, vecW)
        for r, cv in enumerate(imgV):
            if cv:
                mat[index[(tV, r, mW, b)]][c] += cv
        for r, cw in enumerate(imgW):
            if cw:
                mat[index[(mV, a, tW, r)]][c] += cw
    return mat


def _matmul(A, B):
    return [[sum((A[r][k] * B[k][c] for k in range(len(B))), start=Fraction(0))
             for c in range(len(B[0]))] for r in range(len(A))]


def test_casimir_commutes_with_diagonal_action(sl2_v):
    V = sl2_v
    for raising in (True, False):
        total = (1,)
        target = (0,) if raising else (2,)
        D = _diagonal_action_matrix(V, V, total, 0, raising)
        _, om_src = CasimirTensor(V, V).block(total)
        _, om_dst = CasimirTensor(V, V).block(target)
        lhs = _matmul(om_dst, D)
        rhs = _matmul(D, om_src)
        assert lhs == rhs


def test_affine_dual_pairs_at_delta():
    eng = CasimirEngine(ShapovalovForm(AFF))
    pairs = eng.dual_root_pairs((1, 1))
    assert len(pairs) == 1
    for b, (_, fdual) in enumerate(pairs):
        for a in range(len(pairs)):
            val = invariant_form(eng, (1, 1), a, fdual)
            assert val == Fraction(int(a == b))


def test_dual_pairs_duality_simple_roots():
    eng = CasimirEngine(ShapovalovForm(SL2))
    pairs = eng.dual_root_pairs((1,))
    assert len(pairs) == 1
    e_combo, f_dual = pairs[0]
    assert e_combo == (((0,), Fraction(1)),)
    assert f_dual == (((0,), Fraction(1)),)  # (e, f) = d^{-1} = 1 for sl2


def test_root_space_dimensions_match_multiplicities():
    from qkm.classical import root_multiplicities
    eng = CasimirEngine(ShapovalovForm(AFF))
    mults = root_multiplicities(ShapovalovForm(AFF).quotient_dims(4))
    for beta, m in mults.items():
        assert len(eng.root_basis(beta)) == m, beta


def test_mixed_depths_agree_within_the_shallower_depth():
    # the roots of the Casimir tensor run up to the shallower depth
    lam = hw(SL3, 1, 1)
    V2, V3 = (classical_module(lam, "irreducible", d, SL3) for d in (2, 3))
    W3 = classical_module(lam, "irreducible", 3, SL3)
    for t in degrees_upto(2, 2, include_zero=True):
        assert CasimirTensor(V2, W3).block(t) == CasimirTensor(V3, W3).block(t)
