from fractions import Fraction

import pytest

from qkm.cartan import Weight, build_realization, session_denominator
from qkm.qmodules import irreducible
from qkm.qpairing import DrinfeldPairing
from qkm.rmatrix import (
    BraidOperator,
    TruncatedR,
    check_ybe,
    dual_bases,
    tensor_block_basis,
    total_offsets,
)
from qkm.scalars import LaurentPoly, QScalar


def hw(cd, *vals):
    coords = list(map(Fraction, vals)) + [Fraction(0)] * (cd.h_dim - len(vals))
    return Weight.highest(coords, cd.n)


SL2 = build_realization([[2]])
SL3 = build_realization([[2, -1], [-1, 2]])


@pytest.fixture(scope="module")
def sl2_setup():
    lam = hw(SL2, 1)
    D = session_denominator(SL2, [lam])
    bp = DrinfeldPairing(SL2, D=D, degree_cap=4)
    V = irreducible(lam, 2, SL2, D=D, pairing=bp)
    return bp, V


def mono(e):
    return QScalar(LaurentPoly.monomial(e))


def test_dual_basis_single_root(sl2_setup):
    bp, V = sl2_setup
    db = dual_bases((1,), bp)
    assert db.u_basis == ((0,),)
    el = db.v_basis[0]
    # (q - q^{-1}) F_i  on the v-grid with D = 2
    expected = QScalar(LaurentPoly.monomial(2) - LaurentPoly.monomial(-2))
    assert el.as_dict() == {(0,): expected}


def test_dual_basis_duality_sl3():
    # duality under the letterwise mirror F_i -> E_i
    bp = DrinfeldPairing(SL3, degree_cap=4)
    for beta in [(1, 1), (2, 1)]:
        db = dual_bases(beta, bp)
        for a, u in enumerate(db.u_basis):
            for b, vel in enumerate(db.v_basis):
                total = QScalar.zero()
                for fword, coeff in vel.terms:
                    total = total + coeff * bp.pair_words(u, fword)
                assert total == (QScalar.one() if a == b else QScalar.zero())


def test_r_highest_pair(sl2_setup):
    bp, V = sl2_setup
    R = TruncatedR(V, V, bp)
    basis, mat = R.block((0,))
    assert basis == [((0,), 0, (0,), 0)]
    assert mat[0][0] == mono(1)  # q^{(lambda, lambda)} = q^{1/2} = v


def test_r_middle_block_frozen(sl2_setup):
    bp, V = sl2_setup
    R = TruncatedR(V, V, bp)
    basis, mat = R.block((1,))
    assert basis == [((0,), 0, (1,), 0), ((1,), 0, (0,), 0)]
    qmh = mono(-1)                        # q^{-1/2}
    qq = QScalar(LaurentPoly.monomial(2) - LaurentPoly.monomial(-2))
    assert mat[0][0] == qmh
    assert mat[0][1] == QScalar.zero()
    assert mat[1][0] == qmh * qq
    assert mat[1][1] == qmh


def test_r_invertible_blockwise(sl2_setup):
    bp, V = sl2_setup
    R = TruncatedR(V, V, bp)
    for total in [(0,), (1,), (2,)]:
        basis, mat = R.block(total)
        if len(basis) == 1:
            assert mat[0][0]
        else:
            det = mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
            assert det


def test_braid_operator_eigen_relation(sl2_setup):
    bp, V = sl2_setup
    op = BraidOperator(TruncatedR(V, V, bp), 2, 0)
    basis, mat = op.block((1,))
    # (sigma R - q^{1/2})(sigma R + q^{-3/2}) = 0 on the middle block
    one = QScalar.one()
    zero = QScalar.zero()
    t1 = mono(1)    # q^{1/2}
    t2 = mono(-3)   # q^{-3/2}
    m_minus = [[mat[r][c] - (t1 if r == c else zero) for c in range(2)]
               for r in range(2)]
    m_plus = [[mat[r][c] + (t2 if r == c else zero) for c in range(2)]
              for r in range(2)]
    prod = [[sum((m_minus[r][k] * m_plus[k][c] for k in range(2)), start=zero)
             for c in range(2)] for r in range(2)]
    assert prod == [[zero, zero], [zero, zero]]


def test_ybe_sl2_exact(sl2_setup):
    bp, V = sl2_setup
    report = check_ybe(V)
    assert report.holds
    dims = {total: d for total, d, ok in report.blocks}
    assert dims[(1,)] == 3 and dims[(2,)] == 3
    assert dims[(0,)] == 1 and dims[(3,)] == 1


def test_ybe_one_dimensional_module():
    lam = hw(SL2, 0)
    D = session_denominator(SL2, [lam])
    bp = DrinfeldPairing(SL2, D=D, degree_cap=3)
    V = irreducible(lam, 1, SL2, D=D, pairing=bp)
    report = check_ybe(V)
    assert report.holds


def test_ybe_sl3_fundamental():
    lam = hw(SL3, 1, 0)
    D = session_denominator(SL3, [lam])
    bp = DrinfeldPairing(SL3, D=D, degree_cap=6)
    V = irreducible(lam, 3, SL3, D=D, pairing=bp)
    assert V.complete
    assert sum(V.dim(m) for m in V.offsets()) == 3
    report = check_ybe(V)
    assert report.holds
    dims = {total: d for total, d, ok in report.blocks}
    assert dims[(2, 1)] == 6  # the regular block of the 27-dimensional cube


def test_reversed_mirror_fails_ybe(monkeypatch):
    # convention regression: the antiautomorphism mirror breaks the braid
    # relation on sl3 multi-letter blocks
    import qkm.rmatrix as rm
    monkeypatch.setattr(rm, "MIRROR_REVERSES", True)
    lam = hw(SL3, 1, 0)
    D = session_denominator(SL3, [lam])
    bp = DrinfeldPairing(SL3, D=D, degree_cap=6)
    V = irreducible(lam, 3, SL3, D=D, pairing=bp)
    report = check_ybe(V, totals=[(2, 1)])
    assert not report.holds


def test_tensor_block_enumeration(sl2_setup):
    bp, V = sl2_setup
    totals = total_offsets(V, 3)
    assert totals == [(0,), (1,), (2,), (3,)]
    assert len(tensor_block_basis((V,) * 3, (1,))) == 3
    assert len(tensor_block_basis((V,) * 3, (0,))) == 1


def test_weight_preservation(sl2_setup):
    bp, V = sl2_setup
    op = BraidOperator(TruncatedR(V, V, bp), 3, 0)
    for total in total_offsets(V, 3):
        basis, mat = op.block(total)
        assert len(mat) == len(basis)


def test_check_ybe_builds_one_r(sl2_setup, monkeypatch):
    # both braid generators share the R of the module's own pairing
    import qkm.rmatrix as rm
    built = []
    init = rm.TruncatedR.__init__

    def counting(self, V, W, pairing):
        built.append(pairing)
        init(self, V, W, pairing)

    monkeypatch.setattr(rm.TruncatedR, "__init__", counting)
    bp, V = sl2_setup
    assert check_ybe(V).holds
    assert built == [bp]
