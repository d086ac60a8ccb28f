from fractions import Fraction

import pytest

from qkm.cartan import Weight, build_realization, session_denominator
from qkm.kz import drinfeld_kohno_compare
from qkm.qmodules import check_module_relations, classical_module, irreducible
from qkm.qpairing import DrinfeldPairing
from qkm.rmatrix import (
    BraidOperator,
    TruncatedR,
    _braid_relation_holds,
    _mat_mul,
    check_ybe,
    dual_bases,
    tensor_block_basis,
    total_offsets,
)
from qkm.scalars import DenominatorError, LaurentPoly, QScalar


def hw(cd, *vals):
    coords = list(map(Fraction, vals)) + [Fraction(0)] * (cd.h_dim - len(vals))
    return Weight.highest(coords, cd.n)


SL2 = build_realization([[2]])
SL3 = build_realization([[2, -1], [-1, 2]])


@pytest.fixture(scope="module")
def sl2_setup():
    lam = hw(SL2, 1)
    D = session_denominator(SL2, [lam])
    bp = DrinfeldPairing(SL2, D=D)
    V = irreducible(lam, 2, SL2, pairing=bp)
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
    bp = DrinfeldPairing(SL3)
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
    assert mat[0].get(1, QScalar.zero()) == QScalar.zero()
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
            zero = QScalar.zero()
            det = (mat[0].get(0, zero) * mat[1].get(1, zero)
                   - mat[0].get(1, zero) * mat[1].get(0, zero))
            assert det


def test_braid_operator_eigen_relation(sl2_setup):
    bp, V = sl2_setup
    op = BraidOperator(TruncatedR(V, V, bp), 2)
    basis, (mat,) = op.block((1,))
    # (sigma R - q^{1/2})(sigma R + q^{-3/2}) = 0 on the middle block
    one = QScalar.one()
    zero = QScalar.zero()
    t1 = mono(1)    # q^{1/2}
    t2 = mono(-3)   # q^{-3/2}
    m_minus = [[mat[r].get(c, zero) - (t1 if r == c else zero)
                for c in range(2)] for r in range(2)]
    m_plus = [[mat[r].get(c, zero) + (t2 if r == c else zero)
               for c in range(2)] for r in range(2)]
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
    bp = DrinfeldPairing(SL2, D=D)
    V = irreducible(lam, 1, SL2, pairing=bp)
    report = check_ybe(V)
    assert report.holds


def test_ybe_sl3_fundamental():
    lam = hw(SL3, 1, 0)
    D = session_denominator(SL3, [lam])
    bp = DrinfeldPairing(SL3, D=D)
    V = irreducible(lam, 3, SL3, pairing=bp)
    assert V.complete
    assert sum(V.dim(m) for m in V.offsets()) == 3
    report = check_ybe(V)
    assert report.holds
    dims = {total: d for total, d, ok in report.blocks}
    assert dims[(2, 1)] == 6  # the regular block of the 27-dimensional cube


def test_r_refuses_a_pairing_too_coarse_for_the_highest_weights():
    # (lam, lam) = 2/3 on A2: the modules' own relations live on D = 1, but
    # the Cartan factor of R needs D = 3
    lam = hw(SL3, 1, 0)
    V = irreducible(lam, 3, SL3, pairing=DrinfeldPairing(SL3))
    assert V.D == 1 and check_module_relations(V)
    with pytest.raises(DenominatorError, match=r"multiple of D = 3\b"):
        TruncatedR(V, V, V.engine)
    with pytest.raises(DenominatorError, match=r"multiple of D = 3\b"):
        check_ybe(V)


def test_reversed_mirror_fails_ybe(monkeypatch):
    # convention regression: the antiautomorphism mirror breaks the braid
    # relation on sl3 multi-letter blocks
    import qkm.rmatrix as rm
    monkeypatch.setattr(rm, "MIRROR_REVERSES", True)
    lam = hw(SL3, 1, 0)
    D = session_denominator(SL3, [lam])
    bp = DrinfeldPairing(SL3, D=D)
    V = irreducible(lam, 3, SL3, pairing=bp)
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
    op = BraidOperator(TruncatedR(V, V, bp), 3)
    for total in total_offsets(V, 3):
        basis, gens = op.block(total)
        assert len(gens) == 2
        assert all(len(mat) == len(basis) for mat in gens)


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


def _sl3_fundamental():
    lam = hw(SL3, 1, 0)
    bp = DrinfeldPairing(SL3, D=session_denominator(SL3, [lam]))
    return irreducible(lam, 3, SL3, pairing=bp)


@pytest.fixture(scope="module")
def sl3_fundamental():
    return _sl3_fundamental()


def _count_block_bases(monkeypatch):
    """The totals of every tensor_block_basis call on the R side, in order."""
    import qkm.rmatrix as rm
    calls = []
    build = rm.tensor_block_basis

    def counting(factors, total):
        calls.append(tuple(total))
        return build(factors, total)

    monkeypatch.setattr(rm, "tensor_block_basis", counting)
    return calls


def test_check_ybe_builds_each_block_basis_once(sl3_fundamental, monkeypatch):
    # both generators of a block are lifted onto one basis
    calls = _count_block_bases(monkeypatch)
    V = sl3_fundamental
    assert check_ybe(V).holds
    assert calls == total_offsets(V, 3)


def _count_combos(monkeypatch):
    """The key of every `WeightModule.apply_combo` call, in order."""
    from qkm.qmodules import WeightModule
    calls = []
    combo = WeightModule.apply_combo

    def counting(self, terms, offset, vec, raising):
        calls.append((id(self), tuple(terms), tuple(offset), tuple(vec),
                      raising))
        return combo(self, terms, offset, vec, raising)

    monkeypatch.setattr(WeightModule, "apply_combo", counting)
    return calls


def test_check_ybe_computes_each_word_image_once(monkeypatch):
    # R's E-word images of w_b and dual F-combination images of v_a are
    # shared by every basis pair that reaches them; the images are kept on
    # the module, so it is built here, with no image computed yet
    from qkm.qmodules import WeightModule
    V = _sl3_fundamental()
    calls = {"e": [], "f": _count_combos(monkeypatch)}
    e_word = WeightModule.apply_e_word

    def counting_e(self, word, offset, vec):
        calls["e"].append((id(self), tuple(word), tuple(offset), tuple(vec)))
        return e_word(self, word, offset, vec)

    monkeypatch.setattr(WeightModule, "apply_e_word", counting_e)
    assert check_ybe(V).holds
    for seen in calls.values():
        assert seen
        assert len(seen) == len(set(seen))


def test_dk_computes_each_word_image_once(monkeypatch):
    # R and the Casimir tensor both read word images through the modules'
    # memo, so neither side repeats a combination on a basis vector
    Vq = _sl3_fundamental()
    Vc = classical_module(hw(SL3, 1, 0), "irreducible", 3, SL3)
    calls = _count_combos(monkeypatch)
    report = drinfeld_kohno_compare(Vc, Vq, 3, 0.1, word_length=2)
    assert report.max_deviation < 1e-6
    assert any(key[0] == id(Vc) for key in calls)
    assert len(calls) == len(set(calls))


def test_dk_builds_each_r_block_basis_once(sl2_setup, monkeypatch):
    calls = _count_block_bases(monkeypatch)
    _, Vq = sl2_setup
    Vc = classical_module(hw(SL2, 1), "irreducible", 2, SL2)
    report = drinfeld_kohno_compare(Vc, Vq, 3, 0.1, word_length=2)
    assert report.max_deviation < 1e-6
    assert calls == total_offsets(Vc, 3)


def test_three_generators_on_four_strands(sl2_setup, sl3_fundamental):
    # sigma_1 R, sigma_2 R, sigma_3 R on every block of V^(x 4): neighbours
    # satisfy the braid relation and the far pair commutes, exactly; as a
    # control, neighbours do not commute on some block
    for V in (sl2_setup[1], sl3_fundamental):
        braid = BraidOperator(TruncatedR(V, V, V.engine), 4)
        neighbours_commute = True
        for total in total_offsets(V, 4):
            basis, g = braid.block(total)
            assert len(g) == 3
            assert _braid_relation_holds(g[0], g[1]), total
            assert _braid_relation_holds(g[1], g[2]), total
            assert _mat_mul(g[0], g[2]) == _mat_mul(g[2], g[0]), total
            if len(basis) > 1:
                neighbours_commute &= (_mat_mul(g[0], g[1])
                                       == _mat_mul(g[1], g[0]))
        assert not neighbours_commute


def _edit_generators(monkeypatch, edit):
    # edit(i, rows) rewrites the sparse rows {column: value} of the
    # generator sigma_{i+1} R on a block
    import qkm.rmatrix as rm
    block = rm.BraidOperator.block

    def edited(self, total):
        basis, gens = block(self, total)
        return basis, [edit(i, [dict(row) for row in mat])
                       for i, mat in enumerate(gens)]

    monkeypatch.setattr(rm.BraidOperator, "block", edited)


def _one_coefficient_changes(mat):
    """(row, column, entry with one numerator coefficient moved by +-1) for
    every coefficient of every nonzero entry."""
    for r, row in enumerate(mat):
        for c, x in row.items():
            for e in range(x.num.min_exp, x.num.max_exp + 1):
                for sign in (1, -1):
                    num = x.num + LaurentPoly.monomial(e, sign)
                    yield r, c, QScalar(num, x.den)


def test_a_corrupted_block_fails_ybe(sl3_fundamental, monkeypatch):
    # one coefficient of one entry of sigma_1 R, moved by +-1, breaks the
    # braid relation on the regular block of the cube
    V = sl3_fundamental
    m1 = BraidOperator(TruncatedR(V, V, V.engine), 3).block((2, 1))[1][0]
    changes = list(_one_coefficient_changes(m1))
    assert len(changes) >= 20
    for r, c, x in changes:
        def corrupt(i, mat):
            if i == 0:
                mat[r][c] = x
            return mat
        with monkeypatch.context() as m:
            _edit_generators(m, corrupt)
            report = check_ybe(V, totals=[(2, 1)])
        assert [ok for _, _, ok in report.blocks] == [False], (r, c, x)


# a common scale leaves the braid relation as it is, and with it the
# cleared coefficients reach hundreds of bits
BIG = Fraction(3 ** 60 + 1, 2 ** 70 + 3)


def test_ybe_survives_large_coefficients(sl3_fundamental, monkeypatch):
    V = sl3_fundamental
    big = QScalar(BIG) * QScalar(LaurentPoly.from_dict({0: 1, 3: -7}),
                                 LaurentPoly.from_dict({0: 2, 1: 5}))
    for scale in (QScalar(BIG), big):
        with monkeypatch.context() as m:
            _edit_generators(m, lambda i, mat: [
                {c: x * scale for c, x in row.items()} for row in mat])
            report = check_ybe(V)
        assert report.holds and len(report.blocks) == 10


def test_a_corrupted_block_fails_ybe_under_large_coefficients(
        sl3_fundamental, monkeypatch):
    V = sl3_fundamental
    m1 = BraidOperator(TruncatedR(V, V, V.engine), 3).block((2, 1))[1][0]
    for r, c, x in list(_one_coefficient_changes(m1))[::5]:
        def corrupt(i, mat):
            if i == 0:
                mat[r][c] = x
            return [{c: y * QScalar(BIG) for c, y in row.items()}
                    for row in mat]
        with monkeypatch.context() as m:
            _edit_generators(m, corrupt)
            report = check_ybe(V, totals=[(2, 1)])
        assert not report.holds, (r, c, x)


def test_flipped_exponent_sign_fails_ybe():
    # negative control: the bar-conjugate pairing (exponent_sign=+1) gives
    # an R that breaks the braid relation on sl3 multi-letter blocks
    lam = hw(SL3, 1, 0)
    D = session_denominator(SL3, [lam])
    bp = DrinfeldPairing(SL3, D=D, exponent_sign=1)
    V = irreducible(lam, 3, SL3, pairing=bp)
    report = check_ybe(V)
    assert not report.holds
    assert {t for t, _, ok in report.blocks if not ok} == {(1, 1), (2, 1),
                                                           (2, 2)}


def test_ybe_sees_a_difference_with_a_root_at_a_power_of_two(sl2_setup,
                                                             monkeypatch):
    # on the blocks (v) and (2^k) the two sides differ by 2^k v (v - 2^k),
    # which a packing at v = 2^k would not see
    bp, V = sl2_setup
    for k in range(1, 40):
        blocks = {0: [{0: QScalar(LaurentPoly.monomial(1))}],
                  1: [{0: QScalar(2 ** k)}]}
        with monkeypatch.context() as m:
            _edit_generators(m, lambda i, mat: blocks[i])
            report = check_ybe(V, totals=[(0,)])
        assert not report.holds, k
