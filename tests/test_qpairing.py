from fractions import Fraction

import pytest

from qkm import linalg
from qkm.cartan import build_realization, session_denominator
from qkm.freealg import FreeElement, enumerate_words
from qkm.linalg import certified_laurent_nullspace, rank_mod_p
from qkm.qpairing import (
    DrinfeldPairing,
    NotApplicableError,
    _normalize_poly_vector,
    degrees_upto,
)
from qkm.scalars import LaurentPoly, QScalar, q_factorial, q_integer

SL2 = build_realization([[2]])
SL3 = build_realization([[2, -1], [-1, 2]])
AFF = build_realization([[2, -2], [-2, 2]])
SL2SL2 = build_realization([[2, 0], [0, 2]])


def mono(e):
    return LaurentPoly.monomial(e)


def c_power(k, D=1):
    return QScalar(LaurentPoly.one(), (mono(D) - mono(-D)) ** k)


def test_generator_pairings():
    bp = DrinfeldPairing(SL3)
    assert bp.pair_words((0,), (0,)) == c_power(1)
    assert bp.pair_words((0,), (1,)) == QScalar.zero()
    assert bp.pair_words((), ()) == QScalar.one()


def test_sl2_degree2_value():
    bp = DrinfeldPairing(SL2)
    # q^-1 [2] / (q - q^-1)^2, a unit power of q times [2]
    expected = QScalar(mono(-1)) * q_integer(2) * c_power(2)
    assert bp.pair_words((0, 0), (0, 0)) == expected


def test_sl3_gram_block_21_frozen():
    # hand-derived from the closed recursion; basis order 112, 121, 211
    bp = DrinfeldPairing(SL3)
    block = bp.gram_block((2, 1))
    one = LaurentPoly.one()
    two = LaurentPoly(0, (2,))
    expect = [
        [one + mono(-2), mono(1) + mono(-1), one + mono(2)],
        [mono(1) + mono(-1), two, mono(1) + mono(-1)],
        [one + mono(2), mono(1) + mono(-1), one + mono(-2)],
    ]
    assert [list(r) for r in block.numerators] == expect


def test_gram_symmetry():
    for cd, cap in ((SL3, 5), (AFF, 4), (SL2SL2, 4)):
        bp = DrinfeldPairing(cd)
        for m in degrees_upto(cd.n, cap):
            block = bp.gram_block(m)
            s = block.size()
            for a in range(s):
                for b in range(a + 1, s):
                    assert block.numerators[a][b] == block.numerators[b][a], \
                        (cd.A, m, a, b)


def test_grading_orthogonality():
    bp = DrinfeldPairing(SL3)
    assert bp.pair_words((0, 1), (0, 0)) == QScalar.zero()
    assert bp.pair_words((0,), (0, 1)) == QScalar.zero()


def test_oracle_agrees_with_fast_recursion():
    for cd in (SL3, AFF):
        bp = DrinfeldPairing(cd)
        for m in degrees_upto(cd.n, 3):
            for x in enumerate_words(m):
                for z in enumerate_words(m):
                    assert bp.oracle_pair_words(x, z) == bp.pair_words(x, z), \
                        (cd.A, x, z)


def test_oracle_rejects_flipped_sign():
    bp_good = DrinfeldPairing(SL2, exponent_sign=-1)
    bp_flip = DrinfeldPairing(SL2, exponent_sign=1)
    x = (0, 0)
    oracle = bp_good.oracle_pair_words(x, x)
    assert bp_good.pair_words(x, x) == oracle
    # the flipped convention is the bar-conjugate form: still symmetric with
    # the same kernel, but only one convention matches the Hopf axioms
    assert bp_flip.pair_words(x, x) != oracle


def test_kernel_sl2_all_degrees():
    bp = DrinfeldPairing(SL2)
    for k in range(1, 7):
        kb = bp.kernel_block((k,))
        assert kb.vectors == ()
        assert kb.quotient_dim == 1


def test_kernel_sl3_21():
    bp = DrinfeldPairing(SL3)
    kb = bp.kernel_block((2, 1))
    assert kb.quotient_dim == 2
    assert len(kb.vectors) == 1
    vec = kb.vectors[0]
    # proportional to the quantum Serre element: 112 - [2] 121 + 211
    serre = bp.quantum_serre_element(0, 1)
    ratio = None
    for w, cv in vec.terms:
        cs = serre.coefficient(w)
        assert cs is not None
        r = cv / cs
        if ratio is None:
            ratio = r
        else:
            assert r == ratio
    assert len(vec.terms) == len(serre.terms)


def test_kernel_mixed_degree_11():
    assert DrinfeldPairing(SL3).kernel_block((1, 1)).quotient_dim == 2
    assert DrinfeldPairing(AFF).kernel_block((1, 1)).quotient_dim == 2
    kb = DrinfeldPairing(SL2SL2).kernel_block((1, 1))
    assert kb.quotient_dim == 1
    assert len(kb.vectors) == 1


def test_unit_degree_blocks():
    for cd in (SL3, AFF):
        bp = DrinfeldPairing(cd)
        for i in range(cd.n):
            m = tuple(int(k == i) for k in range(cd.n))
            block = bp.gram_block(m)
            assert block.size() == 1
            assert block.entry(0, 0) == c_power(1, bp.D)
            assert bp.kernel_block(m).vectors == ()


def test_degree_zero_block():
    bp = DrinfeldPairing(SL3)
    block = bp.gram_block((0, 0))
    assert block.size() == 1
    assert block.entry(0, 0) == QScalar.one()


def test_serre_elements():
    bp = DrinfeldPairing(SL3)
    el = bp.quantum_serre_element(0, 1)
    assert el.degree == (2, 1)
    two_fact = q_factorial(2)
    assert el.coefficient((0, 0, 1)) == QScalar.one() / two_fact
    assert el.coefficient((0, 1, 0)) == QScalar(-1)
    assert el.coefficient((1, 0, 0)) == QScalar.one() / two_fact

    bp0 = DrinfeldPairing(SL2SL2)
    el0 = bp0.quantum_serre_element(0, 1)
    assert el0.as_dict() == {(0, 1): QScalar.one(), (1, 0): QScalar(-1)}

    bpa = DrinfeldPairing(AFF)
    ela = bpa.quantum_serre_element(0, 1)
    assert ela.degree == (3, 1)
    assert len(ela.terms) == 4

    with pytest.raises(NotApplicableError):
        DrinfeldPairing(build_realization([[2, Fraction(-1, 2)], [Fraction(-1, 2), 2]],
                                          ), D=2).quantum_serre_element(0, 1)


def test_serre_membership():
    assert DrinfeldPairing(SL3).verify_serre_in_kernel(0, 1)
    assert DrinfeldPairing(SL3).verify_serre_in_kernel(1, 0)
    assert DrinfeldPairing(SL2SL2).verify_serre_in_kernel(0, 1)
    assert DrinfeldPairing(AFF).verify_serre_in_kernel(0, 1)
    assert DrinfeldPairing(AFF).verify_serre_in_kernel(1, 0)


def test_kernel_is_two_sided_ideal_slice():
    bp = DrinfeldPairing(SL3)
    kb = bp.kernel_block((2, 1))
    vec = kb.vectors[0]
    for i in range(2):
        for left in (True, False):
            gen = FreeElement.from_word((i,), 2, QScalar.one())
            from qkm.freealg import free_mul
            prod = free_mul(gen, vec) if left else free_mul(vec, gen)
            target = prod.degree
            for z in enumerate_words(target):
                acc = QScalar.zero()
                for w, cw in prod.terms:
                    val = bp.pair_words(w, z)
                    if val:
                        acc = acc + cw * val
                assert acc == QScalar.zero(), (i, left, z)


def test_quotient_dims_tables():
    bp = DrinfeldPairing(SL2)
    assert bp.quotient_dims(5) == {(k,): 1 for k in range(1, 6)}
    bp3 = DrinfeldPairing(SL3)
    dims = bp3.quotient_dims(4)
    assert dims[(1, 1)] == 2
    assert dims[(2, 1)] == 2
    assert dims[(2, 2)] == 3
    # classical U(n+) of sl3: generating function 1/((1-t1)(1-t2)(1-t1 t2))
    assert dims[(3, 1)] == 2
    assert dims[(4, 0)] == 1


def test_rational_matrix_pairing():
    cd = build_realization([[2, Fraction(-1, 2)], [Fraction(-1, 2), 2]])
    D = session_denominator(cd)
    assert D == 2
    bp = DrinfeldPairing(cd, D=D)
    block = bp.gram_block((1, 1))
    # off-diagonal exponent -(alpha_2, alpha_1) = 1/2, i.e. v with D = 2
    assert block.numerators[0][1] == LaurentPoly.monomial(1)
    assert block.numerators[0][1] == block.numerators[1][0]
    assert bp.kernel_block((1, 1)).quotient_dim == 2


def test_laurent_certificate_skips_a_non_generic_point():
    # at v = 1 the sl3 (1,1) numerators drop to rank 1 in F_p; the candidate
    # built there fails verification and v = 2 certifies the generic rank 2
    bp = DrinfeldPairing(SL3)
    N = bp.gram_block((1, 1)).numerators
    at_one = [[e.residue(1, bp.p) for e in row] for row in N]
    assert rank_mod_p(at_one, bp.p)[0] == 1
    points = iter((Fraction(1), Fraction(2)))
    rank, pivots, vectors = certified_laurent_nullspace(
        N, LaurentPoly.zero(), LaurentPoly.one(), points, bp.p,
        _normalize_poly_vector)
    assert (rank, pivots, vectors) == (2, [0, 1], [])
    assert next(points, None) is None


def test_laurent_kernels_never_reach_the_field_rref(monkeypatch):
    # ranks and pivots of the Laurent blocks come from F_p alone
    def refuse(rows):
        raise AssertionError("rref on a Laurent kernel path")

    monkeypatch.setattr(linalg, "rref", refuse)
    bp = DrinfeldPairing(AFF)
    for m in degrees_upto(2, 5):
        bp.kernel_block(m)
    assert [bp.kernel_block(m).quotient_dim for m in ((1, 3), (2, 3))] == [
        3, 8]


def _spy_bareiss(monkeypatch):
    """Record the number of rows of every fraction-free solve."""
    sizes = []
    solve = linalg.bareiss_solve_columns

    def spy(P, B, zero):
        sizes.append(len(P))
        return solve(P, B, zero)

    monkeypatch.setattr(linalg, "bareiss_solve_columns", spy)
    return sizes


def test_kernel_side_solve_where_the_ideal_fills_the_degree(monkeypatch):
    # hyperbolic (2,4): rank 13, corank 2; E_1 k and k E_1, for k the
    # kernel vector of (1,4), span the kernel, so the solve is 2 x 2, not
    # 13 x 13
    bp = DrinfeldPairing(build_realization([[2, -3], [-3, 2]]))
    for m in degrees_upto(2, 5) + [(0, 6), (1, 5)]:
        bp.kernel_block(m)
    sizes = _spy_bareiss(monkeypatch)
    kb = bp.kernel_block((2, 4))
    assert (kb.quotient_dim, len(kb.vectors)) == (13, 2)
    assert sizes == [2]


def test_corrupted_propagated_vector_falls_back_to_the_gram_side(monkeypatch):
    bp = DrinfeldPairing(AFF)
    for m in degrees_upto(2, 4):
        bp.kernel_block(m)
    # the cached affine Serre vector of (1,3), one coefficient off
    bad = [list(v) for v in bp._vectors[(1, 3)]]
    c = next(c for c, e in enumerate(bad[0]) if e)
    bad[0][c] = bad[0][c] + LaurentPoly.one()
    bp._vectors[(1, 3)] = bad
    sizes = _spy_bareiss(monkeypatch)
    fresh = DrinfeldPairing(AFF)
    assert bp.kernel_block((1, 4)) == fresh.kernel_block((1, 4))
    assert bp._vectors[(1, 4)] == fresh._vectors[(1, 4)]
    # (1,4) has rank 3 and corank 2: the 2 x 2 kernel-side candidates
    # fail verification, and the 3 x 3 Gram-side solve replaces them
    assert sizes[:2] == [2, 3]
