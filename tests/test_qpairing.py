import math
from fractions import Fraction

import pytest

from qkm import linalg, qpairing
from qkm.cartan import build_realization, session_denominator
from qkm.freealg import combination, enumerate_words, word_degree
from qkm.linalg import certified_laurent_nullspace, rank_mod_p
from qkm.qpairing import (
    EVAL_POINTS,
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


def pair_words(bp, x, z):
    """The exact pairing of two words: its numerator over the denominator
    of their degree."""
    return QScalar(bp.pair_numerator(x, z),
                   bp.denominator(word_degree(x, bp.cd.n)))


def test_generator_pairings():
    bp = DrinfeldPairing(SL3)
    assert pair_words(bp, (0,), (0,)) == c_power(1)
    assert pair_words(bp, (0,), (1,)) == QScalar.zero()
    assert pair_words(bp, (), ()) == QScalar.one()


def test_sl2_degree2_value():
    bp = DrinfeldPairing(SL2)
    # q^-1 [2] / (q - q^-1)^2, a unit power of q times [2]
    expected = QScalar(mono(-1)) * q_integer(2) * c_power(2)
    assert pair_words(bp, (0, 0), (0, 0)) == expected


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
            s = len(block.basis)
            for a in range(s):
                for b in range(a + 1, s):
                    assert block.numerators[a][b] == block.numerators[b][a], \
                        (cd.A, m, a, b)


def test_gram_through_degree_22():
    # B(E^k, E^k) has nonnegative coefficients summing to k!, past 2^64
    # by degree 22
    bp = DrinfeldPairing(SL2)
    p = bp.p
    for k in range(1, 23):
        (num,), = bp.gram_block((k,)).numerators
        assert min(num.coeffs) >= 0
        assert sum(num.coeffs) == math.factorial(k)
        assert bp._gram((k,), p)[1].tolist() == [[bp._residue(num, p)]]
        # B(E^k, E^k) = q^(-k(k-1)/2) [k]! / (q - q^-1)^k
        expected = QScalar(mono(-k * (k - 1) // 2)) * q_factorial(k)
        assert QScalar(num) == expected


def _bar(num):
    """v -> 1/v on a Laurent polynomial."""
    return LaurentPoly(-num.max_exp, tuple(reversed(num.coeffs)))


@pytest.mark.parametrize("matrix, sign", [
    ([[2, -1], [-1, 2]], 1),
    ([[2, -2], [-1, 2]], -1),
    ([[2, Fraction(-1, 2)], [Fraction(-1, 2), 2]], -1),
], ids=["sign+1", "b2", "rational"])
def test_packed_gram_matches_the_hopf_oracle(matrix, sign):
    # the recursion against the Hopf axioms through degree 4: with
    # exponent_sign +1, with d_i != 1 (B2), and with D = 2 (2 -1/2;
    # -1/2 2); the +1 numerators are the Hopf numerators with v -> 1/v
    cd = build_realization(matrix)
    bp = DrinfeldPairing(cd, exponent_sign=sign)
    for m in degrees_upto(cd.n, 4):
        den = QScalar(bp.denominator(m))
        words = enumerate_words(m)
        for x in words:
            for z in words:
                hopf = (bp.oracle_pair_words(x, z) * den).num
                if sign == 1:
                    hopf = _bar(hopf)
                assert bp.pair_numerator(x, z) == hopf, (matrix, x, z)


def test_grading_orthogonality():
    bp = DrinfeldPairing(SL3)
    assert pair_words(bp, (0, 1), (0, 0)) == QScalar.zero()
    assert pair_words(bp, (0,), (0, 1)) == QScalar.zero()


def test_oracle_agrees_with_fast_recursion():
    for cd in (SL3, AFF):
        bp = DrinfeldPairing(cd)
        for m in degrees_upto(cd.n, 3):
            for x in enumerate_words(m):
                for z in enumerate_words(m):
                    assert bp.oracle_pair_words(x, z) == pair_words(bp, x, z), \
                        (cd.A, x, z)


def test_oracle_rejects_flipped_sign():
    bp_good = DrinfeldPairing(SL2, exponent_sign=-1)
    bp_flip = DrinfeldPairing(SL2, exponent_sign=1)
    x = (0, 0)
    oracle = bp_good.oracle_pair_words(x, x)
    assert pair_words(bp_good, x, x) == oracle
    # the flipped convention is the bar-conjugate form: still symmetric with
    # the same kernel, but only one convention matches the Hopf axioms
    assert pair_words(bp_flip, x, x) != oracle


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
    for w, cv in vec:
        cs = dict(serre).get(w)
        assert cs is not None
        r = cv / cs
        if ratio is None:
            ratio = r
        else:
            assert r == ratio
    assert len(vec) == len(serre)


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
            assert len(block.basis) == 1
            assert QScalar(block.numerators[0][0],
                           block.denominator) == c_power(1, bp.D)
            assert bp.kernel_block(m).vectors == ()


def test_degree_zero_block():
    bp = DrinfeldPairing(SL3)
    block = bp.gram_block((0, 0))
    assert len(block.basis) == 1
    assert QScalar(block.numerators[0][0], block.denominator) == QScalar.one()


def test_serre_elements():
    bp = DrinfeldPairing(SL3)
    el = bp.quantum_serre_element(0, 1)
    assert {word_degree(w, 2) for w, _ in el} == {(2, 1)}
    two_fact = q_factorial(2)
    assert dict(el)[(0, 0, 1)] == QScalar.one() / two_fact
    assert dict(el)[(0, 1, 0)] == QScalar(-1)
    assert dict(el)[(1, 0, 0)] == QScalar.one() / two_fact

    bp0 = DrinfeldPairing(SL2SL2)
    el0 = bp0.quantum_serre_element(0, 1)
    assert dict(el0) == {(0, 1): QScalar.one(), (1, 0): QScalar(-1)}

    bpa = DrinfeldPairing(AFF)
    ela = bpa.quantum_serre_element(0, 1)
    assert {word_degree(w, 2) for w, _ in ela} == {(3, 1)}
    assert len(ela) == 4

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
    degree = (2, 1)
    kb = bp.kernel_block(degree)
    vec = kb.vectors[0]
    for i in range(2):
        for left in (True, False):
            # the product with the generator word (i,), coefficient one
            target = tuple(m + (k == i) for k, m in enumerate(degree))
            prod = combination({
                ((i,) + w if left else w + (i,)): c for w, c in vec})
            for z in enumerate_words(target):
                acc = QScalar.zero()
                for w, cw in prod:
                    val = pair_words(bp, w, z)
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
        N, _normalize_poly_vector, bp.p, points)
    assert (rank, pivots, vectors) == (2, [0, 1], [])
    assert next(points, None) is None


def test_laurent_kernels_never_reach_the_symbolic_check(monkeypatch):
    # N . k = 0 is decided on packed integers alone, also at a point whose
    # candidates fail and on a rational matrix (D = 2)
    def refuse(N, vec):
        raise AssertionError("_verify_zero on a Laurent kernel path")

    monkeypatch.setattr(linalg, "_verify_zero", refuse)
    bp = DrinfeldPairing(AFF)
    for m in degrees_upto(2, 5):
        bp.kernel_block(m)
    assert bp.kernel_block((3, 1)).quotient_dim == 3
    half = build_realization([[2, Fraction(-1, 2)], [Fraction(-1, 2), 2]])
    bp2 = DrinfeldPairing(half, D=session_denominator(half))
    for m in degrees_upto(2, 4):
        bp2.kernel_block(m)
    N = DrinfeldPairing(SL3).gram_block((1, 1)).numerators
    assert certified_laurent_nullspace(
        N, _normalize_poly_vector, bp.p,
        iter((Fraction(1), Fraction(2))))[:2] == (2, [0, 1])


def test_every_one_coefficient_change_of_the_serre_vector_is_rejected():
    bp = DrinfeldPairing(AFF)
    bp.kernel_block((3, 1))
    (serre,) = bp._vectors[(3, 1)]
    verified = linalg._packed_verifier(bp.gram_block((3, 1)).numerators)
    assert verified([serre])
    lo = min(e.min_exp for e in serre if e)
    hi = max(e.max_exp for e in serre if e)
    changes = 0
    for c in range(len(serre)):
        for e in range(lo, hi + 1):
            for sign in (1, -1):
                bad = list(serre)
                bad[c] = bad[c] + LaurentPoly.monomial(e, sign)
                assert not verified([bad]), (c, e, sign)
                assert not verified([serre, bad]), (c, e, sign)
                changes += 1
    assert changes >= 4 * 2 * 4
    # a common integer multiple is still in the kernel, a mixed one is not;
    # rational coefficients cannot occur
    assert verified([[e * 3 for e in serre]])
    assert not verified([[e * (1 + c % 2) for c, e in enumerate(serre)]])
    with pytest.raises(TypeError):
        serre[0] * Fraction(1, 3)


def test_packed_check_sees_a_difference_with_a_root_at_a_power_of_two():
    # N . k = v - 2^k vanishes at v = 2^k, so a packing k bits wide would
    # accept it; the bound sums the 1-norms of a row of N and multiplies by
    # the largest 1-norm of an entry of k
    one = LaurentPoly.one()
    for k in range(3, 40):
        power = LaurentPoly.monomial(0, -2 ** k)
        quarter = LaurentPoly.monomial(0, -2 ** (k - 2))
        assert (mono(1) + power).kronecker(k, 0, 1) == 0
        for N, vec in (([[mono(1), power]], [one, one]),
                       ([[one, one]], [mono(1), power]),
                       ([[one] * 5], [mono(1)] + [quarter] * 4)):
            assert not linalg._packed_verifier(N)([vec]), (k, N, vec)


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


def test_bareiss_widens_when_the_exact_check_rejects_16_bits(monkeypatch):
    # det = v + 2^20 - 1 and X = 2^30 (1, -1) need 22 and 32 bits: at 16
    # bits every integer pivot is nonzero, but the outputs unpack wrong and
    # the exact check rejects them; 32 bits is below the cap (33 bits, for
    # the product 2 (2^30 + 2^20 + 2) of the row norms), so the check
    # accepts the second width
    verdicts = []
    verifier = linalg._packed_verifier

    def recording(N):
        verified = verifier(N)

        def record(vectors):
            verdicts.append(verified(vectors))
            return verdicts[-1]

        return record

    monkeypatch.setattr(linalg, "_packed_verifier", recording)
    one = LaurentPoly.one()
    P = [[mono(1) + LaurentPoly.monomial(0, 2 ** 20), one], [one, one]]
    B = [[LaurentPoly.monomial(0, 2 ** 30)], [LaurentPoly.zero()]]
    det, X = linalg.bareiss_solve_columns(P, B)
    assert verdicts == [False, True]
    sign = 1 if det.leading_coeff() > 0 else -1
    assert det == (mono(1) + LaurentPoly.monomial(0, 2 ** 20 - 1)) * sign
    assert X == [[B[0][0] * sign], [-B[0][0] * sign]]


def test_bareiss_unpacks_outputs_whose_signed_digits_need_a_spare_slot():
    # at 16 bits (cap 18) X packs to 32767 * 2^16 + 40000 = 2147458112, 31
    # bits; its signed digits (-25536, -32768, 1) need a third slot
    b = mono(1) * 32767 + LaurentPoly.monomial(0, 40000)
    assert linalg.bareiss_solve_columns([[LaurentPoly.one()]], [[b]]) == (
        LaurentPoly.one(), [[b]])


def test_bareiss_on_a_singular_system_raises():
    # two equal rows: every integer image is singular, so the widths run up
    # to the cap, where a zero pivot column proves it
    a = LaurentPoly.from_dict({-2: 3, 0: -1, 4: 2 ** 35})
    b = mono(-1) + mono(3)
    c = LaurentPoly.monomial(1, -7)
    for P in ([[a, b], [a, b]], [[a, b, c], [c, a, b], [a, b, c]]):
        B = [[mono(r)] for r in range(len(P))]
        with pytest.raises(ValueError, match="singular"):
            linalg.bareiss_solve_columns(P, B)


def _spy_bareiss(monkeypatch):
    """Record the number of rows of every fraction-free solve."""
    sizes = []
    solve = linalg.bareiss_solve_columns

    def spy(P, B):
        sizes.append(len(P))
        return solve(P, B)

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


def test_where_the_ideal_fills_every_degree_nothing_is_unpacked(monkeypatch):
    # 2 -1/2; -1/2 2 (D = 2) through degree 6: every kernel is zero, so
    # the ranks mod p certify every degree and no exact block is built
    def refuse(*args):
        raise AssertionError("a Gram-side certificate on the ideal path")

    monkeypatch.setattr(qpairing, "certified_laurent_nullspace", refuse)
    half = build_realization([[2, Fraction(-1, 2)], [Fraction(-1, 2), 2]])
    bp = DrinfeldPairing(half, D=2)
    for m in degrees_upto(2, 6):
        kb = bp.kernel_block(m)
        assert kb.vectors == () and kb.quotient_dim == len(enumerate_words(m))
    assert all(p is not None for _, p in bp._gram_cache)


@pytest.mark.parametrize("matrix, gram_side", [
    ([[2, -2], [-2, 2]], {(1, 3), (3, 1)}),
    ([[2, -3], [-3, 2]], {(1, 4), (4, 1)}),
], ids=["affine", "hyperbolic"])
def test_exact_blocks_only_at_and_below_the_gram_side_degrees(
        monkeypatch, matrix, gram_side):
    # the relations through degree 6: the Gram side certifies only the
    # Serre degrees, and the exact recursion builds those degrees and the
    # degrees below them, nothing else (12 blocks on affine, 16 on
    # hyperbolic)
    seen = set()
    block = DrinfeldPairing.gram_block

    def spy(self, m):
        seen.add(tuple(m))
        return block(self, m)

    monkeypatch.setattr(DrinfeldPairing, "gram_block", spy)
    bp = DrinfeldPairing(build_realization(matrix))
    for m in degrees_upto(2, 6):
        bp.kernel_block(m)
    assert seen == gram_side
    below = {(a, b) for s, t in gram_side
             for a in range(s + 1) for b in range(t + 1)}
    assert {m for m, p in bp._gram_cache if p is None} == below


def test_bar_conjugate_kernels_match_the_gram_side():
    # exponent_sign = +1 on affine through degree 5: the ideal path and
    # the certificate on the Gram block alone give one rank, one pivot set
    # and the same vectors
    bp = DrinfeldPairing(AFF, exponent_sign=1)
    for m in degrees_upto(2, 5):
        kb = bp.kernel_block(m)
        block = bp.gram_block(m)
        rank, pivots, vectors = certified_laurent_nullspace(
            block.numerators, _normalize_poly_vector, bp.p, EVAL_POINTS)
        assert kb.quotient_dim == rank, m
        assert bp.quotient_basis(m) == tuple(block.basis[p] for p in pivots)
        assert bp._vectors[m] == vectors, m
