"""Property tests over random symmetrizable matrices A = diag(d)^-1 B.

B is symmetric with small nonpositive off-diagonal entries; the diagonal of
A ranges over finite, imaginary and fractional values.  Examples are
derandomized and bounded, so every run checks the same matrices.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qkm.cartan import (
    Weight,
    build_realization,
    session_denominator,
    weight_form,
    weight_form_base,
)
from qkm.classical import (
    CasimirEngine,
    CasimirTensor,
    PolyN,
    ShapovalovForm,
    root_multiplicities,
)
from qkm.freealg import enumerate_words, total_degree, word_degree
from qkm.linalg import (
    _packed_verifier,
    _verify_zero,
    bareiss_solve_columns,
    certified_laurent_nullspace,
    invert,
)
from qkm.qmodules import (
    character,
    check_module_relations,
    classical_module,
    irreducible,
    radical_dimensions,
    verma,
)
from qkm.qpairing import (
    EVAL_POINTS,
    DrinfeldPairing,
    _normalize_poly_vector,
    degrees_upto,
)
from qkm.rmatrix import check_ybe, total_offsets
from qkm.scalars import LaurentPoly, QScalar

D_VALUES = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3))
A_DIAGONAL = (Fraction(2), Fraction(0), Fraction(-2), Fraction(4),
              Fraction(2, 3))
B_OFF_DIAGONAL = (Fraction(0), Fraction(-1, 2), Fraction(-1), Fraction(-2))
HW_VALUES = (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2),
             Fraction(-2, 3))

PROPERTY = settings(derandomize=True, max_examples=20, deadline=None,
                    database=None)


@st.composite
def symmetrizable(draw, max_n=3):
    n = draw(st.integers(1, max_n))
    d = [draw(st.sampled_from(D_VALUES)) for _ in range(n)]
    B = [[d[i] * draw(st.sampled_from(A_DIAGONAL)) if i == j else None
          for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            B[i][j] = B[j][i] = draw(st.sampled_from(B_OFF_DIAGONAL))
    A = [[B[i][j] / d[i] for j in range(n)] for i in range(n)]
    return build_realization(A, d)


def _cap(cd):
    return 4 if cd.n <= 2 else 3


@PROPERTY
@given(symmetrizable())
@example(build_realization([[2, -2], [-2, 2]]))
@example(build_realization([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]))
@example(build_realization([[0]]))
def test_realization_invariants(cd):
    """The realization has dimension 2n - rank(A), alpha_i(h_j) = a_ji, a
    symmetric form with (alpha_i, alpha_j) = d_i a_ij, and G_inv inverts G;
    the examples are rank-deficient."""
    n, h = cd.n, cd.h_dim
    assert h == 2 * n - np.linalg.matrix_rank(np.array(cd.A, float)), cd.A
    for i in range(n):
        for j in range(n):
            assert sum(a * c for a, c in zip(cd.alpha[i], cd.h_coords[j])) \
                == cd.A[j][i], (cd.A, i, j)
            assert weight_form_base(cd, cd.alpha[i], cd.alpha[j]) \
                == cd.d[i] * cd.A[i][j], (cd.A, cd.d, i, j)
    basis = [Weight.highest([int(k == c) for k in range(h)], n)
             for c in range(h)]
    assert all(weight_form(x, y, cd) == weight_form(y, x, cd)
               for x in basis for y in basis), cd.A
    assert [[sum(g * ginv for g, ginv in zip(row, col))
             for col in zip(*cd.G_inv)] for row in cd.G] == [
        [int(r == c) for c in range(h)] for r in range(h)], cd.A


@PROPERTY
@given(symmetrizable())
def test_flatness(cd):
    """The quantum and classical relation spaces have equal dimensions."""
    cap = _cap(cd)
    quantum = DrinfeldPairing(cd).quotient_dims(cap)
    assert quantum == ShapovalovForm(cd).quotient_dims(cap)


@PROPERTY
@given(symmetrizable())
def test_gram_blocks_are_symmetric(cd):
    cap = _cap(cd)
    bp = DrinfeldPairing(cd)
    sf = ShapovalovForm(cd)
    for m in degrees_upto(cd.n, cap):
        for rows in (bp.gram_block(m).numerators, sf.block(m)[1]):
            assert all(rows[a][b] == rows[b][a] for a in range(len(rows))
                       for b in range(a)), (cd.A, m)


@PROPERTY
@given(symmetrizable())
def test_residues_of_exact_blocks_are_the_blocks_mod_p(cd):
    """One recursion, two rings: reducing the exact Gram blocks at the
    fixed point gives the blocks the recursion builds mod p."""
    cap = _cap(cd)
    for engine in (DrinfeldPairing(cd),
                   ShapovalovForm(cd)):
        p = engine.p
        for m in degrees_upto(cd.n, cap):
            exact = engine._gram(m)[1]
            assert engine._gram(m, p)[1].tolist() == [
                [engine._residue(e, p) for e in row] for row in exact], (
                cd.A, m)


@PROPERTY
@given(symmetrizable(), st.data())
def test_module_relations_at_random_weights(cd, data):
    """The defining relations hold on the quantum Verma and irreducible
    modules and their classical counterparts, at any highest weight."""
    base = [data.draw(st.sampled_from(HW_VALUES)) for _ in range(cd.h_dim)]
    lam = Weight.highest(base, cd.n)
    for M in (verma(lam, 2, cd), irreducible(lam, 2, cd),
              classical_module(lam, "verma", 2, cd),
              classical_module(lam, "irreducible", 2, cd)):
        assert check_module_relations(M), (cd.A, base, M.kind)


@PROPERTY
@given(symmetrizable(), st.data())
def test_irreducible_is_the_verma_module_modulo_its_radical(cd, data):
    """The irreducible built from the contravariant form at lambda has the
    dimensions of the Verma module less the radical of the form on it,
    evaluated there by word actions; the quantum and classical characters
    agree, and the relations hold.  Examples whose session denominator
    exceeds 120 are skipped: at D = 1146 the dense Q(v) arithmetic of
    either construction takes seconds for one weight."""
    base = [data.draw(st.sampled_from(HW_VALUES)) for _ in range(cd.h_dim)]
    lam = Weight.highest(base, cd.n)
    assume(session_denominator(cd, [lam]) <= 120)
    chars = []
    for M, L in ((verma(lam, 3, cd), irreducible(lam, 3, cd)),
                 (classical_module(lam, "verma", 3, cd),
                  classical_module(lam, "irreducible", 3, cd))):
        rad = radical_dimensions(M)
        assert character(L) == {m: M.dim(m) - rad[m] for m in M.offsets()}, (
            cd.A, base, L.kind)
        assert check_module_relations(L), (cd.A, base, L.kind)
        chars.append(character(L))
    assert chars[0] == chars[1], (cd.A, base)


def test_irreducible_characters_at_a_large_session_denominator():
    """A fixed example beyond the D <= 120 the draws above keep: with the
    symmetrizers d = (1, 2/3) that `symmetrize` picks, the exponents of q
    need D = 3438.  The quantum and classical irreducible characters agree
    and the relations hold on both modules."""
    cd = build_realization([[2, Fraction(-1, 6)], [Fraction(-1, 4), 4]])
    lam = Weight.highest((Fraction(1), Fraction(-2, 3)), cd.n)
    assert session_denominator(cd, [lam]) == 3438
    quantum = irreducible(lam, 2, cd)
    classical = classical_module(lam, "irreducible", 2, cd)
    assert character(quantum) == character(classical)
    assert check_module_relations(quantum)
    assert check_module_relations(classical)


@PROPERTY
@given(symmetrizable())
def test_reduce_kills_kernels_and_fixes_pivot_words(cd):
    cap = _cap(cd)
    bp = DrinfeldPairing(cd)
    sf = ShapovalovForm(cd)
    for m in degrees_upto(cd.n, cap):
        words = enumerate_words(m)
        kernels = ((bp, bp.kernel_block(m).vectors),
                   (sf, [list(zip(words, v)) for v in sf.kernel(m)[1]]))
        for engine, combos in kernels:
            basis = engine.quotient_basis(m)
            zero = [engine.zero] * len(basis)
            for combo in combos:
                assert engine.reduce(m, combo) == zero, (cd.A, m)
            for r, w in enumerate(basis):
                unit = [engine.one if k == r else engine.zero
                        for k in range(len(basis))]
                assert engine.reduce(m, [(w, engine.one)]) == unit


def _form_entry(sf, x, z):
    """The Shapovalov form of two words of one degree, read off its block."""
    words, mat = sf.block(word_degree(x, sf.cd.n))
    return mat[words.index(x)][words.index(z)]


@PROPERTY
@given(symmetrizable())
def test_kernels_form_a_two_sided_ideal(cd):
    """(i,) + w and w + (i,) carry exact kernel vectors into the kernel one
    degree up, through degree 4: the upper bound of the dimension
    certificate rests on it."""
    bp = DrinfeldPairing(cd)
    sf = ShapovalovForm(cd)
    for m in degrees_upto(cd.n, 3):
        words = enumerate_words(m)
        kernels = (
            (bp.pair_numerator, LaurentPoly.zero(),
             [[(w, c.num) for w, c in v]
              for v in bp.kernel_block(m).vectors]),
            (lambda x, z: _form_entry(sf, x, z), PolyN(cd.n),
             [list(zip(words, v)) for v in sf.kernel(m)[1]]))
        for pair, zero, combos in kernels:
            for combo in combos:
                for i in range(cd.n):
                    up = m[:i] + (m[i] + 1,) + m[i + 1:]
                    for grown in ([((i,) + w, c) for w, c in combo],
                                  [(w + (i,), c) for w, c in combo]):
                        for x in enumerate_words(up):
                            total = zero
                            for w, c in grown:
                                total = total + pair(x, w) * c
                            assert total == zero, (cd.A, m, i, x)


@PROPERTY
@given(symmetrizable())
def test_fast_recursion_matches_hopf_oracle(cd):
    bp = DrinfeldPairing(cd)
    for m in degrees_upto(cd.n, 3):
        words = enumerate_words(m)
        for x in words:
            for z in words:
                exact = QScalar(bp.pair_numerator(x, z), bp.denominator(m))
                assert exact == bp.oracle_pair_words(x, z), (cd.A, x, z)


@PROPERTY
@given(symmetrizable(max_n=2), st.data())
def test_braid_relation_on_verma_blocks(cd, data):
    """sigma R satisfies the braid relation on V^(x 3) for the quantum Verma
    module of a random rational highest weight, any symmetrizers d_i.  The
    blocks with |t| <= depth are exact: R never leaves them."""
    base = [data.draw(st.sampled_from(HW_VALUES)) for _ in range(cd.h_dim)]
    V = verma(Weight.highest(base, cd.n), 2, cd)
    totals = [t for t in total_offsets(V, 3) if total_degree(t) <= 2]
    assert check_ybe(V, totals=totals).holds, (cd.A, cd.d, base)


@PROPERTY
@given(symmetrizable(max_n=2))
def test_kernel_side_candidates_match_the_gram_side(cd):
    """In graded order `kernel_block` takes its kernels from the ideal one
    letter down where it fills the degree; the result equals the
    certificate run on the Gram block alone."""
    bp = DrinfeldPairing(cd)
    for m in degrees_upto(cd.n, 4):
        kb = bp.kernel_block(m)
        block = bp.gram_block(m)
        rank, pivots, vectors = certified_laurent_nullspace(
            block.numerators, _normalize_poly_vector, bp.p, EVAL_POINTS)
        assert kb.quotient_dim == rank, (cd.A, m)
        assert bp.quotient_basis(m) == tuple(block.basis[p] for p in pivots)
        assert bp._vectors[m] == vectors, (cd.A, m)


@st.composite
def laurent_kernel_system(draw):
    """An r x (r + 1) matrix N over Z[v^+-1], r = 1 or 2, every exponent in
    one class mod step (1 to 3) and some negative, and k, the signed
    maximal minors of N, so N . k = 0."""
    step = draw(st.integers(1, 3))
    residue = draw(st.integers(0, step - 1))
    r = draw(st.integers(1, 2))

    def entry():
        terms = draw(st.dictionaries(
            st.integers(-3, 3).map(lambda t: residue + step * t),
            st.integers(-9, 9).filter(bool), max_size=3))
        return LaurentPoly.from_dict(terms)

    N = [[entry() for _ in range(r + 1)] for _ in range(r)]
    if r == 1:
        k = [N[0][1], -N[0][0]]
    else:
        (a, b, c), (d, e, f) = N
        k = [b * f - c * e, c * d - a * f, a * e - b * d]
    return N, k


@settings(PROPERTY, max_examples=200)
@given(laurent_kernel_system(), st.data())
def test_packed_check_agrees_with_symbolic_products(system, data):
    """The Kronecker-packed decision of N . k = 0 equals the symbolic one on
    kernel vectors and on vectors moved off the kernel by one monomial,
    alone and together in one candidate set."""
    N, k = system
    verified = _packed_verifier(N)
    assert _verify_zero(N, k) and verified([k]), (N, k)
    bad = list(k)
    c = data.draw(st.integers(0, len(k) - 1))
    bad[c] = bad[c] + LaurentPoly.monomial(data.draw(st.integers(-8, 8)),
                                           data.draw(st.sampled_from((-1, 1))))
    assert verified([bad]) == _verify_zero(N, bad), (N, bad)
    assert verified([k, bad]) == _verify_zero(N, bad), (N, k, bad)


@st.composite
def laurent_square_system(draw):
    """P n x n (n <= 6) and B n x t over Z[v^+-1]: about a third of the
    entries zero, the others one or two terms with exponents in one class
    mod 2, some negative, and coefficients up to 2^40 in absolute value."""
    n = draw(st.integers(1, 6))
    t = draw(st.integers(1, 3))
    residue = draw(st.integers(0, 1))

    def entry():
        if not draw(st.integers(0, 2)):
            return LaurentPoly.zero()
        terms = draw(st.dictionaries(
            st.integers(-1, 1).map(lambda e: residue + 2 * e),
            st.integers(-2 ** 40, 2 ** 40).filter(bool), min_size=1,
            max_size=2))
        return LaurentPoly.from_dict(terms)

    return ([[entry() for _ in range(n)] for _ in range(n)],
            [[entry() for _ in range(t)] for _ in range(n)])


@settings(PROPERTY, max_examples=40)
@given(laurent_square_system())
def test_packed_bareiss_solves_over_the_field(system):
    """bareiss_solve_columns gives P X = det B over Z[v^+-1], and X / det is
    the solution over Q(v); a singular P raises ValueError both ways."""
    P, B = system
    field = [[QScalar(e) for e in row] for row in P]
    try:
        inverse = invert(field, one=QScalar(1))
    except ValueError:
        with pytest.raises(ValueError):
            bareiss_solve_columns(P, B)
        return
    det, X = bareiss_solve_columns(P, B)
    zero = LaurentPoly.zero()
    for r, row in enumerate(P):
        for c in range(len(B[0])):
            assert sum((e * x[c] for e, x in zip(row, X)), zero) == (
                det * B[r][c]), (P, B)
            assert QScalar(X[r][c], det) == sum(
                (inverse[r][j] * QScalar(B[j][c]) for j in range(len(B))),
                QScalar(0)), (P, B)


def _diagonal_action(V, src, dst, i, raising):
    """x (x) 1 + 1 (x) x for x = e_i (raising) or f_i, from the V (x) V block
    basis src to dst."""
    index = {key: r for r, key in enumerate(dst)}
    act = V.apply_e if raising else V.apply_f
    mat = [[Fraction(0)] * len(src) for _ in dst]
    for c, (mV, a, mW, b) in enumerate(src):
        for first, (m, k) in ((True, (mV, a)), (False, (mW, b))):
            t, img = act(i, m, V.unit(m, k))
            for r, x in enumerate(img):
                if x:
                    key = (t, r, mW, b) if first else (mV, a, t, r)
                    mat[index[key]][c] += x
    return mat


def _dense(rows):
    return [[row.get(c, Fraction(0)) for c in range(len(rows))]
            for row in rows]


def invariant_form(eng, beta, pos_index, f_combo):
    """(x, y) for x the pos_index-th root basis element of degree beta and y
    a combo of f-words of the same degree."""
    x = eng.root_basis(beta)[pos_index]
    return eng._pairings(beta, [x], [f_combo])[0][0]


def _matmul(A, B):
    cols = list(zip(*B))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0))
             for col in cols] for row in A]


@PROPERTY
@given(symmetrizable(max_n=2), st.data())
def test_casimir_root_spaces_and_invariance(cd, data):
    """The Casimir engine reads its root spaces and the invariant form off
    the contravariant Gram blocks.  Three independent checks through depth
    3: the root space dimensions equal the multiplicities from PBW
    inversion of the certified dims, every dual pair pairs to the
    identity, and the Casimir tensor on V (x) V commutes exactly with the
    diagonal action of every e_i and f_i, for the classical Verma and
    irreducible modules at a random highest weight, on the blocks
    |t| <= 2 and their neighbours."""
    eng = CasimirEngine(ShapovalovForm(cd))
    mults = root_multiplicities(ShapovalovForm(cd).quotient_dims(3))
    for beta in degrees_upto(cd.n, 3):
        assert len(eng.root_basis(beta)) == mults[beta], (cd.A, cd.d, beta)
        pairs = eng.dual_root_pairs(beta)
        for a in range(len(pairs)):
            for b, (_, fdual) in enumerate(pairs):
                assert invariant_form(eng, beta, a, fdual) == int(a == b), (
                    cd.A, cd.d, beta)
    base = [data.draw(st.sampled_from(HW_VALUES)) for _ in range(cd.h_dim)]
    lam = Weight.highest(base, cd.n)
    for kind in ("verma", "irreducible"):
        V = classical_module(lam, kind, 3, cd)
        omega = CasimirTensor(V, V)
        for t in degrees_upto(cd.n, 2, include_zero=True):
            src, om_src = omega.block(t)
            for i in range(cd.n):
                for step, raising in ((-1, True), (1, False)):
                    s = tuple(x + step * (k == i) for k, x in enumerate(t))
                    if min(s) < 0:
                        continue
                    dst, om_dst = omega.block(s)
                    D = _diagonal_action(V, src, dst, i, raising)
                    assert (_matmul(_dense(om_dst), D)
                            == _matmul(D, _dense(om_src))), (
                        cd.A, cd.d, base, kind, t, i)
