"""Property tests over random symmetrizable matrices A = diag(d)^-1 B.

B is symmetric with small nonpositive off-diagonal entries; the diagonal of
A ranges over finite, imaginary and fractional values.  Examples are
derandomized and bounded, so every run checks the same matrices.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from qkm.cartan import Weight, build_realization
from qkm.classical import PolyN, ShapovalovForm
from qkm.freealg import enumerate_words, total_degree
from qkm.linalg import certified_laurent_nullspace
from qkm.qmodules import (
    check_module_relations,
    classical_module,
    irreducible,
    verma,
)
from qkm.qpairing import (
    EVAL_POINTS,
    DrinfeldPairing,
    _normalize_poly_vector,
    degrees_upto,
)
from qkm.rmatrix import check_ybe, total_offsets
from qkm.scalars import LaurentPoly

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
def test_flatness(cd):
    """The quantum and classical relation spaces have equal dimensions."""
    cap = _cap(cd)
    quantum = DrinfeldPairing(cd, degree_cap=cap).quotient_dims(cap)
    assert quantum == ShapovalovForm(cd, degree_cap=cap).quotient_dims(cap)


@PROPERTY
@given(symmetrizable())
def test_gram_blocks_are_symmetric(cd):
    cap = _cap(cd)
    bp = DrinfeldPairing(cd, degree_cap=cap)
    sf = ShapovalovForm(cd, degree_cap=cap)
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
    for engine in (DrinfeldPairing(cd, degree_cap=cap),
                   ShapovalovForm(cd, degree_cap=cap)):
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
@given(symmetrizable())
def test_reduce_kills_kernels_and_fixes_pivot_words(cd):
    cap = _cap(cd)
    bp = DrinfeldPairing(cd, degree_cap=cap)
    sf = ShapovalovForm(cd, degree_cap=cap)
    for m in degrees_upto(cd.n, cap):
        words = enumerate_words(m)
        kernels = ((bp, [v.terms for v in bp.kernel_block(m).vectors]),
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


@PROPERTY
@given(symmetrizable())
def test_kernels_form_a_two_sided_ideal(cd):
    """(i,) + w and w + (i,) carry exact kernel vectors into the kernel one
    degree up, through degree 4: the upper bound of the dimension
    certificate rests on it."""
    bp = DrinfeldPairing(cd, degree_cap=3)
    sf = ShapovalovForm(cd, degree_cap=3)
    for m in degrees_upto(cd.n, 3):
        words = enumerate_words(m)
        kernels = (
            (bp.pair_numerator, LaurentPoly.zero(),
             [[(w, c.num) for w, c in v.terms]
              for v in bp.kernel_block(m).vectors]),
            (sf.pair_words, PolyN(cd.n),
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
    bp = DrinfeldPairing(cd, degree_cap=3)
    for m in degrees_upto(cd.n, 3):
        words = enumerate_words(m)
        for x in words:
            for z in words:
                assert bp.pair_words(x, z) == bp.oracle_pair_words(x, z), (
                    cd.A, x, z)


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
    """In graded order `kernel_block` builds its candidates from the
    kernels one letter down where they fill the degree; the result equals
    the certificate run on the Gram block alone."""
    bp = DrinfeldPairing(cd, degree_cap=4)
    for m in degrees_upto(cd.n, 4):
        kb = bp.kernel_block(m)
        block = bp.gram_block(m)
        rank, pivots, vectors = certified_laurent_nullspace(
            block.numerators, LaurentPoly.zero(), LaurentPoly.one(),
            EVAL_POINTS, LaurentPoly.evaluate_fraction,
            _normalize_poly_vector)
        assert kb.quotient_dim == rank, (cd.A, m)
        assert bp.quotient_basis(m) == tuple(block.basis[p] for p in pivots)
        assert bp._vectors[m] == vectors, (cd.A, m)
