from fractions import Fraction

import pytest

from qkm.cartan import (
    CartanDatum,
    NotSymmetrizableError,
    Weight,
    build_realization,
    session_denominator,
    symmetrize,
    weight_form,
)

SL2 = [[2]]
SL3 = [[2, -1], [-1, 2]]
AFFINE_SL2 = [[2, -2], [-2, 2]]


def test_symmetrize_examples():
    assert symmetrize([[2, -1], [-1, 2]]) == (1, 1)
    assert symmetrize([[2, -2], [-1, 2]]) == (1, 2)
    with pytest.raises(NotSymmetrizableError):
        symmetrize([[2, -1], [0, 2]])


def test_symmetrize_is_canonical_and_componentwise():
    A = [[2, -2, 0], [-1, 2, 0], [0, 0, 2]]
    d1 = symmetrize(A)
    d2 = symmetrize(A)
    assert d1 == d2 == (1, 2, 1)


def test_symmetrize_inconsistent_cycle():
    # 3-cycle with product of ratios != 1
    A = [[2, 1, 2], [2, 2, 1], [1, 1, 2]]
    with pytest.raises(NotSymmetrizableError):
        symmetrize(A)


def test_build_rank1():
    cd = build_realization(SL2)
    assert cd.h_dim == 1
    assert cd.G == ((2,),)
    assert cd.alpha_form(0, 0) == 2


def test_build_sl3():
    cd = build_realization(SL3)
    assert cd.h_dim == 2
    assert cd.G == ((2, -1), (-1, 2))
    for i in range(2):
        for j in range(2):
            ai = Weight(tuple(cd.alpha[i]), (0, 0))
            aj = Weight(tuple(cd.alpha[j]), (0, 0))
            assert weight_form(ai, aj, cd) == cd.d[i] * cd.A[i][j]


def test_build_affine_extension():
    cd = build_realization(AFFINE_SL2)
    assert cd.h_dim == 3
    # form survives the extension and reproduces d_i a_ij on roots
    for i in range(2):
        for j in range(2):
            ai = Weight(tuple(cd.alpha[i]), (0, 0))
            aj = Weight(tuple(cd.alpha[j]), (0, 0))
            assert weight_form(ai, aj, cd) == cd.d[i] * cd.A[i][j]
    # the extension columns are the first independent columns of the
    # kernel basis: (0, 1, 1) skips column 0, and affine + affine takes
    # columns 0 and 2
    for A, ext in (([[2, 0, 0], [0, 2, -2], [0, -2, 2]], [(0,), (1,), (0,)]),
                   ([[2, -2, 0, 0], [-2, 2, 0, 0], [0, 0, 2, -2],
                     [0, 0, -2, 2]], [(1, 0), (0, 0), (0, 1), (0, 0)])):
        cd = build_realization(A)
        assert [row[cd.n:] for row in cd.alpha] == ext


def test_invariants_across_matrices():
    for A in (SL2, SL3, AFFINE_SL2, [[2, -2], [-1, 2]],
              [[2, Fraction(-1, 2)], [Fraction(-1, 2), 2]]):
        cd = build_realization(A)
        n, h = cd.n, cd.h_dim
        # alpha . h_coords^T = A^T exactly
        for i in range(n):
            for j in range(n):
                val = sum(cd.alpha[i][k] * cd.h_coords[j][k] for k in range(h))
                assert val == cd.A[j][i]
        # G symmetric, G h_i = d_i^{-1} alpha_i
        for a in range(h):
            for b in range(h):
                assert cd.G[a][b] == cd.G[b][a]
        for i in range(n):
            for k in range(h):
                assert sum(cd.G[k][l] * cd.h_coords[i][l] for l in range(h)) \
                    == cd.alpha[i][k] / cd.d[i]


def test_weight_form_values():
    sl2 = build_realization(SL2)
    a = Weight(tuple(sl2.alpha[0]), (0,))
    assert weight_form(a, a, sl2) == 2
    sl3 = build_realization(SL3)
    a1 = Weight(tuple(sl3.alpha[0]), (0, 0))
    a2 = Weight(tuple(sl3.alpha[1]), (0, 0))
    assert weight_form(a1, a2, sl3) == -1
    # (lambda, alpha_1) = d_1 lambda(h_1)
    lam = Weight.highest(_coords_for(sl2, [1]), 1)
    assert weight_form(lam, a, sl2) == 1


def _coords_for(cd: CartanDatum, coroot_values):
    """Solve for base coordinates with prescribed values on the coroots.

    With coroots h_i = e_i the first n coordinates are the values themselves;
    extension coordinates are set to zero.
    """
    vals = list(coroot_values) + [0] * (cd.h_dim - cd.n)
    return tuple(Fraction(v) for v in vals)


def test_weight_offsets():
    cd = build_realization(SL3)
    lam = Weight.highest(_coords_for(cd, [1, 0]), 2)
    mu = Weight(lam.base, (1, 1))
    assert mu.value_on_coroot(cd, 0) == 1 - cd.A[0][0] - cd.A[1][0]


def test_session_denominator():
    sl2 = build_realization(SL2)
    assert session_denominator(sl2) == 1
    lam = Weight.highest(_coords_for(sl2, [1]), 1)
    assert session_denominator(sl2, [lam]) == 2  # (lambda, lambda) = 1/2
    rat = build_realization([[2, Fraction(-1, 2)], [Fraction(-1, 2), 2]])
    assert session_denominator(rat) == 2
