from fractions import Fraction

import pytest

from qkm.cartan import (
    Weight,
    build_realization,
    highest_weight,
    session_denominator,
)
from qkm.classical import ShapovalovForm, weyl_kac_character
from qkm.freealg import combination
from qkm.qmodules import (
    WeightModule,
    character,
    check_module_relations,
    classical_module,
    compare_characters,
    contravariant_form,
    irreducible,
    radical_dimensions,
    verma,
)
from qkm.qpairing import DrinfeldPairing
from qkm.scalars import QScalar, q_integer

SL2 = build_realization([[2]])
SL3 = build_realization([[2, -1], [-1, 2]])
AFF = build_realization([[2, -2], [-2, 2]])


def hw(cd, *vals):
    coords = list(map(Fraction, vals)) + [Fraction(0)] * (cd.h_dim - len(vals))
    return Weight.highest(coords, cd.n)


def test_sl2_verma_straightening_pattern():
    lam = hw(SL2, 3)
    M = verma(lam, 5, SL2)
    # E F^k v = [k][3 - k + 1] F^{k-1} v  (session grid: q = v^D)
    for k in range(1, 5):
        mat = M.e_action[(0, (k,))]
        assert len(mat) == 1 and len(mat[0]) == 1
        expected = q_integer(k, 1, M.D) * q_integer(4 - k, 1, M.D)
        assert mat[0][0] == expected


def test_e_annihilates_highest_vector():
    for cd, vals in ((SL2, (3,)), (SL3, (1, 0)), (AFF, (1, 0))):
        M = verma(hw(cd, *vals), 3, cd)
        for i in range(cd.n):
            assert (i, (0,) * cd.n) not in M.e_action or all(
                not c for row in M.e_action.get((i, (0,) * cd.n), []) for c in row)


def test_verma_dims_match_quotient_dims():
    bp = DrinfeldPairing(AFF)
    M = verma(hw(AFF, 1, 0), 4, AFF, pairing=bp)
    dims = bp.quotient_dims(4)
    for m, d in dims.items():
        assert M.dim(m) == d
    assert M.dim((0, 0)) == 1


def test_block_identities_quantum():
    for cd, vals, depth in ((SL2, (3,), 4), (SL3, (1, 1), 3), (AFF, (1, 0), 3)):
        lam = hw(cd, *vals)
        M = verma(lam, depth, cd)
        _assert_block_identities(M)


def _pad(vec, size, zero):
    return list(vec) + [zero] * (size - len(vec))


def _ef_commutator_scalar(M: WeightModule, i, m):
    """(K_i - K_i^{-1})/(q_i - q_i^{-1}) on the weight at offset m, or the
    classical h_i eigenvalue."""
    if M.kind == "quantum":
        from qkm.scalars import LaurentPoly, exponent_to_int
        ei = exponent_to_int(M.k_exponent(i, m), M.D)
        di = exponent_to_int(M.cd.d[i], M.D)
        return QScalar(LaurentPoly.monomial(ei) - LaurentPoly.monomial(-ei),
                       LaurentPoly.monomial(di) - LaurentPoly.monomial(-di))
    return M.h_eigenvalue(i, m)


def _assert_block_identities(M: WeightModule):
    cd = M.cd
    n = cd.n
    for m in M.offsets():
        dim_m = M.dim(m)
        if dim_m == 0:
            continue
        for i in range(n):
            for j in range(n):
                up = tuple(a + int(k == j) for k, a in enumerate(m))
                if up not in M.spaces:
                    continue
                target = tuple(a - int(k == i) for k, a in enumerate(up))
                tdim = M.dim(target) if all(x >= 0 for x in target) else 0
                down = tuple(a - int(k == i) for k, a in enumerate(m))
                for c in range(dim_m):
                    e_c = [M.scalar_one if r == c else M.scalar_zero
                           for r in range(dim_m)]
                    _, fv = M.apply_f(j, m, e_c)
                    _, efv = M.apply_e(i, up, fv)
                    if all(x >= 0 for x in down):
                        _, ev = M.apply_e(i, m, e_c)
                        _, fev = M.apply_f(j, down, ev)
                    else:
                        fev = []
                    efv = _pad(efv, tdim, M.scalar_zero)
                    fev = _pad(fev, tdim, M.scalar_zero)
                    comm = [a - b for a, b in zip(efv, fev)]
                    if i == j:
                        scalar = _ef_commutator_scalar(M, i, m)
                        expected = [scalar if r == c else M.scalar_zero
                                    for r in range(tdim)]
                    else:
                        expected = [M.scalar_zero] * tdim
                    assert comm == expected, (M.kind, m, i, j, c)


def test_block_identities_classical():
    for cd, vals, depth in ((SL2, (3,), 4), (SL3, (1, 1), 3)):
        M = classical_module(hw(cd, *vals), "verma", depth, cd)
        _assert_block_identities(M)


def test_k_conjugation():
    M = verma(hw(SL3, 1, 1), 3, SL3)
    cd = SL3
    for (j, m), mat in M.e_action.items():
        down = tuple(a - b for a, b in zip(m, (int(k == j) for k in range(2))))
        if M.dim(m) == 0 or M.dim(down) == 0:
            continue
        for i in range(2):
            # K_i E_j K_i^{-1} = q^{(alpha_i, alpha_j)} E_j blockwise
            lhs = M.k_eigenvalue(i, down)
            rhs = M.k_eigenvalue(i, m)
            from qkm.scalars import q_power
            ratio = lhs / rhs
            assert ratio == q_power(cd.alpha_form(i, j), M.D)


def test_contravariant_form_depth0_and_radical_location():
    lam = hw(SL2, 1)
    M = verma(lam, 3, SL2)
    blocks = contravariant_form(M)
    assert blocks[(0,)][0][0] == QScalar.one()
    # radical appears exactly at F^2 v for highest weight 1
    rads = radical_dimensions(M)
    assert rads[(0,)] == 0
    assert rads[(1,)] == 0
    assert rads[(2,)] == 1
    assert rads[(3,)] == 1


def test_contravariant_form_is_symmetric():
    M = verma(hw(SL3, 1, 1), 3, SL3)
    for m, mat in contravariant_form(M).items():
        for a in range(len(mat)):
            for b in range(a + 1, len(mat)):
                assert mat[a][b] == mat[b][a]


def test_generic_weight_has_no_radical():
    lam = hw(SL2, Fraction(1, 3))
    M = verma(lam, 4, SL2)
    rads = radical_dimensions(M)
    assert all(v == 0 for v in rads.values())


def test_irreducible_sl2():
    L1 = irreducible(hw(SL2, 3), 6, SL2)
    assert [L1.dim((k,)) for k in range(7)] == [1, 1, 1, 1, 0, 0, 0]
    assert L1.complete
    L0 = irreducible(hw(SL2, 0), 3, SL2)
    assert [L0.dim((k,)) for k in range(4)] == [1, 0, 0, 0]


def test_irreducible_sl3_adjoint():
    L = irreducible(hw(SL3, 1, 1), 5, SL3)
    total = sum(L.dim(m) for m in L.offsets())
    assert total == 8
    assert L.dim((1, 1)) == 2
    assert L.complete


def test_radical_is_submodule():
    lam = hw(SL2, 3)
    M = verma(lam, 6, SL2)
    blocks = contravariant_form(M)
    from qkm.linalg import nullspace
    for m in M.offsets():
        rad = nullspace(blocks[m], M.scalar_one) if M.dim(m) else []
        for vec in rad:
            for i in range(M.cd.n):
                up = tuple(a + b for a, b in zip(m, (int(k == i) for k in range(1))))
                if up not in M.spaces or M.dim(up) == 0:
                    continue
                _, img = M.apply_f(i, m, vec)
                # the image must pair to zero with everything: S(up) . img = 0
                prod = [sum((row[c] * img[c] for c in range(len(img))),
                            start=M.scalar_zero) for row in blocks[up]]
                assert all(not x for x in prod)


def test_character_comparison_quantum_classical():
    cases = [
        (SL2, (0,), 2), (SL2, (1,), 3), (SL2, (3,), 5),
        (SL3, (1, 0), 4), (SL3, (1, 1), 4),
    ]
    for cd, vals, depth in cases:
        lam = hw(cd, *vals)
        Lq = irreducible(lam, depth, cd)
        Lc = classical_module(lam, "irreducible", depth, cd)
        rep = compare_characters(Lq, Lc)
        assert rep.equal, (cd.A, vals, rep)


def test_character_matches_weyl_kac():
    lam = hw(SL3, 1, 0)
    L = irreducible(lam, 4, SL3)
    ch = character(L)
    wk = weyl_kac_character(lam, SL3, 4)
    for m, d in ch.items():
        assert wk.get(m, 0) == d


def test_irreducible_character_dominated_by_verma():
    lam = hw(SL3, 1, 1)
    M = verma(lam, 4, SL3)
    L = irreducible(lam, 4, SL3)
    chM = character(M)
    chL = character(L)
    assert chL[(0, 0)] == chM[(0, 0)] == 1
    for m, d in chL.items():
        assert d <= chM[m]


def test_verma_character_comparison_is_automatic():
    lam = hw(SL3, 2, 5)
    Mq = verma(lam, 3, SL3)
    Mc = classical_module(lam, "verma", 3, SL3)
    assert compare_characters(Mq, Mc).equal


def test_modules_take_the_session_denominator_from_the_pairing():
    lam = hw(SL3, Fraction(1, 2), Fraction(-1, 3))
    D = session_denominator(SL3, [lam])
    bp = DrinfeldPairing(SL3, D=2 * D)
    for build in (verma, irreducible):
        M = build(lam, 2, SL3, pairing=bp)
        assert M.D == bp.D and M.engine is bp
        assert check_module_relations(M)
    assert verma(lam, 2, SL3).D == irreducible(lam, 2, SL3).D == D


def test_a_pairing_for_another_cartan_datum_is_refused():
    for build in (verma, irreducible):
        with pytest.raises(ValueError, match="another Cartan datum"):
            build((1, 1), 3, SL3, pairing=DrinfeldPairing(AFF))
    # an equal datum built again is the same datum
    sl3 = build_realization([[2, -1], [-1, 2]])
    assert check_module_relations(
        irreducible((1, 1), 2, SL3, pairing=DrinfeldPairing(sl3)))


def test_irreducibles_reach_no_generic_kernel(monkeypatch):
    """L(lambda) is the quotient by the contravariant form at lambda: no
    Verma module, hence no kernel of the generic pairing or form, is built
    on the way."""
    def refuse(*args):
        raise AssertionError("an irreducible reached a generic kernel")

    monkeypatch.setattr(DrinfeldPairing, "kernel_block", refuse)
    monkeypatch.setattr(ShapovalovForm, "kernel", refuse)
    lam = hw(SL3, 1, 1)
    for L in (irreducible(lam, 5, SL3),
              classical_module(lam, "irreducible", 5, SL3)):
        assert sum(character(L).values()) == 8 and L.complete
        assert check_module_relations(L)


def test_weight_coordinates_follow_one_rule():
    """n coordinates are padded to the dimension of h in every entry point;
    any other count is refused."""
    lam = hw(AFF, 1, 1)
    assert highest_weight((1, 1), AFF) == lam
    assert session_denominator(AFF, [(1, 1)]) == session_denominator(AFF, [lam])
    for build in (verma, irreducible):
        assert character(build((1, 1), 2, AFF)) == character(build(lam, 2, AFF))
    for kind in ("verma", "irreducible"):
        assert (character(classical_module((1, 1), kind, 2, AFF))
                == character(classical_module(lam, kind, 2, AFF)))
    assert weyl_kac_character((1, 1), AFF, 3) == weyl_kac_character(lam, AFF, 3)
    for cd, bad in ((AFF, (1,)), (AFF, (1, 1, 0, 0)), (SL3, (1, 1, 5))):
        with pytest.raises(ValueError, match=f"needs {cd.h_dim} coordinates"):
            irreducible(bad, 2, cd)
        with pytest.raises(ValueError, match="coordinates"):
            classical_module(bad, "verma", 2, cd)
        with pytest.raises(ValueError, match="coordinates"):
            weyl_kac_character(bad, cd, 2)
        with pytest.raises(ValueError, match="coordinates"):
            session_denominator(cd, [bad])


def test_equal_combinations_share_one_image_entry():
    # one combination inserted in two orders is one tuple, so its image on
    # a basis vector is computed once and kept under one key
    V = classical_module(hw(SL3, 1, 1), "irreducible", 3, SL3)
    words = {(1, 0): Fraction(-1), (0, 1): Fraction(1)}
    x = combination(words)
    y = combination(dict(reversed(words.items())))
    assert x == y
    first = V.image(x, (0, 0), 0, False)
    assert first is not None
    size = len(V._images)
    assert V.image(y, (0, 0), 0, False) is first
    assert len(V._images) == size
