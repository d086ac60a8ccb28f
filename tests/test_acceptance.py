"""Acceptance suite: one test per exit criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import cmath
import io
import math
from fractions import Fraction

import numpy as np
import pytest

from qkm.cartan import (
    NotSymmetrizableError,
    Weight,
    build_realization,
    session_denominator,
    symmetrize,
)
from qkm.classical import ShapovalovForm, root_multiplicities, weyl_kac_multiplicities
from qkm.cli import run as cli_run
from qkm.kz import (
    base_configuration,
    braid_monodromy,
    build_kz_system,
    drinfeld_kohno_compare,
    kz_transport,
    permutation_matrix,
)
from qkm.qmodules import (
    check_module_relations,
    classical_module,
    compare_characters,
    irreducible,
    verma,
)
from qkm.qpairing import DrinfeldPairing, degrees_upto
from qkm.rmatrix import TruncatedR, check_ybe
from qkm.scalars import LaurentPoly, QScalar
from qkm.freealg import enumerate_words

SL2 = build_realization([[2]])
SL3 = build_realization([[2, -1], [-1, 2]])
AFF = build_realization([[2, -2], [-2, 2]])
SL2SL2 = build_realization([[2, 0], [0, 2]])
RAT = build_realization([[2, Fraction(-1, 2)], [Fraction(-1, 2), 2]])


def _pass(num, text):
    print(f"criterion {num}: PASS - {text}")


def hw(cd, *vals):
    coords = list(map(Fraction, vals)) + [Fraction(0)] * (cd.h_dim - len(vals))
    return Weight.highest(coords, cd.n)


def loop_segment(base, i, radius, turns=1):
    """Point i travels a closed circle of the given radius; contractible as
    long as the circle encloses no other point."""
    base = np.asarray(base, dtype=complex)

    def seg(t):
        z = base.copy()
        phase = cmath.exp(2j * math.pi * turns * t)
        z[i] = base[i] + radius * (phase - 1)
        zdot = np.zeros_like(base)
        zdot[i] = radius * 2j * math.pi * turns * phase
        return z, zdot

    return seg


def test_criterion_1_symmetrizability_gate():
    assert symmetrize([[2, -2], [-1, 2]]) == (1, 2)
    with pytest.raises(NotSymmetrizableError):
        symmetrize([[2, -1], [0, 2]])
    _pass(1, "symmetrizer gate: d = (1, 2) accepted, asymmetric zero "
             "pattern rejected")


def test_criterion_2_pairing_normalization():
    for cd in (SL3, AFF):
        bp = DrinfeldPairing(cd)
        c_inv = QScalar(LaurentPoly.one(),
                        LaurentPoly.monomial(bp.D) - LaurentPoly.monomial(-bp.D))
        for i in range(cd.n):
            m = tuple(int(k == i) for k in range(cd.n))
            block = bp.gram_block(m)
            assert QScalar(block.numerators[0][0], block.denominator) == c_inv
        for m in degrees_upto(cd.n, 6):
            block = bp.gram_block(m)
            size = len(block.basis)
            for a in range(size):
                for b in range(a + 1, size):
                    assert block.numerators[a][b] == block.numerators[b][a], \
                        (cd.A, m)
        for m in degrees_upto(cd.n, 4):
            for x in enumerate_words(m):
                for z in enumerate_words(m):
                    exact = QScalar(bp.pair_numerator(x, z),
                                    bp.denominator(m))
                    assert bp.oracle_pair_words(x, z) == exact, (cd.A, x, z)
    _pass(2, "1x1 blocks equal 1/(q - q^-1); Gram symmetry through degree 6 "
             "and Hopf-axiom oracle agreement through degree 4 (sl3, affine)")


def test_criterion_3_quantum_serre():
    assert DrinfeldPairing(SL2SL2).verify_serre_in_kernel(0, 1)
    bp3 = DrinfeldPairing(SL3)
    assert bp3.verify_serre_in_kernel(0, 1)
    assert bp3.verify_serre_in_kernel(1, 0)
    bpa = DrinfeldPairing(AFF)
    assert bpa.verify_serre_in_kernel(0, 1)
    assert bpa.verify_serre_in_kernel(1, 0)
    kb = bp3.kernel_block((2, 1))
    assert len(kb.vectors) == 1
    _pass(3, "Serre elements pair to zero (a_12 = 0, -1, -2); sl3 kernel at "
             "(2,1) is exactly one-dimensional")


def test_criterion_4_flatness():
    for cd, cap in ((SL3, 6), (AFF, 6), (RAT, 5)):
        D = session_denominator(cd)
        bp = DrinfeldPairing(cd, D=D)
        sf = ShapovalovForm(cd)
        for m in degrees_upto(cd.n, cap):
            nq = len(bp.kernel_block(m).vectors)
            nc = len(sf.kernel(m)[1])
            assert nq == nc, (cd.A, m, nq, nc)
    _pass(4, "generic-q kernel ranks equal classical kernel ranks: sl3 and "
             "affine sl2 through degree 6, rational matrix through degree 5")


def test_criterion_5_affine_root_multiplicities():
    mults = root_multiplicities(ShapovalovForm(AFF).quotient_dims(6))
    oracle = weyl_kac_multiplicities(AFF, 6)
    assert mults == oracle
    for beta, m in mults.items():
        a, b = beta
        is_root = abs(a - b) <= 1 and beta != (0, 0)
        assert m == (1 if is_root else 0), beta
    _pass(5, "affine sl2 multiplicities through degree 6 all 1 on roots and "
             "match the Weyl-Kac denominator oracle exactly")


CHARACTER_CASES = (
    (SL2, (0,), 2), (SL2, (1,), 3), (SL2, (3,), 5),
    (SL3, (1, 0), 4), (SL3, (1, 1), 4),
    (AFF, (1, 0), 5),
)


@pytest.fixture(scope="module")
def character_modules():
    out = []
    for cd, vals, depth in CHARACTER_CASES:
        lam = hw(cd, *vals)
        D = session_denominator(cd, [lam])
        bp = DrinfeldPairing(cd, D=D)
        Lq = irreducible(lam, depth, cd, pairing=bp)
        Lc = classical_module(lam, "irreducible", depth, cd)
        out.append((cd, vals, depth, Lq, Lc))
    return out


def test_criterion_6_characters(character_modules):
    for cd, vals, depth, Lq, Lc in character_modules:
        rep = compare_characters(Lq, Lc)
        assert rep.equal, (cd.A, vals, rep)
    _pass(6, "quantum and classical irreducible characters agree entrywise "
             "for sl2 (0, 1, 3), sl3 ((1,0), (1,1)), affine level-1 to depth 5")


def test_criterion_7_module_relations(character_modules):
    checked = 0
    for cd, vals, depth, Lq, Lc in character_modules:
        assert check_module_relations(Lq)
        checked += 1
    lamv = hw(SL3, 2, 1)
    Mv = verma(lamv, 3, SL3)
    assert check_module_relations(Mv)
    checked += 1
    _pass(7, f"cross relations and K-conjugation hold exactly on all "
             f"{checked} constructed quantum modules")


def test_criterion_8_yang_baxter():
    lam = hw(SL2, 1)
    D = session_denominator(SL2, [lam])
    bp = DrinfeldPairing(SL2, D=D)
    V = irreducible(lam, 2, SL2, pairing=bp)
    report = check_ybe(V)
    assert report.holds and len(report.blocks) == 4
    basis, mat = TruncatedR(V, V, bp).block((0,))
    assert mat[0][0] == QScalar(LaurentPoly.monomial(1))  # q^{(lambda, lambda)}
    _pass(8, "braid relation for sigma R exact on all V^3 blocks; highest "
             "pair eigenvalue exactly q^{(lambda, mu)}")


def test_criterion_9_drinfeld_kohno():
    lam = hw(SL2, 1)
    D = session_denominator(SL2, [lam])
    bp = DrinfeldPairing(SL2, D=D)
    Vq = irreducible(lam, 2, SL2, pairing=bp)
    Vc = classical_module(lam, "irreducible", 2, SL2)

    report = drinfeld_kohno_compare(Vc, Vq, 3, 0.1, word_length=4,
                                    rtol=1e-9)
    assert report.max_deviation < 1e-6, report.max_deviation

    system = build_kz_system(Vc, 3, (1,), 0.1)
    base = base_configuration(3)
    T = kz_transport(system, [loop_segment(base, 0, 0.3)], rtol=1e-9)
    assert np.max(np.abs(T - np.eye(system.dim))) < 1e-7

    zero_rep = drinfeld_kohno_compare(Vc, Vq, 3, 0.0, word_length=2,
                                      rtol=1e-9)
    assert zero_rep.max_deviation < 1e-12
    system0 = build_kz_system(Vc, 3, (1,), 0.0)
    b0 = braid_monodromy(system0, 0)
    assert np.array_equal(b0, permutation_matrix(system0, 0))
    _pass(9, f"KZ monodromy matches sigma R within 1e-6 (max deviation "
             f"{report.max_deviation:.2e}); contractible loop within 1e-7; "
             f"hbar = 0 is the permutation action")


def test_criterion_10_determinism(tmp_path):
    sl3_cfg = tmp_path / "sl3.cfg"
    sl3_cfg.write_text("matrix = 2 -1; -1 2\nmax_degree = 4\n"
                       "depth = 4\nhw = 1 1\n")
    aff_cfg = tmp_path / "aff.cfg"
    aff_cfg.write_text("matrix = 2 -2; -2 2\nmax_degree = 4\n"
                       "depth = 3\nhw = 1 0\n")
    commands = [
        ["symmetrize", "--config", str(sl3_cfg)],
        ["relations", "--config", str(sl3_cfg)],
        ["relations", "--config", str(aff_cfg)],
        ["dims", "--config", str(aff_cfg)],
        ["character", "--config", str(sl3_cfg)],
        ["compare-characters", "--config", str(aff_cfg)],
        ["ybe", "--config", str(sl3_cfg), "--depth", "3", "--hw", "1 0"],
    ]
    for argv in commands:
        outputs = set()
        for _ in range(2):
            out = io.StringIO()
            code = cli_run(argv, out=out, err=io.StringIO())
            assert code == 0, argv
            outputs.add(out.getvalue())
        assert len(outputs) == 1, argv
    _pass(10, f"{len(commands)} exact commands produced byte-identical "
              f"reports on repeated runs")
