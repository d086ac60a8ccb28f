import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from qkm.cartan import Weight, build_realization, session_denominator
from qkm.classical import CasimirTensor
from qkm.kz import (
    DiagonalApproachError,
    _eig_multiset_deviation,
    base_configuration,
    braid_monodromy,
    build_kz_system,
    drinfeld_kohno_compare,
    kz_transport,
    loop_segment,
    permutation_matrix,
)
from qkm.qmodules import classical_module, irreducible
from qkm.qpairing import DrinfeldPairing

SL2 = build_realization([[2]])
LAM = Weight.highest((Fraction(1),), 1)


@pytest.fixture(scope="module")
def sl2_classical():
    return classical_module(LAM, "irreducible", 2, SL2)


@pytest.fixture(scope="module")
def sl2_quantum():
    D = session_denominator(SL2, [LAM])
    bp = DrinfeldPairing(SL2, D=D)
    return bp, irreducible(LAM, 2, SL2, pairing=bp)


def test_hbar_zero_gives_permutation(sl2_classical):
    system = build_kz_system(sl2_classical, 2, (1,), 0.0)
    b = braid_monodromy(system, 0)
    P = permutation_matrix(system, 0)
    assert np.allclose(b, P, atol=1e-15)


def test_contractible_loop_transport_is_identity(sl2_classical):
    system = build_kz_system(sl2_classical, 2, (1,), 0.1)
    base = base_configuration(2)
    T = kz_transport(system, [loop_segment(base, 0, 0.3)], rtol=1e-9)
    assert np.max(np.abs(T - np.eye(system.dim))) < 1e-7


def test_two_point_transport_matches_matrix_exponential(sl2_classical):
    # along any path the two-point system reduces to
    # exp((hbar / 2 pi i) * Omega * delta log(z_1 - z_2))
    hbar = 0.2 + 0.1j
    system = build_kz_system(sl2_classical, 2, (1,), hbar)
    base = base_configuration(2)

    def stretch(t):
        z = base.copy()
        z[1] = 2 + t  # move z_2 from 2 to 3
        zdot = np.zeros_like(base)
        zdot[1] = 1.0
        return z, zdot

    T = kz_transport(system, [stretch], rtol=1e-11)
    _, om = CasimirTensor(sl2_classical, sl2_classical).block((1,))
    om_mat = np.array([[float(x) for x in row] for row in om])
    delta = cmath.log(1 - 3) - cmath.log(1 - 2)
    # the reference exponential from an eigendecomposition of Omega
    lam, vecs = np.linalg.eig(om_mat)
    inv = np.linalg.inv(vecs)
    assert np.max(np.abs(vecs @ np.diag(lam) @ inv - om_mat)) < 1e-12
    expected = vecs @ np.diag(np.exp(hbar / (2j * math.pi) * lam * delta)) @ inv
    assert np.max(np.abs(T - expected)) < 1e-9


def test_monodromy_eigenvalues_match_sigma_r(sl2_classical, sl2_quantum):
    hbar = 0.1
    system = build_kz_system(sl2_classical, 2, (1,), hbar)
    b = braid_monodromy(system, 0, rtol=1e-10)
    eig = sorted(np.linalg.eigvals(b), key=lambda z: z.real)
    assert abs(eig[1] - math.exp(hbar / 4)) < 1e-8
    assert abs(eig[0] + math.exp(-3 * hbar / 4)) < 1e-8


def test_braid_relation_numeric(sl2_classical):
    system = build_kz_system(sl2_classical, 3, (1,), 0.1)
    b1 = braid_monodromy(system, 0, rtol=1e-10)
    b2 = braid_monodromy(system, 1, rtol=1e-10)
    lhs = b1 @ b2 @ b1
    rhs = b2 @ b1 @ b2
    assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_far_commutation(sl2_classical):
    system = build_kz_system(sl2_classical, 4, (2,), 0.1)
    b1 = braid_monodromy(system, 0, rtol=1e-9)
    b3 = braid_monodromy(system, 2, rtol=1e-9)
    assert np.max(np.abs(b1 @ b3 - b3 @ b1)) < 1e-7


def test_diagonal_refusal(sl2_classical):
    system = build_kz_system(sl2_classical, 2, (1,), 0.1)
    base = base_configuration(2)
    # circle of z_1 through z_2 = 2 (center 1.5, radius 1/2)
    with pytest.raises(DiagonalApproachError):
        kz_transport(system, [loop_segment(base, 0, -0.5)], rtol=1e-9)


def test_drinfeld_kohno_k2(sl2_classical, sl2_quantum):
    _, Vq = sl2_quantum
    report = drinfeld_kohno_compare(sl2_classical, Vq, 2, 0.1,
                                    word_length=3, rtol=1e-9)
    assert report.max_deviation < 1e-6


def test_drinfeld_kohno_k3(sl2_classical, sl2_quantum):
    _, Vq = sl2_quantum
    report = drinfeld_kohno_compare(sl2_classical, Vq, 3, 0.1,
                                    word_length=4, rtol=1e-9)
    assert report.max_deviation < 1e-6
    dims = {b.total_offset: b.dim for b in report.blocks}
    assert dims[(1,)] == 3 and dims[(2,)] == 3


def test_drinfeld_kohno_rejects_flipped_sign_at_large_hbar():
    # relative deviations keep the negative control far from a pass where
    # the monodromy itself is of size |q|^k
    sl3 = build_realization([[2, -1], [-1, 2]])
    lam = Weight.highest((Fraction(1), Fraction(0)), 2)
    D = session_denominator(sl3, [lam])
    Vc = classical_module(lam, "irreducible", 3, sl3)
    deviations = []
    for sign in (-1, 1):
        bp = DrinfeldPairing(sl3, D=D, exponent_sign=sign)
        Vq = irreducible(lam, 3, sl3, pairing=bp)
        deviations.append(drinfeld_kohno_compare(
            Vc, Vq, 2, -12, word_length=2, rtol=1e-9).max_deviation)
    assert deviations[0] < 1e-6 < 0.1 < deviations[1], deviations


def test_drinfeld_kohno_hbar_zero(sl2_classical, sl2_quantum):
    _, Vq = sl2_quantum
    report = drinfeld_kohno_compare(sl2_classical, Vq, 3, 0.0,
                                    word_length=3, rtol=1e-9)
    assert report.max_deviation < 1e-12


def test_drinfeld_kohno_shares_r_and_form(sl2_quantum, monkeypatch):
    # one R for every block and generator, and the Casimir side reuses the
    # classical module's own contravariant form
    import qkm.classical as cl
    import qkm.rmatrix as rm
    built = {"r": [], "form": []}
    r_init = rm.TruncatedR.__init__
    form_init = cl.ShapovalovForm.__init__

    def counting_r(self, V, W, pairing):
        built["r"].append(pairing)
        r_init(self, V, W, pairing)

    def counting_form(self, *args, **kwargs):
        built["form"].append(self)
        form_init(self, *args, **kwargs)

    monkeypatch.setattr(rm.TruncatedR, "__init__", counting_r)
    monkeypatch.setattr(cl.ShapovalovForm, "__init__", counting_form)
    bp, Vq = sl2_quantum
    Vc = classical_module(LAM, "irreducible", 2, SL2)
    report = drinfeld_kohno_compare(Vc, Vq, 3, 0.1, word_length=2, rtol=1e-9)
    assert len(report.blocks) == 4
    assert built["r"] == [bp]
    assert built["form"] == [Vc.engine]


def test_drinfeld_kohno_computes_each_casimir_pair_once(sl2_quantum,
                                                        monkeypatch):
    # one Casimir operator serves every block and every pair of sites
    import qkm.classical as cl
    calls = []
    pair_action = cl.CasimirEngine.pair_action

    def counting(self, V, W, *key):
        calls.append(key)
        return pair_action(self, V, W, *key)

    monkeypatch.setattr(cl.CasimirEngine, "pair_action", counting)
    _, Vq = sl2_quantum
    Vc = classical_module(LAM, "irreducible", 2, SL2)
    drinfeld_kohno_compare(Vc, Vq, 3, 0.1, word_length=2, rtol=1e-9)
    offsets = [((m,), 0) for m in range(2)]
    assert sorted(calls) == sorted(
        (mV, a, mW, b) for mV, a in offsets for mW, b in offsets)


def test_convergence_sanity(sl2_classical):
    hbar = 0.1
    traces = []
    for rtol in (1e-8, 5e-9):
        system = build_kz_system(sl2_classical, 3, (1,), hbar)
        b1 = braid_monodromy(system, 0, rtol=rtol)
        traces.append(np.trace(b1 @ b1))
    assert abs(traces[0] - traces[1]) < 1e-7


def test_eigenvalue_deviation_is_matching_free():
    # the spectra are 2e-7 apart, relative to the eigenvalues of B;
    # pairing them by sort keys rounded to six decimals split the real-part
    # tie and reported 2.0
    A = np.diag([1.0000004 + 1j, 1.0000006 - 1j])
    B = np.diag([1.0000006 + 1j, 1.0000004 - 1j])
    assert _eig_multiset_deviation(A, B) == pytest.approx(
        2e-7 / abs(1.0000006 + 1j), rel=1e-6)
