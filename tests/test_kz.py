import cmath
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from qkm.cartan import Weight, build_realization, session_denominator
from qkm.classical import CasimirTensor
from qkm.kz import (
    _DP_A,
    _DP_C,
    _DP_E,
    DiagonalApproachError,
    KZSystem,
    _array,
    _compare_blocks,
    _matches_every_row,
    _pairs,
    _spectrum_deviation,
    _trace_deviation,
    base_configuration,
    braid_monodromy,
    build_kz_system,
    drinfeld_kohno_compare,
    kz_transport,
    permutation_matrix,
    stack_systems,
)
from qkm.qmodules import classical_module, irreducible
from qkm.qpairing import DrinfeldPairing
from qkm.rmatrix import BraidOperator, TruncatedR, total_offsets
from qkm.scalars import evaluate_numeric

SL2 = build_realization([[2]])
LAM = Weight.highest((Fraction(1),), 1)


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


def _has_perfect_matching(adj):
    """Perfect matching in a square bipartite graph given by its boolean
    adjacency matrix, by augmenting paths."""
    return _matches_every_row([np.flatnonzero(row).tolist() for row in adj])


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
    om_mat = np.array([[float(row.get(c, 0)) for c in range(len(om))]
                       for row in om])
    delta = cmath.log(1 - 3) - cmath.log(1 - 2)
    # the reference exponential from an eigendecomposition of Omega
    lam, vecs = np.linalg.eig(om_mat)
    inv = np.linalg.inv(vecs)
    assert np.max(np.abs(vecs @ np.diag(lam) @ inv - om_mat)) < 1e-12
    expected = vecs @ np.diag(np.exp(hbar / (2j * math.pi) * lam * delta)) @ inv
    assert np.max(np.abs(T - expected)) < 1e-9


def _stretch(t):
    # move z_2 from 2 to 3, with z_1 = 1 fixed
    z = base_configuration(2)
    z[1] = 2 + t
    zdot = np.zeros_like(z)
    zdot[1] = 1.0
    return z, zdot


def _stretch_exponential(om, hbar):
    """The two-point transport along `_stretch` in closed form, from an
    eigendecomposition of the symmetric matrix om."""
    lam, vecs = np.linalg.eigh(om.real)
    delta = cmath.log(1 - 3) - cmath.log(1 - 2)
    return (vecs * np.exp(hbar / (2j * math.pi) * lam * delta)) @ vecs.T


def _counted(seg, calls):
    def wrapped(t):
        calls.append(t)
        return seg(t)
    return wrapped


@pytest.fixture(scope="module")
def sl2_spin1_systems():
    # V (x) V for the 3-dimensional sl2 module: blocks of dimensions
    # 1, 2, 3, 2, 1 at total offsets 0..4
    V = classical_module(Weight.highest((Fraction(2),), 1), "irreducible", 3,
                         SL2)
    hbar = 0.2 + 0.1j
    return {t: build_kz_system(V, 2, t, hbar) for t in total_offsets(V, 2)}


def test_stack_of_one_block_equals_its_own_transport(sl2_spin1_systems):
    system = sl2_spin1_systems[(2,)]
    for segments in ([_stretch],
                     [loop_segment(base_configuration(2), 0, 0.3)]):
        T = kz_transport(system, segments, rtol=1e-9)
        stacked = kz_transport(stack_systems([system]), segments, rtol=1e-9)
        assert stacked.shape == (1,) + T.shape
        assert np.array_equal(stacked[0], T)


def test_stacked_blocks_match_their_own_transports(sl2_spin1_systems):
    # blocks (1,), (3,) and (0,), (4,) share their dimensions; each member
    # of a stack agrees with its own run and with the closed form
    rtol = 1e-11
    for pair in ([(1,), (3,)], [(0,), (4,)]):
        systems = [sl2_spin1_systems[t] for t in pair]
        stacked = kz_transport(stack_systems(systems), [_stretch], rtol=rtol)
        for system, T in zip(systems, stacked):
            alone = kz_transport(system, [_stretch], rtol=rtol)
            exact = _stretch_exponential(system.omega[0], system.hbar)
            assert np.max(np.abs(T - alone)) < 1e-9
            assert np.max(np.abs(T - exact)) < 1e-9


def test_stack_waits_for_its_hardest_block(sl2_spin1_systems):
    # the same Omega scaled by 40 needs finer steps; in a stack, in either
    # order, it keeps the accuracy of its own run, and the stack takes at
    # least the hard block's steps
    easy = sl2_spin1_systems[(2,)]
    hard = KZSystem(k=2, basis=easy.basis, omega=40 * easy.omega,
                    hbar=easy.hbar)
    rtol = 1e-9
    calls = {}
    alone = {}
    for name, system in (("easy", easy), ("hard", hard)):
        calls[name] = []
        alone[name] = kz_transport(system, [_counted(_stretch, calls[name])],
                                   rtol=rtol)
    exact = _stretch_exponential(hard.omega[0], hard.hbar)
    scale = max(1.0, np.max(np.abs(exact)))
    own_error = np.max(np.abs(alone["hard"] - exact)) / scale
    assert own_error < 1e-8
    assert len(calls["easy"]) < len(calls["hard"])
    for at in (0, 1):
        members = [easy, easy]
        members[at] = hard
        stack_calls = []
        stacked = kz_transport(stack_systems(members),
                               [_counted(_stretch, stack_calls)], rtol=rtol)
        T = stacked[at]
        assert np.max(np.abs(T - exact)) / scale <= max(2 * own_error, 1e-12)
        assert len(stack_calls) >= len(calls["hard"])


def test_dk_transports_once_per_dimension_and_generator(sl2_quantum,
                                                         monkeypatch):
    # sl2 hw 1 on three strands: blocks of dimensions 1, 3, 3, 1, so two
    # stacks, each transported once per mirror pair of generators (sigma_2
    # is read off sigma_1); on four strands, blocks of dimensions
    # 1, 4, 6, 4, 1 and two transports per stack (sigma_1 and sigma_3 are
    # a mirror pair, sigma_2 is its own mirror)
    import qkm.kz as kz
    shapes = []
    transport = kz.kz_transport

    def counting(system, segments, rtol):
        T = transport(system, segments, rtol)
        shapes.append(T.shape)
        return T

    monkeypatch.setattr(kz, "kz_transport", counting)
    _, Vq = sl2_quantum
    Vc = classical_module(LAM, "irreducible", 2, SL2)
    report = drinfeld_kohno_compare(Vc, Vq, 3, 0.1, word_length=3, rtol=1e-9)
    assert report.max_deviation < 1e-6
    assert sorted(shapes) == [(2, 1, 1), (2, 3, 3)]
    assert [b.total_offset for b in report.blocks] == total_offsets(Vc, 3)
    assert [b.dim for b in report.blocks] == [1, 3, 3, 1]

    shapes.clear()
    report = drinfeld_kohno_compare(Vc, Vq, 4, 0.1, word_length=3, rtol=1e-9)
    assert report.max_deviation < 1e-6
    assert sorted(shapes) == ([(1, 6, 6)] * 2 + [(2, 1, 1)] * 2
                              + [(2, 4, 4)] * 2)
    assert [b.total_offset for b in report.blocks] == total_offsets(Vc, 4)
    assert [b.dim for b in report.blocks] == [1, 4, 6, 4, 1]


@pytest.mark.parametrize("hbar", [0.1, 0.3 + 0.2j])
def test_mirrored_generator_is_the_conjugate_by_basis_reversal(hbar):
    # the half-turn z -> (k + 1) - z with the strand reversal fixes the KZ
    # form and the base point, so M_{k-2-i} = Pi M_i Pi^-1 with Pi the
    # reversal of the basis tuples, to rounding
    sl3 = build_realization([[2, -1], [-1, 2]])
    cases = [(classical_module(Weight.highest((Fraction(2),), 1),
                               "irreducible", 3, SL2), 5),
             (classical_module(Weight.highest((Fraction(1), Fraction(0)), 2),
                               "irreducible", 3, sl3), 4)]
    for V, k in cases:
        for total in total_offsets(V, k):
            system = build_kz_system(V, k, total, hbar)
            index = {tup: r for r, tup in enumerate(system.basis)}
            rev = [index[tup[::-1]] for tup in system.basis]
            for i in range(k // 2):
                M = braid_monodromy(system, i)[np.ix_(rev, rev)]
                mirror = braid_monodromy(system, k - 2 - i)
                assert (np.max(np.abs(mirror - M))
                        <= 1e-12 * max(1.0, np.max(np.abs(M))))


def _full_product_trace_deviation(kz_gens, qr_gens, word_length):
    """The trace deviation with every word multiplied out from the
    identity: the reference."""
    d = kz_gens[0].shape[-1]
    norms = [np.linalg.norm(g) for g in qr_gens]
    expected = 0.0
    for length in range(1, word_length + 1):
        for word in product(range(len(kz_gens)), repeat=length):
            tk = tq = np.eye(d, dtype=complex)
            scale = 1.0
            for g in word:
                tk, tq = tk @ kz_gens[g], tq @ qr_gens[g]
                scale *= norms[g]
            expected = max(expected, abs(np.trace(tk) - np.trace(tq))
                           / max(1.0, scale))
    return expected


def _summation_bound(kz_gens, qr_gens, word_length):
    """How far the deviation may move with the order in which each word's
    trace is summed.  Both the trace of a multiplied-out word and the
    product of its prefix with its last letter traced as sum_ij P_ij g_ji
    sum d^2 products of entries of d x d matrices, each with at most a
    few roundings: on either side, two orders differ by at most
    2 d^2 eps times the product of the letters' Frobenius norms, and each
    difference is divided by max(1, product of the sigma R norms)."""
    d = kz_gens[0].shape[-1]
    nk, nq = ([np.linalg.norm(g) for g in gens] for gens in (kz_gens, qr_gens))
    worst = 0.0
    for length in range(1, word_length + 1):
        for word in product(range(len(nk)), repeat=length):
            pk = math.prod(nk[g] for g in word)
            pq = math.prod(nq[g] for g in word)
            worst = max(worst, (pk + pq) / max(1.0, pq))
    return 2 * d * d * np.finfo(float).eps * worst


def test_trace_deviation_extends_prefix_products():
    # each word's products extend its prefix's, left to right, and its last
    # letter enters through tr(P g) = sum_ij P_ij g_ji, so the deviation
    # equals that of multiplying every word out from the identity, up to
    # the order of summation; on a stack of three blocks, each block's
    # equals its own
    rng = np.random.default_rng(1)
    kz_gens, qr_gens = ([rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
                         for _ in range(3)] for _ in range(2))
    expected = _full_product_trace_deviation(kz_gens, qr_gens, 3)
    bound = _summation_bound(kz_gens, qr_gens, 3)
    assert bound < 1e-12 * expected
    assert abs(_trace_deviation(kz_gens, qr_gens, 3) - expected) <= bound
    kz_stack, qr_stack = (rng.normal(size=(3, 3, 4, 4))
                          + 1j * rng.normal(size=(3, 3, 4, 4))
                          for _ in range(2))
    stacked = _trace_deviation(kz_stack, qr_stack, 3)
    assert stacked.shape == (3,)
    for b in range(3):
        kz_b, qr_b = kz_stack[:, b], qr_stack[:, b]
        assert (abs(stacked[b] - _full_product_trace_deviation(kz_b, qr_b, 3))
                <= _summation_bound(kz_b, qr_b, 3))


@pytest.mark.parametrize("cartan, hw, k, hbar", [
    ([[2, -1], [-1, 2]], (1, 0), 3, 0.1),
    ([[2, -1], [-1, 2]], (1, 0), 4, 0.1),
    ([[2]], (2,), 5, 0.3 + 0.2j)])
def test_stack_compares_like_its_blocks_alone(cartan, hw, k, hbar):
    # every stack of blocks of one dimension, compared at once, gives each
    # block the deviations of its own monodromies (every generator
    # transported, none read off its mirror), its words multiplied out and
    # its spectra matched one generator at a time
    A = build_realization(cartan)
    lam = Weight.highest(tuple(Fraction(x) for x in hw), len(cartan))
    D = session_denominator(A, [lam])
    Vc = classical_module(lam, "irreducible", 3, A)
    Vq = irreducible(lam, 3, A, pairing=DrinfeldPairing(A, D=D))
    braid = BraidOperator(TruncatedR(Vq, Vq, Vq.engine), k)
    by_dim = {}
    for total in total_offsets(Vc, k):
        sigma = np.array([_array(g, lambda x: evaluate_numeric(x, hbar, D))
                          for g in braid.block(total)[1]])
        by_dim.setdefault(sigma.shape[-1], []).append((total, sigma))
    assert max(len(blocks) for blocks in by_dim.values()) > 1
    for blocks in by_dim.values():
        systems = [build_kz_system(Vc, k, total, hbar) for total, _ in blocks]
        deviations = _compare_blocks(
            stack_systems(systems),
            np.stack([sigma for _, sigma in blocks], axis=1), 3, 1e-9)
        assert len(deviations) == len(blocks)
        for system, (_, sigma), (trace_dev, eig_dev) in zip(
                systems, blocks, deviations):
            gens = [braid_monodromy(system, i) for i in range(k - 1)]
            assert abs(trace_dev - _full_product_trace_deviation(
                gens, sigma, 3)) < 1e-12
            assert abs(eig_dev - max(
                _spectrum_deviation(np.linalg.eigvals(g), np.linalg.eigvals(s))
                for g, s in zip(gens, sigma))) < 1e-12
            assert max(trace_dev, eig_dev) < 1e-6


def test_stack_stores_omega_once():
    # a block's or a stack's Omega_ij are one array, in _pairs(k) order, and
    # building a stack allocates that array and nothing of its size besides
    import tracemalloc
    rng = np.random.default_rng(3)
    systems = [KZSystem(k=4, basis=(), hbar=0.1,
                        omega=rng.normal(size=(6, 40, 40)).astype(complex))
               for _ in range(3)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        stack = stack_systems(systems)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stack.omega.shape == (6, 3, 40, 40)
    assert peak - before < stack.omega.nbytes + 64 * 1024
    assert list(_pairs(4)) == [(i, j) for i in range(4)
                               for j in range(i + 1, 4)]
    for b, system in enumerate(systems):
        assert np.array_equal(stack.omega[:, b], system.omega)


def test_dormand_prince_rows():
    # stage s is taken at t + c_s h from the stages before it only, whose
    # weights sum to c_s; the error weights (4th order less 5th) sum to 0,
    # and the last stage's argument is the 5th-order solution
    tableau = np.array(_DP_A)
    assert np.array_equal(np.triu(tableau), np.zeros((7, 7)))
    assert np.allclose(tableau.sum(axis=1), _DP_C, rtol=0, atol=1e-15)
    assert abs(sum(_DP_E)) < 1e-15
    assert _DP_E[6] == 1 / 40


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


def test_drinfeld_kohno_four_strands(sl2_classical, sl2_quantum):
    # three generators per block: the far pair sigma_1, sigma_3 enters the
    # braid words on both sides
    sl3 = build_realization([[2, -1], [-1, 2]])
    lam = Weight.highest((Fraction(1), Fraction(0)), 2)
    bp = DrinfeldPairing(sl3, D=session_denominator(sl3, [lam]))
    cases = [(sl2_classical, sl2_quantum[1]),
             (classical_module(lam, "irreducible", 3, sl3),
              irreducible(lam, 3, sl3, pairing=bp))]
    for Vc, Vq in cases:
        report = drinfeld_kohno_compare(Vc, Vq, 4, 0.1, word_length=2)
        assert report.blocks
        assert report.max_deviation < 1e-6, report.max_deviation


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
    eig_a, eig_b = np.linalg.eigvals(A), np.linalg.eigvals(B)
    assert _spectrum_deviation(eig_a, eig_b) == pytest.approx(
        2e-7 / abs(1.0000006 + 1j), rel=1e-6)


def _bisected_deviation(A, B):
    """The bottleneck distance by bisection over every distance level, each
    probe building its adjacency from scratch: the reference."""
    eig_a, eig_b = np.linalg.eigvals(A), np.linalg.eigvals(B)
    dist = (np.abs(eig_a[:, None] - eig_b[None, :])
            / np.maximum(1.0, np.abs(eig_b))[None, :])
    levels = np.sort(dist, axis=None)
    lo, hi = 0, len(levels) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _has_perfect_matching(dist <= levels[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(levels[lo])


def test_eigenvalue_deviation_equals_full_bisection():
    # the lower bound max(row minima, column minima) is infeasible here:
    # 0 and 0.01 both sit nearest 0.005, so 0.01 must take 4 at 0.9975
    A, B = np.diag([0.0, 0.01, 5.0]), np.diag([0.005, 4.0, 5.0])
    eig_a, eig_b = np.linalg.eigvals(A), np.linalg.eigvals(B)
    assert _spectrum_deviation(eig_a, eig_b) == _bisected_deviation(A, B) == (
        pytest.approx(0.9975, rel=1e-12))
    rng = np.random.default_rng(7)
    for trial in range(60):
        d = int(rng.integers(1, 9))
        kind = trial % 3
        if kind == 0:        # clustered: a few centres, tiny spread
            centres = rng.normal(size=3) + 1j * rng.normal(size=3)
            eig_a = (rng.choice(centres, d)
                     + 1e-3 * rng.normal(size=d) * (1 + 1j))
            eig_b = (rng.choice(centres, d)
                     + 1e-3 * rng.normal(size=d) * (1 + 1j))
        elif kind == 1:      # repeated in A, repeated to 1e-9 in B
            values = rng.integers(-2, 3, size=3) + 0.5j * rng.integers(0, 2, 3)
            eig_a = rng.choice(values, d)
            eig_b = rng.choice(values, d) + 1e-9 * rng.normal(size=d)
        else:                # scattered, some beyond |b| = 1
            eig_a = 3 * (rng.normal(size=d) + 1j * rng.normal(size=d))
            eig_b = eig_a[rng.permutation(d)] + 0.1 * rng.normal(size=d)
        A, B = np.diag(eig_a), np.diag(eig_b)
        deviation = _spectrum_deviation(np.linalg.eigvals(A),
                                        np.linalg.eigvals(B))
        assert deviation == _bisected_deviation(A, B)


def test_perfect_matching_on_a_long_augmenting_path():
    # row r meets columns r and r + 1, the last row only column 0: rows
    # 0..n-2 take their own column, and the last row's augmenting path runs
    # through every row, deeper than Python's recursion limit
    n = 1500
    adj = np.zeros((n, n), dtype=bool)
    for r in range(n - 1):
        adj[r, r] = adj[r, r + 1] = True
    adj[n - 1, 0] = True
    assert _has_perfect_matching(adj)
    adj[n - 1, 0] = False
    assert not _has_perfect_matching(adj)


def test_each_distinct_sigma_r_entry_is_evaluated_once(monkeypatch):
    import qkm.kz as kz
    sl3 = build_realization([[2, -1], [-1, 2]])
    lam = Weight.highest((Fraction(1), Fraction(0)), 2)
    bp = DrinfeldPairing(sl3, D=session_denominator(sl3, [lam]))
    Vq = irreducible(lam, 3, sl3, pairing=bp)
    Vc = classical_module(lam, "irreducible", 3, sl3)
    braid = BraidOperator(TruncatedR(Vq, Vq, bp), 3)
    entries = [x for total in total_offsets(Vc, 3)
               for g in braid.block(total)[1] for row in g
               for x in row.values()]
    calls = []
    evaluate = kz.evaluate_numeric

    def counting(x, hbar, D):
        calls.append(x)
        return evaluate(x, hbar, D)

    monkeypatch.setattr(kz, "evaluate_numeric", counting)
    for hbar in (0.1, 0.2):
        calls.clear()
        report = drinfeld_kohno_compare(Vc, Vq, 3, hbar, word_length=2)
        assert report.max_deviation < 1e-6
        assert len(calls) == len(set(calls)) == len(set(entries))
        assert set(calls) == set(entries)
    # the memo saves work only when entries repeat
    assert len(entries) > len(set(entries))
