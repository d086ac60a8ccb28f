"""Numeric parallel transport for the Knizhnik-Zamolodchikov system on
weight blocks of tensor powers of classical modules, braid monodromy, and
the comparison against the braiding built from the quantum R-matrix.

The connection is d F = (hbar / 2 pi i) sum_{i<j} Omega_ij d log(z_i - z_j) F
on configurations of k distinct points.  Transport matrices are integrated
with an adaptive Dormand-Prince 5(4) stepper whose step ceiling shrinks
with the distance to the nearest diagonal.  The matrices Omega_ij are lifts
onto sites (i, j) of one two-site operator, `classical.CasimirTensor`, a
`freealg.PairOperator` as R is: each basis pair of the Casimir tensor is
computed once per comparison.  Monodromy is compared with the
sigma R representation only through conjugation-invariant data (traces of
braid words and generator eigenvalue multisets): the two representations
are isomorphic, not equal.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import product

import numpy as np

from .classical import CasimirTensor
from .freealg import MAX_COMPONENT_DIM, ResourceLimitError, tensor_block_basis
from .qmodules import WeightModule, compare_characters
from .rmatrix import BraidOperator, TruncatedR, total_offsets
from .scalars import evaluate_numeric


class DiagonalApproachError(RuntimeError):
    """The integration path came too close to a diagonal z_i = z_j."""


# counterclockwise half-turn for the exchange path; fixed so that the
# two-point monodromy matches sigma R at q = e^{hbar/2} (not its inverse)
EXCHANGE_ORIENTATION = +1


@dataclass
class KZSystem:
    """The KZ connection data on one total-weight block of V^(x k)."""

    k: int
    total_offset: tuple
    basis: tuple
    omegas: dict               # (i, j), i < j -> numpy matrix
    hbar: complex

    @property
    def dim(self) -> int:
        return len(self.basis)


def build_kz_system(V: WeightModule, k: int, total_offset, hbar,
                    omega: CasimirTensor | None = None) -> KZSystem:
    """Assemble the pairwise Casimir matrices on a block of V^(x k); omega
    is the Casimir tensor on V (x) V (by default from the module's form)."""
    if V.kind != "classical":
        raise ValueError("the KZ connection uses classical modules")
    if omega is None:
        omega = CasimirTensor(V, V)
    total_offset = tuple(total_offset)
    basis = tuple(tensor_block_basis((V,) * k, total_offset))
    dim = len(basis)
    omegas = {(i, j): np.array(omega.lift(basis, i, j),
                               dtype=complex).reshape(dim, dim)
              for i in range(k) for j in range(i + 1, k)}
    return KZSystem(k=k, total_offset=total_offset, basis=basis,
                    omegas=omegas, hbar=complex(hbar))


def base_configuration(k: int):
    return np.array([complex(i + 1) for i in range(k)])


def exchange_segment(base, i: int):
    """Counterclockwise half-turn of points i and i+1 about their midpoint."""
    base = np.asarray(base, dtype=complex)
    mid = (base[i] + base[i + 1]) / 2
    off = base[i] - mid

    def seg(t: float):
        z = base.copy()
        phase = cmath.exp(EXCHANGE_ORIENTATION * 1j * math.pi * t)
        z[i] = mid + off * phase
        z[i + 1] = mid - off * phase
        zdot = np.zeros_like(base)
        vel = off * EXCHANGE_ORIENTATION * 1j * math.pi * phase
        zdot[i] = vel
        zdot[i + 1] = -vel
        return z, zdot

    return seg


def loop_segment(base, i: int, radius: float, turns: int = 1):
    """Point i travels a closed circle of the given radius; contractible as
    long as the circle encloses no other point."""
    base = np.asarray(base, dtype=complex)

    def seg(t: float):
        z = base.copy()
        phase = cmath.exp(2j * math.pi * turns * t)
        z[i] = base[i] + radius * (phase - 1)
        zdot = np.zeros_like(base)
        zdot[i] = radius * 2j * math.pi * turns * phase
        return z, zdot

    return seg


# Dormand-Prince 5(4) tableau; the last stage is taken at the 5th-order
# solution (its row of _DP_A is the 5th-order weights), so it is the first
# stage of the next step ("first same as last")
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
          187 / 2100, 1 / 40)


def _rhs(system: KZSystem, seg, t: float):
    z, zdot = seg(t)
    k = system.k
    dmin = min(abs(z[i] - z[j]) for i in range(k) for j in range(i + 1, k))
    scale = max(abs(x) for x in z) or 1.0
    if dmin < 1e-8 * scale:
        raise DiagonalApproachError(
            f"closest approach |z_i - z_j| = {dmin:.3e} at t = {t:.6f}")
    A = np.zeros((system.dim, system.dim), dtype=complex)
    coeff = system.hbar / (2j * math.pi)
    for (i, j), om in system.omegas.items():
        A = A + om * (coeff * (zdot[i] - zdot[j]) / (z[i] - z[j]))
    speed = max(abs(x) for x in zdot) or 1.0
    h_ceiling = 0.5 * dmin / speed
    return A, h_ceiling


def transport_segment(system: KZSystem, seg, Y, rtol: float):
    """Advance the fundamental solution along one smooth segment."""
    if system.hbar == 0:
        return Y
    t = 0.0
    A, ceiling = _rhs(system, seg, 0.0)
    k1 = A @ Y
    h = min(0.05, ceiling, 1.0)
    while t < 1.0:
        h = min(h, 1.0 - t)
        ks = [k1]
        for stage in range(1, 7):
            Ys = Y
            for coef, kmat in zip(_DP_A[stage], ks):
                if coef:
                    Ys = Ys + (h * coef) * kmat
            A, ceil = _rhs(system, seg, t + _DP_C[stage] * h)
            ks.append(A @ Ys)
        Y5 = Ys
        Y4 = Y
        for b4, kmat in zip(_DP_B4, ks):
            if b4:
                Y4 = Y4 + (h * b4) * kmat
        err = np.max(np.abs(Y5 - Y4))
        tol = rtol * max(1.0, float(np.max(np.abs(Y5))))
        accepted = err <= tol
        if accepted:
            t += h
            Y = Y5
        factor = 0.9 * (tol / err) ** 0.2 if err > 0 else 5.0
        h = h * min(5.0, max(0.2, factor))
        # the step ceiling is the one taken at the start of this step
        h = min(h, ceiling if ceiling else h)
        if accepted:
            k1, ceiling = ks[6], ceil
        if h <= 1e-14:
            raise DiagonalApproachError("step size underflow near a diagonal")
    return Y


def kz_transport(system: KZSystem, segments, rtol: float = 1e-9):
    """Transport matrix of the fundamental solution along a piecewise path."""
    Y = np.eye(system.dim, dtype=complex)
    for seg in segments:
        Y = transport_segment(system, seg, Y, rtol)
    return Y


def permutation_matrix(system: KZSystem, i: int):
    """The operator permuting tensor factors i and i+1 on the block basis."""
    index = {tup: r for r, tup in enumerate(system.basis)}
    P = np.zeros((system.dim, system.dim), dtype=complex)
    for c, tup in enumerate(system.basis):
        new = tup[:i] + (tup[i + 1], tup[i]) + tup[i + 2:]
        P[index[new], c] = 1.0
    return P


def braid_monodromy(system: KZSystem, i: int, rtol: float = 1e-9):
    """Monodromy of the braid generator b_i at the base point (1, ..., k):
    transport along the counterclockwise exchange of z_i and z_{i+1},
    composed with the permutation identification of the endpoint fiber."""
    base = base_configuration(system.k)
    T = kz_transport(system, [exchange_segment(base, i)], rtol)
    return permutation_matrix(system, i) @ T


def braid_words(num_generators: int, max_length: int):
    for length in range(1, max_length + 1):
        yield from product(range(num_generators), repeat=length)


@dataclass(frozen=True)
class BlockComparison:
    total_offset: tuple
    dim: int
    max_trace_deviation: float
    max_eigenvalue_deviation: float


@dataclass(frozen=True)
class MonodromyReport:
    strands: int
    hbar: complex
    word_length: int
    rtol: float
    blocks: tuple
    max_trace_deviation: float
    max_eigenvalue_deviation: float

    @property
    def max_deviation(self) -> float:
        return max(self.max_trace_deviation, self.max_eigenvalue_deviation)


def _eig_multiset_deviation(A, B) -> float:
    """Bottleneck distance between the eigenvalue multisets of A and B: the
    least t such that some perfect matching pairs every eigenvalue a of A
    with one b of B at relative distance |a - b| / max(1, |b|) <= t.
    Exact, so no rounding can split a pair."""
    eig_a, eig_b = np.linalg.eigvals(A), np.linalg.eigvals(B)
    if not (np.isfinite(eig_a).all() and np.isfinite(eig_b).all()):
        raise FloatingPointError
    dist = (np.abs(eig_a[:, None] - eig_b[None, :])
            / np.maximum(1.0, np.abs(eig_b))[None, :])
    if not dist.size:
        return 0.0
    # feasibility is monotone in t, and the largest distance is feasible
    levels = np.sort(dist, axis=None)
    k = bisect_left(levels, True,
                    key=lambda t: _has_perfect_matching(dist <= t))
    return float(levels[k])


def _has_perfect_matching(adj) -> bool:
    """Perfect matching in a square bipartite graph, by augmenting paths."""
    neighbours = [np.flatnonzero(row).tolist() for row in adj]
    match = [-1] * len(adj)          # column -> matched row

    def augment(r, seen):
        for c in neighbours[r]:
            if not seen[c]:
                seen[c] = True
                if match[c] < 0 or augment(match[c], seen):
                    match[c] = r
                    return True
        return False

    return all(augment(r, [False] * len(adj)) for r in range(len(adj)))


def drinfeld_kohno_compare(V_classical: WeightModule, V_quantum: WeightModule,
                           k: int, hbar, word_length: int = 4,
                           rtol: float = 1e-9, totals=None) -> MonodromyReport:
    """Conjugation-invariant comparison of the KZ monodromy with sigma R.

    Traces of all positive braid words up to the given length and the
    eigenvalue multisets of the generators are compared per total-weight
    block at q = e^{hbar/2}.  Both grow like |q|^(word length), so each
    trace difference is divided by max(1, product of the Frobenius norms of
    the word's sigma R generators), and each eigenvalue distance by
    max(1, |sigma R eigenvalue|).  One R, from the quantum module's pairing,
    and one Casimir operator serve every block and generator, so each basis
    pair is computed once on either side; the Casimir engine uses the
    classical module's form.  Too many braid words or too large a block
    raise ResourceLimitError, an overflow at hbar FloatingPointError.
    """
    if not compare_characters(V_classical, V_quantum).equal:
        raise ValueError("classical and quantum modules must have equal "
                         "characters")
    words = sum((k - 1) ** length for length in range(1, word_length + 1))
    if words > MAX_COMPONENT_DIM:
        raise ResourceLimitError(f"{words} braid words up to length "
                                 f"{word_length} on {k} strands "
                                 f"(cap {MAX_COMPONENT_DIM})")
    hbar = complex(hbar)
    omega = CasimirTensor(V_classical, V_classical)
    if totals is None:
        totals = total_offsets(V_classical, k)
    r = TruncatedR(V_quantum, V_quantum, V_quantum.engine)
    braids = [BraidOperator(r, k, i) for i in range(k - 1)]
    blocks = []
    worst_trace = 0.0
    worst_eig = 0.0
    ngen = k - 1
    try:
        # an overflow raises instead of warning, and sigma R, whose entries
        # overflow first, is evaluated before any transport
        with np.errstate(over="raise", invalid="raise"):
            sigma = {total: np.array(
                [[[evaluate_numeric(x, hbar, V_quantum.D) if x else 0j
                   for x in row]
                  for row in braid.block(total)[1]] for braid in braids],
                dtype=complex) for total in totals}
            if not all(np.isfinite(g).all() for g in sigma.values()):
                raise FloatingPointError
            for total in totals:
                system = build_kz_system(V_classical, k, total, hbar, omega)
                if system.dim == 0:
                    continue
                kz_gens = [braid_monodromy(system, i, rtol)
                           for i in range(ngen)]
                qr_gens = sigma[total]
                norms = [np.linalg.norm(g) for g in qr_gens]
                trace_dev = 0.0
                for word in braid_words(ngen, word_length):
                    tk = np.eye(system.dim, dtype=complex)
                    tq = np.eye(system.dim, dtype=complex)
                    scale = 1.0
                    for g in word:
                        tk = tk @ kz_gens[g]
                        tq = tq @ qr_gens[g]
                        scale *= norms[g]
                    trace_dev = max(trace_dev, abs(np.trace(tk) - np.trace(tq))
                                    / max(1.0, scale))
                eig_dev = max(_eig_multiset_deviation(a, b)
                              for a, b in zip(kz_gens, qr_gens))
                blocks.append(BlockComparison(total, system.dim, trace_dev,
                                              eig_dev))
                worst_trace = max(worst_trace, trace_dev)
                worst_eig = max(worst_eig, eig_dev)
    except (FloatingPointError, OverflowError, ZeroDivisionError):
        raise FloatingPointError(f"double precision overflowed at hbar = "
                                 f"{hbar}; take a smaller |Re hbar|") from None
    return MonodromyReport(strands=k, hbar=hbar, word_length=word_length,
                           rtol=rtol, blocks=tuple(blocks),
                           max_trace_deviation=worst_trace,
                           max_eigenvalue_deviation=worst_eig)
