"""Numeric parallel transport for the Knizhnik-Zamolodchikov system on
weight blocks of tensor powers of classical modules, braid monodromy, and
the comparison against the braiding built from the quantum R-matrix.

The connection is d F = (hbar / 2 pi i) sum_{i<j} Omega_ij d log(z_i - z_j) F
on configurations of k distinct points.  Transport matrices are integrated
with an adaptive Dormand-Prince 5(4) stepper whose step ceiling shrinks
with the distance to the nearest diagonal.  The matrices Omega_ij are lifts
onto sites (i, j) of one two-site operator, `classical.CasimirTensor`, a
`freealg.PairOperator` as R is: each basis pair of the Casimir tensor is
computed once per comparison.  The Omega_ij and the sigma R generators both
arrive as sparse rows, and `_array` turns either into a complex array;
each distinct sigma R entry is evaluated once per comparison.
Blocks of one dimension are transported together: their Omega_ij are
stacked (B, d, d) and share one adaptive step sequence, in which a step is
accepted only when every block meets its own error tolerance.  Only one
generator of each mirror pair (i, k-2-i) is transported: the half-turn of
the plane about the base point's centre, with the strand reversal, fixes
the connection, so the mirrored monodromy is the conjugate by the reversal
of the basis tuples.
Monodromy is compared with the sigma R representation only through
conjugation-invariant data (traces of braid words and generator eigenvalue
multisets): the two representations are isomorphic, not equal.  The
multisets are matched at their bottleneck distance, whose search starts at
the lower bound set by each eigenvalue's nearest partner.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left
from dataclasses import dataclass

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
    """The KZ connection data on one total-weight block of V^(x k), or on a
    stack of blocks of one dimension (`stack_systems`, basis None)."""

    k: int
    basis: tuple | None
    omegas: dict               # (i, j), i < j -> (d, d) or (B, d, d) array
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
    basis = tuple(tensor_block_basis((V,) * k, tuple(total_offset)))
    omegas = {(i, j): _array(omega.lift(basis, i, j), complex)
              for i in range(k) for j in range(i + 1, k)}
    return KZSystem(k=k, basis=basis, omegas=omegas, hbar=complex(hbar))


def stack_systems(systems) -> KZSystem:
    """Systems on blocks of one dimension as one system whose Omega_ij are
    stacked (B, d, d): its transports are theirs, stacked alike."""
    first = systems[0]
    return KZSystem(k=first.k, basis=None,
                    omegas={pair: np.stack([s.omegas[pair] for s in systems])
                            for pair in first.omegas},
                    hbar=first.hbar)


def _array(rows, value):
    """A block's sparse rows {column: x} as the complex array of value(x)."""
    out = np.zeros((len(rows), len(rows)), dtype=complex)
    for r, row in enumerate(rows):
        for c, x in row.items():
            out[r, c] = value(x)
    return out


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


def _rhs(system: KZSystem, seg, t: float, Y):
    """The right-hand side A(t) Y of the KZ system, and the step ceiling."""
    z, zdot = seg(t)
    k = system.k
    dmin = min(abs(z[i] - z[j]) for i in range(k) for j in range(i + 1, k))
    scale = max(abs(x) for x in z) or 1.0
    if dmin < 1e-8 * scale:
        raise DiagonalApproachError(
            f"closest approach |z_i - z_j| = {dmin:.3e} at t = {t:.6f}")
    coeff = system.hbar / (2j * math.pi)
    A = sum(om * (coeff * (zdot[i] - zdot[j]) / (z[i] - z[j]))
            for (i, j), om in system.omegas.items())
    speed = max(abs(x) for x in zdot) or 1.0
    h_ceiling = 0.5 * dmin / speed
    return A @ Y, h_ceiling


def transport_segment(system: KZSystem, seg, Y, rtol: float):
    """Advance the fundamental solution along one smooth segment.  On a
    stack, Y is (B, d, d) and every block is held to its own tolerance
    rtol * max(1, max |Y_b|): a step is accepted only when all of them meet
    it, and the step size follows the block that needs the smallest."""
    if system.hbar == 0:
        return Y
    t = 0.0
    k1, ceiling = _rhs(system, seg, 0.0, Y)
    h = min(0.05, ceiling, 1.0)
    while t < 1.0:
        h = min(h, 1.0 - t)
        # stage sums accumulate in place and the error estimate is dropped
        # once read, so a stack holds few (B, d, d) arrays at once
        ks = [k1]
        for stage in range(1, 7):
            Ys = Y.copy()
            for coef, kmat in zip(_DP_A[stage], ks):
                if coef:
                    Ys += (h * coef) * kmat
            kmat, ceil = _rhs(system, seg, t + _DP_C[stage] * h, Ys)
            ks.append(kmat)
        # Ys is now the 5th-order solution; diff the 4th-order one less Ys
        diff = Y.copy()
        for b4, kmat in zip(_DP_B4, ks):
            if b4:
                diff += (h * b4) * kmat
        diff -= Ys
        err = np.max(np.abs(diff), axis=(-2, -1))
        del diff
        tol = rtol * np.maximum(1.0, np.max(np.abs(Ys), axis=(-2, -1)))
        accepted = bool(np.all(err <= tol))
        if accepted:
            t += h
            Y = Ys
        # a block with err 0 asks for no limit (inf), and the clamp gives 5
        with np.errstate(divide="ignore"):
            factor = 0.9 * float(np.min(tol / err)) ** 0.2
        h = h * min(5.0, max(0.2, factor))
        # the step ceiling is the one taken at the start of this step
        h = min(h, ceiling if ceiling else h)
        if accepted:
            k1, ceiling = ks[6], ceil
        if h <= 1e-14:
            raise DiagonalApproachError("step size underflow near a diagonal")
    return Y


def kz_transport(system: KZSystem, segments, rtol: float = 1e-9):
    """Transport matrix of the fundamental solution along a piecewise path;
    on a stack, the (B, d, d) stack of the blocks' transport matrices."""
    shape = next(iter(system.omegas.values())).shape
    Y = np.broadcast_to(np.eye(shape[-1], dtype=complex), shape).copy()
    for seg in segments:
        Y = transport_segment(system, seg, Y, rtol)
    return Y


def _basis_permutation(basis, move):
    """The index array p with basis[p[r]] = move(basis[r])."""
    index = {tup: r for r, tup in enumerate(basis)}
    return np.array([index[move(tup)] for tup in basis], dtype=np.intp)


def _exchange(i: int):
    """Swap of tensor factors i and i+1 on a basis tuple."""
    return lambda tup: tup[:i] + (tup[i + 1], tup[i]) + tup[i + 2:]


def permutation_matrix(system: KZSystem, i: int):
    """The operator permuting tensor factors i and i+1 on the block basis."""
    swap = _basis_permutation(system.basis, _exchange(i))
    return np.eye(system.dim, dtype=complex)[swap]


def braid_monodromy(system: KZSystem, i: int, rtol: float = 1e-9):
    """Monodromy of the braid generator b_i at the base point (1, ..., k):
    transport along the counterclockwise exchange of z_i and z_{i+1},
    composed with the permutation identification of the endpoint fiber."""
    base = base_configuration(system.k)
    T = kz_transport(system, [exchange_segment(base, i)], rtol)
    return permutation_matrix(system, i) @ T


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
    Exact, so no rounding can split a pair.  Every row and every column is
    matched at no less than its own least distance, so the largest of those
    is a lower bound, probed first; only if it fails are the distances above
    it bisected.  A probe reads each row's columns, sorted once by
    distance, up to the level."""
    eig_a, eig_b = np.linalg.eigvals(A), np.linalg.eigvals(B)
    if not (np.isfinite(eig_a).all() and np.isfinite(eig_b).all()):
        raise FloatingPointError
    dist = (np.abs(eig_a[:, None] - eig_b[None, :])
            / np.maximum(1.0, np.abs(eig_b))[None, :])
    if not dist.size:
        return 0.0
    order = np.argsort(dist, axis=1)
    ranked = np.take_along_axis(dist, order, axis=1)
    order = order.tolist()

    def feasible(t) -> bool:
        counts = np.count_nonzero(ranked <= t, axis=1).tolist()
        return _matches_every_row([row[:n] for row, n in zip(order, counts)])

    low = max(ranked[:, 0].max(), dist.min(axis=0).max())
    if feasible(low):
        return float(low)
    # feasibility is monotone in t, and the largest distance is feasible
    levels = np.sort(dist[dist > low])
    return float(levels[bisect_left(levels, True, key=feasible)])


def _matches_every_row(neighbours) -> bool:
    """Whether the rows, with neighbours[r] the columns row r meets, have a
    perfect matching onto as many columns."""
    match = [-1] * len(neighbours)   # column -> matched row
    return all(_augment(r, neighbours, match) for r in range(len(neighbours)))


def _augment(root, neighbours, match) -> bool:
    """Match row root along an augmenting path, found depth first with an
    explicit stack, since a path may be as long as the graph: path holds
    each row on it with its untried columns, cols the column taken from
    each row but the last."""
    seen = [False] * len(match)
    path = [(root, iter(neighbours[root]))]
    cols = []
    while path:
        for c in path[-1][1]:
            if not seen[c]:
                break
        else:                        # a dead end: back up one row
            path.pop()
            if cols:
                cols.pop()
            continue
        seen[c] = True
        cols.append(c)
        if match[c] < 0:             # a free column: flip the path onto it
            for (r, _), c in zip(path, cols):
                match[c] = r
            return True
        path.append((match[c], iter(neighbours[match[c]])))
    return False


def _trace_deviation(kz_gens, qr_gens, word_length: int) -> float:
    """Largest trace deviation over the positive braid words up to
    word_length, each relative to max(1, product of the Frobenius norms of
    the word's sigma R generators).  Each word's products are its prefix's
    times its last generator, so a word costs one product per side; a
    depth-first walk holds only the prefixes of the current word."""
    norms = [np.linalg.norm(g) for g in qr_gens]
    gens = list(zip(kz_gens, qr_gens, norms))
    worst = 0.0
    stack = [(a, b, n, 1) for a, b, n in reversed(gens)]
    while stack:
        tk, tq, scale, length = stack.pop()
        worst = max(worst, abs(np.trace(tk) - np.trace(tq)) / max(1.0, scale))
        if length < word_length:
            stack.extend((tk @ a, tq @ b, scale * n, length + 1)
                         for a, b, n in reversed(gens))
    return worst


def _compare_blocks(stack: KZSystem, bases, sigmas, word_length: int,
                    rtol: float):
    """(trace deviation, eigenvalue deviation) of each block of one
    dimension, from the stack of their Omega_ij and each block's basis;
    sigmas[b] holds block b's sigma R generators.  The half-turn
    z -> (k + 1) - z with the strand reversal i -> k - 1 - i fixes the KZ
    form and the base point, and carries the exchange of strands i, i+1 to
    that of k-2-i, k-1-i; so one kz_transport per mirror pair i <= k-2-i
    serves, and T_{k-2-i} = Pi T_i Pi^-1 with Pi the reversal of the basis
    tuples."""
    k = stack.k
    base = base_configuration(k)
    transports = [kz_transport(stack, [exchange_segment(base, i)], rtol)
                  for i in range(k // 2)]
    deviations = []
    for b, (basis, qr_gens) in enumerate(zip(bases, sigmas)):
        rev = _basis_permutation(basis, lambda tup: tup[::-1])
        block_T = [T[b] for T in transports]
        block_T += [block_T[k - 2 - i][np.ix_(rev, rev)]
                    for i in range(len(block_T), k - 1)]
        kz_gens = [T[_basis_permutation(basis, _exchange(i))]
                   for i, T in enumerate(block_T)]
        deviations.append((_trace_deviation(kz_gens, qr_gens, word_length),
                           max(_eig_multiset_deviation(kz, qr)
                               for kz, qr in zip(kz_gens, qr_gens))))
    return deviations


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
    braid = BraidOperator(r, k)
    compared = {}
    values = {}       # each distinct sigma R entry is evaluated once

    def value(x):
        out = values.get(x)
        if out is None:
            out = values[x] = evaluate_numeric(x, hbar, V_quantum.D)
        return out

    try:
        # an overflow raises instead of warning, and sigma R, whose entries
        # overflow first, is evaluated before any transport
        with np.errstate(over="raise", invalid="raise"):
            sigma = {total: np.array([_array(g, value)
                                      for g in braid.block(total)[1]])
                     for total in totals}
            if not all(np.isfinite(g).all() for g in sigma.values()):
                raise FloatingPointError
            # the blocks of one dimension share one transport per mirror
            # pair of generators, and one dimension's Omega_ij are held at
            # a time: each block's own go once stacked, the stack before
            # the next dimension's are built
            by_dim = {}
            for total in totals:
                by_dim.setdefault(sigma[total].shape[-1], []).append(total)
            for dim, group in by_dim.items():
                if dim == 0:
                    continue
                systems = [build_kz_system(V_classical, k, total, hbar, omega)
                           for total in group]
                bases = [system.basis for system in systems]
                stack = stack_systems(systems)
                del systems
                deviations = _compare_blocks(
                    stack, bases, [sigma[total] for total in group],
                    word_length, rtol)
                del stack
                for total, (trace_dev, eig_dev) in zip(group, deviations):
                    compared[total] = BlockComparison(total, dim, trace_dev,
                                                      eig_dev)
    except (FloatingPointError, OverflowError, ZeroDivisionError):
        raise FloatingPointError(f"double precision overflowed at hbar = "
                                 f"{hbar}; take a smaller |Re hbar|") from None
    blocks = [compared[total] for total in totals if total in compared]
    worst_trace = max((b.max_trace_deviation for b in blocks), default=0.0)
    worst_eig = max((b.max_eigenvalue_deviation for b in blocks), default=0.0)
    return MonodromyReport(strands=k, hbar=hbar, word_length=word_length,
                           rtol=rtol, blocks=tuple(blocks),
                           max_trace_deviation=worst_trace,
                           max_eigenvalue_deviation=worst_eig)
