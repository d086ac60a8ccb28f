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
arrive as sparse rows, and `_array` writes either into a complex array;
each distinct sigma R entry is evaluated once per comparison.

The unit of work is a stack: the blocks of one dimension, B of them.  A
system stores its Omega_ij as one (P, B, d, d) array over the P pairs
i < j, in `_pairs(k)` order, and the right-hand side forms A(t) as one
product of the P path coefficients, computed as scalars, with that
array.  The blocks share one adaptive step sequence, in which a step is
accepted only when every block meets its own error tolerance.  The seven
stages of a step share one buffer, allocated once per segment, so each
stage's argument and the error estimate are one product of a tableau row
with it.  Only one generator of each mirror pair (i, k-2-i) is
transported: the half-turn of the plane about the base point's centre,
with the strand reversal, fixes the connection, so the mirrored monodromy
is the conjugate by the reversal of the basis tuples.
Monodromy is compared with the sigma R representation only through
conjugation-invariant data (traces of braid words and generator eigenvalue
multisets): the two representations are isomorphic, not equal.  The
comparison runs on the stack too: the generators of its blocks are
gathered into one (k-1, B, d, d) array, a word's last letter enters only
through a trace, and the spectra come from one eigvals call per generator
and side.  Only the multisets are matched block by block, at their
bottleneck distance, whose search starts at the lower bound set by each
eigenvalue's nearest partner.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

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
    stack of B blocks of one dimension (`stack_systems`)."""

    k: int
    basis: tuple       # the block's basis tuples; a stack's, one per block
    omega: np.ndarray  # Omega_ij, i < j in _pairs(k) order: (P, d, d), or
                       # (P, B, d, d) on a stack
    hbar: complex

    @property
    def dim(self) -> int:
        return self.omega.shape[-1]


@lru_cache(maxsize=None)
def _pairs(k: int) -> tuple:
    return tuple(combinations(range(k), 2))


def build_kz_system(V: WeightModule, k: int, total_offset, hbar,
                    omega: CasimirTensor | None = None) -> KZSystem:
    """Assemble the pairwise Casimir matrices on a block of V^(x k); omega
    is the Casimir tensor on V (x) V (by default from the module's form)."""
    if V.kind != "classical":
        raise ValueError("the KZ connection uses classical modules")
    if omega is None:
        omega = CasimirTensor(V, V)
    basis = tuple(tensor_block_basis((V,) * k, tuple(total_offset)))
    pairs = _pairs(k)
    out = np.zeros((len(pairs), len(basis), len(basis)), dtype=complex)
    for (i, j), om in zip(pairs, out):      # the entries are rationals
        _array(omega.lift(basis, i, j), float, om)
    return KZSystem(k=k, basis=basis, omega=out, hbar=complex(hbar))


def stack_systems(systems, count: int | None = None) -> KZSystem:
    """Systems on blocks of one dimension as one system whose Omega_ij are
    stacked (P, B, d, d): its transports are theirs, stacked alike.  Each
    block's Omega_ij are written into the stack once; systems may be an
    iterator of count systems, so that each block's own are dropped as soon
    as they are copied."""
    if count is None:
        systems = list(systems)
        count = len(systems)
    bases, omega = [], None
    for system in systems:
        if omega is None:
            shape = system.omega.shape
            omega = np.empty((shape[0], count) + shape[1:], dtype=complex)
        omega[:, len(bases)] = system.omega
        bases.append(system.basis)
    return KZSystem(k=system.k, basis=tuple(bases), omega=omega,
                    hbar=system.hbar)


def _array(rows, value, out=None):
    """A block's sparse rows {column: x} as the complex array of value(x),
    written into out (zero) when given."""
    if out is None:
        out = np.zeros((len(rows), len(rows)), dtype=complex)
    for r, row in enumerate(rows):
        for c, x in row.items():
            out[r, c] = value(x)
    return out


def base_configuration(k: int):
    return np.array([complex(i + 1) for i in range(k)])


def exchange_segment(base, i: int):
    """Counterclockwise half-turn of points i and i+1 about their midpoint;
    z and zdot are lists of Python complex numbers."""
    base = [complex(x) for x in base]
    mid = (base[i] + base[i + 1]) / 2
    off = base[i] - mid
    turn = off * EXCHANGE_ORIENTATION * 1j * math.pi
    still = [0j] * len(base)

    def seg(t: float):
        z = base.copy()
        phase = cmath.exp(EXCHANGE_ORIENTATION * 1j * math.pi * t)
        z[i] = mid + off * phase
        z[i + 1] = mid - off * phase
        zdot = still.copy()
        zdot[i] = vel = turn * phase
        zdot[i + 1] = -vel
        return z, zdot

    return seg


# Dormand-Prince 5(4) tableau.  Row s of _DP_A weighs the stages before s in
# the argument of stage s; the last stage is taken at the 5th-order
# solution (row 6 holds the 5th-order weights), so it is the first stage of
# the next step ("first same as last").  _DP_E weighs the stages into the
# 4th-order solution less the 5th-order one, the error estimate.  Plain
# tuples: importing the module runs no numpy code.
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = tuple(row + (0.0,) * (7 - len(row)) for row in (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
))
_DP_E = tuple(b4 - b5 for b4, b5 in zip(
    (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
     187 / 2100, 1 / 40), _DP_A[6]))


def _rhs(system: KZSystem, seg):
    """The right-hand side of the KZ system along seg: rhs(t, Y, out)
    writes A(t) Y into out and returns the step ceiling.  The path's
    coefficients are scalars, and A(t) is one product of them with the
    stacked Omega_ij."""
    pairs = _pairs(system.k)
    coeff = system.hbar / (2j * math.pi)
    omega = system.omega.reshape(len(pairs), -1)

    def rhs(t: float, Y, out) -> float:
        z, zdot = seg(t)
        dz = [z[i] - z[j] for i, j in pairs]
        dmin = min(map(abs, dz))
        scale = max(map(abs, z)) or 1.0
        if dmin < 1e-8 * scale:
            raise DiagonalApproachError(
                f"closest approach |z_i - z_j| = {dmin:.3e} at t = {t:.6f}")
        A = np.dot([coeff * (zdot[i] - zdot[j]) / d
                    for (i, j), d in zip(pairs, dz)], omega)
        np.matmul(A.reshape(Y.shape), Y, out=out)
        return 0.5 * dmin / (max(map(abs, zdot)) or 1.0)

    return rhs


def transport_segment(system: KZSystem, seg, Y, rtol: float):
    """Advance the fundamental solution Y, which it overwrites, along one
    smooth segment.  On a stack, Y is (B, d, d) and every block is held to
    its own tolerance rtol * max(1, max |Y_b|): a step is accepted only when
    all of them meet it, and the step size follows the block that needs the
    smallest."""
    if system.hbar == 0:
        return Y
    # the seven stages of a step share one buffer, so each stage's argument
    # and the error estimate are one product of a tableau row with it
    K = np.empty((7,) + Y.shape, dtype=complex)
    stages = K.reshape(7, -1)
    tableau, weights = np.array(_DP_A), np.array(_DP_E)
    Ys = np.empty_like(Y)
    rhs = _rhs(system, seg)
    t = 0.0
    ceiling = rhs(0.0, Y, K[0])
    h = min(0.05, ceiling, 1.0)
    while t < 1.0:
        h = min(h, 1.0 - t)
        rows = h * tableau
        for stage in range(1, 7):
            np.dot(rows[stage, :stage], stages[:stage], out=Ys.reshape(-1))
            Ys += Y
            ceil = rhs(t + _DP_C[stage] * h, Ys, K[stage])
        # Ys is now the 5th-order solution
        err = np.max(np.abs(np.dot(h * weights, stages).reshape(Y.shape)),
                     axis=(-2, -1))
        tol = rtol * np.maximum(1.0, np.max(np.abs(Ys), axis=(-2, -1)))
        accepted = bool(np.all(err <= tol))
        if accepted:
            t += h
            Y, Ys = Ys, Y
        # a block with err 0 asks for no limit (inf), and the clamp gives 5
        with np.errstate(divide="ignore"):
            factor = 0.9 * float(np.min(tol / err)) ** 0.2
        h = h * min(5.0, max(0.2, factor))
        # the step ceiling is the one taken at the start of this step
        h = min(h, ceiling if ceiling else h)
        if accepted:
            K[0] = K[6]
            ceiling = ceil
        if h <= 1e-14:
            raise DiagonalApproachError("step size underflow near a diagonal")
    return Y


def kz_transport(system: KZSystem, segments, rtol: float = 1e-9):
    """Transport matrix of the fundamental solution along a piecewise path;
    on a stack, the (B, d, d) stack of the blocks' transport matrices."""
    shape = system.omega.shape[1:]
    Y = np.broadcast_to(np.eye(shape[-1], dtype=complex), shape).copy()
    for seg in segments:
        Y = transport_segment(system, seg, Y, rtol)
    return Y


def _basis_permutations(basis, moves):
    """One index array p per move, with basis[p[r]] = move(basis[r])."""
    index = {tup: r for r, tup in enumerate(basis)}
    return np.array([[index[move(tup)] for tup in basis] for move in moves],
                    dtype=np.intp)


def _exchange(i: int):
    """Swap of tensor factors i and i+1 on a basis tuple."""
    return lambda tup: tup[:i] + (tup[i + 1], tup[i]) + tup[i + 2:]


def permutation_matrix(system: KZSystem, i: int):
    """The operator permuting tensor factors i and i+1 on the block basis."""
    swap = _basis_permutations(system.basis, [_exchange(i)])[0]
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
    blocks: tuple     # BlockComparison per compared block, in totals order

    @property
    def max_deviation(self) -> float:
        return max((max(b.max_trace_deviation, b.max_eigenvalue_deviation)
                    for b in self.blocks), default=0.0)


def _spectrum_deviation(eig_a, eig_b) -> float:
    """Bottleneck distance between two multisets of eigenvalues: the least t
    such that some perfect matching pairs every a in eig_a with one b in
    eig_b at relative distance |a - b| / max(1, |b|) <= t.
    Exact, so no rounding can split a pair.  Every row and every column is
    matched at no less than its own least distance, so the largest of those
    is a lower bound, probed first; only if it fails are the distances above
    it bisected.  A probe reads each row's columns, sorted once by
    distance, up to the level."""
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
    # when the rows' nearest columns are distinct they match at low
    if len(set(row[0] for row in order)) == len(order) or feasible(low):
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


def _trace_deviation(kz_gens, qr_gens, word_length: int):
    """Largest trace deviation over the positive braid words up to
    word_length, each relative to max(1, product of the Frobenius norms of
    the word's sigma R generators).  On generators (g, d, d) it is a float;
    on stacks (g, B, d, d), the (B,) array of each block's.  The last letter
    of a word enters only through a trace, tr(P g) = sum_ij P_ij g_ji, so a
    product is formed only for a prefix that is extended, and a depth-first
    walk holds only the prefixes of the current word."""
    kz_gens, qr_gens = np.asarray(kz_gens), np.asarray(qr_gens)
    norms = np.linalg.norm(qr_gens, axis=(-2, -1))
    letters = range(len(norms))
    worst = np.zeros(norms.shape[1:])

    def extensions(pk, pq, scale):
        """Fold in the words prefix + one letter, every letter at once (the
        prefix None is the empty word)."""
        if pk is None:
            tk = np.trace(kz_gens, axis1=-2, axis2=-1)
            tq = np.trace(qr_gens, axis1=-2, axis2=-1)
        else:
            tk = np.einsum("...ij,g...ji->g...", pk, kz_gens)
            tq = np.einsum("...ij,g...ji->g...", pq, qr_gens)
        deviation = np.abs(tk - tq) / np.maximum(1.0, scale * norms)
        np.maximum(worst, deviation.max(axis=0), out=worst)

    extensions(None, None, 1.0)
    # path[m] is a prefix of length m with the letters it has still to take
    path = [(None, None, 1.0, iter(letters))] if word_length > 1 else []
    while path:
        pk, pq, scale, rest = path[-1]
        g = next(rest, None)
        if g is None:
            path.pop()
            continue
        word = (kz_gens[g] if pk is None else pk @ kz_gens[g],
                qr_gens[g] if pq is None else pq @ qr_gens[g],
                scale * norms[g])
        extensions(*word)
        if len(path) + 2 <= word_length:
            path.append(word + (iter(letters),))
    return worst if worst.ndim else float(worst)


def _compare_blocks(stack: KZSystem, sigmas, word_length: int, rtol: float):
    """(trace deviation, eigenvalue deviation) of each block of a stack of
    blocks of one dimension; sigmas is the (k-1, B, d, d) stack of their
    sigma R generators.  The half-turn z -> (k + 1) - z with the strand
    reversal i -> k - 1 - i fixes the KZ form and the base point, and
    carries the exchange of strands i, i+1 to that of k-2-i, k-1-i; so one
    kz_transport per mirror pair i <= k-2-i serves, and
    T_{k-2-i} = Pi T_i Pi^-1 with Pi the reversal of the basis tuples.
    The generators of every block are gathered into one (k-1, B, d, d)
    stack, compared through traces and one eigvals call per generator and
    side; only the bottleneck matching runs per block."""
    k, bases = stack.k, stack.basis
    base = base_configuration(k)
    transports = [kz_transport(stack, [exchange_segment(base, i)], rtol)
                  for i in range(k // 2)]
    del stack         # its Omega_ij are not needed past the transports
    moves = [_exchange(i) for i in range(k - 1)] + [lambda tup: tup[::-1]]
    perms = np.array([_basis_permutations(basis, moves) for basis in bases])
    rev = perms[:, k - 1]
    at = np.arange(len(bases))[:, None]
    kz_gens = np.empty_like(sigmas)
    for i in range(k - 1):
        swap = perms[:, i]
        if i < len(transports):
            kz_gens[i] = transports[i][at, swap]
        else:                      # Pi T_{k-2-i} Pi^-1, then the exchange
            rows = np.take_along_axis(rev, swap, axis=1)
            kz_gens[i] = transports[k - 2 - i][at[:, :, None],
                                               rows[:, :, None],
                                               rev[:, None, :]]
    del transports
    traces = _trace_deviation(kz_gens, sigmas, word_length)
    spectra = np.zeros(len(bases))
    for kz, qr in zip(kz_gens, sigmas):
        for b, pair in enumerate(zip(np.linalg.eigvals(kz),
                                     np.linalg.eigvals(qr))):
            spectra[b] = max(spectra[b], _spectrum_deviation(*pair))
    return list(zip(traces.tolist(), spectra.tolist()))


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
            # the blocks of one dimension are compared as one stack, and one
            # dimension's Omega_ij are held at a time: each block's own and
            # its sigma R only until they are copied into the stacks
            by_dim = {}
            for total in totals:
                by_dim.setdefault(sigma[total].shape[-1], []).append(total)
            for dim, group in by_dim.items():
                if dim == 0:
                    continue
                sigmas = np.empty((k - 1, len(group), dim, dim), dtype=complex)
                for b, total in enumerate(group):
                    sigmas[:, b] = sigma.pop(total)
                systems = (build_kz_system(V_classical, k, total, hbar, omega)
                           for total in group)
                deviations = _compare_blocks(
                    stack_systems(systems, len(group)), sigmas, word_length,
                    rtol)
                for total, (trace_dev, eig_dev) in zip(group, deviations):
                    compared[total] = BlockComparison(total, dim, trace_dev,
                                                      eig_dev)
    except (FloatingPointError, OverflowError, ZeroDivisionError):
        raise FloatingPointError(f"double precision overflowed at hbar = "
                                 f"{hbar}; take a smaller |Re hbar|") from None
    return MonodromyReport(tuple(compared[total] for total in totals
                                 if total in compared))
