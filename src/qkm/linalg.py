"""Exact linear algebra: one field-generic Gauss-Jordan core and certified
nullspaces of polynomial matrices.

`rref`, `nullspace` and `invert` work over any exact field whose elements
support + - * / and truthiness (Fraction, QScalar); entries are never
coerced, so callers pass field elements, not ints.

A kernel of a matrix N over Z[v^+-1], or over a polynomial ring over Q
when the kernel is defined over Q, is certified by one loop.  The rank of
N specialized at a point is a lower bound for its generic rank.  Over Q
the point is rational and the candidates, one kernel vector per free
column, are the RREF basis of the specialization.  Over Z[v^+-1] the
point is read in F_p, where `rank_mod_p` gives the rank and pivot columns
C, and the candidates come from one fraction-free (Bareiss) solve on the
Gram side, the pivot block N[C][C].  Every candidate is det times an RREF
vector, so it has an invertible block on the free columns.  An exact
check of N . k = 0 then certifies every candidate; since the candidates
are independent and their number is the specialized corank, the
specialized rank is also the generic rank, so the kernel is exact whether
or not the point was generic.  A point whose candidates fail the check is
discarded and the next one is tried.

`kernel_side_basis` reads the same RREF basis off kernel vectors K, one
per free column, by K_F X = -det K_C, a corank x corank solve; the caller
certifies that K spans the kernel (see `qpairing.DrinfeldPairing`).

Over the polynomial ring over Q the check multiplies out the symbolic
products.  Over Z[v^+-1] it compares integers (Kronecker substitution, as
`rmatrix` does for the braid relation); N and every candidate lie in
Z[v^+-1].  For row r every coefficient of sum_c N[r][c] k[c] is
at most B = (sum_c |N[r][c]|_1) * max_c |k[c]|_1 in absolute value, with
|.|_1 the sum of |coefficients|; one B is taken over all rows and the
candidates of one set.  Each entry of N and of k is packed into its
integer value at v^step = 2^bits, bits = B.bit_length() + 1
(`scalars.kronecker_layout`).  Each row's integer dot product is then the
packed image of a Laurent polynomial whose coefficients lie below
2^(bits - 1) in absolute value, so it is 0 only if that polynomial is 0.

The fraction-free solve `bareiss_solve_columns(P, B)` gives det != 0 and
X with P X = det B, for P n x n, by the one-step Bareiss recursion
(Bareiss 1968) on the integers that pack [P | B] at v^step = 2^bits,
pivoting on the least |entry|.  Packing is a ring map to Z, so every
division is exact at any width; only unpacking det and X (n-minors of
[P | B], signed digits) needs the width.  It starts at 16 bits and
doubles up to the cap, bound.bit_length() + 1 rounded up to a byte, with
bound = prod_r max(1, sum_c |[P | B][r][c]|_1), which bounds the 1-norm
of every minor: at the cap the unpacked outputs are exact and a zero
pivot column proves P singular (ValueError).  Below it a zero pivot
column means "widen", and (det, X) is accepted only when the packed check
above, with the bound max_r (sum_c |[P | B][r][c]|_1) * max(|det|_1,
|X|_1), finds P X = det B.

Graded dimensions need no kernel vectors, only ranks, and `rank_mod_p`
gives those for integer matrices reduced mod a word-size prime.  It works
on numpy int64 rows: `rref` on boxed Fractions would spend its time in
gcd normalization, which a prime field does not need.  A rank mod p at a
specialization point is a lower bound for the rank over the ring (the
map to F_p is a ring homomorphism), and the rank mod p of images of known
kernel vectors is a lower bound for the kernel dimension; how the two are
combined into a certificate is described in `qpairing.GradedForm`.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from operator import mul

import numpy as np

from .scalars import (
    LaurentPoly,
    kronecker_layout,
    kronecker_unpack,
    one_norm,
    rational_residue,
)

_ZERO = LaurentPoly.zero()


def rref(rows):
    """Reduced row echelon form over an exact field: (reduced rows, pivot
    columns)."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def matrix_rank(rows) -> int:
    return len(rref(rows)[1])


def rank_mod_p(rows, p: int):
    """Rank of a 2-d integer matrix mod a prime p < 2^31, and a row echelon
    basis of its row space mod p (an int64 array with one row per unit of
    rank).  Products of two residues stay below 2^62, inside int64."""
    m = np.array(rows, dtype=np.int64) % p
    r = 0
    for c in range(m.shape[1]):
        nonzero = np.flatnonzero(m[r:, c])
        if not nonzero.size:
            continue
        pr = r + nonzero[0]
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        m[r] = m[r] * pow(int(m[r, c]), -1, p) % p
        below = r + 1 + np.flatnonzero(m[r + 1:, c])
        if below.size:
            m[below] = (m[below] - np.outer(m[below, c], m[r])) % p
        r += 1
        if r == m.shape[0]:
            break
    return r, m[:r]


def invert(rows, one=Fraction(1)):
    """Inverse over an exact field; `one` is the field's unit.  Raises
    ValueError when the matrix is singular."""
    n = len(rows)
    zero = one - one
    aug = [list(rows[i]) + [one if i == j else zero for j in range(n)]
           for i in range(n)]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix not invertible")
    return [row[n:] for row in red]


def _free_basis(red, pivots, ncols, one):
    """Kernel basis read off a reduced echelon form, one vector per free
    column in increasing column order."""
    zero = one - one
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [zero] * ncols
        v[f] = one
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(v)
    return basis


def nullspace(rows, one=Fraction(1)):
    """Kernel basis over an exact field (RREF form); `one` is the field's
    unit."""
    if not rows:
        return []
    red, pivots = rref(rows)
    return _free_basis(red, pivots, len(rows[0]), one)


def _integer_bareiss(M, n):
    """One-step fraction-free Gauss-Jordan in place on the integer rows M,
    pivoting in the first n columns on the smallest nonzero |entry|: the
    determinant of the row-permuted leading block, with the columns past n
    scaled by it, or None when a pivot column is zero.  Every division is
    exact in Z (Bareiss 1968)."""
    prev = 1
    for k in range(n):
        piv = min((i for i in range(k, n) if M[i][k]), default=None,
                  key=lambda i: abs(M[i][k]))
        if piv is None:
            return None
        M[k], M[piv] = M[piv], M[k]
        prow = M[k]
        pk = prow[k]
        tail = prow[k + 1:]
        for i in range(n):
            if i == k:
                continue
            row = M[i]
            mik = row[k]
            if mik:
                row[k + 1:] = [(a * pk - mik * b) // prev
                               for a, b in zip(row[k + 1:], tail)]
            else:
                row[k + 1:] = [a * pk // prev for a in row[k + 1:]]
            if i < k:
                # keep the already-reduced diagonal in step with the pivot
                row[i] = row[i] * pk // prev
            row[k] = 0
        prev = pk
    for i in range(n - 1):
        if M[i][i] != prev:
            raise AssertionError("fraction-free Gauss-Jordan lost exactness")
    return prev


def bareiss_solve_columns(P, B):
    """(det, X) with P X = det * B and det != 0, for P n x n and B n x t
    over Z[v^+-1]; ValueError when P is singular.

    The elimination runs on the Kronecker images of [P | B] at
    v^step = 2^bits, widening from 16 bits; the module docstring gives the
    cap and the exact check that accepts a width below it.
    """
    n = len(P)
    t = len(B[0]) if B else 0
    rows = [list(P[r]) + list(B[r]) for r in range(n)]
    bound = prod(max(1, sum(map(one_norm, row))) for row in rows)
    cap, (lo,), step = kronecker_layout([[e for row in rows for e in row]],
                                        bound)
    bits = 16
    while True:
        M = [[e.kronecker(bits, lo, step) for e in row] for row in rows]
        det = _integer_bareiss(M, n)
        if det is not None:
            det, *flat = kronecker_unpack(
                [det] + [x for row in M for x in row[n:]], bits, n * lo,
                step, signed=True)
            X = [flat[r * t:(r + 1) * t] for r in range(n)]
            # column c of X over -det e_c is a kernel vector of [P | B]
            if bits >= cap or _packed_verifier(rows)(
                    [[x[c] for x in X] + [-det if j == c else _ZERO
                                          for j in range(t)]
                     for c in range(t)]):
                return det, X
        elif bits >= cap:
            raise ValueError("singular system in bareiss_solve_columns")
        bits = min(2 * bits, -(-cap // 8) * 8)


class BadPointError(RuntimeError):
    """All specialization points were rejected; should not happen in practice."""


def _certified_nullspace(N, points, candidates, verified):
    """The one certificate loop shared by both rings.

    At each point, candidates(pt) gives the pivot columns of N specialized
    there and an iterable of candidate sets, each one kernel vector of N
    per free column.  verified(vectors) decides N . k = 0 exactly for every
    vector of a set; the first set it accepts gives (rank, pivot columns,
    vectors), and a point whose sets all fail is discarded.
    """
    ncols = len(N[0]) if N else 0
    if ncols == 0:
        return 0, [], []
    for pt in points:
        pivots, sets = candidates(pt)
        for vectors in sets:
            if verified(vectors):
                return len(pivots), pivots, vectors
    raise BadPointError("no specialization point certified the kernel")


def _verify_zero(N, vec):
    for row in N:
        acc = None
        for e, c in zip(row, vec):
            if e and c:
                term = e * c
                acc = term if acc is None else acc + term
        if acc:
            return False
    return True


def _packed_verifier(N):
    """verified(vectors) for a matrix N over Z[v^+-1]: N . k = 0 for every
    k, decided on Kronecker images (the module docstring gives the bound)."""
    entries = [e for row in N for e in row]
    row_norm = max(sum(map(one_norm, row)) for row in N)

    def verified(vectors):
        if not vectors:
            return True
        bound = row_norm * max(one_norm(e) for k in vectors for e in k)
        bits, (lo_n, lo_k), step = kronecker_layout(
            [entries, [e for k in vectors for e in k]], bound)
        packed = [[e.kronecker(bits, lo_n, step) for e in row] for row in N]
        for k in vectors:
            kk = [e.kronecker(bits, lo_k, step) for e in k]
            if any(sum(map(mul, row, kk)) for row in packed):
                return False
        return True

    return verified


def _solved_basis(P, B, pivots, free, by_free, normalize):
    """The normalized kernel basis, one vector per free column, read off
    P X = det B, or None when P is singular.  The pivot entries of det
    times the RREF vector of free column f are minus row f of X when
    by_free, else minus column f."""
    try:
        det, X = bareiss_solve_columns(P, B)
    except ValueError:
        return None
    scaled = [dict(zip(free, x)) for x in (zip(*X) if by_free else X)]
    return [normalize(v) for v in _free_basis(
        scaled, pivots, len(pivots) + len(free), det)]


def kernel_side_basis(known, pivots, normalize):
    """The RREF kernel basis spanned by known, one kernel vector over
    Z[v^+-1] per free column F: K_F^-1 K, whose pivot entries solve
    K_F X = -det K_C.  None when K_F is singular."""
    free = [c for c in range(len(known[0])) if c not in pivots]
    return _solved_basis([[k[f] for f in free] for k in known],
                         [[-k[c] for c in pivots] for k in known],
                         pivots, free, True, normalize)


def certified_laurent_nullspace(N, normalize, p, points):
    """Certified kernel of a symmetric matrix over Z[v^+-1].

    N: rows of Laurent polynomials, N[a][b] == N[b][a]; the rows of the
    pivot columns C mod p are then independent too, so N[C][C] is
    invertible at the point and over Q(v).  normalize(vector) -> canonical
    form of a kernel vector.  points: rational values of v, each read in
    F_p; they stay the fourth argument, which `perfbench/spans.py` wraps to
    count the points drawn.  Returns (rank, pivot columns, kernel vectors),
    one vector per free column in increasing column order.
    """
    ncols = len(N[0]) if N else 0

    def candidates(pt):
        x = rational_residue(pt, p)
        rows = rank_mod_p([[e.residue(x, p) for e in row] for row in N], p)[1]
        pivots = [int(np.flatnonzero(row)[0]) for row in rows]
        if len(pivots) == ncols:
            return pivots, [[]]
        free = [c for c in range(ncols) if c not in pivots]
        solved = _solved_basis([[N[r][c] for c in pivots] for r in pivots],
                               [[N[r][f] for f in free] for r in pivots],
                               pivots, free, False, normalize)
        return pivots, [] if solved is None else [solved]

    return _certified_nullspace(N, points, candidates, _packed_verifier(N))


def certified_rational_nullspace(S, points, specialize):
    """Certified Q-rational kernel of a symbolic matrix whose kernel is
    known to be defined over Q (e.g. a generic-parameter Gram block).

    The candidates at a point are the RREF kernel basis of the
    specialization itself: when they verify, the generic kernel is their
    span.  Returns (rank, pivot columns, list of Fraction vectors), one
    vector per free column in increasing column order.
    """
    def candidates(pt):
        red, pivots = rref([[specialize(e, pt) for e in row] for row in S])
        return pivots, [_free_basis(red, pivots, len(red[0]), Fraction(1))]

    return _certified_nullspace(
        S, points, candidates,
        lambda vectors: all(_verify_zero(S, v) for v in vectors))
