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
C, and each candidate comes from a fraction-free (Bareiss) solve, with one
of two sources.  When the caller knows as many independent kernel vectors
as the point has free columns (the Drinfeld pairing propagates them from
the degrees below), the solve is on those vectors restricted to the free
columns, a corank x corank system with small entries.  Otherwise, or when
those candidates fail, it is on N[C][C].  Either way every candidate is
det times an RREF vector, so it has an invertible block on the free
columns.  An exact check of N . k = 0 then certifies every candidate;
since the candidates are independent and their number is the specialized
corank, the specialized rank is also the generic rank, so the kernel is
exact whether or not the point was generic and whichever source built it.
A point whose candidates all fail the check is discarded and the next one
is tried.

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
from operator import mul

import numpy as np

from .scalars import kronecker_layout, one_norm, rational_residue


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


def bareiss_solve_columns(P, B, zero):
    """(det, X) with P X = det * B, by one-step fraction-free Gauss-Jordan.

    All intermediate divisions are exact over the ring; at termination
    every diagonal entry of the reduced left block equals the same minor
    (the determinant up to the row-swap sign), which is returned together
    with the right-block columns scaled by it.
    """
    n = len(P)
    t = len(B[0]) if B else 0
    M = [list(P[r]) + list(B[r]) for r in range(n)]
    width = n + t
    prev = None
    for k in range(n):
        piv = min((i for i in range(k, n) if M[i][k]), default=None,
                  key=lambda i: (M[i][k].complexity(), i))
        if piv is None:
            raise ValueError("singular system in bareiss_solve_columns")
        if piv != k:
            M[k], M[piv] = M[piv], M[k]
        pk = M[k][k]
        for i in range(n):
            if i == k:
                continue
            row = M[i]
            prow = M[k]
            mik = row[k]
            for j in range(k + 1, width):
                val = row[j] * pk
                if mik and prow[j]:
                    val = val - mik * prow[j]
                if prev is not None:
                    val = val.exact_div(prev)
                row[j] = val
            if i < k:
                # keep the already-reduced diagonal in step with the pivot
                val = row[i] * pk
                if prev is not None:
                    val = val.exact_div(prev)
                row[i] = val
            row[k] = zero
        prev = pk
    det = M[n - 1][n - 1] if n else None
    for i in range(n - 1):
        if M[i][i] != det:
            raise AssertionError("fraction-free Gauss-Jordan lost exactness")
    X = [[M[r][n + c] for c in range(t)] for r in range(n)]
    return det, X


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


def certified_laurent_nullspace(N, zero, one, points, p, normalize,
                                known=()):
    """Certified kernel of a symmetric matrix over Z[v^+-1].

    N: rows of Laurent polynomials, N[a][b] == N[b][a]; the rows of the
    pivot columns C mod p are then independent too, so N[C][C] is
    invertible at the point and over Q(v).  points: rational values of v,
    each read in F_p.  normalize(vector) -> canonical form of a kernel
    vector.  known: kernel vectors of N believed independent over Q(v),
    unverified; at a point with len(known) free columns F the first
    candidates are the rows of det K_F^-1 K, each det times the RREF vector
    of a free column.  Returns (rank, pivot columns, kernel vectors), one
    vector per free column in increasing column order.
    """
    ncols = len(N[0]) if N else 0

    def solved(P, B, pivots, free, by_free):
        """The kernel basis read off P X = det B, or none when P is
        singular.  The pivot entries of det times the RREF vector of free
        column f are minus row f of X when by_free, else minus column f."""
        try:
            det, X = bareiss_solve_columns(P, B, zero) if P else (one, [])
        except ValueError:
            return
        scaled = [dict(zip(free, x)) for x in (zip(*X) if by_free else X)]
        yield [normalize(v) for v in _free_basis(scaled, pivots, ncols, det)]

    def lift(pivots):
        free = [c for c in range(ncols) if c not in pivots]
        if not free:
            yield []
            return
        if len(known) == len(free):
            # the RREF basis is K_F^-1 K, so K_F X = -det K_pivots gives
            # its pivot entries, one row of X per free column
            yield from solved([[k[f] for f in free] for k in known],
                              [[-k[c] for c in pivots] for k in known],
                              pivots, free, True)
        # N[C][C] X = det N[C][F]: the rows of X, keyed by free column, are
        # the RREF rows scaled by det
        yield from solved([[N[r][c] for c in pivots] for r in pivots],
                          [[N[r][f] for f in free] for r in pivots],
                          pivots, free, False)

    def candidates(pt):
        x = rational_residue(pt, p)
        rows = rank_mod_p([[e.residue(x, p) for e in row] for row in N], p)[1]
        pivots = [int(np.flatnonzero(row)[0]) for row in rows]
        return pivots, lift(pivots)

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
