"""Exact linear algebra: one field-generic Gauss-Jordan core and certified
nullspaces of polynomial matrices.

`rref`, `nullspace` and `invert` work over any exact field whose elements
support + - * / and truthiness (Fraction, QScalar); entries are never
coerced, so callers pass field elements, not ints.

A kernel of a matrix N over Z[v^+-1], or over a polynomial ring over Q
when the kernel is defined over Q, is certified by one loop.  The rank of
N specialized at an exact rational point is a lower bound for its generic
rank.  From the RREF of that specialization, one candidate kernel vector
per free column is built in the ring.  Over Z[v^+-1] it comes from a
fraction-free (Bareiss) solve, with one of two sources.  When the caller
knows as many independent kernel vectors as the point has free columns
(the Drinfeld pairing propagates them from the degrees below), the solve
is on those vectors restricted to the free columns, a corank x corank
system with small entries.  Otherwise, or when those candidates fail, it
is on the pivot rows and columns of N.  Over Q the candidates are the
specialized RREF basis itself.  Either way every candidate is det times
an RREF vector, so it has an invertible block on the free columns.
Symbolic verification N . k = 0 then certifies every candidate; since the
candidates are independent and their number is the specialized corank,
the specialized rank is also the generic rank, so the kernel is exact
whether or not the point was generic and whichever source built it.  A
point whose candidates all fail verification is discarded and the next
one is tried.

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

import numpy as np


def rref(rows):
    """Reduced row echelon form over an exact field.

    Returns (reduced rows, pivot columns, row permutation) where
    permutation[r] is the original index of reduced row r.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    perm = list(range(nrows))
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        perm[r], perm[pr] = perm[pr], perm[r]
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
    return m, pivots, perm


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
    red, pivots, _ = rref(aug)
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
    red, pivots, _ = rref(rows)
    return _free_basis(red, pivots, len(rows[0]), one)


def _complexity(x):
    comp = getattr(x, "complexity", None)
    if comp is not None:
        return comp()
    return 0


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
        cands = [(i, _complexity(M[i][k])) for i in range(k, n) if M[i][k]]
        if not cands:
            raise ValueError("singular system in bareiss_solve_columns")
        piv = min(cands, key=lambda s: (s[1], s[0]))[0]
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


def _certified_nullspace(N, points, specialize, candidates):
    """The one certificate loop shared by both rings.

    At each point: specialize N, reduce it to RREF, and let
    candidates(red, pivots, perm) yield candidate sets, each one kernel
    vector of N per free column.  The first set whose vectors all satisfy
    N . k = 0 symbolically gives (rank, pivot columns, vectors); a point
    whose sets all fail is discarded.
    """
    ncols = len(N[0]) if N else 0
    if ncols == 0:
        return 0, [], []
    for pt in points:
        red, pivots, perm = rref([[specialize(e, pt) for e in row] for row in N])
        for vectors in candidates(red, pivots, perm):
            if all(_verify_zero(N, v) for v in vectors):
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


def certified_laurent_nullspace(N, zero, one, points, specialize, normalize,
                                known=()):
    """Certified kernel of a matrix over a univariate Laurent ring.

    N: list of rows of ring elements.  specialize(entry, pt) -> Fraction.
    normalize(vector) -> canonical form of a kernel vector.  known: kernel
    vectors of N believed independent over the fraction field, unverified.
    At a point with exactly len(known) free columns F, the first candidates
    come from a Bareiss solve on the known vectors K restricted to F: row f
    of det K_F^-1 K is det times the RREF vector of free column f.
    Otherwise, or when those fail, they come from a Bareiss solve on the
    pivot rows and columns of N.  Returns (rank, pivot columns, kernel
    vectors), one vector per free column in increasing column order.
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

    def lift(red, pivots, perm):
        free = [c for c in range(ncols) if c not in pivots]
        if not free:
            yield []
            return
        if len(known) == len(free):
            # the RREF basis is K_F^-1 K, so K_F X = -det K_pivots gives
            # its pivot entries, one row of X per free column
            yield from solved([[k[f] for f in free] for k in known],
                              [[-k[p] for p in pivots] for k in known],
                              pivots, free, True)
        rows = perm[:len(pivots)]
        # P X = det B: the rows of X, keyed by free column, are the RREF
        # rows scaled by det
        yield from solved([[N[r][c] for c in pivots] for r in rows],
                          [[N[r][f] for f in free] for r in rows],
                          pivots, free, False)

    return _certified_nullspace(N, points, specialize, lift)


def certified_rational_nullspace(S, points, specialize):
    """Certified Q-rational kernel of a symbolic matrix whose kernel is
    known to be defined over Q (e.g. a generic-parameter Gram block).

    The candidates at a point are the RREF kernel basis of the
    specialization itself: when they verify, the generic kernel is their
    span.  Returns (rank, pivot columns, list of Fraction vectors), one
    vector per free column in increasing column order.
    """
    return _certified_nullspace(
        S, points, specialize, lambda red, pivots, perm: [_free_basis(
            red, pivots, len(red[0]), Fraction(1))])
