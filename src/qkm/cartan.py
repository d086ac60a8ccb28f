"""Symmetrizable Cartan data: matrix, symmetrizers, realization, invariant form.

A datum bundles the n-by-n rational matrix A, symmetrizers d_i with
d_i a_ij = d_j a_ji, a realization on a space of dimension 2n - rank(A)
(simple roots alpha_i as functionals, coroots h_i as vectors), and the
nondegenerate symmetric form on that space fixed by (h, h_i) = d_i^{-1} alpha_i(h).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .linalg import invert, matrix_rank, nullspace


class NotSymmetrizableError(ValueError):
    """The matrix admits no nonzero symmetrizers."""


def _frac_matrix(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def symmetrize(A) -> tuple[Fraction, ...]:
    """Find d with d_i a_ij = d_j a_ji, first d in each connected component 1.

    Raises NotSymmetrizableError when the zero pattern is asymmetric or a
    cycle forces inconsistent scalings.
    """
    A = _frac_matrix(A)
    n = len(A)
    for row in A:
        if len(row) != n:
            raise ValueError("matrix must be square")
    for i in range(n):
        for j in range(n):
            if (A[i][j] == 0) != (A[j][i] == 0):
                raise NotSymmetrizableError(
                    f"zero pattern asymmetric at pair ({i + 1}, {j + 1}): "
                    f"a[{i + 1}][{j + 1}]={A[i][j]}, a[{j + 1}][{i + 1}]={A[j][i]}")
    d: list[Fraction | None] = [None] * n
    parent = {}
    for root in range(n):
        if d[root] is not None:
            continue
        d[root] = Fraction(1)
        queue = [root]
        while queue:
            i = queue.pop(0)
            for j in range(n):
                if j == i or A[i][j] == 0:
                    continue
                forced = d[i] * A[i][j] / A[j][i]
                if d[j] is None:
                    d[j] = forced
                    parent[j] = i
                    queue.append(j)
                elif d[j] != forced:
                    cycle = [j, i]
                    k = i
                    while k in parent:
                        k = parent[k]
                        cycle.append(k)
                    path = " -> ".join(str(k + 1) for k in reversed(cycle))
                    raise NotSymmetrizableError(
                        f"inconsistent scaling around cycle {path}")
    for i in range(n):
        for j in range(n):
            if d[i] * A[i][j] != d[j] * A[j][i]:
                raise NotSymmetrizableError(
                    f"d_i a_ij = d_j a_ji fails at pair ({i + 1}, {j + 1})")
    return tuple(d)


@dataclass(frozen=True)
class CartanDatum:
    n: int
    A: tuple[tuple[Fraction, ...], ...]
    d: tuple[Fraction, ...]
    h_dim: int
    alpha: tuple[tuple[Fraction, ...], ...]    # rows: alpha_i on the basis of h
    h_coords: tuple[tuple[Fraction, ...], ...]  # rows: h_i in the basis of h
    G: tuple[tuple[Fraction, ...], ...]
    G_inv: tuple[tuple[Fraction, ...], ...]

    def alpha_form(self, i: int, j: int) -> Fraction:
        """(alpha_i, alpha_j) = d_i a_ij."""
        return self.d[i] * self.A[i][j]

    def is_gcm(self) -> bool:
        """Generalized Cartan matrix: a_ii = 2, off-diagonal nonpositive integers."""
        for i in range(self.n):
            if self.A[i][i] != 2:
                return False
            for j in range(self.n):
                if i != j:
                    a = self.A[i][j]
                    if a > 0 or a.denominator != 1:
                        return False
        return True


def build_realization(A, d=None) -> CartanDatum:
    """Construct a realization and the invariant form for a symmetrizable A.

    The coroots h_i are the first n standard basis vectors of Q^{2n-rank(A)}.
    Each alpha_i takes value a_ji on h_j; on the rank-deficiency coordinates
    the roots are extended by standard-basis values chosen deterministically
    to keep them independent.  The form G pairs the extra coordinates dually
    against the coroot directions with zero self-pairing.
    """
    A = _frac_matrix(A)
    n = len(A)
    if d is None:
        d = symmetrize(A)
    else:
        d = tuple(Fraction(x) for x in d)
        if len(d) != n or any(x == 0 for x in d):
            raise ValueError("need n nonzero symmetrizers")
        for i in range(n):
            for j in range(n):
                if d[i] * A[i][j] != d[j] * A[j][i]:
                    raise NotSymmetrizableError(
                        f"supplied d fails d_i a_ij = d_j a_ji at ({i + 1}, {j + 1})")
    rank = matrix_rank(A)
    r = n - rank
    h_dim = n + r

    ext_cols: list[int] = []
    if r:
        # right kernel of A, then the lexicographically first r independent
        # columns of its basis matrix
        kern = nullspace(A)
        kmat = [list(v) for v in kern]  # r rows, n cols
        chosen: list[int] = []
        for c in range(n):
            trial = [[kmat[i][j] for j in chosen + [c]] for i in range(r)]
            if matrix_rank(trial) == len(chosen) + 1:
                chosen.append(c)
                if len(chosen) == r:
                    break
        ext_cols = chosen

    alpha = []
    for i in range(n):
        row = [A[j][i] for j in range(n)]
        row += [Fraction(int(i == p)) for p in ext_cols]
        alpha.append(tuple(row))
    h_coords = tuple(
        tuple(Fraction(int(k == i)) for k in range(h_dim)) for i in range(n))

    G = [[Fraction(0)] * h_dim for _ in range(h_dim)]
    for j in range(n):
        for i in range(n):
            G[j][i] = A[j][i] / d[i]
    for k, p in enumerate(ext_cols):
        G[n + k][p] = Fraction(1) / d[p]
        G[p][n + k] = Fraction(1) / d[p]
    try:
        G_inv = invert(G)
    except ValueError:
        raise NotSymmetrizableError("constructed form on h is degenerate")

    cd = CartanDatum(n=n, A=A, d=tuple(d), h_dim=h_dim,
                     alpha=tuple(alpha), h_coords=h_coords,
                     G=tuple(tuple(row) for row in G),
                     G_inv=tuple(tuple(row) for row in G_inv))
    _validate(cd)
    return cd


def _validate(cd: CartanDatum) -> None:
    n, h_dim = cd.n, cd.h_dim
    for i in range(n):
        for j in range(n):
            got = sum(cd.alpha[i][k] * cd.h_coords[j][k] for k in range(h_dim))
            if got != cd.A[j][i]:
                raise AssertionError("alpha_i(h_j) != a_ji")
    if matrix_rank(cd.alpha) != n:
        raise AssertionError("simple roots are dependent")
    if matrix_rank(cd.h_coords) != n:
        raise AssertionError("coroots are dependent")
    for i in range(n):
        for k in range(h_dim):
            lhs = sum(cd.G[k][l] * cd.h_coords[i][l] for l in range(h_dim))
            if lhs != cd.alpha[i][k] / cd.d[i]:
                raise AssertionError("G h_i != d_i^{-1} alpha_i")
    for i in range(n):
        for j in range(n):
            if weight_form_base(cd, cd.alpha[i], cd.alpha[j]) != cd.d[i] * cd.A[i][j]:
                raise AssertionError("(alpha_i, alpha_j) != d_i a_ij")



def weight_form_base(cd: CartanDatum, x, y) -> Fraction:
    """The form on h* via G_inv, for coordinate rows x, y."""
    total = Fraction(0)
    for k in range(cd.h_dim):
        if x[k] == 0:
            continue
        for l in range(cd.h_dim):
            if y[l] != 0:
                total += x[k] * cd.G_inv[k][l] * y[l]
    return total


@dataclass(frozen=True)
class Weight:
    """A functional lambda - sum(offset_i alpha_i) on h.

    base holds the coordinates of lambda on the chosen basis of h;
    offset is a nonnegative-integer multidegree in the simple roots.
    """
    base: tuple[Fraction, ...]
    offset: tuple[int, ...]

    @staticmethod
    def highest(base, n: int) -> "Weight":
        return Weight(tuple(Fraction(x) for x in base), (0,) * n)

    def lowered(self, m) -> "Weight":
        return Weight(self.base, tuple(a + b for a, b in zip(self.offset, m)))

    def coords(self, cd: CartanDatum) -> tuple[Fraction, ...]:
        out = list(self.base)
        for i, mi in enumerate(self.offset):
            if mi:
                for k in range(cd.h_dim):
                    out[k] -= mi * cd.alpha[i][k]
        return tuple(out)

    def value_on_coroot(self, cd: CartanDatum, i: int) -> Fraction:
        c = self.coords(cd)
        return sum(c[k] * cd.h_coords[i][k] for k in range(cd.h_dim))


def highest_weight(hw, cd: CartanDatum) -> Weight:
    """hw as a Weight: n coordinates are padded with zeros to the dimension
    of h; any count other than n or that dimension raises ValueError."""
    if isinstance(hw, Weight):
        return hw
    vec = tuple(Fraction(x) for x in hw)
    if len(vec) == cd.n:
        vec += (Fraction(0),) * (cd.h_dim - cd.n)
    if len(vec) != cd.h_dim:
        raise ValueError(f"weight vector needs {cd.h_dim} coordinates "
                         f"(h has dimension {cd.h_dim}), got {len(vec)}")
    return Weight.highest(vec, cd.n)


def weight_form(x: Weight, y: Weight, cd: CartanDatum) -> Fraction:
    """(x, y) on h*, bilinear, computed via G_inv."""
    return weight_form_base(cd, x.coords(cd), y.coords(cd))


def gamma(i: int, cd: CartanDatum) -> tuple[Fraction, ...]:
    """Coordinates of d_i h_i; satisfies alpha_j(gamma_i) = (alpha_i, alpha_j)."""
    return tuple(cd.d[i] * c for c in cd.h_coords[i])


def session_denominator(cd: CartanDatum, weights=()) -> int:
    """Least D so every q-exponent in a session lands on the (1/D)-grid.

    Covers the symmetrizers d_i (the exponents of q_i = q^{d_i}),
    (alpha_i, alpha_j), (lambda, alpha_i), and (lambda, mu) for all
    supplied highest weights.
    """
    D = lcm(*(di.denominator for di in cd.d))
    for i in range(cd.n):
        for j in range(cd.n):
            D = lcm(D, cd.alpha_form(i, j).denominator)
    ws = [highest_weight(w, cd) for w in weights]
    for w in ws:
        for i in range(cd.n):
            ai = Weight(tuple(cd.alpha[i]), (0,) * cd.n)
            D = lcm(D, weight_form(w, ai, cd).denominator)
        for w2 in ws:
            D = lcm(D, weight_form(w, w2, cd).denominator)
    return D
