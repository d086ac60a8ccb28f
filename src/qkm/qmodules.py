"""Category-O highest weight modules: Verma modules, contravariant forms,
irreducible quotients, and character comparison.

Both the quantum modules (exact scalars in Q(v)) and their classical
counterparts (exact rationals) are built by one routine.  A Verma module's
weight space at offset m is the quotient of the span of f-words of degree m
by the relation ideal, with the reduced basis and the rewriting of
eliminated words coming from the module's kernel engine (the Drinfeld
pairing at generic q, the indeterminate-weight contravariant form
classically); modules read it only through the engine's `quotient_basis`
and `reduce`.  The module keeps that engine, so the R-matrix and the
Casimir tensor built on it reuse the same pairing or form.  Lowering
operators act by word concatenation followed by reduction; raising
operators act by the straightening rule obtained from the cross relations,
with the Cartan contribution read off the weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

from .cartan import CartanDatum, Weight, session_denominator, weight_form
from .classical import ShapovalovForm
from .freealg import TruncationError, total_degree, unit_degree, word_degree
from .linalg import nullspace, rref
from .qpairing import DrinfeldPairing, degrees_upto
from .scalars import QScalar, exponent_to_int, q_power, v_difference


@dataclass
class WeightModule:
    """A weight-graded highest weight module, truncated at a depth.

    spaces maps each offset multidegree (|m| <= depth) to the tuple of
    basis labels (reduced f-words).  Action matrices are stored per
    generator and source offset; matrix[r][c] is the coefficient of target
    basis vector r in the image of source basis vector c.  engine is the
    kernel engine whose word reduction defines the relations; the R-matrix
    and the Casimir tensor on this module reuse it.
    """

    kind: str                      # "quantum" or "classical"
    cd: CartanDatum
    highest: Weight
    depth: int
    D: int
    engine: object                 # DrinfeldPairing or ShapovalovForm
    scalar_one: object
    scalar_zero: object
    spaces: dict = field(default_factory=dict)
    # (i, offset) -> matrix into offset + 1_i, resp. offset - 1_i
    f_action: dict = field(default_factory=dict)
    e_action: dict = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        """True when every weight space at the truncation depth vanishes."""
        return all(not basis for m, basis in self.spaces.items()
                   if total_degree(m) == self.depth)

    def dim(self, offset) -> int:
        return len(self.spaces.get(tuple(offset), ()))

    def offsets(self):
        return sorted(self.spaces, key=lambda m: (total_degree(m), m))

    def weight_at(self, offset) -> Weight:
        return Weight(self.highest.base, tuple(offset))

    def k_exponent(self, i: int, offset) -> Fraction:
        """(alpha_i, mu) for mu = highest - offset; the K_i eigenvalue is
        q to this power."""
        alpha = Weight(tuple(self.cd.alpha[i]), (0,) * self.cd.n)
        return weight_form(alpha, self.weight_at(offset), self.cd)

    def k_eigenvalue(self, i: int, offset) -> QScalar:
        return q_power(self.k_exponent(i, offset), self.D)

    def h_eigenvalue(self, i: int, offset) -> Fraction:
        return self.weight_at(offset).value_on_coroot(self.cd, i)

    def cartan_scalar(self, i: int, offset):
        """[E_i, F_i] on the weight space at `offset`: (K_i - K_i^{-1}) /
        (q_i - q_i^{-1}) for quantum modules, h_i for classical ones."""
        if self.kind == "classical":
            return self.h_eigenvalue(i, offset)
        k = exponent_to_int(self.k_exponent(i, offset), self.D)
        di = exponent_to_int(self.cd.d[i], self.D)
        return QScalar(v_difference(k), v_difference(di))

    def unit(self, offset, k: int):
        """Coefficient vector of basis vector k at `offset`."""
        return [self.scalar_one if r == k else self.scalar_zero
                for r in range(self.dim(offset))]

    def _matrix(self, table, i, offset, target):
        key = (i, tuple(offset))
        mat = table.get(key)
        if mat is None:
            if tuple(target) not in self.spaces:
                raise TruncationError(
                    f"offset {target} lies beyond depth {self.depth}")
            return None
        return mat

    def apply_f(self, i: int, offset, vec):
        """Image of a coefficient vector at `offset` under F_i."""
        m = tuple(offset)
        target = tuple(a + b for a, b in zip(m, unit_degree(self.cd.n, i)))
        mat = self._matrix(self.f_action, i, m, target)
        tdim = self.dim(target)
        if mat is None or tdim == 0:
            return target, [self.scalar_zero] * tdim
        return target, _mat_vec(mat, vec, self.scalar_zero)

    def apply_e(self, i: int, offset, vec):
        m = tuple(offset)
        target = tuple(a - b for a, b in zip(m, unit_degree(self.cd.n, i)))
        if any(x < 0 for x in target):
            return target, []
        mat = self.e_action.get((i, m))
        tdim = self.dim(target)
        if mat is None or tdim == 0:
            return target, [self.scalar_zero] * tdim
        return target, _mat_vec(mat, vec, self.scalar_zero)

    def apply_e_word(self, word, offset, vec):
        """Act by the algebra element E_{w_1} ... E_{w_k} (rightmost first)."""
        word = tuple(word)
        final = list(offset)
        for letter in word:
            final[letter] -= 1
        final = tuple(final)
        m = tuple(offset)
        for letter in reversed(word):
            m, vec = self.apply_e(letter, m, vec)
            if not vec or all(not c for c in vec):
                return final, [self.scalar_zero] * self.dim(final)
        return final, vec

    def apply_f_word(self, word, offset, vec):
        word = tuple(word)
        final = list(offset)
        for letter in word:
            final[letter] += 1
        final = tuple(final)
        m = tuple(offset)
        for letter in reversed(word):
            m, vec = self.apply_f(letter, m, vec)
            if not vec or all(not c for c in vec):
                return final, [self.scalar_zero] * self.dim(final)
        return final, vec

    def apply_combo(self, terms, offset, vec, raising: bool):
        """Sum of c * (word action) over (word, c) terms, E-words when
        raising and F-words otherwise; None when no term applies.  Lowering
        out of a complete module's cone contributes zero; doing so on a
        truncated module raises TruncationError."""
        act = self.apply_e_word if raising else self.apply_f_word
        total = None
        for word, c in terms:
            try:
                _, img = act(word, offset, vec)
            except TruncationError:
                if self.complete:
                    continue
                raise
            img = [c * x for x in img]
            total = img if total is None else [p + q for p, q in zip(total, img)]
        return total


def _mat_vec(mat, vec, zero):
    out = []
    for row in mat:
        acc = zero
        for a, b in zip(row, vec):
            if a and b:
                acc = acc + a * b
        out.append(acc)
    return out


def _build_verma(M: WeightModule) -> WeightModule:
    """Fill in the spaces and actions of an empty Verma module from the
    quotient bases and word reduction of its kernel engine."""
    n = M.cd.n
    engine = M.engine
    offsets = degrees_upto(n, M.depth, include_zero=True)
    spaces = M.spaces
    for m in offsets:
        spaces[m] = engine.quotient_basis(m)
    one = M.scalar_one
    coeff_memo = {}
    for m in offsets:
        basis = spaces[m]
        for i in range(n):
            up = tuple(a + b for a, b in zip(m, unit_degree(n, i)))
            if up in spaces:
                cols = [engine.reduce(up, [((i,) + w, one)]) for w in basis]
                M.f_action[(i, m)] = _transpose(cols, len(spaces[up]),
                                                M.scalar_zero)
            down = tuple(a - b for a, b in zip(m, unit_degree(n, i)))
            if all(x >= 0 for x in down):
                cols = []
                for w in basis:
                    combo = []
                    for t, letter in enumerate(w):
                        if letter != i:
                            continue
                        # the Cartan scalar on the weight below the struck
                        # letter: the offset of the letters after it
                        key = (i, word_degree(w[t + 1:], n))
                        coeff = coeff_memo.get(key)
                        if coeff is None:
                            coeff = coeff_memo[key] = M.cartan_scalar(*key)
                        if coeff:
                            combo.append((w[:t] + w[t + 1:], coeff))
                    cols.append(engine.reduce(down, combo))
                M.e_action[(i, m)] = _transpose(cols, len(spaces[down]),
                                                M.scalar_zero)
    return M


def verma(hw, depth: int, cd: CartanDatum, D: int | None = None,
          pairing: DrinfeldPairing | None = None) -> WeightModule:
    """The quantum Verma module at formal q, truncated at `depth`."""
    hw = hw if isinstance(hw, Weight) else Weight.highest(hw, cd.n)
    if D is None:
        D = session_denominator(cd, [hw])
    if pairing is None:
        pairing = DrinfeldPairing(cd, D=D, degree_cap=max(depth, 1))
    elif pairing.D != D:
        raise ValueError("pairing engine uses a different session denominator")
    return _build_verma(WeightModule("quantum", cd, hw, depth, D, pairing,
                                     pairing.one, pairing.zero))


def classical_module(hw, kind: str, depth: int, cd: CartanDatum,
                     form: ShapovalovForm | None = None) -> WeightModule:
    """Classical Verma or irreducible module with exact rational actions."""
    hw = hw if isinstance(hw, Weight) else Weight.highest(hw, cd.n)
    if form is None:
        form = ShapovalovForm(cd, degree_cap=max(depth, 1))
    base = _build_verma(WeightModule("classical", cd, hw, depth, 1, form,
                                     form.one, form.zero))
    if kind == "verma":
        return base
    if kind == "irreducible":
        return _radical_quotient(base)
    raise ValueError("kind must be 'verma' or 'irreducible'")


def contravariant_form(module: WeightModule):
    """Per-offset Gram matrices of the contravariant form on a Verma module.

    <F_x v, F_z v> is the coefficient of the highest weight vector in
    omega(F_x) F_z v, for the involution swapping E_i and F_j; the form is
    normalized by <v, v> = 1.
    """
    blocks = {}
    for m in module.offsets():
        basis = module.spaces[m]
        size = len(basis)
        mat = [[module.scalar_zero] * size for _ in range(size)]
        for b in range(size):
            vec = module.unit(m, b)
            for a, word in enumerate(basis):
                target, out = module.apply_e_word(tuple(reversed(word)), m, vec)
                mat[a][b] = out[0] if out else module.scalar_zero
        blocks[m] = mat
    return blocks


def radical_dimensions(module: WeightModule):
    blocks = contravariant_form(module)
    return {m: len(nullspace(blocks[m], module.scalar_one)) if blocks[m] else 0
            for m in blocks}


def _radical_quotient(base: WeightModule) -> WeightModule:
    """Quotient a Verma module by the radical of its contravariant form."""
    blocks = contravariant_form(base)
    one = base.scalar_one
    zero = base.scalar_zero
    keep = {}
    reducers = {}
    for m, mat in blocks.items():
        size = len(base.spaces[m])
        rad = nullspace(mat, one) if size else []
        if not rad:
            keep[m] = list(range(size))
            reducers[m] = ([], [])
            continue
        red, pivots, _ = rref(rad)
        keep[m] = [c for c in range(size) if c not in pivots]
        reducers[m] = (pivots, red)

    def reduce_mod_radical(m, vec):
        pivots, rows = reducers[m]
        vec = list(vec)
        for r, p in enumerate(pivots):
            c = vec[p]
            if c:
                vec = [a - c * b for a, b in zip(vec, rows[r])]
        return [vec[k] for k in keep[m]]

    spaces = {m: tuple(base.spaces[m][k] for k in keep[m]) for m in base.spaces}
    f_action = {}
    e_action = {}
    for table, out, step in ((base.f_action, f_action, 1),
                             (base.e_action, e_action, -1)):
        for (i, m), mat in table.items():
            target = tuple(a + step * b
                           for a, b in zip(m, unit_degree(base.cd.n, i)))
            cols = [reduce_mod_radical(target, [row[c] for row in mat])
                    for c in keep[m]]
            out[(i, m)] = _transpose(cols, len(spaces[target]), zero)
    return replace(base, spaces=spaces, f_action=f_action, e_action=e_action)


def _transpose(cols, nrows, zero):
    return [[col[r] if r < len(col) else zero for col in cols]
            for r in range(nrows)]


def irreducible(hw, depth: int, cd: CartanDatum, D: int | None = None,
                pairing: DrinfeldPairing | None = None) -> WeightModule:
    """The irreducible quotient of the quantum Verma module."""
    return _radical_quotient(verma(hw, depth, cd, D=D, pairing=pairing))


def character(module: WeightModule):
    """Offset multidegree -> weight space dimension, within the depth cone."""
    return {m: len(module.spaces[m]) for m in module.offsets()}


def check_module_relations(M: WeightModule) -> bool:
    """Exact blockwise verification of the defining relations.

    [E_i, F_j] = delta_ij (K_i - K_i^{-1})/(q_i - q_i^{-1}) on every weight
    space (the classical analogue uses h_i), and the K-conjugation
    K_i E_j K_i^{-1} = q^{(alpha_i, alpha_j)} E_j as an eigenvalue identity.
    The diagonal scalar is `cartan_scalar` at the source offset, while the
    E-action applied it at the offset below each struck letter, so the check
    covers the reductions, the off-diagonal relations and those offsets.
    Raises AssertionError at the first violated block."""
    cd = M.cd
    n = cd.n
    for m in M.offsets():
        dim_m = M.dim(m)
        if dim_m == 0:
            continue
        for i in range(n):
            for j in range(n):
                up = tuple(a + int(k == j) for k, a in enumerate(m))
                if up not in M.spaces:
                    continue
                target = tuple(a - int(k == i) for k, a in enumerate(up))
                tdim = M.dim(target) if all(x >= 0 for x in target) else 0
                down = tuple(a - int(k == i) for k, a in enumerate(m))
                for c in range(dim_m):
                    e_c = M.unit(m, c)
                    _, fv = M.apply_f(j, m, e_c)
                    _, efv = M.apply_e(i, up, fv)
                    if all(x >= 0 for x in down):
                        _, ev = M.apply_e(i, m, e_c)
                        _, fev = M.apply_f(j, down, ev)
                    else:
                        fev = []
                    efv = list(efv) + [M.scalar_zero] * (tdim - len(efv))
                    fev = list(fev) + [M.scalar_zero] * (tdim - len(fev))
                    comm = [a - b for a, b in zip(efv, fev)]
                    if i == j:
                        scalar = M.cartan_scalar(i, m)
                        expected = [scalar if r == c else M.scalar_zero
                                    for r in range(tdim)]
                    else:
                        expected = [M.scalar_zero] * tdim
                    if comm != expected:
                        raise AssertionError(
                            f"cross relation fails at offset {m}, generators "
                            f"({i + 1}, {j + 1})")
    if M.kind == "quantum":
        for (j, m) in list(M.e_action):
            down = tuple(a - int(k == j) for k, a in enumerate(m))
            if M.dim(m) == 0 or M.dim(down) == 0:
                continue
            for i in range(n):
                ratio = M.k_eigenvalue(i, down) / M.k_eigenvalue(i, m)
                if ratio != q_power(cd.alpha_form(i, j), M.D):
                    raise AssertionError(
                        f"K-conjugation fails at offset {m}, pair "
                        f"({i + 1}, {j + 1})")
    return True


@dataclass(frozen=True)
class CharacterComparison:
    equal: bool
    first_discrepancy: tuple | None
    left_dim: int | None
    right_dim: int | None


def compare_characters(left: WeightModule, right: WeightModule) -> CharacterComparison:
    """Entrywise comparison of two character tables on the common depth."""
    depth = min(left.depth, right.depth)
    for m in degrees_upto(left.cd.n, depth, include_zero=True):
        a = left.dim(m)
        b = right.dim(m)
        if a != b:
            return CharacterComparison(False, m, a, b)
    return CharacterComparison(True, None, None, None)
