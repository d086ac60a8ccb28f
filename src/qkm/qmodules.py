"""Category-O highest weight modules: Verma modules, irreducible quotients,
contravariant forms, and character comparison.

One builder makes every module, quantum (exact scalars in Q(v)) or
classical (exact rationals): the weight space at offset m is the span of
the f-words of degree m modulo the null space of a form, read through the
form's `quotient_basis` and `reduce`.  A Verma module M(lambda) takes the
kernel engine, whose null space is the relation ideal (the Drinfeld pairing
at generic q; classically the contravariant form at an indeterminate
weight).  The irreducible L(lambda) takes the contravariant form at lambda
(`HighestWeightForm`), whose null space holds the relations and the radical
of M(lambda) at once, so no Verma module is built on the way.  A module
keeps the generic engine, which the R-matrix and the Casimir tensor reuse;
a quantum module's session denominator D is its pairing's.  Lowering
operators act by word concatenation followed by reduction; raising
operators by the straightening rule of the cross relations, with the Cartan
contribution read off the weight.  `contravariant_form` evaluates the form
on a built module by its own word actions, the independent reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import truediv

from .cartan import (CartanDatum, Weight, highest_weight, session_denominator,
                     weight_form)
from .classical import ShapovalovForm
from .freealg import (TruncationError, enumerate_words, total_degree,
                      unit_degree, word_degree)
from .linalg import _free_basis, nullspace, rref
from .qpairing import DrinfeldPairing, GradedForm, degrees_upto
from .scalars import QScalar, exponent_to_int, q_power, v_difference


@dataclass
class WeightModule:
    """A weight-graded highest weight module, truncated at a depth.

    spaces maps each offset multidegree (|m| <= depth) to the tuple of
    basis labels (reduced f-words).  Action matrices are stored per
    generator and source offset; matrix[r][c] is the coefficient of target
    basis vector r in the image of source basis vector c.  engine holds the
    generic relations, which the R-matrix and the Casimir tensor on this
    module read, and fixes the Cartan datum cd, the kind, D and the
    scalars.  The module's own quotient comes from the form it was built
    with: the engine for a Verma module, the form at the highest weight for
    an irreducible one.
    The word-combination images of basis vectors (`image`) are kept on the
    module, for every two-site operator on it: R and the Casimir tensor.
    `occupied`, the (offset, dim) pairs of the nonzero weight spaces in
    offsets() order, is the module's character, taken once when it is
    built; tensor blocks and their totals read it.
    """

    highest: Weight
    depth: int
    engine: object                 # DrinfeldPairing or ShapovalovForm
    spaces: dict = field(default_factory=dict)
    # (i, offset) -> matrix into offset + 1_i, resp. offset - 1_i
    f_action: dict = field(default_factory=dict)
    e_action: dict = field(default_factory=dict)
    _images: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.cd = self.engine.cd
        quantum = isinstance(self.engine, DrinfeldPairing)
        self.kind = "quantum" if quantum else "classical"
        self.D = self.engine.D if quantum else 1   # q = v^D
        self.scalar_one, self.scalar_zero = self.engine.one, self.engine.zero

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

    def _apply(self, table, step, i: int, offset, vec):
        """Image of a coefficient vector at `offset` under F_i (step 1, the
        table f_action) or E_i (step -1, e_action)."""
        m = tuple(offset)
        target = list(m)
        target[i] += step
        target = tuple(target)
        mat = table.get((i, m))
        if mat is not None:
            return target, _mat_vec(mat, vec, self.scalar_zero)
        if min(target) >= 0 and target not in self.spaces:
            raise TruncationError(
                f"offset {target} lies beyond depth {self.depth}")
        return target, [self.scalar_zero] * self.dim(target)

    def apply_f(self, i: int, offset, vec):
        """Image of a coefficient vector at `offset` under F_i."""
        return self._apply(self.f_action, 1, i, offset, vec)

    def apply_e(self, i: int, offset, vec):
        return self._apply(self.e_action, -1, i, offset, vec)

    def _apply_word(self, table, step, word, offset, vec):
        word = tuple(word)
        final = list(offset)
        for letter in word:
            final[letter] += step
        final = tuple(final)
        m = tuple(offset)
        for letter in reversed(word):
            m, vec = self._apply(table, step, letter, m, vec)
            if not any(vec):
                return final, [self.scalar_zero] * self.dim(final)
        return final, vec

    def apply_e_word(self, word, offset, vec):
        """Act by the algebra element E_{w_1} ... E_{w_k} (rightmost first)."""
        return self._apply_word(self.e_action, -1, word, offset, vec)

    def apply_f_word(self, word, offset, vec):
        return self._apply_word(self.f_action, 1, word, offset, vec)

    def image(self, terms, offset, k: int, raising: bool):
        """(target offset, coefficient vector) of basis vector k at `offset`
        under a combination of words of one degree (`freealg.combination`),
        E-words when `raising` and F-words otherwise; None when it is zero.
        Lowering out of a complete module's cone gives zero; doing so on a
        truncated module raises TruncationError.  Kept per (terms, offset,
        k, raising).  A combination of several words is summed from the
        kept images of its words, so a word that several combinations share
        acts once."""
        key = (terms, offset, k, raising)
        if key in self._images:
            return self._images[key]
        one = self.scalar_one
        if len(terms) == 1 and terms[0][1] == one:
            act = self.apply_e_word if raising else self.apply_f_word
            try:
                img = act(terms[0][0], offset, self.unit(offset, k))[1]
            except TruncationError:
                if not self.complete:
                    raise
                img = None
        else:
            img = None
            for word, c in terms:
                hit = self.image(((word, one),), offset, k, raising)
                if hit is not None:
                    vec = hit[1] if c == one else [c * x for x in hit[1]]
                    img = vec if img is None else [
                        p + q for p, q in zip(img, vec)]
        out = None
        if img is not None and any(img):
            step = -1 if raising else 1
            degree = word_degree(terms[0][0], self.cd.n)
            out = tuple(x + step * y for x, y in zip(offset, degree)), img
        self._images[key] = out
        return out


def _mat_vec(mat, vec, zero):
    out = []
    for row in mat:
        acc = zero
        for a, b in zip(row, vec):
            if a and b:
                acc = acc + a * b
        out.append(acc)
    return out


class HighestWeightForm(GradedForm):
    """The contravariant form at the highest weight of a module, over the
    module's field: B(x, z) is the coefficient of v in E_{x_k}..E_{x_1} F_z v.
    Straightening E_{x_1} through F_z v is `GradedForm`'s recursion peeling
    the first letter, with the factor `cartan_scalar` at the offset of the
    letters after the struck one.  Its null space in degree m holds the
    relations and the radical of the Verma module, so its quotient is the
    irreducible module.  The entries lie in a field, so one RREF solves a
    degree exactly; there is no mod-p certificate."""

    _peels_first = True

    def __init__(self, module: WeightModule):
        super().__init__(module.cd)
        self.module = module
        self.one = self._ring_one = module.scalar_one
        self.zero = module.scalar_zero

    def _factor(self, i, tail, p=None):
        return self.module.cartan_scalar(i, tail)

    def _solve(self, m) -> None:
        red, pivots = rref(self._gram(m)[1].tolist())
        words = enumerate_words(m)
        self._set_reduction(m, words, pivots, _free_basis(
            red, pivots, len(words), self.one), truediv)


def _build(M: WeightModule, form) -> WeightModule:
    """Fill an empty module from the quotient bases and reduction of `form`."""
    n = M.cd.n
    offsets = degrees_upto(n, M.depth, include_zero=True)
    spaces = M.spaces
    for m in offsets:
        spaces[m] = form.quotient_basis(m)
    one = M.scalar_one
    coeff_memo = {}
    for m in offsets:
        basis = spaces[m]
        for i in range(n):
            up = tuple(a + b for a, b in zip(m, unit_degree(n, i)))
            if up in spaces:
                cols = [form.reduce(up, [((i,) + w, one)]) for w in basis]
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
                    cols.append(form.reduce(down, combo))
                M.e_action[(i, m)] = _transpose(cols, len(spaces[down]),
                                                M.scalar_zero)
    M.occupied = tuple((m, M.dim(m)) for m in M.offsets() if M.dim(m))
    return M


def _quantum(hw, depth: int, cd: CartanDatum, pairing) -> WeightModule:
    """An empty quantum module on the v-grid of `pairing`, by default hw's."""
    if pairing is not None and pairing.cd != cd:
        raise ValueError("pairing is for another Cartan datum")
    hw = highest_weight(hw, cd)
    pairing = pairing or DrinfeldPairing(cd, D=session_denominator(cd, [hw]))
    return WeightModule(hw, depth, pairing)


def verma(hw, depth: int, cd: CartanDatum,
          pairing: DrinfeldPairing | None = None) -> WeightModule:
    """The quantum Verma module at formal q, truncated at `depth`."""
    M = _quantum(hw, depth, cd, pairing)
    return _build(M, M.engine)


def irreducible(hw, depth: int, cd: CartanDatum,
                pairing: DrinfeldPairing | None = None) -> WeightModule:
    """The irreducible quotient L(hw), from the contravariant form at hw."""
    M = _quantum(hw, depth, cd, pairing)
    return _build(M, HighestWeightForm(M))


def classical_module(hw, kind: str, depth: int, cd: CartanDatum) -> WeightModule:
    """Classical Verma or irreducible module with exact rational actions."""
    if kind not in ("verma", "irreducible"):
        raise ValueError("kind must be 'verma' or 'irreducible'")
    M = WeightModule(highest_weight(hw, cd), depth, ShapovalovForm(cd))
    return _build(M, M.engine if kind == "verma" else HighestWeightForm(M))


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


def _transpose(cols, nrows, zero):
    return [[col[r] if r < len(col) else zero for col in cols]
            for r in range(nrows)]


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
