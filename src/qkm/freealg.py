"""The graded free associative algebra on generators E_1..E_n.

Words are tuples of 0-based letter indices; a multidegree is the tuple of
letter counts.  Elements are homogeneous linear combinations of words of a
common multidegree with exact scalar coefficients.

Weight modules are graded by the same multidegrees (offsets below the
highest weight), so the bases of total-weight blocks of their tensor
products and the one two-site operator type (`PairOperator`: the R-matrix,
sigma R and the Casimir tensor, lifted onto those blocks) live here too,
with `add_pair_image`, which adds one (x v_a) (x) (y w_b) term of R or the
Casimir tensor from the modules' word images.  A lifted block is a list of
sparse rows {column: nonzero value}.  Each block basis of a tensor product
is built once and kept with the product's other blocks, keyed by the
factors' characters, so modules with equal characters (the quantum and
classical sides of a comparison) share them; the blocks of the last four
tensor products are kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial


class ResourceLimitError(RuntimeError):
    """A request exceeded the configured degree or size cap."""


class TruncationError(RuntimeError):
    """A graded component beyond the computed truncation was requested."""


MAX_COMPONENT_DIM = 20000


def total_degree(m) -> int:
    return sum(m)


def multinomial(m) -> int:
    out = factorial(sum(m))
    for k in m:
        out //= factorial(k)
    return out


def unit_degree(n: int, i: int) -> tuple[int, ...]:
    return tuple(int(k == i) for k in range(n))


def add_degrees(a, b) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip(a, b))


def word_degree(word, n: int) -> tuple[int, ...]:
    m = [0] * n
    for letter in word:
        m[letter] += 1
    return tuple(m)


def check_degree_budget(n: int, max_total: int) -> None:
    """Fail fast when a full sweep up to max_total would enumerate more
    words than the component cap allows."""
    total = sum(n ** k for k in range(1, max_total + 1))
    if total > MAX_COMPONENT_DIM:
        raise ResourceLimitError(
            f"sweep up to total degree {max_total} on {n} generators needs "
            f"{total} words (cap {MAX_COMPONENT_DIM})")


@lru_cache(maxsize=None)
def enumerate_words(m: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """All words with letter counts m, in lexicographic order."""
    if multinomial(m) > MAX_COMPONENT_DIM:
        raise ResourceLimitError(
            f"component of multidegree {m} has {multinomial(m)} words "
            f"(cap {MAX_COMPONENT_DIM})")
    n = len(m)
    if total_degree(m) == 0:
        return ((),)
    out = []
    for i in range(n):
        if m[i]:
            rest = list(m)
            rest[i] -= 1
            for w in enumerate_words(tuple(rest)):
                out.append((i,) + w)
    return tuple(out)


def word_string(word) -> str:
    """Serialized form: 1-based letter indices, e.g. '112' for E1 E1 E2."""
    return "".join(str(i + 1) for i in word)


@dataclass(frozen=True)
class FreeElement:
    """A combination of words; coefficients are exact scalars.

    Pairing and kernel machinery only ever sees homogeneous elements
    (degree is the common multidegree); sums across degrees carry None.
    """

    degree: tuple[int, ...] | None
    terms: tuple  # sorted tuple of (word, coeff) pairs, no zero coeffs

    @staticmethod
    def from_dict(degree, d) -> "FreeElement":
        items = tuple(sorted((w, c) for w, c in d.items() if not _is_zero(c)))
        return FreeElement(tuple(degree) if degree is not None else None, items)

    @staticmethod
    def from_word(word, n: int, coeff) -> "FreeElement":
        return FreeElement.from_dict(word_degree(word, n), {tuple(word): coeff})

    def as_dict(self) -> dict:
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, word):
        for w, c in self.terms:
            if w == tuple(word):
                return c
        return None

    def scaled(self, s) -> "FreeElement":
        return FreeElement.from_dict(self.degree,
                                     {w: c * s for w, c in self.terms})

    def __add__(self, other: "FreeElement") -> "FreeElement":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        degree = self.degree if self.degree == other.degree else None
        d = self.as_dict()
        for w, c in other.terms:
            d[w] = d.get(w, 0) + c
        return FreeElement.from_dict(degree, d)

    def __sub__(self, other: "FreeElement") -> "FreeElement":
        return self + other.scaled(-1)

    def __str__(self):
        if not self.terms:
            return "0"
        return "; ".join(f"{word_string(w)}:{c}" for w, c in self.terms)


def _is_zero(c) -> bool:
    if hasattr(c, "is_zero"):
        return c.is_zero()
    return c == 0


def free_mul(x: FreeElement, y: FreeElement) -> FreeElement:
    """Concatenation product; degrees add, coefficients multiply."""
    if x.degree is not None and y.degree is not None:
        degree = add_degrees(x.degree, y.degree)
    else:
        degree = None
    d = {}
    for wx, cx in x.terms:
        for wy, cy in y.terms:
            w = wx + wy
            c = cx * cy
            d[w] = d.get(w, 0) + c
    return FreeElement.from_dict(degree, d)


def tensor_block_basis(factors, total):
    """Basis of the total-weight block of factors[0] (x) ... (x) factors[-1].

    Each factor is a weight module (offsets(), dim(offset)).  The basis
    tuples ((m_1, a_1), ..., (m_k, a_k)) have offsets summing to `total` and
    are ordered lexicographically, site by site, along each factor's
    offsets().  Every call on factors of the same characters reads the
    same `_TensorBlocks`, so the quantum and classical sides of one
    comparison build each block once between them.
    """
    characters = tuple(tuple((m, f.dim(m)) for m in f.offsets() if f.dim(m))
                       for f in factors)
    return list(_tensor_blocks(characters).block(0, tuple(total)))


class _TensorBlocks:
    """The blocks of one tensor product, given the factors' characters
    ((offset, dim) pairs in offsets() order), each built once when first
    asked for.  The block of sites j, j+1, ... at total t is, in order over
    site j's (m, a), (m, a) prepended to each tuple of the block of sites
    j+1, ... at t - m: lexicographic, since that block is."""

    def __init__(self, characters):
        self.characters = characters
        self._blocks: dict = {}      # (site, total) -> basis tuples

    def block(self, site: int, total):
        key = (site, total)
        out = self._blocks.get(key)
        if out is not None:
            return out
        if site == len(self.characters) - 1:
            dim = dict(self.characters[site]).get(total, 0)
            out = [((total, a),) for a in range(dim)]
        else:
            out = []
            for m, dim in self.characters[site]:
                rest = tuple(r - x for r, x in zip(total, m))
                if min(rest) >= 0:
                    tail = self.block(site + 1, rest)
                    out.extend(((m, a),) + t for a in range(dim) for t in tail)
        self._blocks[key] = out
        return out


@lru_cache(maxsize=4)
def _tensor_blocks(characters) -> _TensorBlocks:
    return _TensorBlocks(characters)


def add_pair_image(out: dict, V, W, key, x, y, raising: bool) -> None:
    """Add (x v_a) (x) (y w_b), for key = (m_V, a, m_W, b), into a dict of
    ((t, r, t', s), value) terms.  x and y are combinations of words (see
    `WeightModule.image`): x acts on V by E-words when `raising` and by
    F-words otherwise, y on W by the other kind.  The raising side's image
    is taken first, and the other is not computed when it is zero."""
    mV, a, mW, b = key
    if raising:
        imgV = V.image(x, mV, a, True)
        imgW = imgV and W.image(y, mW, b, False)
    else:
        imgW = W.image(y, mW, b, True)
        imgV = imgW and V.image(x, mV, a, False)
    if not (imgV and imgW):
        return
    (tV, vecV), (tW, vecW) = imgV, imgW
    for r, cv in enumerate(vecV):
        if not cv:
            continue
        for s, cw in enumerate(vecW):
            if cw:
                k = (tV, r, tW, s)
                out[k] = out[k] + cv * cw if k in out else cv * cw


class PairOperator:
    """A two-site operator on V (x) W: terms(m_V, a, m_W, b) is the image
    of v_a (x) w_b as ((t, r, t', s), value) terms (v_r at offset t, w_s at
    t'), in the modules' own scalars, computed once per pair.  R, sigma R
    and the Casimir tensor share this memo and lift onto tensor blocks."""

    def __init__(self, V, W, terms):
        self.V = V
        self.W = W
        self.terms = terms
        self._memo: dict = {}

    def pair_terms(self, mV, a, mW, b):
        key = (mV, a, mW, b)
        out = self._memo.get(key)
        if out is None:
            out = self._memo[key] = self.terms(*key)
        return out

    def lift(self, basis, i: int, j: int, flip: bool = False):
        """Sparse rows {column: value} on a tensor block basis of the
        operator on sites (i, j); with `flip` the two sites are exchanged
        afterwards (sigma after R in a braid generator)."""
        index = {key: r for r, key in enumerate(basis)}
        rows = [{} for _ in basis]
        for c, key in enumerate(basis):
            for (t, r, t2, s), val in self.pair_terms(*key[i], *key[j]):
                new = list(key)
                new[i], new[j] = ((t2, s), (t, r)) if flip else ((t, r), (t2, s))
                row = index.get(tuple(new))
                if row is None:
                    raise AssertionError(f"two-site image left the block: {new}")
                # distinct terms land on distinct rows of a column
                rows[row][c] = val
        return rows

    def block(self, total):
        """(basis, sparse rows) on the total-weight block of V (x) W; basis
        entries are (offset_V, index_V, offset_W, index_W)."""
        pairs = tensor_block_basis((self.V, self.W), total)
        return ([(mV, a, mW, b) for (mV, a), (mW, b) in pairs],
                self.lift(pairs, 0, 1))
