"""The graded free associative algebra on generators E_1..E_n.

Words are tuples of 0-based letter indices; a multidegree is the tuple of
letter counts.  A combination of words of one multidegree (a kernel vector,
a quantum Serre element, an element of a dual basis or of a root space) has
one form in every layer: the tuple of its (word, coefficient) pairs with a
nonzero exact coefficient, sorted by word (`combination`), so equal
combinations are equal tuples and key one memo entry.

Weight modules are graded by the same multidegrees (offsets below the
highest weight), so the bases of total-weight blocks of their tensor
products and the one two-site operator type (`PairOperator`: the R-matrix,
sigma R and the Casimir tensor, lifted onto those blocks) live here too,
with `add_pair_image`, which adds one (x v_a) (x) (y w_b) term of R or the
Casimir tensor from the modules' images of the combinations x and y.  A
lifted block is a list of sparse rows {column: nonzero value}.  Each block
basis of a tensor product is built once and kept with the product's other
blocks, keyed by the factors' characters (`WeightModule.occupied`, taken
once per module), so modules with equal characters (the quantum and
classical sides of a comparison) share them; the blocks of the last four
tensor products are kept.
"""

from __future__ import annotations

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


def combination(d) -> tuple:
    """The one form of a combination of words: the (word, coefficient)
    pairs of a {word: coefficient} dict whose coefficient is nonzero,
    sorted by word, so equal combinations are equal tuples."""
    return tuple(sorted((w, c) for w, c in d.items() if c))


def tensor_block_basis(factors, total):
    """Basis of the total-weight block of factors[0] (x) ... (x) factors[-1].

    Each factor is a weight module, read through its character
    `occupied`, the (offset, dim) pairs of its nonzero weight spaces in
    offsets() order.  The basis tuples ((m_1, a_1), ..., (m_k, a_k)) have
    offsets summing to `total` and are ordered lexicographically, site by
    site, along each factor's offsets().  Every call on factors of the same
    characters reads the same `_TensorBlocks`, so the quantum and classical
    sides of one comparison build each block once between them.
    """
    characters = tuple(f.occupied for f in factors)
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
    ((t, r, t', s), value) terms.  x and y are combinations of words of one
    degree each, in the form of `combination`, as the dual bases and root
    spaces hold them: x acts on V by E-words when `raising` and by F-words
    otherwise, y on W by the other kind (`WeightModule.image`).  The
    raising side's image is taken first, and the other is not computed
    when it is zero."""
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
