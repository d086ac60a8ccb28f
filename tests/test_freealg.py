import random
from fractions import Fraction
from itertools import product

import pytest

from qkm.cartan import Weight, build_realization
from qkm.freealg import (
    PairOperator,
    ResourceLimitError,
    combination,
    enumerate_words,
    multinomial,
    tensor_block_basis,
    word_degree,
    word_string,
)
from qkm.classical import CasimirEngine, ShapovalovForm
from qkm.qmodules import classical_module
from qkm.qpairing import DrinfeldPairing
from qkm.rmatrix import dual_bases
from qkm.scalars import QScalar


def test_enumerate_basic():
    assert enumerate_words((1, 0)) == ((0,),)
    words = enumerate_words((2, 1))
    assert [word_string(w) for w in words] == ["112", "121", "211"]
    assert len(enumerate_words((2, 2))) == 6 == multinomial((2, 2))
    assert enumerate_words((0, 0)) == ((),)


def test_enumerate_counts_match_multinomial():
    for m in [(3, 2), (1, 1, 1), (4, 0), (2, 3, 1)]:
        assert len(enumerate_words(m)) == multinomial(m)
        # lexicographic order
        ws = enumerate_words(m)
        assert list(ws) == sorted(ws)


def test_resource_cap():
    with pytest.raises(ResourceLimitError):
        enumerate_words((9, 9))


def test_word_weight():
    cd = build_realization([[2, -1], [-1, 2]])
    assert word_degree((0, 1, 0), cd.n) == (2, 1)
    assert word_degree((), cd.n) == (0, 0)
    rng = random.Random(3)
    letters = [rng.randrange(2) for _ in range(6)]
    shuffled = letters[:]
    rng.shuffle(shuffled)
    assert word_degree(tuple(letters), cd.n) == word_degree(tuple(shuffled), cd.n)


def free_mul(x, y):
    """Concatenation product of two combinations of words; coefficients
    multiply."""
    d = {}
    for wx, cx in x:
        for wy, cy in y:
            w = wx + wy
            d[w] = d.get(w, 0) + cx * cy
    return combination(d)


def test_free_mul_examples():
    e1 = combination({(0,): Fraction(1)})
    e2 = combination({(1,): Fraction(1)})
    prod = free_mul(e1, e2)
    assert prod == (((0, 1), Fraction(1)),)
    s = free_mul(combination({(0,): Fraction(1), (1,): Fraction(1)}), e1)
    assert dict(s) == {(0, 0): Fraction(1), (1, 0): Fraction(1)}


def random_element(rng, n=2, deg=(1, 1)):
    words = enumerate_words(deg)
    return combination(
        {w: Fraction(rng.randrange(-3, 4)) for w in rng.sample(list(words), k=min(2, len(words)))})


def test_free_mul_associative_and_graded():
    rng = random.Random(11)
    for _ in range(25):
        x = random_element(rng, deg=(1, 1))
        y = random_element(rng, deg=(0, 1))
        z = random_element(rng, deg=(2, 0))
        assert free_mul(free_mul(x, y), z) == free_mul(x, free_mul(y, z))
        assert all(word_degree(w, 2) == (1, 2) for w, _ in free_mul(x, y))


def test_combination_drops_zeros_and_sorts_by_word():
    # each kind of coefficient the engines hold: int, rational, Q(v)
    for zero, one in ((0, 1), (Fraction(0), Fraction(1)),
                      (QScalar.zero(), QScalar.one())):
        d = {(1, 0): one, (0, 1): zero, (0, 0): one + one}
        assert combination(d) == (((0, 0), one + one), ((1, 0), one))
        assert combination({(0,): zero, (1,): zero}) == ()
        # the same items in another insertion order: an equal tuple
        assert combination(dict(reversed(d.items()))) == combination(d)
    assert combination({}) == ()


def test_every_producer_returns_the_one_form():
    # kernel vectors, Serre elements, dual bases of the pairing and the
    # Casimir's root spaces and dual pairs are all combination(dict(c))
    combos = []
    for cd, m in ((build_realization([[2, -1], [-1, 2]]), (2, 1)),
                  (build_realization([[2, -2], [-2, 2]]), (3, 1))):
        bp = DrinfeldPairing(cd)
        combos += bp.kernel_block(m).vectors
        combos.append(bp.quantum_serre_element(0, 1))
        combos += dual_bases(m, bp).v_basis
        eng = CasimirEngine(ShapovalovForm(cd))
        combos += eng.root_basis((1, 1))
        combos += [c for pair in eng.dual_root_pairs((1, 1)) for c in pair]
    # sl3: 1 kernel vector, the Serre element, 2 dual elements, 1 root
    # vector and its pair; affine: the same with 3 dual elements
    assert len(combos) == 15
    for c in combos:
        assert type(c) is tuple and c and c == combination(dict(c)), c


def test_serialization():
    # the `relations` report writes a kernel vector as word:coefficient
    # pairs, sorted by word
    el = combination({(0, 1, 0): Fraction(-2), (0, 0, 1): Fraction(1)})
    assert "; ".join(f"{word_string(w)}:{c}" for w, c in el) == "112:1; 121:-2"
    assert word_degree((0, 0, 1), 2) == (2, 1)


def _brute_force_basis(factors, total):
    """The block basis by the definition: every choice of one (offset,
    index) per factor, in each factor's offsets() order site by site,
    whose offsets sum to total."""
    sites = [[(m, a) for m in f.offsets() for a in range(f.dim(m))]
             for f in factors]
    return [tup for tup in product(*sites)
            if tuple(map(sum, zip(*(m for m, _ in tup)))) == tuple(total)]


def test_block_bases_equal_brute_force_enumeration():
    sl3 = build_realization([[2, -1], [-1, 2]])
    lam = Weight.highest((Fraction(1), Fraction(1)), 2)
    irr = classical_module(lam, "irreducible", 3, sl3)
    verma = classical_module(lam, "verma", 2, sl3)
    for V in (irr, verma):
        for k in range(1, 5):
            factors = (V,) * k
            totals = {tuple(map(sum, zip(*(m for m, _ in tup))))
                      for tup in product(*[[(m, 0) for m in V.offsets()]] * k)}
            for total in sorted(totals):
                assert (tensor_block_basis(factors, total)
                        == _brute_force_basis(factors, total)), (k, total)
            # a total no block reaches, and one below the cone
            assert tensor_block_basis(factors, (3 * k + 1, 0)) == []
            assert tensor_block_basis(factors, (-1, 0)) == []
    # two different factors, through the block of a two-site operator
    pair = PairOperator(irr, verma,
                        lambda mV, a, mW, b: [((mV, a, mW, b), 1)])
    seen = 0
    for total in product(range(6), repeat=2):
        basis, rows = pair.block(total)
        expected = _brute_force_basis((irr, verma), total)
        assert basis == [(mV, a, mW, b) for (mV, a), (mW, b) in expected]
        assert rows == [{r: 1} for r in range(len(basis))]
        seen += len(basis)
    assert seen == (sum(irr.dim(m) for m in irr.offsets())
                    * sum(verma.dim(m) for m in verma.offsets()))
