import random
from fractions import Fraction

import pytest

from qkm.cartan import build_realization
from qkm.freealg import (
    FreeElement,
    ResourceLimitError,
    enumerate_words,
    free_mul,
    multinomial,
    word_degree,
    word_string,
)


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


def test_free_mul_examples():
    e1 = FreeElement.from_word((0,), 2, Fraction(1))
    e2 = FreeElement.from_word((1,), 2, Fraction(1))
    prod = free_mul(e1, e2)
    assert prod.terms == (((0, 1), Fraction(1)),)
    s = free_mul(e1 + e2, e1)
    assert s.as_dict() == {(0, 0): Fraction(1), (1, 0): Fraction(1)}


def random_element(rng, n=2, deg=(1, 1)):
    words = enumerate_words(deg)
    return FreeElement.from_dict(
        deg, {w: Fraction(rng.randrange(-3, 4)) for w in rng.sample(list(words), k=min(2, len(words)))})


def test_free_mul_associative_and_graded():
    rng = random.Random(11)
    for _ in range(25):
        x = random_element(rng, deg=(1, 1))
        y = random_element(rng, deg=(0, 1))
        z = random_element(rng, deg=(2, 0))
        assert free_mul(free_mul(x, y), z) == free_mul(x, free_mul(y, z))
        assert free_mul(x, y).degree == (1, 2)


def test_serialization():
    el = FreeElement.from_dict((2, 1), {(0, 0, 1): Fraction(1), (0, 1, 0): Fraction(-2)})
    assert str(el) == "112:1; 121:-2"
    assert word_degree((0, 0, 1), 2) == (2, 1)
