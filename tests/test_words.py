import itertools

import pytest
from hypothesis import given, settings, strategies as st

from fockhopf.predual import point_functional
from fockhopf.spaces import FockSpace
from fockhopf.wandering import strip_common_prefix
from fockhopf.words import (
    Alphabet,
    Word,
    count_words,
    enumerate_words,
    word,
)


def words_strategy(n=3, max_len=6):
    return st.lists(st.integers(1, n), max_size=max_len).map(lambda ls: Word(tuple(ls)))


def test_concat_examples():
    assert word(1, 2).concat(word(2, 1)) == word(1, 2, 2, 1)
    assert Word().concat(word(1, 2)) == word(1, 2)
    assert word(1, 2).concat(Word()) == word(1, 2)
    assert word(1).concat(word(1, 1)) == word(1, 1, 1)


def test_lengths_add():
    u, v = word(1, 2, 1), word(2,)
    assert len(u.concat(v)) == len(u) + len(v)
    assert len(Word()) == 0


def test_letters_validated():
    with pytest.raises(ValueError):
        Word((0, 1))
    with pytest.raises(ValueError):
        Word((-2,))


@given(words_strategy(), words_strategy(), words_strategy())
@settings(max_examples=60)
def test_concat_associative(u, v, w):
    assert u.concat(v).concat(w) == u.concat(v.concat(w))


def test_reverse_examples():
    assert word(1, 1, 2).reverse() == word(2, 1, 1)
    assert Word().reverse() == Word()
    assert word(1, 2).reverse() == word(2, 1)


@given(words_strategy(), words_strategy())
@settings(max_examples=60)
def test_reverse_antihomomorphism(u, v):
    assert u.concat(v).reverse() == v.reverse().concat(u.reverse())
    assert u.reverse().reverse() == u


def is_prefix(p, w):
    return w.letters[: len(p)] == p.letters


def brute_force_common_prefix(ws):
    # Oracle: test every prefix of the shortest word, longest first.
    shortest = min(ws, key=len)
    for k in range(len(shortest), -1, -1):
        candidate = Word(shortest.letters[:k])
        if all(is_prefix(candidate, w) for w in ws):
            return candidate
    raise AssertionError("empty prefix always qualifies")


# The maximal common prefix is taken on basis indices by wandering.strip_common_prefix.
H6 = FockSpace(Alphabet(3), 6)


def max_common_prefix(ws):
    prefix, rest = strip_common_prefix(H6, [H6.index_of(w) for w in ws])
    return H6.word_at(prefix), [H6.word_at(i) for i in rest]


def test_max_common_prefix_examples():
    assert max_common_prefix([word(1, 1), word(1, 2)]) == (word(1), [word(1), word(2)])
    assert max_common_prefix([word(1, 1), Word()]) == (Word(), [word(1, 1), Word()])
    assert max_common_prefix([word(1, 2, 1)]) == (word(1, 2, 1), [Word()])
    assert max_common_prefix([word(3, 3, 1), word(3, 3, 2, 1)])[0] == word(3, 3)
    with pytest.raises(ValueError):
        max_common_prefix([])


@given(st.lists(words_strategy(), min_size=1, max_size=5))
@settings(max_examples=80)
def test_max_common_prefix_matches_oracle(ws):
    got, rest = max_common_prefix(ws)
    assert got == brute_force_common_prefix(ws)
    assert [got.concat(r) for r in rest] == ws


@given(st.lists(words_strategy(), min_size=1, max_size=5))
@settings(max_examples=60)
def test_max_common_prefix_maximal(ws):
    prefix, _ = max_common_prefix(ws)
    for letter in (1, 2, 3):
        longer = prefix.concat(word(letter))
        assert not all(is_prefix(longer, w) for w in ws)


def test_enumerate_order_and_counts():
    a2 = Alphabet(2)
    got = enumerate_words(a2, 1)
    assert got == [Word(), word(1), word(2)]
    # Geometric-sum oracle for the count at depth 3.
    assert len(enumerate_words(a2, 3)) == 1 + 2 + 4 + 8 == count_words(a2, 3)
    assert count_words(Alphabet(1), 5) == 6
    # Index oracle: exactly the three shorter-or-smaller words precede (1,1).
    depth2 = enumerate_words(a2, 2)
    assert depth2.index(word(1, 1)) == 3


def test_enumerate_is_length_lex():
    a3 = Alphabet(3)
    ws = enumerate_words(a3, 3)
    keys = [(len(w), w.letters) for w in ws]
    assert keys == sorted(keys)
    assert len(set(ws)) == len(ws)


def test_enumerate_matches_product_oracle():
    a2 = Alphabet(2)
    expected = []
    for k in range(4):
        expected.extend(Word(t) for t in itertools.product((1, 2), repeat=k))
    assert enumerate_words(a2, 3) == expected


def test_eval_examples():
    phi = point_functional(FockSpace(Alphabet(2), 2), (0.5, 0.25)).functional
    assert phi.value(Word()) == 1
    assert phi.value(word(1, 2)) == pytest.approx(0.125)
    assert phi.value(word(1, 1)) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        phi.value(word(3))


@given(words_strategy(n=2, max_len=4), words_strategy(n=2, max_len=4))
@settings(max_examples=40)
def test_eval_multiplicative_and_reversal_blind(u, v):
    phi = point_functional(FockSpace(Alphabet(2), 8), (0.5, 0.25j)).functional
    assert phi.value(u.concat(v)) == pytest.approx(phi.value(u) * phi.value(v))
    assert phi.value(u.reverse()) == pytest.approx(phi.value(u))


def test_text_rendering():
    assert Word().text(2) == "e"
    assert word(1, 2, 1).text(2) == "121"
    assert word(1, 12, 3).text(12) == "1.12.3"


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet(0)
    assert list(Alphabet(3).letters) == [1, 2, 3]
