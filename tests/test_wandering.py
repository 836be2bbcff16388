import itertools

import numpy as np
import pytest

from fockhopf import graded, verify, wandering
from fockhopf.regular import word_shift
from fockhopf.sampling import rng_for
from fockhopf.spaces import FockSpace, basis_vector, tensor_op, tensor_space
from fockhopf.wandering import (
    _gram_defect,
    _wandering_mask,
    first_letters,
    isometry_on_wandering_defect,
    share_a_first_letter,
    strip_common_prefix,
    wandering_check,
    wandering_dim,
    wandering_dim_closed_form,
)
from fockhopf.words import Alphabet, Word, count_words, enumerate_words, word

A2 = Alphabet(2)
# The tensor points of ``verify --full``, where the decompose check runs.
TENSOR_GRID = [(n, depth) for n in (1, 2, 3) for depth in (2, 3, 4)]


def literal_strip_common_prefix(tup):
    # The Word-level decomposition: the longest prefix of every component, letter by letter.
    prefix = []
    for column in zip(*(w.letters for w in tup)):
        if len(set(column)) > 1:
            break
        prefix.append(column[0])
    return Word(tuple(prefix)), tuple(Word(w.letters[len(prefix) :]) for w in tup)


def is_wandering_literal(tup):
    return literal_strip_common_prefix(tup)[0] == Word()


def wandering_tuples(alphabet, k, depth):
    # The wandering basis, materialized tuple by tuple (the literal route of wandering_dim).
    words = enumerate_words(alphabet, depth)
    return [tup for tup in itertools.product(words, repeat=k) if is_wandering_literal(tup)]


def strip_words(space, tup):
    prefix, kappa = strip_common_prefix(space, [space.index_of(w) for w in tup])
    return space.word_at(prefix), tuple(space.word_at(i) for i in kappa)


def test_strip_common_prefix_examples():
    space = FockSpace(A2, 3)
    assert strip_words(space, (word(1, 1), word(1, 2))) == (word(1), (word(1), word(2)))
    assert strip_words(space, (word(1), word(2))) == (Word(), (word(1), word(2)))
    assert strip_words(space, (word(1, 2, 1), word(1, 2, 1))) == (word(1, 2, 1), (Word(), Word()))
    assert strip_words(space, (word(2, 1, 1), word(2, 1), word(2, 1, 2))) == (
        word(2, 1), (word(1), Word(), word(2))
    )


def test_membership_characterization():
    # In the wandering span iff some component is empty or two first letters differ.
    space = FockSpace(A2, 2)

    def wandering_by_letters(tup):
        return not share_a_first_letter(first_letters(space, [space.index_of(w) for w in tup]))

    assert wandering_by_letters((Word(), word(1, 1)))
    assert wandering_by_letters((word(1), word(2, 1)))
    assert not wandering_by_letters((word(1), word(1, 2)))
    firsts = first_letters(space, np.arange(space.dim))
    assert firsts.tolist() == [w.letters[0] if w.letters else 0 for w in space.words]
    for tup in itertools.product(space.words, repeat=2):
        assert wandering_by_letters(tup) == is_wandering_literal(tup)
        assert wandering_by_letters(tup) == (strip_words(space, tup)[0] == Word())


def test_decompose_reconstruction_unique():
    for n, depth, k in [(1, 3, 2), (2, 3, 2), (3, 2, 2), (2, 2, 3)]:
        space = FockSpace(Alphabet(n), depth)
        seen = {}
        for tup in itertools.product(range(space.dim), repeat=k):
            prefix, kappa = strip_common_prefix(space, tup)
            assert not share_a_first_letter(first_letters(space, kappa))
            words = tuple(space.word_at(i) for i in tup)
            want = literal_strip_common_prefix(words)
            assert (space.word_at(prefix), tuple(space.word_at(i) for i in kappa)) == want
            assert tuple(want[0].concat(x) for x in want[1]) == words
            seen[prefix, tuple(kappa)] = tup
        assert len(seen) == space.dim**k  # no two tuples share a decomposition


def test_dim_examples():
    assert wandering_dim(A2, 2, 3) == 127
    assert wandering_dim_closed_form(A2, 2, 3) == 15**2 - 2 * 7**2 == 127
    assert wandering_dim(A2, 2, 1) == 9 - 2 * 1 == 7
    assert wandering_dim(A2, 1, 3) == 1  # degenerate fold: only the unit tuple


def test_dim_enumeration_matches_closed_form_grid():
    for n in (1, 2, 3):
        alphabet = Alphabet(n)
        for k in (1, 2, 3):
            for depth in (0, 1, 2, 3, 4):
                assert wandering_dim(alphabet, k, depth) == wandering_dim_closed_form(
                    alphabet, k, depth
                )


def test_dim_against_literal_enumeration():
    # Materialized tuples as an independent oracle at small sizes.
    for n, k, depth in [(2, 2, 2), (2, 3, 1), (3, 2, 1)]:
        alphabet = Alphabet(n)
        assert wandering_dim(alphabet, k, depth) == len(wandering_tuples(alphabet, k, depth))


def test_wandering_tuples_membership():
    tuples = wandering_tuples(A2, 2, 2)
    space = FockSpace(A2, 2)
    mask = _wandering_mask(A2, 2, 2)
    assert all(mask[tuple(space.index_of(u) for u in t)] for t in tuples)
    assert len(tuples) == np.count_nonzero(mask)
    assert (word(1), word(2)) in tuples
    assert (word(1), word(1)) not in tuples


def test_orthogonality_by_sparse_inner_products():
    # Direct Gram computation between shifted wandering columns.
    space = FockSpace(A2, 2)
    pair = tensor_space(space, space)
    kset = wandering_tuples(A2, 2, 2)
    vecs = {}
    for w in space.words:
        if len(w) > space.depth:
            continue
        shift = tensor_op(word_shift(space, w), word_shift(space, w))
        at = [space.index_of(u) * space.dim + space.index_of(v) for u, v in kset]
        vecs[w] = [shift.apply(basis_vector(pair, i)) for i in at]
    for u in space.words:
        for v in space.words:
            if u == v:
                continue
            for x in vecs[u]:
                for y in vecs[v]:
                    assert np.vdot(y.data, x.data) == 0.0


def test_shifted_copies_are_isometric():
    for w in [word(1), word(2), word(1, 2)]:
        assert isometry_on_wandering_defect(A2, 2, 3, w) == 0.0


def test_wandering_check_report():
    report = wandering_check(A2, 2, 3)
    assert report.passed
    assert report.dim == 127
    assert report.cover_injective and report.cover_complete
    assert report.counting_identity
    assert report.orthogonality_defect == 0.0
    assert report.gram_checked  # 225 tuples is inside the gram limit
    assert report.dims_by_depth == [7, 31, 127]
    assert report.growth_strict


def test_wandering_check_gram_limit(monkeypatch):
    monkeypatch.setattr(wandering, "GRAM_LIMIT", 10)
    big = wandering_check(A2, 2, 3)
    assert not big.gram_checked
    assert big.passed


def literal_gram_defect(alphabet, k, depth, mask):
    # One sparse cross-Gram product per pair of distinct shift words.
    space = FockSpace(alphabet, depth)
    cols = np.flatnonzero(mask.ravel())
    shifted = {
        w: tensor_op(*([word_shift(space, w, "left")] * k)).matrix.tocsc()[:, cols]
        for w in space.words
    }
    words = list(space.words)
    worst = 0.0
    for i, u in enumerate(words):
        for v in words[i + 1 :]:
            cross = (shifted[u].conjugate().transpose() @ shifted[v]).tocoo()
            if cross.nnz:
                worst = max(worst, float(np.abs(cross.data).max()))
    return worst


@pytest.mark.parametrize(
    "n,k,depth", [(1, 2, 3), (2, 1, 3), (2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2)]
)
def test_gram_defect_matches_pairwise_products(n, k, depth):
    alphabet = Alphabet(n)
    mask = _wandering_mask(alphabet, k, depth)
    assert _gram_defect(alphabet, k, depth, mask) == literal_gram_defect(alphabet, k, depth, mask)
    assert _gram_defect(alphabet, k, depth, mask) == 0.0
    # (1, 1, ...) has the common prefix 1, so the copy of the vacuum tuple
    # shifted by 1 meets it: both routes must see the overlap.
    t = count_words(alphabet, depth)
    broken = mask.copy()
    broken[(1,) * k] = True
    assert not mask[(1,) * k] and broken.ravel()[np.ravel_multi_index((1,) * k, (t,) * k)]
    defect = _gram_defect(alphabet, k, depth, broken)
    assert defect == literal_gram_defect(alphabet, k, depth, broken) == 1.0


def test_wandering_check_k3():
    report = wandering_check(Alphabet(3), 3, 2)
    assert report.passed
    assert report.dim == 13**3 - 3 * 4**3


def test_degenerate_fold_documented():
    report = wandering_check(A2, 1, 3)
    assert report.dim == 1
    assert not report.growth_strict  # constant in depth for a single factor
    assert report.passed  # growth is only demanded for k >= 2


def test_growth_in_depth():
    dims = [wandering_dim(A2, 2, d) for d in (1, 2, 3, 4)]
    assert dims == sorted(dims) and len(set(dims)) == len(dims)


def test_report_json_shape():
    blob = wandering_check(A2, 2, 2).to_json_dict()
    assert blob["dim"] == blob["dim_closed_form"] == 31
    assert blob["passed"] is True
    assert blob["n"] == 2 and blob["k"] == 2 and blob["depth"] == 2


# ---------------------------------------------------------------------------
# verify's decompose check, on basis indices


def _decompose(n, depth, seed=7):
    cfg = verify.SuiteConfig(n=n, depth=depth, seed=seed)
    rng = rng_for(seed, "wandering", "decompose_roundtrip", n, depth)
    return verify._chk_wandering_decompose(cfg, rng), rng


@pytest.mark.parametrize("n,depth", TENSOR_GRID)
def test_decompose_check_builds_no_word(monkeypatch, n, depth):
    def refuse(self):
        raise AssertionError("the decompose check built a Word")

    monkeypatch.setattr(Word, "__post_init__", refuse)
    assert _decompose(n, depth)[0] == (0.0, 0.0)


@pytest.mark.parametrize("n,depth", TENSOR_GRID)
def test_decompose_check_draws_k_then_each_word(n, depth):
    # Per trial: k, then per word a length and a letters array of that size, even when empty.
    _, rng = _decompose(n, depth)
    replay = rng_for(7, "wandering", "decompose_roundtrip", n, depth)
    for _ in range(50):
        for _ in range(int(replay.integers(2, 4))):
            replay.integers(1, n + 1, size=int(replay.integers(0, depth + 1)))
    assert rng.bit_generator.state == replay.bit_generator.state


def _one_letter_short(space, tup):
    # The maximal common prefix less its last letter, which moves onto every component.
    prefix, kappa = strip_common_prefix(space, tup)
    p, rank = graded.length_rank(space, np.array([prefix]))
    if p[0] == 0:
        return prefix, kappa
    shorter = int(graded.concat(space, p - 1, rank // space.n, 0, 0)[0])
    return shorter, graded.concat(space, 1, rank % space.n, *graded.length_rank(space, kappa))


@pytest.mark.parametrize("n,depth", TENSOR_GRID)
def test_decompose_check_catches_a_prefix_one_letter_short(monkeypatch, n, depth):
    monkeypatch.setattr(wandering, "strip_common_prefix", _one_letter_short)
    assert _decompose(n, depth)[0] == (1.0, 0.0)
