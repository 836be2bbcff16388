import itertools
import tracemalloc

import numpy as np
import pytest

from fockhopf import graded, verify, wandering
from fockhopf.regular import word_shift
from fockhopf.sampling import rng_for
from fockhopf.spaces import FockSpace, Operator, _worst_defect, basis_vector, tensor_op, tensor_space
from fockhopf.wandering import (
    _wandering_mask,
    first_letters,
    share_a_first_letter,
    shifted_gram_defect,
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
    # One word's block alone: the identity on the columns that fit, zero on the rest.
    space = FockSpace(A2, 3)
    mask = _wandering_mask(A2, 2, 3)
    for w in [word(1), word(2), word(1, 2)]:
        assert shifted_gram_defect(space, 2, mask, [space.index_of(w)]) == 0.0


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
    # One sparse Gram product per pair of shift words; a word's own block
    # against the identity on the tuples whose shifted words all fit.
    space = FockSpace(alphabet, depth)
    cols = np.flatnonzero(mask.ravel())
    tuples = zip(*np.unravel_index(cols, mask.shape))
    longest = [max(len(space.word_at(int(i))) for i in tup) for tup in tuples]
    shifted = {
        w: tensor_op(*([word_shift(space, w, "left")] * k)).matrix.tocsc()[:, cols]
        for w in space.words
    }
    words = list(space.words)
    worst = 0.0
    for i, u in enumerate(words):
        fit = [len(u) + m <= depth for m in longest]
        block = (shifted[u].conjugate().transpose() @ shifted[u]).toarray()
        worst = _worst_defect((worst, float(np.abs(block - np.diag(fit)).max(initial=0.0))))
        for v in words[i + 1 :]:
            cross = (shifted[u].conjugate().transpose() @ shifted[v]).tocoo()
            if cross.nnz:
                worst = _worst_defect((worst, float(np.abs(cross.data).max())))
    return worst


@pytest.mark.parametrize(
    "n,k,depth", [(1, 2, 3), (2, 1, 3), (2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2)]
)
def test_gram_defect_matches_pairwise_products(n, k, depth):
    alphabet = Alphabet(n)
    space = FockSpace(alphabet, depth)
    every = np.arange(space.dim)
    mask = _wandering_mask(alphabet, k, depth)
    assert shifted_gram_defect(space, k, mask, every) == 0.0
    assert literal_gram_defect(alphabet, k, depth, mask) == 0.0
    # (1, 1, ...) has the common prefix 1, so the copy of the vacuum tuple
    # shifted by 1 meets it: both routes must see the overlap.
    t = count_words(alphabet, depth)
    broken = mask.copy()
    broken[(1,) * k] = True
    assert not mask[(1,) * k] and broken.ravel()[np.ravel_multi_index((1,) * k, (t,) * k)]
    defect = shifted_gram_defect(space, k, broken, every)
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
    return verify._worst_defect(verify._chk_wandering_decompose(cfg, rng)), rng


@pytest.mark.parametrize("n,depth", TENSOR_GRID)
def test_decompose_check_builds_no_word(monkeypatch, n, depth):
    def refuse(self):
        raise AssertionError("the decompose check built a Word")

    monkeypatch.setattr(Word, "__post_init__", refuse)
    assert _decompose(n, depth)[0] == 0.0


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
    assert _decompose(n, depth)[0] == 1.0


# ---------------------------------------------------------------------------
# the one shifted-column Gram, behind wandering_check and verify's shift_isometry


def _letters_call(n, depth):
    cfg = verify.SuiteConfig(n=n, depth=depth, seed=7)
    rng = rng_for(7, "wandering", "shift_isometry", n, depth)
    return verify._worst_defect(verify._chk_wandering_isometry(cfg, rng))


def _merge_two_columns(space, w, side):
    # The real shift, but the vacuum goes where the word 1 goes: the wandering
    # columns (vacuum, vacuum) and (1, vacuum) land on one tuple.
    coo = word_shift(space, w, side).matrix.tocoo()
    rows = coo.row.copy()
    if np.any(coo.col == 1):
        rows[coo.col == 0] = rows[coo.col == 1]
    return Operator.from_entries(space, space, rows, coo.col, coo.data)


def _drop_one_entry(space, w, side):
    # The real shift less its image of the vacuum: a fitting column goes to 0.
    coo = word_shift(space, w, side).matrix.tocoo()
    keep = coo.col != 0
    return Operator.from_entries(space, space, coo.row[keep], coo.col[keep], coo.data[keep])


@pytest.mark.parametrize("mutant", [_merge_two_columns, _drop_one_entry])
@pytest.mark.parametrize("n,depth", TENSOR_GRID)
def test_shifted_gram_catches_a_broken_shift(monkeypatch, mutant, n, depth):
    space = FockSpace(Alphabet(n), depth)
    mask = _wandering_mask(space.alphabet, 2, depth)
    assert shifted_gram_defect(space, 2, mask, np.arange(space.dim)) == 0.0
    assert _letters_call(n, depth) == 0.0
    monkeypatch.setattr(wandering, "word_shift", mutant)
    assert shifted_gram_defect(space, 2, mask, np.arange(space.dim)) == 1.0
    assert _letters_call(n, depth) == 1.0


def test_every_shifted_gram_goes_through_one_function(monkeypatch):
    def refuse(*args):
        raise AssertionError("shifted_gram_defect reached")

    monkeypatch.setattr(wandering, "shifted_gram_defect", refuse)
    assert count_words(A2, 2) ** 2 <= wandering.GRAM_LIMIT
    with pytest.raises(AssertionError, match="reached"):
        wandering_check(A2, 2, 2)
    with pytest.raises(AssertionError, match="reached"):
        _letters_call(2, 2)


def test_shift_isometry_makes_no_dense_gram():
    # The dense Gram of the 2,047 wandering tuples at depth - 1 took 160 MiB.
    tracemalloc.start()
    try:
        assert _letters_call(2, 6) == 0.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
