import itertools

import numpy as np
import pytest

from fockhopf import wandering
from fockhopf.regular import word_shift
from fockhopf.spaces import FockSpace, basis_vector, inner, tensor_op, tensor_space
from fockhopf.wandering import (
    _gram_defect,
    _wandering_mask,
    is_wandering_tuple,
    isometry_on_wandering_defect,
    strip_common_prefix,
    wandering_check,
    wandering_dim,
    wandering_dim_closed_form,
)
from fockhopf.words import Alphabet, Word, count_words, enumerate_words, word

A2 = Alphabet(2)


def wandering_tuples(alphabet, k, depth):
    # The wandering basis, materialized tuple by tuple (the literal route of wandering_dim).
    words = enumerate_words(alphabet, depth)
    return [tup for tup in itertools.product(words, repeat=k) if is_wandering_tuple(tup)]


def test_strip_common_prefix_examples():
    prefix, kappa = strip_common_prefix((word(1, 1), word(1, 2)))
    assert prefix == word(1) and kappa == (word(1), word(2))
    prefix, kappa = strip_common_prefix((word(1), word(2)))
    assert prefix == Word() and kappa == (word(1), word(2))
    prefix, kappa = strip_common_prefix((word(1, 2, 1), word(1, 2, 1)))
    assert prefix == word(1, 2, 1) and kappa == (Word(), Word())


def test_membership_characterization():
    # In the wandering span iff some component is empty or two first letters differ.
    assert is_wandering_tuple((Word(), word(1, 1)))
    assert is_wandering_tuple((word(1), word(2, 1)))
    assert not is_wandering_tuple((word(1), word(1, 2)))
    for tup in itertools.product(enumerate_words(A2, 2), repeat=2):
        assert is_wandering_tuple(tup) == (strip_common_prefix(tup)[0] == Word())


def test_decompose_reconstruction_unique():
    words = enumerate_words(A2, 3)
    seen = {}
    for tup in itertools.product(words, repeat=2):
        prefix, kappa = strip_common_prefix(tup)
        assert is_wandering_tuple(kappa)
        rebuilt = tuple(prefix.concat(x) for x in kappa)
        assert rebuilt == tup
        key = (prefix, kappa)
        assert key not in seen
        seen[key] = tup
    assert len(seen) == len(words) ** 2


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
    assert all(is_wandering_tuple(t) for t in tuples)
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
        vecs[w] = [shift.apply(basis_vector(pair, tup)) for tup in kset]
    for u in space.words:
        for v in space.words:
            if u == v:
                continue
            for x in vecs[u]:
                for y in vecs[v]:
                    assert inner(x, y) == 0.0


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
