"""The graded block kernel against the literal Word-loop route.

The reference implementations below are the word-by-word definitions, looked
up through ``Word.concat`` and ``FockSpace.index_of``: the rank-one values
(L_w xi, eta) summed over u as xi_u conj(eta_wu), the predual comultiplication
(u, v) -> phi(L_uv), the shift tables and word operators, the membership
pattern, the fundamental corepresentation, the bilinear assembly of
``corep_from_rep``, the series product over the basis index of each
concatenation, and the Cesaro sums over word-keyed coefficients.  The
per-word realize pattern, the dense membership defect, the Word-list
wandering mask, the per-word shift-table bodies of ``corep_from_rep`` and of
the wandering cover, the per-pair Kronecker body of ``tensor_product_rep``,
the per-length-pair rank-one products and the slice oracle's double sum over
each Delta(L_w)'s entries are kept as the bodies they replaced.  The
kernel sums in a different order, so it must agree bit for bit on dyadic
inputs, where every sum is exact, and to within rounding on general ones;
index placements must agree exactly.
"""

import importlib
import math
import pkgutil
import tracemalloc
from functools import lru_cache, reduce
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

import fockhopf
from fockhopf import graded, hopf, predual, regular, spaces, verify, wandering, words
from fockhopf.corep import (
    SCALAR_SPACE,
    PredualRep,
    coefficient_operator,
    corep_from_rep,
    fundamental_corep,
    rep_from_corep,
    tensor_product_rep,
)
from fockhopf.graded import within
from fockhopf.hopf import (
    _comult_columns,
    _legwise_columns,
    coassociativity_defect,
    comult,
    homomorphism_defect,
)
from fockhopf.predual import (
    _rank_one_values,
    counit_defect,
    point_functional,
    predual_coassociativity_defect,
    predual_comult,
    predual_homomorphism_defect,
)
from fockhopf.regular import (
    FourierSeries,
    cesaro_coefficients,
    cesaro_arrays,
    cesaro_error_bound,
    cesaro_sum,
    fourier_coefficients,
    membership_defect,
    realize,
    word_shift,
)
from fockhopf.sampling import (
    EXACT_BITS,
    FINE_BITS,
    dyadic_complex,
    random_ball_point,
    random_rank_one_functional,
    random_series,
    random_vector,
    rng_for,
)
from fockhopf.spaces import (
    AuxSpace,
    FockSpace,
    Operator,
    TensorSpace,
    Vector,
    basis_vector,
    max_entry_diff,
    tensor_space,
    vacuum_leg_decomposition,
)
from fockhopf.wandering import _cover_counts, _wandering_mask, shifted_gram_defect
from fockhopf.verify import (
    CESARO_ORDERS,
    SuiteConfig,
    _cesaro_error_vectors,
    _slice_oracle_defect,
)
from fockhopf.words import Alphabet, Word, count_words, enumerate_words
from leg_reference import kron
from scipy_oracle import entries_csc, from_scipy, scipy_csr

# Every point of ``verify --full`` plus the deep (2, 7) point.
GRID = [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (2, 5), (2, 7)]
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def literal_rank_one_values(space, pairs):
    values = np.zeros(space.dim, dtype=np.complex128)
    for xi, eta in pairs:
        for jw, w in enumerate(space.words):
            total = 0j
            for ju, u in enumerate(space.words):
                if len(w) + len(u) > space.depth:
                    break
                total += xi.data[ju] * np.conj(eta.data[space.index_of(w.concat(u))])
            values[jw] += total
    return values


def blockwise_rank_one_values(space, pairs):
    # The kernel as one product per length pair (|w|, |u|) = (k, m), each row
    # of (n^k, n^m) against xi's block m, the pairs in lexicographic order.
    values = np.zeros(space.dim, dtype=np.complex128)
    for xi, eta in pairs:
        conj_eta = np.conj(eta.data)
        for k, m in graded.splits(space.depth):
            pairing = graded.split_block(space, conj_eta, k, m) @ graded.block(space, xi.data, m)
            graded.block(space, values, k)[:] += pairing
    return values


def literal_predual_comult(f):
    space = f.space
    out = {}
    for u in space.words:
        for v in space.words:
            if len(u) + len(v) > space.depth:
                break
            out[(u, v)] = complex(f.values[space.index_of(u.concat(v))])
    return out


@pytest.mark.parametrize("n,depth", GRID)
@given(seed=SEEDS, bits=st.sampled_from([EXACT_BITS, FINE_BITS]), count=st.integers(0, 2))
@settings(max_examples=4, deadline=None)
def test_rank_one_values_match_literal_on_dyadic_inputs(n, depth, seed, bits, count):
    space = FockSpace(Alphabet(n), depth)
    rng = rng_for(seed, "graded-dyadic")
    pairs = [
        (random_vector(rng, space, bits), random_vector(rng, space, bits)) for _ in range(count)
    ]
    assert np.array_equal(_rank_one_values(space, pairs), literal_rank_one_values(space, pairs))


@pytest.mark.parametrize("n,depth", GRID)
@given(seed=SEEDS)
@settings(max_examples=4, deadline=None)
def test_rank_one_values_match_literal_on_point_vectors(n, depth, seed):
    space = FockSpace(Alphabet(n), depth)
    rng = rng_for(seed, "graded-points")
    nu = point_functional(space, random_ball_point(rng, n)).vector
    mu = point_functional(space, random_ball_point(rng, n)).vector
    pairs = [(nu, nu), (mu, random_vector(rng, space))]
    kernel = _rank_one_values(space, pairs)
    literal = literal_rank_one_values(space, pairs)
    assert np.abs(kernel - literal).max() <= 1e-13


@pytest.mark.parametrize("n,depth", [(2, 7), (3, 5), (1, 9)])
def test_rank_one_values_are_byte_equal_to_the_references(n, depth):
    # Dyadic pairs sum exactly, so every order gives the literal's bytes.  The
    # literal's running sum over u rounds otherwise on point vectors, so there
    # the kernel matches the per-length-pair products byte for byte, and the
    # literal to within rounding.
    space = FockSpace(Alphabet(n), depth)
    rng = rng_for(0, "graded-bytes", n, depth)
    for bits in (EXACT_BITS, FINE_BITS):
        pairs = [(random_vector(rng, space, bits), random_vector(rng, space, bits)) for _ in range(2)]
        assert _rank_one_values(space, pairs).tobytes() == literal_rank_one_values(space, pairs).tobytes()
    nu = point_functional(space, random_ball_point(rng, n)).vector
    mu = point_functional(space, random_ball_point(rng, n)).vector
    for pairs in ([(nu, nu)], [(nu, mu), (mu, random_vector(rng, space))]):
        kernel = _rank_one_values(space, pairs)
        assert kernel.tobytes() == blockwise_rank_one_values(space, pairs).tobytes()
        assert np.abs(kernel - literal_rank_one_values(space, pairs)).max() <= 1e-13


@pytest.mark.parametrize("n,depth", GRID)
@given(seed=SEEDS)
@settings(max_examples=3, deadline=None)
def test_predual_comult_matches_literal(n, depth, seed):
    space = FockSpace(Alphabet(n), depth)
    f = random_rank_one_functional(rng_for(seed, "graded-comult"), space)
    split = predual_comult(f)
    words = space.words
    from_blocks = {
        (u, v): complex(val)
        for (k, m), block in split.blocks.items()
        for u, row in zip(graded.block(space, words, k), block)
        for v, val in zip(graded.block(space, words, m), row)
    }
    assert from_blocks == literal_predual_comult(f)


def _perturbed_comult(monkeypatch, key, entry, delta):
    honest = predual.predual_comult

    def perturbed(f):
        blocks = dict(honest(f).blocks)
        block = blocks[key].copy()
        block[entry] += delta
        blocks[key] = block
        return predual.TensorFunctional(f.space, blocks)

    monkeypatch.setattr(predual, "predual_comult", perturbed)


@pytest.mark.parametrize(
    "key,entry", [((0, 0), (0, 0)), ((1, 1), (0, 1)), ((1, 2), (1, 3)), ((3, 0), (5, 0))]
)
def test_perturbed_comult_breaks_both_defects(monkeypatch, key, entry):
    space = FockSpace(Alphabet(2), 3)
    rng = rng_for(0, "perturbed-comult")
    f = random_rank_one_functional(rng, space)
    g = random_rank_one_functional(rng, space)
    assert predual_coassociativity_defect(f) == 0.0
    assert predual_homomorphism_defect(f, g) == 0.0
    _perturbed_comult(monkeypatch, key, entry, 0.5)
    assert predual_coassociativity_defect(f) > 0.0
    assert predual_homomorphism_defect(f, g) > 0.0


def test_a_transposed_comult_block_breaks_coassociativity(monkeypatch):
    # Block (k, m) laid out as the transpose of block (m, k): the right shape,
    # the wrong order, so the iterates read off-diagonal blocks wrongly.
    space = FockSpace(Alphabet(2), 3)
    f = random_rank_one_functional(rng_for(0, "transposed-comult"), space)
    assert predual_coassociativity_defect(f) == 0.0

    def transposed(f):
        splits = graded.splits(f.space.depth)
        blocks = {(k, m): graded.split_block(f.space, f.values, m, k).T for k, m in splits}
        return predual.TensorFunctional(f.space, blocks)

    monkeypatch.setattr(predual, "predual_comult", transposed)
    assert predual_coassociativity_defect(f) > 0.0


def _oracle_inputs(space, seed):
    rng = rng_for(seed, "slice-oracle")
    f = random_rank_one_functional(rng, space)
    g = random_rank_one_functional(rng, space)
    (xi1, eta1), (xi2, eta2) = f.provenance[0], g.provenance[0]
    conv = predual.convolve(f, g)
    return conv.values, (xi1.data, eta1.data, xi2.data, eta2.data)


@pytest.mark.parametrize("n,depth", [(1, 3), (2, 3), (3, 2)])
def test_batched_slice_oracle_matches_per_word_matvec(n, depth):
    from fockhopf.hopf import comult
    from fockhopf.regular import FourierSeries

    space = FockSpace(Alphabet(n), depth)
    legs = hopf.comult_legs(space)
    _, vectors = _oracle_inputs(space, 1)
    xi1, eta1, xi2, eta2 = vectors
    xx = np.multiply.outer(xi1, xi2).ravel()
    ee = np.multiply.outer(eta1, eta2).ravel()
    per_word = np.array([
        np.vdot(ee, scipy_csr(comult(FourierSeries.indicator(space.alphabet, w), space)) @ xx)
        for w in space.words
    ])
    assert _slice_oracle_defect(legs, per_word, *vectors) <= 1e-12


def literal_slice_oracle_values(tables, xi1, eta1, xi2, eta2):
    # The double sum over each Delta(L_w)'s entries: xi1_u xi2_v times
    # conj(eta1 (x) eta2) at the row (wu, wv) that the per-word table holds.
    xx = np.multiply.outer(xi1, xi2)
    cee = np.multiply.outer(np.conj(eta1), np.conj(eta2)).ravel()
    per_length = [(cee[rows] * xx[: rows.shape[1], : rows.shape[1]]).sum(axis=(1, 2)) for rows in tables]
    return np.concatenate(per_length)


@pytest.mark.parametrize("n,depth", GRID)
def test_leg_map_oracle_matches_the_double_sum_on_the_checks_draws(n, depth):
    # Dyadic draws pair exactly, so each word's value must agree to the bit.
    cfg = SuiteConfig(n=n, depth=depth, seed=7)
    space = cfg.space
    tables, legs = literal_slice_oracle_tables(space), hopf.comult_legs(space)
    rng = rng_for(cfg.seed, "predual", "convolve_slice_oracle", n, depth)  # as Check.run draws
    for _ in range(cfg.trials):
        f = random_rank_one_functional(rng, space)
        g = random_rank_one_functional(rng, space)
        vectors = tuple(v.data for pair in (f.provenance[0], g.provenance[0]) for v in pair)
        literal = literal_slice_oracle_values(tables, *vectors)
        assert _slice_oracle_defect(legs, literal, *vectors) == 0.0
        assert _slice_oracle_defect(legs, predual.convolve(f, g).values, *vectors) == 0.0


def test_slice_oracle_calls_no_predual_or_graded_function(monkeypatch):
    # The leg maps come from the realize pattern, which uses the graded
    # layout, so they are read before the patch; the pairing must not use
    # either layer.
    space = FockSpace(Alphabet(2), 3)
    legs = hopf.comult_legs(space)
    values, vectors = _oracle_inputs(space, 3)

    def refuse(*args, **kwargs):
        raise AssertionError("the slice oracle called the predual or graded layer")

    for module in (predual, graded):
        for name, member in vars(module).items():
            if callable(member) and getattr(member, "__module__", None) == module.__name__:
                monkeypatch.setattr(module, name, refuse)
    assert _slice_oracle_defect(legs, values, *vectors) == 0.0


def literal_slice_oracle_tables(space):
    # One comultiplication per word, its entries re-sorted by (word, column):
    # each word's rows in column order as a T x T table, the words of each
    # length stacked.
    rows = [[] for _ in range(space.depth + 1)]
    for w in space.words:
        image = scipy_csr(comult(FourierSeries.indicator(space.alphabet, w), space)).tocoo()
        assert np.all(image.data == 1.0)  # the tagged route returns no values
        order = np.argsort(image.col, kind="stable")
        t = count_words(space.alphabet, space.depth - len(w))
        block = [u * space.dim + v for u in range(t) for v in range(t)]
        assert image.col[order].tolist() == block  # the admissible (u, v) in graded order
        rows[len(w)].append(image.row[order].reshape(t, t))
    return [np.stack(r) for r in rows]


@pytest.mark.parametrize("n,depth", GRID)
def test_slice_oracle_entries_match_per_word_comult(n, depth):
    # Every row of every Delta(L_w) is the product of its word's two leg maps.
    space = FockSpace(Alphabet(n), depth)
    want = literal_slice_oracle_tables(space)
    legs = hopf.comult_legs(space)
    assert len(legs) == space.depth + 1
    for (a, b), rows in zip(legs, want):
        got = a[:, :, None] * space.dim + b[:, None, :]
        assert np.array_equal(got.reshape(rows.shape), rows)


def test_slice_oracle_entries_keep_no_complex_temporaries():
    # At (2, 7) the fold-2 pattern holds 1.3 MiB of index arrays.  Decoding
    # the complex tags of the tagged comultiplication peaked at 8.6 MiB, then
    # at 4.2 MiB; the leg maps read off the pattern peak at 4.4 MiB with the
    # pattern build included, 3.2 MiB without it.
    space = FockSpace(Alphabet(2), 7)
    regular._realize_pattern.cache_clear()
    tracemalloc.start()
    try:
        hopf.comult_legs(space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6.5 * 2**20, peak


def patch_comult_pattern(monkeypatch, mutate):
    # comult_legs reads the fold-2 realize pattern as raw CSR arrays.  The
    # patch hands it the pattern's entries (row, column, word) after
    # ``mutate``, sorted again by (row, column) into CSR arrays, so a row
    # stores a position twice only where the mutant stores it twice.
    honest = regular._realize_pattern

    def pattern(space, degree, fold):
        indptr, cols, word = honest(space, degree, fold)
        rows = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
        rows, new_cols, word = mutate(space, rows, cols.astype(np.int64), word.copy())
        order = np.lexsort((new_cols, rows))
        counts = np.bincount(rows, minlength=indptr.size - 1)
        return np.append(0, np.cumsum(counts)).astype(cols.dtype), new_cols[order].astype(cols.dtype), word[order]

    monkeypatch.setattr(hopf, "_realize_pattern", pattern)


def entry_of(space, rows, cols, word, w, row, col):
    # The mask of the one entry of the word w at (row, col); row and col are pairs of words.
    at = [space.index_of(a) * space.dim + space.index_of(b) for a, b in (row, col)]
    hit = (word == space.index_of(w)) & (rows == at[0]) & (cols == at[1])
    assert np.count_nonzero(hit) == 1
    return hit


@pytest.mark.parametrize("first,second", [(1, 2), (-2, -1)])
def test_slice_oracle_entries_reject_merged_words(monkeypatch, first, second):
    # The second word's entries carry the first word's name: every entry
    # still names one word and every position is stored once, but the first
    # word then has too many entries.
    space = FockSpace(Alphabet(2), 3)

    def merged(space, rows, cols, word):
        word[word == space.index_of(space.words[second])] = space.index_of(space.words[first])
        return rows, cols, word

    patch_comult_pattern(monkeypatch, merged)
    with pytest.raises(ValueError, match="in number"):
        hopf.comult_legs(space)


@pytest.mark.parametrize("moved", [Word((1,)), Word((2, 1))])
def test_slice_oracle_entries_reject_columns_off_the_leading_block(monkeypatch, moved):
    # One entry of one word, column (vacuum, vacuum) at row (w, w), moves to
    # column (last word, vacuum): the rows and the entry counts still hold,
    # but |last word| = depth exceeds depth - |w|, so the column is off the block.
    space = FockSpace(Alphabet(2), 3)
    e = Word()

    def off_block(space, rows, cols, word):
        cols[entry_of(space, rows, cols, word, moved, (moved, moved), (e, e))] = (space.dim - 1) * space.dim
        return rows, cols, word

    patch_comult_pattern(monkeypatch, off_block)
    with pytest.raises(ValueError, match="block"):
        hopf.comult_legs(space)


@pytest.mark.parametrize("moved", [Word(), Word((1, 2))])
def test_slice_oracle_entries_reject_a_repeated_column(monkeypatch, moved):
    # One entry of one word, column (vacuum, vacuum) at row (w, w), moves to
    # column (vacuum, letter 1), which the word already fills at row (w, w1):
    # the rows, the counts and the block all hold, but (e, e) goes missing.
    # Column (e, 1) then holds two rows, so the leg maps cannot take both.
    space = FockSpace(Alphabet(2), 3)
    e = Word()

    def repeated(space, rows, cols, word):
        cols[entry_of(space, rows, cols, word, moved, (moved, moved), (e, e))] = 1
        return rows, cols, word

    patch_comult_pattern(monkeypatch, repeated)
    with pytest.raises(ValueError, match="leg maps"):
        hopf.comult_legs(space)


def test_slice_oracle_entries_reject_a_position_stored_twice(monkeypatch):
    # The vacuum's entry at row (2, 2), column (2, 2) moves to row (1, 1),
    # column (1, 1), where the vacuum already stores one.  Its entry count,
    # its columns and its rows all hold, and the leg maps read both copies
    # alike, so only the premise that a row stores each position once (a
    # matrix would sum the two) catches it.
    space = FockSpace(Alphabet(2), 3)
    e, one, two = Word(), Word((1,)), Word((2,))

    def twice(space, rows, cols, word):
        hit = entry_of(space, rows, cols, word, e, (two, two), (two, two))
        rows[hit], cols[hit] = space.index_of(one) * (space.dim + 1), space.index_of(one) * (space.dim + 1)
        return rows, cols, word

    patch_comult_pattern(monkeypatch, twice)
    with pytest.raises(ValueError, match="twice"):
        hopf.comult_legs(space)


@pytest.mark.parametrize("dropped", [Word(), Word((1, 2)), Word((2, 2, 2))], ids=["e", "12", "222"])
def test_comult_legs_reject_a_dropped_entry(monkeypatch, dropped):
    # One word loses its entry at column (vacuum, vacuum), row (w, w): the
    # columns and the rows left all hold, but the word has one entry too
    # few.  The last word, of length depth, has no other entry.
    space = FockSpace(Alphabet(2), 3)
    e = Word()

    def short(space, rows, cols, word):
        keep = ~entry_of(space, rows, cols, word, dropped, (dropped, dropped), (e, e))
        return rows[keep], cols[keep], word[keep]

    patch_comult_pattern(monkeypatch, short)
    with pytest.raises(ValueError, match="in number"):
        hopf.comult_legs(space)


@pytest.mark.parametrize("n,depth", [(2, 3), (2, 7)])
def test_slice_oracle_check_draws_two_rank_one_functionals_a_trial(n, depth):
    # Every defect the check reports is 0.0, so the report bytes cannot show
    # a change in its draws; the generator state after the check can.
    cfg = SuiteConfig(n=n, depth=depth, trials=20)
    rng = rng_for(5, "slice-oracle-draws")
    assert verify._worst_defect(verify._chk_convolve_slice_oracle(cfg, rng)) == 0.0
    reference = rng_for(5, "slice-oracle-draws")
    for _ in range(2 * cfg.trials):
        random_rank_one_functional(reference, cfg.space)
    assert rng.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("moved", [Word(), Word((2,))])
def test_slice_oracle_legs_reject_a_row_off_the_product(monkeypatch, moved):
    # Two entries of one word, at columns (e, e) and (1, 1), swap the right
    # legs of their rows: (w, w) and (w1, w1) become (w, w1) and (w1, w).  The
    # positions, the entry counts and the columns all hold, so only the
    # leg-map check, the last, can catch it.
    space = FockSpace(Alphabet(2), 3)
    e, one, moved1 = Word(), Word((1,)), moved.concat(Word((1,)))

    def swapped(space, rows, cols, word):
        first = entry_of(space, rows, cols, word, moved, (moved, moved), (e, e))
        second = entry_of(space, rows, cols, word, moved, (moved1, moved1), (one, one))
        k, j = space.index_of(moved), space.index_of(moved1)
        rows[first], rows[second] = k * space.dim + j, j * space.dim + k
        return rows, cols, word

    patch_comult_pattern(monkeypatch, swapped)
    with pytest.raises(ValueError, match="leg maps"):
        hopf.comult_legs(space)


def test_slice_oracle_catches_each_perturbed_convolution_value():
    cfg = SuiteConfig(n=2, depth=3)
    space = cfg.space
    legs = hopf.comult_legs(space)
    values, vectors = _oracle_inputs(space, 2)
    assert _slice_oracle_defect(legs, values, *vectors) <= cfg.tolerance
    for i in range(space.dim):
        bad = values.copy()
        bad[i] += 1e-6
        assert _slice_oracle_defect(legs, bad, *vectors) > cfg.tolerance


# ---------------------------------------------------------------------------
# Series arithmetic: the graded Cauchy product and the Cesaro weights against
# the word-keyed definitions.


def literal_concat_table(space):
    # table[i, j] is the basis index of u v (u, v the words at i and j) among
    # the words of length <= 2 depth.
    doubled = FockSpace(space.alphabet, 2 * space.depth)
    return np.array([[doubled.index_of(u.concat(v)) for v in space.words] for u in space.words])


def literal_product(s, t, table):
    # Each coefficient pair adds a b at the index of u v, in (u, v) basis order.
    i, j = np.flatnonzero(s.coeffs), np.flatnonzero(t.coeffs)
    out = np.zeros(table[-1, -1] + 1, dtype=np.complex128)
    np.add.at(out, table[np.ix_(i, j)].ravel(), np.multiply.outer(s.coeffs[i], t.coeffs[j]).ravel())
    return FourierSeries(s.alphabet, out)


def literal_cesaro_sum(series, k):
    return FourierSeries(
        series.alphabet,
        {w: (1.0 - len(w) / k) * c for w, c in series.items() if len(w) < k},
    )


def literal_cesaro_error_bound(series, k):
    return sum(min(len(w) / k, 1.0) * abs(c) for w, c in series.items())


def series_kinds(rng, space, bits):
    """Random series of every degree up to the depth, the zero series, and a
    series drawn at the top degree whose top block is then zeroed."""
    kinds = [random_series(rng, space.alphabet, d, bits=bits) for d in range(space.depth + 1)]
    top = random_series(rng, space.alphabet, space.depth, bits=bits).coeffs.copy()
    top[space._block_starts[space.depth] :] = 0
    return kinds + [FourierSeries(space.alphabet), FourierSeries(space.alphabet, top)]


def transposed_star(s, t):
    # Block k + m takes outer(b, a) instead of outer(a, b): the product t s.
    space = FockSpace(s.alphabet, s.degree + t.degree)
    out = np.zeros(space.dim, dtype=np.complex128)
    for k in range(s.degree + 1):
        for m in range(t.degree + 1):
            a, b = graded.block(space, s.coeffs, k), graded.block(space, t.coeffs, m)
            graded.block(space, out, k + m)[:] += np.multiply.outer(b, a).ravel()
    return FourierSeries(s.alphabet, out)


def products_match_literal(space, rng):
    table = literal_concat_table(space)
    for bits in (EXACT_BITS, FINE_BITS):
        kinds = series_kinds(rng, space, bits)
        for s in kinds:
            for t in kinds:
                if s * t != literal_product(s, t, table):
                    return False
    return True


@pytest.mark.parametrize("n,depth", GRID)
def test_series_product_matches_literal(n, depth):
    space = FockSpace(Alphabet(n), depth)
    assert products_match_literal(space, rng_for(depth, "series-product", n))


def test_series_product_check_catches_transposed_blocks(monkeypatch):
    space = FockSpace(Alphabet(2), 3)
    assert products_match_literal(space, rng_for(0, "transposed"))
    monkeypatch.setattr(FourierSeries, "__mul__", transposed_star)
    assert not products_match_literal(space, rng_for(0, "transposed"))


# ---------------------------------------------------------------------------
# The one graded Cauchy product against oracles that share none of its code:
# the realize matvec, np.convolve at n = 1, and the block loop it replaced.


def signed_rows(rng, shape):
    """Normal complex entries, about a quarter of each part a zero of either sign."""
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for part in (x.real, x.imag):
        part[rng.random(shape) < 0.25] = 0.0
        part[...] = np.copysign(part, rng.choice([-1.0, 1.0], size=shape))
    return x


def blockwise_product(s, t):
    # The series product before the kernel: block k + m adds numpy's complex
    # outer product of s on block k with t on block m, k ascending.
    space = FockSpace(s.alphabet, s.degree + t.degree)
    out = np.zeros(space.dim, dtype=np.complex128)
    for k in range(s.degree + 1):
        for m in range(t.degree + 1):
            a, b = graded.block(space, s.coeffs, k), graded.block(space, t.coeffs, m)
            graded.split_block(space, out, k, m)[:] += np.multiply.outer(a, b)
    return FourierSeries(s.alphabet, out)


CAUCHY_POINTS = GRID + [(2, 11)]


@pytest.mark.parametrize("n,depth", CAUCHY_POINTS)
def test_cauchy_product_is_the_realize_matvec_to_the_bit(n, depth):
    space = FockSpace(Alphabet(n), depth)
    rng = rng_for(depth, "cauchy-matvec", n)
    for degree in range(min(depth, 4) + 1):
        size = space._block_starts[degree + 1]
        left, right = signed_rows(rng, (3, size)), signed_rows(rng, (3, space.dim))
        stacked = graded.cauchy_product(space, left, right)
        for a, x, got in zip(left, right, stacked):
            want = realize(FourierSeries(space.alphabet, a), space).apply(Vector(space, x)).data
            assert graded.cauchy_product(space, a, x).tobytes() == got.tobytes() == want.tobytes()
        # Leading axes broadcast: every left row against every right row of coefficients.
        coeffs = right[:, : space._block_starts[depth - degree + 1]]
        crossed = graded.cauchy_product(space, left[:, None], coeffs[None])
        for i, j in np.ndindex(3, 3):
            assert crossed[i, j].tobytes() == graded.cauchy_product(space, left[i], coeffs[j]).tobytes()


@pytest.mark.parametrize("depth", [1, 2, 5, 9])
def test_cauchy_product_at_one_letter_is_the_truncated_convolution(depth):
    # At n = 1 the word of length k is basis index k, so s t is the product of
    # polynomials in one variable: np.convolve, cut at the depth.
    space = FockSpace(Alphabet(1), depth)
    rng = rng_for(depth, "cauchy-convolve")
    for bits in (EXACT_BITS, FINE_BITS):
        for dl in range(depth + 1):
            for dr in range(depth + 1):
                a, b = dyadic_complex(rng, dl + 1, bits=bits), dyadic_complex(rng, dr + 1, bits=bits)
                want = np.zeros(depth + 1, dtype=np.complex128)
                full = np.convolve(a, b)[: depth + 1]
                want[: full.size] = full
                assert np.array_equal(graded.cauchy_product(space, a, b), want)


@pytest.mark.parametrize("n,depth", GRID)
def test_series_product_keeps_the_block_loop_bits_on_dyadic_data(n, depth):
    space = FockSpace(Alphabet(n), depth)
    rng = rng_for(depth, "series-block-loop", n)
    for bits in (EXACT_BITS, FINE_BITS):
        kinds = series_kinds(rng, space, bits)
        for s in kinds:
            for t in kinds:
                assert (s * t).coeffs.tobytes() == blockwise_product(s, t).coeffs.tobytes()


@pytest.mark.parametrize("n,depth", GRID)
def test_series_product_rounds_as_the_realize_matvec(n, depth):
    # On normal data the product rounds as realize(s) applied to t's coefficients.
    space = FockSpace(Alphabet(n), depth)
    rng = rng_for(depth, "series-product-rounding", n)
    for ds in range(depth + 1):
        dt = depth - ds
        s = FourierSeries(space.alphabet, signed_rows(rng, space._block_starts[ds + 1]))
        t = FourierSeries(space.alphabet, signed_rows(rng, space._block_starts[dt + 1]))
        x = np.zeros(space.dim, dtype=np.complex128)
        x[: t.coeffs.size] = t.coeffs
        want = realize(s, space).apply(Vector(space, x)).data
        got = (s * t).coeffs
        assert got.tobytes() == want[: got.size].tobytes() and not np.any(want[got.size :])


def test_cesaro_and_homomorphism_checks_use_only_the_cauchy_kernel(monkeypatch):
    # Past the homomorphism's cached plans, neither check runs a CSR matvec,
    # reads the realize pattern or builds a series: both pass with those refused.
    cfg = SuiteConfig(n=2, depth=4, seed=7)
    checks = [c for c in verify.build_checks(cfg) if c.name in ("cesaro_bound", "homomorphism")]
    assert len(checks) == 2 and all(c.run()["pass"] for c in checks)  # builds the plans

    def refuse(*args, **kwargs):
        raise AssertionError("a retired route ran")

    monkeypatch.setattr(spaces, "csr_matvec", refuse)
    monkeypatch.setattr(regular, "_realize_pattern", refuse)
    monkeypatch.setattr(FourierSeries, "__init__", refuse)
    for check in checks:
        row = check.run()
        assert row["pass"] and "error" not in row, row
    assert not {"csr_matvec", "_realize_pattern"} & set(vars(verify))


@pytest.mark.parametrize("n,depth", GRID)
def test_realize_is_multiplicative_on_the_slack_zone(n, depth):
    space = FockSpace(Alphabet(n), depth)
    rng = rng_for(depth, "series-realize", n)
    for _ in range(4):
        ds = int(rng.integers(0, depth + 1))
        dt = int(rng.integers(0, depth - ds + 1))
        s = random_series(rng, space.alphabet, ds, bits=EXACT_BITS)
        t = random_series(rng, space.alphabet, dt, bits=EXACT_BITS)
        cols = within(space, depth - ds - dt)
        product = realize(s, space) @ realize(t, space)
        assert max_entry_diff(realize(s * t, space), product, cols) == 0.0


@pytest.mark.parametrize("n,depth", GRID)
def test_cesaro_weights_match_literal(n, depth):
    space = FockSpace(Alphabet(n), depth)
    rng = rng_for(depth, "series-cesaro", n)
    for s in series_kinds(rng, space, FINE_BITS):
        for k in range(1, 14):
            assert cesaro_sum(s, k) == literal_cesaro_sum(s, k)
            assert cesaro_error_bound(s, k) == literal_cesaro_error_bound(s, k)


@pytest.mark.parametrize("n,depth", GRID)
def test_batched_cesaro_rows_match_each_order(n, depth):
    # Fully and sparsely supported series of every degree, and the zero series.
    space = FockSpace(Alphabet(n), depth)
    rng = rng_for(depth, "cesaro-batch", n)
    kinds = series_kinds(rng, space, FINE_BITS)
    sparse_kinds = [{w: c for w, c in s.items() if rng.random() < 0.5} for s in kinds]
    kinds += [FourierSeries(space.alphabet, coeffs) for coeffs in sparse_kinds]
    orders = (1, 2, 3, *CESARO_ORDERS, 13)
    for s in kinds:
        coeffs, bounds = cesaro_arrays(s.coeffs, FockSpace(s.alphabet, s.degree).lengths, orders)
        assert coeffs.shape == (len(orders), s.coeffs.size) and bounds.shape == (len(orders),)
        for row, bound, k in zip(coeffs, bounds, orders):
            partial = cesaro_sum(s, k).coeffs
            assert np.array_equal(row, np.pad(partial, (0, s.coeffs.size - partial.size)))
            assert bound == cesaro_error_bound(s, k)


# ---------------------------------------------------------------------------
# The Cesaro differences: nine realized partial sums against one stacked matvec.


def literal_cesaro_error_vectors(s, space, x):
    a = realize(s, space)
    return np.array([
        (scipy_csr(realize(regular.cesaro_sum(s, k), space)) - scipy_csr(a)) @ x for k in range(4, 13)
    ])


@pytest.mark.parametrize("n,depth", GRID)
def test_cesaro_error_vectors_match_nine_realizes(n, depth):
    space = FockSpace(Alphabet(n), depth)
    rng = rng_for(depth, "cesaro-differences", n)
    degree = min(3, depth - 1)
    zone = within(space, depth - degree)
    for trial in range(4):
        s = random_series(rng, space.alphabet, degree)
        if trial % 2:  # a sparse support leaves gaps in A's pattern
            s = FourierSeries(space.alphabet, {w: c for w, c in s.items() if rng.random() < 0.5})
        x = np.zeros(space.dim, dtype=np.complex128)
        x[zone] = dyadic_complex(rng, zone.size)
        for vec in (x, random_vector(rng, space).data):
            stacked = _cesaro_error_vectors(s, space, vec)
            assert np.array_equal(stacked, literal_cesaro_error_vectors(s, space, vec))


def test_checks_share_one_space_and_build_no_words_per_trial(monkeypatch):
    # One Fock space per config, and after one warm-up (same seed, so the same
    # series degrees) the Fourier round trip and the Cesaro check read every
    # word from cached tables.
    cfg = SuiteConfig(n=2, depth=7, trials=6)
    assert cfg.space is cfg.space
    checks = (verify._chk_fourier_round_trip, verify._chk_cesaro_bound)
    for check in checks:
        verify._worst_defect(check(cfg, rng_for(0, "word-budget")))
    built = []
    honest = words.Word.__post_init__

    def counting(self):
        built.append(self)
        honest(self)

    monkeypatch.setattr(words.Word, "__post_init__", counting)
    for check in checks:
        built.clear()
        verify._worst_defect(check(cfg, rng_for(0, "word-budget")))
        assert len(built) == 0


def test_predual_comult_check_catches_an_extra_support_pair(monkeypatch):
    # Only indicator functionals are perturbed, so the random-functional
    # defects stay 0 and the failure comes from the support read off the blocks.
    cfg = SuiteConfig(n=2, depth=3)
    assert verify._worst_defect(verify._chk_predual_comult(cfg, rng_for(0, "support"))) == 0.0
    honest = predual.predual_comult

    def extra_pair(f):
        split = honest(f)
        if np.count_nonzero(f.values) != 1:
            return split
        blocks = dict(split.blocks)
        blocks[(0, 1)] = blocks[(0, 1)] + 1.0
        return predual.TensorFunctional(f.space, blocks)

    monkeypatch.setattr(predual, "predual_comult", extra_pair)
    assert verify._worst_defect(verify._chk_predual_comult(cfg, rng_for(0, "support"))) == 1.0


# ---------------------------------------------------------------------------
# Shifts, membership and corepresentation assembly: the Word-loop references.


@lru_cache(maxsize=4096)
def literal_shift_index_table(space, w, side):
    suffix = w if side == "left" else w.reverse()
    rows = []
    for u in space.words:
        if len(u) + len(w) > space.depth:
            break  # length-lex order: all later words are at least as long
        rows.append(space.index_of(suffix.concat(u) if side == "left" else u.concat(suffix)))
    return np.asarray(rows, dtype=np.int64)


def literal_word_shift(space, w, side):
    rows = literal_shift_index_table(space, w, side)
    return Operator.from_entries(space, space, rows, np.arange(rows.size), np.ones(rows.size))


def literal_pattern_tables(space):
    # structured[i, j] is True when word_at(i) = u . word_at(j) for some u;
    # prefix_index[i, j] is then the basis index of u.
    dim = space.dim
    structured = np.zeros((dim, dim), dtype=bool)
    prefix_index = np.full((dim, dim), -1, dtype=np.int32)
    for j, w in enumerate(space.words):
        lw = len(w)
        for i, v in enumerate(space.words):
            if len(v) >= lw and v.letters[len(v) - lw :] == w.letters:
                structured[i, j] = True
                prefix_index[i, j] = space.index_of(Word(v.letters[: len(v) - lw]))
    return structured, prefix_index


def literal_membership_defect(t):
    structured, prefix_index = literal_pattern_tables(t.domain)
    dense = scipy_csr(t).toarray()
    expected = np.zeros_like(dense)
    expected[structured] = dense[:, 0][prefix_index[structured]]
    diff = np.abs(dense - expected)
    return float(diff[structured].max(initial=0.0)) + float(diff[~structured].max(initial=0.0))


def literal_fundamental_corep(space):
    pair = tensor_space(space, space)
    rows, cols = [], []
    for u in space.words:
        for v in space.words:
            if len(u) + len(v) > space.depth:
                break
            rows.append(space.index_of(v.concat(u)) * space.dim + space.index_of(v))
            cols.append(space.index_of(u) * space.dim + space.index_of(v))
    return Operator.from_entries(pair, pair, rows, cols, np.ones(len(rows)))


def literal_corep_from_rep(rep, space):
    pair = tensor_space(space, rep.aux)
    dk = rep.aux.dim
    rows, cols, vals = [], [], []
    for u, pu in rep.family.items():
        coo = scipy_csr(pu).tocoo()
        for a in space.words:
            if len(u) + len(a) > space.depth:
                break
            rows.extend(space.index_of(u.concat(a)) * dk + coo.row)
            cols.extend(space.index_of(a) * dk + coo.col)
            vals.extend(coo.data)
    return Operator.from_entries(pair, pair, rows, cols, vals)


def same_operator(a, b):
    return a.domain == b.domain and a.codomain == b.codomain and (scipy_csr(a) != scipy_csr(b)).nnz == 0


def _words(n, max_len):
    return st.lists(st.integers(1, n), max_size=max_len).map(lambda letters: Word(tuple(letters)))


@pytest.mark.parametrize("n,depth", GRID)
@given(data=st.data())
@settings(max_examples=6, deadline=None)
def test_shift_tables_and_word_shifts_match_literal(n, depth, data):
    space = FockSpace(Alphabet(n), depth)
    w = data.draw(_words(n, depth))
    for side in ("left", "right"):
        literal = literal_shift_index_table(space, w, side)
        shift = word_shift(space, w, side)
        assert np.array_equal(scipy_csr(shift).tocsc().indices, literal)  # the row of each column
        assert same_operator(shift, literal_word_shift(space, w, side))


@pytest.mark.parametrize("n,depth", GRID)
@given(seed=SEEDS)
@settings(max_examples=3, deadline=None)
def test_membership_matches_literal_pattern(n, depth, seed):
    space = FockSpace(Alphabet(n), depth)
    rng = rng_for(seed, "graded-membership")
    realized = realize(random_series(rng, space.alphabet, int(rng.integers(0, depth + 1))), space)
    assert membership_defect(realized) == literal_membership_defect(realized) == 0.0
    # One stray entry, on or off the pattern, and a fully random matrix.
    i, j = (int(x) for x in rng.integers(0, space.dim, size=2))
    stray = realized + Operator.from_entries(space, space, [i], [j], [dyadic_complex(rng)])
    assert membership_defect(stray) == literal_membership_defect(stray)
    noise = dyadic_complex(rng, space.dim * space.dim).reshape(space.dim, space.dim)
    dense = Operator.from_dense(space, space, noise)
    assert membership_defect(dense) == literal_membership_defect(dense)


@pytest.mark.parametrize("n,depth", GRID)
def test_fundamental_corep_matches_literal(n, depth):
    space = FockSpace(Alphabet(n), depth)
    assert same_operator(fundamental_corep(space).operator, literal_fundamental_corep(space))


def _random_rep(rng, space):
    # Distinct words carry orthogonal idempotents on a small auxiliary space:
    # a non-diagonal rank-one idempotent e_0 (e_0 + a e_1)^T, then e_i e_i^T for i >= 2.
    dk = int(rng.integers(2, 5))
    aux = AuxSpace(dk)
    picks = rng.choice(space.dim, size=min(dk - 1, space.dim), replace=False)
    slots = [0] + list(range(2, dk))
    family = {}
    for slot, index in zip(slots, picks):
        entries = ([slot], [slot], [1.0]) if slot else ([0, 0], [0, 1], [1.0, dyadic_complex(rng)])
        family[space.word_at(int(index))] = Operator.from_entries(aux, aux, *entries)
    return PredualRep(space, aux, family)


@pytest.mark.parametrize("n,depth", GRID)
@given(seed=SEEDS)
@settings(max_examples=4, deadline=None)
def test_corep_from_rep_matches_literal(n, depth, seed):
    space = FockSpace(Alphabet(n), depth)
    rep = _random_rep(rng_for(seed, "graded-corep"), space)
    assert same_operator(corep_from_rep(rep, space).operator, literal_corep_from_rep(rep, space))


def literal_table_corep_from_rep(rep, space):
    # One shift index table per support word, its rows paired with the
    # word's stored entries.
    pair = TensorSpace((space, rep.aux))
    family, dk = rep.family, rep.aux.dim
    rows, cols = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    vals = [np.empty(0, dtype=np.complex128)]
    for k in family.support:
        table = literal_shift_index_table(space, space.words[k], "left")
        at = family.word == k
        rows.append((table[:, None] * dk + family.row[at]).ravel())
        cols.append((np.arange(table.size)[:, None] * dk + family.col[at]).ravel())
        vals.append(np.tile(family.val[at], table.size))
    entries = (np.concatenate(parts) for parts in (rows, cols, vals))
    return Operator.from_entries(pair, pair, *entries)


def literal_operator_sum(space, ops):
    # Every term's coordinates in one COO -> CSR pass; cancelled entries dropped.
    rows, cols = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    vals = [np.empty(0, dtype=np.complex128)]
    for op in ops:
        coo = scipy_csr(op).tocoo()
        rows.append(coo.row)
        cols.append(coo.col)
        vals.append(coo.data)
    entries = (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols)))
    mat = sparse.coo_matrix(entries, shape=(space.dim, space.dim)).tocsr()
    mat.eliminate_zeros()
    return from_scipy(space, space, mat)


def literal_tensor_product_rep(r1, r2):
    # One Kronecker product per member pair, summed per concatenated word.
    space = r1.space
    aux = tensor_space(r1.aux, r2.aux)
    terms = {}
    for u, pu in r1.family.items():
        for v, pv in r2.family.items():
            w = u.concat(v)
            if len(w) <= space.depth:
                terms.setdefault(w, []).append(kron(pu, pv))
    return PredualRep(space, aux, {w: literal_operator_sum(aux, ops) for w, ops in terms.items()})


def _block_end_words(space):
    # The first and the last word of every length.
    starts = space._block_starts
    ends = {i for k in range(space.depth + 1) for i in (starts[k], starts[k + 1] - 1)}
    return [space.word_at(i) for i in sorted(ends)]


def same_family_entries(a, b):
    return all(np.array_equal(getattr(a, arr), getattr(b, arr)) for arr in ("word", "row", "col", "val"))


def same_csr_arrays(a, b):
    names = ("indptr", "indices", "data")
    return all(np.array_equal(getattr(a, name), getattr(b, name)) for name in names)


@pytest.mark.parametrize("n,depth", GRID)
def test_corep_from_rep_matches_table_literal_csr_arrays(n, depth):
    space = FockSpace(Alphabet(n), depth)
    rng = rng_for(depth, "corep-join", n)
    reps = [rep_from_corep(fundamental_corep(space))]
    reps += [PredualRep.character(space, w) for w in _block_end_words(space)]
    reps += [_random_rep(rng, space) for _ in range(3)]
    for rep in reps:
        got = scipy_csr(corep_from_rep(rep, space).operator)
        assert same_csr_arrays(got, scipy_csr(literal_table_corep_from_rep(rep, space)))


def test_corep_from_rep_catches_a_reversed_shift_table(monkeypatch):
    # Word shifts that look up the reversed word build L_{w~} for L_w.  The
    # assembly reads the realize pattern, not the shifts, so the Kronecker-sum
    # check must disagree with it (by 1.0 for the character of 12).
    space = FockSpace(Alphabet(2), 4)
    rep = PredualRep.character(space, Word((1, 2)))
    honest = FockSpace.index_of
    regular.word_shift.cache_clear()
    monkeypatch.setattr(FockSpace, "index_of", lambda self, w: honest(self, w.reverse()))
    try:
        with pytest.raises(AssertionError, match="bilinear assembly"):
            corep_from_rep(rep, space)
    finally:
        regular.word_shift.cache_clear()


@pytest.mark.parametrize("n,depth", GRID)
def test_tensor_product_rep_matches_kronecker_literal(n, depth):
    space = FockSpace(Alphabet(n), depth)
    chars = [PredualRep.character(space, w) for w in _block_end_words(space)]
    fundamental = rep_from_corep(fundamental_corep(space))
    pairs = [(a, b) for a in chars for b in chars]
    pairs += [(fundamental, c) for c in chars] + [(c, fundamental) for c in chars]
    for r1, r2 in pairs:
        got, want = tensor_product_rep(r1, r2), literal_tensor_product_rep(r1, r2)
        assert got.aux == want.aux and same_family_entries(got.family, want.family)


# ---------------------------------------------------------------------------
# Safe zones and tensor powers: against the dim^fold length array and the
# Kronecker products of the literal word shifts.


@pytest.mark.parametrize("n,depth", GRID)
def test_within_matches_outer_lengths(n, depth):
    space = FockSpace(Alphabet(n), depth)
    for fold in (1, 2, 3):
        lengths = reduce(np.add.outer, [space.lengths] * fold).ravel()
        for bound in range(-1, fold * depth + 2):
            zone = within(space, bound, fold)
            assert zone.dtype == np.int64
            assert np.array_equal(zone, np.flatnonzero(lengths <= bound))


def test_within_builds_no_power_sized_array():
    # A length array of this triple power would hold 1093^3 entries.
    space = FockSpace(Alphabet(3), 6)
    tracemalloc.start()
    try:
        zone = within(space, 4, fold=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Triples of total length t: C(t + 2, 2) length splits, 3^t words each.
    assert zone.size == sum(math.comb(t + 2, 2) * 3**t for t in range(5)) == 1549
    assert peak < 2**20


@pytest.mark.parametrize("n,depth", GRID)
@given(seed=SEEDS)
@settings(max_examples=3, deadline=None)
def test_realize_tensor_power_matches_kronecker_sum(n, depth, seed):
    space = FockSpace(Alphabet(n), depth)
    rng = rng_for(seed, "graded-realize")
    series = random_series(rng, space.alphabet, int(rng.integers(0, depth + 1)), bits=EXACT_BITS)
    # The (2, 7) triple power has 255^3 columns, too many to build twice.
    for fold in (f for f in (1, 2, 3) if space.dim**f <= 2_000_000):
        target = space if fold == 1 else tensor_space(*([space] * fold))
        # Every term's entries, assembled in one COO -> CSR pass.
        rows, cols = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
        vals = [np.empty(0, dtype=np.complex128)]
        for w, c in series.items():
            term = (c * scipy_csr(kron(*([literal_word_shift(space, w, "left")] * fold)))).tocoo()
            rows.append(term.row)
            cols.append(term.col)
            vals.append(term.data)
        entries = (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols)))
        literal = sparse.coo_matrix(entries, shape=(target.dim, target.dim)).tocsr()
        realized = realize(series, space, fold)
        assert realized.domain == realized.codomain == target
        assert (scipy_csr(realized) != literal).nnz == 0


def literal_realize(series, space, fold=1):
    # One shift table per series word, tensor-powered by index arithmetic,
    # then one COO -> CSR assembly of the concatenated entries.
    target = space if fold == 1 else tensor_space(*([space] * fold))
    rows, cols, vals = [], [], []
    for w, c in series.items():
        table = literal_shift_index_table(space, w, "left")
        src = np.arange(table.size, dtype=np.int64)
        row, col = table, src
        for _ in range(fold - 1):
            row = (row[:, None] * space.dim + table[None, :]).ravel()
            col = (col[:, None] * space.dim + src[None, :]).ravel()
        rows.append(row)
        cols.append(col)
        vals.append(np.full(row.size, c, dtype=np.complex128))
    if not rows:
        return Operator.zero(target)
    return Operator.from_entries(
        target, target, np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    )


def _realize_cases(space, rng):
    # Full support, gaps in the support, one indicator per word length (the
    # last word of each block) and the zero series.
    full = random_series(rng, space.alphabet, space.depth)
    yield full
    yield random_series(rng, space.alphabet, max(space.depth - 1, 0))
    for _ in range(2):
        yield FourierSeries(space.alphabet, {w: c for w, c in full.items() if rng.random() < 0.5})
    for k in range(space.depth + 1):
        yield FourierSeries.indicator(space.alphabet, space.words[space._block_starts[k + 1] - 1])
    yield FourierSeries(space.alphabet)


@pytest.mark.parametrize("n,depth", GRID)
def test_realize_matches_literal_csr_arrays(n, depth):
    space = FockSpace(Alphabet(n), depth)
    rng = rng_for(depth, "realize-literal", n)
    for series in _realize_cases(space, rng):
        # The (2, 7) triple power has 255^3 rows, too many to build twice.
        for fold in (f for f in (1, 2, 3) if space.dim**f <= 2_000_000):
            got = scipy_csr(realize(series, space, fold))
            want = scipy_csr(literal_realize(series, space, fold))
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), (fold, name)


def test_realize_reuses_one_pattern_per_degree_and_fold():
    space = FockSpace(Alphabet(3), 4)
    rng = rng_for(0, "realize-pattern-cache")
    series = [random_series(rng, space.alphabet, d) for d in range(space.depth + 1)]
    for s in series:
        for fold in (1, 2):
            realize(s, space, fold)
    patterns = regular._realize_pattern.cache_info()
    tables = regular.word_shift.cache_info()
    for i in range(100):
        realize(series[i % len(series)], space, 1 + i % 2)
    assert regular._realize_pattern.cache_info().misses == patterns.misses
    after = regular.word_shift.cache_info()
    assert after.hits + after.misses == tables.hits + tables.misses


def test_every_lru_cache_is_bounded():
    # Walk every module of the package, classes included, for lru_cache wrappers.
    bounded = {}
    for info in pkgutil.iter_modules(fockhopf.__path__):
        module = importlib.import_module(f"fockhopf.{info.name}")
        scopes = [vars(module)] + [vars(c) for c in vars(module).values() if isinstance(c, type)]
        for scope in scopes:
            for name, obj in scope.items():
                if hasattr(obj, "cache_parameters"):
                    bounded[f"{info.name}.{name}"] = obj.cache_parameters()["maxsize"] is not None
    checks = ("coassociativity", "cocommutativity", "homomorphism", "integral")
    plans = {f"hopf._{check}_plan" for check in checks}
    required = {"regular._realize_pattern", "hopf._grouplike_words"}
    assert plans | required <= set(bounded)
    assert all(bounded.values()), sorted(name for name, ok in bounded.items() if not ok)


def test_realized_index_arrays_reject_writes():
    # A full-support series shares the cached pattern, a gapped one holds a
    # filtered copy; an in-place write to either must not reach the cache.
    space = FockSpace(Alphabet(2), 3)
    full = random_series(rng_for(0, "realize-read-only"), space.alphabet, 2)
    gapped = FourierSeries(space.alphabet, {w: c for w, c in full.items() if len(w) != 1})
    for series in (full, gapped):
        mat = scipy_csr(realize(series, space, fold=2))
        for arr in (mat.indices, mat.indptr):
            with pytest.raises(ValueError):
                arr[0] = arr[0]
    assert not any(arr.flags.writeable for arr in regular._realize_pattern(space, 2, 2))
    assert np.array_equal(
        scipy_csr(realize(full, space, 2)).indices, scipy_csr(literal_realize(full, space, 2)).indices
    )


# ---------------------------------------------------------------------------
# The realize pattern, the membership defect and the wandering mask against
# their per-word, dense and Word-list bodies.


def literal_realize_pattern(space, degree, fold):
    # One shift table per word, tensor-powered by index arithmetic, owned by
    # the word's basis index.
    rows, cols, ids = [], [], []
    for i, w in enumerate(space.words[: space._block_starts[degree + 1]]):
        table = literal_shift_index_table(space, w, "left")
        src = np.arange(table.size, dtype=np.int64)
        row, col = table, src
        for _ in range(fold - 1):
            row = (row[:, None] * space.dim + table[None, :]).ravel()
            col = (col[:, None] * space.dim + src[None, :]).ravel()
        rows.append(row)
        cols.append(col)
        ids.append(np.full(row.size, i, dtype=np.int32))
    owner = np.concatenate(ids)
    entries = (np.arange(owner.size), (np.concatenate(rows), np.concatenate(cols)))
    mat = sparse.csr_matrix(entries, shape=(space.dim**fold,) * 2)
    return mat.indptr, mat.indices, owner[mat.data]


@pytest.mark.parametrize("n,depth", GRID)
def test_realize_pattern_matches_per_word_literal(n, depth):
    space = FockSpace(Alphabet(n), depth)
    for fold in (f for f in (1, 2, 3) if space.dim**f <= 2_000_000):
        for degree in range(depth + 1):
            got = regular._realize_pattern.__wrapped__(space, degree, fold)
            want = literal_realize_pattern(space, degree, fold)
            for g, w in zip(got, want, strict=True):
                assert g.dtype == w.dtype and np.array_equal(g, w), (fold, degree)


def test_realize_pattern_is_built_at_its_final_size():
    # At (2, 7), fold 2 (the slice oracle's pattern) the three arrays take
    # 1.2 MiB; a COO -> CSR round trip through scipy peaked at 8.5 MiB.
    space = FockSpace(Alphabet(2), 7)
    tracemalloc.start()
    try:
        arrays = regular._realize_pattern.__wrapped__(space, 7, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(arr.nbytes for arr in arrays) < 1.3 * 2**20
    assert peak < 4.5 * 2**20, peak


def test_realize_pattern_reads_no_word_table():
    space = FockSpace(Alphabet(2), 6)
    tables = regular.word_shift.cache_info()
    regular._realize_pattern.__wrapped__(space, space.depth, 2)
    after = regular.word_shift.cache_info()
    assert "words" not in vars(space)
    assert after.hits + after.misses == tables.hits + tables.misses


def literal_dense_membership_defect(t):
    # Clear every graded.concat block of a dim x dim copy; what is left is off-pattern.
    space = t.domain
    dense = scipy_csr(t).toarray()
    coeff = dense[:, 0].copy()
    starts = space._block_starts
    on_pattern = 0.0
    for k, m in graded.splits(space.depth):
        ru, rw = np.ix_(np.arange(space.n**k), np.arange(space.n**m))
        rows, cols = graded.concat(space, k, ru, m, rw), starts[m] + rw
        mismatch = np.abs(dense[rows, cols] - coeff[starts[k] + ru])
        on_pattern = max(on_pattern, float(mismatch.max()))
        dense[rows, cols] = 0.0
    off_pattern = float(np.abs(dense).max(initial=0.0))
    return on_pattern + off_pattern


def _membership_cases(space, rng):
    # A realized series, the two rejected shifts, random sparse dyadic
    # matrices, and the series with one stored entry perturbed or deleted:
    # the vacuum entry a_e, then entries off the vacuum column (changing a_u
    # alone for a word u of top length would leave a member).
    realized = realize(random_series(rng, space.alphabet, space.depth), space)
    yield realized
    yield regular.left_shift(space, 1).adjoint()
    yield regular.right_shift(space, 1)
    for density in (0.01, 0.2):
        count = max(1, int(density * space.dim**2))
        rows, cols = rng.integers(0, space.dim, size=(2, count))
        yield Operator.from_entries(space, space, rows, cols, dyadic_complex(rng, count))
    mat = scipy_csr(realized)
    off_vacuum = np.flatnonzero(mat.indices != 0)
    for pos in [0, *rng.choice(off_vacuum, size=min(4, off_vacuum.size), replace=False)]:
        bumped, deleted = mat.copy(), mat.copy()
        bumped.data[pos] += 0.5
        deleted.data[pos] = 0.0
        deleted.eliminate_zeros()
        yield from_scipy(space, space, bumped)
        yield from_scipy(space, space, deleted)


@pytest.mark.parametrize("n,depth", GRID)
def test_membership_matches_dense_literal(n, depth):
    space = FockSpace(Alphabet(n), depth)
    rng = rng_for(depth, "membership-dense", n)
    defects = [
        (membership_defect(t), literal_dense_membership_defect(t))
        for t in _membership_cases(space, rng)
    ]
    assert all(got == want for got, want in defects), defects
    assert defects[0] == (0.0, 0.0)
    assert defects[1][0] > 0.0 and (n == 1 or defects[2][0] > 0.0)
    # Every random, perturbed or deleted case misses (realize stores no zero).
    assert all(got > 0.0 for got, _ in defects[3:])


def test_membership_defect_makes_no_dense_copy(monkeypatch):
    space = FockSpace(Alphabet(2), 11)
    realized = realize(random_series(rng_for(0, "membership-sparse"), space.alphabet, 11), space)
    stray = realized + Operator.from_entries(space, space, [5], [3], [0.25])  # xi_11 -> xi_21

    def refuse(self, *args, **kwargs):
        raise AssertionError("membership_defect densified its operator")

    for cls in (sparse.csr_matrix, sparse.csc_matrix, sparse.coo_matrix):
        monkeypatch.setattr(cls, "toarray", refuse)
        monkeypatch.setattr(cls, "todense", refuse)
    tracemalloc.start()
    try:
        assert membership_defect(realized) == 0.0
        assert membership_defect(stray) == 0.25
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20  # one dense copy is 4095^2 complex entries, 268 MB


def literal_wandering_mask(alphabet, k, depth):
    words = enumerate_words(alphabet, depth)
    first = np.array([w.letters[0] if len(w) else 0 for w in words], dtype=np.int16)
    grids = np.ix_(*([first] * k))
    blocked = grids[0] > 0
    for g in grids[1:]:
        blocked = blocked & (g == grids[0])
    return ~blocked


@pytest.mark.parametrize("n", [1, 2, 3])
def test_wandering_mask_matches_word_literal(n):
    alphabet = Alphabet(n)
    for depth in range(7):
        for k in (k for k in (1, 2, 3) if count_words(alphabet, depth) ** k <= 2_000_000):
            got = _wandering_mask(alphabet, k, depth)
            assert np.array_equal(got, literal_wandering_mask(alphabet, k, depth)), (depth, k)
    with pytest.raises(ValueError):
        _wandering_mask(alphabet, 2, -1)
    space = FockSpace(alphabet, 2)
    with pytest.raises(ValueError):  # a word index past the basis names no shift
        shifted_gram_defect(space, 2, _wandering_mask(alphabet, 2, 2), [space.dim])


def literal_cover_counts(space, k, mask):
    # One shift index table per word, its k-th tensor power scattered over the mask.
    counts = np.zeros(space.dim**k, dtype=np.int32)
    for w in space.words:
        table = literal_shift_index_table(space, w, "left")
        sub = mask[tuple([slice(0, table.size)] * k)]
        linear = np.ravel_multi_index(np.ix_(*([table] * k)), (space.dim,) * k)
        np.add.at(counts, linear[sub].ravel(), 1)
    return counts


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cover_counts_match_word_loop(n):
    alphabet = Alphabet(n)
    rng = rng_for(n, "cover-counts")
    for depth in range(5):
        space = FockSpace(alphabet, depth)
        for k in (k for k in (2, 3) if space.dim**k <= 300_000):
            # The wandering mask covers each tuple once; a random one covers some twice.
            for mask in (_wandering_mask(alphabet, k, depth), rng.random((space.dim,) * k) < 0.5):
                got = _cover_counts(space, k, mask)
                assert got.dtype == np.min_scalar_type(depth + 1)
                assert np.array_equal(got, literal_cover_counts(space, k, mask)), (depth, k)


def test_cover_counts_stay_exact_past_one_byte():
    # At n = 1 every tuple of a^i and a^j has the min(i, j) + 1 common
    # prefixes a^0 .. a^min(i, j), so an all-True mask hits (a^300, a^300)
    # 301 times: one byte would wrap there.
    space = FockSpace(Alphabet(1), 300)
    mask = np.ones((space.dim,) * 2, dtype=bool)
    got = _cover_counts(space, 2, mask)
    want = literal_cover_counts(space, 2, mask)
    assert got.dtype == np.uint16
    lengths = np.arange(space.dim)
    assert np.array_equal(want.reshape(mask.shape), np.minimum.outer(lengths, lengths) + 1)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cover_counts_across_slice_boundaries(n, monkeypatch):
    # At the default slice no row of these points is split; slices of at
    # most 7 tuples (or one last-axis line) end inside the length blocks of
    # the leading components.
    monkeypatch.setattr(wandering, "COVER_SLICE", 7)
    test_cover_counts_match_word_loop(n)


def test_cover_counts_scatter_in_bounded_slices():
    # At (3, 4) with k = 3 the linear indices of the vacuum row's full grid
    # would take 13.5 MiB; the counts themselves take 6.75 MiB.
    space = FockSpace(Alphabet(3), 4)
    mask = _wandering_mask(space.alphabet, 3, space.depth)
    tracemalloc.start()
    try:
        counts = _cover_counts(space, 3, mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.min() == counts.max() == 1
    assert peak < 12 * 2**20, peak


@pytest.mark.parametrize("n,depth", [(2, 3), (1, 300)])
def test_cover_counts_scatter_an_increment_of_their_dtype(n, depth, monkeypatch):
    # np.add.at takes its fast path only when the increment has the counts'
    # dtype; with a Python 1 the k = 3 check at (2, 7) ran over ten times slower.
    increments = []

    def add_at(counts, indices, increment):
        increments.append((counts.dtype, np.asarray(increment).dtype))
        np.add.at(counts, indices, increment)

    class Numpy:
        add = SimpleNamespace(at=add_at)

        def __getattr__(self, name):
            return getattr(np, name)

    monkeypatch.setattr(wandering, "np", Numpy())
    space = FockSpace(Alphabet(n), depth)
    _cover_counts(space, 2, np.ones((space.dim,) * 2, dtype=bool))
    assert increments and all(have == want for want, have in increments), increments


def test_wandering_dims_by_depth_read_the_leading_blocks(monkeypatch):
    # The depth-d mask is the leading start[d + 1] block of each axis of the
    # depth mask.  The cover is checked above, so it is stubbed out here.
    monkeypatch.setattr(wandering, "_cover_counts", lambda space, k, mask: np.ones(1, dtype=np.uint8))
    monkeypatch.setattr(wandering, "GRAM_LIMIT", 0)
    for n, depth in GRID:
        alphabet = Alphabet(n)
        for k in (2, 3):
            report = wandering.wandering_check(alphabet, k, depth)
            want = [wandering.wandering_dim(alphabet, k, d) for d in range(1, depth + 1)]
            assert report.dims_by_depth == want, (n, depth, k)


def literal_legwise_columns(family, space, family_leg, columns):
    # One shift table and one column gather of family[w] per family word.
    shape = (space.dim,) * 3
    parts = np.unravel_index(columns, shape)
    shift_legs = [leg for leg in range(3) if leg != family_leg]
    rows, cols = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    vals = [np.empty(0, dtype=np.complex128)]
    for w, op in family.items():
        table = literal_shift_index_table(space, w, "left")
        keep = np.flatnonzero(np.all([parts[leg] < table.size for leg in shift_legs], axis=0))
        block = scipy_csr(op).tocsc()[:, parts[family_leg][keep]]
        counts = np.diff(block.indptr)
        legs = {leg: np.repeat(table[parts[leg][keep]], counts) for leg in shift_legs}
        legs[family_leg] = block.indices
        rows.append(np.ravel_multi_index(tuple(legs[leg] for leg in range(3)), shape))
        cols.append(np.repeat(keep, counts))
        vals.append(block.data)
    mat = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(space.dim**3, len(columns)),
    )
    return mat.tocsc()


# Triple tensor powers are materialized here, so only the small grid points.
SMALL_GRID = [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (3, 2)]


@pytest.mark.parametrize("n,depth", SMALL_GRID)
@given(seed=SEEDS)
@settings(max_examples=3, deadline=None)
def test_coassociativity_routes_match_materialized_triple(n, depth, seed):
    space = FockSpace(Alphabet(n), depth)
    rng = rng_for(seed, "graded-coassociativity")
    series = random_series(rng, space.alphabet, int(rng.integers(0, depth + 1)), bits=EXACT_BITS)
    triple = scipy_csr(comult(series, space, fold=3)).tocsc()
    delta = comult(series, space, fold=2)
    first = vacuum_leg_decomposition(delta, leg=1)
    second = vacuum_leg_decomposition(delta, leg=2)
    # Delta(A) is exact on its vacuum columns, so every route matches the
    # triple on every column, not only on the safe zone.
    every = np.arange(space.dim**3)
    for cols in (every, within(space, depth - series.degree, fold=3)):
        shape = (space.dim**3, cols.size)
        for route in (
            entries_csc(_comult_columns(series, space, 3, cols), shape),
            entries_csc(_legwise_columns(delta, space, family_leg=2, columns=cols), shape),
            entries_csc(_legwise_columns(delta, space, family_leg=0, columns=cols), shape),
            literal_legwise_columns(first, space, family_leg=2, columns=cols),
            literal_legwise_columns(second, space, family_leg=0, columns=cols),
        ):
            assert (route != triple[:, cols]).nnz == 0


def test_index_routes_build_at_most_the_reversal(monkeypatch):
    # The word table of a space is built once, at the API edge; past it the
    # index routes construct no Word except the reversal of a right shift,
    # and the series paths construct none at all.
    space = FockSpace(Alphabet(2), 7)
    space.words
    w = Word((1, 2, 2))
    realized = realize(FourierSeries(space.alphabet, {w: 1.0, Word((2,)): 0.5}), space)
    rep = PredualRep.character(space, w)
    rng = rng_for(0, "series-guard")
    s, t = (random_series(rng, space.alphabet, 2, bits=EXACT_BITS) for _ in range(2))
    one = basis_vector(SCALAR_SPACE, 0)
    f = random_rank_one_functional(rng, space)
    built = []
    honest = words.Word.__post_init__

    def counting(self):
        built.append(self)
        honest(self)

    regular.word_shift.cache_clear()
    monkeypatch.setattr(words.Word, "__post_init__", counting)
    for build, limit in (
        (lambda: word_shift(space, w, "left"), 1),
        (lambda: word_shift(space, w, "right"), 1),
        (lambda: membership_defect(realized), 0),
        (lambda: regular._realize_pattern.__wrapped__(space, space.depth, 2), 0),
        (lambda: _wandering_mask(space.alphabet, 2, 5), 0),
        (lambda: fundamental_corep(space), 1),
        (lambda: corep_from_rep(rep, space), 1),
        (lambda: s * t, 0),
        (lambda: s + t, 0),
        (lambda: cesaro_sum(s, 5), 0),
        (lambda: random_series(rng, space.alphabet, 3), 0),
        (lambda: fourier_coefficients(realized), 0),
        (lambda: coefficient_operator(rep, one, one), 0),
        (lambda: homomorphism_defect(s, t, space), 0),
        (lambda: counit_defect(f), 0),
        (lambda: point_functional(space, (0.5, 0.25j)), 0),
        (lambda: tensor_product_rep(rep, rep), 0),
    ):
        built.clear()
        build()
        assert len(built) <= limit


def test_coassociativity_and_evaluate_build_one_operator(monkeypatch):
    # The coefficient families are read off one vacuum block, so past Delta(A)
    # of the tagged series the coassociativity plan builds no Operator, a
    # trial on the cached plan builds none at all, and evaluating a
    # representation assembles its single image directly.
    space = FockSpace(Alphabet(3), 4)
    rng = rng_for(0, "operator-guard")
    series = random_series(rng, space.alphabet, 2, bits=EXACT_BITS)
    rep = rep_from_corep(fundamental_corep(space))
    f = random_rank_one_functional(rng, space)
    built = []
    honest = Operator.__post_init__

    def counting(self):
        built.append(self)
        honest(self)

    hopf._coassociativity_plan.cache_clear()
    monkeypatch.setattr(Operator, "__post_init__", counting)
    coassociativity = lambda: coassociativity_defect(series, space)  # noqa: E731
    for run, count in ((coassociativity, 1), (coassociativity, 0), (lambda: rep.evaluate(f), 1)):
        built.clear()
        run()
        assert len(built) == count
