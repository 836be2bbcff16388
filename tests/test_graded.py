"""The graded block kernel against the literal Word-loop route.

The reference implementations below are the word-by-word definitions, looked
up through ``Word.concat`` and ``FockSpace.index_of``: the rank-one values
(L_w xi, eta) summed over u as xi_u conj(eta_wu), the predual comultiplication
(u, v) -> phi(L_uv), the shift tables and word operators, the membership
pattern, the fundamental corepresentation, the bilinear assembly of
``corep_from_rep``, and the series product and Cesaro sums over word-keyed
coefficients.  The per-word realize pattern, the dense membership defect and
the Word-list wandering mask are kept as the bodies they replaced.  The kernel sums in a different order, so it must agree
bit for bit on dyadic inputs, where every sum is exact, and to within
rounding on general ones; index placements must agree exactly.
"""

import importlib
import math
import pkgutil
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

import fockhopf
from fockhopf import graded, hopf, predual, regular, verify, words
from fockhopf.corep import (
    SCALAR_SPACE,
    PredualRep,
    coefficient_operator,
    corep_from_rep,
    fundamental_corep,
    rep_from_corep,
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
    cesaro_error_bound,
    cesaro_sum,
    fourier_coefficients,
    membership_defect,
    realize,
    shift_index_table,
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
    basis_vector,
    max_entry_diff,
    tensor_op,
    tensor_space,
    vacuum_leg_decomposition,
)
from fockhopf.wandering import _wandering_mask, isometry_on_wandering_defect
from fockhopf.verify import (
    SuiteConfig,
    _cesaro_error_vectors,
    _slice_oracle_defect,
    _slice_oracle_entries,
)
from fockhopf.words import Alphabet, Word, count_words, enumerate_words

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


def _oracle_inputs(space, seed):
    rng = rng_for(seed, "slice-oracle")
    f = random_rank_one_functional(rng, space)
    g = random_rank_one_functional(rng, space)
    (xi1, eta1), (xi2, eta2) = f.provenance[0], g.provenance[0]
    conv = predual.convolve(f, g)
    return conv.values, np.kron(xi1.data, xi2.data), np.kron(eta1.data, eta2.data)


@pytest.mark.parametrize("n,depth", [(1, 3), (2, 3), (3, 2)])
def test_batched_slice_oracle_matches_per_word_matvec(n, depth):
    from fockhopf.hopf import comult
    from fockhopf.regular import FourierSeries

    space = FockSpace(Alphabet(n), depth)
    entries = _slice_oracle_entries(space)
    _, xx, ee = _oracle_inputs(space, 1)
    per_word = np.array([
        np.vdot(ee, comult(FourierSeries.indicator(space.alphabet, w), space).matrix @ xx)
        for w in space.words
    ])
    assert _slice_oracle_defect(entries, per_word, xx, ee) <= 1e-12


def literal_slice_oracle_entries(space):
    # One comultiplication per word, concatenated in basis order.
    indicators = (FourierSeries.indicator(space.alphabet, w) for w in space.words)
    images = [comult(s, space).matrix.tocoo() for s in indicators]
    offsets = np.cumsum([0] + [m.nnz for m in images[:-1]])
    return (
        np.concatenate([m.row for m in images]),
        np.concatenate([m.col for m in images]),
        np.concatenate([m.data for m in images]),
        offsets,
    )


@pytest.mark.parametrize("n,depth", GRID)
def test_slice_oracle_entries_match_per_word_comult(n, depth):
    space = FockSpace(Alphabet(n), depth)
    rows, cols, data, offsets = literal_slice_oracle_entries(space)
    assert np.all(data == 1.0)  # the tagged route returns no values
    tagged = _slice_oracle_entries(space)
    assert len(tagged) == 3
    for got, want in zip(tagged, (rows, cols, offsets)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("first,second", [(1, 2), (-2, -1)])
def test_slice_oracle_entries_reject_merged_words(monkeypatch, first, second):
    # A comultiplication that also lands the first word's image on the second
    # word's entries: the sum is either some other word's tag, so the entry
    # counts break, or no tag at all.
    space = FockSpace(Alphabet(2), 3)
    honest = hopf.comult

    def merged(series, space, fold=2):
        u, v = space.words[first], space.words[second]
        extra = FourierSeries(series.alphabet, {v: series.coefficient(u)})
        return honest(series, space, fold) + honest(extra, space, fold)

    monkeypatch.setattr(hopf, "comult", merged)
    with pytest.raises(ValueError):
        _slice_oracle_entries(space)


def test_slice_oracle_catches_each_perturbed_convolution_value():
    cfg = SuiteConfig(n=2, depth=3)
    space = cfg.space
    entries = _slice_oracle_entries(space)
    values, xx, ee = _oracle_inputs(space, 2)
    assert _slice_oracle_defect(entries, values, xx, ee) <= cfg.tolerance
    for i in range(space.dim):
        bad = values.copy()
        bad[i] += 1e-6
        assert _slice_oracle_defect(entries, bad, xx, ee) > cfg.tolerance


# ---------------------------------------------------------------------------
# Series arithmetic: the graded Cauchy product and the Cesaro weights against
# the word-keyed definitions.


def literal_product(s, t):
    out = {}
    for u, a in s.items():
        for v, b in t.items():
            w = u.concat(v)
            out[w] = out.get(w, 0j) + a * b
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
    return kinds + [FourierSeries.zero(space.alphabet), FourierSeries(space.alphabet, top)]


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
    for bits in (EXACT_BITS, FINE_BITS):
        kinds = series_kinds(rng, space, bits)
        for s in kinds:
            for t in kinds:
                if s * t != literal_product(s, t):
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


# ---------------------------------------------------------------------------
# The Cesaro differences: nine realized partial sums against one stacked matvec.


def literal_cesaro_error_vectors(s, space, x):
    a = realize(s, space)
    return np.array([
        (realize(regular.cesaro_sum(s, k), space).matrix - a.matrix) @ x for k in range(4, 13)
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
        check(cfg, rng_for(0, "word-budget"))
    built = []
    honest = words.Word.__post_init__

    def counting(self):
        built.append(self)
        honest(self)

    monkeypatch.setattr(words.Word, "__post_init__", counting)
    for check in checks:
        built.clear()
        check(cfg, rng_for(0, "word-budget"))
        assert len(built) == 0


def test_predual_comult_check_catches_an_extra_support_pair(monkeypatch):
    # Only indicator functionals are perturbed, so the random-functional
    # defects stay 0 and the failure comes from the support read off the blocks.
    cfg = SuiteConfig(n=2, depth=3)
    assert verify._chk_predual_comult(cfg, rng_for(0, "support"))[0] == 0.0
    honest = predual.predual_comult

    def extra_pair(f):
        split = honest(f)
        if np.count_nonzero(f.values) != 1:
            return split
        blocks = dict(split.blocks)
        blocks[(0, 1)] = blocks[(0, 1)] + 1.0
        return predual.TensorFunctional(f.space, blocks)

    monkeypatch.setattr(predual, "predual_comult", extra_pair)
    assert verify._chk_predual_comult(cfg, rng_for(0, "support"))[0] == 1.0


# ---------------------------------------------------------------------------
# Shifts, membership and corepresentation assembly: the Word-loop references.


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
    dense = t.matrix.toarray()
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
            rows.append(pair.index_of((v.concat(u), v)))
            cols.append(pair.index_of((u, v)))
    return Operator.from_entries(pair, pair, rows, cols, np.ones(len(rows)))


def literal_corep_from_rep(rep, space):
    pair = tensor_space(space, rep.aux)
    dk = rep.aux.dim
    rows, cols, vals = [], [], []
    for u, pu in rep.family.items():
        coo = pu.matrix.tocoo()
        for a in space.words:
            if len(u) + len(a) > space.depth:
                break
            rows.extend(space.index_of(u.concat(a)) * dk + coo.row)
            cols.extend(space.index_of(a) * dk + coo.col)
            vals.extend(coo.data)
    return Operator.from_entries(pair, pair, rows, cols, vals)


def same_operator(a, b):
    return a.domain == b.domain and a.codomain == b.codomain and (a.matrix != b.matrix).nnz == 0


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
        table = shift_index_table(space, w, side)
        assert table.dtype == np.int64 and np.array_equal(table, literal)
        assert same_operator(word_shift(space, w, side), literal_word_shift(space, w, side))


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
        kron = sparse.csr_matrix((target.dim, target.dim), dtype=np.complex128)
        for w, c in series.items():
            kron = kron + c * tensor_op(*([literal_word_shift(space, w, "left")] * fold)).matrix
        realized = realize(series, space, fold)
        assert realized.domain == realized.codomain == target
        assert (realized.matrix != kron).nnz == 0


def literal_realize(series, space, fold=1):
    # One shift table per series word, tensor-powered by index arithmetic,
    # then one COO -> CSR assembly of the concatenated entries.
    target = space if fold == 1 else tensor_space(*([space] * fold))
    rows, cols, vals = [], [], []
    for w, c in series.items():
        table = shift_index_table(space, w)
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
    yield FourierSeries.zero(space.alphabet)


@pytest.mark.parametrize("n,depth", GRID)
def test_realize_matches_literal_csr_arrays(n, depth):
    space = FockSpace(Alphabet(n), depth)
    rng = rng_for(depth, "realize-literal", n)
    for series in _realize_cases(space, rng):
        # The (2, 7) triple power has 255^3 rows, too many to build twice.
        for fold in (f for f in (1, 2, 3) if space.dim**f <= 2_000_000):
            got = realize(series, space, fold).matrix
            want = literal_realize(series, space, fold).matrix
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
    tables = regular.shift_index_table.cache_info()
    for i in range(100):
        realize(series[i % len(series)], space, 1 + i % 2)
    assert regular._realize_pattern.cache_info().misses == patterns.misses
    after = regular.shift_index_table.cache_info()
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
    required = {"regular._realize_pattern", "spaces.flip_operator", "hopf._grouplike_words"}
    assert plans | required <= set(bounded)
    assert all(bounded.values()), sorted(name for name, ok in bounded.items() if not ok)


def test_realized_index_arrays_reject_writes():
    # A full-support series shares the cached pattern, a gapped one holds a
    # filtered copy; an in-place write to either must not reach the cache.
    space = FockSpace(Alphabet(2), 3)
    full = random_series(rng_for(0, "realize-read-only"), space.alphabet, 2)
    gapped = FourierSeries(space.alphabet, {w: c for w, c in full.items() if len(w) != 1})
    for series in (full, gapped):
        mat = realize(series, space, fold=2).matrix
        for arr in (mat.indices, mat.indptr):
            with pytest.raises(ValueError):
                arr[0] = arr[0]
    assert not any(arr.flags.writeable for arr in regular._realize_pattern(space, 2, 2))
    assert np.array_equal(
        realize(full, space, 2).matrix.indices, literal_realize(full, space, 2).matrix.indices
    )


# ---------------------------------------------------------------------------
# The realize pattern, the membership defect and the wandering mask against
# their per-word, dense and Word-list bodies.


def literal_realize_pattern(space, degree, fold):
    # One shift table per word, tensor-powered by index arithmetic, owned by
    # the word's basis index.
    rows, cols, ids = [], [], []
    for i, w in enumerate(space.words[: space._block_starts[degree + 1]]):
        table = shift_index_table(space, w)
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


def test_realize_pattern_reads_no_word_table():
    space = FockSpace(Alphabet(2), 6)
    tables = regular.shift_index_table.cache_info()
    regular._realize_pattern.__wrapped__(space, space.depth, 2)
    after = regular.shift_index_table.cache_info()
    assert "words" not in vars(space)
    assert after.hits + after.misses == tables.hits + tables.misses


def literal_dense_membership_defect(t):
    # Clear every graded.concat block of a dim x dim copy; what is left is off-pattern.
    space = t.domain
    dense = t.matrix.toarray()
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
    mat = realized.matrix
    off_vacuum = np.flatnonzero(mat.indices != 0)
    for pos in [0, *rng.choice(off_vacuum, size=min(4, off_vacuum.size), replace=False)]:
        bumped, deleted = mat.copy(), mat.copy()
        bumped.data[pos] += 0.5
        deleted.data[pos] = 0.0
        deleted.eliminate_zeros()
        yield Operator(space, space, bumped)
        yield Operator(space, space, deleted)


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
    with pytest.raises(ValueError):  # |w| > depth leaves no wandering span to shift
        isometry_on_wandering_defect(alphabet, 2, 2, Word((1, 1, 1)))


def literal_legwise_columns(family, space, family_leg, columns):
    # One shift table and one column gather of family[w] per family word.
    shape = (space.dim,) * 3
    parts = np.unravel_index(columns, shape)
    shift_legs = [leg for leg in range(3) if leg != family_leg]
    rows, cols = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    vals = [np.empty(0, dtype=np.complex128)]
    for w, op in family.items():
        table = shift_index_table(space, w)
        keep = np.flatnonzero(np.all([parts[leg] < table.size for leg in shift_legs], axis=0))
        block = op.matrix.tocsc()[:, parts[family_leg][keep]]
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
    triple = comult(series, space, fold=3).matrix.tocsc()
    delta = comult(series, space, fold=2)
    first = vacuum_leg_decomposition(delta, leg=1)
    second = vacuum_leg_decomposition(delta, leg=2)
    # Delta(A) is exact on its vacuum columns, so every route matches the
    # triple on every column, not only on the safe zone.
    every = np.arange(space.dim**3)
    for cols in (every, within(space, depth - series.degree, fold=3)):
        for route in (
            _comult_columns(series, space, 3, cols),
            _legwise_columns(delta, space, family_leg=2, columns=cols),
            _legwise_columns(delta, space, family_leg=0, columns=cols),
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

    regular.shift_index_table.cache_clear()
    regular.word_shift.cache_clear()
    monkeypatch.setattr(words.Word, "__post_init__", counting)
    for build, limit in (
        (lambda: shift_index_table(space, w, "left"), 1),
        (lambda: shift_index_table(space, w, "right"), 1),
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
