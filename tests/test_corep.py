import tracemalloc
from dataclasses import FrozenInstanceError
from functools import reduce

import numpy as np
import pytest
from scipy import sparse

from fockhopf import corep, graded, verify
from fockhopf.corep import (
    SCALAR_SPACE,
    Corepresentation,
    PredualRep,
    characters,
    coefficient_operator,
    corep_check,
    corep_from_rep,
    criterion_defect,
    fundamental_corep,
    fundamental_intertwining_defect,
    fundamental_right_commutation_defect,
    idempotent_family_defect,
    leg_identity_defect,
    rep_from_corep,
    shift_tensor_sum,
    spectrum,
    tensor_product_rep,
)
from fockhopf.hopf import grouplike_series
from fockhopf.predual import convolve
from fockhopf.regular import FourierSeries, membership_defect, realize, word_shift
from fockhopf.sampling import (
    EXACT_BITS,
    dyadic_complex,
    random_rank_one_functional,
    random_vector,
    rng_for,
)
from fockhopf.spaces import (
    AuxSpace,
    FockSpace,
    Operator,
    StackedFamily,
    TensorSpace,
    _worst_defect,
    basis_vector,
    coo_sum,
    max_entry_diff,
    tensor_space,
)
from fockhopf.verify import SuiteConfig
from fockhopf.words import Alphabet, Word, count_words, word

from leg_reference import kron, leg_embed, slice_left
from scipy_oracle import assert_same_arrays, from_scipy, max_abs, scipy_csr

A2 = Alphabet(2)
H3 = FockSpace(A2, 3)
# Every point of ``verify --full`` plus the deep (2, 7) point.
GRID = [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (2, 5), (2, 7)]


def test_fundamental_action():
    w_corep = fundamental_corep(H3)
    pair = w_corep.space

    def at(u, v):
        return basis_vector(pair, H3.index_of(u) * H3.dim + H3.index_of(v))

    out = w_corep.operator.apply(at(word(1), word(2)))
    assert np.array_equal(out.data, at(word(2, 1), word(2)).data)
    # total length beyond the depth is annihilated
    killed = w_corep.operator.apply(at(word(1, 1), word(2, 2)))
    assert not killed.data.any()


def test_fundamental_family_is_word_projections():
    w_corep = fundamental_corep(H3)
    for v, b in w_corep.family.items():
        expected = Operator.from_entries(H3, H3, [H3.index_of(v)], [H3.index_of(v)], [1.0])
        assert max_entry_diff(b, expected) == 0.0
    assert set(w_corep.family) == set(H3.words)


def test_fundamental_family_matches_slices():
    w_corep = fundamental_corep(H3)
    vac = basis_vector(H3, Word())
    for v in H3.words[:6]:
        sliced = slice_left([(vac, basis_vector(H3, v))], w_corep.operator)
        assert max_entry_diff(sliced, w_corep.family[v]) == 0.0


def test_fundamental_passes_all_checks():
    report = corep_check(fundamental_corep(H3))
    assert report.reconstruction_defect == 0.0
    assert report.criterion_defect == 0.0
    assert report.leg_defect == 0.0


def test_fundamental_isometric_within_depth():
    w_corep = fundamental_corep(H3)
    gram = scipy_csr(w_corep.operator.adjoint() @ w_corep.operator).toarray()
    pair = w_corep.space
    for i in range(pair.dim):
        u, v = divmod(i, H3.dim)
        expected = 1.0 if H3.lengths[u] + H3.lengths[v] <= H3.depth else 0.0
        assert gram[i, i] == expected
    off = gram - np.diag(np.diag(gram))
    assert not off.any()


def test_fundamental_intertwining():
    for w in [word(1), word(2), word(1, 2), word(2, 2, 1)]:
        assert fundamental_intertwining_defect(H3, w) == 0.0


def test_fundamental_right_commutation():
    for u in [word(1), word(2), word(2, 1), word(1, 1, 2)]:
        assert fundamental_right_commutation_defect(H3, u) == 0.0


def test_character_corep_is_word_operator():
    for w in H3.words:
        char = PredualRep.character(H3, w)
        v = corep_from_rep(char, H3)
        expected = kron(word_shift(H3, w, "left"), Operator.identity(SCALAR_SPACE))
        assert max_entry_diff(v.operator, expected) == 0.0
        report = corep_check(v)
        assert report.max_defect == 0.0


def test_rep_from_fundamental_acts_diagonally():
    rep = rep_from_corep(fundamental_corep(H3))
    rng = rng_for(0, "corep-action")
    f = random_rank_one_functional(rng, H3)
    image = scipy_csr(rep.evaluate(f)).toarray()
    expected = np.diag([f.value(u) for u in H3.words])
    assert np.allclose(image, expected, atol=1e-13)


def test_roundtrip_through_rep_and_back():
    w_corep = fundamental_corep(H3)
    rep = rep_from_corep(w_corep)
    back = corep_from_rep(rep, H3)
    assert max_entry_diff(back.operator, w_corep.operator) == 0.0
    rep2 = rep_from_corep(back)
    for u in H3.words:
        assert max_entry_diff(component(rep2, u), component(rep, u)) == 0.0


def test_zero_rep_gives_zero_corep():
    zero_rep = PredualRep(H3, SCALAR_SPACE, {})
    v = corep_from_rep(zero_rep, H3)
    assert v.operator.nnz == 0
    assert not v.family


def test_rep_multiplicativity():
    rep = rep_from_corep(fundamental_corep(H3))
    rng = rng_for(0, "corep-mult")
    for _ in range(25):
        f = random_rank_one_functional(rng, H3)
        g = random_rank_one_functional(rng, H3)
        lhs = rep.evaluate(convolve(f, g))
        rhs = rep.evaluate(f) @ rep.evaluate(g)
        assert max_entry_diff(lhs, rhs) <= 1e-12


def test_corrupted_sum_fails_criterion():
    ident = Operator.identity(H3)
    bad = kron(word_shift(H3, word(1)), ident) + kron(word_shift(H3, word(2)), ident)
    report = corep_check(bad)
    assert report.reconstruction_defect == 0.0
    assert report.criterion_defect == 1.0
    with pytest.raises(ValueError):
        rep_from_corep(Corepresentation.from_operator(bad))


def test_non_decomposable_operator_fails_reconstruction():
    # The right shift tensored with the identity reads columns outside the
    # vacuum block, so the sliced family cannot rebuild it; the leg identity
    # sees the same junk even though the extracted family is idempotent.
    ident = Operator.identity(H3)
    v = kron(word_shift(H3, word(1), "right"), ident)
    report = corep_check(v)
    assert report.reconstruction_defect > 0.0
    assert report.criterion_defect == 0.0
    assert report.leg_defect > 0.0


def test_decomposable_but_not_corep():
    # Reconstruction can vanish while the idempotent criterion fails; the
    # criterion is what detects such artifacts, on or off the safe zone.
    aux = FockSpace(A2, 1)
    family = {
        Word(): 2.0 * Operator.identity(aux),
        word(1): Operator.from_dense(aux, aux, np.full((3, 3), 0.5)),
    }
    total = Operator.zero(tensor_space(H3, aux))
    for w, b in family.items():
        total = total + kron(word_shift(H3, w, "left"), b)
    report = corep_check(total)
    assert report.reconstruction_defect == 0.0
    assert report.criterion_defect >= 2.0


def test_leg_identity_equivalence_with_criterion():
    # Defect (c) vanishes exactly when the family criterion does.
    good = fundamental_corep(H3)
    assert leg_identity_defect(good) == 0.0 and criterion_defect(good) == 0.0
    ident = Operator.identity(H3)
    bad = kron(word_shift(H3, word(1)), ident) + kron(word_shift(H3, word(2)), ident)
    bad_corep = Corepresentation.from_operator(bad)
    assert criterion_defect(bad_corep) > 0.0
    assert leg_identity_defect(bad_corep) > 0.0


def test_three_defects_agree_on_random_valid_and_corrupted_inputs():
    # A random family of pairwise-disjoint word projections is a valid
    # corepresentation; flipping one projection into a non-idempotent breaks
    # (b) and (c) together while (a) stays zero.
    rng = rng_for(0, "corep-random-valid")
    aux = FockSpace(A2, 1)
    for _ in range(5):
        picks = rng.permutation(aux.dim)
        family = {}
        for w, p in zip(rng.permutation(len(H3.words))[:3], picks):
            family[H3.words[int(w)]] = Operator.from_entries(
                aux, aux, [int(p)], [int(p)], [1.0]
            )
        valid = Operator.zero(tensor_space(H3, aux))
        for w, b in family.items():
            valid = valid + kron(word_shift(H3, w, "left"), b)
        report = corep_check(valid)
        assert report.reconstruction_defect == 0.0
        assert report.criterion_defect == 0.0
        assert report.leg_defect == 0.0

        corrupt = dict(family)
        some_word = next(iter(corrupt))
        corrupt[some_word] = 2.0 * corrupt[some_word]
        broken = Operator.zero(tensor_space(H3, aux))
        for w, b in corrupt.items():
            broken = broken + kron(word_shift(H3, w, "left"), b)
        report = corep_check(broken)
        assert report.reconstruction_defect == 0.0
        assert report.criterion_defect > 0.0
        assert report.leg_defect > 0.0


def test_rep_law_validation():
    aux = FockSpace(A2, 1)
    with pytest.raises(ValueError):
        PredualRep(H3, aux, {Word(): 2.0 * Operator.identity(aux)})
    ok = PredualRep(H3, aux, {Word(): Operator.identity(aux)})
    assert ok.law_defect == 0.0


def test_a_nan_family_is_not_a_representation():
    # law_defect > tol is False for a NaN defect, which let a NaN family through.
    nan = Operator.from_entries(SCALAR_SPACE, SCALAR_SPACE, [0], [0], [np.nan])
    with pytest.raises(ValueError, match="representation law"):
        PredualRep(H3, SCALAR_SPACE, {Word(): nan})


def test_a_nan_reconstruction_is_not_a_corepresentation(monkeypatch):
    monkeypatch.setattr(corep, "_reconstruction_defect", lambda c: np.nan)
    with pytest.raises(ValueError, match="not a corepresentation"):
        rep_from_corep(fundamental_corep(H3))


def test_a_nan_defect_is_the_worst_corep_defect(monkeypatch):
    assert np.isnan(corep.CorepReport(0.0, np.nan, 0.0).max_defect)
    monkeypatch.setattr(corep, "idempotent_family_defect", lambda family: np.nan)
    config = SuiteConfig(n=2, depth=2)
    (check,) = [c for c in verify.build_checks(config) if c.name == "fundamental_corep"]
    row = check.run()
    assert np.isnan(row["defect"]) and row["pass"] is False


def test_idempotent_family_defect_batching():
    # Batched computation matches the obvious pairwise loop.
    aux = FockSpace(A2, 1)
    rng = rng_for(0, "idempotent")
    family = {}
    for w in H3.words[:5]:
        m = rng.standard_normal((aux.dim, aux.dim))
        family[w] = Operator.from_dense(aux, aux, m)
    naive = 0.0
    for u, bu in family.items():
        for v, bv in family.items():
            target = bu if u == v else Operator.zero(aux)
            naive = _worst_defect((naive, max_entry_diff(bu @ bv, target)))
    stacked = StackedFamily.from_members(H3, aux, family)
    assert idempotent_family_defect(stacked) == pytest.approx(naive, rel=1e-12)


def literal_idempotent_family_defect(family, aux):
    # One sparse multiply per left factor against the stacked family.
    items = [(w, scipy_csr(op)) for w, op in family.items() if op.nnz]
    if not items:
        return 0.0
    dk = aux.dim
    stacked = sparse.hstack([mat for _, mat in items], format="csc")
    worst = 0.0
    for pos, (_, mat) in enumerate(items):
        products = (mat @ stacked).tocsr()
        mcoo = mat.tocoo()
        target = sparse.coo_matrix(
            (mcoo.data, (mcoo.row, mcoo.col + pos * dk)), shape=products.shape
        ).tocsr()
        worst = _worst_defect((worst, max_abs(products - target)))
    return worst


def literal_vstack_idempotent_defect(family, aux):
    # One sparse multiply: block (u, v) of vstack(F) @ hstack(F) is F_u F_v.
    mats = [scipy_csr(op) for op in family.values() if op.nnz]
    if not mats:
        return 0.0
    products = sparse.vstack(mats, format="csr") @ sparse.hstack(mats, format="csr")
    return max_abs(products - sparse.block_diag(mats, format="csr"))


def literal_shift_tensor_sum(fock, aux, family, copies=1):
    # One Kronecker product per member word.
    space = tensor_space(*([fock] * copies), aux)
    terms = []
    for w, b in family.items():
        shift = scipy_csr(word_shift(fock, w, "left"))
        terms.append(sparse.kron(reduce(sparse.kron, [shift] * copies), scipy_csr(b), format="coo"))
    return coo_sum(space, [t.row for t in terms], [t.col for t in terms], [t.data for t in terms])


def same_operator(a, b):
    return a.domain == b.domain and a.codomain == b.codomain and (scipy_csr(a) != scipy_csr(b)).nnz == 0


def same_family_entries(a, b):
    return all(np.array_equal(getattr(a, arr), getattr(b, arr)) for arr in ("word", "row", "col", "val"))


def component(rep, w):
    # The member at w, or zero where the family stores nothing.
    return rep.family[w] if w in rep.family else Operator.zero(rep.aux)


def _families(space, seed=0):
    # (name, word-keyed family, aux): the fundamental family, the same with
    # one member doubled or an extra off-diagonal entry, every character,
    # random dense families (dyadic, with and without zero members, real and
    # complex Gaussian), and the empty family.
    rng = rng_for(seed, "corep-families", space.n, space.depth)
    corep = fundamental_corep(space)
    fundamental = dict(corep.family)
    yield "fundamental", fundamental, corep.aux
    words = list(fundamental)
    doubled = dict(fundamental)
    doubled[words[len(words) // 2]] = 2.0 * doubled[words[len(words) // 2]]
    yield "doubled", doubled, corep.aux
    bumped = dict(fundamental)
    stray = Operator.from_entries(corep.aux, corep.aux, [0], [corep.aux.dim - 1], [0.5])
    bumped[words[0]] = bumped[words[0]] + stray
    yield "bumped", bumped, corep.aux
    for w in space.words:
        yield "character", dict(PredualRep.character(space, w).family), SCALAR_SPACE
    aux = AuxSpace(3)
    picks = rng.choice(space.dim, size=min(6, space.dim), replace=False)
    dense = {
        space.words[int(k)]: Operator.from_dense(
            aux, aux, dyadic_complex(rng, 9, bits=EXACT_BITS).reshape(3, 3)
        )
        for k in picks
    }
    yield "dense", dense, aux
    normal = {w: Operator.from_dense(aux, aux, rng.standard_normal((3, 3))) for w in dense}
    yield "normal", normal, aux
    zeros = {**dense, space.words[-1]: Operator.zero(aux), space.words[0]: Operator.zero(aux)}
    yield "zero members", zeros, aux
    # Complex non-dyadic entries, whose products numpy's complex multiply can
    # round apart from a sparse product's in the last bit.
    big = AuxSpace(4)
    for _ in range(4):
        picks = rng.choice(space.dim, size=min(3, space.dim), replace=False)
        gaussian = {
            space.words[int(k)]: Operator.from_dense(
                big, big, rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            )
            for k in picks
        }
        yield "complex gaussian", gaussian, big
    yield "empty", {}, aux


def test_idempotent_family_defect_matches_per_word_products():
    for n, depth in GRID:
        space = FockSpace(Alphabet(n), depth)
        failures = set()
        for name, family, aux in _families(space):
            got = idempotent_family_defect(StackedFamily.from_members(space, aux, family))
            assert got == literal_vstack_idempotent_defect(family, aux), (n, depth, name)
            assert got == literal_idempotent_family_defect(family, aux), (n, depth, name)
            if got > 0.0:
                failures.add(name)
        assert {"doubled", "bumped"} <= failures


@pytest.mark.parametrize("n,depth", GRID)
def test_shift_tensor_sum_matches_literal(n, depth):
    space = FockSpace(Alphabet(n), depth)
    for name, family, aux in _families(space):
        stacked = StackedFamily.from_members(space, aux, family)
        for copies in (1, 2):
            got = shift_tensor_sum(stacked, copies)
            assert same_operator(got, literal_shift_tensor_sum(space, aux, family, copies)), name


def _valid_reps(space, seed=0):
    # (rep, the word-keyed members it must act by): the fundamental
    # representation, every character, the zero one, and orthogonal dyadic
    # idempotents on distinct words of a small aux space.
    rng = rng_for(seed, "corep-valid-reps", space.n, space.depth)
    projections = {
        w: Operator.from_entries(space, space, [k], [k], [1.0]) for k, w in enumerate(space.words)
    }
    yield rep_from_corep(fundamental_corep(space)), projections
    one = Operator.identity(SCALAR_SPACE)
    for w in space.words:
        yield PredualRep.character(space, w), {w: one}
    aux = AuxSpace(4)
    yield PredualRep(space, aux, {}), {}
    picks = rng.choice(space.dim, size=min(3, space.dim), replace=False)
    family = {}
    for slot, k in zip((0, 2, 3), picks):
        if slot:
            entries = ([slot], [slot], [1.0])
        else:
            entries = ([0, 0], [0, 1], [1.0, dyadic_complex(rng, bits=EXACT_BITS)])
        family[space.words[int(k)]] = Operator.from_entries(aux, aux, *entries)
    yield PredualRep(space, aux, family), family


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


@pytest.mark.parametrize("n,depth", GRID)
def test_evaluate_and_coefficients_match_per_member_sums(n, depth):
    space = FockSpace(Alphabet(n), depth)
    rng = rng_for(0, "corep-evaluate", n, depth)
    f = random_rank_one_functional(rng, space)
    for rep, members in _valid_reps(space):
        literal = literal_operator_sum(rep.aux, (op * f.value(w) for w, op in members.items()))
        assert same_operator(rep.evaluate(f), literal)
        x, y = random_vector(rng, rep.aux), random_vector(rng, rep.aux)
        series = coefficient_operator(rep, x, y)
        expected = {w: np.vdot(y.data, op.apply(x).data) for w, op in members.items()}
        assert series == FourierSeries(space.alphabet, expected)


def literal_leg_identity_defect(corep):
    # V_{1,3} V_{2,3} as a scipy product on the H (x) H (x) K ambient, minus
    # one Kronecker product per member word.
    fock, aux = corep.hilbert, corep.aux
    ambient = TensorSpace((fock, fock, aux))
    v13 = leg_embed(corep.operator, (1, 3), ambient)
    v23 = leg_embed(corep.operator, (2, 3), ambient)
    return max_entry_diff(v13 @ v23, literal_shift_tensor_sum(fock, aux, corep.family, copies=2))


def _perturbed(op, rng, scale=None):
    # Gaussian noise on an operator's entries: every stored entry scaled by
    # 1 + scale N(0, 1), or one entry bumped and two entries added.
    coo = scipy_csr(op).tocoo()
    rows, cols, vals = coo.row, coo.col, coo.data.copy()
    if scale is not None:
        vals *= 1 + scale * rng.standard_normal(vals.size)
    else:
        vals[rng.integers(vals.size)] += complex(*rng.standard_normal(2))
        rows = np.append(rows, rng.integers(op.domain.dim, size=2))
        cols = np.append(cols, rng.integers(op.domain.dim, size=2))
        vals = np.append(vals, rng.standard_normal(2) + 1j * rng.standard_normal(2))
    return Corepresentation.from_operator(Operator.from_entries(op.domain, op.domain, rows, cols, vals))


# The tensor GRID points whose H (x) H (x) H ambient has at most 300k rows.
LEG_GRID = [(n, depth) for n, depth in GRID if count_words(Alphabet(n), depth) ** 3 <= 300_000]


@pytest.mark.parametrize("n,depth", LEG_GRID)
def test_leg_identity_join_matches_the_scipy_product(n, depth):
    space = FockSpace(Alphabet(n), depth)
    rng = rng_for(0, "corep-leg-join", n, depth)
    fundamental = fundamental_corep(space)
    coreps = [fundamental] + [corep_from_rep(rep, space) for rep, _ in _valid_reps(space)]
    perturbed = [_perturbed(fundamental.operator, rng) for _ in range(3)]
    perturbed.append(_perturbed(coreps[-1].operator, rng, scale=0.1))
    for corep in coreps:
        assert leg_identity_defect(corep) == literal_leg_identity_defect(corep) == 0.0
    for corep in perturbed:
        got = leg_identity_defect(corep)
        assert got == literal_leg_identity_defect(corep) and got > 0.0


def test_leg_identity_needs_memory_linear_in_the_joined_pairs():
    # At (3, 4) the H (x) H (x) H ambient has 1.77M rows; the join has about 21k pairs.
    corep = fundamental_corep(FockSpace(Alphabet(3), 4))
    tracemalloc.start()
    try:
        assert leg_identity_defect(corep) == 0.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


def test_stacked_family_keys_members_by_word():
    aux = AuxSpace(3)
    rng = rng_for(0, "corep-stack-keys")
    family = {
        w: Operator.from_dense(aux, aux, dyadic_complex(rng, 9, bits=EXACT_BITS).reshape(3, 3))
        for w in (H3.words[9], H3.words[2], H3.words[5])
    }
    stacked = StackedFamily.from_members(H3, aux, {**family, word(1): Operator.zero(aux)})
    assert list(stacked) == [H3.words[2], H3.words[5], H3.words[9]]
    assert list(stacked.support) == [2, 5, 9]
    for w, op in family.items():
        assert same_operator(stacked[w], op)
        at = stacked.word == H3.index_of(w)
        entries = (stacked.row[at], stacked.col[at], stacked.val[at])
        assert same_operator(Operator.from_entries(aux, aux, *entries), op)
    assert word(1) not in stacked and stacked.get(word(1)) is None


def test_stacked_passes_build_no_per_word_sparse_matrix(monkeypatch):
    # The stacked law check, Kronecker sum and evaluation build the same
    # number of operators at every size, so none loops over the words.
    built = []
    honest = Operator.__post_init__

    def counting(self):
        built.append(self.shape)
        honest(self)

    counts = []
    for space in (FockSpace(A2, 3), FockSpace(Alphabet(3), 4)):
        rep = rep_from_corep(fundamental_corep(space))
        f = random_rank_one_functional(rng_for(0, "corep-guard"), space)
        runs = (
            lambda: shift_tensor_sum(rep.family),
            lambda: idempotent_family_defect(rep.family),
            lambda: rep.evaluate(f),
        )
        for run in runs:
            run()  # fills the word-shift cache and the stack's entry arrays
        monkeypatch.setattr(Operator, "__post_init__", counting)
        for run in runs:
            built.clear()
            run()
            counts.append(len(built))
        monkeypatch.setattr(Operator, "__post_init__", honest)
    assert counts[:3] == counts[3:]


def test_spectrum_enumerates_words():
    assert [w.text(2) for w in spectrum(FockSpace(A2, 2))] == [
        "e", "1", "2", "11", "12", "21", "22",
    ]
    assert len(spectrum(FockSpace(Alphabet(1), 3))) == 4
    assert len(spectrum(FockSpace(Alphabet(3), 2))) == 13


def test_spectrum_matches_grouplike_words():
    for n, depth in [(1, 3), (2, 2), (3, 2)]:
        space = FockSpace(Alphabet(n), depth)
        chars = set(spectrum(space))
        grouplike = {s.support[0] for s in grouplike_series(space)}
        assert chars == grouplike


@pytest.mark.parametrize("n,depth", GRID)
def test_characters_stack_every_character_on_the_diagonal(n, depth):
    space = FockSpace(Alphabet(n), depth)
    chars = characters(space)
    aux = AuxSpace(space.dim)
    assert chars.aux == aux and chars.law_defect == 0.0
    assert list(chars.family) == list(space.words)
    for k, w in enumerate(space.words):
        one = scipy_csr(PredualRep.character(space, w).family[w])
        literal = Operator.from_entries(aux, aux, [k], [k], one.toarray().ravel())
        assert same_operator(chars.family[w], literal)
    assert same_family_entries(chars.family, rep_from_corep(fundamental_corep(space)).family)
    per_word = [PredualRep.character(space, w) for w in space.words]
    assert spectrum(space) == [
        w for w, rep in zip(space.words, per_word) if rep.law_defect == 0.0 and rep.family
    ]


def test_characters_and_their_law_check_need_memory_linear_in_dim():
    # At n=2 and depth 11 (dim 4,095) a stack of dim^2 rows would hold a
    # 16.8-million-entry row pointer on its own.
    space = FockSpace(A2, 11)
    tracemalloc.start()
    try:
        chars = characters(space)
        assert chars.law_defect == 0.0 and idempotent_family_defect(chars.family) == 0.0
        assert len(spectrum(space)) == space.dim
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, peak


def _swapped_characters(space):
    # The characters of words 1 and 2 exchange their aux coordinates: still a
    # valid family on the same words, but no longer chi_w at coordinate w.
    members = dict(characters(space).family)
    a, b = space.words[1], space.words[2]
    members[a], members[b] = members[b], members[a]
    return PredualRep(space, AuxSpace(space.dim), members)


def _characters_without_vacuum(space):
    members = {w: op for w, op in characters(space).family.items() if len(w)}
    return PredualRep(space, AuxSpace(space.dim), members)


@pytest.mark.parametrize(
    "mutant,spectrum_defect", [(_swapped_characters, 0.0), (_characters_without_vacuum, 1.0)]
)
def test_character_checks_catch_a_wrong_diagonal_family(monkeypatch, mutant, spectrum_defect):
    # A swap keeps the set of words, so only the spectrum check misses it.
    cfg = SuiteConfig(n=2, depth=3)
    checks = (verify._chk_roundtrips, verify._chk_coefficient_membership, verify._chk_spectrum)
    assert [verify._worst_defect(check(cfg, rng_for(0, "chars"))) for check in checks] == [0.0, 0.0, 0.0]
    monkeypatch.setattr(corep, "characters", mutant)
    got = [verify._worst_defect(check(cfg, rng_for(0, "chars"))) for check in checks]
    assert got == [1.0, 1.0, spectrum_defect]


def test_shift_tensor_sum_literal_check_catches_right_shifts_and_a_missing_copy(monkeypatch):
    honest = corep.shift_tensor_sum
    test_shift_tensor_sum_matches_literal(2, 3)
    monkeypatch.setattr(corep, "word_shift", lambda fock, w, side: word_shift(fock, w, "right"))
    with pytest.raises(AssertionError):
        test_shift_tensor_sum_matches_literal(2, 3)
    monkeypatch.undo()

    def one_copy_short(family, copies=1):
        # The first of several legs is left as the identity.
        if copies == 1:
            return honest(family)
        return kron(Operator.identity(family.fock), honest(family, copies - 1))

    monkeypatch.setitem(globals(), "shift_tensor_sum", one_copy_short)
    with pytest.raises(AssertionError):
        test_shift_tensor_sum_matches_literal(2, 3)


def test_sum_of_characters_is_not_a_character():
    one = Operator.from_entries(SCALAR_SPACE, SCALAR_SPACE, [0], [0], [1.0])
    with pytest.raises(ValueError):
        PredualRep(H3, SCALAR_SPACE, {word(1): one, word(2): one})


def test_character_coefficients_span_indicators():
    one = basis_vector(SCALAR_SPACE, 0)
    for w in H3.words:
        char = PredualRep.character(H3, w)
        series = coefficient_operator(char, one, one)
        assert series == FourierSeries.indicator(A2, w)
        assert membership_defect(realize(series, H3)) == 0.0


def test_coefficient_operators_of_fundamental():
    rep = rep_from_corep(fundamental_corep(H3))
    for u in H3.words[:5]:
        xu = basis_vector(H3, u)
        series = coefficient_operator(rep, xu, xu)
        assert series == FourierSeries.indicator(A2, u)
    rng = rng_for(0, "coef")
    for _ in range(10):
        x = random_vector(rng, H3)
        y = random_vector(rng, H3)
        series = coefficient_operator(rep, x, y)
        assert membership_defect(realize(series, H3)) == 0.0


def test_coefficient_duality_pairing():
    # <f, c> = (pi(f) x, y) for the coefficient series.
    rep = rep_from_corep(fundamental_corep(H3))
    rng = rng_for(0, "coef-pairing")
    x = random_vector(rng, H3)
    y = random_vector(rng, H3)
    series = coefficient_operator(rep, x, y)
    f = random_rank_one_functional(rng, H3)
    values = dict(zip(H3.words, f.values))
    lhs = sum(c * values[w] for w, c in series.items())
    rhs = np.vdot(y.data, rep.evaluate(f).apply(x).data)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_tensor_product_of_characters():
    r1 = PredualRep.character(H3, word(1))
    r2 = PredualRep.character(H3, word(2))
    prod = tensor_product_rep(r1, r2)
    assert list(prod.family) == [word(1, 2)]
    # beyond the depth the product collapses to the zero family
    deep = PredualRep.character(H3, word(1, 2))
    vanished = tensor_product_rep(deep, PredualRep.character(H3, word(2, 1)))
    assert not vanished.family


def trivial_rep(space, aux):
    """Unit for the tensor product: the identity sitting at the empty word."""
    return PredualRep(space, aux, {Word(): Operator.identity(aux)})


def test_tensor_product_with_trivial_rep():
    rep = rep_from_corep(fundamental_corep(FockSpace(A2, 2)))
    trivial = trivial_rep(rep.space, SCALAR_SPACE)
    prod = tensor_product_rep(rep, trivial)
    for w, op in rep.family.items():
        assert max_entry_diff(prod.family[w], kron(op, Operator.identity(SCALAR_SPACE))) == 0.0


@pytest.mark.parametrize("n,depth", [(2, 3), (3, 3), (2, 4)])
def test_product_representations_cross_the_bijection(n, depth):
    # A product's aux space K1 (x) K2 stays one leg of H (x) (K1 (x) K2), so
    # the product crosses to a corepresentation, which is V1_12 V2_13 on
    # H (x) K1 (x) K2; the shifts of the two factors do not commute, so the
    # reversed order misses.
    space = FockSpace(Alphabet(n), depth)
    fundamental = rep_from_corep(fundamental_corep(space))
    first, second = PredualRep.character(space, word(1, 1)), PredualRep.character(space, word(2))
    for r1, r2 in ((fundamental, first), (first, second), (fundamental, fundamental)):
        prod = tensor_product_rep(r1, r2)
        corep = corep_from_rep(prod, space)
        assert corep_check(corep).max_defect == 0.0
        assert same_family_entries(rep_from_corep(corep).family, prod.family)
        ambient = TensorSpace((space, r1.aux, r2.aux))
        v1 = scipy_csr(leg_embed(corep_from_rep(r1, space).operator, (1, 2), ambient))
        v2 = scipy_csr(leg_embed(corep_from_rep(r2, space).operator, (1, 3), ambient))
        assert max_abs(v1 @ v2 - scipy_csr(corep.operator)) == 0.0
        assert max_abs(v2 @ v1 - scipy_csr(corep.operator)) == 1.0


def test_tensor_product_of_fundamental_reps():
    space = FockSpace(A2, 2)
    rep = rep_from_corep(fundamental_corep(space))
    prod = tensor_product_rep(rep, rep)
    assert prod.law_defect <= 1e-12


def corep_json(corep):
    # Each family word's dense coefficient block as nested [re, im] pairs.
    n = corep.hilbert.n
    return {
        w.text(n): [[[z.real, z.imag] for z in row] for row in scipy_csr(b).toarray()]
        for w, b in corep.family.items()
    }


def test_corep_serialization():
    w_corep = fundamental_corep(FockSpace(A2, 1))
    blob = corep_json(w_corep)
    assert set(blob) == {"e", "1", "2"}
    assert blob["1"][1][1] == [1.0, 0.0]


# ---------------------------------------------------------------------------
# Tensor-leg identities on index maps against their scipy routes


def reference_fundamental_defects(space, w):
    # Kronecker products and sparse products in scipy, the differences read in the
    # slack-|w| columns.  The shifts are read through the module, so a patched
    # word_shift reaches both routes.
    w_op = scipy_csr(fundamental_corep(space).operator)
    ident = Operator.identity(space)
    shift, right = (corep.word_shift(space, w, side) for side in ("left", "right"))
    cols = graded.within(space, space.depth - len(w), fold=2)
    lhs = scipy_csr(kron(shift, shift)) @ w_op
    intertwining = max_abs(lhs - w_op @ scipy_csr(kron(ident, shift)), cols)
    side = scipy_csr(kron(right, ident))
    return intertwining, max_abs(w_op @ side - side @ w_op, cols)


def _letters_and_random_words(space, rng):
    words = [Word((a,)) for a in space.alphabet.letters]
    return words + [space.word_at(int(i)) for i in rng.integers(0, space.dim, 3)]


@pytest.mark.parametrize("n,depth", GRID)
def test_fundamental_defects_match_the_kronecker_route_to_the_bit(monkeypatch, n, depth):
    space = FockSpace(Alphabet(n), depth)
    words = _letters_and_random_words(space, rng_for(depth, "corep-fundamental-maps", n))

    def both(w):
        got = (fundamental_intertwining_defect(space, w), fundamental_right_commutation_defect(space, w))
        want = reference_fundamental_defects(space, w)
        assert [np.float64(d).tobytes() for d in got] == [np.float64(d).tobytes() for d in want], w
        return got

    assert all(both(w) == (0.0, 0.0) for w in words)
    # Each side's shift swapped for the other's: L_w (x) L_w meets I (x) R_w, and R_u (x) I
    # becomes L_u (x) I, which W does not commute with.
    monkeypatch.setattr(corep, "word_shift", lambda s, w, side: word_shift(s, w, "right" if side == "left" else "left"))
    missed = [both(w) for w in words]
    assert n == 1 or min(max(pair) for pair in missed[:n]) > 0.0


@pytest.mark.parametrize("n,depth", GRID)
def test_corrupted_corep_operator_is_the_scipy_kronecker_sum(monkeypatch, n, depth):
    # verify's L_u (x) I + L_v (x) I, built from index maps, holds scipy's arrays of the sum.
    built = []
    honest = Corepresentation.from_operator
    monkeypatch.setattr(Corepresentation, "from_operator", lambda op: built.append(op) or honest(op))
    cfg = SuiteConfig(n=n, depth=depth)
    assert list(verify._chk_corrupted_corep(cfg, None)) == [0.0, 0.0]
    (bad,) = built
    u, v = (word(1), word(2)) if n >= 2 else (word(1), word(1, 1))
    ident = Operator.identity(cfg.space)
    want = scipy_csr(kron(word_shift(cfg.space, u), ident)) + scipy_csr(kron(word_shift(cfg.space, v), ident))
    assert bad.domain == bad.codomain == tensor_space(cfg.space, cfg.space)
    assert_same_arrays(bad, want)


def test_fundamental_corep_is_built_once_a_space_and_cannot_be_changed():
    # The corepresentation is cached a space, so every caller shares one object:
    # it is frozen, and its operator's and family's arrays are read-only.
    space = FockSpace(A2, 3)
    w_corep = fundamental_corep(space)
    assert fundamental_corep(FockSpace(A2, 3)) is w_corep
    assert fundamental_corep.cache_info().maxsize == 16
    with pytest.raises(FrozenInstanceError):
        w_corep.operator = Operator.identity(w_corep.space)
    family = w_corep.family
    for arr in (*w_corep.operator.csr, family.word, family.row, family.col, family.val):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[:1] = 0
