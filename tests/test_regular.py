import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from scipy import sparse

from fockhopf import regular, verify
from fockhopf.graded import within
from fockhopf.regular import (
    FourierSeries,
    cesaro_error_bound,
    cesaro_sum,
    fourier_coefficients,
    isometry_defect,
    left_right_commutation_defect,
    left_shift,
    length_projection,
    membership_defect,
    realize,
    right_shift,
    row_contraction_defect,
    shift_composition_defect,
    tensor_commutation_defect,
    word_shift,
)
from fockhopf.sampling import dyadic_complex, random_series, rng_for
from fockhopf.spaces import FockSpace, Operator, Vector, _worst_defect, basis_vector, max_entry_diff
from fockhopf.verify import SuiteConfig, build_checks
from fockhopf.words import Alphabet, Word, word
from leg_reference import kron
from scipy_oracle import scipy_csr

A2 = Alphabet(2)
H3 = FockSpace(A2, 3)
GRID = [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (2, 5), (2, 7)]


def test_left_generator_action():
    out = left_shift(H3, 1).apply(basis_vector(H3, Word()))
    assert np.array_equal(out.data, basis_vector(H3, word(1)).data)
    out2 = left_shift(H3, 2).apply(basis_vector(H3, word(1, 2)))
    assert np.array_equal(out2.data, basis_vector(H3, word(2, 1, 2)).data)


def test_right_generator_action():
    out = right_shift(H3, 2).apply(basis_vector(H3, word(1)))
    assert np.array_equal(out.data, basis_vector(H3, word(1, 2)).data)


def test_boundary_compression():
    for i in (1, 2):
        out = left_shift(H3, i).apply(basis_vector(H3, word(1, 2, 1)))
        assert not out.data.any()


def test_isometry_relations_exact():
    for n in (1, 2, 3):
        for depth in (0, 1, 2, 3, 4):
            assert isometry_defect(FockSpace(Alphabet(n), depth)) == 0.0
        # At depth 0, P_{N-1} is the zero projection.
        space = FockSpace(Alphabet(n), 0)
        assert max_entry_diff(length_projection(space, -1), Operator.zero(space)) == 0.0


def test_isometry_projection_shape():
    proj = length_projection(H3, 2)
    product = left_shift(H3, 1).adjoint() @ left_shift(H3, 1)
    assert max_entry_diff(product, proj) == 0.0
    cross = left_shift(H3, 1).adjoint() @ left_shift(H3, 2)
    assert cross.nnz == 0


def test_row_contraction():
    for n in (1, 2, 3):
        # At depth 0 every generator compresses to zero, as does I - (vacuum projection).
        assert row_contraction_defect(FockSpace(Alphabet(n), 0)) == 0.0
        space = FockSpace(Alphabet(n), 3)
        assert row_contraction_defect(space) == 0.0
        total = Operator.zero(space)
        for i in space.alphabet.letters:
            gen = left_shift(space, i)
            total = total + gen @ gen.adjoint()
        diag = scipy_csr(total).toarray().diagonal().real
        assert diag[0] == 0.0
        assert np.all(diag[1:] == 1.0)


def test_word_shift_examples():
    out = word_shift(H3, word(1, 2), "left").apply(basis_vector(H3, Word()))
    assert np.array_equal(out.data, basis_vector(H3, word(1, 2)).data)
    # Composing right generators appends letters one at a time: the word
    # operator lands on the reversal.
    r12 = right_shift(H3, 1) @ right_shift(H3, 2)
    direct = word_shift(H3, word(1, 2), "right")
    assert max_entry_diff(r12, direct) == 0.0
    out_r = direct.apply(basis_vector(H3, Word()))
    assert np.array_equal(out_r.data, basis_vector(H3, word(2, 1)).data)


def test_word_shift_matches_generator_composition():
    space = FockSpace(A2, 4)
    for letters in [(1,), (1, 2), (2, 2, 1), (1, 1, 2, 2)]:
        w = Word(letters)
        for side, gen in (("left", left_shift), ("right", right_shift)):
            composed = Operator.identity(space)
            for a in letters:
                composed = composed @ gen(space, a)
            assert max_entry_diff(composed, word_shift(space, w, side)) == 0.0


def test_shift_composition_on_safe_zone():
    space = FockSpace(A2, 4)
    rng = rng_for(0, "shift-comp")
    for _ in range(20):
        lu = int(rng.integers(0, 3))
        u = Word(tuple(int(a) for a in rng.integers(1, 3, size=lu)))
        lv = int(rng.integers(0, space.depth - lu + 1))
        v = Word(tuple(int(a) for a in rng.integers(1, 3, size=lv)))
        assert shift_composition_defect(space, u, v, "left") == 0.0
        assert shift_composition_defect(space, u, v, "right") == 0.0


def test_shift_index_table():
    table = scipy_csr(word_shift(H3, word(1))).tocsc().indices  # the image row of each column
    assert table.size == 7  # words of length <= 2 can still be shifted
    assert table[0] == H3.index_of(word(1))
    assert table[2] == H3.index_of(word(1, 2))


def test_word_too_long_raises():
    # A word past the depth shifts every admissible u (there is none) to zero,
    # but its letters are still checked; a series past the depth is refused.
    with pytest.raises(ValueError, match="alphabet"):
        word_shift(H3, word(1, 3, 1, 1))
    with pytest.raises(ValueError):
        realize(FourierSeries(A2, {word(1, 1, 1, 1): 1.0}), H3)


@pytest.mark.parametrize("depth", [0, 1, 3])
@pytest.mark.parametrize("side", ["left", "right"])
def test_word_longer_than_the_depth_shifts_to_zero(depth, side):
    space = FockSpace(A2, depth)
    for w in (word(*[1] * (depth + 1)), word(2, 1, *[2] * depth)):
        shift = word_shift(space, w, side)
        assert shift.domain == space and shift.codomain == space and shift.nnz == 0
    with pytest.raises(ValueError, match="alphabet"):
        word_shift(space, word(*[3] * (depth + 1)), side)


def test_series_normalization_and_algebra():
    s = FourierSeries(A2, {word(1): 1.0, word(2): 0.0})
    assert s.support == (word(1),)
    assert s.degree == 1
    t = FourierSeries(A2, {Word(): 2.0, word(2): 1j})
    prod = s * t
    assert prod.coefficient(word(1)) == 2.0
    assert prod.coefficient(word(1, 2)) == 1j
    assert (s + t).coefficient(Word()) == 2.0
    assert (2.0 * s).coefficient(word(1)) == 2.0
    zero = s - s
    assert list(zero.items()) == []
    assert zero.degree == 0


def test_series_product_convolves_factorizations():
    s = FourierSeries(A2, {Word(): 1.0, word(1): 2.0})
    t = FourierSeries(A2, {Word(): 3.0, word(1): 5.0})
    prod = s * t
    # Coefficient at (1) collects both factorizations e*(1) and (1)*e.
    assert prod.coefficient(word(1)) == 1.0 * 5.0 + 2.0 * 3.0
    assert prod.coefficient(word(1, 1)) == 10.0


def test_realize_examples():
    ident = realize(FourierSeries.unit(A2), H3)
    assert max_entry_diff(ident, Operator.identity(H3)) == 0.0
    s = FourierSeries(A2, {word(1): 1.0, word(2): 1j})
    out = realize(s, H3).apply(basis_vector(H3, Word()))
    expected = basis_vector(H3, word(1)).data + 1j * basis_vector(H3, word(2)).data
    assert np.array_equal(out.data, expected)


def test_fourier_round_trip_exact():
    rng = rng_for(0, "fourier")
    for n in (1, 2, 3):
        space = FockSpace(Alphabet(n), 3)
        for _ in range(25):
            s = random_series(rng, space.alphabet, int(rng.integers(0, 4)))
            assert fourier_coefficients(realize(s, space)) == s


def test_fourier_of_word_operators():
    assert fourier_coefficients(word_shift(H3, word(1, 2))) == FourierSeries.indicator(A2, word(1, 2))
    assert fourier_coefficients(Operator.identity(H3)) == FourierSeries.unit(A2)
    composed = word_shift(H3, word(1)) @ word_shift(H3, word(2, 1))
    assert fourier_coefficients(composed) == FourierSeries.indicator(A2, word(1, 2, 1))


def test_cesaro_weights():
    s = FourierSeries(A2, {word(1): 1.0})
    assert cesaro_sum(s, 2).coefficient(word(1)) == 0.5
    mixed = FourierSeries(A2, {Word(): 4.0, word(1, 2): 2.0})
    out = cesaro_sum(mixed, 2)
    assert out.coefficient(Word()) == 4.0  # the unit keeps weight 1
    assert out.coefficient(word(1, 2)) == 0.0
    out3 = cesaro_sum(mixed, 3)
    assert out3.coefficient(word(1, 2)) == pytest.approx(2.0 * (1 - 2 / 3))
    with pytest.raises(ValueError):
        cesaro_sum(s, 0)


def test_cesaro_error_bound_numerically():
    space = FockSpace(A2, 5)
    rng = rng_for(0, "cesaro")
    zone = within(space, space.depth - 3)
    for _ in range(40):
        s = random_series(rng, A2, 3)
        a = realize(s, space)
        x = np.zeros(space.dim, dtype=complex)
        x[zone] = dyadic_complex(rng, zone.size)
        for k in range(4, 13):
            approx = realize(cesaro_sum(s, k), space)
            err = np.linalg.norm((scipy_csr(approx) - scipy_csr(a)) @ x)
            bound = cesaro_error_bound(s, k) * np.linalg.norm(x)
            assert err <= bound + 1e-12


def test_membership_defect_zero_on_realized():
    rng = rng_for(0, "membership")
    for _ in range(25):
        s = random_series(rng, A2, int(rng.integers(0, 4)))
        assert membership_defect(realize(s, H3)) == 0.0


def test_membership_defect_positive_on_non_members():
    # Brute-force values derived from the defect definition.
    assert membership_defect(left_shift(H3, 1).adjoint()) == 1.0
    assert membership_defect(right_shift(H3, 1)) > 0.0
    for n in (1, 2):
        space = FockSpace(Alphabet(n), 2)
        assert membership_defect(left_shift(space, 1).adjoint()) > 0.0
    # At depth 1 the right shift coincides with the left one.
    tiny = FockSpace(A2, 1)
    assert membership_defect(right_shift(tiny, 1)) == 0.0


def test_membership_brute_force_oracle():
    # Independent oracle: scan all (row, column) pairs by word arithmetic.
    def oracle(t):
        space = t.domain
        dense = scipy_csr(t).toarray()
        coeff = dense[:, 0]
        on = off = 0.0
        for i, v in enumerate(space.words):
            for j, w in enumerate(space.words):
                suffix = v.letters[len(v) - len(w):] if len(v) >= len(w) else None
                if suffix == w.letters:
                    u = Word(v.letters[: len(v) - len(w)])
                    on = max(on, abs(dense[i, j] - coeff[space.index_of(u)]))
                else:
                    off = max(off, abs(dense[i, j]))
        return on + off

    rng = rng_for(0, "membership-oracle")
    candidates = [
        realize(random_series(rng, A2, 2), H3),
        left_shift(H3, 1).adjoint(),
        right_shift(H3, 2),
        left_shift(H3, 1) + right_shift(H3, 2),
    ]
    for t in candidates:
        assert membership_defect(t) == pytest.approx(oracle(t), abs=1e-14)


def _kronecker_commutation_defect(space, left_words, right_words):
    # The literal route on the tensor square: two Kronecker products and the two-factor safe zone.
    # The shifts are read through the module, so a patched word_shift reaches both routes.
    (u, v), (a, b) = left_words, right_words
    shift = regular.word_shift
    lw = kron(shift(space, u, "left"), shift(space, v, "left"))
    rw = kron(shift(space, a, "right"), shift(space, b, "right"))
    slack = max(len(u) + len(a), len(v) + len(b))
    return max_entry_diff(lw @ rw, rw @ lw, within(space, space.depth - slack, fold=2))


def _tensor_lr_check(n, depth):
    config = SuiteConfig(n=n, depth=depth, suites=("regrep",))
    (check,) = [c for c in build_checks(config) if c.name == "tensor_lr_commutation"]
    return check


def _both_routes(monkeypatch, points):
    """(leg-wise, Kronecker) defects of every case the tensor_lr_commutation check draws at the points."""
    honest, pairs = regular.tensor_commutation_defect, []

    def both(space, left_words, right_words):
        pairs.append((honest(space, left_words, right_words),
                      _kronecker_commutation_defect(space, left_words, right_words)))
        return pairs[-1][0]

    monkeypatch.setattr(regular, "tensor_commutation_defect", both)
    for n, depth in points:
        _tensor_lr_check(n, depth).run()
    monkeypatch.setattr(regular, "tensor_commutation_defect", honest)
    return pairs


def test_commutation_defects(monkeypatch):
    for n in (1, 2, 3):
        space = FockSpace(Alphabet(n), 4 if n < 3 else 3)
        assert left_right_commutation_defect(space) == 0.0
        assert left_right_commutation_defect(FockSpace(Alphabet(n), 0)) == 0.0
    space = FockSpace(A2, 4)
    assert (
        tensor_commutation_defect(space, (word(1), word(2)), (word(2), word(1))) == 0.0
    )
    assert (
        tensor_commutation_defect(space, (word(1, 2), word(2)), (word(1), word(1, 1)))
        == 0.0
    )
    # The check's letter pairs and three random quadruples, against the Kronecker route.
    points = GRID + [(2, 9)]
    pairs = _both_routes(monkeypatch, points)
    assert len(pairs) == sum(n * n + 3 for n, _ in points)
    assert pairs == [(0.0, 0.0)] * len(pairs)


def _right_as_left(honest):
    return lambda space, w, side="left": honest(space, w, "left")


def _right_rows_off_by_one(honest):
    def mutant(space, w, side="left"):
        op = honest(space, w, side)
        if side == "left":
            return op
        coo = scipy_csr(op).tocoo()
        return Operator.from_entries(space, space, (coo.row + 1) % space.dim, coo.col, coo.data)

    return mutant


@pytest.mark.parametrize("mutant", [_right_as_left, _right_rows_off_by_one])
def test_tensor_lr_commutation_catches_a_wrong_right_shift(monkeypatch, mutant):
    monkeypatch.setattr(regular, "word_shift", mutant(word_shift))
    for n, depth in GRID:
        pairs = _both_routes(monkeypatch, [(n, depth)])
        assert all(leg == kron for leg, kron in pairs), (n, depth)
        # At n = 1, R_w = L_w, so a right shift built as a left shift is the true one.
        caught = n >= 2 or mutant is _right_rows_off_by_one
        assert max(leg for leg, _ in pairs) == float(caught), (n, depth)


def test_tensor_commutation_defect_forms_no_kronecker_product():
    # At (2, 10) the route through two Kronecker products on the tensor square peaks at 146 MB.
    space = FockSpace(A2, 10)
    tracemalloc.start()
    try:
        assert tensor_commutation_defect(space, (word(1), word(2)), (word(2), word(1))) == 0.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


def test_series_alphabet_mismatch():
    s = FourierSeries(Alphabet(3), {word(3): 1.0})
    with pytest.raises(ValueError):
        realize(s, H3)
    with pytest.raises(ValueError):
        FourierSeries(A2, {word(3): 1.0})


def _series_strategy(max_degree=2, denominator=8):
    from hypothesis import strategies as st

    from fockhopf.words import enumerate_words

    words = enumerate_words(A2, max_degree)
    coeff = st.integers(-denominator, denominator).map(lambda k: k / denominator)
    value = st.tuples(coeff, coeff).map(lambda ri: complex(*ri))
    return st.fixed_dictionaries({}, optional={w: value for w in words}).map(
        lambda d: FourierSeries(A2, d)
    )


def test_series_product_associative_property():
    from hypothesis import given, settings

    @given(_series_strategy(), _series_strategy(), _series_strategy())
    @settings(max_examples=40)
    def check(a, b, c):
        # Dyadic coefficients keep both association orders bitwise equal.
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    check()


def test_realize_is_multiplicative_on_series_property():
    from hypothesis import given, settings

    space = FockSpace(A2, 4)

    @given(_series_strategy(), _series_strategy())
    @settings(max_examples=25, deadline=None)
    def check(a, b):
        cols = within(space, space.depth - a.degree - b.degree)
        product = realize(a, space) @ realize(b, space)
        direct = realize(a * b, space)
        assert max_entry_diff(product, direct, cols) == 0.0

    check()


def test_single_letter_shift_shares_the_word_shift_cache_entry():
    word_shift.cache_clear()
    left_shift(H3, 1)
    word_shift(H3, Word((1,)), "left")
    info = word_shift.cache_info()
    assert (info.misses, info.hits) == (1, 1)


# ---------------------------------------------------------------------------
# The five relation defects compose the shifts' index maps.  Their earlier
# sparse-product forms are kept here unchanged as references; they read the
# shifts through the module, so a patched shift reaches both routes.


def sparse_isometry_defect(space):
    """Max entrywise defect of L_i* L_j = delta_ij P_{N-1}; contract: 0."""
    proj = length_projection(space, space.depth - 1)
    pairs = [(i, j) for i in space.alphabet.letters for j in space.alphabet.letters]
    products = ((i == j, regular.left_shift(space, i).adjoint() @ regular.left_shift(space, j)) for i, j in pairs)
    return _worst_defect(max_entry_diff(p, proj if same else Operator.zero(space)) for same, p in products)


def sparse_row_contraction_defect(space):
    """Max entrywise defect of sum_i L_i L_i* = I - (vacuum projection)."""
    gens = (regular.left_shift(space, i) for i in space.alphabet.letters)
    total = sum((gen @ gen.adjoint() for gen in gens), Operator.zero(space))
    target = Operator.identity(space) - Operator.from_entries(space, space, [0], [0], [1.0])
    return max_entry_diff(total, target)


def sparse_commutation_defect(space, u, a):
    """Defect of L_u R_a = R_a L_u on the slack-(|u|+|a|) safe zone."""
    lu, ra = regular.word_shift(space, u, "left"), regular.word_shift(space, a, "right")
    return max_entry_diff(lu @ ra, ra @ lu, within(space, space.depth - len(u) - len(a)))


def sparse_left_right_commutation_defect(space):
    """Max defect of L_i R_j = R_j L_i on the slack-2 safe zone; contract: 0."""
    letters = [Word((i,)) for i in space.alphabet.letters]
    return _worst_defect(sparse_commutation_defect(space, i, j) for i in letters for j in letters)


def sparse_tensor_commutation_defect(space, left_words, right_words):
    """Defect of (L_u (x) L_v)(R_a (x) R_b) = (R_a (x) R_b)(L_u (x) L_v), one leg at a time."""
    (u, v), (a, b) = left_words, right_words
    return _worst_defect((sparse_commutation_defect(space, u, a), sparse_commutation_defect(space, v, b)))


def sparse_shift_composition_defect(space, u, v, side="left"):
    """Defect of S_u S_v = S_{uv} on the slack-(|u|+|v|) safe zone."""
    cols = within(space, space.depth - len(u) - len(v))
    composed = regular.word_shift(space, u, side) @ regular.word_shift(space, v, side)
    direct = regular.word_shift(space, u.concat(v), side)
    return max_entry_diff(composed, direct, cols)


def relation_defect_pairs(space, rng, draws=12):
    """(index-map, sparse-product) values of the five relation defects on ``space``.

    The commutation and composition defects run on every letter pair, then on
    ``draws`` random word pairs that fit the depth, on both sides.
    """
    letters = [Word((i,)) for i in space.alphabet.letters]

    def draw(max_len):
        length = int(rng.integers(0, max_len + 1))
        return Word(tuple(int(a) for a in rng.integers(1, space.n + 1, size=length)))

    words = [(u, v) for u in letters for v in letters]
    for _ in range(draws):
        u = draw(space.depth // 2)
        words.append((u, draw(space.depth - len(u))))
    pairs = [
        (isometry_defect(space), sparse_isometry_defect(space)),
        (row_contraction_defect(space), sparse_row_contraction_defect(space)),
        (left_right_commutation_defect(space), sparse_left_right_commutation_defect(space)),
    ]
    for u, v in words:
        pairs.append((tensor_commutation_defect(space, (u, v), (v, u)),
                      sparse_tensor_commutation_defect(space, (u, v), (v, u))))
        for side in ("left", "right"):
            pairs.append((shift_composition_defect(space, u, v, side),
                          sparse_shift_composition_defect(space, u, v, side)))
    return pairs


@pytest.mark.parametrize("n,depth", GRID)
def test_relation_defects_match_their_sparse_products(n, depth):
    space = FockSpace(Alphabet(n), depth)
    pairs = relation_defect_pairs(space, rng_for(depth, "relation-oracle", n))
    assert pairs == [(0.0, 0.0)] * len(pairs)


def _moved_image():
    # L_1 sends the vacuum to the word 2, not to the word 1.
    honest = regular.word_shift

    def mutant(space, w, side="left"):
        op = honest(space, w, side)
        if w != Word((1,)) or side != "left":
            return op
        rows = np.repeat(np.arange(space.dim), np.diff(op.csr[2]))
        rows[op.csr[1] == 0] = space.index_of(Word((2,)))
        return Operator.from_entries(space, space, rows, op.csr[1], op.csr[0])

    return "word_shift", mutant


def _no_reversal():
    # R_w appends w itself: the shift of the reversal appends the reversal of it.
    honest = regular.word_shift

    def mutant(space, w, side="left"):
        return honest(space, w.reverse() if side == "right" else w, side)

    return "word_shift", mutant


def _dropped_letter():
    # The last letter's shift is zero, so its range leaves the row contraction.
    honest = regular.left_shift

    def mutant(space, letter):
        return Operator.zero(space) if letter == space.n else honest(space, letter)

    return "left_shift", mutant


@pytest.mark.parametrize("mutant,caught_by", [
    (_moved_image, {"isometry", "row_contraction", "lr_commutation", "composition"}),
    (_no_reversal, {"composition"}),
    (_dropped_letter, {"isometry", "row_contraction"}),
], ids=["moved_image", "no_reversal", "dropped_letter"])
def test_relation_mutants_are_caught_by_both_routes(monkeypatch, mutant, caught_by):
    space = FockSpace(A2, 3)
    u, v = word(1), word(2, 1)
    monkeypatch.setattr(regular, *mutant())
    routes = {
        "isometry": (isometry_defect(space), sparse_isometry_defect(space)),
        "row_contraction": (row_contraction_defect(space), sparse_row_contraction_defect(space)),
        "lr_commutation": (left_right_commutation_defect(space), sparse_left_right_commutation_defect(space)),
        "composition": max(
            ((shift_composition_defect(space, a, b, side), sparse_shift_composition_defect(space, a, b, side))
             for a, b in ((u, v), (v, u)) for side in ("left", "right")),
        ),
    }
    assert {name for name, (maps, products) in routes.items() if maps > 0.0 and products > 0.0} == caught_by
    assert all(maps == products for maps, products in routes.values()), routes


# ---------------------------------------------------------------------------
# The array paths of Operator against scipy, to the bit.

BIT_POINTS = GRID + [(1, 9), (3, 5)]


def _signed_vector(rng, dim):
    # Random complex entries with every sign of zero among them.
    x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    zeros = np.array([0.0, -0.0])
    picks = rng.integers(0, 2, size=(2, dim // 4))
    x.real[: dim // 4] = zeros[picks[0]]  # set apart: 0.0 + (-0.0) would drop the sign
    x.imag[: dim // 4] = zeros[picks[1]]
    return rng.permutation(x)


def _array_backed_operators(space, rng):
    s = random_series(rng, space.alphabet, min(3, space.depth))
    a = realize(s, space)
    shifts = [word_shift(space, word(*[space.n] * k), side) for k in (1, 2) for side in ("left", "right")]
    return [a, a.adjoint(), *shifts, shifts[0].adjoint(), a @ shifts[1] + 0.5j * a]


@pytest.mark.parametrize("n,depth", BIT_POINTS)
def test_apply_matches_the_scipy_matvec_to_the_bit(n, depth):
    space = FockSpace(Alphabet(n), depth)
    rng = rng_for(depth, "apply-bits", n)
    for op in _array_backed_operators(space, rng):
        x = _signed_vector(rng, space.dim)
        got = op.apply(Vector(space, x)).data
        assert got.tobytes() == (scipy_csr(op) @ x).tobytes()


def literal_cesaro_error_vectors(s, space, x):
    # The stacked-CSR route the check ran before: one scipy matvec of the
    # nine difference matrices stacked on the realize pattern.
    indptr, indices, word = regular._realize_pattern(space, s.degree, 1)
    data = regular.cesaro_coefficients(s, verify.CESARO_ORDERS)[:, word] - s.coeffs[word]
    orders = len(verify.CESARO_ORDERS)
    row_starts = np.arange(orders)[:, None] * word.size + indptr[None, :-1]
    stacked = sparse.csr_matrix(
        (data.ravel(), np.tile(indices, orders), np.append(row_starts, data.size)),
        shape=(orders * space.dim, space.dim),
    )
    return (stacked @ x).reshape(orders, space.dim)


@pytest.mark.parametrize("n,depth", BIT_POINTS)
def test_cesaro_error_vectors_match_the_stacked_scipy_matvec_to_the_bit(n, depth):
    space = FockSpace(Alphabet(n), depth)
    rng = rng_for(depth, "cesaro-bits", n)
    zone = within(space, space.depth - min(3, depth - 1))
    for _ in range(20):
        s = random_series(rng, space.alphabet, min(3, depth - 1))
        x = np.zeros(space.dim, dtype=np.complex128)
        x[zone] = _signed_vector(rng, zone.size)
        got = verify._cesaro_error_vectors(s, space, x)
        assert got.tobytes() == literal_cesaro_error_vectors(s, space, x).tobytes()


@pytest.mark.parametrize("n,depth", BIT_POINTS)
def test_array_backed_operators_hold_scipys_canonical_arrays(n, depth):
    space = FockSpace(Alphabet(n), depth)
    rng = rng_for(depth, "canonical-arrays", n)
    for op in _array_backed_operators(space, rng):
        mat = scipy_csr(op)
        assert mat.has_canonical_format
        canonical = mat.tocoo().tocsr()  # scipy sorts and sums the entries itself
        canonical.sum_duplicates()
        for arr, name in zip(op.csr, ("data", "indices", "indptr")):
            want = getattr(canonical, name)
            assert arr.dtype == want.dtype and arr.tobytes() == want.tobytes(), name
        adjoint = mat.conjugate().transpose().tocsr()
        adjoint.sum_duplicates()
        for arr, name in zip(op.adjoint().csr, ("data", "indices", "indptr")):
            assert arr.tobytes() == getattr(adjoint, name).tobytes(), name


@pytest.mark.parametrize("n,depth", BIT_POINTS)
def test_fourier_coefficients_read_the_vacuum_column_as_the_matvec_does(n, depth):
    space = FockSpace(Alphabet(n), depth)
    rng = rng_for(depth, "vacuum-column-bits", n)
    vacuum = basis_vector(space, Word())
    rows, cols = rng.integers(0, space.dim, size=(2, 3 * space.dim))
    cols[::3] = 0  # a third of the entries on the vacuum column, some rows twice
    signed = Operator.from_entries(space, space, rows, cols, _signed_vector(rng, rows.size))
    for t in [*_array_backed_operators(space, rng), signed]:
        got = fourier_coefficients(t).coeffs
        want = FourierSeries(space.alphabet, t.apply(vacuum).data).coeffs
        assert got.tobytes() == want.tobytes()


def test_realize_pattern_rejects_tables_that_miss_its_slots(monkeypatch):
    # The comult-boundary mutant in the shift tables: each word of length
    # k >= 1 loses its columns with a factor of length depth - k, so at (2, 3)
    # the tables fill 25 of the 49 slots sized from the closed form.
    honest = regular._power_tables

    def boundary_tables(space, degree, fold):
        for k, rows, cols in honest(space, degree, fold):
            if k:
                parts = np.unravel_index(cols, (space.dim,) * fold)
                fits = np.logical_and.reduce([space.lengths[p] < space.depth - k for p in parts])
                rows, cols = rows[:, fits], cols[fits]
            yield k, rows, cols

    space = FockSpace(A2, 3)
    regular._realize_pattern.cache_clear()
    monkeypatch.setattr(regular, "_power_tables", boundary_tables)
    try:
        for fold in (1, 2):
            with pytest.raises(ValueError, match="pattern slots"):
                regular._realize_pattern(space, 3, fold)
        with pytest.raises(ValueError, match="fill 25 of the 49"):
            realize(FourierSeries(A2, {word(1): 1.0, word(1, 2, 2): 0.5}), space)
    finally:
        regular._realize_pattern.cache_clear()


def test_the_composer_refuses_a_leg_that_is_no_partial_map():
    # A column storing two entries cannot be composed as an index map, on one leg or two.
    space = FockSpace(A2, 2)
    two = Operator.from_entries(space, space, [0, 1], [0, 0], [1.0, 1.0])
    shift = word_shift(space, word(1))
    for ops in [(two,), (shift, two), ((shift, two),), ((two, shift), shift)]:
        with pytest.raises(ValueError, match="no partial map"):
            regular._product_map(ops)


def test_no_source_module_builds_a_kronecker_product_flip_or_slice():
    # The tensor-leg identities compose index maps: the Kronecker product, the flip and
    # the slice maps live in the tests (leg_reference), and regular alone composes maps.
    removed = {"tensor_op", "_kron", "flip_operator", "permutation_operator", "slice_left", "slice_right"}
    composers = {"_product_map", "_column_map", "_map_defect", "map_entries"}
    naming, composing = set(), set()
    for path in sorted(Path(regular.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = {getattr(node, field, None) for field in ("id", "attr", "name", "asname", "value")}
            if any(isinstance(name, str) and name in removed for name in names):
                naming.add(path.name)
            is_def = isinstance(node, ast.FunctionDef)
            if is_def and (node.name in composers or "no partial map" in ast.unparse(node)):
                composing.add(path.name)
    assert naming == set()
    assert composing == {"regular.py"}
