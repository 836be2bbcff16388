import ast
from pathlib import Path

import numpy as np
import pytest

from fockhopf import corep, graded, hopf
from fockhopf.graded import within
from fockhopf.hopf import (
    _comult_columns,
    _legwise_columns,
    coassociativity_defect,
    cocommutativity_defect,
    comult,
    grouplike_defect,
    grouplike_series,
    homomorphism_defect,
    integral_invariance_defect,
    integral_value,
    vacuum_expansion_defect,
)
from fockhopf.regular import FourierSeries, realize, word_shift
from fockhopf.sampling import EXACT_BITS, FINE_BITS, random_series, rng_for
from fockhopf.spaces import (
    FockSpace,
    Operator,
    basis_vector,
    max_entry_diff,
    tensor_space,
    vacuum_leg_decomposition,
)
from fockhopf.verify import SuiteConfig, build_report
from fockhopf.words import Alphabet, Word, word
from leg_reference import flip_permutation, kron, slice_left, slice_right
from scipy_oracle import entries_csc, max_abs, scipy_csr

A2 = Alphabet(2)
H3 = FockSpace(A2, 3)


def test_comult_rejects_series_over_another_alphabet():
    series = FourierSeries(A2, {word(1, 2): 1.0})
    with pytest.raises(ValueError, match="alphabet"):
        comult(series, FockSpace(Alphabet(3), 3))


def test_comult_on_generators():
    for i in (1, 2):
        image = comult(FourierSeries.indicator(A2, word(i)), H3, fold=2)
        shift = word_shift(H3, word(i), "left")
        assert max_entry_diff(image, kron(shift, shift)) == 0.0


def test_comult_unit_is_identity():
    image = comult(FourierSeries.unit(A2), H3, fold=2)
    pair = tensor_space(H3, H3)
    assert max_entry_diff(image, Operator.identity(pair)) == 0.0


def test_comult_threefold_generator():
    image = comult(FourierSeries.indicator(A2, word(1)), H3, fold=3)
    shift = word_shift(H3, word(1), "left")
    assert max_entry_diff(image, kron(shift, shift, shift)) == 0.0


def test_comult_rejects_bad_input():
    with pytest.raises(ValueError):
        comult(FourierSeries.unit(A2), H3, fold=1)
    with pytest.raises(ValueError):
        comult(FourierSeries.indicator(A2, word(1, 1, 1, 1)), H3)


def test_diagonal_coefficients():
    rng = rng_for(0, "hopf-diagonal")
    s = random_series(rng, A2, 2, bits=EXACT_BITS)
    image = comult(s, H3, fold=2)
    pair = tensor_space(H3, H3)
    vac = 0  # (e, e)
    for w in H3.words:
        assert scipy_csr(image)[H3.index_of(w) * H3.dim + H3.index_of(w), vac] == s.coefficient(w)
    assert vacuum_expansion_defect(s, H3) == 0.0
    # Off-diagonal vacuum coefficients vanish.
    out = image.apply(basis_vector(pair, vac)).data
    for u in H3.words[:4]:
        for v in H3.words[:4]:
            if u != v:
                assert out[H3.index_of(u) * H3.dim + H3.index_of(v)] == 0.0


def test_comult_determined_by_vacuum_column():
    # Right shifts commute with the comultiplied operator, so transporting
    # the vacuum image rebuilds every column exactly.
    rng = rng_for(0, "hopf-vacuum-transport")
    s = random_series(rng, A2, 1, bits=EXACT_BITS)
    image = comult(s, H3)
    pair = image.domain
    vac = basis_vector(pair, 0)  # (e, e)
    base = image.apply(vac)
    for alpha in H3.words:
        for beta in H3.words:
            mover = kron(
                word_shift(H3, alpha.reverse(), "right"),
                word_shift(H3, beta.reverse(), "right"),
            )
            transported = mover.apply(base)
            direct = image.apply(basis_vector(pair, H3.index_of(alpha) * H3.dim + H3.index_of(beta)))
            assert np.array_equal(transported.data, direct.data)


def test_coassociativity_specific_series():
    s = FourierSeries(A2, {word(1): 1.0, word(1, 2): 2 - 1j})
    assert coassociativity_defect(s, H3) == 0.0
    assert coassociativity_defect(FourierSeries.unit(A2), H3) == 0.0


def test_coassociativity_random():
    rng = rng_for(0, "hopf-coassoc")
    for _ in range(50):
        s = random_series(rng, A2, 2, bits=EXACT_BITS)
        assert coassociativity_defect(s, H3) == 0.0


def test_leg_families_match_slices():
    rng = rng_for(0, "hopf-legs")
    s = random_series(rng, A2, 2, bits=EXACT_BITS)
    image = comult(s, H3, fold=2)
    vac = basis_vector(H3, Word())
    for leg, slicer in ((1, slice_left), (2, slice_right)):
        family = vacuum_leg_decomposition(image, leg=leg)
        for w in list(family) + list(H3.words[:3]):
            via_slice = slicer([(vac, basis_vector(H3, w))], image)
            assert max_entry_diff(family.get(w, Operator.zero(H3)), via_slice) == 0.0
            # The extracted coefficient operators are the scaled word shifts.
            expected = s.coefficient(w) * word_shift(H3, w, "left")
            assert max_entry_diff(via_slice, expected) == 0.0


def test_cocommutativity():
    rng = rng_for(0, "hopf-cocomm")
    assert cocommutativity_defect(FourierSeries(A2, {word(1): 1.0, word(2): 1.0}), H3) == 0.0
    for _ in range(50):
        s = random_series(rng, A2, 2, bits=EXACT_BITS)
        assert cocommutativity_defect(s, H3) == 0.0


def test_homomorphism_generators():
    s = FourierSeries.indicator(A2, word(1))
    assert homomorphism_defect(s, s, H3) == 0.0
    assert homomorphism_defect(FourierSeries.unit(A2), s, H3) == 0.0


def test_homomorphism_random_pairs():
    space = FockSpace(A2, 5)
    rng = rng_for(0, "hopf-hom")
    for _ in range(30):
        s = random_series(rng, A2, 2, bits=EXACT_BITS)
        t = random_series(rng, A2, 2, bits=EXACT_BITS)
        assert homomorphism_defect(s, t, space) == 0.0
    with pytest.raises(ValueError):
        homomorphism_defect(random_series(rng, A2, 2), random_series(rng, A2, 2), H3)


def test_integral_values():
    assert integral_value(FourierSeries(A2, {Word(): 3.0, word(1): 5.0})) == 3.0
    for w in H3.words:
        expected = 1.0 if w == Word() else 0.0
        assert integral_value(FourierSeries.indicator(A2, w)) == expected


def test_integral_invariance():
    rng = rng_for(0, "hopf-integral")
    for _ in range(25):
        s = random_series(rng, A2, 2, bits=EXACT_BITS)
        assert integral_invariance_defect(s, H3) == 0.0


def test_grouplike_solutions_are_indicators():
    sols = grouplike_series(FockSpace(A2, 2))
    assert len(sols) == 7
    supports = {s.support[0] for s in sols}
    assert supports == set(FockSpace(A2, 2).words)
    for s in sols:
        assert {c for _, c in s.items()} == {1.0}


def test_grouplike_series_are_fresh_per_call():
    # The solved words are cached; the series handed out must not be shared.
    space = FockSpace(A2, 2)
    first = grouplike_series(space)
    assert not first[0].coeffs.flags.writeable
    second = grouplike_series(space)
    assert second[0] is not first[0]
    assert second[0] == FourierSeries.indicator(A2, Word())
    assert [s.support for s in second] == [(w,) for w in space.words]


def test_grouplike_enumeration_oracle():
    # Independent oracle at n=2, depth=2: the coefficient equations force
    # every entry into {0, 1}, so scan all 0/1 support patterns.
    space = FockSpace(A2, 2)
    words = space.words
    solutions = []
    for mask in range(1, 2 ** len(words)):
        coeffs = {w: 1.0 for b, w in enumerate(words) if (mask >> b) & 1}
        ok = all(
            coeffs.get(u, 0) * coeffs.get(v, 0) == (coeffs.get(u, 0) if u == v else 0)
            for u in words
            for v in words
        )
        if ok:
            solutions.append(frozenset(coeffs))
    assert len(solutions) == 7
    got = {frozenset(s.support) for s in grouplike_series(space)}
    assert got == set(solutions)


def test_grouplike_counts_by_space():
    assert len(grouplike_series(FockSpace(Alphabet(1), 3))) == 4
    assert len(grouplike_series(H3)) == 15


def test_grouplike_rejects_sum_of_indicators():
    double = FourierSeries(A2, {word(1): 1.0, word(2): 1.0})
    assert grouplike_defect(double, H3) == 1.0
    # and the offending entry is the cross term of the tensor square
    image = comult(double, H3)
    square = kron(realize(double, H3), realize(double, H3))
    row = H3.index_of(word(1)) * H3.dim + H3.index_of(word(2))
    col = 0  # (e, e)
    assert scipy_csr(square)[row, col] == 1.0
    assert scipy_csr(image)[row, col] == 0.0


def test_grouplike_defect_zero_on_indicators():
    for w in H3.words:
        assert grouplike_defect(FourierSeries.indicator(A2, w), H3) == 0.0


# ---------------------------------------------------------------------------
# The four planned defects against the per-series operator routes they replace.
# Each reference looks its routes up on the hopf module at call time, so a
# mutant patched there reaches the reference and the plan alike.


def reference_coassociativity(series, space):
    delta = hopf.comult(series, space, fold=2)
    cols = within(space, space.depth - series.degree, fold=3)
    shape = (space.dim**3, cols.size)
    route_a = entries_csc(hopf._legwise_columns(delta, space, family_leg=2, columns=cols), shape)
    route_b = entries_csc(hopf._legwise_columns(delta, space, family_leg=0, columns=cols), shape)
    route_c = entries_csc(hopf._comult_columns(series, space, 3, cols), shape)
    return max(max_abs(route_a - route_c), max_abs(route_b - route_c), max_abs(route_a - route_b))


def reference_cocommutativity(series, space):
    delta = hopf.comult(series, space, fold=2)
    flip = flip_permutation(delta.domain)
    return max_entry_diff(flip @ delta @ flip, delta)


def reference_homomorphism(s, t, space):
    if s.degree + t.degree > space.depth:
        raise ValueError("combined degree exceeds the depth")
    product_image = hopf.comult(s * t, space, fold=2)
    left = hopf.comult(s, space, fold=2)
    right = hopf.comult(t, space, fold=2)
    cols = within(space, space.depth - s.degree - t.degree, fold=2)
    composed_cols = scipy_csr(left) @ scipy_csr(right).tocsc()[:, cols]
    return max_abs(composed_cols - scipy_csr(product_image).tocsc()[:, cols])


def reference_integral_invariance(series, space):
    delta = hopf.comult(series, space, fold=2)
    vacuum = basis_vector(space, Word())
    pairs = [(vacuum, vacuum)]
    target = hopf.integral_value(series) * Operator.identity(space)
    left = slice_right(pairs, delta)
    right = slice_left(pairs, delta)
    return max(max_entry_diff(left, target), max_entry_diff(right, target))


PLANS = (
    hopf._coassociativity_plan,
    hopf._cocommutativity_plan,
    hopf._homomorphism_plan,
    hopf._integral_plan,
)
GRID = [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (2, 5), (2, 7)]


@pytest.fixture
def fresh_plans():
    # A mutant's plan must neither reuse an honest cached plan nor outlive the test.
    for plan in PLANS:
        plan.cache_clear()
    yield
    for plan in PLANS:
        plan.cache_clear()


def _series_kinds(space, degree, rng):
    """A series with one zero coefficient, one whose top degree is all zero, and FINE_BITS data."""
    full = random_series(rng, space.alphabet, degree, bits=EXACT_BITS)
    words = [w for w, _ in full.items()]
    hole = words[int(rng.integers(len(words)))]
    yield FourierSeries(space.alphabet, {w: c for w, c in full.items() if w != hole}), 0.0
    dropped = FourierSeries(space.alphabet, {w: c for w, c in full.items() if len(w) < degree})
    assert degree == 0 or dropped.degree < degree
    yield dropped, 0.0
    yield random_series(rng, space.alphabet, degree, bits=FINE_BITS), 1e-12


def _agree(got, want, tol):
    assert got == want if tol == 0.0 else abs(got - want) <= tol, (got, want)


@pytest.mark.parametrize("n,depth", GRID)
def test_planned_defects_match_the_operator_routes(n, depth):
    space = FockSpace(Alphabet(n), depth)
    rng = rng_for(depth, "hopf-plans", n)
    for series, tol in _series_kinds(space, min(2, depth), rng):
        for planned, reference in (
            (coassociativity_defect, reference_coassociativity),
            (cocommutativity_defect, reference_cocommutativity),
            (integral_invariance_defect, reference_integral_invariance),
        ):
            _agree(planned(series, space), reference(series, space), tol)
    degree = min(2, depth // 2)
    for (s, tol), (t, _) in zip(_series_kinds(space, degree, rng), _series_kinds(space, degree, rng)):
        _agree(homomorphism_defect(s, t, space), reference_homomorphism(s, t, space), tol)
        _agree(homomorphism_defect(t, s, space), reference_homomorphism(t, s, space), tol)


def test_a_dropped_degree_keys_the_lower_degree_plan(fresh_plans):
    # Its safe zone is the larger one of the lower degree, as for the routes.
    space = FockSpace(A2, 4)
    rng = rng_for(0, "hopf-dropped-degree")
    s = FourierSeries(A2, {w: c for w, c in random_series(rng, A2, 2).items() if len(w) < 2})
    coassociativity_defect(s, space)
    cocommutativity_defect(s, space)
    integral_invariance_defect(s, space)
    homomorphism_defect(s, s, space)
    for plan, key in zip(PLANS, [(1,), (1,), (1, 1, 2), (1,)]):
        assert plan.cache_info().currsize == 1
        plan(space, *key)
        assert plan.cache_info().currsize == 1, plan


def test_planned_defects_raise_what_the_routes_raise():
    other = FourierSeries.indicator(Alphabet(3), word(3))
    deep = FourierSeries.indicator(A2, word(1, 1, 1, 1))
    for defect in (coassociativity_defect, cocommutativity_defect, integral_invariance_defect):
        for bad, message in ((other, "alphabet"), (deep, "exceeds depth")):
            with pytest.raises(ValueError, match=message):
                defect(bad, H3)
    two = FourierSeries.indicator(A2, word(1, 2))
    with pytest.raises(ValueError, match="combined degree"):
        homomorphism_defect(two, two, H3)
    with pytest.raises(ValueError, match="alphabets differ"):
        homomorphism_defect(FourierSeries.unit(A2), other, H3)


def test_trials_on_cached_plans_build_no_sparse_matrix(monkeypatch):
    space = FockSpace(Alphabet(3), 4)
    rng = rng_for(0, "hopf-plan-trials")
    s, t = (random_series(rng, space.alphabet, 2, bits=EXACT_BITS) for _ in range(2))
    runs = (
        lambda: coassociativity_defect(s, space),
        lambda: cocommutativity_defect(s, space),
        lambda: homomorphism_defect(s, t, space),
        lambda: integral_invariance_defect(s, space),
    )
    for run in runs:
        run()  # builds or reuses the plan
    built = []
    honest = Operator.__post_init__

    def counting(self):
        built.append(self.shape)
        honest(self)

    monkeypatch.setattr(Operator, "__post_init__", counting)
    for run in runs:
        assert run() == 0.0
    assert built == []


# Mutants: each plan must carry a fault of its routes into every trial.
H4 = FockSpace(A2, 4)


def _mutant_series(seed):
    rng = rng_for(seed, "hopf-plan-mutants")
    return [random_series(rng, A2, 2, bits=EXACT_BITS) for _ in range(3)]


def _legs_swapped(delta, space, family_leg, columns):
    # The iterate lands its first two legs in each other's place.
    rows, cols, vals = _legwise_columns(delta, space, family_leg, columns)
    shape = (space.dim,) * 3
    i0, i1, i2 = np.unravel_index(rows, shape)
    return np.ravel_multi_index((i1, i0, i2), shape), cols, vals


def _first_word_dropped(series, space, fold, columns):
    rest = FourierSeries(series.alphabet, dict(list(series.items())[1:]))
    return _comult_columns(rest, space, fold, columns)


@pytest.mark.parametrize(
    "name,mutant", [("_legwise_columns", _legs_swapped), ("_comult_columns", _first_word_dropped)]
)
def test_coassociativity_plan_carries_route_mutants(monkeypatch, fresh_plans, name, mutant):
    monkeypatch.setattr(hopf, name, mutant)
    defects = [coassociativity_defect(s, H4) for s in _mutant_series(1)]
    assert min(defects) > 0.0
    assert defects == [reference_coassociativity(s, H4) for s in _mutant_series(1)]


def literal_comult_columns(series, space, fold, columns):
    # The per-word loop: every word of the series, as a Word, read back through index_of.
    shape = (space.dim,) * fold
    parts = np.unravel_index(columns, shape)
    rows, cols, vals = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)], [np.empty(0)]
    for w, c in series.items():
        rank = space.index_of(w) - space._block_starts[len(w)]
        src = within(space, space.depth - len(w))
        table = graded.concat(space, len(w), rank, *graded.length_rank(space, src))
        keep = np.flatnonzero(np.all([p < table.size for p in parts], axis=0))
        rows.append(np.ravel_multi_index(tuple(table[p[keep]] for p in parts), shape))
        cols.append(keep)
        vals.append(np.full(keep.size, c, dtype=np.complex128))
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


@pytest.mark.parametrize("n,depth", GRID)
def test_coassociativity_plan_matches_the_per_word_comult_loop(monkeypatch, fresh_plans, n, depth):
    space = FockSpace(Alphabet(n), depth)
    planned = hopf._coassociativity_plan(space, min(2, depth))
    hopf._coassociativity_plan.cache_clear()
    monkeypatch.setattr(hopf, "_comult_columns", literal_comult_columns)
    literal = hopf._coassociativity_plan(space, min(2, depth))
    assert planned.shape[0] == 3 and np.array_equal(planned, literal)


def test_cocommutativity_plan_is_cached_per_space(fresh_plans):
    # The flipped entries are read once per (space, degree), inside the cached plan.
    space = FockSpace(A2, 2)
    assert hopf._cocommutativity_plan(space, 2) is hopf._cocommutativity_plan(space, 2)
    assert hopf._cocommutativity_plan.cache_info().misses == 1


def _left_leg_only(series, space, fold=2):
    # A (x) 1 instead of the tensor square: not flip-invariant.
    return kron(realize(series, space), Operator.identity(space))


@pytest.mark.parametrize("name,mutant", [("comult", _left_leg_only)])
def test_cocommutativity_plan_carries_route_mutants(monkeypatch, fresh_plans, name, mutant):
    monkeypatch.setattr(hopf, name, mutant)
    defects = [cocommutativity_defect(s, H4) for s in _mutant_series(2)]
    assert min(defects) > 0.0
    assert defects == [reference_cocommutativity(s, H4) for s in _mutant_series(2)]


def test_plans_reject_entries_that_are_not_one_tag(monkeypatch, fresh_plans):
    # A comultiplication that also lands the coefficients of the unit and the
    # word 1 on each other's entries stores sums of two tags there, which no
    # plan may read as one word.
    honest = hopf.comult

    def merged(series, space, fold=2):
        swapped = {word(1): series.coefficient(Word()), Word(): series.coefficient(word(1))}
        extra = FourierSeries(series.alphabet, swapped)
        return honest(series, space, fold) + honest(extra, space, fold)

    monkeypatch.setattr(hopf, "comult", merged)
    s = random_series(rng_for(0, "hopf-merged"), A2, 2, bits=EXACT_BITS)
    for defect in (coassociativity_defect, cocommutativity_defect, integral_invariance_defect):
        with pytest.raises(ValueError, match="tag"):
            defect(s, H4)
    with pytest.raises(ValueError, match="tag"):
        homomorphism_defect(s, s, H4)


@pytest.mark.parametrize("name,mutant", [("integral_value", lambda s: s.coefficient(word(1)))])
def test_integral_plan_carries_route_mutants(monkeypatch, fresh_plans, name, mutant):
    monkeypatch.setattr(hopf, name, mutant)
    defects = [integral_invariance_defect(s, H4) for s in _mutant_series(3)]
    assert min(defects) > 0.0
    assert defects == [reference_integral_invariance(s, H4) for s in _mutant_series(3)]


def test_homomorphism_plan_misses_a_dropped_factorization_pair(monkeypatch, fresh_plans):
    honest = hopf._homomorphism_plan

    def dropped(space, ds, dt, dp):
        slot, u, v, w = honest(space, ds, dt, dp)
        return slot[1:], u[1:], v[1:], w

    monkeypatch.setattr(hopf, "_homomorphism_plan", dropped)
    s, t, _ = _mutant_series(4)
    assert homomorphism_defect(s, t, H4) > 0.0
    assert reference_homomorphism(s, t, H4) == 0.0


def test_homomorphism_plan_catches_a_reversed_product(monkeypatch, fresh_plans):
    # The one Cauchy product kernel with its factors swapped forms t s for s t,
    # in the planned defect and in the series product of the operator route.
    honest = graded.cauchy_product
    monkeypatch.setattr(graded, "cauchy_product", lambda space, left, right: honest(space, right, left))
    s, t, _ = _mutant_series(5)
    assert homomorphism_defect(s, t, H4) > 0.0
    assert homomorphism_defect(s, t, H4) == reference_homomorphism(s, t, H4)


# ---------------------------------------------------------------------------
# The grouplike solve: one tagged comparison per space against the per-word
# operator defect, and the faults of either route it must show.


@pytest.fixture
def fresh_grouplike():
    # A mutant's words must neither come from an honest cached solve nor outlive the test.
    hopf._grouplike_words.cache_clear()
    yield
    hopf._grouplike_words.cache_clear()


@pytest.mark.parametrize("n,depth", GRID)
def test_grouplike_words_are_the_indicators_without_defect(n, depth):
    space = FockSpace(Alphabet(n), depth)
    indicators = ((w, FourierSeries.indicator(space.alphabet, w)) for w in space.words)
    assert hopf._grouplike_words(space) == tuple(
        w for w, s in indicators if grouplike_defect(s, space) == 0.0
    )


def test_grouplike_solve_drops_the_word_whose_shift_loses_an_entry(monkeypatch, fresh_grouplike):
    lossy_word = word(1, 2)
    honest = corep.word_shift

    def lossy(space, w, side="left"):
        shift = honest(space, w, side)
        if w != lossy_word:
            return shift
        coo = scipy_csr(shift).tocoo()
        return Operator.from_entries(space, space, coo.row[1:], coo.col[1:], coo.data[1:])

    monkeypatch.setattr(corep, "word_shift", lossy)
    assert hopf._grouplike_words(H3) == tuple(w for w in H3.words if w != lossy_word)
    report = build_report([SuiteConfig(n=2, depth=3, trials=2, suites=("hopf",))])
    failed = [c["name"] for c in report["checks"] if not c["pass"]]
    assert failed == ["grouplike"]


def test_grouplike_solve_drops_two_words_whose_tags_swap(monkeypatch, fresh_grouplike):
    u, v = word(2), word(1, 1)
    honest = hopf.comult

    def swapped(series, space, fold=2):
        coeffs = dict(series.items())
        coeffs[u], coeffs[v] = series.coefficient(v), series.coefficient(u)
        return honest(FourierSeries(series.alphabet, coeffs), space, fold)

    monkeypatch.setattr(hopf, "comult", swapped)
    assert hopf._grouplike_words(H3) == tuple(w for w in H3.words if w not in (u, v))


def test_slice_oracle_rejects_two_words_on_one_position(monkeypatch):
    # The vacuum's image lands on the entries of the word 1 too: the fold-2
    # pattern stores each of them twice, once for each word.  Summed in a
    # matrix, a real tag i + 1 would read (1 + 2) there as the word 2; the
    # raw pattern arrays must refuse a row that stores a position twice.
    honest = hopf._realize_pattern
    one = H3.index_of(word(1))

    def merged(space, degree, fold):
        indptr, cols, words = honest(space, degree, fold)
        rows = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
        extra = np.flatnonzero(words == one)
        rows, cols = np.append(rows, rows[extra]), np.append(cols, cols[extra])
        words = np.append(words, np.zeros(extra.size, dtype=words.dtype))  # the vacuum is index 0
        order = np.lexsort((cols, rows))
        counts = np.bincount(rows, minlength=indptr.size - 1)
        return np.append(0, np.cumsum(counts)).astype(indptr.dtype), cols[order], words[order]

    monkeypatch.setattr(hopf, "_realize_pattern", merged)
    with pytest.raises(ValueError, match="twice"):
        hopf.comult_legs(H3)


# ---------------------------------------------------------------------------
# The tag decoder against the complex-tag comparison it replaced.


def literal_decode_tags(values, dim):
    # Every value against the complex tag of the word its real part names.
    word = values.real.astype(np.int64) - 1
    if np.any((word < 0) | (word >= dim)) or np.any(values != hopf._tags(word)):
        raise ValueError("a tagged entry is not exactly one word's tag")
    return word


@pytest.mark.parametrize(
    "bad",
    [
        hopf._tags(np.array([2])) + hopf._tags(np.array([5])),  # a sum of two tags
        hopf._tags(np.array([4])) + 0.5,  # a tag plus 0.5 on the real part
        hopf._tags(np.array([-1])),  # the tag of index -1: real part 0
        hopf._tags(np.array([H3.dim])),  # the tag of index dim: real part dim + 1
        hopf._tags(np.array([3])) + 1j,  # a wrong imaginary part
    ],
    ids=["sum", "real-half", "index-0", "index-dim+1", "imag"],
)
def test_decode_tags_rejects_every_value_that_is_no_tag(bad):
    values = np.concatenate([hopf._tags(np.arange(H3.dim)), bad])
    for decode in (hopf._decode_tags, literal_decode_tags):
        with pytest.raises(ValueError, match="tag"):
            decode(values, H3.dim)


def test_only_hopf_names_the_tag_format():
    # The tags are hopf's private format: every other module reads Delta
    # through hopf's public functions, so no other source names the tags.
    private = {"_tags", "_tagged_series", "_decode_tags"}
    naming = set()
    for path in sorted(Path(hopf.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            fields = ("id", "attr", "name", "asname", "value")  # the string constants too
            names = {getattr(node, field, None) for field in fields}
            if any(isinstance(name, str) and name in private for name in names):
                naming.add(path.name)
    assert naming == {"hopf.py"}


@pytest.mark.parametrize("n,depth", GRID)
def test_decode_tags_reads_the_words_of_the_tagged_comult(n, depth):
    space = FockSpace(Alphabet(n), depth)
    values = scipy_csr(comult(hopf._tagged_series(space, depth), space)).data
    got = hopf._decode_tags(values, space.dim)
    want = literal_decode_tags(values, space.dim)
    assert got.dtype == want.dtype and np.array_equal(got, want)


# ---------------------------------------------------------------------------
# Tensor-leg identities on stored entries against their scipy routes


def reference_grouplike(series, space):
    # Delta(A) - A (x) A in scipy, A (x) A by scipy's kron, read in the slack-degree columns.
    a = realize(series, space)
    cols = within(space, space.depth - series.degree, fold=2)
    return max_abs(scipy_csr(comult(series, space)) - scipy_csr(kron(a, a)), cols)


@pytest.mark.parametrize("n,depth", GRID)
def test_grouplike_defect_matches_the_kronecker_route_to_the_bit(n, depth):
    space = FockSpace(Alphabet(n), depth)
    rng = rng_for(depth, "hopf-grouplike-kron", n)
    for degree in range(min(3, depth) + 1):
        size = space._block_starts[degree + 1]
        for _ in range(5):
            series = FourierSeries(space.alphabet, rng.standard_normal(size) + 1j * rng.standard_normal(size))
            got, want = grouplike_defect(series, space), reference_grouplike(series, space)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (degree, got, want)
    assert grouplike_defect(FourierSeries.indicator(space.alphabet, space.words[-1]), space) == 0.0


def reference_plans(space, degree):
    # The cocommutativity plan of flip Delta flip and the integral plan of the two vacuum
    # slices, each formed by scipy, then read by the one tag reader.
    tagged = hopf._tagged_series(space, degree)
    delta = comult(tagged, space)
    flip = scipy_csr(flip_permutation(delta.domain))
    flipped = (flip @ scipy_csr(delta) @ flip).tocoo()
    cocommutativity = hopf._read_tags([(flipped.row, flipped.col, flipped.data), delta.coo()], delta.shape, space.dim)
    vacuum = basis_vector(space, Word())
    target = hopf.integral_value(tagged) * Operator.identity(space)
    slices = [slicer([(vacuum, vacuum)], delta).coo() for slicer in (slice_right, slice_left)]
    return cocommutativity, hopf._read_tags([*slices, target.coo()], target.shape, space.dim)


@pytest.mark.parametrize("n,depth", GRID)
def test_flip_and_slice_plans_match_the_scipy_routes(fresh_plans, n, depth):
    space = FockSpace(Alphabet(n), depth)
    for degree in range(depth + 1):
        planned = (hopf._cocommutativity_plan(space, degree), hopf._integral_plan(space, degree))
        for got, want in zip(planned, reference_plans(space, degree)):
            assert got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want), degree
