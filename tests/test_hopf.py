import numpy as np
import pytest

from fockhopf.hopf import (
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
from fockhopf.sampling import EXACT_BITS, random_series, rng_for
from fockhopf.spaces import (
    FockSpace,
    Operator,
    basis_vector,
    max_entry_diff,
    slice_left,
    slice_right,
    tensor_op,
    tensor_space,
    vacuum_leg_decomposition,
)
from fockhopf.words import Alphabet, Word, word

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
        assert max_entry_diff(image, tensor_op(shift, shift)) == 0.0


def test_comult_unit_is_identity():
    image = comult(FourierSeries.unit(A2), H3, fold=2)
    pair = tensor_space(H3, H3)
    assert max_entry_diff(image, Operator.identity(pair)) == 0.0


def test_comult_threefold_generator():
    image = comult(FourierSeries.indicator(A2, word(1)), H3, fold=3)
    shift = word_shift(H3, word(1), "left")
    assert max_entry_diff(image, tensor_op(shift, shift, shift)) == 0.0


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
    vac = pair.index_of((Word(), Word()))
    for w in H3.words:
        assert image.matrix[pair.index_of((w, w)), vac] == s.coefficient(w)
    assert vacuum_expansion_defect(s, H3) == 0.0
    # Off-diagonal vacuum coefficients vanish.
    out = image.apply(basis_vector(pair, (Word(), Word()))).data
    for u in H3.words[:4]:
        for v in H3.words[:4]:
            if u != v:
                assert out[pair.index_of((u, v))] == 0.0


def test_comult_determined_by_vacuum_column():
    # Right shifts commute with the comultiplied operator, so transporting
    # the vacuum image rebuilds every column exactly.
    rng = rng_for(0, "hopf-vacuum-transport")
    s = random_series(rng, A2, 1, bits=EXACT_BITS)
    image = comult(s, H3)
    pair = image.domain
    vac = basis_vector(pair, (Word(), Word()))
    base = image.apply(vac)
    for alpha in H3.words:
        for beta in H3.words:
            mover = tensor_op(
                word_shift(H3, alpha.reverse(), "right"),
                word_shift(H3, beta.reverse(), "right"),
            )
            transported = mover.apply(base)
            direct = image.apply(basis_vector(pair, (alpha, beta)))
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
        assert set(s.coeffs.values()) == {1.0}


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
    got = {frozenset(s.coeffs) for s in grouplike_series(space)}
    assert got == set(solutions)


def test_grouplike_counts_by_space():
    assert len(grouplike_series(FockSpace(Alphabet(1), 3))) == 4
    assert len(grouplike_series(H3)) == 15


def test_grouplike_rejects_sum_of_indicators():
    double = FourierSeries(A2, {word(1): 1.0, word(2): 1.0})
    assert grouplike_defect(double, H3) == 1.0
    # and the offending entry is the cross term of the tensor square
    image = comult(double, H3)
    square = tensor_op(realize(double, H3), realize(double, H3))
    pair = tensor_space(H3, H3)
    row = pair.index_of((word(1), word(2)))
    col = pair.index_of((Word(), Word()))
    assert square.matrix[row, col] == 1.0
    assert image.matrix[row, col] == 0.0


def test_grouplike_defect_zero_on_indicators():
    for w in H3.words:
        assert grouplike_defect(FourierSeries.indicator(A2, w), H3) == 0.0


def test_grouplike_equations_can_fail():
    # Only the support enters the coefficient system, which still rejects
    # 2 * 1_w (a_w a_w != a_w) and 1_u + 1_v (a_u a_v != 0).
    from fockhopf.hopf import _satisfies_grouplike_equations

    w = word(1, 2)
    assert _satisfies_grouplike_equations(FourierSeries.indicator(A2, w), H3)
    assert not _satisfies_grouplike_equations(FourierSeries(A2, {w: 2.0}), H3)
    assert not _satisfies_grouplike_equations(FourierSeries(A2, {word(1): 1.0, word(2): 1.0}), H3)
