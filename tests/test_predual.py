import numpy as np
import pytest

from fockhopf import graded
from fockhopf.hopf import comult
from fockhopf.predual import (
    Functional,
    _monomial_values,
    convolve,
    counit_defect,
    dagger,
    from_rank_one,
    indicator_functional,
    point_convolution_defect,
    point_functional,
    pointwise_product,
    predual_coassociativity_defect,
    predual_comult,
    predual_homomorphism_defect,
    tensor_convolve,
)
from fockhopf.regular import FourierSeries
from fockhopf.sampling import (
    EXACT_BITS,
    FINE_BITS,
    dyadic_complex,
    random_ball_point,
    random_rank_one_functional,
    random_vector,
    rng_for,
)
from fockhopf.spaces import FockSpace, basis_vector
from fockhopf.words import Alphabet, Word, word
from scipy_oracle import scipy_csr

A2 = Alphabet(2)
H3 = FockSpace(A2, 3)
H4 = FockSpace(A2, 4)


def literal_monomial(w, point):
    """w(point): the coordinates multiplied out letter by letter as Python complex numbers."""
    out = complex(1.0)
    for a in w.letters:
        out *= point[a - 1]
    return out


def vacuum_functional(space):
    """The vacuum rank-one state; its value array is the unit-word indicator."""
    vac = basis_vector(space, Word())
    return from_rank_one(space, [(vac, vac)])


def pair_values(split):
    """Every admissible pair (u, v) with its value, read off the (|u|, |v|) blocks."""
    words = split.space.words
    return {
        (u, v): complex(val)
        for (k, m), block in split.blocks.items()
        for u, row in zip(graded.block(split.space, words, k), block)
        for v, val in zip(graded.block(split.space, words, m), row)
    }


def test_rank_one_indicator_values():
    for w in H3.words:
        f = indicator_functional(H3, w)
        expected = np.zeros(H3.dim, dtype=complex)
        expected[H3.index_of(w)] = 1.0
        assert np.array_equal(f.values, expected)


def test_vacuum_functional_is_unit_indicator():
    f = vacuum_functional(H3)
    assert f.value(Word()) == 1.0
    assert np.count_nonzero(f.values) == 1


def test_rank_one_empty_and_mismatch():
    f = from_rank_one(H3, [])
    assert not f.values.any()
    with pytest.raises(ValueError):
        from_rank_one(H3, [(basis_vector(H4, Word()), basis_vector(H4, Word()))])


def test_provenance_consistency_checked_on_construction():
    vac = basis_vector(H3, Word())
    good = Functional(H3, vacuum_functional(H3).values, provenance=((vac, vac),))
    assert good.value(Word()) == 1.0
    with pytest.raises(ValueError):
        Functional(H3, np.ones(H3.dim), provenance=((vac, vac),))


def test_rank_one_matches_pairing_definition():
    # Oracle: evaluate (L_w xi, eta) directly through the shift operators.
    from fockhopf.regular import word_shift

    rng = rng_for(0, "rank-one")
    for _ in range(10):
        xi = random_vector(rng, H3)
        eta = random_vector(rng, H3)
        f = from_rank_one(H3, [(xi, eta)])
        for w in H3.words:
            oracle = np.vdot(eta.data, word_shift(H3, w, "left").apply(xi).data)
            assert f.value(w) == pytest.approx(oracle, abs=1e-13)


def test_convolution_of_indicators():
    for u in H3.words[:5]:
        for v in H3.words[:5]:
            conv = convolve(indicator_functional(H3, u), indicator_functional(H3, v))
            if u == v:
                assert np.count_nonzero(conv.values) == 1
                assert conv.value(u) == 1.0
            else:
                assert not conv.values.any()


def test_convolution_with_vacuum_state():
    rng = rng_for(0, "conv-vac")
    f = random_rank_one_functional(rng, H3)
    conv = convolve(f, vacuum_functional(H3))
    assert conv.value(Word()) == f.value(Word())
    assert np.count_nonzero(conv.values) <= 1


def test_convolution_matches_slice_oracle():
    # The pointwise product equals evaluating f (x) g against the
    # comultiplied word operators.
    rng = rng_for(0, "conv-oracle")
    images = {w: comult(FourierSeries.indicator(A2, w), H4) for w in H4.words}
    for _ in range(100):
        f = random_rank_one_functional(rng, H4)
        g = random_rank_one_functional(rng, H4)
        conv = convolve(f, g)
        xi1, eta1 = f.provenance[0]
        xi2, eta2 = g.provenance[0]
        xx = np.kron(xi1.data, xi2.data)
        ee = np.kron(eta1.data, eta2.data)
        for w, image in images.items():
            oracle = complex(np.vdot(ee, scipy_csr(image) @ xx))
            assert abs(oracle - conv.value(w)) <= 1e-12


def test_convolution_commutative_exact():
    rng = rng_for(0, "conv-comm")
    for _ in range(50):
        f = random_rank_one_functional(rng, H3)
        g = random_rank_one_functional(rng, H3)
        assert np.array_equal(convolve(f, g).values, convolve(g, f).values)


def test_convolution_associative_exact_on_coarse_grid():
    rng = rng_for(0, "conv-assoc")
    for _ in range(50):
        f = random_rank_one_functional(rng, H3, bits=EXACT_BITS)
        g = random_rank_one_functional(rng, H3, bits=EXACT_BITS)
        h = random_rank_one_functional(rng, H3, bits=EXACT_BITS)
        lhs = convolve(convolve(f, g), h)
        rhs = convolve(f, convolve(g, h))
        assert np.array_equal(lhs.values, rhs.values)


def test_convolution_space_mismatch():
    with pytest.raises(ValueError):
        convolve(vacuum_functional(H3), vacuum_functional(H4))


def test_predual_comult_factorization_counts():
    for w in H3.words:
        split = predual_comult(indicator_functional(H3, w))
        support = {k for k, v in pair_values(split).items() if v != 0}
        assert len(support) == len(w) + 1
        assert all(u.concat(v) == w for u, v in support)


def test_predual_comult_of_vacuum():
    split = predual_comult(vacuum_functional(H3))
    support = {k for k, v in pair_values(split).items() if v != 0}
    assert support == {(Word(), Word())}


def test_predual_comult_pullback():
    rng = rng_for(0, "predual-pullback")
    f = random_rank_one_functional(rng, H3)
    split = predual_comult(f)
    for (u, v), val in pair_values(split).items():
        assert val == f.value(u.concat(v)) == split.value(u, v)
    assert split.value(word(1, 2), word(2, 1)) == 0j  # past the depth


def test_predual_coassociativity_exact():
    rng = rng_for(0, "predual-coassoc")
    for _ in range(10):
        f = random_rank_one_functional(rng, H3)
        assert predual_coassociativity_defect(f) == 0.0


def test_predual_homomorphism_exact():
    rng = rng_for(0, "predual-hom")
    for _ in range(10):
        f = random_rank_one_functional(rng, H3)
        g = random_rank_one_functional(rng, H3)
        assert predual_homomorphism_defect(f, g) == 0.0
        lhs = predual_comult(convolve(f, g))
        rhs = tensor_convolve(predual_comult(f), predual_comult(g))
        for key, val in pair_values(lhs).items():
            assert rhs.value(*key) == val


def test_point_functional_values_are_monomials():
    lam = (0.5, 0.25)
    pf = point_functional(H3, lam)
    for w in H3.words:
        assert pf.functional.value(w) == literal_monomial(w, lam)
    p = FourierSeries(A2, {Word(): 2.0, word(1, 2): 4.0})
    values = dict(zip(H3.words, pf.functional.values))
    pairing = sum(c * values[w] for w, c in p.items())
    assert pairing == 2.0 + 4.0 * 0.5 * 0.25


@pytest.mark.parametrize("n,depth", [(1, 6), (2, 7), (3, 4), (1, 7), (3, 7)])
def test_point_functional_matches_word_products_bit_for_bit(n, depth):
    # Dyadic points, standard-normal points scaled into the ball, and signed zeros.
    space = FockSpace(Alphabet(n), depth)
    rng = rng_for(0, "point-bits", n, depth)
    points = [random_ball_point(rng, n) for _ in range(20)]
    for _ in range(20):
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        points.append(tuple(z * (rng.uniform(0.05, 0.99) / np.linalg.norm(z))))
    points.append(tuple(complex(-0.0, (-1) ** a * 0.0) for a in range(n)))
    for point in points:
        got = point_functional(space, point).functional.values
        want = np.array([literal_monomial(w, point) for w in space.words])
        assert got.real.tobytes() == want.real.tobytes()
        assert got.imag.tobytes() == want.imag.tobytes()


def per_point_convolution_defect(space, lam, mu):
    """The point-family defect from one point_functional per point."""
    pl = point_functional(space, lam).functional
    conv = convolve(pl, point_functional(space, mu).functional)
    target = point_functional(space, pointwise_product(lam, mu)).functional
    conj = point_functional(space, tuple(complex(z).conjugate() for z in lam)).functional
    pairs = ((conv, target), (dagger(pl), conj), (dagger(dagger(pl)), pl))
    return max(float(np.abs(a.values - b.values).max()) for a, b in pairs)


@pytest.mark.parametrize("n,depth", [(1, 7), (2, 7), (3, 4)])
def test_point_convolution_defect_matches_one_functional_per_point(n, depth):
    # The defect evaluates its four points in one stacked recurrence; each
    # row must be the point's own functional, so the defect is the same float.
    space = FockSpace(Alphabet(n), depth)
    rng = rng_for(0, "point-stack", n, depth)
    for _ in range(20):
        lam, mu = random_ball_point(rng, n), random_ball_point(rng, n, radius=0.97)
        stacked = _monomial_values(space, [lam, mu])
        for row, point in zip(stacked, (lam, mu)):
            assert row.tobytes() == point_functional(space, point).functional.values.tobytes()
        assert point_convolution_defect(space, lam, mu) == per_point_convolution_defect(space, lam, mu)


def reference_dyadic_complex(rng, size, bits):
    """Both parts drawn, then formed as one complex expression."""
    scale = 1 << bits
    shape = () if size is None else (size,)
    re = rng.integers(-scale, scale + 1, size=shape)
    im = rng.integers(-scale, scale + 1, size=shape)
    out = (re + 1j * im) / scale
    return complex(out) if size is None else out.astype(np.complex128)


@pytest.mark.parametrize("bits", [EXACT_BITS, FINE_BITS])
def test_dyadic_complex_matches_the_complex_expression(bits):
    # Same bytes (signed zeros included) and the same generator state after
    # every call, for scalars and arrays of odd and even sizes, interleaved.
    got_rng, want_rng = rng_for(0, "dyadic", bits), rng_for(0, "dyadic", bits)
    for size in [None, 3, 0, 1, 255, None, 8, 1000, None]:
        got = dyadic_complex(got_rng, size, bits=bits)
        want = reference_dyadic_complex(want_rng, size, bits)
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_point_functional_at_zero_is_vacuum():
    pf = point_functional(H3, (0.0, 0.0))
    assert np.array_equal(pf.functional.values, vacuum_functional(H3).values)


def test_point_functional_ball_validation():
    with pytest.raises(ValueError):
        point_functional(H3, (1.0, 0.0))
    with pytest.raises(ValueError):
        point_functional(H3, (0.9, 0.9))
    with pytest.raises(ValueError):
        point_functional(H3, (0.5,))


def test_point_convolution_family_exact():
    rng = rng_for(0, "point-family")
    for _ in range(50):
        lam = random_ball_point(rng, 2)
        mu = random_ball_point(rng, 2)
        conv = convolve(point_functional(H4, lam).functional, point_functional(H4, mu).functional)
        target = point_functional(H4, pointwise_product(lam, mu))
        assert np.array_equal(conv.values, target.functional.values)


def test_point_convolution_defect_operation():
    rng = rng_for(0, "point-defect")
    for _ in range(25):
        lam = random_ball_point(rng, 2)
        mu = random_ball_point(rng, 2)
        assert point_convolution_defect(H4, lam, mu) == 0.0


def test_point_convolution_specific():
    lam = (0.5, 0.0)
    conv = convolve(point_functional(H3, lam).functional, point_functional(H3, lam).functional)
    target = point_functional(H3, (0.25, 0.0))
    assert np.array_equal(conv.values, target.functional.values)


def test_dagger_examples():
    pf = point_functional(H3, (0.5j, 0.0))
    conj = point_functional(H3, (-0.5j, 0.0))
    assert np.array_equal(dagger(pf.functional).values, conj.functional.values)
    rng = rng_for(0, "dagger")
    f = random_rank_one_functional(rng, H3)
    assert np.array_equal(dagger(dagger(f)).values, f.values)


def test_nu_reconstruction_matches_tail_formula():
    # Independent geometric-series oracle for the rank-one reconstruction.
    lam = (0.5, 0.0)
    depth = 8
    space = FockSpace(A2, depth)
    pf = point_functional(space, lam)
    approx = pf.rank_one_functional()
    t = pf.ball_norm_sq
    partial = [sum(t**j for j in range(m + 1)) for m in range(depth + 1)]
    bound = pf.reconstruction_tail_bound()
    assert bound.shape == (space.dim,)
    for i, w in enumerate(space.words):
        assert bound[i] == t ** (depth - len(w) + 1) / (1.0 - t)
        exact = literal_monomial(w, lam) * partial[depth - len(w)] / partial[depth]
        assert approx.value(w) == pytest.approx(exact, abs=1e-14)
        err = abs(approx.value(w) - pf.functional.value(w))
        assert err <= bound[i] + 1e-15
        if len(w) <= 2:
            assert err < 1e-3


def test_nu_vector_is_normalized():
    pf = point_functional(H4, (0.3, -0.4j))
    assert np.linalg.norm(pf.vector.data) == pytest.approx(1.0, abs=1e-12)


def test_counit_defect_examples():
    ones = Functional(H3, np.ones(H3.dim))
    assert counit_defect(ones) == 0.0
    assert np.all(ones.values == 1.0)
    pf = point_functional(H3, (0.9, 0.0))
    assert counit_defect(pf.functional) >= 0.1
    assert counit_defect(vacuum_functional(H3)) == 1.0


def test_counit_defect_positive_on_ball():
    rng = rng_for(0, "counit")
    for _ in range(100):
        lam = random_ball_point(rng, 2, radius=0.97)
        d = counit_defect(point_functional(H3, lam).functional)
        assert d >= 1.0 - max(abs(z) for z in lam) - 1e-15
        assert d > 0.0


def test_counit_defect_reads_the_unit_and_letter_values():
    # Against the word-keyed definition: the largest miss of phi(L_e) and
    # phi(L_i) from 1, one value looked up per word.
    rng = rng_for(0, "counit-literal")
    for n in (1, 2, 3):
        space = FockSpace(Alphabet(n), 3)
        for _ in range(10):
            f = random_rank_one_functional(rng, space)
            words = [Word()] + [Word((i,)) for i in space.alphabet.letters]
            assert counit_defect(f) == max(abs(f.value(w) - 1.0) for w in words)


def test_all_ones_unreachable_from_points():
    # A point functional takes value lambda_i on the letter words, and those
    # stay strictly inside the unit circle, so no point reaches the unit array.
    rng = rng_for(0, "ones")
    for _ in range(50):
        lam = random_ball_point(rng, 2, radius=0.97)
        f = point_functional(H3, lam).functional
        assert not np.all(f.values == 1.0)
        assert max(abs(f.value(word(i))) for i in (1, 2)) < 1.0


def functional_json(f):
    # One [re, im] pair per word, keyed by the word's text.
    return {w.text(f.space.n): [v.real, v.imag] for w, v in zip(f.space.words, f.values)}


def test_functional_serialization():
    f = indicator_functional(H3, word(1, 2))
    blob = functional_json(f)
    assert blob["12"] == [1.0, 0.0]
    assert blob["e"] == [0.0, 0.0]
    assert len(blob) == H3.dim


def test_ball_sampling_terminates_in_high_dimension():
    # Rejection alone would essentially never land inside the ball for large
    # n; the halving fallback must keep samples on the grid and in the ball.
    rng = rng_for(0, "ball-dim")
    for n in (1, 4, 12):
        for _ in range(20):
            lam = random_ball_point(rng, n)
            assert sum(abs(z) ** 2 for z in lam) < 0.49
            scaled = [z * 2**12 for z in lam]
            for z in scaled:
                assert float(z.real).is_integer() and float(z.imag).is_integer()


def looped_ball_point(rng, n, radius, bits):
    """Rejection one sample at a time, then halving: what the one-draw replay reproduces."""
    bound = radius**2
    coords = dyadic_complex(rng, n, bits=bits)
    for _ in range(64):
        if sum(abs(z) ** 2 for z in coords) < bound:
            return tuple(complex(z) for z in coords)
        coords = dyadic_complex(rng, n, bits=bits)
    while sum(abs(z) ** 2 for z in coords) >= bound:
        coords = coords / 2
    return tuple(complex(z) for z in coords)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 12])
def test_ball_sampling_replays_the_rejection_loop(n):
    # Same coordinates bit for bit (signed zeros included) and the same
    # generator state after every call.  Radius 0.05 mostly ends in halving;
    # on radius 0.5 the grid meets the sphere, where only the strict test rejects.
    for radius in (0.05, 0.5, 0.7, 0.97):
        for bits in (3, 5):
            replayed = rng_for(0, "ball-replay", n, radius, bits)
            looped = rng_for(0, "ball-replay", n, radius, bits)
            for _ in range(40):
                got = random_ball_point(replayed, n, radius=radius, bits=bits)
                want = looped_ball_point(looped, n, radius, bits)
                assert [(z.real.hex(), z.imag.hex()) for z in got] == [
                    (z.real.hex(), z.imag.hex()) for z in want
                ]
                assert replayed.bit_generator.state == looped.bit_generator.state


def test_a_nan_value_makes_both_comultiplication_defects_nan():
    # Python's max keeps a NaN only when it comes first; this one comes last.
    rng = rng_for(0, "nan-value")
    f = random_rank_one_functional(rng, H3)
    values = np.array(f.values)
    values[-1] = np.nan
    bad = Functional(H3, values)
    assert np.isnan(predual_coassociativity_defect(bad))
    assert np.isnan(predual_homomorphism_defect(bad, f))
