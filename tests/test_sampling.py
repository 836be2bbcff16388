"""One stacked draw against the per-sample draws it stands for.

``sampling.dyadic_trials`` draws the samples of many trials with one
``rng.integers`` call; the stacked checks of ``verify`` and the rewind of
``sampling.random_ball_point`` rest on that call giving the values, and
leaving the generator in the state, of one call a sample.
"""

import numpy as np
import pytest

from fockhopf import verify
from fockhopf.sampling import EXACT_BITS, FINE_BITS, dyadic_complex, dyadic_trials, rng_for, random_ball_point

from trial_reference import dyadic

SIZES = [[1], [2], [7], [8], [3, 9], [7, 5], [4, 1, 6], [13, 13]]


@pytest.mark.parametrize("bits", [EXACT_BITS, FINE_BITS])
@pytest.mark.parametrize("sizes", SIZES, ids=str)
@pytest.mark.parametrize("trials", [1, 2, 3, 101])
def test_one_stacked_draw_is_the_per_trial_stream(bits, sizes, trials):
    stacked, looped = rng_for(trials, "stacked-draw", bits, *sizes), rng_for(trials, "stacked-draw", bits, *sizes)
    got = dyadic_trials(stacked, trials, sizes, bits)
    want = [[dyadic(looped, size, bits) for size in sizes] for _ in range(trials)]
    assert [arr.shape for arr in got] == [(trials, size) for size in sizes]
    for k, arr in enumerate(got):
        assert arr.tobytes() == np.array([row[k] for row in want]).tobytes()
    assert stacked.bit_generator.state == looped.bit_generator.state


@pytest.mark.parametrize("bits", [EXACT_BITS, FINE_BITS])
@pytest.mark.parametrize("sizes", [[7, 5], [3]], ids=str)
def test_chunked_draws_across_several_chunks_are_the_per_trial_stream(bits, sizes):
    # The draws of successive chunks, as the stacked checks make them, one call a chunk.
    trials, entries = 1000, verify.TRIAL_ENTRIES // 300  # chunks of 300, 300, 300 and 100 trials
    chunks = list(verify._chunks(trials, entries))
    assert len(chunks) >= 3 and sum(chunks) == trials and chunks[-1] < chunks[0]
    stacked, looped = rng_for(7, "chunked-draw", bits), rng_for(7, "chunked-draw", bits)
    got = [dyadic_trials(stacked, count, sizes, bits) for count in chunks]
    want = [[dyadic(looped, size, bits) for size in sizes] for _ in range(trials)]
    for k in range(len(sizes)):
        stacked_rows = np.concatenate([chunk[k] for chunk in got])
        assert stacked_rows.tobytes() == np.array([row[k] for row in want]).tobytes()
    assert stacked.bit_generator.state == looped.bit_generator.state


@pytest.mark.parametrize("size", [None, 0, 1, 6, 31])
def test_dyadic_complex_is_one_trial(size):
    a, b = rng_for(3, "one-trial", size), rng_for(3, "one-trial", size)
    got = dyadic_complex(a, size)
    want = dyadic(b, 1 if size is None else size)
    if size is None:
        assert isinstance(got, complex) and got == complex(want[0])
    else:
        assert got.tobytes() == want.tobytes()
    assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_ball_point_rewinds_to_the_sample_by_sample_stream(n):
    # The point is the first drawn sample inside the ball; the generator ends
    # after that sample, where drawing sample by sample would leave it.
    rng, looped = rng_for(5, "ball-rewind", n), rng_for(5, "ball-rewind", n)
    for _ in range(20):
        point = random_ball_point(rng, n, radius=0.7)
        for attempt in range(65):
            draws = looped.integers(-32, 33, size=(2, n))
            sample = (draws[0] + 1j * draws[1]) / 32
            squares = np.abs(sample) ** 2
            total = squares[0]
            for square in squares[1:]:  # left to right, as the sampler sums them
                total = total + square
            if attempt < 64 and total < 0.7**2:
                assert point == tuple(complex(z) for z in sample)
                break
        assert rng.bit_generator.state == looped.bit_generator.state
