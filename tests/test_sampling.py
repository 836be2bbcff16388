"""One stacked draw against the per-sample draws it stands for.

``sampling.dyadic_trials`` draws the samples of many trials with one
``rng.integers`` call; the stacked checks of ``verify`` and the look-ahead and
rewind of ``sampling.random_ball_points`` rest on that call giving the values,
and leaving the generator in the state, of one call a sample.
"""

import numpy as np
import pytest

from fockhopf import verify
from fockhopf.sampling import (
    EXACT_BITS, FINE_BITS, dyadic_complex, dyadic_trials, random_ball_point, random_ball_points, rng_for,
)

from trial_reference import ball_point, dyadic

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


class CountingDraws:
    """A generator that counts its ``integers`` calls."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        return self.rng.integers(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.rng, name)


@pytest.mark.parametrize("count", [1, 7, 100])
@pytest.mark.parametrize("radius", [0.7, 0.97])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_ball_points_are_the_per_call_stream(n, radius, count):
    # One look-ahead for all the points gives the points, bit for bit, and the
    # final generator state of one per-call draw a point.  A per-call draw that
    # makes one ``integers`` call found no sample inside among 64 and halved the
    # 65th (it has nothing to rewind): at n = 3 and radius 0.7 about half do.
    stacked = rng_for(count, "ball-points", n, radius)
    looped = CountingDraws(rng_for(count, "ball-points", n, radius))
    got = random_ball_points(stacked, n, count, radius)
    want, halved = [], 0
    for _ in range(count):
        before = looped.calls
        want.append(ball_point(looped, n, radius))
        halved += looped.calls - before == 1
    assert got.shape == (count, n) and got.dtype == np.complex128
    assert got.tobytes() == np.array(want, dtype=np.complex128).tobytes()
    assert stacked.bit_generator.state == looped.bit_generator.state
    if (n, radius, count) == (3, 0.7, 100):
        assert 25 <= halved <= 75
    assert random_ball_point(rng_for(count, "ball-points", n, radius), n, radius) == want[0]
