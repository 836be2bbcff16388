"""Seeded random data for property checks.

Coefficients are drawn uniformly from a dyadic grid (multiples of 2^-bits) in
the square [-1, 1] x [-1, 1] of the complex plane.  On such a grid every
product and partial sum arising in the exact-defect identities is itself an
exact double, so reorderings of floating-point accumulation cannot break an
"exactly zero" contract; checks that only need a tolerance use a finer grid.
Every stream is derived from an explicit seed, so runs are reproducible.
"""

from __future__ import annotations

import zlib

import numpy as np

from .predual import Functional, from_rank_one
from .regular import FourierSeries
from .spaces import FockSpace, Vector
from .words import Alphabet, count_words

EXACT_BITS = 4
FINE_BITS = 10


def rng_for(seed: int, *labels: object) -> np.random.Generator:
    """An independent generator derived from the seed and a stable label path."""
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF]
    entropy.extend(zlib.crc32(str(label).encode("utf-8")) for label in labels)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def dyadic_trials(rng: np.random.Generator, trials: int, sizes: list[int], bits: int = FINE_BITS):
    """Trial by trial, one (trials, size) array of samples per size, uniform on the dyadic grid.

    A sample's real parts are drawn, then its imaginary parts, each divided by 2^bits in place.
    One ``rng.integers`` call draws them all, with the values and the final generator state of
    one call a sample (``tests/test_sampling.py::test_one_stacked_draw_is_the_per_trial_stream``).
    """
    scale = 1 << bits
    draws = rng.integers(-scale, scale + 1, size=(trials, 2 * sum(sizes)))
    out = [np.empty((trials, size), dtype=np.complex128) for size in sizes]
    for k, size in enumerate(sizes):
        part = draws[:, 2 * sum(sizes[:k]) :]
        np.divide(part[:, :size], scale, out=out[k].real)
        np.divide(part[:, size : 2 * size], scale, out=out[k].imag)
    return out


def dyadic_complex(rng: np.random.Generator, size: int | None = None, bits: int = FINE_BITS):
    """Complex samples on the dyadic grid in [-1, 1]: one trial of :func:`dyadic_trials`."""
    out = dyadic_trials(rng, 1, [1 if size is None else size], bits)[0][0]
    return complex(out[0]) if size is None else out


def random_series(
    rng: np.random.Generator, alphabet: Alphabet, degree: int, bits: int = FINE_BITS
) -> FourierSeries:
    """Fully supported random series of the given degree."""
    return FourierSeries(alphabet, dyadic_complex(rng, count_words(alphabet, int(degree)), bits=bits))


def random_vector(rng: np.random.Generator, space, bits: int = FINE_BITS) -> Vector:
    return Vector(space, dyadic_complex(rng, space.dim, bits=bits))


def random_rank_one_functional(
    rng: np.random.Generator, space: FockSpace, bits: int = FINE_BITS
) -> Functional:
    """The functional [xi eta*] of two random vectors, xi drawn first."""
    xi = random_vector(rng, space, bits=bits)
    eta = random_vector(rng, space, bits=bits)
    return from_rank_one(space, [(xi, eta)])


def random_rank_one_functionals(rng, space: FockSpace, count: int, trials: int, bits: int = FINE_BITS):
    """``count`` stacks of ``trials`` functionals, each drawn as by :func:`random_rank_one_functional`,
    trial by trial, in one :func:`dyadic_trials` call."""
    vecs = [Vector(space, v) for v in dyadic_trials(rng, trials, [space.dim] * (2 * count), bits)]
    return [from_rank_one(space, [pair]) for pair in zip(vecs[::2], vecs[1::2])]


def random_ball_point(
    rng: np.random.Generator, n: int, radius: float = 0.7, bits: int = 5
) -> tuple[complex, ...]:
    """A point of the open ball of the given radius, coordinates on a dyadic grid.

    The coarse default grid keeps monomial identities exact in double
    precision only up to depth 5: the numerators of w(lambda) w(mu) and
    w(lambda mu) need about 11 |w| bits, so past depth 5 the two float routes
    can round apart (``predual.point_family`` misses its threshold-0 contract
    by about 1e-19 at depths 7, 9 and 11).

    The point is the first of up to 65 grid samples, each drawn as by
    :func:`dyadic_complex` (n real parts, then n imaginary parts), whose
    squared moduli, summed left to right, fall below radius^2.  All 65 are
    drawn at once and tested together; the generator is then rewound and
    redraws exactly the samples up to the accepted one, so it ends where a
    sample-by-sample loop would leave it (one call draws the stream of many:
    ``tests/test_sampling.py``).  Rejection keeps the coordinates on the grid but
    its acceptance rate collapses in high dimension, so when the first 64 samples
    all miss, the 65th is halved into the ball instead (halving a dyadic stays dyadic).
    """
    if not 0 < radius < 1:
        raise ValueError("radius must lie in (0, 1)")
    bound = radius**2
    scale = 1 << bits
    state = rng.bit_generator.state
    draws = rng.integers(-scale, scale + 1, size=(65, 2, n))
    samples = (draws[:, 0] + 1j * draws[:, 1]) / scale
    squares = np.abs(samples) ** 2
    norms = squares[:, 0]
    for j in range(1, n):
        norms = norms + squares[:, j]
    inside = np.flatnonzero(norms[:64] < bound)
    if inside.size:
        used = int(inside[0]) + 1
        rng.bit_generator.state = state
        rng.integers(-scale, scale + 1, size=(used, 2, n))
        return tuple(complex(z) for z in samples[used - 1])
    coords = samples[64]
    while sum(abs(z) ** 2 for z in coords) >= bound:
        coords = coords / 2
    return tuple(complex(z) for z in coords)
