"""The per-trial loops of the stacked checks: one trial drawn and checked at a time.

``verify`` runs these checks a chunk of trials at a time, one draw and one
array pass a chunk; the tests compare every defect it yields with these
loops, byte for byte.  The loops keep their own copies of the per-trial
kernels the stacked code replaced: the sample draw (two ``rng.integers``
rows a sample), the rank-one values (one product a block), the slice-oracle
pairing, the plan gather and the homomorphism's scatter, and the Cesaro
vectors are a stacked scipy matvec of the nine difference matrices.  They
share with ``verify`` the hopf plans, the comultiplication leg maps, the
ball-point sampler, the monomial values, the series type and its product, and
``vacuum_expansion_defect``, which stays a trial at a time.
"""

import numpy as np
from scipy import sparse

from fockhopf import graded, hopf, predual, regular, sampling
from fockhopf.regular import FourierSeries
from fockhopf.verify import CESARO_ORDERS
from fockhopf.words import count_words


def dyadic(rng, size, bits=sampling.FINE_BITS):
    """``size`` samples: all real parts drawn, then all imaginary parts."""
    scale = 1 << bits
    draws = rng.integers(-scale, scale + 1, size=(2, size))
    out = np.empty(size, dtype=np.complex128)
    np.divide(draws[0], scale, out=out.real)
    np.divide(draws[1], scale, out=out.imag)
    return out


def series(rng, alphabet, degree, bits):
    return FourierSeries(alphabet, dyadic(rng, count_words(alphabet, degree), bits))


def rank_one_values(space, xi, eta):
    """(L_w xi, eta), the vacuum's term a vector dot, every other row block a matrix-vector product."""
    values = np.zeros(space.dim, dtype=np.complex128)
    starts, depth = space._block_starts, space.depth
    conj_eta, vacuum = np.conj(eta), values[0]
    for m in range(depth + 1):
        rows = starts[depth + 1 - m]
        tail = conj_eta[starts[m] :].reshape(rows, space.n**m)
        xi_m = xi[starts[m] : starts[m + 1]]
        vacuum += tail[0] @ xi_m
        values[1:rows] += tail[1:] @ xi_m
    values[0] = vacuum
    return values


def rank_one(rng, space, bits=sampling.FINE_BITS):
    """The values and the vectors of [xi eta*], xi drawn first."""
    xi = dyadic(rng, space.dim, bits)
    eta = dyadic(rng, space.dim, bits)
    return rank_one_values(space, xi, eta), xi, eta


def _scipy_cesaro_error_vectors(s, space, x):
    indptr, indices, word = regular._realize_pattern(space, s.degree, 1)
    lengths = graded.length_rank(space, np.arange(s.coeffs.size))[0]
    coefficients = np.maximum(1.0 - lengths / np.asarray(CESARO_ORDERS)[:, None], 0.0) * s.coeffs
    data = coefficients[:, word] - s.coeffs[word]
    orders = len(CESARO_ORDERS)
    row_starts = np.arange(orders)[:, None] * word.size + indptr[None, :-1]
    stacked = sparse.csr_matrix(
        (data.ravel(), np.tile(indices, orders), np.append(row_starts, data.size)),
        shape=(orders * space.dim, space.dim),
    )
    return (stacked @ x).reshape(orders, space.dim)


def cesaro_bound(cfg, rng):
    space = cfg.space
    degree = min(3, cfg.depth - 1)
    zone = graded.within(space, space.depth - degree)
    for _ in range(cfg.trials):
        s = series(rng, cfg.alphabet, degree, sampling.FINE_BITS)
        x = np.zeros(space.dim, dtype=np.complex128)
        x[zone] = dyadic(rng, zone.size)
        nx = float(np.linalg.norm(x))
        lengths = graded.length_rank(space, np.arange(s.coeffs.size))[0]
        moduli = np.hypot(s.coeffs.real, s.coeffs.imag)
        bounds = [float(np.cumsum(np.minimum(lengths / k, 1.0) * moduli)[-1]) for k in CESARO_ORDERS]
        for diff, bound in zip(_scipy_cesaro_error_vectors(s, space, x), bounds):
            yield float(np.linalg.norm(diff)) - bound * nx


def _gathered_defect(coef, plan, pairs):
    vals = np.append(coef, 0)[plan]  # -1 reads the appended zero
    return max([0.0] + [float(np.abs(vals[i] - vals[j]).max(initial=0.0)) for i, j in pairs])


def _hopf_trials(plan_of, pairs, cap, cfg, rng):
    for _ in range(cfg.trials if cap is None else min(cfg.trials, cap)):
        s = series(rng, cfg.alphabet, min(2, cfg.depth), sampling.EXACT_BITS)
        yield _gathered_defect(s.coeffs, plan_of(cfg.space, s.degree), pairs)


def coassociativity(cfg, rng):
    return _hopf_trials(hopf._coassociativity_plan, ((0, 2), (1, 2), (0, 1)), None, cfg, rng)


def cocommutativity(cfg, rng):
    return _hopf_trials(hopf._cocommutativity_plan, ((0, 1),), None, cfg, rng)


def integral_invariance(cfg, rng):
    return _hopf_trials(hopf._integral_plan, ((0, 2), (1, 2)), 25, cfg, rng)


def vacuum_expansion(cfg, rng):
    for _ in range(min(cfg.trials, 25)):
        s = series(rng, cfg.alphabet, min(2, cfg.depth), sampling.EXACT_BITS)
        yield hopf.vacuum_expansion_defect(s, cfg.space)


def homomorphism(cfg, rng):
    degree = min(2, cfg.depth // 2)
    for _ in range(cfg.trials):
        s = series(rng, cfg.alphabet, degree, sampling.EXACT_BITS)
        t = series(rng, cfg.alphabet, degree, sampling.EXACT_BITS)
        product = s * t
        slot, u, v, w = hopf._homomorphism_plan(cfg.space, s.degree, t.degree, product.degree)
        composed = np.zeros(w.size, dtype=np.complex128)
        np.add.at(composed, slot, s.coeffs[u] * t.coeffs[v])
        yield float(np.abs(composed - np.append(product.coeffs, 0)[w]).max(initial=0.0))


def slice_oracle_defect(legs, conv_values, xi1, eta1, xi2, eta2):
    ce1, ce2 = np.conj(eta1), np.conj(eta2)
    oracle = [(ce1[a] @ xi1[: a.shape[1]]) * (ce2[b] @ xi2[: b.shape[1]]) for a, b in legs]
    return float(np.abs(np.concatenate(oracle) - conv_values).max(initial=0.0))


def convolve_slice_oracle(cfg, rng):
    space = cfg.space
    legs = hopf.comult_legs(space)
    for _ in range(cfg.trials):
        f, xi1, eta1 = rank_one(rng, space)
        g, xi2, eta2 = rank_one(rng, space)
        yield slice_oracle_defect(legs, f * g, xi1, eta1, xi2, eta2)


def convolve_algebra(cfg, rng):
    space = cfg.space
    for _ in range(min(cfg.trials, 25)):
        f, g, h = (rank_one(rng, space, sampling.EXACT_BITS)[0] for _ in range(3))
        yield float(np.abs(f * g - g * f).max(initial=0.0))
        yield float(np.abs((f * g) * h - f * (g * h)).max(initial=0.0))


def counit_positive(cfg, rng):
    for _ in range(cfg.trials):
        lam = sampling.random_ball_point(rng, cfg.n, radius=0.97)
        values = predual._monomial_values(cfg.space, [lam])[0]
        miss = values[: cfg.n + 1] - 1.0
        d = float(np.hypot(miss.real, miss.imag).max())
        lower = 1.0 - max(abs(z) for z in lam) if lam else 1.0
        yield lower - d
        yield float(not d > 0.0)


# (suite, check name) -> the per-trial loop of that check.
LOOPS = {
    ("regrep", "cesaro_bound"): cesaro_bound,
    ("hopf", "coassociativity"): coassociativity,
    ("hopf", "cocommutativity"): cocommutativity,
    ("hopf", "homomorphism"): homomorphism,
    ("hopf", "integral_invariance"): integral_invariance,
    ("hopf", "vacuum_expansion"): vacuum_expansion,
    ("predual", "convolve_slice_oracle"): convolve_slice_oracle,
    ("predual", "convolve_algebra"): convolve_algebra,
    ("predual", "counit_positive"): counit_positive,
}
# The checks that stack their arrays; vacuum_expansion only draws a chunk at a time.
STACKED = [key for key in LOOPS if key != ("hopf", "vacuum_expansion")]
