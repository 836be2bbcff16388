"""The per-trial loops of the stacked checks: one trial drawn and checked at a time.

``verify`` runs these checks a chunk of trials at a time, one array pass a
chunk, and most of them one draw a chunk; the tests compare every defect it
yields with these loops, byte for byte.  The loops keep their own copies of
the per-trial kernels the stacked code replaced: the sample draw (two
``rng.integers`` rows a sample), the ball-point sampler (one look-ahead a
point), the rank-one values (one product a block), the slice-oracle pairing,
the plan gather and the homomorphism's scatter, the point-family and
reconstruction defects, the two comultiplication defects (a block at a time),
the vacuum-column read, the membership defect, the word shifts and their
composed index maps, the coefficient series of one vector pair and the prefix
stripped one letter at a time; the product of representations is scipy's
sparse product, and the Cesaro vectors are a stacked scipy matvec of the nine
difference matrices.  They share with ``verify`` the hopf plans, the
comultiplication leg maps, the monomial values, the series type and its
product, ``realize``, ``vacuum_expansion_defect``, which stays a trial at a
time, a representation's evaluation and the characters' product
``tensor_product_rep``.
"""
import math

import numpy as np
from scipy import sparse

from fockhopf import corep, graded, hopf, predual, regular, sampling, verify, wandering
from fockhopf.regular import FourierSeries
from fockhopf.spaces import Operator, _worst_defect, basis_vector, column_entries, max_entry_diff, sum_by_key
from fockhopf.verify import CESARO_ORDERS
from fockhopf.words import Word, count_words

from scipy_oracle import from_scipy, scipy_csr


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


def ball_point(rng, n, radius=0.7, bits=5):
    """One point a call: 65 grid samples drawn at once, the first of the leading 64 inside the
    ball taken and the generator rewound to just after it, else the 65th halved into the ball."""
    bound, scale = radius**2, 1 << bits
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


def point_convolution_defect(space, lam, mu):
    """phi_lam phi_mu against phi_{lam mu}, dagger(phi_lam) against phi_{conj lam}, and dagger twice."""
    product = tuple(complex(a) * complex(b) for a, b in zip(lam, mu))
    points = [lam, mu, product, tuple(z.conjugate() for z in lam)]
    pl, pm, target, conj = predual._monomial_values(space, points)
    pairs = ((pl * pm, target), (np.conj(pl), conj), (np.conj(np.conj(pl)), pl))
    return _worst_defect(float(np.abs(a - b).max(initial=0.0)) for a, b in pairs)


def point_family(cfg, rng):
    for _ in range(min(cfg.trials, 50)):
        lam = ball_point(rng, cfg.n)
        mu = ball_point(rng, cfg.n)
        yield point_convolution_defect(cfg.space, lam, mu)


def nu_reconstruction(cfg, rng):
    space = cfg.space
    for _ in range(5):
        lam = ball_point(rng, cfg.n)
        values = predual._monomial_values(space, [lam])[0]
        weights = np.conj(values)
        nu = weights / math.sqrt(float(np.sum(np.abs(weights) ** 2)))
        diff = rank_one_values(space, nu, nu) - values
        t = float(sum(abs(z) ** 2 for z in lam))
        bound = np.array([t ** (space.depth - k + 1) / (1.0 - t) for k in range(space.depth + 1)])
        yield float(np.max(np.hypot(diff.real, diff.imag) - bound[space.lengths]))


def comult_defects(space, f, g):
    """Both comultiplication defects, a block (k, m) at a time: block k + m reshaped to
    (n^k, n^m) against the values at index(u v), and comult(f g) against comult(f) comult(g)."""
    starts, n = space._block_starts, space.n
    coassoc, hom = [], []
    for k, m in graded.splits(space.depth):
        cut = slice(starts[k + m], starts[k + m + 1])
        fb, gb = f[cut].reshape(n**k, n**m), g[cut].reshape(n**k, n**m)
        direct = starts[k + m] + np.arange(n**k)[:, None] * n**m + np.arange(n**m)
        coassoc.append(float(np.abs(fb - f[direct]).max()))
        hom.append(float(np.abs((f * g)[cut].reshape(n**k, n**m) - fb * gb).max()))
    return _worst_defect(coassoc), _worst_defect(hom)


def predual_comult(cfg, rng):
    space = cfg.space
    for _ in range(min(cfg.trials, 10)):
        f = rank_one(rng, space)[0]
        g = rank_one(rng, space)[0]
        yield from comult_defects(space, f, g)
    # The indicator targets, as verify checks them.
    for target in range(min(8, space.dim)):
        w = space.word_at(target)
        split = predual.predual_comult(predual.indicator_functional(space, w))
        support = 0
        for (k, m), b in split.blocks.items():
            ru, rv = np.nonzero(b)
            support += ru.size
            yield float(np.any(graded.concat(space, k, ru, m, rv) != target))
        yield float(support != len(w) + 1)


def rep_multiplicativity(cfg, rng):
    space = cfg.space
    rep = corep.rep_from_corep(corep.fundamental_corep(space))
    for _ in range(min(cfg.trials, 25)):
        f = predual.Functional(space, rank_one(rng, space)[0])
        g = predual.Functional(space, rank_one(rng, space)[0])
        lhs = rep.evaluate(predual.convolve(f, g))
        rhs = scipy_csr(rep.evaluate(f)) @ scipy_csr(rep.evaluate(g))
        yield max_entry_diff(lhs, from_scipy(rep.aux, rep.aux, rhs))


def spectrum(cfg, rng):
    space = cfg.space
    chars = corep.spectrum(space)
    yield float(list(chars) != list(space.words))
    yield float(set(chars) != {s.support[0] for s in hopf.grouplike_series(space)})
    for _ in range(min(cfg.trials, 10)):
        u = verify._random_word(rng, space, cfg.depth // 2)
        v = verify._random_word(rng, space, cfg.depth - len(u))
        chi_u, chi_v = corep.PredualRep.character(space, u), corep.PredualRep.character(space, v)
        prod = corep.tensor_product_rep(chi_u, chi_v)
        yield float(list(prod.family) != [u.concat(v)])


def counit_positive(cfg, rng):
    for _ in range(cfg.trials):
        lam = ball_point(rng, cfg.n, radius=0.97)
        values = predual._monomial_values(cfg.space, [lam])[0]
        miss = values[: cfg.n + 1] - 1.0
        d = float(np.hypot(miss.real, miss.imag).max())
        lower = 1.0 - max(abs(z) for z in lam) if lam else 1.0
        yield lower - d
        yield float(not d > 0.0)


# The per-trial kernels the stacked realize, shift and prefix checks replaced.


def fourier_coefficients(t):
    space = t.domain
    _, rows, data = column_entries(t, np.zeros(1, dtype=np.int64))
    coeffs = np.zeros(space.dim, dtype=np.complex128)
    coeffs[rows] += data
    return FourierSeries(space.alphabet, coeffs)


def membership_defect(t):
    space = t.domain
    vals, cols, indptr = t.csr
    rows = np.repeat(np.arange(space.dim), np.diff(indptr))
    coeff = np.zeros(space.dim, dtype=np.complex128)
    coeff[rows[cols == 0]] = vals[cols == 0]
    (kr, rr), (kc, rc) = graded.length_rank(space, rows), graded.length_rank(space, cols)
    scale = space.n**kc
    on = (kr >= kc) & (rr % scale == rc)
    starts = np.asarray(space._block_starts)
    prefix = starts[kr[on] - kc[on]] + rr[on] // scale[on]
    missing = np.bincount(prefix, minlength=space.dim) < starts[space.depth + 1 - space.lengths]
    on_pattern = float(np.abs(np.concatenate([vals[on] - coeff[prefix], coeff[missing]])).max(initial=0.0))
    off_pattern = float(np.abs(vals[~on]).max(initial=0.0))
    return on_pattern + off_pattern


def word_shift(space, w, side):
    k = len(w)
    if k > space.depth:
        return Operator.zero(space)
    rank = space.index_of(w if side == "left" else w.reverse()) - space._block_starts[k]
    src = graded.within(space, space.depth - k)
    m, ru = graded.length_rank(space, src)
    table = graded.concat(space, k, rank, m, ru) if side == "left" else graded.concat(space, m, ru, k, rank)
    indptr = np.searchsorted(table, np.arange(space.dim + 1)).astype(np.int32)
    return Operator(space, space, (np.ones(src.size, dtype=np.complex128), src.astype(np.int32), indptr))


def _product_map(ops, cols):
    (image, value), rest = regular._column_map(ops[-1]), ops[-2::-1]
    image, value = image[:-1][cols], value[:-1][cols]
    for step, weight in map(regular._column_map, rest):
        image, value = step[image], weight[image] * value
    return image, value


def shift_composition_defect(space, u, v, side):
    cols = graded.within(space, space.depth - len(u) - len(v))
    composed = (word_shift(space, u, side), word_shift(space, v, side))
    (ia, va), (ib, vb) = (_product_map(ops, cols) for ops in (composed, (word_shift(space, u.concat(v), side),)))
    return float(np.where(ia == ib, np.abs(va - vb), np.maximum(np.abs(va), np.abs(vb))).max(initial=0.0))


def coefficient_operator(rep, x, y):
    fam = rep.family
    (word, row), images = sum_by_key([fam.word, fam.row], fam.val * x.data[fam.col])
    coeffs = np.zeros(rep.space.dim, dtype=np.complex128)
    np.add.at(coeffs, word, images * np.conj(y.data[row]))
    return FourierSeries(rep.space.alphabet, coeffs)


def strip_common_prefix(space, tup):
    k, r = graded.length_rank(space, np.asarray(tup, dtype=np.int64))
    p = int(k.min())
    while p and np.any(r // space.n ** (k - p) != r[0] // space.n ** (k[0] - p)):
        p -= 1
    cut = space.n ** (k - p)
    starts = np.asarray(space._block_starts)
    return int(starts[p] + r[0] // cut[0]), starts[k - p] + r % cut


def fourier_round_trip(cfg, rng):
    for _ in range(cfg.trials):
        s = sampling.random_series(rng, cfg.alphabet, rng.integers(0, cfg.depth + 1))
        back = fourier_coefficients(regular.realize(s, cfg.space))
        yield float(np.abs((s - back).coeffs).max())


def shift_composition(cfg, rng):
    for _ in range(min(cfg.trials, 25)):
        u = verify._random_word(rng, cfg.space, cfg.depth // 2)
        v = verify._random_word(rng, cfg.space, cfg.depth - len(u))
        for side in ("left", "right"):
            yield shift_composition_defect(cfg.space, u, v, side)


def right_shift_reversal(cfg, rng):
    space = cfg.space
    vac = basis_vector(space, Word())
    for _ in range(min(cfg.trials, 25)):
        w = verify._random_word(rng, cfg.space, cfg.depth)
        out = word_shift(space, w, "right").apply(vac)
        expected = basis_vector(space, w.reverse())
        yield float(np.abs(out.data - expected.data).max(initial=0.0))


def membership_realize(cfg, rng):
    for _ in range(min(cfg.trials, 25)):
        s = sampling.random_series(rng, cfg.alphabet, rng.integers(0, cfg.depth + 1))
        yield membership_defect(regular.realize(s, cfg.space))


def coefficient_membership(cfg, rng):
    space = cfg.space
    rep = corep.rep_from_corep(corep.fundamental_corep(space))
    for _ in range(min(cfg.trials, 10)):
        x = sampling.random_vector(rng, rep.aux)
        y = sampling.random_vector(rng, rep.aux)
        series = coefficient_operator(rep, x, y)
        yield membership_defect(regular.realize(series, space))
    chars = corep.characters(space)
    for k, w in enumerate(space.words):
        e_w = basis_vector(chars.aux, k)
        series = coefficient_operator(chars, e_w, e_w)
        yield float(series != FourierSeries.indicator(cfg.alphabet, w))
        yield membership_defect(regular.realize(series, space))


def decompose_roundtrip(cfg, rng):
    space = cfg.space
    for _ in range(min(cfg.trials, 50)):
        k = int(rng.integers(2, 4))
        tup = np.array([verify._random_index(rng, space, cfg.depth) for _ in range(k)])
        prefix, kappa = strip_common_prefix(space, tup)
        yield float(wandering.share_a_first_letter(wandering.first_letters(space, kappa)))
        (p, rp), (m, rm) = graded.length_rank(space, prefix), graded.length_rank(space, kappa)
        yield float(np.any(graded.concat(space, p, rp, m, rm) != tup))


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
    ("predual", "predual_comult"): predual_comult,
    ("predual", "point_family"): point_family,
    ("predual", "nu_reconstruction"): nu_reconstruction,
    ("corep", "rep_multiplicativity"): rep_multiplicativity,
    ("corep", "spectrum"): spectrum,
    ("regrep", "fourier_round_trip"): fourier_round_trip,
    ("regrep", "shift_composition"): shift_composition,
    ("regrep", "right_shift_reversal"): right_shift_reversal,
    ("regrep", "membership_realize"): membership_realize,
    ("corep", "coefficient_membership"): coefficient_membership,
    ("wandering", "decompose_roundtrip"): decompose_roundtrip,
}
# The checks that draw a trial at a time inside a chunk: a trial's degree, word lengths or
# tuple size decides how much it draws next, from its own integer range, so no one
# look-ahead call gives the stream; they stack only their compute.
PER_TRIAL_DRAWS = [
    ("regrep", "fourier_round_trip"),
    ("regrep", "shift_composition"),
    ("regrep", "right_shift_reversal"),
    ("regrep", "membership_realize"),
    ("corep", "spectrum"),
    ("wandering", "decompose_roundtrip"),
]
# The checks that draw a chunk at a time: one draw, or a ball-point look-ahead and its replay.
CHUNK_DRAWS = [key for key in LOOPS if key not in PER_TRIAL_DRAWS]
# The checks that stack their arrays; vacuum_expansion only draws a chunk at a time.
STACKED = [key for key in LOOPS if key != ("hopf", "vacuum_expansion")]
# The trials a check runs for a trial count: some cap it, and nu_reconstruction always runs 5.
CAPS = {
    ("regrep", "shift_composition"): 25,
    ("regrep", "right_shift_reversal"): 25,
    ("regrep", "membership_realize"): 25,
    ("hopf", "integral_invariance"): 25,
    ("hopf", "vacuum_expansion"): 25,
    ("predual", "convolve_algebra"): 25,
    ("predual", "predual_comult"): 10,
    ("predual", "point_family"): 50,
    ("corep", "rep_multiplicativity"): 25,
    ("corep", "spectrum"): 10,
    ("corep", "coefficient_membership"): 10,
    ("wandering", "decompose_roundtrip"): 50,
}
# spectrum draws its words a trial at a time and forms its products in one pass of
# at most 10 trials, so it makes no chunks.
UNCHUNKED = [("corep", "spectrum")]
# The checks that draw ball points: a look-ahead and a replay, two draws a chunk.
BALL_POINTS = [("predual", "counit_positive"), ("predual", "point_family"), ("predual", "nu_reconstruction")]
# The checks with no trial loop, and why: their inputs do not grow with --trials.
FIXED_INPUTS = {
    ("regrep", "isometry_relations"): "one identity over the whole space",
    ("regrep", "row_contraction"): "one identity over the whole space",
    ("regrep", "membership_rejects"): "two fixed non-members",
    ("regrep", "lr_commutation"): "every letter pair",
    ("regrep", "tensor_lr_commutation"): "every letter pair and three random word tuples",
    ("hopf", "grouplike"): "every word of the space",
    ("predual", "all_ones_unit"): "the all-ones functional and one random functional",
    ("corep", "fundamental_corep"): "the one fundamental corepresentation",
    ("corep", "fundamental_intertwining"): "every letter and three random words",
    ("corep", "fundamental_r_commutation"): "every letter and three random words",
    ("corep", "roundtrips"): "the fundamental corepresentation and the characters",
    ("corep", "corrupted_corep"): "one fixed corrupted operator",
    ("corep", "decomposable_not_corep"): "one family of at most four random members",
    ("wandering", "wandering_k2"): "one report over every basis pair",
    ("wandering", "wandering_k3"): "one report over every basis triple",
    ("wandering", "shift_isometry"): "one Gram over every word",
    ("selftest", "injected_fault"): "one perturbed generator",
}


def trial_count(key, trials):
    return 5 if key == ("predual", "nu_reconstruction") else min(trials, CAPS.get(key, trials))
