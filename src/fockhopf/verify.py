"""Check registry and deterministic report assembly for the verification CLI.

Every check draws randomness from a generator derived solely from the seed
and the check's identity, so reports are reproducible; checks run serially
and results are assembled in canonical (config, suite, registration) order.
A check yields one defect per trial or tested condition, and its row reports
the worst of them, a NaN defect failing.  The registry marks each check
exact (threshold 0) or an oracle comparison (the configured tolerance).
Most trial loops run a chunk of trials (TRIAL_ENTRIES) at a time, one draw
(:func:`sampling.dyadic_trials`) and one array pass a chunk, with the bits of a
loop over trials; README lists the checks that stay per trial, and why.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Iterator

import numpy as np

from . import corep as corep_mod
from . import graded
from . import hopf as hopf_mod
from . import predual as predual_mod
from . import regular as reg
from . import sampling
from . import wandering as wandering_mod
from .spaces import (
    FockSpace, Operator, StackedFamily, _worst_defect, basis_vector, max_entry_diff, tensor_space,
)
from .words import Alphabet, Word

ALL_SUITES = ("regrep", "hopf", "predual", "corep", "wandering")
NON_TENSOR_SUITES = ("regrep", "predual")
# A trial's entries: the 16-byte entries of all arrays its pass holds at its peak (tracemalloc's count).
TRIAL_ENTRIES = 2**15  # the entries a chunk of stacked trials holds, at most (or one trial)


@dataclass(frozen=True)
class SuiteConfig:
    n: int
    depth: int
    tolerance: float = 1e-9
    trials: int = 100
    seed: int = 0
    suites: tuple[str, ...] = ALL_SUITES

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError(f"tolerance must be finite and > 0, got {self.tolerance}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not self.suites:
            raise ValueError("at least one suite is required")
        unknown = set(self.suites) - set(ALL_SUITES)
        if unknown:
            raise ValueError(f"unknown suites: {sorted(unknown)}")
        object.__setattr__(self, "suites", tuple(self.suites))

    @property
    def alphabet(self) -> Alphabet:
        return Alphabet(self.n)

    @cached_property
    def space(self) -> FockSpace:
        # One space per config, so its cached word and block tables are built once.
        return FockSpace(self.alphabet, self.depth)


@dataclass(frozen=True)
class Check:
    suite: str
    name: str
    config: SuiteConfig
    fn: Callable[[SuiteConfig, np.random.Generator], Iterator[float]]
    exact: bool

    def run(self) -> dict:
        """Run the check and return its report row: its worst defect against its threshold.
        A check that raises fails its row, with defect NaN and the exception as ``error``."""
        rng = sampling.rng_for(self.config.seed, self.suite, self.name, self.config.n, self.config.depth)
        started = time.perf_counter()
        try:
            defect, error = _worst_defect(self.fn(self.config, rng)), {}
        except Exception as exc:
            defect, error = math.nan, {"error": f"{type(exc).__name__}: {exc}"}
        threshold = 0.0 if self.exact else self.config.tolerance
        return {
            "suite": self.suite,
            "name": self.name,
            "params": {"n": self.config.n, "depth": self.config.depth},
            "defect": float(defect),
            "threshold": float(threshold),
            "pass": bool(defect <= threshold),
            "millis": (time.perf_counter() - started) * 1000.0,
            **error,
        }


def _chunks(trials: int, entries: int) -> Iterator[int]:
    """The sizes of successive chunks of ``trials`` trials of ``entries`` entries each."""
    step = max(1, TRIAL_ENTRIES // entries)
    return (min(step, trials - start) for start in range(0, trials, step))


# ---------------------------------------------------------------------------
# regrep suite


def _on_space(defect, cfg: SuiteConfig, rng) -> Iterator[float]:
    """``defect(space)`` on the config's space, once."""
    yield defect(cfg.space)


def _chk_fourier_round_trip(cfg: SuiteConfig, rng) -> Iterator[float]:
    for _ in range(cfg.trials):
        s = sampling.random_series(rng, cfg.alphabet, rng.integers(0, cfg.depth + 1))
        back = reg.fourier_coefficients(reg.realize(s, cfg.space))
        yield float(np.abs((s - back).coeffs).max())


def _random_index(rng, space: FockSpace, max_len: int) -> int:
    """Basis index of a random word: a length up to ``max_len``, then that many letters."""
    length = int(rng.integers(0, max_len + 1))
    rank = 0
    for a in rng.integers(1, space.n + 1, size=length):
        rank = rank * space.n + int(a) - 1
    return space._block_starts[length] + rank


def _random_word(rng, space: FockSpace, max_len: int) -> Word:
    return space.word_at(_random_index(rng, space, max_len))


def _chk_shift_composition(cfg: SuiteConfig, rng) -> Iterator[float]:
    for _ in range(min(cfg.trials, 25)):
        u = _random_word(rng, cfg.space, cfg.depth // 2)
        v = _random_word(rng, cfg.space, cfg.depth - len(u))
        for side in ("left", "right"):
            yield reg.shift_composition_defect(cfg.space, u, v, side)


def _chk_right_reversal(cfg: SuiteConfig, rng) -> Iterator[float]:
    space = cfg.space
    vac = basis_vector(space, Word())
    for _ in range(min(cfg.trials, 25)):
        w = _random_word(rng, cfg.space, cfg.depth)
        out = reg.word_shift(space, w, "right").apply(vac)
        expected = basis_vector(space, w.reverse())
        yield float(np.abs(out.data - expected.data).max(initial=0.0))


CESARO_ORDERS = range(4, 13)


def _cesaro_error_vectors(s, space: FockSpace, x: np.ndarray) -> np.ndarray:
    """(sigma_k(A) - A) x for each k in CESARO_ORDERS, one row per k, with A = realize(s), or
    one such block a trial for coefficient rows ``s`` (trials, words) and x (trials, dim): the
    :func:`graded.cauchy_product` of the coefficients of ``cesaro_sum(s, k)`` minus s with x,
    which sums each row as the matvec of sigma_k(A) - A does, with no matrix formed."""
    coeffs = s.coeffs if isinstance(s, reg.FourierSeries) else s
    cesaro = reg.cesaro_arrays(coeffs, space.lengths[: coeffs.shape[-1]], CESARO_ORDERS)[0]
    return graded.cauchy_product(space, cesaro - coeffs[..., None, :], x[..., None, :])


def _chk_cesaro_bound(cfg: SuiteConfig, rng) -> Iterator[float]:
    space, degree = cfg.space, min(3, cfg.depth - 1)
    size, zone = space._block_starts[degree + 1], graded.within(space, space.depth - degree).size
    for count in _chunks(cfg.trials, 4 * len(CESARO_ORDERS) * space.dim):  # about what a trial holds
        coeffs, x_zone = sampling.dyadic_trials(rng, count, [size, zone])
        x = np.append(x_zone, np.zeros((count, space.dim - zone)), axis=1)
        bounds = reg.cesaro_arrays(coeffs, space.lengths[:size], CESARO_ORDERS)[1]
        rows = np.concatenate([_cesaro_error_vectors(coeffs, space, x), x[:, None]], axis=1)
        norms = np.sqrt(np.vecdot(rows.real, rows.real) + np.vecdot(rows.imag, rows.imag))  # as np.linalg.norm
        yield from (norms[:, :-1] - bounds * norms[:, -1:]).ravel().tolist()


def _chk_membership_realize(cfg: SuiteConfig, rng) -> Iterator[float]:
    for _ in range(min(cfg.trials, 25)):
        s = sampling.random_series(rng, cfg.alphabet, rng.integers(0, cfg.depth + 1))
        yield reg.membership_defect(reg.realize(s, cfg.space))


def _chk_membership_rejects(cfg: SuiteConfig, rng) -> Iterator[float]:
    space = cfg.space
    yield float(not reg.membership_defect(reg.left_shift(space, 1).adjoint()) > cfg.tolerance)
    if cfg.n >= 2 and cfg.depth >= 2:
        yield float(not reg.membership_defect(reg.right_shift(space, 1)) > cfg.tolerance)


def _chk_tensor_lr_commutation(cfg: SuiteConfig, rng) -> Iterator[float]:
    space = cfg.space
    letters = [Word((i,)) for i in cfg.alphabet.letters]
    for i in letters:
        for j in letters:
            yield reg.tensor_commutation_defect(space, (i, j), (j, i))
    for _ in range(3):
        pair = tuple(_random_word(rng, cfg.space, max(1, cfg.depth // 2)) for _ in range(4))
        yield reg.tensor_commutation_defect(space, pair[:2], pair[2:])


# ---------------------------------------------------------------------------
# hopf suite


def _hopf_trials(defects, cap: int | None, cfg: SuiteConfig, rng) -> Iterator[float]:
    """``defects(coefs, space)`` on chunks of random exact series of degree min(2, depth), ``cap`` at most."""
    size = cfg.space._block_starts[min(2, cfg.depth) + 1]
    for count in _chunks(cfg.trials if cap is None else min(cfg.trials, cap), 8 * size):
        coefs = sampling.dyadic_trials(rng, count, [size], bits=sampling.EXACT_BITS)[0]
        yield from defects(coefs, cfg.space).tolist()


def _chk_homomorphism(cfg: SuiteConfig, rng) -> Iterator[float]:
    degree = min(2, cfg.depth // 2)
    slot, *_, word = hopf_mod._homomorphism_plan(cfg.space, degree, degree, 2 * degree)
    size = cfg.space._block_starts[degree + 1]
    for count in _chunks(cfg.trials, 4 * (slot.size + word.size)):
        s, t = sampling.dyadic_trials(rng, count, [size, size], bits=sampling.EXACT_BITS)
        yield from hopf_mod.homomorphism_defect(s, t, cfg.space).tolist()


def _chk_grouplike(cfg: SuiteConfig, rng) -> Iterator[float]:
    space = cfg.space
    solutions = hopf_mod.grouplike_series(space)
    yield float(abs(len(solutions) - space.dim))
    yield float([s.support for s in solutions] != [(w,) for w in space.words])
    if space.dim >= 3:
        double = reg.FourierSeries(cfg.alphabet, [0.0, 1.0, 1.0])  # two distinct non-unit words
        yield abs(hopf_mod.grouplike_defect(double, space) - 1.0)


# ---------------------------------------------------------------------------
# predual suite


def _slice_oracle_defect(legs, conv_values, xi1, eta1, xi2, eta2):
    """Largest miss, over w, between (Delta(L_w)(xi1 (x) xi2), eta1 (x) eta2) and the convolution values,
    one a trial where the arrays stack trials.

    As Delta(L_w) = A_w (x) B_w (:func:`hopf.comult_legs`), the pairing is the
    product of (A_w xi1, eta1) and (B_w xi2, eta2): the same sum over the same
    entries, with no (dim, dim) outer product formed.
    """
    ce1, ce2 = np.conj(eta1), np.conj(eta2)
    oracle = [(ce1[..., a] @ xi1[..., : a.shape[1], None]) * (ce2[..., b] @ xi2[..., : b.shape[1], None])
              for a, b in legs]
    return np.abs(np.concatenate(oracle, axis=-2)[..., 0] - conv_values).max(axis=-1, initial=0.0)


def _chk_convolve_slice_oracle(cfg: SuiteConfig, rng) -> Iterator[float]:
    space = cfg.space
    legs = hopf_mod.comult_legs(space)
    for count in _chunks(cfg.trials, 10 * space.dim):
        f, g = sampling.random_rank_one_functionals(rng, space, 2, count)
        conv = predual_mod.convolve(f, g)
        (xi1, eta1), (xi2, eta2) = f.provenance[0], g.provenance[0]
        yield from _slice_oracle_defect(legs, conv.values, xi1.data, eta1.data, xi2.data, eta2.data).tolist()


def _chk_convolve_algebra(cfg: SuiteConfig, rng) -> Iterator[float]:
    space = cfg.space
    for count in _chunks(min(cfg.trials, 25), 16 * space.dim):
        f, g, h = sampling.random_rank_one_functionals(rng, space, 3, count, bits=sampling.EXACT_BITS)
        fg, gf = predual_mod.convolve(f, g), predual_mod.convolve(g, f)
        assoc = predual_mod.convolve(fg, h), predual_mod.convolve(f, predual_mod.convolve(g, h))
        misses = [np.abs(a.values - b.values).max(axis=-1, initial=0.0) for a, b in ((fg, gf), assoc)]
        yield from np.stack(misses, axis=-1).ravel().tolist()


def _chk_predual_comult(cfg: SuiteConfig, rng) -> Iterator[float]:
    space = cfg.space
    for _ in range(min(cfg.trials, 10)):
        f = sampling.random_rank_one_functional(rng, space)
        g = sampling.random_rank_one_functional(rng, space)
        yield predual_mod.predual_coassociativity_defect(f)
        yield predual_mod.predual_homomorphism_defect(f, g)
    for target in range(min(8, space.dim)):
        w = space.word_at(target)
        split = predual_mod.predual_comult(predual_mod.indicator_functional(space, w))
        support = 0
        for (k, m), b in split.blocks.items():
            ru, rv = np.nonzero(b)
            support += ru.size
            yield float(np.any(graded.concat(space, k, ru, m, rv) != target))
        yield float(support != len(w) + 1)


def _chk_point_family(cfg: SuiteConfig, rng) -> Iterator[float]:
    for _ in range(min(cfg.trials, 50)):
        lam = sampling.random_ball_point(rng, cfg.n)
        mu = sampling.random_ball_point(rng, cfg.n)
        yield predual_mod.point_convolution_defect(cfg.space, lam, mu)


def _chk_counit_positive(cfg: SuiteConfig, rng) -> Iterator[float]:
    for count in _chunks(cfg.trials, 5 * cfg.space.dim):  # rejection draws the ball points one a call
        points = [sampling.random_ball_point(rng, cfg.n, radius=0.97) for _ in range(count)]
        values = predual_mod._monomial_values(cfg.space, points)  # one point_functional value row a point
        defects = predual_mod.counit_defect(predual_mod.Functional(cfg.space, values))
        for lam, d in zip(points, defects.tolist()):
            yield (1.0 - max(abs(z) for z in lam) if lam else 1.0) - d
            yield float(not d > 0.0)


def _chk_all_ones_unit(cfg: SuiteConfig, rng) -> Iterator[float]:
    space = cfg.space
    ones = predual_mod.Functional(space, np.ones(space.dim, dtype=np.complex128))
    yield predual_mod.counit_defect(ones)
    f = sampling.random_rank_one_functional(rng, space)
    conv = predual_mod.convolve(ones, f)
    yield float(np.abs(conv.values - f.values).max(initial=0.0))


def _chk_nu_reconstruction(cfg: SuiteConfig, rng) -> Iterator[float]:
    for _ in range(5):
        lam = sampling.random_ball_point(rng, cfg.n)
        pf = predual_mod.point_functional(cfg.space, lam)
        diff = pf.rank_one_functional().values - pf.functional.values
        err = np.hypot(diff.real, diff.imag)
        yield float(np.max(err - pf.reconstruction_tail_bound()))


# ---------------------------------------------------------------------------
# corep suite


def _chk_fundamental(cfg: SuiteConfig, rng) -> Iterator[float]:
    yield corep_mod.corep_check(corep_mod.fundamental_corep(cfg.space)).max_defect


def _letters_then_random_words(defect, cfg: SuiteConfig, rng) -> Iterator[float]:
    """``defect(space, w)`` for each single letter, then for three random words."""
    drawn = (_random_word(rng, cfg.space, cfg.depth) for _ in range(3))
    for w in itertools.chain((Word((i,)) for i in cfg.alphabet.letters), drawn):
        yield defect(cfg.space, w)


def _chk_roundtrips(cfg: SuiteConfig, rng) -> Iterator[float]:
    space = cfg.space
    w_corep = corep_mod.fundamental_corep(space)
    rep = corep_mod.rep_from_corep(w_corep)
    back = corep_mod.corep_from_rep(rep, space)
    yield max_entry_diff(back.operator, w_corep.operator)
    # The fundamental family is the diagonal of the word projections, so the
    # direct sum of all characters has its stack and its operator.
    chars = corep_mod.characters(space)
    v_chars = corep_mod.corep_from_rep(chars, space)
    v = v_chars.operator  # on H (x) C^dim, whose basis is that of H (x) H
    yield max_entry_diff(v, Operator(v.domain, v.codomain, w_corep.operator.csr))
    # The entries of both families, the second negated, sum to their difference.
    back, want = corep_mod.rep_from_corep(v_chars).family, chars.family
    arrays = zip((back.word, back.row, back.col, back.val), (want.word, want.row, want.col, -want.val))
    diff = StackedFamily(space, chars.aux, *(np.concatenate(pair) for pair in arrays))
    yield float(np.abs(diff.val).max(initial=0.0))


def _chk_rep_multiplicativity(cfg: SuiteConfig, rng) -> Iterator[float]:
    space = cfg.space
    rep = corep_mod.rep_from_corep(corep_mod.fundamental_corep(space))
    for _ in range(min(cfg.trials, 25)):
        f = sampling.random_rank_one_functional(rng, space)
        g = sampling.random_rank_one_functional(rng, space)
        lhs = rep.evaluate(predual_mod.convolve(f, g))
        rhs = rep.evaluate(f) @ rep.evaluate(g)
        yield max_entry_diff(lhs, rhs)


def _chk_spectrum(cfg: SuiteConfig, rng) -> Iterator[float]:
    space = cfg.space
    chars = corep_mod.spectrum(space)
    yield float(list(chars) != list(space.words))
    yield float(set(chars) != {s.support[0] for s in hopf_mod.grouplike_series(space)})
    for _ in range(min(cfg.trials, 10)):
        u = _random_word(rng, cfg.space, cfg.depth // 2)
        v = _random_word(rng, cfg.space, cfg.depth - len(u))
        prod = corep_mod.tensor_product_rep(
            corep_mod.PredualRep.character(space, u),
            corep_mod.PredualRep.character(space, v),
        )
        yield float(list(prod.family) != [u.concat(v)])


def _chk_coefficient_membership(cfg: SuiteConfig, rng) -> Iterator[float]:
    space = cfg.space
    rep = corep_mod.rep_from_corep(corep_mod.fundamental_corep(space))
    for _ in range(min(cfg.trials, 10)):
        x = sampling.random_vector(rng, rep.aux)
        y = sampling.random_vector(rng, rep.aux)
        series = corep_mod.coefficient_operator(rep, x, y)
        yield reg.membership_defect(reg.realize(series, space))
    chars = corep_mod.characters(space)
    for k, w in enumerate(space.words):
        e_w = basis_vector(chars.aux, k)
        series = corep_mod.coefficient_operator(chars, e_w, e_w)
        yield float(series != reg.FourierSeries.indicator(cfg.alphabet, w))
        yield reg.membership_defect(reg.realize(series, space))


def _chk_corrupted_corep(cfg: SuiteConfig, rng) -> Iterator[float]:
    space = cfg.space
    if cfg.n >= 2:
        u, v = Word((1,)), Word((2,))
    elif cfg.depth >= 2:
        u, v = Word((1,)), Word((1, 1))
    else:
        u, v = Word(), Word((1,))  # no two distinct non-vacuum words fit
    # L_u (x) I + L_v (x) I from the shifts' index maps; the two terms share no position.
    ident, pair = Operator.identity(space), tensor_space(space, space)
    terms = [reg.map_entries(((reg.word_shift(space, w, "left"), ident),)) for w in (u, v)]
    cols, rows, vals = (np.concatenate(arrs) for arrs in zip(*terms))
    bad = Operator.from_entries(pair, pair, rows, cols, vals)
    corep = corep_mod.Corepresentation.from_operator(bad)
    yield abs(corep_mod.criterion_defect(corep) - 1.0)
    yield corep_mod._reconstruction_defect(corep)


def _chk_decomposable_not_corep(cfg: SuiteConfig, rng) -> Iterator[float]:
    # A fully decomposable operator whose family breaks the idempotent
    # criterion: reconstruction must still vanish while the criterion flags it.
    space = cfg.space
    aux = FockSpace(cfg.alphabet, 1)
    family = {Word(): 2.0 * Operator.identity(aux)}  # 2I is not idempotent
    for w in space.words[1 : min(4, space.dim)]:
        mat = sampling.dyadic_complex(rng, aux.dim * aux.dim).reshape(aux.dim, aux.dim)
        family[w] = Operator.from_dense(aux, aux, mat)
    total = corep_mod.shift_tensor_sum(StackedFamily.from_members(space, aux, family))
    corep = corep_mod.Corepresentation.from_operator(total)
    yield corep_mod._reconstruction_defect(corep)
    yield float(not corep_mod.criterion_defect(corep) >= 2.0)  # the 2I component alone forces >= 2


# ---------------------------------------------------------------------------
# wandering suite


def _chk_wandering_report(k: int, cfg: SuiteConfig, rng) -> Iterator[float]:
    report = wandering_mod.wandering_check(cfg.alphabet, k, cfg.depth)
    yield float(not report.passed)
    yield report.orthogonality_defect
    yield float(abs(report.dim - report.dim_closed_form))


def _chk_wandering_decompose(cfg: SuiteConfig, rng) -> Iterator[float]:
    space = cfg.space
    for _ in range(min(cfg.trials, 50)):
        k = int(rng.integers(2, 4))
        tup = np.array([_random_index(rng, space, cfg.depth) for _ in range(k)])
        prefix, kappa = wandering_mod.strip_common_prefix(space, tup)
        yield float(wandering_mod.share_a_first_letter(wandering_mod.first_letters(space, kappa)))
        (p, rp), (m, rm) = graded.length_rank(space, prefix), graded.length_rank(space, kappa)
        yield float(np.any(graded.concat(space, p, rp, m, rm) != tup))


def _chk_wandering_isometry(cfg: SuiteConfig, rng) -> Iterator[float]:
    mask = wandering_mod._wandering_mask(cfg.alphabet, 2, cfg.depth)
    letters = np.arange(1, cfg.alphabet.n + 1)  # the basis indices of the letters
    yield wandering_mod.shifted_gram_defect(cfg.space, 2, mask, letters)


# ---------------------------------------------------------------------------
# registry and runner


def _chk_injected_fault(cfg: SuiteConfig, rng) -> Iterator[float]:
    # Deliberately perturb a generator and run the isometry check against it;
    # a healthy harness must report this as a failure.
    space = cfg.space
    noise = Operator.from_entries(space, space, [0], [0], [1e-3])
    broken = reg.left_shift(space, 1) + noise
    yield max_entry_diff(broken.adjoint() @ broken, reg.length_projection(space, space.depth - 1))


def build_checks(config: SuiteConfig, inject_fault: bool = False) -> list[Check]:
    # Suite -> (name, check, exact) triples, keyed in ALL_SUITES order; checks run
    # and report in this order.  An exact check's threshold is 0, any other's the
    # configured tolerance.  Built on each call, not at import: a partial keeps the
    # defect its module held when it was made, and perfbench's tracer rebinds
    # module attributes after import.
    registry = {
        "regrep": [
            ("isometry_relations", partial(_on_space, reg.isometry_defect), True),
            ("row_contraction", partial(_on_space, reg.row_contraction_defect), True),
            ("fourier_round_trip", _chk_fourier_round_trip, True),
            ("shift_composition", _chk_shift_composition, True),
            ("right_shift_reversal", _chk_right_reversal, True),
            ("cesaro_bound", _chk_cesaro_bound, False),
            ("membership_realize", _chk_membership_realize, True),
            ("membership_rejects", _chk_membership_rejects, True),
            ("lr_commutation", partial(_on_space, reg.left_right_commutation_defect), True),
            ("tensor_lr_commutation", _chk_tensor_lr_commutation, True),
        ],
        "hopf": [
            ("coassociativity", partial(_hopf_trials, hopf_mod.coassociativity_defect, None), True),
            ("cocommutativity", partial(_hopf_trials, hopf_mod.cocommutativity_defect, None), True),
            ("homomorphism", _chk_homomorphism, True),
            ("integral_invariance", partial(_hopf_trials, hopf_mod.integral_invariance_defect, 25), True),
            ("vacuum_expansion", partial(_hopf_trials, hopf_mod.vacuum_expansion_defect, 25), True),
            ("grouplike", _chk_grouplike, True),
        ],
        "predual": [
            ("convolve_slice_oracle", _chk_convolve_slice_oracle, False),
            ("convolve_algebra", _chk_convolve_algebra, True),
            ("predual_comult", _chk_predual_comult, True),
            ("point_family", _chk_point_family, True),
            ("counit_positive", _chk_counit_positive, False),
            ("all_ones_unit", _chk_all_ones_unit, True),
            ("nu_reconstruction", _chk_nu_reconstruction, False),
        ],
        "corep": [
            ("fundamental_corep", _chk_fundamental, True),
            ("fundamental_intertwining",
             partial(_letters_then_random_words, corep_mod.fundamental_intertwining_defect), True),
            ("fundamental_r_commutation",
             partial(_letters_then_random_words, corep_mod.fundamental_right_commutation_defect), True),
            ("roundtrips", _chk_roundtrips, True),
            ("rep_multiplicativity", _chk_rep_multiplicativity, False),
            ("spectrum", _chk_spectrum, True),
            ("coefficient_membership", _chk_coefficient_membership, True),
            ("corrupted_corep", _chk_corrupted_corep, True),
            ("decomposable_not_corep", _chk_decomposable_not_corep, True),
        ],
        "wandering": [
            ("wandering_k2", partial(_chk_wandering_report, 2), True),
            ("wandering_k3", partial(_chk_wandering_report, 3), True),
            ("decompose_roundtrip", _chk_wandering_decompose, True),
            ("shift_isometry", _chk_wandering_isometry, True),
        ],
    }
    checks = [
        Check(suite, name, config, fn, exact)
        for suite, entries in registry.items()
        if suite in config.suites
        for name, fn, exact in entries
    ]
    if inject_fault:
        checks.append(Check("selftest", "injected_fault", config, _chk_injected_fault, exact=True))
    return checks


def default_grid(seed: int, tolerance: float, trials: int) -> list[SuiteConfig]:
    """The full grid: all suites on small spaces, then one deeper point on ``NON_TENSOR_SUITES``,
    which build no tensor-power operator (the slice oracle reads its fold-2 comult off the realize pattern)."""
    configs = [
        SuiteConfig(n=n, depth=depth, tolerance=tolerance, trials=trials, seed=seed)
        for n in (1, 2, 3)
        for depth in (2, 3, 4)
    ]
    configs.append(
        SuiteConfig(n=2, depth=5, tolerance=tolerance, trials=trials, seed=seed, suites=NON_TENSOR_SUITES)
    )
    return configs


def build_report(
    configs: list[SuiteConfig],
    inject_fault: bool = False,
    with_timestamp: bool = True,
) -> dict:
    """Run every config and assemble the canonical JSON-ready report."""
    rows = [chk.run() for cfg in configs for chk in build_checks(cfg, inject_fault=inject_fault)]
    if not with_timestamp:
        for row in rows:
            row["millis"] = 0.0  # timing is run-dependent; drop it with the timestamp
    head = configs[0]
    config_block: dict = {
        "n": head.n if len(configs) == 1 else None,
        "depth": head.depth if len(configs) == 1 else None,
        "tol": head.tolerance,
        "seed": head.seed,
    }
    if len(configs) > 1:
        config_block["grid"] = [[c.n, c.depth] for c in configs]
    passed = sum(1 for row in rows if row["pass"])
    report: dict = {
        "config": config_block,
        "checks": rows,
        "summary": {"passed": passed, "failed": len(rows) - passed},
    }
    if with_timestamp:
        from datetime import datetime, timezone

        report["timestamp"] = datetime.now(timezone.utc).isoformat()
    return report
