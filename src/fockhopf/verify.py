"""Check registry and deterministic report assembly for the verification CLI.

Every check draws randomness from a generator derived solely from the seed
and the check's identity, so reports are reproducible; checks run serially
and results are assembled in canonical (config, suite, registration) order.
Exact contracts carry threshold 0; oracle comparisons use the configured
tolerance.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
from scipy import sparse

from . import corep as corep_mod
from . import graded
from . import hopf as hopf_mod
from . import predual as predual_mod
from . import regular as reg
from . import sampling
from . import wandering as wandering_mod
from .spaces import FockSpace, Operator, StackedFamily, basis_vector, max_entry_diff, tensor_op
from .words import Alphabet, Word

ALL_SUITES = ("regrep", "hopf", "predual", "corep", "wandering")
NON_TENSOR_SUITES = ("regrep", "predual")


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
    fn: Callable[[SuiteConfig, np.random.Generator], tuple[float, float]]

    def run(self) -> "CheckResult":
        rng = sampling.rng_for(self.config.seed, self.suite, self.name, self.config.n, self.config.depth)
        started = time.perf_counter()
        defect, threshold = self.fn(self.config, rng)
        millis = (time.perf_counter() - started) * 1000.0
        return CheckResult(
            suite=self.suite,
            name=self.name,
            params={"n": self.config.n, "depth": self.config.depth},
            defect=float(defect),
            threshold=float(threshold),
            passed=bool(defect <= threshold),
            millis=millis,
        )


@dataclass
class CheckResult:
    suite: str
    name: str
    params: dict
    defect: float
    threshold: float
    passed: bool
    millis: float

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "name": self.name,
            "params": dict(self.params),
            "defect": self.defect,
            "threshold": self.threshold,
            "pass": self.passed,
            "millis": self.millis,
        }


# ---------------------------------------------------------------------------
# regrep suite


def _chk_isometry(cfg: SuiteConfig, rng) -> tuple[float, float]:
    return reg.isometry_defect(cfg.space), 0.0


def _chk_row_contraction(cfg: SuiteConfig, rng) -> tuple[float, float]:
    return reg.row_contraction_defect(cfg.space), 0.0


def _chk_fourier_round_trip(cfg: SuiteConfig, rng) -> tuple[float, float]:
    worst = 0.0
    for _ in range(cfg.trials):
        s = sampling.random_series(rng, cfg.alphabet, rng.integers(0, cfg.depth + 1))
        back = reg.fourier_coefficients(reg.realize(s, cfg.space))
        worst = max(worst, float(np.abs((s - back).coeffs).max()))
    return worst, 0.0


def _random_word(rng, alphabet: Alphabet, max_len: int) -> Word:
    length = int(rng.integers(0, max_len + 1))
    return Word(tuple(int(a) for a in rng.integers(1, alphabet.n + 1, size=length)))


def _chk_shift_composition(cfg: SuiteConfig, rng) -> tuple[float, float]:
    worst = 0.0
    for _ in range(min(cfg.trials, 25)):
        u = _random_word(rng, cfg.alphabet, cfg.depth // 2)
        v = _random_word(rng, cfg.alphabet, cfg.depth - len(u))
        for side in ("left", "right"):
            worst = max(worst, reg.shift_composition_defect(cfg.space, u, v, side))
    return worst, 0.0


def _chk_right_reversal(cfg: SuiteConfig, rng) -> tuple[float, float]:
    space = cfg.space
    vac = basis_vector(space, Word())
    worst = 0.0
    for _ in range(min(cfg.trials, 25)):
        w = _random_word(rng, cfg.alphabet, cfg.depth)
        out = reg.word_shift(space, w, "right").apply(vac)
        expected = basis_vector(space, w.reverse())
        worst = max(worst, float(np.abs(out.data - expected.data).max(initial=0.0)))
    return worst, 0.0


CESARO_ORDERS = range(4, 13)


def _cesaro_error_vectors(s: reg.FourierSeries, space: FockSpace, x: np.ndarray) -> np.ndarray:
    """(sigma_k(A) - A) x for each k in CESARO_ORDERS, one row per k, with A = realize(s).

    Every difference lies on A's realize pattern, whose entries each belong
    to one word w; there it holds the coefficient of ``cesaro_sum(s, k)`` at
    w minus a_w.  The differences stack into one CSR sharing the pattern's
    indices, so each output row sums in A's column order, as the matvec of a
    single difference matrix does (the pattern's entries of words with
    a_w = 0, which A drops, add exact zeros).
    """
    indptr, indices, word = reg._realize_pattern(space, s.degree, 1)
    coeffs = np.zeros((len(CESARO_ORDERS), s.coeffs.size), dtype=np.complex128)
    for row, k in zip(coeffs, CESARO_ORDERS):
        partial = reg.cesaro_sum(s, k).coeffs
        row[: partial.size] = partial
    data = coeffs[:, word] - s.coeffs[word]
    row_starts = np.arange(len(CESARO_ORDERS))[:, None] * word.size + indptr[None, :-1]
    stacked = sparse.csr_matrix(
        (data.ravel(), np.tile(indices, len(CESARO_ORDERS)), np.append(row_starts, data.size)),
        shape=(len(CESARO_ORDERS) * space.dim, space.dim),
    )
    return (stacked @ x).reshape(len(CESARO_ORDERS), space.dim)


def _chk_cesaro_bound(cfg: SuiteConfig, rng) -> tuple[float, float]:
    space = cfg.space
    degree = min(3, cfg.depth - 1)
    zone = graded.within(space, space.depth - degree)
    worst = 0.0
    for _ in range(cfg.trials):
        s = sampling.random_series(rng, cfg.alphabet, degree)
        x = np.zeros(space.dim, dtype=np.complex128)
        x[zone] = sampling.dyadic_complex(rng, zone.size)
        nx = float(np.linalg.norm(x))
        for k, diff in zip(CESARO_ORDERS, _cesaro_error_vectors(s, space, x)):
            err = float(np.linalg.norm(diff))
            bound = reg.cesaro_error_bound(s, k) * nx
            worst = max(worst, err - bound)
    return max(worst, 0.0), cfg.tolerance


def _chk_membership_realize(cfg: SuiteConfig, rng) -> tuple[float, float]:
    worst = 0.0
    for _ in range(min(cfg.trials, 25)):
        s = sampling.random_series(rng, cfg.alphabet, rng.integers(0, cfg.depth + 1))
        worst = max(worst, reg.membership_defect(reg.realize(s, cfg.space)))
    return worst, 0.0


def _chk_membership_rejects(cfg: SuiteConfig, rng) -> tuple[float, float]:
    space = cfg.space
    defect = 0.0
    if reg.membership_defect(reg.left_shift(space, 1).adjoint()) <= cfg.tolerance:
        defect = 1.0
    if cfg.n >= 2 and cfg.depth >= 2:
        if reg.membership_defect(reg.right_shift(space, 1)) <= cfg.tolerance:
            defect = 1.0
    return defect, 0.0


def _chk_lr_commutation(cfg: SuiteConfig, rng) -> tuple[float, float]:
    return reg.left_right_commutation_defect(cfg.space), 0.0


def _chk_tensor_lr_commutation(cfg: SuiteConfig, rng) -> tuple[float, float]:
    space = cfg.space
    worst = 0.0
    letters = list(cfg.alphabet.letters)
    for i in letters:
        for j in letters:
            worst = max(
                worst,
                reg.tensor_commutation_defect(
                    space,
                    (Word((i,)), Word((j,))),
                    (Word((j,)), Word((i,))),
                ),
            )
    for _ in range(3):
        pair = tuple(_random_word(rng, cfg.alphabet, max(1, cfg.depth // 2)) for _ in range(4))
        worst = max(worst, reg.tensor_commutation_defect(space, pair[:2], pair[2:]))
    return worst, 0.0


# ---------------------------------------------------------------------------
# hopf suite


def _hopf_degree(cfg: SuiteConfig) -> int:
    return min(2, cfg.depth)


def _hopf_trials(cfg: SuiteConfig, rng, trials: int, defect) -> tuple[float, float]:
    """Worst ``defect(s, space)`` over one random exact series of the hopf degree per trial."""
    worst = 0.0
    for _ in range(trials):
        s = sampling.random_series(rng, cfg.alphabet, _hopf_degree(cfg), bits=sampling.EXACT_BITS)
        worst = max(worst, defect(s, cfg.space))
    return worst, 0.0


def _chk_coassociativity(cfg: SuiteConfig, rng) -> tuple[float, float]:
    return _hopf_trials(cfg, rng, cfg.trials, hopf_mod.coassociativity_defect)


def _chk_cocommutativity(cfg: SuiteConfig, rng) -> tuple[float, float]:
    return _hopf_trials(cfg, rng, cfg.trials, hopf_mod.cocommutativity_defect)


def _chk_homomorphism(cfg: SuiteConfig, rng) -> tuple[float, float]:
    degree = min(2, cfg.depth // 2)
    worst = 0.0
    for _ in range(cfg.trials):
        s = sampling.random_series(rng, cfg.alphabet, degree, bits=sampling.EXACT_BITS)
        t = sampling.random_series(rng, cfg.alphabet, degree, bits=sampling.EXACT_BITS)
        worst = max(worst, hopf_mod.homomorphism_defect(s, t, cfg.space))
    return worst, 0.0


def _chk_integral(cfg: SuiteConfig, rng) -> tuple[float, float]:
    def defect(s: reg.FourierSeries, space: FockSpace) -> float:
        vacuum = abs(hopf_mod.integral_value(s) - s.coefficient(Word()))
        return max(hopf_mod.integral_invariance_defect(s, space), vacuum)

    return _hopf_trials(cfg, rng, min(cfg.trials, 25), defect)


def _chk_vacuum_expansion(cfg: SuiteConfig, rng) -> tuple[float, float]:
    return _hopf_trials(cfg, rng, min(cfg.trials, 25), hopf_mod.vacuum_expansion_defect)


def _chk_grouplike(cfg: SuiteConfig, rng) -> tuple[float, float]:
    space = cfg.space
    solutions = hopf_mod.grouplike_series(space)
    defect = float(abs(len(solutions) - space.dim))
    expected = {w for w in space.words}
    found = {s.support[0] for s in solutions if len(s.support) == 1}
    if found != expected:
        defect = max(defect, 1.0)
    if space.dim >= 3:
        double = reg.FourierSeries(cfg.alphabet, [0.0, 1.0, 1.0])  # two distinct non-unit words
        defect = max(defect, abs(hopf_mod.grouplike_defect(double, space) - 1.0))
    return defect, 0.0


# ---------------------------------------------------------------------------
# predual suite


def _slice_oracle_entries(space: FockSpace) -> tuple[np.ndarray, ...]:
    """Every Delta(L_w) from one :func:`hopf.comult`, as concatenated COO entries.

    The comultiplied series tags the word at basis index i with coefficient
    i + 1.  Delta is linear and sends column (u, v) to row (wu, wv), so no two
    words share an entry and each entry's value is its word's tag.  A stable
    sort by tag keeps each word's entries in their ``tocoo`` order.  Every
    entry of Delta(L_w) is 1, so no values are returned.

    Returns (rows, cols, offsets) in basis order of w; the entries of the
    word at basis index i start at offsets[i].  Raises ValueError when an
    entry is not an exact tag or a word does not have T_{d-|w|}^2 entries.
    """
    tagged = reg.FourierSeries(space.alphabet, np.arange(1, space.dim + 1))
    coo = hopf_mod.comult(tagged, space).matrix.tocoo()  # only the COO entries stay alive
    word = coo.data.real.astype(np.int64) - 1
    if np.any((word < 0) | (word >= space.dim)) or np.any(coo.data != word + 1):
        raise ValueError("a comultiplication entry is not an exact word tag")
    counts = np.bincount(word, minlength=space.dim)
    admissible = np.asarray(space._block_starts)[space.depth + 1 - space.lengths]
    if np.any(counts != admissible**2):
        raise ValueError("a word's comultiplication entries are not T_{d-|w|}^2 in number")
    order = np.argsort(word, kind="stable")
    offsets = np.concatenate(([0], np.cumsum(counts[:-1])))
    return coo.row[order], coo.col[order], offsets


def _slice_oracle_defect(entries: tuple[np.ndarray, ...], conv_values, xx, ee) -> float:
    """Largest miss, over w, between (Delta(L_w) xx, ee) and the convolution values."""
    rows, cols, offsets = entries
    oracle = np.add.reduceat(np.conj(ee[rows]) * xx[cols], offsets)
    return float(np.abs(oracle - conv_values).max(initial=0.0))


def _chk_convolve_slice_oracle(cfg: SuiteConfig, rng) -> tuple[float, float]:
    space = cfg.space
    entries = _slice_oracle_entries(space)
    worst = 0.0
    for _ in range(cfg.trials):
        f = sampling.random_rank_one_functional(rng, space)
        g = sampling.random_rank_one_functional(rng, space)
        conv = predual_mod.convolve(f, g)
        (xi1, eta1) = f.provenance[0]
        (xi2, eta2) = g.provenance[0]
        xx = np.kron(xi1.data, xi2.data)
        ee = np.kron(eta1.data, eta2.data)
        worst = max(worst, _slice_oracle_defect(entries, conv.values, xx, ee))
    return worst, cfg.tolerance


def _chk_convolve_algebra(cfg: SuiteConfig, rng) -> tuple[float, float]:
    space = cfg.space
    worst = 0.0
    for _ in range(min(cfg.trials, 25)):
        f = sampling.random_rank_one_functional(rng, space, bits=sampling.EXACT_BITS)
        g = sampling.random_rank_one_functional(rng, space, bits=sampling.EXACT_BITS)
        h = sampling.random_rank_one_functional(rng, space, bits=sampling.EXACT_BITS)
        fg = predual_mod.convolve(f, g)
        gf = predual_mod.convolve(g, f)
        worst = max(worst, float(np.abs(fg.values - gf.values).max(initial=0.0)))
        assoc1 = predual_mod.convolve(fg, h)
        assoc2 = predual_mod.convolve(f, predual_mod.convolve(g, h))
        worst = max(worst, float(np.abs(assoc1.values - assoc2.values).max(initial=0.0)))
    return worst, 0.0


def _chk_predual_comult(cfg: SuiteConfig, rng) -> tuple[float, float]:
    space = cfg.space
    worst = 0.0
    for _ in range(min(cfg.trials, 10)):
        f = sampling.random_rank_one_functional(rng, space)
        g = sampling.random_rank_one_functional(rng, space)
        worst = max(worst, predual_mod.predual_coassociativity_defect(f))
        worst = max(worst, predual_mod.predual_homomorphism_defect(f, g))
    for w in space.words[: min(8, space.dim)]:
        split = predual_mod.predual_comult(predual_mod.indicator_functional(space, w))
        target, support = space.index_of(w), 0
        for (k, m), b in split.blocks.items():
            ru, rv = np.nonzero(b)
            support += ru.size
            if np.any(graded.concat(space, k, ru, m, rv) != target):
                worst = max(worst, 1.0)
        if support != len(w) + 1:
            worst = max(worst, 1.0)
    return worst, 0.0


def _chk_point_family(cfg: SuiteConfig, rng) -> tuple[float, float]:
    space = cfg.space
    worst = 0.0
    for _ in range(min(cfg.trials, 50)):
        lam = sampling.random_ball_point(rng, cfg.n)
        mu = sampling.random_ball_point(rng, cfg.n)
        worst = max(worst, predual_mod.point_convolution_defect(space, lam, mu))
    return worst, 0.0


def _chk_counit_positive(cfg: SuiteConfig, rng) -> tuple[float, float]:
    space = cfg.space
    worst = 0.0
    for _ in range(cfg.trials):
        lam = sampling.random_ball_point(rng, cfg.n, radius=0.97)
        d = predual_mod.counit_defect(predual_mod.point_functional(space, lam).functional)
        lower = 1.0 - max(abs(z) for z in lam) if lam else 1.0
        worst = max(worst, lower - d)
        if d <= 0.0:
            worst = max(worst, 1.0)
    return max(worst, 0.0), cfg.tolerance


def _chk_all_ones_unit(cfg: SuiteConfig, rng) -> tuple[float, float]:
    space = cfg.space
    ones = predual_mod.Functional(space, np.ones(space.dim, dtype=np.complex128))
    defect = predual_mod.counit_defect(ones)
    f = sampling.random_rank_one_functional(rng, space)
    conv = predual_mod.convolve(ones, f)
    defect = max(defect, float(np.abs(conv.values - f.values).max(initial=0.0)))
    return defect, 0.0


def _chk_nu_reconstruction(cfg: SuiteConfig, rng) -> tuple[float, float]:
    space = cfg.space
    worst = 0.0
    for _ in range(5):
        lam = sampling.random_ball_point(rng, cfg.n)
        pf = predual_mod.point_functional(space, lam)
        approx = pf.rank_one_functional()
        for w in space.words:
            err = abs(approx.value(w) - pf.functional.value(w))
            worst = max(worst, err - pf.reconstruction_tail_bound(w))
    return max(worst, 0.0), cfg.tolerance


# ---------------------------------------------------------------------------
# corep suite


def _chk_fundamental(cfg: SuiteConfig, rng) -> tuple[float, float]:
    report = corep_mod.corep_check(corep_mod.fundamental_corep(cfg.space))
    return report.max_defect, 0.0


def _letters_then_random_words(cfg: SuiteConfig, rng, defect) -> tuple[float, float]:
    """Worst ``defect(space, w)`` over the single letters, then three random words."""
    drawn = (_random_word(rng, cfg.alphabet, cfg.depth) for _ in range(3))
    words = itertools.chain((Word((i,)) for i in cfg.alphabet.letters), drawn)
    return max([0.0] + [defect(cfg.space, w) for w in words]), 0.0


def _chk_fundamental_intertwining(cfg: SuiteConfig, rng) -> tuple[float, float]:
    return _letters_then_random_words(cfg, rng, corep_mod.fundamental_intertwining_defect)


def _chk_fundamental_r_commutation(cfg: SuiteConfig, rng) -> tuple[float, float]:
    return _letters_then_random_words(cfg, rng, corep_mod.fundamental_right_commutation_defect)


def _chk_roundtrips(cfg: SuiteConfig, rng) -> tuple[float, float]:
    space = cfg.space
    worst = 0.0
    w_corep = corep_mod.fundamental_corep(space)
    rep = corep_mod.rep_from_corep(w_corep)
    back = corep_mod.corep_from_rep(rep, space)
    worst = max(worst, max_entry_diff(back.operator, w_corep.operator))
    for w in space.words:
        char = corep_mod.PredualRep.character(space, w)
        v_char = corep_mod.corep_from_rep(char, space)
        expected = tensor_op(
            reg.word_shift(space, w, "left"), Operator.identity(char.aux)
        )
        worst = max(worst, max_entry_diff(v_char.operator, expected))
        rep_back = corep_mod.rep_from_corep(v_char)
        for u in rep_back.family.keys() | char.family.keys():
            worst = max(worst, max_entry_diff(rep_back.component(u), char.component(u)))
    return worst, 0.0


def _chk_rep_multiplicativity(cfg: SuiteConfig, rng) -> tuple[float, float]:
    space = cfg.space
    rep = corep_mod.rep_from_corep(corep_mod.fundamental_corep(space))
    worst = 0.0
    for _ in range(min(cfg.trials, 25)):
        f = sampling.random_rank_one_functional(rng, space)
        g = sampling.random_rank_one_functional(rng, space)
        lhs = rep.evaluate(predual_mod.convolve(f, g))
        rhs = rep.evaluate(f) @ rep.evaluate(g)
        worst = max(worst, max_entry_diff(lhs, rhs))
    return worst, cfg.tolerance


def _chk_spectrum(cfg: SuiteConfig, rng) -> tuple[float, float]:
    space = cfg.space
    chars = corep_mod.spectrum(space)
    defect = 0.0
    if list(chars) != list(space.words):
        defect = 1.0
    grouplike_words = {s.support[0] for s in hopf_mod.grouplike_series(space)}
    if set(chars) != grouplike_words:
        defect = max(defect, 1.0)
    for _ in range(min(cfg.trials, 10)):
        u = _random_word(rng, cfg.alphabet, cfg.depth // 2)
        v = _random_word(rng, cfg.alphabet, cfg.depth - len(u))
        prod = corep_mod.tensor_product_rep(
            corep_mod.PredualRep.character(space, u),
            corep_mod.PredualRep.character(space, v),
        )
        support = list(prod.family)
        if support != [u.concat(v)]:
            defect = max(defect, 1.0)
    return defect, 0.0


def _chk_coefficient_membership(cfg: SuiteConfig, rng) -> tuple[float, float]:
    space = cfg.space
    rep = corep_mod.rep_from_corep(corep_mod.fundamental_corep(space))
    worst = 0.0
    for _ in range(min(cfg.trials, 10)):
        x = sampling.random_vector(rng, rep.aux)
        y = sampling.random_vector(rng, rep.aux)
        series = corep_mod.coefficient_operator(rep, x, y)
        worst = max(worst, reg.membership_defect(reg.realize(series, space)))
    one = basis_vector(corep_mod.SCALAR_SPACE, 0)
    for w in space.words:
        char = corep_mod.PredualRep.character(space, w)
        series = corep_mod.coefficient_operator(char, one, one)
        expected = reg.FourierSeries.indicator(cfg.alphabet, w)
        if series != expected:
            worst = max(worst, 1.0)
        worst = max(worst, reg.membership_defect(reg.realize(series, space)))
    return worst, 0.0


def _chk_corrupted_corep(cfg: SuiteConfig, rng) -> tuple[float, float]:
    space = cfg.space
    if cfg.n >= 2:
        u, v = Word((1,)), Word((2,))
    else:
        if cfg.depth < 2:
            return 0.0, 0.0
        u, v = Word((1,)), Word((1, 1))
    ident = Operator.identity(space)
    bad = tensor_op(reg.word_shift(space, u, "left"), ident) + tensor_op(
        reg.word_shift(space, v, "left"), ident
    )
    report = corep_mod.corep_check(bad, legs=False)
    defect = abs(report.criterion_defect - 1.0)
    defect = max(defect, report.reconstruction_defect)
    return defect, 0.0


def _chk_decomposable_not_corep(cfg: SuiteConfig, rng) -> tuple[float, float]:
    # A fully decomposable operator whose family breaks the idempotent
    # criterion: reconstruction must still vanish while the criterion flags it.
    space = cfg.space
    aux = FockSpace(cfg.alphabet, 1)
    family = {Word(): 2.0 * Operator.identity(aux)}  # 2I is not idempotent
    for w in space.words[1 : min(4, space.dim)]:
        mat = sampling.dyadic_complex(rng, aux.dim * aux.dim).reshape(aux.dim, aux.dim)
        family[w] = Operator.from_dense(aux, aux, mat)
    total = corep_mod.shift_tensor_sum(StackedFamily.from_members(space, aux, family))
    report = corep_mod.corep_check(total, legs=False)
    defect = report.reconstruction_defect
    if report.criterion_defect < 2.0:  # the 2I component alone forces >= 2
        defect = max(defect, 1.0)
    return defect, 0.0


# ---------------------------------------------------------------------------
# wandering suite


def _chk_wandering_report(cfg: SuiteConfig, rng, k: int) -> tuple[float, float]:
    report = wandering_mod.wandering_check(cfg.alphabet, k, cfg.depth)
    defect = 0.0 if report.passed else 1.0
    defect = max(defect, report.orthogonality_defect)
    defect = max(defect, float(abs(report.dim - report.dim_closed_form)))
    return defect, 0.0


def _chk_wandering_decompose(cfg: SuiteConfig, rng) -> tuple[float, float]:
    worst = 0.0
    for _ in range(min(cfg.trials, 50)):
        k = int(rng.integers(2, 4))
        tup = tuple(_random_word(rng, cfg.alphabet, cfg.depth) for _ in range(k))
        prefix, kappa = wandering_mod.strip_common_prefix(tup)
        if not wandering_mod.is_wandering_tuple(kappa):
            worst = max(worst, 1.0)
        if tuple(prefix.concat(x) for x in kappa) != tup:
            worst = max(worst, 1.0)
    return worst, 0.0


def _chk_wandering_isometry(cfg: SuiteConfig, rng) -> tuple[float, float]:
    worst = 0.0
    for i in cfg.alphabet.letters:
        worst = max(
            worst,
            wandering_mod.isometry_on_wandering_defect(cfg.alphabet, 2, cfg.depth, Word((i,))),
        )
    return worst, 0.0


# ---------------------------------------------------------------------------
# registry and runner


_REGREP_CHECKS = [
    ("isometry_relations", _chk_isometry),
    ("row_contraction", _chk_row_contraction),
    ("fourier_round_trip", _chk_fourier_round_trip),
    ("shift_composition", _chk_shift_composition),
    ("right_shift_reversal", _chk_right_reversal),
    ("cesaro_bound", _chk_cesaro_bound),
    ("membership_realize", _chk_membership_realize),
    ("membership_rejects", _chk_membership_rejects),
    ("lr_commutation", _chk_lr_commutation),
    ("tensor_lr_commutation", _chk_tensor_lr_commutation),
]

_HOPF_CHECKS = [
    ("coassociativity", _chk_coassociativity),
    ("cocommutativity", _chk_cocommutativity),
    ("homomorphism", _chk_homomorphism),
    ("integral_invariance", _chk_integral),
    ("vacuum_expansion", _chk_vacuum_expansion),
    ("grouplike", _chk_grouplike),
]

_PREDUAL_CHECKS = [
    ("convolve_slice_oracle", _chk_convolve_slice_oracle),
    ("convolve_algebra", _chk_convolve_algebra),
    ("predual_comult", _chk_predual_comult),
    ("point_family", _chk_point_family),
    ("counit_positive", _chk_counit_positive),
    ("all_ones_unit", _chk_all_ones_unit),
    ("nu_reconstruction", _chk_nu_reconstruction),
]

_COREP_CHECKS = [
    ("fundamental_corep", _chk_fundamental),
    ("fundamental_intertwining", _chk_fundamental_intertwining),
    ("fundamental_r_commutation", _chk_fundamental_r_commutation),
    ("roundtrips", _chk_roundtrips),
    ("rep_multiplicativity", _chk_rep_multiplicativity),
    ("spectrum", _chk_spectrum),
    ("coefficient_membership", _chk_coefficient_membership),
    ("corrupted_corep", _chk_corrupted_corep),
    ("decomposable_not_corep", _chk_decomposable_not_corep),
]

_WANDERING_CHECKS = [
    ("wandering_k2", lambda cfg, rng: _chk_wandering_report(cfg, rng, 2)),
    ("wandering_k3", lambda cfg, rng: _chk_wandering_report(cfg, rng, 3)),
    ("decompose_roundtrip", _chk_wandering_decompose),
    ("shift_isometry", _chk_wandering_isometry),
]

_SUITE_REGISTRY = {
    "regrep": _REGREP_CHECKS,
    "hopf": _HOPF_CHECKS,
    "predual": _PREDUAL_CHECKS,
    "corep": _COREP_CHECKS,
    "wandering": _WANDERING_CHECKS,
}


def _chk_injected_fault(cfg: SuiteConfig, rng) -> tuple[float, float]:
    # Deliberately perturb a generator and run the isometry check against it;
    # a healthy harness must report this as a failure.
    space = cfg.space
    noise = Operator.from_entries(space, space, [0], [0], [1e-3])
    broken = reg.left_shift(space, 1) + noise
    defect = max_entry_diff(
        broken.adjoint() @ broken, reg.length_projection(space, space.depth - 1)
    )
    return defect, 0.0


def build_checks(config: SuiteConfig, inject_fault: bool = False) -> list[Check]:
    checks = []
    for suite in ALL_SUITES:
        if suite not in config.suites:
            continue
        for name, fn in _SUITE_REGISTRY[suite]:
            checks.append(Check(suite, name, config, fn))
    if inject_fault:
        checks.append(Check("selftest", "injected_fault", config, _chk_injected_fault))
    return checks


def run_checks(checks: list[Check]) -> list[CheckResult]:
    """Run checks serially, in registration order."""
    return [c.run() for c in checks]


def default_grid(seed: int, tolerance: float, trials: int) -> list[SuiteConfig]:
    """The full verification grid: all suites on small spaces, then one larger
    depth restricted to the suites that avoid triple tensor powers."""
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
    all_checks: list[Check] = []
    for cfg in configs:
        all_checks.extend(build_checks(cfg, inject_fault=inject_fault))
    results = run_checks(all_checks)
    if not with_timestamp:
        for r in results:
            r.millis = 0.0  # timing is run-dependent; drop it with the timestamp
    head = configs[0]
    config_block: dict = {
        "n": head.n if len(configs) == 1 else None,
        "depth": head.depth if len(configs) == 1 else None,
        "tol": head.tolerance,
        "seed": head.seed,
    }
    if len(configs) > 1:
        config_block["grid"] = [[c.n, c.depth] for c in configs]
    passed = sum(1 for r in results if r.passed)
    report: dict = {
        "config": config_block,
        "checks": [r.to_json_dict() for r in results],
        "summary": {"passed": passed, "failed": len(results) - passed},
    }
    if with_timestamp:
        from datetime import datetime, timezone

        report["timestamp"] = datetime.now(timezone.utc).isoformat()
    return report
