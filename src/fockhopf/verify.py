"""Check registry and deterministic report assembly for the verification CLI.

Every check draws randomness from a generator derived solely from the seed
and the check's identity, so reports are reproducible; checks run serially
and results are assembled in canonical (config, suite, registration) order.
A check yields one defect per trial or tested condition, and its row reports
the worst of them, a NaN defect failing.  The registry marks each check
exact (threshold 0) or an oracle comparison (the configured tolerance).
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Iterator

import numpy as np
from scipy import sparse

from . import corep as corep_mod
from . import graded
from . import hopf as hopf_mod
from . import predual as predual_mod
from . import regular as reg
from . import sampling
from . import wandering as wandering_mod
from .spaces import (
    FockSpace, Operator, StackedFamily, _worst_defect, basis_vector, max_abs, max_entry_diff, tensor_op
)
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
    fn: Callable[[SuiteConfig, np.random.Generator], Iterator[float]]
    exact: bool

    def run(self) -> dict:
        """Run the check and return its report row: its worst defect against its threshold."""
        rng = sampling.rng_for(self.config.seed, self.suite, self.name, self.config.n, self.config.depth)
        started = time.perf_counter()
        defect = _worst_defect(self.fn(self.config, rng))
        threshold = 0.0 if self.exact else self.config.tolerance
        return {
            "suite": self.suite,
            "name": self.name,
            "params": {"n": self.config.n, "depth": self.config.depth},
            "defect": float(defect),
            "threshold": float(threshold),
            "pass": bool(defect <= threshold),
            "millis": (time.perf_counter() - started) * 1000.0,
        }


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
    data = reg.cesaro_coefficients(s, CESARO_ORDERS)[:, word] - s.coeffs[word]
    row_starts = np.arange(len(CESARO_ORDERS))[:, None] * word.size + indptr[None, :-1]
    stacked = sparse.csr_matrix(
        (data.ravel(), np.tile(indices, len(CESARO_ORDERS)), np.append(row_starts, data.size)),
        shape=(len(CESARO_ORDERS) * space.dim, space.dim),
    )
    return (stacked @ x).reshape(len(CESARO_ORDERS), space.dim)


def _chk_cesaro_bound(cfg: SuiteConfig, rng) -> Iterator[float]:
    space = cfg.space
    degree = min(3, cfg.depth - 1)
    zone = graded.within(space, space.depth - degree)
    for _ in range(cfg.trials):
        s = sampling.random_series(rng, cfg.alphabet, degree)
        x = np.zeros(space.dim, dtype=np.complex128)
        x[zone] = sampling.dyadic_complex(rng, zone.size)
        nx = float(np.linalg.norm(x))
        bounds = reg.cesaro_error_bounds(s, CESARO_ORDERS).tolist()
        for diff, bound in zip(_cesaro_error_vectors(s, space, x), bounds):
            yield float(np.linalg.norm(diff)) - bound * nx


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


def _hopf_trials(defect, cap: int | None, cfg: SuiteConfig, rng) -> Iterator[float]:
    """``defect(s, space)`` for one random exact series of degree min(2, depth) per trial;
    ``cfg.trials`` trials, capped at ``cap`` unless it is None."""
    for _ in range(cfg.trials if cap is None else min(cfg.trials, cap)):
        s = sampling.random_series(rng, cfg.alphabet, min(2, cfg.depth), bits=sampling.EXACT_BITS)
        yield defect(s, cfg.space)


def _chk_homomorphism(cfg: SuiteConfig, rng) -> Iterator[float]:
    degree = min(2, cfg.depth // 2)
    for _ in range(cfg.trials):
        s = sampling.random_series(rng, cfg.alphabet, degree, bits=sampling.EXACT_BITS)
        t = sampling.random_series(rng, cfg.alphabet, degree, bits=sampling.EXACT_BITS)
        yield hopf_mod.homomorphism_defect(s, t, cfg.space)


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


def _slice_oracle_entries(space: FockSpace) -> tuple[np.ndarray, ...]:
    """Every Delta(L_w) from one :func:`hopf.comult`, as one row table per word length.

    The comultiplied series is the tagged series of :mod:`hopf`, read back
    through its tag decoder.  Delta is linear and sends column (u, v) to
    row (wu, wv), so no two words share an entry and every entry of
    Delta(L_w) is 1.  Sorted by (word, column), a word's columns must be the
    leading T x T block {u dim + v : u, v < T}, T = T_{d-|w|}, in graded order.

    Returns, for each length k, an (n^k, T, T) array holding the row (wu, wv)
    at [rank(w), u, v].  Raises ValueError when an entry is not exactly one
    tag, or a word does not have T^2 entries or its columns are not the block.
    """
    tagged = hopf_mod._tagged_series(space, space.depth)
    coo = hopf_mod.comult(tagged, space).matrix.tocoo()  # only the COO entries stay alive
    word = hopf_mod._decode_tags(coo.data, space.dim)
    admissible = np.asarray(space._block_starts)[space.depth + 1 - space.lengths]
    if np.any(np.bincount(word, minlength=space.dim) != admissible**2):
        raise ValueError("a word's comultiplication entries are not T_{d-|w|}^2 in number")
    order = np.lexsort((coo.col, word))
    rows, cols = coo.row[order], coo.col[order]
    tables, lo = [], 0
    for k in range(space.depth + 1):
        t = space._block_starts[space.depth + 1 - k]
        hi = lo + space.n**k * t * t
        if np.any(cols[lo:hi].reshape(-1, t, t) != np.arange(t)[:, None] * space.dim + np.arange(t)):
            raise ValueError("a word's comultiplication columns are not its leading T_{d-|w|} block")
        tables.append(rows[lo:hi].reshape(-1, t, t))
        lo = hi
    return tuple(tables)


def _slice_oracle_defect(tables: tuple[np.ndarray, ...], conv_values, xx, cee) -> float:
    """Largest miss, over w, between (Delta(L_w) xx, conj(cee)) and the convolution values.

    ``xx`` and ``cee`` are the (dim, dim) outer products xi1 xi2 and conj(eta1) conj(eta2).
    """
    flat = cee.ravel()
    oracle = [(flat[rows] * xx[: rows.shape[1], : rows.shape[1]]).sum(axis=(1, 2)) for rows in tables]
    return float(np.abs(np.concatenate(oracle) - conv_values).max(initial=0.0))


def _chk_convolve_slice_oracle(cfg: SuiteConfig, rng) -> Iterator[float]:
    space = cfg.space
    tables = _slice_oracle_entries(space)
    xx = np.empty((space.dim, space.dim), dtype=np.complex128)
    cee = np.empty_like(xx)
    for _ in range(cfg.trials):
        f = sampling.random_rank_one_functional(rng, space)
        g = sampling.random_rank_one_functional(rng, space)
        conv = predual_mod.convolve(f, g)
        (xi1, eta1), (xi2, eta2) = f.provenance[0], g.provenance[0]
        np.multiply.outer(xi1.data, xi2.data, out=xx)
        np.multiply.outer(eta1.data.conj(), eta2.data.conj(), out=cee)
        yield _slice_oracle_defect(tables, conv.values, xx, cee)


def _chk_convolve_algebra(cfg: SuiteConfig, rng) -> Iterator[float]:
    space = cfg.space
    for _ in range(min(cfg.trials, 25)):
        f = sampling.random_rank_one_functional(rng, space, bits=sampling.EXACT_BITS)
        g = sampling.random_rank_one_functional(rng, space, bits=sampling.EXACT_BITS)
        h = sampling.random_rank_one_functional(rng, space, bits=sampling.EXACT_BITS)
        fg = predual_mod.convolve(f, g)
        gf = predual_mod.convolve(g, f)
        yield float(np.abs(fg.values - gf.values).max(initial=0.0))
        assoc1 = predual_mod.convolve(fg, h)
        assoc2 = predual_mod.convolve(f, predual_mod.convolve(g, h))
        yield float(np.abs(assoc1.values - assoc2.values).max(initial=0.0))


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
    for _ in range(cfg.trials):
        lam = sampling.random_ball_point(rng, cfg.n, radius=0.97)
        d = predual_mod.counit_defect(predual_mod.point_functional(cfg.space, lam).functional)
        lower = 1.0 - max(abs(z) for z in lam) if lam else 1.0
        yield lower - d
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
    yield max_abs(v_chars.operator.matrix - w_corep.operator.matrix)
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
    ident = Operator.identity(space)
    bad = tensor_op(reg.word_shift(space, u, "left"), ident) + tensor_op(
        reg.word_shift(space, v, "left"), ident
    )
    report = corep_mod.corep_check(bad, legs=False)
    yield abs(report.criterion_defect - 1.0)
    yield report.reconstruction_defect


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
    report = corep_mod.corep_check(total, legs=False)
    yield report.reconstruction_defect
    yield float(not report.criterion_defect >= 2.0)  # the 2I component alone forces >= 2


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
