"""The graded block kernel against the literal Word-loop route.

The reference implementations below are the word-by-word definitions of the
rank-one values and of the predual comultiplication: (L_w xi, eta) summed
over u as xi_u conj(eta_wu), and (u, v) -> phi(L_uv) looked up through
``Word.concat`` and ``FockSpace.index_of``.  The kernel sums in a different
order, so it must agree bit for bit on dyadic inputs, where every sum is
exact, and to within rounding on general ones.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fockhopf import predual
from fockhopf.predual import (
    _rank_one_values,
    point_functional,
    predual_coassociativity_defect,
    predual_comult,
    predual_homomorphism_defect,
)
from fockhopf.sampling import (
    EXACT_BITS,
    FINE_BITS,
    random_ball_point,
    random_rank_one_functional,
    random_vector,
    rng_for,
)
from fockhopf.spaces import FockSpace
from fockhopf.verify import SuiteConfig, _slice_oracle_defect, _slice_oracle_entries
from fockhopf.words import Alphabet

# Every point of ``verify --full`` plus the deep (2, 7) point.
GRID = [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (2, 5), (2, 7)]
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def literal_rank_one_values(space, pairs):
    values = np.zeros(space.dim, dtype=np.complex128)
    for xi, eta in pairs:
        for jw, w in enumerate(space.words):
            total = 0j
            for ju, u in enumerate(space.words):
                if len(w) + len(u) > space.depth:
                    break
                total += xi.data[ju] * np.conj(eta.data[space.index_of(w.concat(u))])
            values[jw] += total
    return values


def literal_predual_comult(f):
    space = f.space
    out = {}
    for u in space.words:
        for v in space.words:
            if len(u) + len(v) > space.depth:
                break
            out[(u, v)] = complex(f.values[space.index_of(u.concat(v))])
    return out


@pytest.mark.parametrize("n,depth", GRID)
@given(seed=SEEDS, bits=st.sampled_from([EXACT_BITS, FINE_BITS]), count=st.integers(0, 2))
@settings(max_examples=4, deadline=None)
def test_rank_one_values_match_literal_on_dyadic_inputs(n, depth, seed, bits, count):
    space = FockSpace(Alphabet(n), depth)
    rng = rng_for(seed, "graded-dyadic")
    pairs = [
        (random_vector(rng, space, bits), random_vector(rng, space, bits)) for _ in range(count)
    ]
    assert np.array_equal(_rank_one_values(space, pairs), literal_rank_one_values(space, pairs))


@pytest.mark.parametrize("n,depth", GRID)
@given(seed=SEEDS)
@settings(max_examples=4, deadline=None)
def test_rank_one_values_match_literal_on_point_vectors(n, depth, seed):
    space = FockSpace(Alphabet(n), depth)
    rng = rng_for(seed, "graded-points")
    nu = point_functional(space, random_ball_point(rng, n)).vector
    mu = point_functional(space, random_ball_point(rng, n)).vector
    pairs = [(nu, nu), (mu, random_vector(rng, space))]
    kernel = _rank_one_values(space, pairs)
    literal = literal_rank_one_values(space, pairs)
    assert np.abs(kernel - literal).max() <= 1e-13


@pytest.mark.parametrize("n,depth", GRID)
@given(seed=SEEDS)
@settings(max_examples=3, deadline=None)
def test_predual_comult_matches_literal(n, depth, seed):
    space = FockSpace(Alphabet(n), depth)
    f = random_rank_one_functional(rng_for(seed, "graded-comult"), space)
    split = predual_comult(f)
    literal = literal_predual_comult(f)
    assert split.values == literal


def _perturbed_comult(monkeypatch, key, entry, delta):
    honest = predual.predual_comult

    def perturbed(f):
        blocks = dict(honest(f).blocks)
        block = blocks[key].copy()
        block[entry] += delta
        blocks[key] = block
        return predual.TensorFunctional(f.space, blocks)

    monkeypatch.setattr(predual, "predual_comult", perturbed)


@pytest.mark.parametrize(
    "key,entry", [((0, 0), (0, 0)), ((1, 1), (0, 1)), ((1, 2), (1, 3)), ((3, 0), (5, 0))]
)
def test_perturbed_comult_breaks_both_defects(monkeypatch, key, entry):
    space = FockSpace(Alphabet(2), 3)
    rng = rng_for(0, "perturbed-comult")
    f = random_rank_one_functional(rng, space)
    g = random_rank_one_functional(rng, space)
    assert predual_coassociativity_defect(f) == 0.0
    assert predual_homomorphism_defect(f, g) == 0.0
    _perturbed_comult(monkeypatch, key, entry, 0.5)
    assert predual_coassociativity_defect(f) > 0.0
    assert predual_homomorphism_defect(f, g) > 0.0


def _oracle_inputs(space, seed):
    rng = rng_for(seed, "slice-oracle")
    f = random_rank_one_functional(rng, space)
    g = random_rank_one_functional(rng, space)
    (xi1, eta1), (xi2, eta2) = f.provenance[0], g.provenance[0]
    conv = predual.convolve(f, g)
    return conv.values, np.kron(xi1.data, xi2.data), np.kron(eta1.data, eta2.data)


@pytest.mark.parametrize("n,depth", [(1, 3), (2, 3), (3, 2)])
def test_batched_slice_oracle_matches_per_word_matvec(n, depth):
    from fockhopf.hopf import comult
    from fockhopf.regular import FourierSeries

    space = FockSpace(Alphabet(n), depth)
    entries = _slice_oracle_entries(space)
    _, xx, ee = _oracle_inputs(space, 1)
    per_word = np.array([
        np.vdot(ee, comult(FourierSeries.indicator(space.alphabet, w), space).operator.matrix @ xx)
        for w in space.words
    ])
    assert _slice_oracle_defect(entries, per_word, xx, ee) <= 1e-12


def test_slice_oracle_catches_each_perturbed_convolution_value():
    cfg = SuiteConfig(n=2, depth=3)
    space = cfg.space
    entries = _slice_oracle_entries(space)
    values, xx, ee = _oracle_inputs(space, 2)
    assert _slice_oracle_defect(entries, values, xx, ee) <= cfg.tolerance
    for i in range(space.dim):
        bad = values.copy()
        bad[i] += 1e-6
        assert _slice_oracle_defect(entries, bad, xx, ee) > cfg.tolerance

