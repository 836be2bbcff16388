"""Stacked trials: ``verify``'s chunked checks against their per-trial loops.

Each stacked check draws a chunk of trials with one ``rng.integers`` call and
checks it in one array pass.  It must yield, byte for byte, the defects of
the per-trial loops in ``trial_reference`` and leave the generator where they
leave it; it must draw once a chunk; and its memory must not grow with the
trial count.  The hopf plans keep one column of each set of words a position
reads, and the defects over those columns are those over every position.
"""

import tracemalloc

import numpy as np
import pytest

from fockhopf import hopf, predual, verify
from fockhopf.regular import FourierSeries
from fockhopf.sampling import EXACT_BITS, FINE_BITS, random_rank_one_functionals, rng_for
from fockhopf.spaces import FockSpace, Vector, sort_positions
from fockhopf.verify import SuiteConfig
from fockhopf.words import Alphabet

import trial_reference
from trial_reference import LOOPS, STACKED

GRID = [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (2, 5)]
POINTS = GRID + [(2, 7), (3, 5)]


def _check(key, cfg):
    (check,) = [c for c in verify.build_checks(cfg) if (c.suite, c.name) == key]
    return check


def _yields(fn, cfg, key):
    """The defects ``fn`` yields, as bytes, and the generator state it leaves."""
    rng = rng_for(cfg.seed, *key, cfg.n, cfg.depth)
    return np.array(list(fn(cfg, rng)), dtype=np.float64).tobytes(), rng.bit_generator.state


def _chunk_spy(monkeypatch):
    """Record, per call of ``verify._chunks``, its (trials, entries) and the chunk sizes."""
    calls, honest = [], verify._chunks

    def spy(trials, entries):
        sizes = list(honest(trials, entries))
        calls.append((trials, entries, sizes))
        return iter(sizes)

    monkeypatch.setattr(verify, "_chunks", spy)
    return calls


@pytest.mark.parametrize("n,depth", POINTS)
@pytest.mark.parametrize("key", list(LOOPS), ids="/".join)
def test_stacked_check_yields_the_per_trial_defects(monkeypatch, key, n, depth):
    for trials in (1, 3):
        cfg = SuiteConfig(n=n, depth=depth, trials=trials, seed=7)
        assert _yields(_check(key, cfg).fn, cfg, key) == _yields(LOOPS[key], cfg, key), trials
    # A trial count spanning three chunks, the last one partial: the cap
    # shrunk to three trials' entries, so a capped check gets there too.
    calls = _chunk_spy(monkeypatch)
    cfg = SuiteConfig(n=n, depth=depth, trials=1, seed=7)
    list(_check(key, cfg).fn(cfg, rng_for(0, "entries")))
    (_, entries, _), = calls
    monkeypatch.setattr(verify, "TRIAL_ENTRIES", 3 * entries)
    cfg = SuiteConfig(n=n, depth=depth, trials=7, seed=7)
    calls.clear()
    assert _yields(_check(key, cfg).fn, cfg, key) == _yields(LOOPS[key], cfg, key)
    assert [sizes for *_, sizes in calls] == [[3, 3, 1]]


@pytest.mark.parametrize("key", STACKED + [("hopf", "vacuum_expansion")], ids="/".join)
def test_stacked_check_makes_one_draw_a_chunk(monkeypatch, key):
    # Ball points draw one a trial (rejection), so their draws are not counted.
    class Counting:
        def __init__(self, rng):
            self.rng, self.calls = rng, 0

        def integers(self, *args, **kwargs):
            self.calls += 1
            return self.rng.integers(*args, **kwargs)

        def __getattr__(self, name):
            return getattr(self.rng, name)

    honest_ball = trial_reference.sampling.random_ball_point
    monkeypatch.setattr(verify.sampling, "random_ball_point", lambda rng, *a, **k: honest_ball(rng.rng, *a, **k))
    calls = _chunk_spy(monkeypatch)
    cfg = SuiteConfig(n=2, depth=3, trials=100, seed=7)
    rng = Counting(rng_for(7, *key))
    defects = list(_check(key, cfg).fn(cfg, rng))
    (trials, _, sizes), = calls
    assert sum(sizes) == trials == (25 if key[1] in ("integral_invariance", "vacuum_expansion", "convolve_algebra") else 100)
    assert len(defects) >= trials and len(sizes) < trials
    assert rng.calls <= len(sizes)


def _peak(fn, cfg, key) -> int:
    rng = rng_for(cfg.seed, *key, cfg.n, cfg.depth)
    tracemalloc.start()
    try:
        for _ in fn(cfg, rng):
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n,depth", [(2, 7), (3, 4)])
@pytest.mark.parametrize("key", STACKED, ids="/".join)
def test_stacked_check_memory_does_not_grow_with_trials(key, n, depth):
    # A chunk holds at most TRIAL_ENTRIES entries of 16 bytes, counted over
    # every array a pass holds; the pass briefly overlaps its inputs and
    # outputs, so peaks are compared within twice that.
    slack = 2 * 16 * verify.TRIAL_ENTRIES
    cfgs = {t: SuiteConfig(n=n, depth=depth, trials=t, seed=7) for t in (3, 100, 2000)}
    check = _check(key, cfgs[3])
    list(check.fn(cfgs[3], rng_for(0, "warm")))  # the cached plans and patterns
    few, many = _peak(check.fn, cfgs[100], key), _peak(check.fn, cfgs[2000], key)
    per_trial = _peak(LOOPS[key], cfgs[100], key)
    assert abs(many - few) <= slack
    assert max(few, many) <= per_trial + slack


@pytest.mark.parametrize("n,depth", POINTS)
def test_stacked_rank_one_values_are_the_rows_one_at_a_time(n, depth):
    space = FockSpace(Alphabet(n), depth)
    rng = rng_for(depth, "stacked-rank-one", n)
    for bits in (EXACT_BITS, FINE_BITS):
        (f,) = random_rank_one_functionals(rng, space, 1, 5, bits)
        (xi, eta), = f.provenance
        assert f.values.shape == (5, space.dim)
        for row, x, e in zip(f.values, xi.data, eta.data):
            single = predual.from_rank_one(space, [(Vector(space, x), Vector(space, e))]).values
            assert row.tobytes() == single.tobytes() == trial_reference.rank_one_values(space, x, e).tobytes()


def _all_positions(parts, shape, dim):
    # The word each matrix stores at every position, one column a position, as
    # the plans were read before they kept one column of each key.
    rows, cols, vals = (np.concatenate(arrs) for arrs in zip(*parts))
    part = np.repeat(np.arange(len(parts)), [p[0].size for p in parts])
    order, first, _ = sort_positions(rows, cols, shape)
    part = part[order]
    group = first.copy()
    group[1:] |= part[1:] != part[:-1]
    slot = np.cumsum(group) - 1
    sums = np.empty(np.count_nonzero(group), dtype=np.complex128)
    sums.real, sums.imag = (np.bincount(slot, v[order], sums.size) for v in (vals.real, vals.imag))
    plan = np.full((len(parts), np.count_nonzero(first)), -1, dtype=np.int32)
    plan[part[group], (np.cumsum(first) - 1)[group]] = hopf._decode_tags(sums, dim)
    return plan


@pytest.mark.parametrize("n,depth", GRID + [(2, 7)])
def test_plans_keep_each_distinct_column_once(monkeypatch, n, depth):
    space = FockSpace(Alphabet(n), depth)
    seen, honest = [], hopf._read_tags

    def recording(parts, shape, dim):
        plan = honest(parts, shape, dim)
        seen.append((plan, _all_positions(parts, shape, dim)))
        return plan

    monkeypatch.setattr(hopf, "_read_tags", recording)
    rng = rng_for(depth, "distinct-columns", n)
    for plan_of in (hopf._coassociativity_plan, hopf._cocommutativity_plan, hopf._integral_plan):
        plan_of.__wrapped__(space, min(2, depth))
        plan, full = seen.pop()
        distinct = {tuple(col) for col in full.T.tolist()}
        assert sorted(map(tuple, plan.T.tolist())) == sorted(distinct)
        # Two unrelated coefficient arrays read through two plan rows: the largest
        # difference over the kept columns is the one over every position.
        size = space._block_starts[min(2, depth) + 1]
        a, b = (np.append(rng.standard_normal(size) + 1j * rng.standard_normal(size), 0) for _ in range(2))
        for i in range(len(plan)):
            for j in range(len(plan)):
                kept = np.abs(a[plan[i]] - b[plan[j]]).max(initial=0.0)
                assert kept == np.abs(a[full[i]] - b[full[j]]).max(initial=0.0) > 0.0


def test_rows_read_the_plan_of_their_own_degree(monkeypatch):
    # A series whose longest words all have coefficient 0 is of lower degree,
    # with a wider safe zone, as FourierSeries trims it.
    space = FockSpace(Alphabet(2), 4)
    rng = rng_for(0, "trimmed-degrees")
    coefs = rng.standard_normal((4, 7)) + 0j
    coefs[1, 3:] = 0  # degree 1
    coefs[2, 1:] = 0  # degree 0
    coefs[3] = 0  # the zero series, degree 0
    asked = []

    def plan_of(space, degree):
        asked.append(degree)
        return hopf._cocommutativity_plan(space, degree)

    got = hopf._plan_defects(plan_of, ((0, 1),), coefs, space)
    assert sorted(asked) == [0, 1, 2]
    for row, defect in zip(coefs, got):
        assert defect == hopf.cocommutativity_defect(FourierSeries(space.alphabet, row), space)
    degrees = []
    honest = hopf._homomorphism_plan
    monkeypatch.setattr(hopf, "_homomorphism_plan", lambda *key: degrees.append(key[1:]) or honest(*key))
    s = coefs[:3, :3]
    defects = hopf.homomorphism_defect(s, s[::-1], space)
    assert sorted(degrees) == [(0, 1, 1), (1, 0, 1), (1, 1, 2)]
    monkeypatch.setattr(hopf, "_homomorphism_plan", honest)
    pairs = [(FourierSeries(space.alphabet, a), FourierSeries(space.alphabet, b)) for a, b in zip(s, s[::-1])]
    assert defects.tolist() == [hopf.homomorphism_defect(a, b, space) for a, b in pairs]
