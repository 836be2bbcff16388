"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance is pinned here; "exact" means a defect of
floating-point zero, not a small threshold.
"""

import json
import time

import numpy as np
import pytest

from fockhopf.cli import main as cli_main
from fockhopf.corep import (
    SCALAR_SPACE,
    PredualRep,
    coefficient_operator,
    corep_check,
    corep_from_rep,
    fundamental_corep,
    fundamental_intertwining_defect,
    fundamental_right_commutation_defect,
    rep_from_corep,
    spectrum,
    tensor_product_rep,
)
from fockhopf.graded import within
from fockhopf.hopf import (
    coassociativity_defect,
    cocommutativity_defect,
    comult,
    homomorphism_defect,
    integral_invariance_defect,
)
from fockhopf.predual import (
    convolve,
    counit_defect,
    dagger,
    point_functional,
    pointwise_product,
    predual_coassociativity_defect,
    predual_homomorphism_defect,
)
from fockhopf.regular import (
    FourierSeries,
    cesaro_error_bound,
    cesaro_sum,
    fourier_coefficients,
    isometry_defect,
    membership_defect,
    realize,
)
from fockhopf.sampling import (
    EXACT_BITS,
    dyadic_complex,
    random_ball_point,
    random_rank_one_functional,
    random_series,
    random_vector,
    rng_for,
)
from fockhopf.spaces import (
    FockSpace,
    Operator,
    _worst_defect,
    basis_vector,
    max_entry_diff,
)
from fockhopf.wandering import wandering_check, wandering_dim, wandering_dim_closed_form
from fockhopf.words import Alphabet, word

A2 = Alphabet(2)


def component(rep, w):
    # The member at w, or zero where the family stores nothing.
    return rep.family[w] if w in rep.family else Operator.zero(rep.aux)


def _report(num, name, elapsed, budget, ok):
    flag = "PASS" if ok else "FAIL"
    print(f"[{flag}] criterion {num:2d} ({name}): {elapsed:6.2f}s of {budget:.0f}s budget")


def test_criterion_01_isometry_relations():
    started = time.perf_counter()
    failures = []
    for n in (1, 2, 3):
        for depth in (2, 3, 4, 5):
            defect = isometry_defect(FockSpace(Alphabet(n), depth))
            if defect != 0.0:
                failures.append((n, depth, defect))
    elapsed = time.perf_counter() - started
    _report(1, "isometry relations", elapsed, 1.0, not failures)
    assert not failures
    assert elapsed < 1.0


def test_criterion_02_fourier_round_trip():
    started = time.perf_counter()
    rng = rng_for(2024, "acceptance-fourier")
    failures = []
    for n, depth in [(1, 2), (1, 3), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3)]:
        alphabet = Alphabet(n)
        space = FockSpace(alphabet, depth)
        for _ in range(100):
            s = random_series(rng, alphabet, int(rng.integers(0, depth + 1)))
            if fourier_coefficients(realize(s, space)) != s:
                failures.append((n, depth))
    elapsed = time.perf_counter() - started
    _report(2, "fourier round trip", elapsed, 1.0, not failures)
    assert not failures
    assert elapsed < 1.0


def test_criterion_03_cesaro_bound():
    started = time.perf_counter()
    space = FockSpace(A2, 5)
    rng = rng_for(2024, "acceptance-cesaro")
    zone = within(space, space.depth - 3)
    worst_slack = 0.0
    for _ in range(100):
        s = random_series(rng, A2, 3)
        a = realize(s, space)
        x = np.zeros(space.dim, dtype=complex)
        x[zone] = dyadic_complex(rng, zone.size)
        nx = float(np.linalg.norm(x))
        for k in range(4, 13):
            err = float(np.linalg.norm((realize(cesaro_sum(s, k), space).matrix - a.matrix) @ x))
            bound = cesaro_error_bound(s, k) * nx
            worst_slack = _worst_defect((worst_slack, err - bound))
    elapsed = time.perf_counter() - started
    ok = worst_slack <= 1e-12
    _report(3, "cesaro error bound", elapsed, 2.0, ok)
    assert ok, worst_slack
    assert elapsed < 2.0


def test_criterion_04_hopf_axioms():
    started = time.perf_counter()
    space = FockSpace(A2, 4)
    rng = rng_for(2024, "acceptance-hopf")
    worst = 0.0
    for _ in range(50):
        s = random_series(rng, A2, 2, bits=EXACT_BITS)
        t = random_series(rng, A2, 2, bits=EXACT_BITS)
        worst = _worst_defect((worst, coassociativity_defect(s, space)))
        worst = _worst_defect((worst, cocommutativity_defect(s, space)))
        worst = _worst_defect((worst, homomorphism_defect(s, t, space)))
        worst = _worst_defect((worst, integral_invariance_defect(s, space)))
    unit_image = comult(FourierSeries.unit(A2), space)
    worst = _worst_defect((worst, max_entry_diff(unit_image, Operator.identity(unit_image.domain))))
    elapsed = time.perf_counter() - started
    ok = worst == 0.0
    _report(4, "hopf axioms", elapsed, 60.0, ok)
    assert ok, worst
    assert elapsed < 60.0


def test_criterion_05_convolution_algebra():
    started = time.perf_counter()
    space = FockSpace(A2, 4)
    rng = rng_for(2024, "acceptance-convolution")
    images = {w: comult(FourierSeries.indicator(A2, w), space) for w in space.words}
    worst_oracle = 0.0
    worst_exact = 0.0
    for _ in range(100):
        f = random_rank_one_functional(rng, space, bits=EXACT_BITS)
        g = random_rank_one_functional(rng, space, bits=EXACT_BITS)
        h = random_rank_one_functional(rng, space, bits=EXACT_BITS)
        conv = convolve(f, g)
        xi1, eta1 = f.provenance[0]
        xi2, eta2 = g.provenance[0]
        xx = np.kron(xi1.data, xi2.data)
        ee = np.kron(eta1.data, eta2.data)
        for w, image in images.items():
            oracle = complex(np.vdot(ee, image.matrix @ xx))
            worst_oracle = _worst_defect((worst_oracle, abs(oracle - conv.value(w))))
        worst_exact = _worst_defect((
            worst_exact,
            float(np.abs(convolve(g, f).values - conv.values).max(initial=0.0)),
            float(
                np.abs(
                    convolve(conv, h).values - convolve(f, convolve(g, h)).values
                ).max(initial=0.0)
            ),
            predual_coassociativity_defect(f),
            predual_homomorphism_defect(f, g),
        ))
    elapsed = time.perf_counter() - started
    ok = worst_oracle <= 1e-12 and worst_exact == 0.0
    _report(5, "convolution algebra", elapsed, 10.0, ok)
    assert ok, (worst_oracle, worst_exact)
    assert elapsed < 10.0


def test_criterion_06_point_functionals():
    started = time.perf_counter()
    space = FockSpace(A2, 4)
    rng = rng_for(2024, "acceptance-points")
    worst = 0.0
    for _ in range(50):
        lam = random_ball_point(rng, 2, radius=0.7)
        mu = random_ball_point(rng, 2, radius=0.7)
        pl = point_functional(space, lam)
        pm = point_functional(space, mu)
        conv = convolve(pl.functional, pm.functional)
        target = point_functional(space, pointwise_product(lam, mu)).functional
        worst = _worst_defect((worst, float(np.abs(conv.values - target.values).max(initial=0.0))))
        conj = point_functional(space, tuple(z.conjugate() for z in lam)).functional
        dagger_miss = float(np.abs(dagger(pl.functional).values - conj.values).max(initial=0.0))
        worst = _worst_defect((worst, dagger_miss))
    deep = FockSpace(A2, 8)
    pf = point_functional(deep, (0.5, 0.0))
    approx = pf.rank_one_functional()
    recon_err = max(
        abs(approx.value(w) - pf.functional.value(w))
        for w in deep.words
        if len(w) <= 2
    )
    elapsed = time.perf_counter() - started
    ok = worst == 0.0 and recon_err < 1e-3
    _report(6, "point functionals", elapsed, 5.0, ok)
    assert ok, (worst, recon_err)
    assert elapsed < 5.0


def test_criterion_07_non_unitality():
    started = time.perf_counter()
    space = FockSpace(A2, 3)
    rng = rng_for(2024, "acceptance-counit")
    ok = True
    for _ in range(100):
        lam = random_ball_point(rng, 2, radius=0.97)
        d = counit_defect(point_functional(space, lam).functional)
        if d < 1.0 - max(abs(z) for z in lam) or d <= 0.0:
            ok = False
    elapsed = time.perf_counter() - started
    _report(7, "non-unitality witness", elapsed, 1.0, ok)
    assert ok
    assert elapsed < 1.0


def test_criterion_08_corepresentation_suite():
    started = time.perf_counter()
    worst = 0.0
    for depth in (3, 4):
        space = FockSpace(A2, depth)
        w_corep = fundamental_corep(space)
        report = corep_check(w_corep)
        worst = _worst_defect((worst, report.max_defect))
        rep = rep_from_corep(w_corep)
        back = corep_from_rep(rep, space)
        worst = _worst_defect((worst, max_entry_diff(back.operator, w_corep.operator)))
        for w in space.words:
            char = PredualRep.character(space, w)
            v_char = corep_from_rep(char, space)
            rep_back = rep_from_corep(v_char)
            for u in space.words:
                worst = _worst_defect((worst, max_entry_diff(component(rep_back, u), component(char, u))))
        for w in [word(1), word(2), word(1, 2), word(2, 1, 1)]:
            worst = _worst_defect((worst, fundamental_intertwining_defect(space, w)))
            worst = _worst_defect((worst, fundamental_right_commutation_defect(space, w)))
    elapsed = time.perf_counter() - started
    ok = worst == 0.0
    _report(8, "corepresentation suite", elapsed, 30.0, ok)
    assert ok, worst
    assert elapsed < 30.0


def test_criterion_09_spectrum():
    started = time.perf_counter()
    ok = True
    for n in (1, 2, 3):
        for depth in (2, 3):
            space = FockSpace(Alphabet(n), depth)
            chars = spectrum(space)
            if list(chars) != list(space.words):
                ok = False
            for u in space.words:
                for v in space.words:
                    if len(u) + len(v) > depth:
                        continue
                    prod = tensor_product_rep(
                        PredualRep.character(space, u), PredualRep.character(space, v)
                    )
                    if list(prod.family) != [u.concat(v)]:
                        ok = False
    elapsed = time.perf_counter() - started
    _report(9, "gelfand spectrum", elapsed, 5.0, ok)
    assert ok
    assert elapsed < 5.0


def test_criterion_10_coefficient_duality():
    started = time.perf_counter()
    space = FockSpace(A2, 4)
    rep = rep_from_corep(fundamental_corep(space))
    rng = rng_for(2024, "acceptance-duality")
    worst = 0.0
    for u in space.words:
        for v in space.words:
            series = coefficient_operator(rep, basis_vector(space, u), basis_vector(space, v))
            worst = _worst_defect((worst, membership_defect(realize(series, space))))
    for _ in range(10):
        series = coefficient_operator(rep, random_vector(rng, space), random_vector(rng, space))
        worst = _worst_defect((worst, membership_defect(realize(series, space))))
    indicators_found = set()
    one = basis_vector(SCALAR_SPACE, 0)
    for w in space.words:
        char = PredualRep.character(space, w)
        series = coefficient_operator(char, one, one)
        worst = _worst_defect((worst, membership_defect(realize(series, space))))
        if series == FourierSeries.indicator(A2, w):
            indicators_found.add(w)
    elapsed = time.perf_counter() - started
    ok = worst == 0.0 and indicators_found == set(space.words)
    _report(10, "coefficient duality", elapsed, 10.0, ok)
    assert ok, worst
    assert elapsed < 10.0


def test_criterion_11_wandering():
    started = time.perf_counter()
    ok = True
    for n in (1, 2, 3):
        alphabet = Alphabet(n)
        for k in (1, 2, 3):
            for depth in (1, 2, 3, 4):
                if wandering_dim(alphabet, k, depth) != wandering_dim_closed_form(
                    alphabet, k, depth
                ):
                    ok = False
    if wandering_dim(A2, 2, 3) != 127:
        ok = False
    for n, k, depth in [(2, 2, 3), (2, 3, 2), (3, 2, 2), (3, 3, 3)]:
        report = wandering_check(Alphabet(n), k, depth)
        if not report.passed or not (report.cover_injective and report.cover_complete):
            ok = False
        if report.orthogonality_defect != 0.0:
            ok = False
    elapsed = time.perf_counter() - started
    _report(11, "wandering decomposition", elapsed, 30.0, ok)
    assert ok
    assert elapsed < 30.0


def test_criterion_12_harness_determinism(tmp_path):
    started = time.perf_counter()
    args = ["verify", "--full", "--seed", "7", "--no-timestamp", "--format", "json"]
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    t1 = time.perf_counter()
    code1 = cli_main(args + ["--output", str(first)])
    run1 = time.perf_counter() - t1
    t2 = time.perf_counter()
    code2 = cli_main(args + ["--output", str(second)])
    run2 = time.perf_counter() - t2
    identical = first.read_bytes() == second.read_bytes()
    all_pass = code1 == 0 and code2 == 0
    report = json.loads(first.read_text())
    elapsed = time.perf_counter() - started
    ok = identical and all_pass and run1 < 300.0 and run2 < 300.0
    _report(12, "harness determinism", elapsed, 600.0, ok)
    assert identical
    assert all_pass
    assert report["summary"]["failed"] == 0
    assert max(run1, run2) < 300.0
