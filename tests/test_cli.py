import importlib
import inspect
import json
import math
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import fockhopf
from fockhopf import cli, corep, hopf, predual, regular, verify
from fockhopf.cli import main
from fockhopf.sampling import rng_for
from fockhopf.spaces import FockSpace
from fockhopf.verify import ALL_SUITES, SuiteConfig, build_checks, build_report, default_grid
from fockhopf.words import Alphabet, Word, count_words
from scipy_oracle import from_scipy, scipy_csr


def run_cli(args):
    return main(args)


def test_spectrum_text(capsys):
    assert run_cli(["spectrum", "--n", "2", "--depth", "2", "--format", "text"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "e 1 2 11 12 21 22"


def test_spectrum_json(capsys):
    assert run_cli(["spectrum", "--n", "1", "--depth", "3", "--format", "json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob == {"n": 1, "depth": 3, "characters": ["e", "1", "11", "111"]}


def test_spectrum_refuses_inputs_over_the_word_budget(monkeypatch):
    # Refused before any word table or character array is built; n=2 at
    # depth 16 is admitted.
    assert count_words(Alphabet(2), 16) <= cli.WORD_BUDGET

    def unreachable(*args):
        raise AssertionError("the oversized input was not refused")

    monkeypatch.setattr(FockSpace, "words", property(unreachable))
    monkeypatch.setattr(cli, "spectrum", unreachable)
    for depth in ("30", "1000000000"):
        with pytest.raises(SystemExit) as exc:
            run_cli(["spectrum", "--n", "2", "--depth", depth])
        assert exc.value.code == 2


def test_verify_refuses_inputs_over_the_word_budget(monkeypatch, capsys):
    # Refused before build_report builds any table; n=2 at depth 16 reaches it.
    def unreachable(*args, **kwargs):
        raise AssertionError("the oversized input was not refused")

    monkeypatch.setattr(FockSpace, "words", property(unreachable))
    monkeypatch.setattr(cli, "build_report", unreachable)
    for depth in ("30", "1000000000"):
        with pytest.raises(SystemExit) as exc:
            run_cli(["verify", "--n", "2", "--depth", depth])
        assert exc.value.code == 2
    reached = []

    def stub(configs, **kwargs):
        reached.extend((c.n, c.depth) for c in configs)
        return {"checks": [], "summary": {"passed": 0, "failed": 0}}

    monkeypatch.setattr(cli, "build_report", stub)
    assert run_cli(["verify", "--n", "2", "--depth", "16"]) == 0
    assert reached == [(2, 16)]


def test_wandering_refuses_inputs_over_the_tuple_budget(monkeypatch):
    # n=2, k=8, depth=3 has 15^8 (about 2.6e9) basis tuples and is refused
    # before wandering_check runs, as are a huge --k and a huge --depth;
    # n=2, k=3, depth=7 is admitted.
    assert count_words(Alphabet(2), 7) ** 3 <= cli.WANDERING_TUPLE_BUDGET

    def unreachable(*args):
        raise AssertionError("the oversized input was not refused")

    monkeypatch.setattr(cli, "wandering_check", unreachable)
    for k, depth in (("8", "3"), ("1000000000", "3"), ("2", "1000000000")):
        with pytest.raises(SystemExit) as exc:
            run_cli(["wandering", "--n", "2", "--k", k, "--depth", depth])
        assert exc.value.code == 2


def test_budget_test_matches_the_exact_power():
    for budget in (cli.WORD_BUDGET, cli.WANDERING_TUPLE_BUDGET, 1000):
        for n in (1, 2, 3, 7):
            for depth in range(1, 30):
                for k in range(1, 9):
                    exact = count_words(Alphabet(n), depth) ** k > budget
                    assert cli._over_budget(Alphabet(n), depth, k, budget) == exact


def test_wandering_text(capsys):
    assert run_cli(["wandering", "--n", "2", "--k", "2", "--depth", "3"]) == 0
    out = capsys.readouterr().out
    assert "dimK = 127" in out


def test_wandering_json_schema(capsys):
    assert run_cli(["wandering", "--n", "2", "--k", "2", "--depth", "2", "--format", "json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    for key in (
        "n", "k", "depth", "dim", "dim_closed_form", "dims_by_depth",
        "orthogonality_defect", "cover_injective", "cover_complete",
        "counting_identity", "growth_strict", "passed",
    ):
        assert key in blob
    assert blob["dim"] == 31


def test_verify_small_passes(capsys):
    code = run_cli([
        "verify", "--n", "2", "--depth", "2",
        "--suites", "hopf,predual", "--trials", "5", "--format", "json", "--no-timestamp",
    ])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["summary"]["failed"] == 0
    assert report["config"]["n"] == 2 and report["config"]["depth"] == 2
    suites = {c["suite"] for c in report["checks"]}
    assert suites == {"hopf", "predual"}
    # Byte-identical reports depend on the key order as well as the key set.
    assert list(report) == ["config", "checks", "summary"]
    for chk in report["checks"]:
        assert set(chk) == {"suite", "name", "params", "defect", "threshold", "pass", "millis"}
        assert list(chk) == ["suite", "name", "params", "defect", "threshold", "pass", "millis"]
        assert chk["millis"] == 0.0  # suppressed together with the timestamp


def test_verify_text_output(capsys):
    code = run_cli(["verify", "--n", "2", "--depth", "2", "--suites", "regrep", "--trials", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "[PASS] regrep.isometry_relations" in out
    assert "summary:" in out


def test_verify_usage_errors():
    with pytest.raises(SystemExit) as err:
        run_cli(["verify", "--n", "2", "--depth", "0"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        run_cli(["verify", "--n", "0", "--depth", "2"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        run_cli(["verify", "--n", "2", "--depth", "2", "--suites", "nonsense"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        run_cli(["wandering", "--n", "2", "--k", "0", "--depth", "1"])
    assert err.value.code == 2
    for argv in ([], ["bogus"]):  # a missing or unknown command
        with pytest.raises(SystemExit) as err:
            run_cli(argv)
        assert err.value.code == 2, argv
    # An empty suite list, and tolerances that break the JSON or every gate.
    for extra in (["--suites", ","], ["--tolerance", "nan"], ["--tolerance", "inf"],
                  ["--tolerance", "-1"]):
        with pytest.raises(SystemExit) as err:
            run_cli(["verify", "--n", "2", "--depth", "2", *extra])
        assert err.value.code == 2, extra
    with pytest.raises(SystemExit) as err:
        run_cli(["verify", "--full", "--tolerance", "nan"])
    assert err.value.code == 2


@pytest.mark.parametrize("flag,value", [("--n", "1"), ("--depth", "9"), ("--suites", "hopf")])
def test_verify_full_refuses_a_flag_it_would_ignore(monkeypatch, capsys, flag, value):
    def unreachable(*args, **kwargs):
        raise AssertionError("the grid ran")

    monkeypatch.setattr(cli, "build_report", unreachable)
    with pytest.raises(SystemExit) as err:
        run_cli(["verify", "--full", flag, value, "--seed", "7"])
    assert err.value.code == 2
    assert f"ignore {flag}" in capsys.readouterr().err


def test_verify_refuses_an_unwritable_output_before_any_check(monkeypatch, capsys, tmp_path):
    def unreachable(*args, **kwargs):
        raise AssertionError("the checks ran")

    monkeypatch.setattr(cli, "build_report", unreachable)
    for target in (tmp_path / "missing" / "r.json", tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli(["verify", "--n", "2", "--depth", "2", "--output", str(target)])
        assert err.value.code == 2
        assert str(target) in capsys.readouterr().err
    assert not (tmp_path / "missing").exists()


def _raise_internal(*args):
    raise ValueError("internal")


@pytest.mark.parametrize("module,attr,replacement,argv,match", [
    (hopf, "comult_legs", _raise_internal,
     ["verify", "--n", "2", "--depth", "2", "--suites", "predual"], "internal"),
    (corep, "idempotent_family_defect", lambda family: 1.0,
     ["spectrum", "--n", "2", "--depth", "2"], "representation law"),
    (cli, "wandering_check", _raise_internal,
     ["wandering", "--n", "2", "--k", "2", "--depth", "2"], "internal"),
], ids=["verify", "spectrum", "wandering"])
def test_a_check_that_raises_is_not_a_usage_error(monkeypatch, capsys, module, attr, replacement, argv, match):
    # Exit 1, never exit 2: verify reports the exception in the failing row of
    # its check and exits 1; spectrum and wandering let it propagate (exit 1
    # from the entry point).
    monkeypatch.setattr(module, attr, replacement)
    if argv[0] != "verify":
        with pytest.raises(ValueError, match=match):
            run_cli(argv)
        return
    assert run_cli(argv) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[FAIL]")]
    assert failed == [
        "[FAIL] predual.convolve_slice_oracle n=2 depth=2 defect=nan threshold=1.000e-09"
        f" error=ValueError: {match}"
    ]


def clear_package_caches():
    for info in pkgutil.iter_modules(fockhopf.__path__):
        for obj in vars(importlib.import_module(f"fockhopf.{info.name}")).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


@pytest.fixture
def boundary_mutant(monkeypatch):
    # ROADMAP item 5's comult-boundary mutant: the realize pattern built with
    # src = within(space, depth - k - 1) for the words of length k >= 1, so
    # each such word loses its columns with a factor of length depth - k.
    honest = regular._realize_pattern

    def pattern(space, degree, fold):
        indptr, cols, word = honest(space, degree, fold)
        rows = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
        k = space.lengths[word]
        parts = np.unravel_index(cols, (space.dim,) * fold)
        keep = (k == 0) | np.logical_and.reduce([space.lengths[p] < space.depth - k for p in parts])
        counts = np.bincount(rows[keep], minlength=indptr.size - 1)
        return np.append(0, np.cumsum(counts)).astype(indptr.dtype), cols[keep], word[keep]

    clear_package_caches()  # no plan read off the honest pattern may survive into the run
    for module in (regular, hopf):
        monkeypatch.setattr(module, "_realize_pattern", pattern)
    yield
    clear_package_caches()  # nor one read off the mutant out of it


def test_a_raising_check_leaves_every_other_row_in_the_report(boundary_mutant, capsys):
    # The mutant makes the slice oracle's proof raise at every grid point;
    # each of those rows fails with its error and the other 331 rows report.
    code = run_cli(["verify", "--full", "--format", "json", "--no-timestamp"])
    rows = json.loads(capsys.readouterr().out)["checks"]
    assert code == 1 and len(rows) == 341
    keys = ["suite", "name", "params", "defect", "threshold", "pass", "millis"]
    raised = [row for row in rows if "error" in row]
    assert [row["name"] for row in raised] == ["convolve_slice_oracle"] * 10
    for row in raised:
        assert list(row) == keys + ["error"]
        assert math.isnan(row["defect"]) and row["pass"] is False
        assert row["error"] == "ValueError: a word's comultiplication entries are not T_{d-|w|}^2 in number"
    assert all(list(row) == keys for row in rows if "error" not in row)


def test_non_tensor_suites_build_no_word_table(monkeypatch, capsys):
    # Words are read by index, so the deep tier never enumerates all of them.
    def unreachable(*args):
        raise AssertionError("the whole word table was built")

    monkeypatch.setattr(FockSpace, "words", property(unreachable))
    assert run_cli(["verify", "--n", "2", "--depth", "4", "--suites", "regrep,predual"]) == 0


def test_verify_inject_fault(capsys):
    code = run_cli([
        "verify", "--n", "2", "--depth", "2", "--suites", "regrep",
        "--trials", "2", "--inject-fault",
    ])
    assert code == 1
    out = capsys.readouterr().out
    assert "[FAIL] selftest.injected_fault" in out


def test_verify_deterministic_bytes(tmp_path):
    args = [
        "verify", "--n", "2", "--depth", "2", "--suites", "regrep,wandering",
        "--trials", "5", "--seed", "3", "--format", "json", "--no-timestamp",
    ]
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert run_cli(args + ["--output", str(first)]) == 0
    assert run_cli(args + ["--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_deep_fock_config_passes_every_exact_check_but_point_family(capsys):
    # The benchmark's deep_fock command at depth 7, in process.  point_family
    # misses its threshold-0 contract there by about 4e-19 (ROADMAP item 3),
    # so the command exits 1; every other row must pass at defect 0.0.
    code = run_cli([
        "verify", "--n", "2", "--depth", "7", "--suites", "regrep,predual",
        "--seed", "7", "--no-timestamp", "--format", "json",
    ])
    rows = json.loads(capsys.readouterr().out)["checks"]
    assert code == 1
    assert len(rows) == 17
    assert [row["name"] for row in rows].count("point_family") == 1
    others = [row for row in rows if row["name"] != "point_family"]
    assert len(others) == 16
    assert all(row["pass"] and row["defect"] == 0.0 for row in others), others


def test_verify_timestamp_present_by_default(capsys):
    code = run_cli([
        "verify", "--n", "1", "--depth", "2", "--suites", "regrep",
        "--trials", "2", "--format", "json",
    ])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert "timestamp" in report


def test_default_grid_shape():
    grid = default_grid(seed=0, tolerance=1e-9, trials=2)
    assert [(c.n, c.depth) for c in grid] == [
        (1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (2, 5),
    ]
    assert grid[-1].suites == ("regrep", "predual")
    assert all(c.suites == ("regrep", "hopf", "predual", "corep", "wandering") for c in grid[:-1])


def test_build_checks_respects_suites():
    config = SuiteConfig(n=2, depth=2, suites=("hopf",))
    checks = build_checks(config)
    assert {c.suite for c in checks} == {"hopf"}
    every = build_checks(SuiteConfig(n=2, depth=2))
    assert list(dict.fromkeys(c.suite for c in every)) == list(ALL_SUITES)
    with_fault = build_checks(config, inject_fault=True)
    assert with_fault[-1].suite == "selftest"


def test_every_check_is_a_generator_and_five_use_the_tolerance():
    # isgeneratorfunction sees through a registry partial to its shared body.
    every = build_checks(SuiteConfig(n=2, depth=2), inject_fault=True)
    assert [c.name for c in every if not inspect.isgeneratorfunction(c.fn)] == []
    assert {c.name for c in every if not c.exact} == {
        "cesaro_bound", "convolve_slice_oracle", "counit_positive", "nu_reconstruction",
        "rep_multiplicativity",
    }


def test_checks_call_the_library_defects_as_bound_when_run(monkeypatch):
    # perfbench's tracer rebinds module attributes after import; a registry of
    # partials made at import would keep calling the functions it saw then.
    # The hopf check takes one defect a stacked trial, here one trial.
    called = []
    for module, attr, zero in ((regular, "isometry_defect", 0.0), (hopf, "coassociativity_defect", np.zeros(1))):
        monkeypatch.setattr(module, attr, lambda *args, attr=attr, zero=zero: called.append(attr) or zero)
    build_report([SuiteConfig(n=2, depth=2, trials=1, suites=("regrep", "hopf"))], with_timestamp=False)
    assert called == ["isometry_defect", "coassociativity_defect"]


DEPTH_ONE = [SuiteConfig(n=n, depth=1, seed=7) for n in (1, 2, 3)]


@pytest.mark.parametrize(
    "config",
    [c for c in default_grid(7, 1e-9, 100) if c.depth == 2] + DEPTH_ONE,
    ids=lambda c: f"n{c.n}" if c.depth == 2 else f"n{c.n}-depth{c.depth}",
)
def test_every_check_yields_and_its_row_reports_the_worst(config):
    # A check that yields nothing reports 0.0 and passes whatever it computes.
    # Cesaro, counit and nu yield negative margins when they hold, hence the 0.0.
    for check in build_checks(config):
        rng = rng_for(config.seed, check.suite, check.name, config.n, config.depth)
        defects = list(check.fn(config, rng))
        assert defects, check.name
        row = check.run()
        assert row["defect"] == max([0.0, *defects]), check.name
        assert row["threshold"] == (0.0 if check.exact else config.tolerance)


def test_a_nan_defect_fails_its_row(monkeypatch):
    # The reduction keeps a NaN: max(0.0, nan) is 0.0, which would pass the row.
    honest = regular.fourier_coefficients

    def nan_at_vacuum(t):
        coeffs = np.array(honest(t).coeffs)
        coeffs[0] = math.nan
        return regular.FourierSeries(t.domain.alphabet, coeffs)

    monkeypatch.setattr(regular, "fourier_coefficients", nan_at_vacuum)
    report = build_report([SuiteConfig(n=2, depth=3, suites=("regrep",))], with_timestamp=False)
    (row,) = [r for r in report["checks"] if r["name"] == "fourier_round_trip"]
    assert math.isnan(row["defect"]) and row["pass"] is False
    assert report["summary"]["failed"] == 1


def test_a_nan_shift_entry_fails_the_shift_relation_rows(monkeypatch):
    # The library defects reduce through the same NaN-keeping reduction as the rows.
    honest = regular.word_shift

    def nan_in_l1(space, w, side="left"):
        op = honest(space, w, side)
        if w != Word((1,)) or side != "left":
            return op
        mat = scipy_csr(op).copy()
        mat.data[0] = math.nan  # the entry taking the vacuum to xi_1
        return from_scipy(op.domain, op.codomain, mat)

    monkeypatch.setattr(regular, "word_shift", nan_in_l1)
    report = build_report([SuiteConfig(n=2, depth=3, suites=("regrep",))], with_timestamp=False)
    rows = {r["name"]: r for r in report["checks"]}
    for name in ("isometry_relations", "lr_commutation"):
        assert math.isnan(rows[name]["defect"]) and rows[name]["pass"] is False, name


def _nan(*args):
    return math.nan


def _nan_a_row(f):
    return np.full(f.values.shape[:-1], math.nan)  # the counit check stacks its trials


@pytest.mark.parametrize("module,attr,name,flags,nan", [
    (regular, "membership_defect", "membership_rejects", [1.0, 1.0], _nan),
    (corep, "criterion_defect", "decomposable_not_corep", [0.0, 1.0], _nan),
    (predual, "counit_defect", "counit_positive", [1.0, 1.0, 1.0], _nan_a_row),
], ids=["membership_rejects", "decomposable_not_corep", "counit_positive"])
def test_a_nan_defect_raises_each_flag(monkeypatch, module, attr, name, flags, nan):
    # A flag written float(d <= bound) reads 0.0 on a NaN d, and its check passes.
    monkeypatch.setattr(module, attr, nan)
    config = SuiteConfig(n=2, depth=2, trials=3)
    (check,) = [c for c in build_checks(config) if c.name == name]
    defects = list(check.fn(config, rng_for(0, name)))
    assert [d for d in defects if not math.isnan(d)] == flags


def test_config_validation():
    with pytest.raises(ValueError):
        SuiteConfig(n=2, depth=2, tolerance=0.0)
    with pytest.raises(ValueError):
        SuiteConfig(n=2, depth=2, trials=0)
    with pytest.raises(ValueError):
        SuiteConfig(n=2, depth=2, suites=("bogus",))
    with pytest.raises(ValueError):
        SuiteConfig(n=2, depth=2, suites=())
    for tolerance in (math.nan, math.inf, -math.inf, -1e-9):
        with pytest.raises(ValueError):
            SuiteConfig(n=2, depth=2, tolerance=tolerance)


def run_fresh(script):
    # Runs a script in a new interpreter, where no test has loaded a module yet.
    paths = [str(Path(fockhopf.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_spectrum_and_large_wandering_load_no_scipy():
    # No module of the package imports scipy: the spectrum, both wandering
    # paths (63^3 = 250,047 tuples is above GRAM_LIMIT and builds no shift
    # operator; 15^2 = 225 forms the Gram), the deep_fock config and the full
    # grid, with and without the injected fault, all run with scipy unloaded.
    run_fresh("""
        import contextlib, io, sys

        def loaded():
            return "scipy.sparse._base" in sys.modules

        def run(main, code, *argv):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(list(argv)) == code

        import fockhopf
        assert not loaded(), "import fockhopf"
        from fockhopf import cli
        assert not loaded(), "import fockhopf.cli"
        run(cli.main, 0, "spectrum", "--n", "2", "--depth", "3")
        assert not loaded(), "spectrum"
        run(cli.main, 0, "wandering", "--n", "2", "--k", "3", "--depth", "5")
        assert not loaded(), "wandering"
        run(cli.main, 0, "wandering", "--n", "2", "--k", "2", "--depth", "3")
        assert not loaded(), "wandering with the Gram"
        # point_family misses its threshold-0 contract at depth 7 (ROADMAP item 3).
        run(cli.main, 1, "verify", "--n", "2", "--depth", "7", "--suites", "regrep,predual", "--seed", "7")
        assert not loaded(), "deep_fock"
        run(cli.main, 0, "verify", "--full", "--seed", "7", "--no-timestamp")
        assert not loaded(), "verify --full"
        run(cli.main, 1, "verify", "--full", "--inject-fault", "--seed", "7", "--no-timestamp")
        assert not loaded(), "verify --full --inject-fault"
    """)
