import json
import math

import pytest

from fockhopf.cli import main
from fockhopf.verify import SuiteConfig, build_checks, default_grid


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
    for chk in report["checks"]:
        assert set(chk) == {"suite", "name", "params", "defect", "threshold", "pass", "millis"}
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
    # An empty suite list, and tolerances that break the JSON or every gate.
    for extra in (["--suites", ","], ["--tolerance", "nan"], ["--tolerance", "inf"],
                  ["--full", "--tolerance", "nan"], ["--tolerance", "-1"]):
        with pytest.raises(SystemExit) as err:
            run_cli(["verify", "--n", "2", "--depth", "2", *extra])
        assert err.value.code == 2, extra


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
    with_fault = build_checks(config, inject_fault=True)
    assert with_fault[-1].suite == "selftest"


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
