"""Checks for the benchmark's own code: tracer arithmetic, thread handling,
the correctness gate and the metric names in BENCHMARK.json.

The file name keeps it out of the repository's default test collection; run
it from the root of a checkout with

    python3 -m pytest perfbench/tests/tracer_checks.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import run  # noqa: E402
from tracer import Span, Tracer, covered, self_times, summarize  # noqa: E402

WAIT_S = 10.0


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        traced_leaf()
        clock.now += 3.0

    def outer():
        clock.now += 1.0
        traced_middle()
        traced_leaf()
        clock.now += 1.0

    traced_leaf = tracer.spanned("words.leaf", leaf)
    traced_middle = tracer.spanned("regular.middle", middle)
    tracer.spanned("hopf.outer", outer)()

    summary = summarize(tracer.spans(), tracer.counts())
    names = summary["names"]
    assert names["hopf.outer"] == {"calls": 1, "self_s": 2.0, "inclusive_s": 10.0}
    assert names["regular.middle"] == {"calls": 1, "self_s": 4.0, "inclusive_s": 6.0}
    assert names["words.leaf"] == {"calls": 2, "self_s": 4.0, "inclusive_s": 4.0}
    assert summary["layers"]["hopf"] == {"calls": 1, "self_s": 2.0}
    # Self times partition the root span exactly.
    assert sum(self_times(tracer.spans())) == 10.0


def test_recursion_is_counted_once_in_inclusive_time():
    clock = FakeClock()
    tracer = Tracer(clock)

    def rec(depth):
        clock.now += 1.0
        if depth:
            traced(depth - 1)

    traced = tracer.spanned("regular.rec", rec)
    traced(2)
    entry = summarize(tracer.spans(), tracer.counts())["names"]["regular.rec"]
    assert entry == {"calls": 3, "self_s": 3.0, "inclusive_s": 3.0}


def test_overlapping_children_are_merged_not_summed():
    parent = Span("verify.run_checks", 1, None, 0.0, 10.0)
    kids = [
        Span("verify.Check.run", 2, parent, start, end)
        for start, end in ((1.0, 3.0), (2.0, 5.0), (4.0, 4.5), (9.0, 12.0))
    ]
    # [1, 5] from the first two, [4, 4.5] inside it, [9, 10] clipped to the parent.
    assert covered(parent, kids) == 5.0
    assert self_times([parent, *kids])[0] == 5.0


def test_counts_from_many_threads_are_exact():
    tracer = Tracer()
    bump = tracer.counted("words.Word.built", lambda: None)
    calls, workers = 20_000, 4 * (os.cpu_count() or 1)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: [bump() for _ in range(calls)]) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(WAIT_S)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert tracer.counts()["words.Word.built"] == calls * workers


def _wait(event: threading.Event) -> None:
    assert event.wait(WAIT_S), "thread did not reach its step in time"


def test_worker_spans_are_children_of_the_span_that_started_them():
    clock = FakeClock()
    tracer = Tracer(clock)
    undo = tracer.follow_threads()
    steps = {k: threading.Event() for k in ("go1", "in1", "out1", "done1", "go2", "in2", "out2", "done2")}

    def worker(i):
        _wait(steps[f"go{i}"])

        def body():
            steps[f"in{i}"].set()
            _wait(steps[f"out{i}"])

        tracer.spanned("verify.Check.run", body)()
        steps[f"done{i}"].set()

    def fan_out():
        threads = [threading.Thread(target=worker, args=(i,)) for i in (1, 2)]
        for t in threads:
            t.start()
        for at, step, reached in ((1.0, "go1", "in1"), (2.0, "go2", "in2"),
                                  (3.0, "out1", "done1"), (5.0, "out2", "done2")):
            clock.now = at
            steps[step].set()
            _wait(steps[reached])
        for t in threads:
            t.join(WAIT_S)
        assert not any(t.is_alive() for t in threads)
        clock.now = 10.0

    try:
        tracer.spanned("verify.run_checks", fan_out)()
    finally:
        undo()
    spans = tracer.spans()
    (root,) = [s for s in spans if s.name == "verify.run_checks"]
    workers = [s for s in spans if s.name == "verify.Check.run"]
    assert len(workers) == 2
    assert all(w.parent is root and w.thread != root.thread for w in workers)
    # Children cover [1, 5]: self time 6, not 10 - (2 + 3) = 5.
    assert summarize(spans, tracer.counts())["names"]["verify.run_checks"]["self_s"] == 6.0


def test_a_span_open_on_another_thread_is_never_a_parent():
    tracer = Tracer()
    opened, release = threading.Event(), threading.Event()

    def hold():
        opened.set()
        _wait(release)

    helper = threading.Thread(target=tracer.spanned("corep.held", hold))
    helper.start()
    try:
        _wait(opened)
        tracer.spanned("spaces.main", lambda: None)()
    finally:
        release.set()
        helper.join(WAIT_S)
    assert not helper.is_alive()
    (main_span,) = [s for s in tracer.spans() if s.name == "spaces.main"]
    assert main_span.parent is None


def test_wandering_dims_match_the_known_answer():
    assert gate.wandering_dim(2, 2, 3) == 127
    assert gate.wandering_dim(1, 1, 4) == 1


def _report(passes: list[bool], defect: float = 0.0) -> bytes:
    checks = [{"suite": "s", "name": f"c{i}", "params": {"n": 2}, "pass": p, "defect": defect}
              for i, p in enumerate(passes)]
    failed = passes.count(False)
    return json.dumps({"checks": checks, "summary": {"passed": len(passes) - failed, "failed": failed}}).encode()


@pytest.mark.parametrize(
    "out, code, expected, outcome",
    [
        (_report([True, False]), 1, 2, (2, 1, 0)),
        (_report([True, False]), 0, 2, (2, 1, 1)),  # exit code disagrees
        (_report([True]), 0, 3, (3, 2, 1)),  # missing checks count as failed
        (b"Traceback", 1, 3, (3, 3, 1)),
        (b"", None, 2, (2, 2, 1)),  # killed
    ],
)
def test_gate_verify(out, code, expected, outcome):
    attempted, failed, problems, _ = gate.gate_verify(out, code, expected)
    assert (attempted, failed, len(problems)) == outcome


DEEP_FOCK_PASSES = [True] * run.WORKLOADS["deep_fock"][1]


def _verdict_problems(monkeypatch, tree: str, out: bytes, code: int | None) -> list[str]:
    """Gate one deep_fock verdict whose child printed ``out`` and exited ``code``,
    with the digests of source tree ``tree``, as a separate run would."""
    monkeypatch.setattr(run, "run_child", lambda argv, deadline: run.Child(out, code, 0.0, 1.0, 10.0))
    digests = run.Digests(tree)
    verdict = run.run_verdict("deep_fock", 7, 0.0, digests, traced=False)
    digests.save()
    return verdict.problems


def test_a_changed_source_tree_may_change_the_output(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "STATE", tmp_path)
    assert _verdict_problems(monkeypatch, "parent", _report(DEEP_FOCK_PASSES), 0) == []
    # Reordering a sum may move the last bits of a defect.
    changed = _report(DEEP_FOCK_PASSES, defect=1e-17)
    assert _verdict_problems(monkeypatch, "child", changed, 0) == []
    assert _verdict_problems(monkeypatch, "parent", _report(DEEP_FOCK_PASSES), 0) == []
    # Within one tree the output must still repeat.
    assert _verdict_problems(monkeypatch, "child", _report(DEEP_FOCK_PASSES), 0) != []


@pytest.mark.parametrize("out, code", [(b'{"checks": [', None), (b"Traceback", 1)])
def test_a_killed_or_crashed_first_run_is_not_the_reference(tmp_path, monkeypatch, out, code):
    monkeypatch.setattr(run, "STATE", tmp_path)
    assert _verdict_problems(monkeypatch, "tree", out, code) != []
    assert _verdict_problems(monkeypatch, "tree", _report(DEEP_FOCK_PASSES), 0) == []
    assert _verdict_problems(monkeypatch, "tree", _report(DEEP_FOCK_PASSES), 0) == []


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer = run.per_layer_metrics(run.NO_TRACE, 1.0, 1.0)
    verdict = run.Verdict(1.0, 1.0, 1, 0, [], None)
    end = run.end_to_end_metrics([verdict], [1.0])
    for got, listed in ((end, spec["end_to_end"]), (layer, spec["per_layer"])):
        assert {k: u for k, (_, u) in got.items()} == {m["name"]: m["unit"] for m in listed}


def test_traced_cli_leaves_the_output_unchanged(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "FOCKHOPF_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    args = ["verify", "--n", "1", "--depth", "2", "--no-timestamp", "--format", "json"]
    plain = subprocess.run([sys.executable, "-m", "fockhopf.cli", *args], env=env,
                           capture_output=True, timeout=120)
    trace = tmp_path / "trace.json"
    traced = subprocess.run([sys.executable, str(BENCH / "traced_cli.py"), str(trace), *args],
                            env=env, capture_output=True, timeout=120)
    assert (traced.returncode, traced.stdout) == (plain.returncode, plain.stdout)
    summary = json.loads(trace.read_text())
    assert summary["names"]["cli.main"]["calls"] == 1
    assert len(summary["check_ms"]) == len(json.loads(plain.stdout)["checks"])
    assert summary["counts"]["words.Word.built"] > 0
