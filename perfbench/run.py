"""Time-to-verdict benchmark for the fockhopf CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload full_grid --seed 7 --seconds 40 --trace 0

Each invocation of the CLI runs in a fresh process started with this
interpreter, the checkout's ``src/`` on ``PYTHONPATH`` and
``FOCKHOPF_THREADS`` removed, so the program runs on its own defaults, as
a user's ``fockhopf`` command would.  One verdict is one run of the
workload's command; the run repeats verdicts until ``--seconds`` have passed
(at least one, and none that would carry the run past 1.5 times
``--seconds``) and reports medians.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced and one traced verdict (see ``traced_cli.py``) and prints the
per-layer metrics.  Every invocation is gated (see ``gate.py``); the
known-answer probe runs once per source tree.  The last line of stdout is
the result; the line before it records the machine, seed and details.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import gate
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench-state"

RUN_BUDGET_S = 170.0  # a run must end within 180 s
SETUP_SAMPLES = 8
CLI = ["-c", "from fockhopf.cli import entry; entry()"]
SETUP = (
    "import time, fockhopf.cli; t = time.monotonic(); "
    "import json, sys, numpy, scipy; "
    "print(json.dumps({'imported': t, 'python': sys.version.split()[0], "
    "'numpy': numpy.__version__, 'scipy': scipy.__version__}))"
)
# name -> (the verify arguments before the common ones, the number of checks)
WORKLOADS = {
    "full_grid": (("verify", "--full"), 341),
    "deep_fock": (("verify", "--n", "2", "--depth", "7", "--suites", "regrep,predual"), 17),
}

INCLUSIVE = (
    "regular.realize", "regular.word_shift", "regular.membership_defect",
    "hopf.comult", "hopf.coassociativity_defect",
    "predual.from_rank_one", "predual.predual_comult",
    "corep.corep_check", "corep.corep_from_rep", "corep.fundamental_corep",
    "wandering.wandering_check", "spaces.tensor_op",
)
COUNTS = ("words.Word.built", "spaces.Operator.built")
# What a traced run that wrote no trace reports; the run is incorrect then.
NO_TRACE = {"layers": {}, "names": {}, "counts": {}, "check_ms": [],
            "regular_cache": {"hits": 0, "misses": 0}}


def workload_args(name: str, seed: int) -> tuple[str, ...]:
    head, _ = WORKLOADS[name]
    return (*head, "--seed", str(seed), "--no-timestamp", "--format", "json")


@dataclass
class Child:
    out: bytes
    code: int | None  # None when killed at its deadline
    started: float
    ended: float
    rss_mb: float


def hermetic_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "FOCKHOPF_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str], deadline: float) -> Child:
    """Run ``argv`` to completion; kill it at ``deadline`` (monotonic)."""
    STATE.mkdir(exist_ok=True)
    out_path = STATE / "stdout"
    with open(out_path, "wb") as out:
        started = time.monotonic()
        proc = subprocess.Popen(argv, env=hermetic_env(), cwd=ROOT,
                                stdin=subprocess.DEVNULL, stdout=out)
        timer = threading.Timer(max(0.0, deadline - started), proc.kill)
        timer.start()
        try:
            # wait4 rather than Popen.wait: it returns this child's own peak RSS.
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        ended = time.monotonic()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code < 0:
        code = None
    return Child(out_path.read_bytes(), code, started, ended, usage.ru_maxrss / 1024.0)


class Digests:
    """Digests of the outputs of one source tree, so reruns on it must match them.

    Keys start with the tree's ``source_digest()``, so a changed tree starts
    afresh, and only outputs that passed the gate are recorded, so a crashed
    or killed run never becomes the reference.
    """

    def __init__(self, tree: str) -> None:
        self.path = STATE / "digests.json"
        self.tree = tree
        self.seen = json.loads(self.path.read_text()) if self.path.exists() else {}

    def check(self, outputs: dict[str, bytes], record: bool) -> list[str]:
        """Compare ``outputs`` with earlier ones; record new ones if ``record``
        and nothing differs."""
        fresh, problems = {}, []
        for key, data in outputs.items():
            digest = hashlib.sha256(data).hexdigest()
            known = self.seen.get(f"{self.tree} {key}")
            if known is None:
                fresh[f"{self.tree} {key}"] = digest
            elif known != digest:
                problems.append(f"output differs from an earlier run: {key}")
        if record and not problems:
            self.seen.update(fresh)
        return problems

    def save(self) -> None:
        STATE.mkdir(exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.seen, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def run_probe(tree: str, deadline: float) -> list[str]:
    """The known-answer probe, once per source tree."""
    marker = STATE / f"probe-{tree}.ok"
    if marker.exists():
        return []

    def run_cli(args):
        child = run_child([sys.executable, *CLI, *args], deadline)
        return child.out, child.code

    problems = gate.probe(run_cli)
    if not problems:
        marker.touch()
    return problems


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or "unknown"


def import_fockhopf(deadline: float) -> tuple[float, dict]:
    """Seconds from spawning an interpreter to ``import fockhopf.cli`` returning,
    and the Python, numpy and scipy versions that interpreter reports."""
    child = run_child([sys.executable, "-c", SETUP], deadline)
    if child.code != 0:
        raise RuntimeError(f"importing fockhopf.cli failed (exit {child.code})")
    info = json.loads(child.out)
    return info["imported"] - child.started, {k: info[k] for k in ("python", "numpy", "scipy")}


def measure_setup(samples: int, deadline: float) -> list[float]:
    return [import_fockhopf(deadline)[0] for _ in range(samples)]


@dataclass
class Verdict:
    seconds: float
    rss_mb: float
    attempted: int
    failed: int
    problems: list
    trace: dict | None


def run_verdict(name: str, seed: int, deadline: float, digests: Digests,
                traced: bool) -> Verdict:
    """Run the workload's invocation once, in a fresh process, and gate it."""
    args = workload_args(name, seed)
    trace_path = STATE / "trace.json"
    if traced:
        trace_path.unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / "traced_cli.py"), str(trace_path), *args]
    else:
        argv = [sys.executable, *CLI, *args]
    child = run_child(argv, deadline)
    trace = json.loads(trace_path.read_text()) if traced and trace_path.exists() else None
    seconds = child.ended - child.started - (trace["summarize_s"] if trace else 0.0)
    attempted, failed, problems, keys = gate.gate_verify(child.out, child.code, WORKLOADS[name][1])
    if child.code is None:
        problems.append(f"killed at the run deadline: {' '.join(args)}")
    elif traced and trace is None:
        problems.append(f"traced run wrote no trace: {' '.join(args)}")
    outputs = {" ".join(args): child.out}
    if keys is not None:
        # The check list does not depend on the seed, so every run shares it.
        outputs[f"check list of {name}"] = json.dumps(keys).encode()
    # A killed or crashed run has problems by now, so it is never recorded.
    problems += digests.check(outputs, record=not problems)
    return Verdict(seconds, child.rss_mb, attempted, failed, problems, trace)


def end_to_end_metrics(verdicts: list[Verdict], setup: list[float]) -> dict:
    attempted = sum(v.attempted for v in verdicts)
    failed = sum(v.failed for v in verdicts)
    return {
        "verdict_s": (statistics.median(v.seconds for v in verdicts), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (max(v.rss_mb for v in verdicts), "MB"),
        # Passed rather than failed share: it is never 0, so its spread is defined.
        "check_pass_frac": ((attempted - failed) / attempted, "ratio"),
    }


def per_layer_metrics(trace: dict, traced_s: float, untraced_s: float) -> dict:
    m = {}
    for layer in LAYERS:
        entry = trace["layers"].get(layer, {"calls": 0, "self_s": 0.0})
        m[f"{layer}.self_s"] = (entry["self_s"], "s")
        m[f"{layer}.calls"] = (entry["calls"], "count")
    for name in INCLUSIVE:
        m[f"{name}.s"] = (trace["names"].get(name, {}).get("inclusive_s", 0.0), "s")
    for key in COUNTS:
        m[key] = (trace["counts"].get(key, 0), "count")
    m["spaces.FockSpace.index_of.calls"] = (trace["counts"].get("spaces.FockSpace.index_of", 0), "count")
    checks = trace["check_ms"]
    m["verify.checks"] = (len(checks), "count")
    m["verify.check_p50_ms"] = (statistics.median(checks) if checks else 0.0, "ms")
    m["verify.check_max_ms"] = (max(checks, default=0.0), "ms")
    hits, misses = trace["regular_cache"]["hits"], trace["regular_cache"]["misses"]
    m["regular.cache_lookups"] = (hits + misses, "count")
    m["regular.cache_hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    m["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
    return m


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="keep starting verdicts until this long has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "fockhopf" / "cli.py").is_file():
        print(f"perfbench: no fockhopf sources under {SRC}", file=sys.stderr)
        return 2
    tree = source_digest()
    digests = Digests(tree)
    problems = run_probe(tree, time.monotonic() + RUN_BUDGET_S)
    deadline = time.monotonic() + RUN_BUDGET_S
    _, versions = import_fockhopf(deadline)  # untimed warm-up
    # Half the set-up samples before the verdicts and half after, so their
    # median spans the run rather than one moment of a noisy machine.
    setup_samples = SETUP_SAMPLES if args.trace == 0 else 0
    setup = measure_setup(setup_samples // 2, deadline)

    verdicts = []
    started = time.monotonic()
    while True:
        verdicts.append(run_verdict(args.workload, args.seed, deadline, digests, traced=False))
        now = time.monotonic()
        # A verdict that would carry the run past 1.5 times --seconds is not
        # started, so a verdict just shorter than --seconds does not double the run.
        if (args.trace or now - started >= args.seconds
                or now - started + verdicts[-1].seconds > 1.5 * args.seconds
                or now + verdicts[-1].seconds * 1.2 > deadline):
            break
    if args.trace:
        verdicts.append(run_verdict(args.workload, args.seed, deadline, digests, traced=True))
    digests.save()
    setup += measure_setup(setup_samples - len(setup), deadline)

    for v in verdicts:
        problems += v.problems
    attempted = sum(v.attempted for v in verdicts)
    failed = sum(v.failed for v in verdicts)
    if args.trace:
        metrics = per_layer_metrics(verdicts[-1].trace or NO_TRACE, verdicts[-1].seconds, verdicts[0].seconds)
    else:
        metrics = end_to_end_metrics(verdicts, setup)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": {"nproc": os.cpu_count(), "cpu": cpu_model(), **versions},
        "verdict_s": [v.seconds for v in verdicts],
        "setup_s": setup,
        "check_fail_frac": {"value": failed / attempted, "unit": "ratio"},
        "problems": problems,
    }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
