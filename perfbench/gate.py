"""Correctness gate for every timed invocation, and the known-answer probe.

A gate returns ``(attempted, failed, problems)``, and ``gate_verify`` also
the report's (suite, name, params) list.  ``attempted`` and
``failed`` count checks (verify) or invocations (wandering); a crash, a
timeout or an unparsable report fails everything the invocation attempts.
``problems`` lists the ways the output is wrong; any problem makes the run
incorrect, while a failed check alone does not (the program may really fail
a check, and that is what ``check_pass_frac`` measures).
"""

from __future__ import annotations

import json


def words_upto(n: int, depth: int) -> int:
    """T(depth): the number of words of length <= depth over n letters."""
    return sum(n**i for i in range(depth + 1))


def wandering_dim(n: int, k: int, depth: int) -> int:
    """T^k - n*S^k, counted here rather than taken from the program."""
    return words_upto(n, depth) ** k - n * words_upto(n, depth - 1) ** k


def check_keys(report: dict) -> list[tuple]:
    return [
        (c["suite"], c["name"], json.dumps(c["params"], sort_keys=True))
        for c in report["checks"]
    ]


def gate_verify(out: bytes, code: int | None, expected_checks: int):
    """Gate one ``verify --format json`` invocation; ``code`` is None on timeout."""
    try:
        report = json.loads(out)
        checks = report["checks"]
        summary = report["summary"]
        keys = check_keys(report)
        failed = sum(1 for c in checks if c["pass"] is not True)
    except (ValueError, KeyError, TypeError):
        return expected_checks, expected_checks, [f"unparsable report (exit {code})"], None
    problems = []
    if len(keys) != expected_checks:
        problems.append(f"{len(keys)} checks, expected {expected_checks}")
    if summary.get("failed") != failed or summary.get("passed") != len(checks) - failed:
        problems.append(f"summary {summary} disagrees with {failed} failing checks")
    if code != (1 if summary.get("failed") else 0):
        problems.append(f"exit {code} with summary.failed={summary.get('failed')}")
    missing = max(0, expected_checks - len(keys))
    return len(keys) + missing, failed + missing, problems, keys


def gate_wandering(out: bytes, code: int | None, n: int, k: int, depth: int):
    """Gate one ``wandering --format json`` invocation: one attempt."""
    try:
        report = json.loads(out)
        dim, dims, passed = report["dim"], report["dims_by_depth"], report["passed"]
    except (ValueError, KeyError, TypeError):
        return 1, 1, [f"unparsable report (exit {code})"]
    problems = []
    expected = [wandering_dim(n, k, d) for d in range(1, depth + 1)]
    if dim != wandering_dim(n, k, depth) or dims != expected:
        problems.append(f"(n,k,depth)=({n},{k},{depth}): dim {dim} dims {dims}, expected {expected}")
    if code != (0 if passed else 1):
        problems.append(f"exit {code} with passed={passed}")
    return 1, int(passed is not True), problems


def probe(run_cli) -> list[str]:
    """Known answers, including one the verifier must fail.

    ``run_cli(args)`` runs the CLI and returns ``(stdout bytes, exit code)``.
    Returns the problems found; empty means every answer was right.
    """
    problems = []
    out, code = run_cli(["verify", "--n", "2", "--depth", "3", "--inject-fault",
                         "--no-timestamp", "--format", "json"])
    try:
        failing = [(c["suite"], c["name"]) for c in json.loads(out)["checks"] if not c["pass"]]
    except (ValueError, KeyError, TypeError):
        failing = None
    if code != 1 or failing != [("selftest", "injected_fault")]:
        problems.append(f"inject-fault: exit {code}, failing checks {failing}")
    out, code = run_cli(["spectrum", "--n", "2", "--depth", "2"])
    if code != 0 or out.decode(errors="replace").strip() != "e 1 2 11 12 21 22":
        problems.append(f"spectrum: exit {code}, output {out[:200]!r}")
    out, code = run_cli(["wandering", "--n", "2", "--k", "2", "--depth", "3", "--format", "json"])
    # gate_wandering compares dimK with wandering_dim(2, 2, 3), which is 127.
    _, failed, wrong = gate_wandering(out, code, 2, 2, 3)
    if failed or wrong:
        problems.append(f"wandering n=2 k=2 depth=3: {wrong or 'checks failed'}")
    return problems
