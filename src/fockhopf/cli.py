"""Command line front end: verify / spectrum / wandering.

Exit codes: 0 on success, 1 when a verification check fails or raises, 2 on
usage errors.  JSON output is byte-reproducible for a fixed seed and config when
``--no-timestamp`` is passed (that flag also drops per-check wall times,
which are the only other run-dependent fields).
"""

from __future__ import annotations

import argparse
import json
import sys

from .corep import spectrum
from .spaces import FockSpace
from .verify import ALL_SUITES, SuiteConfig, build_report, default_grid
from .wandering import wandering_check
from .words import Alphabet, count_words

# The spectrum lists one character per word, and verify builds word and index
# tables over all of them, so inputs with more words are refused; this admits
# n=2 up to depth 17.
WORD_BUDGET = 1 << 18
# The wandering check holds a few arrays of one entry per basis k-tuple (about
# 21 bytes a tuple: 353 MB peak at n=2, k=3, depth=7, 16.6M tuples), so inputs
# with more tuples are refused.
WANDERING_TUPLE_BUDGET = 1 << 24


def _over_budget(alphabet: Alphabet, depth: int, k: int, budget: int) -> bool:
    """Whether count_words(alphabet, depth) ** k exceeds the budget, for depth, k >= 1.

    No integer much larger than the budget is built, so a huge --depth or --k
    is refused at once: with n >= 2 there are at least 2^(depth+1) - 1 words.
    """
    if alphabet.n > 1 and depth >= budget.bit_length():
        return True
    words, total = count_words(alphabet, depth), 1
    for _ in range(k):
        total *= words
        if total > budget:
            return True
    return False


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fockhopf",
        description="Exact verification suites for truncated Fock-space shift algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run verification suites and emit a report")
    verify.add_argument("--n", type=int, help="number of generators (default 2)")
    verify.add_argument("--depth", type=int, help="truncation depth (default 3)")
    verify.add_argument("--suites", type=str,
                        help=f"comma-separated subset of: {','.join(ALL_SUITES)} (default all)")
    verify.add_argument("--tolerance", type=float, default=1e-9,
                        help="absolute per-entry tolerance for oracle checks (default 1e-9)")
    verify.add_argument("--trials", type=int, default=100,
                        help="random trials per property check (default 100)")
    verify.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    verify.add_argument("--full", action="store_true",
                        help="run the default grid: n in {1,2,3} x depth in {2,3,4}, "
                             "plus n=2 depth=5 on the non-tensor suites")
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.add_argument("--output", type=str, default=None, help="write the report to a file")
    verify.add_argument("--no-timestamp", action="store_true",
                        help="omit the timestamp and per-check wall times (reproducible bytes)")
    verify.add_argument("--inject-fault", action="store_true",
                        help="self-test: add a deliberately failing check")

    spect = sub.add_parser("spectrum", help="list the characters of the convolution algebra")
    spect.add_argument("--n", type=int, required=True)
    spect.add_argument("--depth", type=int, required=True)
    spect.add_argument("--format", choices=("text", "json"), default="text")

    wander = sub.add_parser("wandering", help="wandering-subspace dimension table")
    wander.add_argument("--n", type=int, required=True)
    wander.add_argument("--k", type=int, required=True, help="tensor power fold count")
    wander.add_argument("--depth", type=int, required=True)
    wander.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def _emit(text: str, output: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _report_text(report: dict) -> str:
    lines = []
    for chk in report["checks"]:
        flag = "PASS" if chk["pass"] else "FAIL"
        params = " ".join(f"{k}={v}" for k, v in chk["params"].items())
        lines.append(
            f"[{flag}] {chk['suite']}.{chk['name']} {params} "
            f"defect={chk['defect']:.3e} threshold={chk['threshold']:.3e}"
            + (f" error={chk['error']}" if "error" in chk else "")
        )
    summary = report["summary"]
    lines.append(f"summary: {summary['passed']} passed, {summary['failed']} failed")
    return "\n".join(lines)


def _cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    given = [f"--{name}" for name in ("n", "depth", "suites") if getattr(args, name) is not None]
    if args.full and given:
        parser.error(f"--full runs its own grid and would ignore {', '.join(given)}")
    try:
        if args.full:
            configs = default_grid(args.seed, args.tolerance, args.trials)
        else:
            names = ",".join(ALL_SUITES) if args.suites is None else args.suites
            configs = [
                SuiteConfig(
                    n=2 if args.n is None else args.n,
                    depth=3 if args.depth is None else args.depth,
                    tolerance=args.tolerance,
                    trials=args.trials,
                    seed=args.seed,
                    suites=tuple(s.strip() for s in names.split(",") if s.strip()),
                )
            ]
        for cfg in configs:
            if _over_budget(cfg.alphabet, cfg.depth, 1, WORD_BUDGET):
                raise ValueError(f"more than {WORD_BUDGET} words; lower --n or --depth")
        if args.output is not None:  # refuse an unwritable file before any check runs
            open(args.output, "a", encoding="utf-8").close()
    except (OSError, ValueError) as exc:
        parser.error(str(exc))  # exits with code 2
    # A check that raises is an internal error (exit 1), not a usage error.
    report = build_report(configs, inject_fault=args.inject_fault, with_timestamp=not args.no_timestamp)
    if args.format == "json":
        _emit(json.dumps(report, indent=2), args.output)
    else:
        _emit(_report_text(report), args.output)
    return 0 if report["summary"]["failed"] == 0 else 1


def _cmd_spectrum(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    try:
        if args.depth < 1:
            raise ValueError("depth must be >= 1")
        alphabet = Alphabet(args.n)
        if _over_budget(alphabet, args.depth, 1, WORD_BUDGET):
            raise ValueError(f"more than {WORD_BUDGET} words; lower --n or --depth")
    except ValueError as exc:
        parser.error(str(exc))  # exits with code 2
    chars = spectrum(FockSpace(alphabet, args.depth))
    names = [w.text(args.n) for w in chars]
    if args.format == "json":
        _emit(json.dumps({"n": args.n, "depth": args.depth, "characters": names}, indent=2), None)
    else:
        _emit(" ".join(names), None)
    return 0


def _cmd_wandering(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    try:
        if args.k < 1:
            raise ValueError("k must be >= 1")
        if args.depth < 1:
            raise ValueError("depth must be >= 1")
        alphabet = Alphabet(args.n)
        if _over_budget(alphabet, args.depth, args.k, WANDERING_TUPLE_BUDGET):
            raise ValueError(
                f"more than {WANDERING_TUPLE_BUDGET} k-tuples; lower --n, --k or --depth"
            )
    except ValueError as exc:
        parser.error(str(exc))  # exits with code 2
    report = wandering_check(alphabet, args.k, args.depth)
    if args.format == "json":
        _emit(json.dumps(report.to_json_dict(), indent=2), None)
    else:
        lines = [
            f"depth={d} dim={dim}" for d, dim in enumerate(report.dims_by_depth, start=1)
        ]
        lines.append(f"dimK = {report.dim} (closed form {report.dim_closed_form})")
        lines.append("checks: " + ("ok" if report.passed else "FAILED"))
        _emit("\n".join(lines), None)
    return 0 if report.passed else 1


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        return _cmd_verify(args, parser)
    if args.command == "spectrum":
        return _cmd_spectrum(args, parser)
    return _cmd_wandering(args, parser)


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
