"""Command line front end: verify / spectrum / wandering.

Exit codes: 0 on success, 1 when a verification check fails, 2 on usage
errors.  JSON output is byte-reproducible for a fixed seed and config when
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
from .words import Alphabet


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fockhopf",
        description="Exact verification suites for truncated Fock-space shift algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run verification suites and emit a report")
    verify.add_argument("--n", type=int, default=2, help="number of generators (default 2)")
    verify.add_argument("--depth", type=int, default=3, help="truncation depth (default 3)")
    verify.add_argument("--suites", type=str, default=",".join(ALL_SUITES),
                        help="comma-separated subset of: " + ",".join(ALL_SUITES))
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
        )
    summary = report["summary"]
    lines.append(f"summary: {summary['passed']} passed, {summary['failed']} failed")
    return "\n".join(lines)


def _cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    suites = tuple(s.strip() for s in args.suites.split(",") if s.strip())
    try:
        if args.full:
            configs = default_grid(args.seed, args.tolerance, args.trials)
        else:
            configs = [
                SuiteConfig(
                    n=args.n,
                    depth=args.depth,
                    tolerance=args.tolerance,
                    trials=args.trials,
                    seed=args.seed,
                    suites=suites,
                )
            ]
        report = build_report(
            configs,
            inject_fault=args.inject_fault,
            with_timestamp=not args.no_timestamp,
        )
    except ValueError as exc:
        parser.error(str(exc))  # exits with code 2
    if args.format == "json":
        _emit(json.dumps(report, indent=2), args.output)
    else:
        _emit(_report_text(report), args.output)
    return 0 if report["summary"]["failed"] == 0 else 1


def _cmd_spectrum(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    try:
        if args.depth < 1:
            raise ValueError("depth must be >= 1")
        space = FockSpace(Alphabet(args.n), args.depth)
        chars = spectrum(space)
    except ValueError as exc:
        parser.error(str(exc))  # exits with code 2
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
        report = wandering_check(Alphabet(args.n), args.k, args.depth)
    except ValueError as exc:
        parser.error(str(exc))  # exits with code 2
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
    if args.command == "wandering":
        return _cmd_wandering(args, parser)
    parser.error(f"unknown command {args.command!r}")
    return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
