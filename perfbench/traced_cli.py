"""Run one ``fockhopf`` CLI invocation with every layer boundary traced.

Usage: python traced_cli.py TRACE_OUT.json CLI_ARG...

The CLI's own output and exit code pass through unchanged; the trace
summary (see ``tracer.summarize``) is written to TRACE_OUT.json, with the
seconds spent summarizing, which a traced verdict leaves out.  Nothing
under ``src/`` is edited: the wrappers are installed on the imported modules.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

from tracer import LAYERS, Tracer, summarize

OPERATOR_DUNDERS = {"__matmul__", "__add__", "__sub__", "__mul__", "__rmul__", "__neg__"}


def _wrap_methods(cls, prefix: str, wrap, names) -> None:
    for name in names:
        obj = vars(cls)[name]
        if isinstance(obj, classmethod):
            setattr(cls, name, classmethod(wrap(f"{prefix}.{name}", obj.__func__)))
        elif isinstance(obj, property):
            setattr(cls, name, property(wrap(f"{prefix}.{name}", obj.fget)))
        else:
            setattr(cls, name, wrap(f"{prefix}.{name}", obj))


def _public_methods(cls, extra=()) -> list[str]:
    return [
        name for name, obj in vars(cls).items()
        if (not name.startswith("_") or name in extra)
        and (callable(obj) or isinstance(obj, (classmethod, property)))
    ]


def install(tracer: Tracer) -> list:
    """Wrap the layer boundaries; return regular's ``lru_cache`` objects."""
    package = importlib.import_module("fockhopf")
    modules = {layer: importlib.import_module(f"fockhopf.{layer}") for layer in LAYERS}
    regular_caches = [obj for obj in vars(modules["regular"]).values() if hasattr(obj, "cache_info")]

    wrapped = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if (
                not attr.startswith("_")
                and callable(obj)
                and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == mod.__name__
            ):
                wrapped[id(obj)] = (obj, tracer.spanned(f"{layer}.{attr}", obj))
    # Modules import each other's functions by name, so rebind every alias.
    for mod in (package, *modules.values()):
        for attr, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])

    spaces, words, verify = modules["spaces"], modules["words"], modules["verify"]
    _wrap_methods(spaces.Operator, "spaces.Operator", tracer.spanned,
                  _public_methods(spaces.Operator, OPERATOR_DUNDERS))
    _wrap_methods(words.Word, "words.Word", tracer.counted,
                  _public_methods(words.Word, {"__mul__"}))
    _wrap_methods(spaces.FockSpace, "spaces.FockSpace", tracer.counted, ["index_of", "word_at"])
    _wrap_methods(verify.Check, "verify.Check", tracer.spanned, ["run"])
    words.Word.__post_init__ = tracer.counted("words.Word.built", words.Word.__post_init__)
    spaces.Operator.__post_init__ = tracer.counted(
        "spaces.Operator.built", spaces.Operator.__post_init__
    )
    return regular_caches


def main(argv: list[str]) -> int:
    trace_out, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    caches = install(tracer)
    tracer.follow_threads()
    cli = importlib.import_module("fockhopf.cli")
    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        returned = time.monotonic()
        summary = summarize(tracer.spans(), tracer.counts())
        summary["check_ms"] = [
            s.duration * 1000.0 for s in tracer.spans() if s.name == "verify.Check.run"
        ]
        infos = [c.cache_info() for c in caches]
        summary["regular_cache"] = {
            "hits": sum(i.hits for i in infos),
            "misses": sum(i.misses for i in infos),
        }
        # Summarizing is benchmark work; the traced verdict leaves it out.
        summary["summarize_s"] = time.monotonic() - returned
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
