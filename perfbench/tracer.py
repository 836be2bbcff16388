"""In-process span tracer for the traced benchmark pass.

Spans are recorded at layer boundaries: module-level public functions of
each ``fockhopf`` module, the methods of ``spaces.Operator`` and
``verify.Check.run``.  Per-element methods (``Word.*``,
``FockSpace.index_of``/``word_at``) are only counted, so their cost stays in
the self time of the caller that loops over them.

Every thread keeps its own span stack, because ``verify`` runs checks on a
thread pool.  A thread's first spans take as parent the span that was open
where the thread was started (see ``follow_threads``), so a worker's spans
are children of the span that fanned out, never of whatever another thread
happens to have open.  A span's self time is its duration minus the part of
it that its children cover, merged across threads, so parallel children
cannot drive it below zero.  Layer self times are summed over threads: with
a pool they are busy time and may add up to more than the wall time.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

LAYERS = (
    "words", "spaces", "regular", "hopf", "predual",
    "corep", "wandering", "sampling", "verify", "cli",
)


@dataclass(slots=True)
class Span:
    name: str
    thread: int
    parent: "Span | None"
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class _ThreadState:
    ident: int
    root: Span | None
    stack: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)


class Tracer:
    """Collects spans and counts; one span stack per thread."""

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            root = getattr(threading.current_thread(), "_trace_parent", None)
            state = _ThreadState(threading.get_ident(), root)
            with self._lock:
                self._threads.append(state)
            self._local.state = state
            return state

    def current(self) -> Span | None:
        state = self._state()
        return state.stack[-1] if state.stack else state.root

    def follow_threads(self):
        """Record, on each thread started from now on, the span open where it
        was started; that span parents the thread's first spans.  Returns a
        function that undoes the hook."""
        original = threading.Thread.start
        tracer = self

        def start(thread, *args, **kwargs):
            thread._trace_parent = tracer.current()
            return original(thread, *args, **kwargs)

        threading.Thread.start = start

        def undo() -> None:
            threading.Thread.start = original

        return undo

    def spans(self) -> list[Span]:
        with self._lock:
            threads = list(self._threads)
        return [s for t in threads for s in t.spans]

    def counts(self) -> Counter:
        with self._lock:
            threads = list(self._threads)
        total: Counter = Counter()
        for t in threads:
            total.update(t.counts)
        return total

    def spanned(self, name: str, fn):
        """Wrap ``fn`` so each call records one span called ``name``."""
        local, state_of, clock = self._local, self._state, self._clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = state_of()
            stack = state.stack
            span = Span(name, state.ident, stack[-1] if stack else state.root, clock())
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                state.spans.append(span)

        return wrapper

    def counted(self, key: str, fn):
        """Wrap ``fn`` so each call adds one to the count ``key``."""
        local = self._local
        state_of = self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                counts = local.state.counts
            except AttributeError:
                counts = state_of().counts
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def covered(span: Span, children: list[Span]) -> float:
    """Length of the part of ``span`` that the union of ``children`` covers."""
    total = 0.0
    reach = span.start
    for child in sorted(children, key=lambda c: c.start):
        lo, hi = max(child.start, reach), min(child.end, span.end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> list[float]:
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append(span)
    return [s.duration - covered(s, children.get(id(s), [])) for s in spans]


def summarize(spans: list[Span], counts: Counter) -> dict:
    """Fold spans and counts into per-name and per-layer totals.

    ``inclusive_s`` counts a span only when no span of the same name is among
    its ancestors, so recursion is not counted twice.  A layer's ``calls``
    are its spans plus its counted calls.
    """
    names: dict[str, dict] = {}
    for span, self_s in zip(spans, self_times(spans)):
        entry = names.setdefault(span.name, {"calls": 0, "self_s": 0.0, "inclusive_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += self_s
        outer = span.parent
        while outer is not None and outer.name != span.name:
            outer = outer.parent
        if outer is None:
            entry["inclusive_s"] += span.duration
    layers = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
    for name, entry in names.items():
        layer = layers.setdefault(layer_of(name), {"calls": 0, "self_s": 0.0})
        layer["calls"] += entry["calls"]
        layer["self_s"] += entry["self_s"]
    for key, value in counts.items():
        layers.setdefault(layer_of(key), {"calls": 0, "self_s": 0.0})["calls"] += value
    return {"names": names, "layers": layers, "counts": dict(counts)}
