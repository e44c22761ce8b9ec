"""In-memory span tracer wrapped around the program's public entry points.

Used only in a workload's traced run.  Every wrapped call becomes one
span ``{id, parent, name, start, end, counts}``; spans are kept in a
list and written out when the measured process ends.  A span's self
time is its duration minus the time its child spans cover.

Only layer boundaries are wrapped.  Per-event functions
(``Cache.access``, ``ColumnBatch.append``, unit ``execute``) are not,
because a span per event would distort what is measured.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

Span = Dict[str, Any]


class Tracer:
    """Collects nested spans of one single-threaded process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []

    def _open(self, name: str) -> Span:
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(
        self,
        name: str,
        fn: Callable,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` inside a span.  ``before(args)`` returns a state that
        ``after(state, args, result)`` turns into the span's counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                state = before(args) if before is not None else None
                result = fn(*args, **kwargs)
                if after is not None:
                    span["counts"] = after(state, args, result)
                return result
            finally:
                self._close(span)

        return wrapper


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the duration of its direct children."""
    own = {span["id"]: span["end"] - span["start"] for span in spans}
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


def covered(spans: List[Span]) -> float:
    """Wall time covered by root spans (they never overlap)."""
    return sum(s["end"] - s["start"] for s in spans if s["parent"] is None)


# -- wrapping the program ------------------------------------------------------


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Point every ``repro`` module attribute bound to ``original`` at
    ``replacement`` (drivers import entry points by name)."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _recorded_events(args) -> int:
    return args[1].events_recorded


def _l1_accesses(args) -> int:
    return args[0].hierarchy.l1.accesses


def install(tracer: Tracer) -> None:
    """Wrap the entry points of every measured layer.  Call after
    ``repro.cli`` is imported, before any experiment runs."""
    from repro.core import backend
    from repro.corpus.store import TraceCorpus
    from repro.experiments import REGISTRY
    from repro.images.synthetic import CatalogImage
    from repro.isa import binfmt
    from repro.isa.columns import ColumnBatch
    from repro.isa.trace import Trace
    from repro.simulator.hazard import HazardModel
    from repro.simulator.pipeline import CycleModel
    from repro.simulator.shade import ShadeSimulator
    from repro.workloads.khoros import run_kernel
    from repro.workloads.perfect import run_perfect
    from repro.workloads.speccfp import run_speccfp

    wrap = tracer.wrap
    for name, driver in list(REGISTRY.items()):
        REGISTRY[name] = wrap(f"experiments.{name}", driver)
    CatalogImage.generate = wrap(
        "images.generate", CatalogImage.generate,
        after=lambda state, args, result: {"calls": 1},
    )
    for runner in (run_kernel, run_perfect, run_speccfp):
        _replace_everywhere(runner, wrap(
            "workloads.record", runner,
            before=_recorded_events,
            after=lambda state, args, result: {
                "events": _recorded_events(args) - state
            },
        ))
    # Trace.columns converts only when its cached view is missing or
    # stale; a call that returns the cached batch converts nothing.
    Trace.columns = wrap(
        "isa.to_columns", Trace.columns,
        before=lambda args: args[0]._columns,
        after=lambda state, args, result: {
            "events": 0 if result is state else len(result)
        },
    )
    ColumnBatch.to_events = wrap(
        "isa.to_events", ColumnBatch.to_events,
        after=lambda state, args, result: {"events": len(result)},
    )
    _replace_everywhere(
        binfmt.write_column_trace,
        wrap("isa.encode", binfmt.write_column_trace),
    )
    # A generator does its work while iterated: drain it inside the span.
    read_blocks = binfmt.read_column_blocks
    _replace_everywhere(read_blocks, wrap(
        "isa.decode", lambda *a, **k: iter(list(read_blocks(*a, **k)))
    ))
    TraceCorpus.get = wrap("corpus.get", TraceCorpus.get)
    TraceCorpus.put = wrap("corpus.put", TraceCorpus.put)
    _replace_everywhere(backend.dispatch, wrap(
        "core.dispatch", backend.dispatch,
        after=lambda state, args, result: {"events": result.instructions},
    ))
    ShadeSimulator.run = wrap("simulator.shade", ShadeSimulator.run)
    CycleModel.run = wrap(
        "simulator.cycle", CycleModel.run,
        before=_l1_accesses,
        after=lambda state, args, result: {
            "cache_accesses": _l1_accesses(args) - state
        },
    )
    HazardModel.run = wrap(
        "simulator.hazard", HazardModel.run,
        before=_l1_accesses,
        after=lambda state, args, result: {
            "events": result.instructions,
            "cache_accesses": _l1_accesses(args) - state,
        },
    )
