"""Wall-time spans of one run, summed by name.

``with span(name):``, or a function decorated ``@span(name)``, adds the
milliseconds spent inside it to ``name``'s total in the :func:`recording`
around it, less the time of the spans that open inside it, so that nested
spans do not count twice. Outside a recording a span only runs its block.
A recording holds for its own context (thread or task). The CLI records
each command's run and puts the totals into the report's metrics.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from time import perf_counter
from typing import Iterator

# the open recording: its totals, and per open span its start and the time
# of the spans inside it
_recording: ContextVar[tuple[dict[str, float], list[list[float]]] | None] = ContextVar("arbx_spans", default=None)


@contextmanager
def span(name: str) -> Iterator[None]:
    run = _recording.get()
    if run is None:
        yield
        return
    totals, stack = run
    frame = [perf_counter(), 0.0]
    stack.append(frame)
    try:
        yield
    finally:
        stack.pop()
        took = perf_counter() - frame[0]
        totals[name] = totals.get(name, 0.0) + (took - frame[1]) * 1000.0
        if stack:
            stack[-1][1] += took


@contextmanager
def recording() -> Iterator[dict[str, float]]:
    """The totals of the spans closed inside the block, by name, in ms."""
    totals: dict[str, float] = {}
    token = _recording.set((totals, []))
    try:
        yield totals
    finally:
        _recording.reset(token)
