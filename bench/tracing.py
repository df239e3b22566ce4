"""In-memory span recording for the benchmark's traced runs.

A span is one call of a wrapped library function: its name, start and end
(``time.perf_counter`` seconds), the index of the enclosing span (or None),
the id of the op it belongs to (None during set-up) and an optional dict of
facts taken from the call's result.  Spans stay in memory until the run
ends; ``write_jsonl`` then stores them.

Only the names a workload calls are wrapped: the harness's own references
and, through ``patch``, the names that ``rainbowcopy.cli`` binds at import
time.  The library's defining modules are never touched, so calls made
inside the library (such as ``find_copy``'s own validity check) are not
intercepted.
"""

from __future__ import annotations

import contextlib
import json
import tracemalloc
from time import perf_counter

NAME, START, END, PARENT, OP, INFO = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self.op: int | None = None
        self.recording = True
        # while set (and not recording), calls wrapped with memory=True
        # record their tracemalloc peak in peak_bytes instead of a span
        self.measure_memory = False
        self.peak_bytes: dict[str, int] = {}

    def wrap(self, name, fn, annotate=None, memory=False):
        """Return fn wrapped so that each call records a span.

        annotate(result) -> dict stores facts about the result on the span.
        """

        def traced(*args, **kwargs):
            if not self.recording:
                if memory and self.measure_memory:
                    return self._measure_peak(name, fn, args, kwargs)
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, self._open[-1] if self._open else None, self.op, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                self._open.pop()
            if annotate is not None:
                span[INFO] = annotate(result)
            return result

        return traced

    def _measure_peak(self, name, fn, args, kwargs):
        """Run the call under tracemalloc, which then sees only the memory
        the call itself allocates."""
        tracemalloc.start()
        try:
            result = fn(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.peak_bytes[name] = max(self.peak_bytes.get(name, 0), peak)
        return result

    @contextlib.contextmanager
    def patch(self, module, wrappers: dict):
        """Rebind module.<attr> to wrappers[attr] for the duration, for
        every attr the module actually binds."""
        saved = {attr: getattr(module, attr) for attr in wrappers if hasattr(module, attr)}
        try:
            for attr in saved:
                setattr(module, attr, wrappers[attr])
            yield
        finally:
            for attr, original in saved.items():
                setattr(module, attr, original)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its direct children cover."""
        own = [span[END] - span[START] for span in self.spans]
        for span in self.spans:
            if span[PARENT] is not None:
                own[span[PARENT]] -= span[END] - span[START]
        return own

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": span[NAME],
                            "start": span[START],
                            "end": span[END],
                            "parent": span[PARENT],
                            "op": span[OP],
                            "info": span[INFO],
                        }
                    )
                    + "\n"
                )
