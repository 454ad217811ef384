"""In-memory spans around calls into the library, with self times.

A span records its name, start, end, parent span, the phase it ran in
(``setup``, ``sample`` or ``validate``), the law sub-pipeline it served
(``levy``, ``critical`` or ``diffusive``) and the run id shared by every span
of one benchmark run.  Spans stay in memory until the run writes them out.

:class:`NullTracer` has the same interface and records nothing; untraced runs
use it, so the end-to-end numbers carry no tracing cost.
"""

from __future__ import annotations

import contextlib
import functools
import time

PHASES = ("setup", "sample", "validate")


class Tracer:
    """Nested spans of one run; a span inherits phase and law from its parent."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    @contextlib.contextmanager
    def span(self, name: str, law: str | None = None):
        parent = self._stack[-1] if self._stack else None
        rec = {
            "id": len(self.spans),
            "run_id": self.run_id,
            "name": name,
            "parent": None if parent is None else parent["id"],
            "phase": name if name in PHASES else (parent or {}).get("phase"),
            "law": law if law is not None else (parent or {}).get("law"),
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def instrument(self, module, names):
        """Wrap ``module.<name>`` for each name in a span of ``<module>.<name>``.

        This reaches calls the library makes internally, such as the ones
        ``validate_against_law`` makes to ``estimate_alpha``.  The original
        functions are restored on exit.
        """
        short = module.__name__.rsplit(".", 1)[-1]
        saved = {n: getattr(module, n) for n in names}

        def wrap(name, fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                with self.span(f"{short}.{name}"):
                    return fn(*args, **kwargs)
            return traced

        for n, fn in saved.items():
            setattr(module, n, wrap(n, fn))
        try:
            yield
        finally:
            for n, fn in saved.items():
                setattr(module, n, fn)

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time covered by its child spans."""
        child_time = {rec["id"]: 0.0 for rec in self.spans}
        for rec in self.spans:
            if rec["parent"] is not None:
                child_time[rec["parent"]] += rec["end"] - rec["start"]
        return {rec["id"]: (rec["end"] - rec["start"]) - child_time[rec["id"]]
                for rec in self.spans}


class NullTracer:
    """Tracer stand-in that records nothing."""

    spans = ()

    def span(self, name: str, law: str | None = None):
        return contextlib.nullcontext()

    def instrument(self, module, names):
        return contextlib.nullcontext()
