"""In-memory span tracer wrapped around the public functions of ``ctxrec``.

The package imports its functions by name (``from .pipeline import
fit_pipeline``), so one function is often bound under several module
attributes: ``ctxrec.cli.fit_pipeline``, ``ctxrec.pipeline.fit_pipeline`` and
``ctxrec.fit_pipeline`` are separate bindings of one object.  ``install``
replaces every binding of a public function with one shared wrapper and
``uninstall`` puts the originals back, so nothing under ``src/`` changes and
untraced runs execute the package unmodified.

A span is named ``<module>.<function>`` (the module is the layer) and records
its start, end, parent span and request id.  Spans stay in memory and are
written out once, at the end of a run.  Functions in ``LEAVES`` run once per
SOM step, vector or float, which would mean hundreds of thousands of spans an
iteration; their calls are counted and timed but keep no span record.  Their
time is still charged to the caller, so self times stay exact.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from collections import defaultdict
from contextlib import contextmanager

PACKAGE = "ctxrec"
LEAVES = frozenset(
    {
        "core.vector_from_ratings",
        "evaluation.f1",
        "evaluation.precision_recall",
        "jsonio.format_float",
        "pipeline.aggregate",
        "rng.derive_seed",
        "som.cosine_similarity",
        "som.find_bmu",
        "som.update_neighborhood",
    }
)


class Tracer:
    """Spans plus per-window aggregates: inclusive time, self time, counts.

    ``hooks`` maps a span name to ``hook(tracer, args, kwargs, result,
    seconds)``, called after each successful call; hooks add the counts that
    only the arguments or the result can tell (SOM sizes, report fields).
    """

    def __init__(self, hooks=None):
        self.hooks = dict(hooks or {})
        self.spans: list[tuple] = []  # (id, parent id, name, start, end, request)
        self.request = None
        self._stack: list[list] = []  # open spans: [id, name, start, child seconds]
        self._next_id = 0
        self._patches: list[tuple] = []
        self._t0 = time.perf_counter()
        self.reset()

    def reset(self) -> None:
        """Start a new aggregation window; recorded spans are kept."""
        self.inclusive: dict[str, float] = defaultdict(float)
        self.by_caller: dict[tuple[str, str | None], float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)  # per layer
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.gauges: dict[str, float] = {}

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [self._next_id, name, 0.0, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def _exit(self, frame: list, keep_span: bool) -> float:
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, start, child = frame
        seconds = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += seconds
        self.inclusive[name] += seconds
        self.self_time[name.split(".", 1)[0]] += seconds - child
        self.calls[name] += 1
        if keep_span:
            self.by_caller[(name, parent[1] if parent else None)] += seconds
            self.spans.append(
                (span_id, parent[0] if parent else None, name, start, end, self.request)
            )
        return seconds

    @contextmanager
    def span(self, name: str):
        """A span opened by the harness itself (layer ``bench``)."""
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame, keep_span=True)

    def _wrap(self, fn, name: str):
        keep_span = name not in LEAVES
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = self._exit(frame, keep_span)
            if hook is not None:
                hook(self, args, kwargs, result, seconds)
            return result

        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the package under every binding."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        prefix = PACKAGE + "."
        for mod_name, module in sorted(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(prefix)):
                continue
            for attr, value in sorted(vars(module).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                home = getattr(value, "__module__", "") or ""
                if not home.startswith(prefix) or value.__name__.startswith("_"):
                    continue
                wrapper = wrappers.get(value)
                if wrapper is None:
                    name = f"{home[len(prefix):]}.{value.__name__}"
                    wrapper = wrappers[value] = self._wrap(value, name)
                setattr(module, attr, wrapper)
                self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- output -----------------------------------------------------------

    def write(self, path) -> None:
        """One JSON object per span; times in seconds since the tracer began."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end, request in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "start": round(start - self._t0, 9),
                            "end": round(end - self._t0, 9),
                            "request": request,
                        }
                    )
                    + "\n"
                )
