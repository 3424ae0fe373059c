"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public functions of the approxc package from the
outside; nothing under ``src/`` knows about it.  ``from .x import f``
copies a binding into the importing module, so a function is replaced in
every loaded module that binds the same object, e.g. both
``approxc.families.eval_exact`` and ``approxc.interp.eval_exact``.

Each call records a span (id, name, start, end, parent id).  Per-name
calls, total time and self time (duration minus the time covered by
child spans) are aggregated as the spans close; the raw spans are kept
in memory up to a cap and written out by the caller when the run ends.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

SPAN_CAP = 100_000

NameOf = Callable[[tuple, dict], str]
OnExit = Callable[[tuple, dict, object], None]


class Tracer:
    def __init__(self):
        self.origin = time.perf_counter()
        self.calls: Dict[str, int] = defaultdict(int)
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.active: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, float] = defaultdict(float)
        self.spans: List[Tuple[int, str, float, float, Optional[int]]] = []
        self.dropped = 0
        # open frames: [span id, accumulated child time]
        self._stack: List[list] = []
        self._next_id = 0
        self._patched: List[Tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        stack = self._stack
        sid = self._next_id
        self._next_id += 1
        parent = stack[-1][0] if stack else None
        frame = [sid, 0.0]
        stack.append(frame)
        self.active[name] += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.active[name] -= 1
            dur = end - start
            self.calls[name] += 1
            self.total[name] += dur
            self.self_time[name] += dur - frame[1]
            if stack:
                stack[-1][1] += dur
            if len(self.spans) < SPAN_CAP:
                self.spans.append((sid, name, start - self.origin,
                                   end - self.origin, parent))
            else:
                self.dropped += 1

    def wrap(self, fn: Callable, name_of: NameOf,
             on_exit: Optional[OnExit] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = tracer.span(name_of(args, kwargs), fn, *args, **kwargs)
            if on_exit is not None:
                on_exit(args, kwargs, result)
            return result

        return traced

    # -- installation ---------------------------------------------------------

    def install(self, module: str, attr: str, name_of: NameOf,
                on_exit: Optional[OnExit] = None) -> None:
        """Replace ``module.attr`` with a traced wrapper wherever the
        approxc package binds it."""
        original = getattr(sys.modules[module], attr)
        wrapper = self.wrap(original, name_of, on_exit)
        for mod_name in list(sys.modules):
            if not (mod_name == "approxc" or mod_name.startswith("approxc.")):
                continue
            mod = sys.modules[mod_name]
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    # -- results ------------------------------------------------------------

    def layer_table(self) -> Dict[str, dict]:
        return {name: {"calls": self.calls[name],
                       "total_ms": self.total[name] * 1e3,
                       "self_ms": self.self_time[name] * 1e3}
                for name in sorted(self.calls)}

    def to_doc(self) -> dict:
        return {"layers": self.layer_table(),
                "counters": dict(self.counters),
                "spans_fields": ["id", "name", "start_s", "end_s", "parent"],
                "spans": self.spans,
                "dropped_spans": self.dropped}


def fixed(name: str) -> NameOf:
    return lambda args, kwargs: name
