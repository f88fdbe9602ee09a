"""Spans around calls into cpsfds, recorded from outside the library.

A `Tracer` replaces module-level functions of cpsfds by timing wrappers.
Every module attribute that refers to a wrapped function is replaced, so
calls made through `from .x import f` bindings are seen too; functions
imported inside a function body are looked up on their module at call
time and are seen as well.  Spans nest: a span's self time is its
duration minus the time of the spans opened inside it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional


@dataclass(frozen=True)
class Target:
    """One function to wrap: `module.attr`, reported as `span`.  `count`,
    if given, returns extra counters for one call from its arguments and
    its result."""

    module: str
    attr: str
    span: str
    count: Optional[Callable] = None


class SpanStats:
    __slots__ = ("calls", "total_s", "self_s", "counters")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.counters = {}


class Tracer:
    """Aggregates spans in memory, by span name and by call-tree edge."""

    def __init__(self, targets):
        self.targets = list(targets)
        self.by_name = {}
        self.by_edge = {}
        self._stack = []            # [name, child time] per open span
        self._saved = []

    def reset(self):
        self.by_name.clear()
        self.by_edge.clear()

    def _wrap(self, fn, target):
        stack = self._stack
        name = target.span
        count = target.count

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                self._record(name, parent, dur, dur - frame[1])
            if count is not None:
                stats = self.by_name[name].counters
                for key, val in count(args, kwargs, result).items():
                    stats[key] = stats.get(key, 0) + val
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _record(self, name, parent, dur, self_s):
        for table, key in ((self.by_name, name),
                           (self.by_edge, (parent, name))):
            stats = table.get(key)
            if stats is None:
                stats = table[key] = SpanStats()
            stats.calls += 1
            stats.total_s += dur
            stats.self_s += self_s

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "cpsfds" or n.startswith("cpsfds."))
                   and m is not None]
        for target in self.targets:
            fn = getattr(sys.modules[target.module], target.attr)
            wrapped = self._wrap(fn, target)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._saved.append((mod, key, fn))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        for mod, key, fn in reversed(self._saved):
            setattr(mod, key, fn)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
