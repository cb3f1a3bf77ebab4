"""Per-layer timing of silkit from outside the package.

A ``Tracer`` replaces chosen public silkit functions with timing wrappers
in every silkit module that holds a reference to them (``from .x import f``
copies the name into the importing module, so each lookup site is patched),
and restores the originals on exit. Each wrapper records its call count,
inclusive time and self time (inclusive minus the time of wrapped calls
made inside it on the same thread). Span stacks are thread-local: the
sampling study scores in pool threads, and a shared stack would charge one
thread's child spans to another thread's parent. Counters are taken only
from arguments and public return values.
"""

from __future__ import annotations

import inspect
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)

    def add(self, counter: str, value: float):
        with self._lock:
            self.counters[counter] += value

    def wrap(self, name: str, fn, after=None):
        """Time ``fn`` under ``name``; ``after(tracer, args, result, elapsed)``
        sees the bound arguments, return value and duration of each call."""
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            stack.append(0.0)  # time spent in wrapped children of this call
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with self._lock:
                    self.calls[name] += 1
                    self.total_s[name] += elapsed
                    self.self_s[name] += elapsed - children
            if after is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                after(self, bound.arguments, result, elapsed)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, layers):
        """Patch every silkit module reference to each layer's function.

        ``layers`` holds ``(name, function, after)`` triples.
        """
        wrappers = {id(fn): self.wrap(name, fn, after) for name, fn, after in layers}
        patched = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "silkit" and not mod_name.startswith("silkit."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)].__wrapped__ is value:
                    setattr(module, attr, wrappers[id(value)])
                    patched.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)
