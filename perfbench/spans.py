"""In-memory spans and counters, and the wrappers that record them.

A span is a name, the layer it belongs to, a start and end time and the
index of the span that was open when it started. Spans nest because the
traced program is single-threaded. A span's self time is its duration
minus the part of that interval its child spans cover, so the self times
of all spans under a root add up to the root's duration exactly.

Nothing in the traced package is edited: `install` rebinds each layer
function, under every name a module of the package binds it to, to a
wrapper that opens and closes a span around the call. Package modules
import functions by name (`from .filters import apply_filter`), so
patching only the defining module would miss most calls. The methods of
each layer's classes are wrapped on the class, so that, for instance, the
eigenvalue check a geometry class runs on construction counts in
geometry and not in whichever layer constructed it.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None


class Recorder:
    """Collects spans and counters; `clock` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self._open: list[int] = []

    def open(self, name: str, layer: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, layer, self.clock(), float("nan"), parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def close(self, index: int) -> None:
        if self._open.pop() != index:
            raise RuntimeError("spans closed out of order")
        self.spans[index].end = self.clock()

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] += n

    def record_max(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span itself."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(spans[i])
    out = []
    for i, s in enumerate(spans):
        covered, cursor = 0.0, s.start
        for c in sorted(children[i], key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.end - s.start - covered)
    return out


def traced(fn, layer: str, recorder: Recorder, after=None):
    """Wrap fn in a span; `after(recorder, result, *args, **kwargs)` runs
    once the call has returned. The result is passed through untouched."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.open(fn.__qualname__, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(index)
        if after is not None:
            after(recorder, result, *args, **kwargs)
        return result

    return wrapper


def public_functions(module) -> dict:
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")}


def traced_methods(cls) -> dict:
    """The methods of a class that get a span: `__post_init__`, class and
    static methods, and public plain methods. Properties and other dunder
    methods are cheap accessors and are left alone."""
    chosen = {}
    for name, attr in vars(cls).items():
        if name.startswith("_") and name != "__post_init__":
            continue
        fn = attr.__func__ if isinstance(attr, (classmethod, staticmethod)) \
            else attr
        if inspect.isfunction(fn):
            chosen[name] = attr
    return chosen


def layer_classes(module) -> list:
    return [obj for obj in vars(module).values()
            if inspect.isclass(obj) and obj.__module__ == module.__name__]


def install(package: str, layers, recorder: Recorder, hooks: dict):
    """Trace every public function of each `package.<layer>` module, plus
    any private one named in `hooks` ("layer.name" -> after callback), and
    the `traced_methods` of every class the module defines.

    Returns a callable that puts the original functions back.
    """
    wrappers, patched = {}, []
    for layer in layers:
        module = sys.modules[f"{package}.{layer}"]
        chosen = public_functions(module)
        for key in hooks:
            hook_layer, _, name = key.partition(".")
            if hook_layer == layer and inspect.isfunction(getattr(module, name, None)):
                chosen[name] = getattr(module, name)
        for name, fn in chosen.items():
            wrappers[fn] = traced(fn, layer, recorder, hooks.get(f"{layer}.{name}"))
        for cls in layer_classes(module):
            for name, attr in traced_methods(cls).items():
                if isinstance(attr, (classmethod, staticmethod)):
                    wrapped = type(attr)(traced(attr.__func__, layer, recorder))
                else:
                    wrapped = traced(attr, layer, recorder)
                setattr(cls, name, wrapped)
                patched.append((cls, name, attr))

    for mod_name, module in list(sys.modules.items()):
        if mod_name != package and not mod_name.startswith(package + "."):
            continue
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, name, wrappers[obj])
                patched.append((module, name, obj))

    def restore():
        for module, name, obj in patched:
            setattr(module, name, obj)

    return restore
