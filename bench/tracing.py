"""Spans at racsim's module boundaries, recorded from the benchmark's side.

``Tracer.install`` wraps every public function and method of each racsim
module and rebinds every name that refers to one, in all racsim modules and
the package namespace, so calls made inside the program (``montecarlo``'s
``encode_restricted`` and ``decoding_basis``, ``cli``'s ``quantum.exact_success``)
are seen too.  A span is (name, start, end, parent); spans stay in memory
until the run writes them out.  ``uninstall`` puts every original back.
"""

from __future__ import annotations

import csv
import functools
import gzip
import importlib
import inspect
import time
from collections import defaultdict

LAYERS = ("qudit", "quantum", "report", "classical", "advantage", "montecarlo", "cli")


class Tracer:
    def __init__(self, rs) -> None:
        self.rs = rs
        self.modules = [importlib.import_module(f"{rs.__name__}.{layer}") for layer in LAYERS]
        self.spans: list[tuple[str, int, int, int]] = []
        # Calls whose arguments the run needs afterwards, with their seconds;
        # the value says whether to keep the result too.
        self.calls: list[tuple[str, tuple, object, float]] = []
        self.hooked = {"classical.optimal_classical_bruteforce": True, "quantum.exact_success": False,
                       "montecarlo.simulate": False, "montecarlo.answer_counts": False}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, calls = self.spans, self._stack, self.calls
        hooked, keep_result = name in self.hooked, self.hooked.get(name, False)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append((name, 0, 0, stack[-1] if stack else -1))
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, spans[index][3])
            if hooked:
                args += tuple(kwargs.values())
                calls.append((name, args, result if keep_result else None, (end - start) / 1e9))
            return result

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for module in self.modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{name}", obj)
                elif inspect.isclass(obj):
                    for attr, member in list(vars(obj).items()):
                        if attr.startswith("_"):
                            continue
                        label = f"{layer}.{name}.{attr}"
                        if isinstance(member, classmethod):
                            self._set(obj, attr, classmethod(self._wrap(label, member.__func__)))
                        elif inspect.isfunction(member):
                            self._set(obj, attr, self._wrap(label, member))
        for namespace in (*self.modules, self.rs):
            for name, obj in list(vars(namespace).items()):
                if id(obj) in wrappers:
                    self._set(namespace, name, wrappers[id(obj)])

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def write(self, path) -> None:
        with gzip.open(path, "wt", newline="") as handle:
            out = csv.writer(handle)
            out.writerow(("id", "parent", "name", "start_ns", "end_ns"))
            for index, (name, start, end, parent) in enumerate(self.spans):
                out.writerow((index, parent, name, start, end))


def span_totals(spans) -> dict[str, float]:
    """Per-layer self seconds, per-function seconds and per-function call counts.

    A span's self time is its duration minus that of its direct children;
    a layer's self time sums the self time of its spans.  A function's time
    sums its spans that are not directly nested in a span of the same name.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals: defaultdict[str, float] = defaultdict(float)
    for index, (name, start, end, parent) in enumerate(spans):
        layer = name.split(".", 1)[0]
        totals[f"{layer}.self_s"] += (end - start - child_ns[index]) / 1e9
        totals[f"{layer}.calls"] += 1
        totals[f"{name}.calls"] += 1
        if parent < 0 or spans[parent][0] != name:
            totals[f"{name}.s"] += (end - start) / 1e9
    return totals
