"""Spans around kmfg's public functions, for the traced run.

``Tracer.install()`` wraps the public functions of each layer module and
the methods of ``WeylGroup`` / ``WeylElement``, and rebinds every name in
every ``kmfg`` module (and the package itself) that refers to a wrapped
function, so calls through names bound at import, such as
``fpgroup.build_adm``, are seen too.  A span records its name, start, end,
the span that called it and the benchmark operation it belongs to.  Spans
are kept in memory; ``metrics()`` turns them into per-layer numbers and
``dump()`` writes them out.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "cartan", "adm", "pi1", "fpgroup", "coxeter")

# public functions outside the modules' __all__ lists
EXTRA = {"cli": ("run",), "pi1": ("check_hypotheses",), "fpgroup": ("component_verifications",)}


def _method_targets(cls):
    return [
        name
        for name, value in vars(cls).items()
        if inspect.isfunction(value) and (not name.startswith("_") or name == "__mul__")
    ]


class Tracer:
    def __init__(self):
        self.spans = []  # [id, parent, op, name, start, end]
        self.counters = defaultdict(float)
        self._stack = []
        self._op = None
        self._undo = []

    # -- recording ---------------------------------------------------------

    def begin_op(self, index):
        self._op = index

    def _wrap(self, name, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [len(tracer.spans), tracer._stack[-1] if tracer._stack else None,
                    tracer._op, name, 0.0, 0.0]
            if observe is not None:
                span[3] = observe.span_name(name, args, kwargs)
            tracer.spans.append(span)
            tracer._stack.append(span[0])
            span[4] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                tracer._stack.pop()
            if observe is not None:
                observe.record(tracer.counters, args, kwargs, result, span[5] - span[4])
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        import kmfg
        from kmfg import coxeter

        replaced = {}
        for layer in LAYERS:
            module = sys.modules[f"kmfg.{layer}"]
            for attr in tuple(getattr(module, "__all__", ())) + EXTRA.get(layer, ()):
                fn = getattr(module, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    replaced[id(fn)] = self._wrap(f"{layer}.{attr}", fn, OBSERVERS.get(attr))
        for cls in (coxeter.WeylGroup, coxeter.WeylElement):
            for attr in _method_targets(cls):
                fn = vars(cls)[attr]
                label = "mul" if attr == "__mul__" else attr
                wrapped = self._wrap(f"coxeter.{label}", fn, OBSERVERS.get(label))
                self._undo.append((cls, attr, fn))
                setattr(cls, attr, wrapped)
        modules = [kmfg] + [m for name, m in sys.modules.items() if name.startswith("kmfg.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in replaced and inspect.isfunction(value):
                    self._undo.append((module, attr, value))
                    setattr(module, attr, replaced[id(value)])

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def metrics(self):
        """Calls and self time per span name, self time per layer, and the
        counters.  Self time is a span's duration minus its children's."""
        child_time = defaultdict(float)
        names = {}
        for sid, parent, _, name, start, end in self.spans:
            names[sid] = name
            if parent is not None:
                child_time[parent] += end - start
        out = defaultdict(float)
        candidates = 0
        for sid, parent, _, name, start, end in self.spans:
            own = end - start - child_time[sid]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += own
            out[f"{name.split('.')[0]}.self_s"] += own
            if name == "coxeter.bruhat_leq" and parent is not None \
                    and names[parent] == "coxeter.closure_cells":
                candidates += 1
        out.update(self.counters)
        cells = self.counters.get("coxeter.closure.cells", 0)
        out["coxeter.closure.useful_ratio"] = cells / candidates if candidates else 0.0
        return dict(out)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

    def clear(self):
        self.spans.clear()
        self.counters.clear()


class _Observer:
    def span_name(self, name, args, kwargs):
        return name

    def record(self, counters, args, kwargs, result, seconds):
        pass


class _ToddCoxeter(_Observer):
    """One span name per strategy; counts the presentations' size, the
    finite indices found and the runs that reached the coset cap."""

    @staticmethod
    def _strategy(args, kwargs):
        return kwargs.get("strategy", args[3] if len(args) > 3 else "hlt")

    def span_name(self, name, args, kwargs):
        return f"{name}.{self._strategy(args, kwargs)}"

    def record(self, counters, args, kwargs, result, seconds):
        presentation = args[0]
        counters["fpgroup.relators"] += len(presentation.relators)
        counters["fpgroup.relator_letters"] += sum(len(w) for w in presentation.relators)
        if result.is_finite:
            counters["fpgroup.todd_coxeter.index_sum"] += result.order
        else:
            counters["fpgroup.todd_coxeter.exhausted"] += 1
            counters["fpgroup.todd_coxeter.exhausted_s"] += seconds


class _Count(_Observer):
    def __init__(self, counter):
        self.counter = counter

    def record(self, counters, args, kwargs, result, seconds):
        counters[self.counter] += len(result)


OBSERVERS = {
    "todd_coxeter": _ToddCoxeter(),
    "elements_up_to": _Count("coxeter.elements"),
    "closure_cells": _Count("coxeter.closure.cells"),
}
