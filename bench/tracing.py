"""In-memory spans and call counters around the public functions of cext_osc.

A :class:`Tracer` is installed only for the traced phase of a run.  It
replaces every public function of the algebra, spectrum, fockrep, susy and
cli modules, in every module namespace that binds it (``susy`` binds its own
``build_operators``, the package binds nearly everything), by a wrapper that
records one span: name, parent span, op id, start, end and outcome.  The
scalar methods that an op calls hundreds of times are counted without spans,
because a span each would cost more than the method.  No library source is
changed, and :meth:`Tracer.uninstall` restores every binding.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
from collections import Counter
from time import perf_counter_ns
from typing import Callable, NamedTuple

LAYERS = ("algebra", "spectrum", "fockrep", "susy", "cli")
COUNTED_METHODS = ("energy", "gamma_coeffs", "structure_function")
# Functions whose result is a pass/fail verdict; a failing verdict is a "fail" outcome.
VERDICTS = {
    "fockrep.verify_relations": lambda r: r.all_pass,
    "susy.verify_sqm": lambda r: r.all_pass,
    "susy.check_interlacing": bool,
    "susy.projection_shift_identity": bool,
}
# Raised as a documented result, not as a failure.
OUTCOME_EXCEPTIONS = {"NotPeriodic": "not_periodic"}


class Span(NamedTuple):
    name: str
    parent: int
    op: int
    start_ns: int
    end_ns: int
    outcome: str  # "ok", "fail" (failing verdict) or the exception class name


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self, observers: dict[str, Callable] | None = None):
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._observers = observers or {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        parent = self._stack[-1] if self._stack else -1
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        start = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self.spans[sid] = Span(name, parent, self.op, start, perf_counter_ns(),
                                   type(exc).__name__)
            raise
        finally:
            self._stack.pop()
        end = perf_counter_ns()
        verdict = VERDICTS.get(name)
        outcome = "fail" if verdict is not None and not verdict(result) else "ok"
        self.spans[sid] = Span(name, parent, self.op, start, end, outcome)
        observe = self._observers.get(name)
        if observe is not None:
            observe(self.counts, result)
        return result

    def _spanned(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def _counted(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _rebind(self, owner: object, name: str, new: object) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"cext_osc.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                public = not name.startswith("_")
                own = getattr(obj, "__module__", None) == mod.__name__
                if public and own and (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                    wrappers[id(obj)] = (obj, self._spanned(f"{layer}.{name}", obj))
        for ns in (importlib.import_module("cext_osc"), *modules.values()):
            for name, obj in list(vars(ns).items()):
                original, wrapper = wrappers.get(id(obj), (None, None))
                if original is obj:
                    self._rebind(ns, name, wrapper)
        params_cls = modules["algebra"].AlgebraParams
        for name in COUNTED_METHODS:
            self._rebind(params_cls, name,
                         self._counted(f"algebra.{name}.calls", vars(params_cls)[name]))

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def metrics(self, scales: list[float]) -> dict[str, float]:
        """``<name>.calls``, ``.self_ms``, ``.fail`` and outcome counts per span name.

        Self time is a span's duration minus the durations of its direct
        children.  Op-level spans (no parent) also get ``.ms_p50``.  Times
        are multiplied by ``scales[op]``, the op's machine-speed scale.
        """
        spans = [s for s in self.spans if s is not None]
        child_ns = [0] * len(self.spans)
        for s in spans:
            if s.parent >= 0:
                child_ns[s.parent] += s.end_ns - s.start_ns
        out: dict[str, float] = dict(self.counts)
        roots: dict[str, list[float]] = {}
        for sid, s in enumerate(self.spans):
            if s is None:
                continue
            scale = scales[s.op]
            dur = s.end_ns - s.start_ns
            for suffix in ("calls", "self_ms", "fail", *OUTCOME_EXCEPTIONS.values()):
                out.setdefault(f"{s.name}.{suffix}", 0)
            out[f"{s.name}.calls"] += 1
            out[f"{s.name}.self_ms"] += (dur - child_ns[sid]) * scale / 1e6
            if s.outcome in OUTCOME_EXCEPTIONS:
                out[f"{s.name}.{OUTCOME_EXCEPTIONS[s.outcome]}"] += 1
            elif s.outcome != "ok":
                out[f"{s.name}.fail"] += 1
            if s.parent < 0:
                roots.setdefault(s.name, []).append(dur * scale / 1e6)
        for name, durations in roots.items():
            out[f"{name}.ms_p50"] = statistics.median(durations)
        return out

    def span_records(self):
        """Spans as JSON-ready lists, in start order."""
        return [[sid, *s] for sid, s in enumerate(self.spans) if s is not None]
