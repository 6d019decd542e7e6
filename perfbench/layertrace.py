"""Per-layer tracing of fibstat, done from outside by wrapping public functions.

`install()` swaps each traced function for a wrapper in every loaded fibstat
module that holds it.  Patching only the defining module would miss most
calls: `stats` imports `factorize`, `point_slabs`, `conic_insoluble_grid` and
`sigma_empirical` by name, and `cli` imports `record_set`, `sample_records`
and the other reductions the same way.

Two kinds of record are kept in memory and written out once, by `dump()`:

* spans, for calls that are few and large: name, start, end, parent span,
  run id and a few per-call attributes (rows, unknown verdicts, ...);
* counters, for hot scalar entry points (`CubicDecider.decide`, `factorize`,
  `is_prime`, ...), which are called 1e5 times a run: a call count and a
  total time, no span per call.

`summarize()` turns a dump into the per-layer metrics.  A span's self time is
its duration minus the part of it covered by its child spans.  Counted calls
have no span, so their time stays inside their caller's self time.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import defaultdict

_clock = time.perf_counter


def _rows(n_arg):
    return lambda args, kwargs, result: {"rows": len(args[n_arg])}


def _padic_attrs(args, kwargs, result):
    return {"unknown": int(result.status.name == "UNKNOWN")}


def _sigma_attrs(args, kwargs, result):
    return {
        "samples": result.sample_size,
        "unknown": round(result.unknown_fraction * result.sample_size),
    }


# (module, qualified name, attributes taken from (args, kwargs, result))
SPANNED = [
    ("fibstat.localsolve", "padic_point_search", _padic_attrs),
    ("fibstat.families", "conic_insoluble_grid", _rows(0)),
    ("fibstat.families", "CubicDecider.decide_grid", _rows(1)),
    ("fibstat.families", "sigma_empirical", _sigma_attrs),
    ("fibstat.stats", "record_set", None),
    ("fibstat.stats", "sample_records", None),
    ("fibstat.stats", "moments", None),
    ("fibstat.stats", "standardized_values", None),
    ("fibstat.stats", "gaussian_distance", None),
    ("fibstat.stats", "cubic_density_table", None),
    ("fibstat.stats", "tau_histogram", None),
    ("fibstat.stats", "tau_limit_prediction", None),
    ("fibstat.stats", "classic_omega_set", None),
    ("fibstat.cli", "run", None),
]
# generators: one span per slab handed out
GENERATORS = [("fibstat.projective", "point_slabs")]
COUNTED = [
    ("fibstat.arith", "factorize"),
    ("fibstat.arith", "is_prime"),
    ("fibstat.arith", "primes_up_to"),
    ("fibstat.families", "CubicDecider.decide"),
    ("fibstat.families", "conic_sigma_formula"),
]


def _layer(module: str) -> str:
    return module.rsplit(".", 1)[1]


# every traced name, as it prefixes the metric keys of summarize()
TRACED = {f"{_layer(m)}.{q}" for m, q, *_ in SPANNED + GENERATORS + COUNTED}


class Tracer:
    """Spans and counters of one traced CLI run, held in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.counters: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        # a pool thread's first span belongs to whatever the main thread has open
        if stack:
            return stack[-1]
        if stack is not self._main_stack and self._main_stack:
            return self._main_stack[-1]
        return None

    def span(self, name, fn, attrs):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            sid, parent = next(tracer._ids), tracer._parent(stack)
            stack.append(sid)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
            extra = attrs(args, kwargs, result) if attrs else {}
            tracer.spans.append((sid, name, start, end, parent, tracer.run_id, extra))
            return result

        return wrapper

    def generator_span(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            width = args[0] + 1  # point_slabs(n, B) yields (N, n + 1) int64 rows
            inner = fn(*args, **kwargs)
            while True:
                stack = tracer._stack()
                sid, parent = next(tracer._ids), tracer._parent(stack)
                start = _clock()
                try:
                    slab = next(inner)
                except StopIteration:
                    return
                finally:
                    end = _clock()
                rows = len(slab)
                tracer.spans.append(
                    (sid, name, start, end, parent, tracer.run_id,
                     {"rows": rows, "bytes": rows * width * 8})
                )
                yield slab

        return wrapper

    def counted(self, name, fn):
        tracer = self
        cell = self.counters[name]

        def wrapper(*args, **kwargs):
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                with tracer._lock:
                    cell[0] += 1
                    cell[1] += elapsed

        return wrapper

    def dump(self, path: str):
        doc = {
            "run_id": self.run_id,
            "fields": ["id", "name", "start", "end", "parent", "run_id", "attrs"],
            "spans": self.spans,
            "counters": {k: {"calls": v[0], "s": v[1]} for k, v in self.counters.items()},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _replace_everywhere(original, wrapper):
    """Point every fibstat module attribute bound to `original` at `wrapper`."""
    for name, module in list(sys.modules.items()):
        if name != "fibstat" and not name.startswith("fibstat."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _patch(module_name: str, qualname: str, make):
    module = sys.modules[module_name]
    owner_name, _, attr = qualname.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    original = getattr(owner, attr)
    wrapper = make(f"{_layer(module_name)}.{qualname}", original)
    if owner_name:
        setattr(owner, attr, wrapper)  # a method: every instance looks it up on the class
    else:
        _replace_everywhere(original, wrapper)


def install(run_id: str) -> Tracer:
    """Wrap the traced functions of an already imported fibstat.cli."""
    tracer = Tracer(run_id)
    for module, qualname, attrs in SPANNED:
        _patch(module, qualname, lambda name, fn, a=attrs: tracer.span(name, fn, a))
    for module, qualname in GENERATORS:
        _patch(module, qualname, tracer.generator_span)
    for module, qualname in COUNTED:
        _patch(module, qualname, tracer.counted)
    return tracer


# ---------------------------------------------------------------------------
# reduction of a dump to per-layer numbers


def _covered(start: float, end: float, intervals) -> float:
    """Length of the union of `intervals` clipped to [start, end]."""
    total, reach = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def summarize(doc: dict) -> dict:
    """Per span name: calls, s, self_s and summed attributes; per counter:
    calls and s.  Keys are `<layer>.<function>.<field>`."""
    children = defaultdict(list)
    for sid, name, start, end, parent, _, _ in doc["spans"]:
        if parent is not None:
            children[parent].append((start, end))
    out: dict[str, float] = defaultdict(int)
    for sid, name, start, end, parent, _, attrs in doc["spans"]:
        out[f"{name}.calls"] += 1
        out[f"{name}.s"] += end - start
        out[f"{name}.self_s"] += (end - start) - _covered(start, end, children.get(sid, ()))
        for key, value in attrs.items():
            out[f"{name}.{key}"] += value
    for name, cell in doc["counters"].items():
        out[f"{name}.calls"] += cell["calls"]
        out[f"{name}.s"] += cell["s"]
    return dict(out)
