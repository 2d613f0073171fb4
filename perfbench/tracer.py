"""Layer tracing from outside the program.

`Tracer.install` wraps the public functions and methods of each layer
module of `burchlab` (one module is one layer), rebinding every module-level
name that another module imported directly, and `uninstall` puts the
originals back.  Each call of a wrapped function pushes a frame; on exit its
duration is added to the parent frame, so self time is the duration minus
the time covered by child spans, computed at the boundary itself.

A wrapper costs about a microsecond per call, some of it inside the span it
records and the rest in its caller.  `Tracer` measures both parts on a no-op
at construction and takes them out: the inner part from each call's self
time, the outer part by booking it as child time of the caller.  Their sum
over all calls is `cost_s`, so the self times, the time outside every
wrapped call (`outside_s`) and `cost_s` add up to the wall time of the run.

Spans (name, start, end, parent) are kept in memory for the first
`span_limit` calls of each function and written out by `write_spans` after
the run.  Calls beyond that limit (the hot leaves such as normal forms and
echelon inserts run 10^5 to 10^6 times) only update the per-function
aggregates, which always count every call.
"""

from __future__ import annotations

import dataclasses
import gzip
import inspect
import json
import time

# One module is one layer.  `ring` is left out on purpose: its hundreds of
# thousands of calls per job would distort the timings, so its time shows as
# the self time of the layers that call it (as does `matrices`).
LAYERS = (
    "linalg", "groebner", "burch", "complexes", "contraction",
    "taylor", "tate", "dgmodule", "resolve", "ainfty",
    "bar", "cycles", "golod", "krank", "pipeline",
    "jobs", "report",
)


@dataclasses.dataclass
class FnStat:
    layer: str
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    errors: int = 0
    spans: int = 0


@dataclasses.dataclass
class LayerStat:
    calls: int = 0      # calls entering the layer from another layer or the harness
    errors: int = 0     # exceptions leaving the layer through such a call


class Tracer:
    def __init__(self, clock=time.perf_counter, span_limit: int = 10_000, overhead=None):
        """overhead: (inner, outer) seconds per wrapped call; measured if None."""
        self.clock = clock
        self.span_limit = span_limit
        self.inner, self.outer = measure_overhead(clock) if overhead is None else overhead
        # frames are [layer, child seconds, span index]; the root frame
        # collects the durations of top-level calls
        self.root = [None, 0.0, -1]
        self.stack: list = [self.root]
        self.spans: list = []          # (name, start, end, parent span index or -1)
        self.fns: dict = {}            # qualified name -> FnStat
        self.layers: dict = {}         # layer -> LayerStat
        self.observers: dict = {}      # qualified name -> fn(args, kwargs, result)
        self._undo: list = []

    # -- wrapping ----------------------------------------------------------

    def wrap(self, layer: str, name: str, fn):
        """Return a traced version of fn, booked as `name` in `layer`.

        Observers must be registered before wrapping.
        """
        stat = self.fns.setdefault(name, FnStat(layer))
        lstat = self.layers.setdefault(layer, LayerStat())
        stack, spans, clock, limit = self.stack, self.spans, self.clock, self.span_limit
        inner, outer = self.inner, self.outer
        push, pop = stack.append, stack.pop
        observer = self.observers.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1]
            entering = parent[0] != layer
            if entering:
                lstat.calls += 1
            span = -1
            if stat.spans < limit:
                stat.spans += 1
                span = len(spans)
                spans.append(None)
            frame = [layer, 0.0, span]
            push(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                if entering:
                    lstat.errors += 1
                raise
            finally:
                end = clock()
                pop()
                dur = end - start
                stat.calls += 1
                stat.total_s += dur
                stat.self_s += dur - frame[1] - inner
                parent[1] += dur + outer
                if span >= 0:
                    spans[span] = (name, start, end, parent[2])
            if observer is not None:
                observer(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def install(self, package_modules: dict):
        """Wrap every public function and method of the layer modules.

        package_modules maps a short module name ("groebner") to the module
        object, for every module of the package; functions one module
        imported from another by name are rebound there as well.
        """
        replaced = {}   # id(original function) -> wrapper
        for layer in LAYERS:
            mod = package_modules[layer]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    w = self.wrap(layer, f"{layer}.{attr}", obj)
                    replaced[id(obj)] = w
                    self._set(mod, attr, w)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        for mod in package_modules.values():
            for attr, obj in list(vars(mod).items()):
                w = replaced.get(id(obj))
                if w is not None and obj is w.__wrapped__ and vars(mod)[attr] is not w:
                    self._set(mod, attr, w)

    def _wrap_class(self, layer, cls):
        for attr, obj in list(vars(cls).items()):
            public = not attr.startswith("_")
            if attr == "__init__":
                # dataclass-generated constructors only store fields
                public = not dataclasses.is_dataclass(cls)
            if not public:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(obj):
                self._set(cls, attr, self.wrap(layer, name, obj))
            elif isinstance(obj, (classmethod, staticmethod)):
                self._set(cls, attr, type(obj)(self.wrap(layer, name, obj.__func__)))
            # properties are read as attributes; their bodies count as the
            # caller's self time

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def cost_s(self) -> float:
        """Wrapper time of all calls, booked in no self time."""
        return sum(st.calls for st in self.fns.values()) * (self.inner + self.outer)

    def outside_s(self, wall: float) -> float:
        """Time of a run of `wall` seconds spent outside every wrapped call."""
        return wall - self.root[1]

    def layer_totals(self) -> dict:
        """layer -> {"calls", "self_s", "errors"}."""
        out = {layer: {"calls": 0, "self_s": 0.0, "errors": 0}
               for layer in dict.fromkeys([*LAYERS, *self.layers])}
        for layer, st in self.layers.items():
            out[layer]["calls"] = st.calls
            out[layer]["errors"] = st.errors
        for st in self.fns.values():
            out[st.layer]["self_s"] += st.self_s
        return out

    def write_spans(self, path, header: dict):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, st in sorted(self.fns.items()):
                if st.calls:
                    fh.write(json.dumps({"fn": name, **dataclasses.asdict(st)}) + "\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"span": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def measure_overhead(clock, n: int = 20_000, repeats: int = 5):
    """(inner, outer) seconds a wrapper adds to a call of a two-argument no-op.

    inner is the part inside the span the wrapper records, outer the part
    its caller sees beyond that span.  Each is the best of `repeats` loops.
    """
    def noop(a, b):
        return None

    def loop(fn):
        t0 = clock()
        for _ in range(n):
            fn(1, 2)
        return (clock() - t0) / n

    raw = min(loop(noop) for _ in range(repeats))
    best = None
    for _ in range(repeats):
        probe = Tracer(clock, span_limit=0, overhead=(0.0, 0.0))
        wrapped = loop(probe.wrap("probe", "probe", noop))
        span = probe.fns["probe"].total_s / n
        if best is None or wrapped < best[0]:
            best = (wrapped, span)
    wrapped, span = best
    return max(span - raw, 0.0), max(wrapped - span, 0.0)
