"""Per-layer tracing of one ``cfindep`` operation, applied from outside.

``Tracer.install()`` replaces every public function of each ``cfindep``
module (the names in its ``__all__``), and a few methods named in
``METHODS``, with a wrapper that records a span: function, start, end and
parent span.  The same wrapper replaces the copies other ``cfindep`` modules
took with ``from .x import f``.  Spans stay in memory; ``summary()`` reduces
them to per-function and per-layer figures once the operation is done.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from fractions import Fraction

# module -> layer; bigreal spans three modules
LAYERS = {
    "cfindep.bigreal.dyadic": "bigreal",
    "cfindep.bigreal.interval": "bigreal",
    "cfindep.bigreal.poly": "bigreal",
    "cfindep.numfield": "numfield",
    "cfindep.cfcore": "cfcore",
    "cfindep.sequences": "sequences",
    "cfindep.criteria": "criteria",
    "cfindep.lemmas": "lemmas",
    "cfindep.relation": "relation",
    "cfindep.reportfmt": "reportfmt",
    "cfindep.catalog": "catalog",
    "cfindep.cli": "cli",
}

# (module, class) -> {method: traced name}
METHODS = {
    ("cfindep.numfield", "FieldElement"): {"__mul__": "mul", "inverse": "inverse",
                                           "enclosure": "enclosure"},
    ("cfindep.numfield", "NumberField"): {"root_enclosure": "root_enclosure"},
    ("cfindep.sequences", "CFSpec"): {"quotient": "quotient", "decomposition": "decomposition"},
}

# functions whose argument keys are collected for repeat_share
KEYED = {"criteria.growth_bound", "sequences.quotient", "numfield.embeddings"}


class Tracer:
    def __init__(self, requested_precision: int | None):
        self.requested = requested_precision
        self.names: list[str] = []
        self.span_fn: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[int] = []
        self.span_end: list[int] = []
        self.span_nested: list[bool] = []
        self.keys: dict[str, set] = {name: set() for name in KEYED}
        self.escalated = 0
        self.bits_max = 0
        self.dim_max = 0
        self._keep: list = []  # objects whose id() is part of a key stay alive
        self._stack = [-1]  # open spans; -1 is the root

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        wrapped: dict[int, object] = {}
        for modname, layer in LAYERS.items():
            mod = sys.modules[modname]
            for name in getattr(mod, "__all__", ()):
                obj = getattr(mod, name, None)
                if inspect.isfunction(obj) and obj.__module__ == modname:
                    wrapped[id(obj)] = self._wrap(obj, f"{layer}.{name}")
        for (modname, clsname), methods in METHODS.items():
            cls = getattr(sys.modules[modname], clsname)
            for attr, name in methods.items():
                setattr(cls, attr, self._wrap(getattr(cls, attr), f"{LAYERS[modname]}.{name}"))
        for modname, mod in list(sys.modules.items()):
            if modname == "cfindep" or modname.startswith("cfindep."):
                for attr, val in list(vars(mod).items()):
                    w = wrapped.get(id(val))
                    if w is not None:
                        setattr(mod, attr, w)

    def _wrap(self, fn, name: str):
        idx = len(self.names)
        self.names.append(name)
        span_fn, span_parent = self.span_fn, self.span_parent
        span_start, span_end, span_nested = self.span_start, self.span_end, self.span_nested
        stack = self._stack
        active = [0]  # open calls of this function
        clock = time.perf_counter_ns
        probe = self._probe_for(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if probe is not None:
                probe(args, kwargs)
            sid = len(span_fn)
            span_fn.append(idx)
            span_parent.append(stack[-1])
            span_nested.append(active[0] > 0)
            span_end.append(0)
            stack.append(sid)
            active[0] += 1
            span_start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                span_end[sid] = clock()
                active[0] -= 1
                stack.pop()

        return wrapper

    def _probe_for(self, name: str, fn):
        """Argument inspection for the counters; None when a span is all we need."""
        sig = inspect.signature(fn)
        if name in KEYED:
            keys = self.keys[name]
            escalating = name == "criteria.growth_bound"

            def probe(args, kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                keys.add(tuple(self._key(v) for v in bound.arguments.values()))
                if escalating and self.requested is not None \
                        and bound.arguments["prec"] > self.requested:
                    self.escalated += 1
            return probe
        if name == "bigreal.refine_root":
            def probe(args, kwargs):
                target = sig.bind(*args, **kwargs).arguments["target_width"]
                self.bits_max = max(self.bits_max, -(target.exp + target.man.bit_length() - 1))
            return probe
        if name == "relation.lll_reduce":
            def probe(args, kwargs):
                self.dim_max = max(self.dim_max, len(sig.bind(*args, **kwargs).arguments["basis"]))
            return probe
        return None

    def _key(self, x):
        """Hashable argument key; number fields count by identity, not coordinates."""
        if x is None or isinstance(x, (bool, int, str, Fraction)):
            return x
        cls = type(x).__name__
        if cls == "NumberField":
            self._keep.append(x)
            return ("field", id(x))
        if cls == "FieldElement":
            self._keep.append(x.field)
            return ("element", id(x.field), x.coords)
        if cls == "Dyadic":
            return (x.man, x.exp)
        if cls == "DyadicInterval":
            return (x.lo.man, x.lo.exp, x.hi.man, x.hi.exp)
        if cls == "CFSpec":
            return ("spec", x.kind, self._key(x.params), self._key(x.field))
        if isinstance(x, (tuple, list)):
            return tuple(self._key(v) for v in x)
        self._keep.append(x)
        return ("object", id(x))

    # -- reduction ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-function calls, distinct argument keys and inclusive seconds, and
        per-layer self seconds.  A call nested in a call of the same function
        adds to ``calls`` but not again to ``total_s``."""
        n = len(self.span_fn)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0] * n
        for i, p in enumerate(self.span_parent):
            if p >= 0:
                child[p] += dur[i]
        fns = {name: {"calls": 0, "total_s": 0.0} for name in self.names}
        layers: dict[str, float] = {}
        for i in range(n):
            name = self.names[self.span_fn[i]]
            rec = fns[name]
            rec["calls"] += 1
            if not self.span_nested[i]:
                rec["total_s"] += dur[i] / 1e9
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + (dur[i] - child[i]) / 1e9
        for name, keys in self.keys.items():
            if name in fns:
                fns[name]["distinct"] = len(keys)
        return {
            "functions": fns,
            "layers": layers,
            "counters": {"criteria.growth_bound.escalated": self.escalated,
                         "bigreal.refine_root.bits_max": self.bits_max,
                         "relation.lll_reduce.dim_max": self.dim_max},
            "spans": n,
        }
