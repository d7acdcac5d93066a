"""Spans and work counters recorded from outside poisdirac.

`Tracer.install()` replaces every public function of each layer module,
the public methods and arithmetic operators of the layer's classes, and
every name another poisdirac module bound to one of those functions with
`from .x import y` (such as `embedding.poly_matrix_det`).  While the
tracer is active, each wrapper counts its call and records a span for
every call that crosses into its layer from another layer or from the
benchmark: name, parent span, op id, start and end.  Calls within one
layer are counted but add no span, since their time belongs to the same
layer as their caller's span.  Spans stay in memory; `write()` saves
them at the end of the run.  A layer's self time is the time of its
spans minus the time covered by their child spans.  `uninstall()`
restores every name.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

LAYERS = (
    "rational_linalg", "polynomials", "poisson_linear", "dirac_linear", "bivector_fields",
    "submanifolds", "embedding", "scenario", "cli",
)

# Dunder methods that are operations of the layer: arithmetic, and the
# constructor-time validation of the structures the layers build.
_DUNDERS = frozenset({"__add__", "__sub__", "__mul__", "__neg__", "__pow__", "__matmul__", "__post_init__"})

# Spans whose time counts toward polynomials.det.self_s.
_DET_SPANS = ("polynomials.poly_matrix_det", "polynomials.poly_matrix_inverse")


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.op = -1
        self.names: list[str] = []
        self.spans = array("d")
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.det_s = 0.0
        self.rref_inputs: set = set()
        self.rref_max_bits = 0
        self._next_id = 0
        self._stack: list[list] = []
        self._in_det = False
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        wrappers: dict[int, object] = {}  # id of an original function -> its wrapper
        for layer in LAYERS:
            module = importlib.import_module(f"poisdirac.{layer}")
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{name}", layer, obj)
                    self._patch(module, name, wrappers[id(obj)])
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        for modname, module in list(sys.modules.items()):
            if modname == "poisdirac" or modname.startswith("poisdirac."):
                for name, obj in list(vars(module).items()):
                    if id(obj) in wrappers:
                        self._patch(module, name, wrappers[id(obj)])

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(value, staticmethod):
                self._patch(cls, attr, staticmethod(self._wrap(name, layer, value.__func__)))
            elif inspect.isfunction(value):
                self._patch(cls, attr, self._wrap(name, layer, value))

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- recording ------------------------------------------------------------

    def _wrap(self, name: str, layer: str, fn):
        tracer = self
        name_id = len(self.names)
        self.names.append(name)
        is_rref = name == "rational_linalg.rref"
        is_det = name in _DET_SPANS

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.calls[name] += 1
            if is_rref:
                m = args[0]
                tracer.rref_inputs.add((m.rows, m.cols, hash(m.entries)))
            stack = tracer._stack
            outer_det = is_det and not tracer._in_det
            if stack and stack[-1][2] == layer and not outer_det:
                # a call inside the same layer: counted, and its time stays
                # in the caller's span, which belongs to the same layer
                result = fn(*args, **kwargs)
            else:
                result = tracer._span(name_id, layer, outer_det, fn, args, kwargs)
            if is_rref:
                bits = max((max(x.numerator.bit_length(), x.denominator.bit_length())
                            for row in result[0].entries for x in row), default=0)
                if bits > tracer.rref_max_bits:
                    tracer.rref_max_bits = bits
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _span(self, name_id: int, layer: str, outer_det: bool, fn, args, kwargs):
        stack = self._stack
        span_id = self._next_id
        self._next_id += 1
        parent = stack[-1][0] if stack else -1
        frame = [span_id, 0.0, layer]
        stack.append(frame)
        if outer_det:
            self._in_det = True
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            self.self_s[layer] += duration - frame[1]
            if stack:
                stack[-1][1] += duration
            if outer_det:
                self._in_det = False
                self.det_s += duration
            self.spans.extend((span_id, name_id, parent, self.op, start, end))

    # -- results --------------------------------------------------------------

    def metrics(self, traced_wall: float, overhead_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}, given the wall time of
        the traced operations and how much longer they took than untraced."""
        c = self.calls
        rref_calls = c["rational_linalg.rref"]
        out: dict[str, tuple[float, str]] = {
            "rational_linalg.rref.calls": (rref_calls, "count"),
            "rational_linalg.rref.distinct_ratio": (len(self.rref_inputs) / rref_calls if rref_calls else 0.0, "ratio"),
            "rational_linalg.rref.max_bits": (self.rref_max_bits, "bits"),
            "poisson_linear.classify_subspace.calls": (c["poisson_linear.classify_subspace"], "count"),
            "poisson_linear.leaf.calls": (c["poisson_linear.PoissonVS.leaf"], "count"),
            "poisson_linear.leaf_form_value.calls": (c["poisson_linear.leaf_form_value"], "count"),
            "polynomials.det.calls": (c["polynomials.poly_matrix_det"], "count"),
            "polynomials.det.self_s": (self.det_s, "s"),
            "polynomials.mul.calls": (c["polynomials.Poly.__mul__"], "count"),
            "polynomials.make.calls": (c["polynomials.Poly.make"], "count"),
            "bivector_fields.jacobiator_component.calls": (c["bivector_fields.jacobiator_component"], "count"),
            "dirac_linear.structures.calls": (c["dirac_linear.DiracVS.__post_init__"], "count"),
            "submanifolds.tangent_at.calls": (c["submanifolds.tangent_at"], "count"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
        for layer in LAYERS:
            out[f"{layer}.share"] = (self.self_s[layer] / traced_wall if traced_wall else 0.0, "ratio")
        out["trace.overhead_s"] = (overhead_s, "s")
        return out

    def write(self, directory: Path, stem: str) -> Path:
        """Save the spans as raw doubles plus a JSON index of span names."""
        directory.mkdir(parents=True, exist_ok=True)
        with open(directory / f"{stem}.spans", "wb") as fh:
            self.spans.tofile(fh)
        index = {"fields": ["span", "name", "parent", "op", "start", "end"], "names": self.names}
        (directory / f"{stem}.names.json").write_text(json.dumps(index), encoding="utf-8")
        return directory / f"{stem}.spans"
