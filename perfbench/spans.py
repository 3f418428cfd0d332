"""Per-layer spans for the traced benchmark run, recorded from outside the package.

``Tracer.install()`` wraps every public callable of each pisier_lab layer
module (functions, methods, class/static methods, ``__init__`` and the
arithmetic dunders), and rebinds every other place the same object is bound:
names copied by ``from .x import y``, the package's re-exports and module-level
dispatch dicts such as ``cli._HANDLERS``.  Transforms are spans wherever they
run: ``fwht``, ``inverse_fwht*``, a lazy ``values``/``spectrum`` fill whose
cache slot was empty, and the ``CubeFunction`` consistency check when both
tables are passed.  ``uninstall()`` restores every original.

Spans are aggregated as they close: a span's self time is its duration minus
the durations of its direct children, and a category's time (transform, io,
norm, ...) counts only the outermost span of that category.  ``io_s``
excludes the transforms nested inside the I/O call.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Any, Callable

LAYERS = ("cube_fourier", "vector_field", "linear_proxy", "pisier_bench", "lower_bound", "cli")

ARITHMETIC_DUNDERS = ("__init__", "__add__", "__sub__", "__mul__", "__rmul__", "__neg__")

# Private callables wrapped because they are the layer's only sink for a counted quantity.
PRIVATE_EXTRAS = {"cli": ("_emit_text",)}

COUNTS = ("transform_calls", "transform_points", "transform_ops", "functions_built", "io_bytes",
          "norm_rows", "kernel_builds", "audits", "family_size", "output_bytes")


class Frame:
    __slots__ = ("layer", "category", "outer", "t0", "child_ns", "transform_ns_at_start")

    def __init__(self, layer, category, outer, t0, transform_ns):
        self.layer = layer
        self.category = category
        self.outer = outer
        self.t0 = t0
        self.child_ns = 0
        self.transform_ns_at_start = transform_ns


class Tracer:
    """Span recorder for one process; not thread-safe (the benchmark runs one op at a time)."""

    def __init__(self):
        self._undo: list[Callable[[], None]] = []
        self.reset()

    def reset(self) -> None:
        self.stack: list[Frame] = []
        self.open_categories: dict[str, int] = defaultdict(int)
        self.spans = dict.fromkeys(LAYERS, 0)
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.errors = dict.fromkeys(LAYERS, 0)
        self.category_ns: dict[str, int] = defaultdict(int)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.top_ns = 0

    # -- spans -------------------------------------------------------------

    def enter(self, layer: str, category: str | None) -> Frame:
        outer = False
        if category is not None:
            outer = self.open_categories[category] == 0
            self.open_categories[category] += 1
        frame = Frame(layer, category, outer, time.perf_counter_ns(), self.category_ns["transform"])
        self.stack.append(frame)
        return frame

    def exit(self, frame: Frame, error: bool = False) -> None:
        duration = time.perf_counter_ns() - frame.t0
        self.stack.pop()
        self.spans[frame.layer] += 1
        self.self_ns[frame.layer] += duration - frame.child_ns
        if error:
            self.errors[frame.layer] += 1
        if self.stack:
            self.stack[-1].child_ns += duration
        else:
            self.top_ns += duration
        if frame.category is not None:
            self.open_categories[frame.category] -= 1
            if frame.outer:
                if frame.category == "io":
                    duration -= self.category_ns["transform"] - frame.transform_ns_at_start
                self.category_ns[frame.category] += duration

    def transform(self, rows: int, size: int) -> None:
        n = size.bit_length() - 1
        self.counts["transform_calls"] += 1
        self.counts["transform_points"] += rows * size
        self.counts["transform_ops"] += rows * n * size

    def _span(self, fn: Callable, layer: str, category: str | None,
              account: Callable | None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer.enter(layer, category)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.exit(frame, error=True)
                raise
            tracer.exit(frame)
            if account is not None:
                account(tracer, frame, args, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        import pisier_lab  # noqa: F401 - load every layer module

        wrapped: dict[int, Callable] = {}
        for layer in LAYERS:
            module = sys.modules[f"pisier_lab.{layer}"]
            for name, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(obj, layer)
                elif callable(obj) and (not name.startswith("_")
                                        or name in PRIVATE_EXTRAS.get(layer, ())):
                    wrapped[id(obj)] = self._wrap_function(obj, layer)
                    self._setattr(module, name, wrapped[id(obj)])
        self._rebind(wrapped)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _setattr(self, owner: Any, name: str, value: Any) -> None:
        original = owner.__dict__[name]
        setattr(owner, name, value)
        self._undo.append(lambda: setattr(owner, name, original))

    def _wrap_function(self, fn: Callable, layer: str, qualname: str | None = None) -> Callable:
        category, account = SPANS.get((layer, qualname or fn.__qualname__), (None, None))
        return self._span(fn, layer, category, account)

    def _wrap_class(self, cls: type, layer: str) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in ARITHMETIC_DUNDERS:
                continue
            qualname = f"{cls.__name__}.{name}"
            if isinstance(attr, (classmethod, staticmethod)):
                self._setattr(cls, name, type(attr)(self._wrap_function(attr.__func__, layer, qualname)))
            elif isinstance(attr, property) and qualname in LAZY_FILLS:
                self._setattr(cls, name, property(self._lazy_fill(attr.fget, LAZY_FILLS[qualname])))
            elif callable(attr) and not isinstance(attr, (type, property)):
                if qualname == "CubeFunction.__init__":
                    self._setattr(cls, name, self._cube_init(attr))
                else:
                    self._setattr(cls, name, self._wrap_function(attr, layer, qualname))

    def _lazy_fill(self, fget: Callable, slot: str) -> Callable:
        """A transform span only when the cache slot is empty; a cache hit costs no span."""
        fill = self._span(fget, "cube_fourier", "transform", _count_fill)

        @functools.wraps(fget)
        def getter(obj):
            if getattr(obj, slot) is None:
                return fill(obj)
            return fget(obj)

        return getter

    def _cube_init(self, init: Callable) -> Callable:
        """Constructor span; with both tables given it runs the transform consistency check."""
        plain = self._span(init, "cube_fourier", None, _count_built)
        checked = self._span(init, "cube_fourier", "transform", _count_built_and_checked)

        @functools.wraps(init)
        def __init__(obj, n, values=None, spectrum=None):
            if values is not None and spectrum is not None:
                return checked(obj, n, values, spectrum)
            return plain(obj, n, values, spectrum)

        return __init__

    def _rebind(self, wrapped: dict[int, Callable]) -> None:
        for name, module in list(sys.modules.items()):
            if not (name == "pisier_lab" or name.startswith("pisier_lab.")):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped and value is not wrapped[id(value)]:
                    self._setattr(module, attr, wrapped[id(value)])
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        if callable(item) and id(item) in wrapped:
                            value[key] = wrapped[id(item)]
                            self._undo.append(functools.partial(value.__setitem__, key, item))

    # -- metrics -----------------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of everything recorded since the last reset."""
        c = self.counts
        sec = {k: v / 1e9 for k, v in self.category_ns.items()}
        self_s = {layer: ns / 1e9 for layer, ns in self.self_ns.items()}
        transform_s = sec.get("transform", 0.0)
        out = {
            "cube_fourier.transform_calls": c["transform_calls"],
            "cube_fourier.transform_points": c["transform_points"],
            "cube_fourier.transform_ops": c["transform_ops"],
            "cube_fourier.transform_s": transform_s,
            "cube_fourier.transform_gops": c["transform_ops"] / transform_s / 1e9 if transform_s else 0.0,
            "cube_fourier.functions_built": c["functions_built"],
            "cube_fourier.io_bytes": c["io_bytes"],
            "cube_fourier.io_s": sec.get("io", 0.0),
            "cube_fourier.self_s": self_s["cube_fourier"],
            "vector_field.norm_rows": c["norm_rows"],
            "vector_field.norm_s": sec.get("norm", 0.0),
            "vector_field.materialize_s": sec.get("materialize", 0.0),
            "vector_field.sandwich_s": sec.get("sandwich", 0.0),
            "vector_field.self_s": self_s["vector_field"],
            "linear_proxy.kernel_builds": c["kernel_builds"],
            "linear_proxy.kernel_s": sec.get("kernel", 0.0),
            "linear_proxy.proxy_table_s": sec.get("proxy_table", 0.0),
            "pisier_bench.audits": c["audits"],
            "pisier_bench.self_s": self_s["pisier_bench"],
            "lower_bound.family_size": c["family_size"],
            "lower_bound.witness_s": sec.get("witness", 0.0),
            "lower_bound.self_s": self_s["lower_bound"],
            "cli.output_bytes": c["output_bytes"],
            "cli.self_s": self_s["cli"],
            "trace.coverage": self.top_ns / 1e9 / wall_s,
        }
        for layer in LAYERS:
            out[f"{layer}.errors"] = self.errors[layer]
        return out


# -- per-callable accounting: (tracer, closed frame, positional args, result) -> None ----


def _increment(counter: str) -> Callable:
    def account(t: Tracer, frame, args, result) -> None:
        t.counts[counter] += 1

    return account


_count_built = _increment("functions_built")


def _count_built_and_checked(t: Tracer, frame, args, result) -> None:
    t.counts["functions_built"] += 1
    t.transform(1, 1 << args[1])


def _count_transform(t: Tracer, frame, args, result) -> None:
    shape = result.shape
    t.transform(result.size // shape[-1], shape[-1])


def _count_io(size_of: Callable) -> Callable:
    def account(t: Tracer, frame, args, result) -> None:
        if frame.outer:
            t.counts["io_bytes"] += size_of(args, result)

    return account


def _count_norm_rows(t: Tracer, frame, args, result) -> None:
    if frame.outer:
        t.counts["norm_rows"] += len(result) if hasattr(result, "__len__") else 1


def _count_family(t: Tracer, frame, args, result) -> None:
    t.counts["family_size"] += len(result.family)


def _count_emitted(t: Tracer, frame, args, result) -> None:
    t.counts["output_bytes"] += len(args[0].encode())


def _count_cli_text(t: Tracer, frame, args, result) -> None:
    # A document returned to a caller outside the cli layer; emitted ones count in _emit_text.
    if not any(f.layer == "cli" for f in t.stack):
        t.counts["output_bytes"] += len(result.encode())


def _count_fill(t: Tracer, frame, args, result) -> None:
    t.transform(1, result.size)


def _table_bytes(f) -> int:
    return 4 + 8 * f.size  # u32 header + 2^n doubles


# (layer, qualified name) -> (category whose time the span counts towards, accounting hook)
SPANS: dict[tuple[str, str], tuple[str | None, Callable | None]] = {
    ("cube_fourier", "fwht"): ("transform", _count_transform),
    ("cube_fourier", "inverse_fwht"): ("transform", _count_transform),
    ("cube_fourier", "inverse_fwht_rows"): ("transform", _count_transform),
    ("cube_fourier", "read_binary"): ("io", _count_io(lambda args, result: _table_bytes(result))),
    ("cube_fourier", "write_binary"): ("io", _count_io(lambda args, result: _table_bytes(args[0]))),
    ("cube_fourier", "from_bytes"): ("io", _count_io(lambda args, result: len(args[0]))),
    ("cube_fourier", "to_bytes"): ("io", _count_io(lambda args, result: len(result))),
    ("cube_fourier", "to_spectrum_json"): ("io", _count_io(lambda args, result: len(result.encode()))),
    ("cube_fourier", "from_spectrum_json"): ("io", _count_io(lambda args, result: len(args[0].encode()))),
    ("vector_field", "Norm.evaluate_rows"): ("norm", _count_norm_rows),
    ("vector_field", "sup_functional_norm"): ("norm", _count_norm_rows),
    ("vector_field", "VectorFunction.values_matrix"): ("materialize", None),
    ("vector_field", "VectorFunction.spectrum_matrix"): ("materialize", None),
    ("vector_field", "VectorFunction.from_values_matrix"): ("materialize", None),
    ("vector_field", "VectorFunction.from_spectrum_matrix"): ("materialize", None),
    ("vector_field", "sandwich_validate"): ("sandwich", None),
    ("vector_field", "SandwichTransform.__init__"): ("sandwich", None),
    ("vector_field", "SandwichTransform.for_lp"): ("sandwich", None),
    ("linear_proxy", "ProxyKernel.__init__"): ("kernel", _increment("kernel_builds")),
    ("linear_proxy", "proxy_as_cube_function"): ("proxy_table", None),
    ("pisier_bench", "decomposition_audit"): (None, _increment("audits")),
    ("lower_bound", "build_product_witness"): ("witness", None),
    ("lower_bound", "build_truncated_witness"): ("witness", None),
    ("lower_bound", "build_chebyshev_witness"): ("witness", None),
    ("lower_bound", "lower_bound_instance"): (None, _count_family),
    ("cli", "_emit_text"): (None, _count_emitted),
    ("cli", "audit_report_json"): (None, _count_cli_text),
}

LAZY_FILLS = {"CubeFunction.values": "_values", "CubeFunction.spectrum": "_spectrum"}
