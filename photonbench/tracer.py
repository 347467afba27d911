"""Per-layer spans for traced runs.

``Tracer.install`` wraps every public function, and every public method of a
public class, defined in the photonstats modules named in LAYERS, and rebinds
each wrapper wherever the package's modules imported the original. A call
then records a span: name, layer, parent span, start, end, plus a few counts
taken at the layer boundary. Spans stay in memory until ``take`` hands them
over; ``summarize`` turns the spans of one pass into per-layer metrics.

Nothing here runs unless a traced run asks for it, so untraced runs measure
the unmodified program.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("cli", "acquisition", "fitting", "nonclassical", "channel", "distributions", "ioutil")


def _array_bytes(values) -> int:
    """Bytes of the numpy arrays among ``values`` and their dataclass fields."""
    import numpy as np

    total = 0
    for v in values:
        if isinstance(v, np.ndarray):
            total += v.nbytes
        elif hasattr(v, "__dataclass_fields__"):
            total += sum(getattr(v, f).nbytes for f in v.__dataclass_fields__
                         if isinstance(getattr(v, f, None), np.ndarray))
    return total


class Tracer:
    """Records spans around the public functions of photonstats.

    ``comb`` is the detector's (offset, gain): a fitted peak is on the comb
    when its photon number equals round((center - offset) / gain).
    """

    def __init__(self, comb: tuple[float, float]):
        self.offset, self.gain = comb
        self.spans: list[list] = []
        self._stack: list[int] = []

    def install(self, package_name: str = "photonstats") -> None:
        modules = [importlib.import_module(f"{package_name}.{layer}") for layer in LAYERS]
        wrapped = {}
        for layer, mod in zip(LAYERS, modules):
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = (obj, self._wrap(obj, layer))
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, layer)
        package = importlib.import_module(package_name)
        for mod in [package, *modules]:
            for name, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])

    def _wrap_methods(self, cls, layer: str) -> None:
        for name, raw in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            if isinstance(raw, classmethod):
                setattr(cls, name, classmethod(self._wrap(raw.__func__, layer)))
            elif isinstance(raw, staticmethod):
                setattr(cls, name, staticmethod(self._wrap(raw.__func__, layer)))
            elif inspect.isfunction(raw):
                setattr(cls, name, self._wrap(raw, layer))

    def _wrap(self, fn, layer: str):
        name = f"{layer}.{fn.__qualname__}"
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(len(self.spans))
            span = [name, layer, parent, time.perf_counter(), 0.0, None]
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()
            span[5] = self._counts(name, layer, signature, args, kwargs, result)
            return result

        return traced

    def _counts(self, name, layer, signature, args, kwargs, result) -> dict | None:
        """Counts recorded at the layer boundary for the calls that have them."""
        if name == "acquisition.simulate_gate_counts":
            bound = signature.bind(*args, **kwargs)
            return {"gates": int(bound.arguments["n_gates"]),
                    "array_bytes": _array_bytes([*args, *kwargs.values(), result])}
        if layer == "acquisition":
            return {"array_bytes": _array_bytes([*args, *kwargs.values(), result])}
        if name == "fitting.fit_peaks":
            peaks = result.peaks
            on_comb = sum(p.photon_number == round((p.center - self.offset) / self.gain)
                          for p in peaks)
            return {"peaks": len(peaks), "peaks_on_comb": on_comb}
        if name == "channel.invert_channel":
            import numpy as np

            return {"cond": float(np.linalg.cond(args[0].entries))}
        if name == "ioutil.write_text_atomic":
            text = signature.bind(*args, **kwargs).arguments["text"]
            return {"bytes_written": len(text.encode())}
        return None

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans


def summarize(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one pass: inclusive seconds per function, self
    seconds per layer, and the boundary counts."""
    child_time = [0.0] * len(spans)
    for name, layer, parent, start, end, counts in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
    for (name, layer, parent, start, end, counts), children in zip(spans, child_time):
        out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + (end - start)
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + (end - start - children)
        out[f"{layer}.self_s"] += end - start - children
        for key, value in (counts or {}).items():
            metric = f"{layer}.{key}"
            if key == "cond":
                out[metric] = max(out.get(metric, 0.0), value)
            else:
                out[metric] = out.get(metric, 0.0) + value
    return out
