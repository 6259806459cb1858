"""In-memory span recorder that wraps qborel's layer functions from outside.

Each layer is a boundary function of one qborel module.  ``Tracer.install``
replaces that function by attribute assignment with a wrapper that records a
span (layer, start, end, parent) and updates the layer's call count and self
time, the span's duration minus the time of its wrapped children.  Nothing
inside ``src/`` is edited; ``Tracer.uninstall`` puts every original back.
"""

from __future__ import annotations

import importlib
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class Layer:
    """A layer: its metric name, the object that holds the boundary function
    and the attribute names to replace there (one span name for all)."""

    name: str
    owner: str          # dotted path: "qborel.qsummation" or "qborel.qsummation:_QSection"
    attrs: tuple[str, ...]
    only_under: Optional[str] = None   # record only inside an open span of this layer


# Ordered from the outer layers to the inner ones.  ``quad.complex_quad`` and
# ``classical.ode_continuation`` are wrapped where the modules import them.
LAYERS: tuple[Layer, ...] = (
    Layer("classical.multisum", "qborel.classical", ("multisum",)),
    Layer("qsummation.q_multisum", "qborel.qsummation", ("q_multisum",)),
    Layer("operators.recurrence_solve", "qborel.operators:Recurrence",
          ("solve", "solve_logspace")),
    Layer("classical.growth_fit", "qborel.classical:FunctionHandle", ("growth",)),
    Layer("classical.growth_fit", "qborel.classical:ContinuationHandle", ("growth",)),
    Layer("classical.growth_fit", "qborel.classical:LaplaceStageHandle", ("growth",)),
    Layer("qsummation.growth_fit_q", "qborel.qsummation", ("_growth_fit_q",)),
    Layer("classical.stage_tabulation", "qborel.classical:LaplaceStageHandle", ("prepare",)),
    Layer("classical.stage_batched", "qborel.classical", ("_batched_ray_laplace",)),
    Layer("classical.stage_direct", "qborel.classical:LaplaceStageHandle", ("_direct",)),
    Layer("classical.laplace", "qborel.classical", ("laplace_along_ray",)),
    Layer("classical.ode_continuation", "qborel.classical", ("solve_ivp",)),
    Layer("quad.complex_quad", "qborel.classical", ("complex_quad",)),
    Layer("quad.complex_quad", "qborel.qsummation", ("complex_quad",)),
    Layer("qsummation.kernel_sum", "qborel.qsummation:_QSection", ("value",)),
    Layer("qsummation.grid_build", "qborel.qsummation:_QSection", ("_ensure_grid_locked",)),
    Layer("qsummation.kernel_build", "qborel.qsummation", ("_jackson_kernel",)),
    Layer("qsummation.convolution", "numpy", ("convolve",),
          only_under="qsummation.grid_build"),
    Layer("qsummation.grid_values", "qborel.qsummation:QContinuation", ("grid_values",)),
    Layer("qsummation.windowed_walk", "qborel.qsummation", ("windowed_walk",)),
    Layer("qsummation.theta_laplace", "qborel.qsummation", ("theta_q_laplace",)),
    Layer("qsummation.eval_at", "qborel.qsummation:QContinuation", ("eval_at",)),
    Layer("qspecial.theta", "qborel.qspecial", ("theta",)),
    Layer("series.powerseries_eval", "qborel.series:PowerSeries", ("eval",)),
)

LAYER_NAMES: tuple[str, ...] = tuple(dict.fromkeys(layer.name for layer in LAYERS))

_TABULATION = "classical.stage_tabulation"
_DIRECT = "classical.stage_direct"
_VALIDATION_QUADRATURES = 3   # LaplaceStageHandle validates its table at 3 points


def _resolve(path: str):
    module_name, _, class_name = path.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, class_name) if class_name else obj


class Tracer:
    """Spans and per-layer counters of one traced region."""

    def __init__(self):
        self.index = {name: i for i, name in enumerate(LAYER_NAMES)}
        n = len(LAYER_NAMES)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.open = [0] * n                    # currently open spans per layer
        self.counters = {"qsummation.grid_values.nodes": 0,
                         "classical.ode_continuation.nfev": 0,
                         "quad.complex_quad.in_tabulation_s": 0.0}
        self.tabulations = 0
        self.fallbacks = 0
        self.absent: list[str] = []
        # span store: layer index, parent span index, start, end
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []           # [span index, time in children]
        self._tab_stack: list[list] = []       # [handle, own direct calls]
        self._saved: list[tuple[object, str, object]] = []
        self.t_begin = self.t_end = 0.0

    # -- installation ---------------------------------------------------------

    def install(self):
        for layer in LAYERS:
            try:
                owner = _resolve(layer.owner)
            except (ImportError, AttributeError):
                owner = None
            for attr in layer.attrs:
                if owner is None or attr not in vars(owner):
                    self.absent.append(f"{layer.owner}.{attr}")
                    continue
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(layer, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        self.t_begin = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.t_end = time.perf_counter()
        self.uninstall()
        return False

    # -- recording ------------------------------------------------------------

    def _wrap(self, layer: Layer, fn: Callable) -> Callable:
        li = self.index[layer.name]
        gate = self.index[layer.only_under] if layer.only_under else None
        after = {
            "qsummation.grid_values": self._after_grid_values,
            "classical.ode_continuation": self._after_ode,
        }.get(layer.name)
        is_tab = layer.name == _TABULATION
        is_direct = layer.name == _DIRECT
        is_quad = layer.name == "quad.complex_quad"
        tracer = self
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if gate is not None and not tracer.open[gate]:
                return fn(*args, **kwargs)
            if is_tab:
                tracer._tab_stack.append([args[0], 0])
            elif is_direct:
                for tab in reversed(tracer._tab_stack):
                    if tab[0] is args[0]:
                        tab[1] += 1
                        break
            stack = tracer._stack
            sid = len(tracer.span_layer)
            tracer.span_layer.append(li)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            tracer.open[li] += 1
            frame = [sid, 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                tracer.open[li] -= 1
                dur = end - start
                own = dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                tracer.span_start[sid] = start
                tracer.span_end[sid] = end
                tracer.calls[li] += 1
                tracer.self_s[li] += own
                if is_quad and tracer._tab_stack:
                    tracer.counters["quad.complex_quad.in_tabulation_s"] += own
                if is_tab:
                    _, directs = tracer._tab_stack.pop()
                    if directs:
                        tracer.tabulations += 1
                        tracer.fallbacks += directs > _VALIDATION_QUADRATURES
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", layer.name)
        return wrapper

    def _after_grid_values(self, result):
        self.counters["qsummation.grid_values.nodes"] += len(result)

    def _after_ode(self, result):
        self.counters["classical.ode_continuation.nfev"] += int(result.nfev)

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer calls and self time, the extra counters and the
        attribution check (self times plus unattributed time against wall)."""
        out: dict[str, float] = {}
        for name, i in self.index.items():
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.self_s"] = self.self_s[i]
        out.update(self.counters)
        out["classical.stage_tabulation.fallback_ratio"] = (
            self.fallbacks / self.tabulations if self.tabulations else 0.0)
        wall = self.t_end - self.t_begin
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = (np.frombuffer(self.span_end, dtype=float)
               - np.frombuffer(self.span_start, dtype=float))
        unattributed = wall - float(dur[parent < 0].sum())
        out["trace.wall_s"] = wall
        out["trace.unattributed_s"] = unattributed
        out["trace.closure_error"] = abs(sum(self.self_s) + unattributed - wall) / wall
        return out

    def save(self, path: str):
        """Write the spans (layer names, layer index, parent, start, end)."""
        np.savez_compressed(
            path,
            layers=np.array(LAYER_NAMES),
            layer=np.frombuffer(self.span_layer, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=float) - self.t_begin,
            end=np.frombuffer(self.span_end, dtype=float) - self.t_begin,
        )
