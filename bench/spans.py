"""Span recording from outside the package, for the traced run.

:class:`Tracer` replaces every public function attribute of the package
modules with a wrapper that records a span: the layer, the function, its
inclusive duration and the time its child spans took.  The modules look
these names up at call time, so nested and cross-module calls are caught
without editing the package.  The NumPy eigensolvers are wrapped as
counters only: their time stays in the calling layer's self time, and a
call counts only when a package span is open, so the benchmark's own
oracles are never counted.
"""

from __future__ import annotations

import functools
import time
import types
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("linalg", "channels", "coherence", "bargmann", "bipartite", "serialize", "cli")
EIG_NAMES = ("eig", "eigvals", "eigh", "eigvalsh")


class _Frame:
    __slots__ = ("key", "child")

    def __init__(self, key: str):
        self.key = key
        self.child = 0.0


class Tracer:
    """Installs span wrappers on the given modules; restores them on exit."""

    def __init__(self, modules: dict[str, types.ModuleType]):
        self.modules = modules
        self.stack: list[_Frame] = []
        self.calls: Counter = Counter()
        self.layer_self: defaultdict = defaultdict(float)
        self.fn_self: defaultdict = defaultdict(float)
        self.durations: defaultdict = defaultdict(list)
        self.counts: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        for layer, mod in self.modules.items():
            for name, fn in list(vars(mod).items()):
                if (
                    not name.startswith("_")
                    and isinstance(fn, types.FunctionType)
                    and fn.__module__ == mod.__name__
                ):
                    self._swap(mod, name, self._span(layer, name, fn))
        for name in EIG_NAMES:
            self._swap(np.linalg, name, self._eig_counter(getattr(np.linalg, name)))
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()
        return False

    def _swap(self, owner, name: str, wrapper) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _span(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        stack, clock = self.stack, time.perf_counter
        on_exit = _HOOKS.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = _Frame(key)
            stack.append(frame)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                took = clock() - start
                stack.pop()
                if stack:
                    stack[-1].child += took
                self.layer_self[layer] += took - frame.child
                self.fn_self[key] += took - frame.child
                self.calls[key] += 1
                self.durations[key].append(took)
                if on_exit is not None:
                    on_exit(self, args, result, took)

        return wrapper

    def _eig_counter(self, fn):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            if self.stack:
                n = int(np.shape(a)[-1])
                self.counts["numpy.eig.calls"] += 1
                self.counts["numpy.eig.n3"] += n**3
            return fn(a, *args, **kwargs)

        return wrapper

    def inside(self, key: str) -> bool:
        return any(f.key == key for f in self.stack)


def _count_dense(tracer: Tracer, args, result, took) -> None:
    if result is not None:
        tracer.counts["channels.dense_bytes"] += result.nbytes


def _count_validation(tracer: Tracer, args, result, took) -> None:
    if tracer.inside("coherence.coherence_report"):
        tracer.counts["coherence.validations_in_reports"] += 1


def _count_sweep(tracer: Tracer, args, result, took) -> None:
    if result is not None:
        tracer.counts["coherence.sweep_points"] += len(result)


def _count_uniform(tracer: Tracer, args, result, took) -> None:
    if tracer.inside("bargmann.canonicalize"):
        tracer.counts["bargmann.uniform_s"] += took


_HOOKS = {
    "channels.natural_representation": _count_dense,
    "channels.choi": _count_dense,
    "coherence.validate_density_matrix": _count_validation,
    "coherence.coherence_sweep": _count_sweep,
    "channels.apply_uniform": _count_uniform,
}


def _median_ms(values) -> float:
    return float(np.median(values) * 1e3) if values else 0.0


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced phase of wall time ``wall_s``.

    ``bench.self_s`` is the part of the wall time spent outside every
    package span, so it and the seven layer self times add up to ``wall_s``.
    A function the workload never reaches reports 0 calls and 0 ms.
    """
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = sum(v for k, v in tracer.calls.items() if k.startswith(layer + "."))
        out[f"{layer}.self_s"] = tracer.layer_self[layer]
        out[f"{layer}.share"] = tracer.layer_self[layer] / wall_s
    out["bench.self_s"] = wall_s - sum(tracer.layer_self[layer] for layer in LAYERS)
    out["trace.wall_s"] = wall_s
    out["linalg.cyclic_shift.calls"] = tracer.calls["linalg.cyclic_shift"]
    out["numpy.eig.calls"] = tracer.counts["numpy.eig.calls"]
    out["numpy.eig.n3"] = tracer.counts["numpy.eig.n3"]
    out["channels.dense_mb"] = tracer.counts["channels.dense_bytes"] / 1e6
    for name in ("apply_kraus", "apply_uniform", "channel_spectrum", "choi_pt_spectrum"):
        out[f"channels.{name}.ms_p50"] = _median_ms(tracer.durations[f"channels.{name}"])
    out["channels.as_weights.calls"] = tracer.calls["channels.as_weights"]
    reports = tracer.calls["coherence.coherence_report"]
    out["coherence.validations_per_report"] = (
        tracer.counts["coherence.validations_in_reports"] / reports if reports else 0.0
    )
    points = tracer.counts["coherence.sweep_points"]
    sweep_s = sum(tracer.durations["coherence.coherence_sweep"])
    out["coherence.sweep_us_per_point"] = sweep_s / points * 1e6 if points else 0.0
    canon = tracer.durations["bargmann.canonicalize"]
    out["bargmann.canonicalize.ms_p50"] = _median_ms(canon)
    out["bargmann.uniform_share"] = tracer.counts["bargmann.uniform_s"] / sum(canon) if canon else 0.0
    for name in ("apply_uniform_AB", "apply_weighted"):
        out[f"bipartite.{name}.ms_p50"] = _median_ms(tracer.durations[f"bipartite.{name}"])
    encode = decode = 0.0
    for key, took in tracer.fn_self.items():
        if key.startswith("serialize."):
            if "_to_" in key or key.endswith("format_float"):
                encode += took
            elif "_from_" in key:
                decode += took
    out["serialize.encode_s"] = encode
    out["serialize.decode_s"] = decode
    return out
