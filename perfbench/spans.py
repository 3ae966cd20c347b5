"""Spans around the program's public functions, recorded from outside it.

Each wrapper is installed where callers look the function up, so the
program runs unchanged.  ``gaussvox.splat`` resolves to the function
``splat`` (the package re-exports it under the submodule's name), so
modules are reached through ``importlib.import_module``.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
import tracemalloc

# (span, module, attribute): the lookup sites of each public function.
TARGETS = [
    ("splat.index", "gaussvox.splat", "build_splat_index"),
    ("splat.index", "gaussvox.fitter", "build_splat_index"),
    ("splat.accumulate", "gaussvox.cli", "splat"),
    ("splat.accumulate", "gaussvox.fitter", "splat"),
    ("grid.centers", "gaussvox.grid", "GridSpec.voxel_centers"),
    ("sceneio.read", "gaussvox.cli", "read_scene"),
    ("sceneio.read", "gaussvox.cli", "read_grid"),
    ("sceneio.write", "gaussvox.cli", "write_grid"),
    ("losses.loss", "gaussvox.fitter", "voxel_losses"),
    ("fitter.backward", "gaussvox.fitter", "backward_splat"),
    ("fitter.step", "gaussvox.fitter", "RawGaussianParams.activate"),
    ("fitter.step", "gaussvox.fitter", "AdamW.deltas"),
    ("fitter.step", "gaussvox.fitter", "refine_step"),
    ("metrics.eval", "gaussvox.fitter", "confusion"),
    ("metrics.eval", "gaussvox.fitter", "miou"),
    ("metrics.eval", "gaussvox.fitter", "scene_completion_iou"),
]
SPANS = list(dict.fromkeys(name for name, _, _ in TARGETS))


class Tracer:
    """Records spans in memory while installed: name, start, end, parent.

    With ``memory`` each span also gets the tracemalloc peak above its
    starting level, children included; tracemalloc must then be running.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._saved: list = []

    def install(self) -> None:
        if self._saved:
            return
        for name, module, path in TARGETS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            span = {"name": name, "id": len(self.spans),
                    "parent": self._stack[-1]["id"] if self._stack else None}
            self.spans.append(span)
            if self.memory:
                current, peak = tracemalloc.get_traced_memory()
                if self._stack:
                    self._stack[-1]["seen"] = max(self._stack[-1]["seen"], peak)
                tracemalloc.reset_peak()
                span["base"] = span["seen"] = current
            self._stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                if self.memory:
                    seen = max(span.pop("seen"), tracemalloc.get_traced_memory()[1])
                    span["peak_bytes"] = seen - span.pop("base")
                    if self._stack:
                        self._stack[-1]["seen"] = max(self._stack[-1]["seen"], seen)
            if name == "splat.index":
                span["pairs"] = result.pair_count
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.spans, f)


def per_operation(spans: list[dict], windows: list[tuple[float, float]]) -> list[dict]:
    """Self seconds, calls and pairs per span name for each (start, end) window.

    A span belongs to the window its start falls in.  Self time is its
    duration minus that of its direct children; ``uncovered_s`` is the part
    of the window no top-level span covers.
    """
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    ops = []
    for start, end in windows:
        op = {name: {"self_s": 0.0, "calls": 0} for name in SPANS}
        op["pairs"] = 0
        covered = 0.0
        for s in spans:
            if not start <= s["start"] < end:
                continue
            duration = s["end"] - s["start"]
            op[s["name"]]["self_s"] += duration - child_time.get(s["id"], 0.0)
            op[s["name"]]["calls"] += 1
            op["pairs"] += s.get("pairs", 0)
            if s["parent"] is None:
                covered += duration
        op["uncovered_s"] = (end - start) - covered
        ops.append(op)
    return ops


def peaks_mb(spans: list[dict]) -> dict:
    """Largest traced peak per span name, in MB."""
    peaks = {name: 0.0 for name in SPANS}
    for s in spans:
        peaks[s["name"]] = max(peaks[s["name"]], s.get("peak_bytes", 0) / 1e6)
    return peaks


def layer_metrics(ops: list[dict], peaks: dict, traced_s: list[float],
                  untraced_s: list[float]) -> dict:
    """The per-layer metrics of one traced run, as name -> (value, unit)."""
    out = {}
    for name in SPANS:
        out[f"{name}.self_s"] = (statistics.median(op[name]["self_s"] for op in ops), "s")
        out[f"{name}.calls"] = (statistics.median(op[name]["calls"] for op in ops), "count")
        out[f"{name}.peak_mb"] = (peaks[name], "MB")
    out["splat.pairs"] = (statistics.median(op["pairs"] for op in ops), "count")
    out["trace.uncovered_s"] = (statistics.median(op["uncovered_s"] for op in ops), "s")
    out["trace.overhead_s"] = (statistics.median(traced_s) - statistics.median(untraced_s), "s")
    return out
