"""In-memory span recorder for the traced benchmark run.

Spans are recorded around the package's public functions by replacing them,
for the duration of a traced run, in the namespace of the module that calls
them (``macrodml.cli``, ``macrodml.dml``, ``macrodml.learners``). The package
itself is not modified. Each span holds its name, layer, start and end
(``time.perf_counter``), parent span id and operation id, plus counts read
from the call's arguments and result.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import os
import time

# Functions a pipeline operation calls across a layer boundary, by the module
# whose namespace the call goes through. A span's layer is the module that
# defines the function, except where LAYER_OVERRIDE says otherwise.
TRACED = {
    "macrodml.cli": (
        "run_pipeline", "emit_plots",
        "load_tscs_csv", "load_fund_meta_csv", "filter_funds", "common_range", "to_panel",
        "difference_matrix", "screen_stationarity", "correlation_matrix", "pca_corr",
        "problem_from_panel", "encode_features", "run_dml", "residual_diagnostics",
        "grid_search_cv",
        "render_corr_heatmap", "render_scree", "render_residuals",
    ),
    # run_dml is traced here too because the cross-sectional workload calls it
    # directly; encode_features because cross-fitting calls it per fold.
    "macrodml.dml": ("run_dml", "encode_features", "ols_fit", "gbt_fit", "predict"),
    "macrodml.learners": ("gbt_fit", "predict"),
}
# emit_plots lives in cli but re-reads the run's CSVs and writes the figures,
# which is the plots layer's work.
LAYER_OVERRIDE = {"emit_plots": "plots"}
ROOT_LAYER = "root"


def _annotate_run_pipeline(args, kwargs, result):
    out = args[0].output_dir
    sizes = [e.stat().st_size for e in os.scandir(out) if e.is_file()]
    return {"files": len(sizes), "bytes": sum(sizes)}


def _annotate_load(args, kwargs, result):
    if isinstance(result, list):  # fund metadata catalog
        return {"cells": len(result) * len(dataclasses.fields(result[0])) if result else 0}
    return {"cells": len(result.time_index) * (len(result.columns) + 1)}


def _annotate_to_panel(args, kwargs, result):
    return {"rows": result.n_rows, "x_width": len(result.x_names)}


def _annotate_gbt(args, kwargs, result):
    return {
        "rows": int(len(args[1])),
        "trees": len(result.trees),
        "nodes": sum(int(tree.value.size) for tree in result.trees),
    }


def _annotate_grid(args, kwargs, result):
    best, _ = result
    return {"winner_trees": best.n_trees, "k": kwargs.get("k", 2)}


def _annotate_render(args, kwargs, result):
    return {"bytes": len(result.encode())}


ANNOTATE = {
    "run_pipeline": _annotate_run_pipeline,
    "load_tscs_csv": _annotate_load,
    "load_fund_meta_csv": _annotate_load,
    "to_panel": _annotate_to_panel,
    "gbt_fit": _annotate_gbt,
    "grid_search_cv": _annotate_grid,
    "render_corr_heatmap": _annotate_render,
    "render_scree": _annotate_render,
    "render_residuals": _annotate_render,
}


class Tracer:
    """Records spans in memory; ``install`` routes the traced calls through it."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op_id: str | None = None
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _open(self, name: str, layer: str) -> dict:
        rec = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op_id,
            "name": name,
            "layer": layer,
            "start": 0.0,
            "end": 0.0,
            "attrs": {},
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        return rec

    def _close(self, rec: dict) -> None:
        rec["end"] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        rec = self._open(name, layer)
        try:
            yield rec
        finally:
            self._close(rec)

    def _wrap(self, fn, layer: str):
        name = fn.__name__
        annotate = ANNOTATE.get(name)

        def traced(*args, **kwargs):
            rec = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if annotate is not None:
                rec["attrs"] = annotate(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @property
    def installed(self) -> bool:
        return bool(self._originals)

    def install(self) -> None:
        """Route every TRACED call through this tracer until ``uninstall``."""
        for mod_name, names in TRACED.items():
            module = importlib.import_module(mod_name)
            for name in names:
                fn = getattr(module, name)
                layer = LAYER_OVERRIDE.get(name, fn.__module__.rsplit(".", 1)[-1])
                self._originals.append((module, name, fn))
                setattr(module, name, self._wrap(fn, layer))

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._originals):
            setattr(module, name, fn)
        self._originals.clear()


def op_spans(spans: list[dict], op_id: str) -> list[dict]:
    return [s for s in spans if s["op"] == op_id]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children.

    Calls are sequential, so children never overlap and their summed
    durations equal the part of the parent's interval they cover.
    """
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None and s["parent"] in own:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def nesting_errors(spans: list[dict]) -> list[str]:
    """Children that start before or end after their parent, or that belong
    to another operation than their parent."""
    by_id = {s["id"]: s for s in spans}
    errors = []
    for s in spans:
        if s["end"] < s["start"]:
            errors.append(f"span {s['id']} {s['name']} ends before it starts")
        parent = by_id.get(s["parent"])
        if parent is None:
            continue
        if s["start"] < parent["start"] or s["end"] > parent["end"]:
            errors.append(f"span {s['id']} {s['name']} lies outside parent {parent['name']}")
        if s["op"] != parent["op"]:
            errors.append(f"span {s['id']} {s['name']} has another op than its parent")
    return errors
