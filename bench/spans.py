"""Span recording around the public functions of each homopix layer.

The tracer wraps functions from outside the program: for every layer it
replaces each binding of the original function object in the loaded
``homopix`` modules (``pipeline`` imports ``distance_exact``, ``evaluate``
and the rest by name, so patching the defining module alone would miss
those calls) and puts the originals back when the ``installed`` block
exits.  Spans live in compact in-memory columns and are written out once,
at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from contextlib import contextmanager
from math import comb, lcm

# (layer name, defining module, attribute).  Layer names follow the modules.
LAYERS = (
    ("cli.run", "homopix.cli", "run"),
    ("serialize.certificate_to_json", "homopix.serialize", "certificate_to_json"),
    ("pipeline.choose_parts", "homopix.pipeline", "_choose_parts"),
    ("pipeline.quantize", "homopix.pipeline", "quantize"),
    ("measure.box_color_measures", "homopix.measure", "box_color_measures"),
    ("measure.distance_exact", "homopix.measure", "distance_exact"),
    ("inlay.sample_random_inlay", "homopix.inlay", "sample_random_inlay"),
    ("homogeneity.check_homogeneous", "homopix.homogeneity", "check_homogeneous"),
    ("functions.evaluate", "homopix.functions", "evaluate"),
    ("sampling.sorted_distinct", "homopix.sampling", "sorted_distinct"),
    ("pipeline.certify", "homopix.pipeline", "certify"),
    ("substructure.enumerate_substructures", "homopix.substructure", "enumerate_substructures"),
    ("measure.mu_exact", "homopix.measure", "mu_exact"),
    ("measure.mu_sample", "homopix.measure", "mu_sample"),
)

# The benchmark's own root span, one per job.
JOB_SPAN = "job"

# Deterministic work counters, computed from call arguments and results,
# with their units.
COUNTERS = {
    "measure.distance_exact.cells": "count",
    "measure.mu_exact.assignments": "count",
    "substructure.enumerate_substructures.assignments": "count",
    "substructure.enumerate_substructures.structures": "count",
    "measure.mu_sample.draws": "count",
    "pipeline.parts_scanned": "ratio",
    "inlay.homogeneous_ratio": "ratio",
    "pipeline.accept_ratio": "ratio",
    "functions.step_form.cache_size": "count",
}


class Tracer:
    """Records one span per call of a wrapped layer function.

    Columns: layer id, parent span index (-1 for none), job id, start and
    end (``time.perf_counter`` seconds).  Counts are kept next to them.
    """

    def __init__(self):
        from homopix.functions import resolution

        self._resolution = resolution
        self.names = [JOB_SPAN] + [name for name, _, _ in LAYERS]
        self.layer = array("b")
        self.parent = array("q")
        self.job = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._job = [-1]
        self.counts = {
            "cells": 0,
            "mu_assignments": 0,
            "enum_assignments": 0,
            "structures": 0,
            "draws": 0,
            "homogeneous_inlays": 0,
            "accepted": 0,
        }
        hooks = {
            "measure.distance_exact": self._count_cells,
            "measure.mu_exact": self._count_mu,
            "substructure.enumerate_substructures": self._count_enum,
            "measure.mu_sample": self._count_draws,
            "inlay.sample_random_inlay": self._count_inlay,
            "pipeline.certify": self._count_certify,
        }
        # (module, attribute, original, wrapper) for every binding to patch
        self._bindings = []
        modules = [
            mod for key, mod in sorted(sys.modules.items())
            if key == "homopix" or key.startswith("homopix.")
        ]
        for layer_id, (name, module, attr) in enumerate(LAYERS, start=1):
            original = getattr(importlib.import_module(module), attr)
            wrapper = self._wrap(layer_id, original, hooks.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._bindings.append((mod, key, original, wrapper))

    def _wrap(self, layer_id, fn, hook):
        layer, parent, job, start, end = (
            self.layer, self.parent, self.job, self.start, self.end
        )
        stack, current_job, clock = self._stack, self._job, time.perf_counter
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            layer.append(layer_id)
            parent.append(stack[-1])
            job.append(current_job[0])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(bound.arguments, result)
            return result

        return wrapper

    @contextmanager
    def installed(self, job_id: int):
        """Patch every binding for the duration of one job, inside a root
        ``job`` span; the originals are restored even if the job raises."""
        self._job[0] = job_id
        for mod, key, _, wrapper in self._bindings:
            setattr(mod, key, wrapper)
        i = len(self.start)
        self.layer.append(0)
        self.parent.append(-1)
        self.job.append(job_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[i] = time.perf_counter()
            self._stack.pop()
            for mod, key, original, _ in self._bindings:
                setattr(mod, key, original)
            self._job[0] = -1

    # -- counters --------------------------------------------------------

    def _count_cells(self, a, result):
        # mirrors distance_exact: equal inputs short-circuit; two step forms
        # refine to lcm(res_f, res_g)^d; a threshold side uses res^2
        f, g = a["f"], a["g"]
        if f == g:
            return
        rf, rg = self._resolution(f), self._resolution(g)
        if rf is not None and rg is not None:
            self.counts["cells"] += lcm(rf, rg) ** f.d
        else:
            self.counts["cells"] += (rf or rg) ** 2

    def _count_mu(self, a, result):
        res = self._resolution(a["f"])
        self.counts["mu_assignments"] += comb(res + a["n"] - 1, a["n"])

    def _count_enum(self, a, result):
        self.counts["enum_assignments"] += comb(a["spec"].parts + a["n"] - 1, a["n"])
        self.counts["structures"] += len(result)

    def _count_draws(self, a, result):
        self.counts["draws"] += a["trials"]

    def _count_inlay(self, a, result):
        self.counts["homogeneous_inlays"] += result.spec is not None

    def _count_certify(self, a, result):
        self.counts["accepted"] += result[1] in ("pass", "consistent")

    # -- results ---------------------------------------------------------

    def layer_totals(self) -> dict[str, dict]:
        """Per layer: calls and self time, where self time is a span's
        duration minus the durations of its direct children (spans nest
        strictly in one thread, so children never overlap)."""
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i, layer_id in enumerate(self.layer):
            calls[layer_id] += 1
            self_s[layer_id] += end[i] - start[i] - child[i]
        return {
            name: {"calls": calls[i], "self_s": self_s[i]}
            for i, name in enumerate(self.names)
        }

    def counters(self, totals: dict[str, dict]) -> dict[str, float]:
        """The deterministic counters; ``totals`` is :meth:`layer_totals`."""
        from homopix.functions import step_form

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counts
        return {
            "measure.distance_exact.cells": c["cells"],
            "measure.mu_exact.assignments": c["mu_assignments"],
            "substructure.enumerate_substructures.assignments": c["enum_assignments"],
            "substructure.enumerate_substructures.structures": c["structures"],
            "measure.mu_sample.draws": c["draws"],
            "pipeline.parts_scanned": ratio(
                totals["pipeline.quantize"]["calls"],
                totals["pipeline.choose_parts"]["calls"],
            ),
            "inlay.homogeneous_ratio": ratio(
                c["homogeneous_inlays"], totals["inlay.sample_random_inlay"]["calls"]
            ),
            "pipeline.accept_ratio": ratio(
                c["accepted"], totals["pipeline.certify"]["calls"]
            ),
            "functions.step_form.cache_size": step_form.cache_info().currsize,
        }

    def write(self, stem: str) -> None:
        """Write the spans as ``<stem>.bin`` (the five columns, native byte
        order, one after another) and ``<stem>.json`` (names and layout)."""
        columns = (self.layer, self.parent, self.job, self.start, self.end)
        with open(stem + ".bin", "wb") as fh:
            for column in columns:
                column.tofile(fh)
        header = {
            "spans": len(self.start),
            "names": self.names,
            "columns": [
                {"name": name, "typecode": col.typecode, "itemsize": col.itemsize}
                for name, col in zip(("layer", "parent", "job", "start", "end"), columns)
            ],
            "byteorder": sys.byteorder,
        }
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(header, fh, indent=2)

