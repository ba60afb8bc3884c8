"""Spans around eventforest's public functions, installed from outside the package.

A ``Tracer`` replaces each traced function in every ``eventforest`` module that
binds it, because several modules import the same function by name (``cli``
and ``evaluate`` bind ``collect_votes``, ``render_tracks`` and
``extract_events`` from ``detect``) and ``train_tree`` looks
``select_best_test`` up in the globals of ``forest``. Functions that run once
per feature row, such as ``descend`` and ``gaussian_pdf``, are not traced;
their work is counted from rows x trees instead.

A span is ``[name, start, end, parent, thread, counts]`` and stays in memory
until the run ends. A span opened on a worker thread with nothing open on
that thread belongs to the span open on the main thread, so split searches
run by the training thread pool count under ``forest.train_forest``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from contextlib import contextmanager


def _count_audio(counts, result, args):
    counts["audio_s"] = counts.get("audio_s", 0.0) + args["waveform"].duration


def _count_segments(counts, result, args):
    counts["segments"] = counts.get("segments", 0) + len(result)
    positives = sum(1 for segment in result if segment.c == 1)
    counts["positives"] = counts.get("positives", 0) + positives


def _count_cells(counts, result, args):
    cells = len(args["segments"]) * args["n_candidates"]
    counts["cells"] = counts.get("cells", 0) + cells


def _count_routing(counts, result, args):
    rows_trees = args["features"].n_segments * args["forest"].n_trees
    counts["rows_trees"] = counts.get("rows_trees", 0) + rows_trees
    counts["votes"] = counts.get("votes", 0) + len(result.p_pos)


def _count_rendered(counts, result, args):
    rendered = int((args["votes"].p_pos >= args["alpha"]).sum())
    counts["votes_rendered"] = counts.get("votes_rendered", 0) + rendered


def _count_paired(counts, result, args):
    counts["paired"] = counts.get("paired", 0) + len(result)


def _count_peaks(counts, result, args):
    counts["peaks"] = counts.get("peaks", 0) + len(result)


def _count_detections(counts, result, args):
    counts["detections"] = counts.get("detections", 0) + len(result)


def _count_grid(counts, result, args):
    from eventforest.evaluate import default_alpha_grid, default_beta_grid

    alphas = args.get("alphas") or default_alpha_grid()
    betas = args.get("betas") or default_beta_grid()
    per_class = len(alphas) * len(betas) + (1 if args.get("allow_ignorance") else 0)
    counts["grid_points"] = counts.get("grid_points", 0) + len(args["forests"]) * per_class


# (module, function, counter). Each becomes a span named "<module>.<function>".
SPANS = (
    ("features", "load_audio", None),
    ("features", "resample", None),
    ("features", "gammatone_cepstra", _count_audio),
    ("dataset", "synth_benchmark", None),
    ("dataset", "build_training_segments", _count_segments),
    ("forest", "train_forest", None),
    ("forest", "select_best_test", _count_cells),
    ("forest", "calibrate", None),
    ("forest", "save_forest", None),
    ("forest", "load_forest", None),
    ("detect", "collect_votes", _count_routing),
    ("detect", "render_tracks", _count_rendered),
    ("detect", "smooth", None),
    ("detect", "extract_events", _count_paired),
    ("detect", "detect_on_features", _count_detections),
    ("evaluate", "tune_thresholds", _count_grid),
    ("evaluate", "segment_metrics", None),
    ("evaluate", "event_metrics", None),
)

# (module, function, counter) run without a span of their own; the counts go
# to the innermost open span. Peak picking runs twice per extract_events call.
COUNTERS = (("detect", "_peak_indices", _count_peaks),)


class Tracer:
    """Collects spans in memory; ``install`` and ``uninstall`` patch the package."""

    def __init__(self):
        self.spans: list = []
        self._lock = threading.Lock()
        self._main_thread = threading.get_ident()
        self._main_stack: list = []
        self._local = threading.local()
        self._patched: list = []

    def _stack(self) -> list:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str):
        """Record one span; yields the dict that counters add to."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        record = [name, time.perf_counter(), None, parent, threading.get_ident(), {}]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield record[5]
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def _traced(self, function, name, count):
        signature = inspect.signature(function)

        @functools.wraps(function)
        def traced(*args, **kwargs):
            with self.span(name) as counts:
                result = function(*args, **kwargs)
            if count is not None:
                count(counts, result, signature.bind(*args, **kwargs).arguments)
            return result

        return traced

    def _counted(self, function, count):
        signature = inspect.signature(function)

        @functools.wraps(function)
        def counted(*args, **kwargs):
            result = function(*args, **kwargs)
            stack = self._stack()
            if stack:
                arguments = signature.bind(*args, **kwargs).arguments
                count(self.spans[stack[-1]][5], result, arguments)
            return result

        return counted

    def install(self) -> None:
        """Replace every binding of each traced function in the package."""
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if name == "eventforest" or name.startswith("eventforest.")
        ]
        wrappers = {}
        for module_name, function_name, count in SPANS:
            original = getattr(sys.modules[f"eventforest.{module_name}"], function_name)
            name = f"{module_name}.{function_name}"
            wrappers[id(original)] = (original, self._traced(original, name, count))
        for module_name, function_name, count in COUNTERS:
            original = getattr(sys.modules[f"eventforest.{module_name}"], function_name)
            wrappers[id(original)] = (original, self._counted(original, count))
        for module in modules:
            for key, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patched.append((module, key, value))
                    setattr(module, key, entry[1])

    def uninstall(self) -> None:
        for module, key, value in reversed(self._patched):
            setattr(module, key, value)
        self._patched.clear()

    def totals(self) -> dict:
        """Per span name: calls, summed inclusive seconds, and summed counts."""
        out: dict = {}
        for name, start, end, _, _, counts in self.spans:
            total = out.setdefault(name, {"calls": 0, "s": 0.0})
            total["calls"] += 1
            total["s"] += end - start
            for key, value in counts.items():
                total[key] = total.get(key, 0) + value
        return out

    def has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index][3]
        while parent is not None:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def self_seconds(self, index: int) -> float:
        """Span duration minus the direct children run on the same thread."""
        name, start, end, _, thread, _ = self.spans[index]
        children = sum(
            s[2] - s[1] for s in self.spans if s[3] == index and s[4] == thread
        )
        return end - start - children
