"""Spans around relfi's public functions, recorded from outside the package.

``Tracer.install`` swaps each traced function for a wrapper wherever a
relfi module holds it, including names bound by ``from ... import`` in
``cli`` and the package namespace, and patches methods on their classes.
``uninstall`` puts the originals back. Each span records its name, the
thread that made it, its start and end, the span that was open on that
thread when it started, and counts keyed by the per-layer metric they
add to, such as ``samplers.draw_rows``. Spans stay in memory until
``drain`` hands them over.

A span's self time is its duration minus the wall-clock union of its
children. Its children are the spans opened directly under it on its own
thread and, for a span on the main thread, the outermost spans of other
threads that lie inside it and inside none of its main-thread children:
the work of a pool that the span waited for. So ``run_experiment``'s self
time excludes the cells its workers ran, and a worker span never loses
time to work done on another worker.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float
    counts: dict

    @property
    def seconds(self) -> float:
        return self.end - self.start


def union_seconds(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the wall-clock union of its children."""
    main = threading.main_thread().ident
    hosts = [s for s in spans if s.thread == main]
    children: dict[int, list] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
        elif span.thread != main:
            around = [h for h in hosts if h.start <= span.start and span.end <= h.end]
            if around:
                innermost = max(around, key=lambda h: h.start)
                children[innermost.id].append((span.start, span.end))
    return {span.id: span.seconds - union_seconds(children[span.id]) for span in spans}


def _draws(args, result):
    return {"samplers.draw_rows": args[1].shape[0]}


def _predictions(args, result):
    return {"models.predict_rows": args[1].shape[0]}


def _cell(args, result):
    return {"engine.cells": 1}


def _matrix(args, result):
    return {"core.matrix_mb": result.nbytes / 1e6}


def _save_csv(args, result):
    return {"core.csv_rows": args[0].n, "core.csv_mb": os.path.getsize(args[1]) / 1e6}


def _load_csv(args, result):
    return {"core.csv_rows": result.n, "core.csv_mb": os.path.getsize(args[0]) / 1e6}


def targets(relfi):
    """(span name, owner, attribute, counter) for every traced callable.

    The owner is a class for methods and the defining module for
    functions; functions are also replaced wherever else they are bound.
    """
    core, engine, samplers = relfi.core, relfi.engine, relfi.samplers
    models, scm, inference, cli = relfi.models, relfi.scm, relfi.inference, relfi.cli
    return [
        ("samplers.sample", samplers.GaussianConditionalSampler, "sample", _draws),
        ("samplers.sample", samplers.KnockoffSampler, "sample", _draws),
        ("samplers.sample", samplers.PointMassSampler, "sample", _draws),
        ("samplers.fit", samplers, "fit_sampler", None),
        ("models.predict", models.LinearModel, "predict", _predictions),
        ("models.fit", models, "fit_from_dataset", None),
        ("core.loss", core.SquaredError, "pointwise", None),
        ("core.matrix", core.Dataset, "matrix", _matrix),
        ("core.save_csv", core, "save_csv", _save_csv),
        ("core.load_csv", core, "load_csv", _load_csv),
        ("engine.compute_rfi", engine, "compute_rfi", _cell),
        ("engine.write_results", engine, "write_results_csv", None),
        ("scm.sample_scm", scm, "sample_scm", None),
        ("inference.test", inference, "paired_t_one_sided", None),
        ("inference.test", inference, "sign_flip_exact", None),
        ("cli.run", cli, "run_experiment", None),
        ("cli.render_figure", cli, "render_figure", None),
    ]


class Tracer:
    def __init__(self, relfi):
        self._relfi = relfi
        self._spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            counts = counter(args, result) if counter else {}
            # list.append is atomic under the GIL; worker threads share the list
            self._spans.append(Span(span_id, parent, name, threading.get_ident(), start, end, counts))
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "relfi" or n.startswith("relfi.")]
        for name, owner, attr, counter in targets(self._relfi):
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, counter)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def drain(self) -> list[Span]:
        spans, self._spans = self._spans, []
        return spans


def layer_metrics(spans) -> dict[str, float]:
    """One pass's totals: ``<span>_s``, ``<span>_self_s``, ``<span>_calls`` and the counts."""
    selfs = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for span in spans:
        out[f"{span.name}_s"] += span.seconds
        out[f"{span.name}_self_s"] += selfs[span.id]
        out[f"{span.name}_calls"] += 1
        for key, value in span.counts.items():
            out[key] += value
    return out
