"""Traced runs: spans and work counts recorded from outside the package.

A ``Tracer`` replaces each public function named in ``SPANNED`` with a
wrapper that records a span (name, start, end, parent span, run id) and,
for the functions in ``COUNTERS``, work counts derived from the call's
arguments or return value. The wrapper is bound wherever the package binds
the function, e.g. ``neumann_layers`` in ``variation`` and ``sparse``, so a
call made through any import is recorded. ``OperatorSpec.a_at`` is called
millions of times, so it gets a call counter, not spans.

Spans stay in memory; ``write_spans`` saves them when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import math
import os
import sys
import time
from collections import defaultdict
from typing import Dict, Iterator, List

PACKAGE = "jacobilab"

SPANNED = (
    "harness.materialize", "harness.run", "harness.emit",
    "core.solve_forward",
    "subordinacy.detect_subordinate", "subordinacy.pair_log_lnorms",
    "subordinacy.solve_pair",
    "ac_criterion.cesaro_scan", "ac_criterion.gamma_membership",
    "randpert.sample", "randpert.stream_uniforms",
    "randpert.series_convergence_check",
    "variation.neumann_layers", "variation.subordinate_generator_array",
    "sparse.block_matrices", "sparse.find_subordinate_angle",
    "sparse.sparse_propagate", "sparse.perturbed_sparse_experiment",
)


def _sites_n_max(args, result):
    return {"sites": args["n_max"]}


def _neumann_work(args, result):
    layers = len(result[1]) - 1  # sups holds layer 0 plus one per layer
    sites = len(args["b_tilde"]) - args["n_start"]
    return {"layers": layers, "site_layers": layers * sites}


# span name -> work counts from (bound arguments, return value)
COUNTERS = {
    "harness.run": lambda a, r: {
        "cells": r.summary.get("n_cells", 1),
        "cells_failed": r.summary.get("n_failed", len(r.failures))},
    "harness.emit": lambda a, r: {
        "bytes": sum(os.path.getsize(p) for p in r), "files": len(r)},
    "core.solve_forward": _sites_n_max,
    "subordinacy.pair_log_lnorms": lambda a, r: {
        "sites": int(math.floor(max(a["L_grid"]))) + 1},
    "ac_criterion.cesaro_scan": lambda a, r: {"sites": r.N_grid[-1]},
    "ac_criterion.gamma_membership": lambda a, r: {"sites": a["N_max"]},
    "randpert.sample": _sites_n_max,
    "randpert.stream_uniforms": _sites_n_max,
    "variation.neumann_layers": _neumann_work,
}

# per-layer metric suffix -> (count it divides the span time by, scale)
RATES = {
    "ns_per_site": ("sites", 1e9),
    "us_per_site": ("sites", 1e6),
    "us_per_stream": ("calls", 1e6),
    "ns_per_site_layer": ("site_layers", 1e9),
}

# per-layer metrics that are not "<span>.<total>"
ALIASES = {
    "harness.cells": "harness.run.cells",
    "harness.cells_failed": "harness.run.cells_failed",
}


class Tracer:
    """Spans and counts of one traced workload run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[list] = []   # [name, start, end, parent index]
        self.counts: Dict[str, int] = defaultdict(int)
        self.bindings: Dict[str, List[str]] = {}
        self._stack: List[int] = []

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else None])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1:3] = start, end
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in counter(bound.arguments, result).items():
                    counts[f"{name}.{key}"] += value
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every binding of the traced functions; restore them on exit."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name.startswith(PACKAGE + ".")}
        patches = []  # (owner, attribute, original, replacement)
        for span in SPANNED:
            module, func = span.split(".")
            original = getattr(modules[f"{PACKAGE}.{module}"], func)
            wrapper = self._wrap(span, original)
            owners = sorted((name, attr) for name, mod in modules.items()
                            for attr, value in vars(mod).items()
                            if value is original)
            self.bindings[span] = [f"{name}.{attr}" for name, attr in owners]
            patches += [(modules[name], attr, original, wrapper)
                        for name, attr in owners]

        spec_cls = modules[f"{PACKAGE}.core"].OperatorSpec
        a_at = spec_cls.a_at
        counts = self.counts

        def counted_a_at(spec, n):
            counts["core.a_at.calls"] += 1
            return a_at(spec, n)

        patches.append((spec_cls, "a_at", a_at, counted_a_at))
        try:
            for owner, attr, _, replacement in patches:
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original, _ in reversed(patches):
                setattr(owner, attr, original)

    def totals(self) -> Dict[str, float]:
        """Per span name: calls, s (total duration), self_s, and counts.

        Self time is a span's duration minus the part covered by its
        children; children of one span run one after another, so that part
        is the sum of their durations.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: Dict[str, float] = defaultdict(int)
        for (name, start, end, _), covered in zip(self.spans, child):
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - covered
        out.update(self.counts)
        return out

    def write_spans(self, f) -> None:
        for name, start, end, parent in self.spans:
            f.write(json.dumps({"run": self.run_id, "name": name,
                                "start": start, "end": end,
                                "parent": parent}) + "\n")


def layer_metric(totals: Dict[str, float], name: str) -> float:
    """Value of one per-layer metric from a tracer's totals."""
    if name == "subordinacy.useful_pass_ratio":
        passes = totals.get("subordinacy.pair_log_lnorms.calls", 0)
        detects = totals.get("subordinacy.detect_subordinate.calls", 0)
        return detects / passes if passes else 0.0
    base, _, suffix = name.rpartition(".")
    if suffix in RATES:
        count, scale = RATES[suffix]
        denominator = totals.get(f"{base}.{count}", 0)
        return scale * totals.get(f"{base}.s", 0.0) / denominator \
            if denominator else 0.0
    return totals.get(ALIASES.get(name, name), 0)
