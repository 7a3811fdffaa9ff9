"""In-memory span tracer that wraps the simulator's module functions from outside.

Each wrapped call records one span (name, start, end, parent). Counters that
need the call's arguments or result run in their own `trace.counters` span,
so their cost is excluded from the self time of the span that caused them.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import os
import time
from collections import defaultdict

import numpy as np

# Layers are the package's modules. Public functions of each are wrapped;
# these private ones are wrapped too, under a layer-level alias.
LAYERS = ("graphs", "gcn", "ies", "server", "experiment")
PRIVATE_ALIASES = {
    "experiment": {
        "_evaluate": "evaluate",
        "_write_matrix": "artifacts",
        "_dump_masks": "artifacts",
        "_dump_reference_recon": "artifacts",
    },
}
COUNTER_SPAN = "trace.counters"


def self_times(spans: list) -> list:
    """Self time of each span: its duration minus the union of its children's.

    `spans` holds (name, start, end, parent) rows; parent is a row index or -1.
    Child intervals are clipped to the parent's interval before the union.
    """
    children = defaultdict(list)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end))
                             for c in children[i]):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


class RepeatCounter:
    """Counts calls whose key equals the key of an earlier call."""

    def __init__(self):
        self.calls = 0
        self.repeats = 0
        self._seen = set()

    def add(self, *parts) -> None:
        h = hashlib.sha256()
        for p in parts:
            h.update(np.ascontiguousarray(p).tobytes() if isinstance(p, np.ndarray)
                     else repr(p).encode())
            h.update(b"\x00")
        key = h.digest()
        self.calls += 1
        if key in self._seen:
            self.repeats += 1
        else:
            self._seen.add(key)

    @property
    def share(self) -> float:
        return self.repeats / self.calls if self.calls else 0.0


class Tracer:
    """Wraps module functions and keeps spans and counters in memory."""

    def __init__(self, run_id: str, embeddings: str = "hidden"):
        self.run_id = run_id
        self.embeddings = embeddings
        self.spans = []          # [name, start, end, parent]
        self.wrapped = set()     # span names of every function that was found
        self.counters = defaultdict(float)
        self.adj_repeats = RepeatCounter()
        self._stack = []
        self._out_dir = None
        # span name -> (hook run before the call or None, hook run after it)
        self._hooks = {
            "gcn.normalize_masked_adjacency": (None, self._count_adjacency),
            "gcn.forward": (None, self._count_forward),
            "ies.reconstruct": (None, self._count_reconstruct),
            "server.similarity_matrix": (None, self._count_similarity),
            "experiment.artifacts": (self._list_files, self._count_artifacts),
        }

    # -- instrumentation -------------------------------------------------
    def install(self, package: str, out_dir: str) -> None:
        """Replace each layer's functions by traced wrappers on the module.

        A function or module that no longer exists is simply not wrapped, so
        its metrics are absent rather than an error.
        """
        self._out_dir = out_dir
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"{package}.{layer}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{layer}":
                    raise
                continue
            aliases = PRIVATE_ALIASES.get(layer, {})
            for attr, fn in list(vars(mod).items()):
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in aliases:
                    continue
                name = f"{layer}.{aliases.get(attr, attr)}"
                setattr(mod, attr, self._wrap(name, fn))
                self.wrapped.add(name)

    def _wrap(self, name: str, fn):
        pre, post = self._hooks.get(name, (None, None))
        sig = inspect.signature(fn) if post else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = self._counted(pre, sig, args, kwargs) if pre else None
            row = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(row)
            row[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = time.perf_counter()
                stack.pop()
            if post:
                self._counted(post, sig, args, kwargs, result, before)
            return result

        return traced

    def _counted(self, hook, sig, args, kwargs, *extra):
        """Run a counter hook in its own span, so no layer is billed for it."""
        row = [COUNTER_SPAN, time.perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1]
        self.spans.append(row)
        try:
            return hook(sig.bind(*args, **kwargs).arguments, *extra)
        finally:
            row[2] = time.perf_counter()

    def _inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    # -- counter hooks: bound arguments, then result and pre-hook value ---
    def _count_adjacency(self, a, result, _):
        self.adj_repeats.add(np.asarray(a["edges"], dtype=np.int64),
                             np.asarray(a["mask_weights"], dtype=np.float64),
                             int(a["num_nodes"]))
        self.counters["gcn.normalize_masked_adjacency.nnz"] += result.nnz

    def _count_forward(self, a, result, _):
        p, adj, x = a["params"], a["norm_adj"], a["features"]
        n, (d, h), c = x.shape[0], p.W1.shape, p.W2.shape[1]
        # the four matmuls of the two layers; biases and ReLU are not counted
        self.counters["gcn.forward.gflop"] += 2.0 * (n * d * h + adj.nnz * h
                                                     + n * h * c + adj.nnz * c) / 1e9
        if self.embeddings == "hidden" and not self._inside("experiment.evaluate"):
            self.counters["gcn.forward.logits_unused"] += 1

    def _count_reconstruct(self, a, result, _):
        self.counters["ies.reconstruct.edges"] += int(np.size(a["edges"]) // 2)

    def _count_similarity(self, a, result, _):
        k = len(a["indicators"])
        self.counters["server.similarity_matrix.pairs"] += k * (k - 1) // 2

    def _list_files(self, a):
        return len(os.listdir(self._out_dir))

    def _count_artifacts(self, a, result, before):
        self.counters["experiment.artifacts.files"] += len(os.listdir(self._out_dir)) - before

    # -- results ---------------------------------------------------------
    def layer_metrics(self) -> dict:
        """Per-layer calls, self and total time, and the counters, by metric name."""
        selfs = self_times(self.spans)
        out = {}
        for name in self.wrapped:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
            out[f"{name}.total_s"] = 0.0
        for (name, start, end, _), st in zip(self.spans, selfs):
            if name == COUNTER_SPAN:
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += st
            out[f"{name}.total_s"] += end - start
        if "gcn.normalize_masked_adjacency" in self.wrapped:
            out["gcn.normalize_masked_adjacency.nnz"] = int(
                self.counters["gcn.normalize_masked_adjacency.nnz"])
            out["gcn.normalize_masked_adjacency.repeat_share"] = self.adj_repeats.share
        if "gcn.forward" in self.wrapped:
            calls = out["gcn.forward.calls"]
            out["gcn.forward.gflop"] = self.counters["gcn.forward.gflop"]
            out["gcn.forward.logits_unused_share"] = (
                self.counters["gcn.forward.logits_unused"] / calls if calls else 0.0)
        for name in ("ies.reconstruct.edges", "server.similarity_matrix.pairs",
                     "experiment.artifacts.files"):
            if name.rsplit(".", 1)[0] in self.wrapped:
                out[name] = int(self.counters[name])
        return out

    def write_spans(self, path: str) -> None:
        """Write the spans as [name, start, end, parent, run id] rows."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[n, s - t0, e - t0, p, self.run_id] for n, s, e, p in self.spans]
        with open(path, "w") as f:
            json.dump(rows, f, separators=(",", ":"))
