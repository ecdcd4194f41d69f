"""Span recording for the traced benchmark run.

``Tracer.installed()`` rebinds each layer function listed in ``TRACED`` to a
span-recording wrapper in every loaded ``fpbits`` module namespace that holds
it, including the defining module, so intra-layer calls are seen as well
(``matching.masked_score`` calls ``matching.intersection_score``). Leaving the
block restores the original functions. Nothing under ``src/`` changes.

A span is ``[name_id, parent_index, start, end]``; the parent is the
innermost span open when it started. The benchmark opens one root span per
phase, so every layer span belongs to exactly one phase. Spans stay in memory
and are written out once, by ``write``, when the run ends.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# The layers are the src/fpbits modules. synth only generates the load and
# cli is argparse glue over pipeline, so synth is traced only to attribute
# set-up time and cli not at all.
TRACED = {
    "local_structures": ("build_mbls", "extract_tbls", "normalize_image"),
    "subspace_fusion": ("train_pca", "project", "fuse"),
    "codebook": (
        "kmeans_train", "estimate_radii", "cluster_cardinalities",
        "cardinality_weights", "encode_bitstring", "distance_vector", "global_mean",
        # called only because the kmeans_train wrapper passes a trace list;
        # its own span keeps that extra work out of kmeans_train's self time
        "kmeans_objective",
    ),
    "bit_training": ("train_finger",),
    "matching": ("intersection_score", "masked_score", "fold_compress", "lgs_score"),
    "protocol": ("compute_eer", "fvc_pairs"),
    "template_io": ("parse_text_template", "read_pgm", "serialize_text_template", "write_pgm"),
    "model_store": ("save_model", "load_model", "save_bitstring"),
    "pipeline": (
        "train_model", "encode_impression", "evaluate_fvc_bits", "evaluate_split",
        "compression_sweep", "evaluate_fvc_lgs",
    ),
    "synth": ("synth_dataset",),
}

PHASE = "phase"  # name prefix of the benchmark's own root spans
BENCH = "bench"  # name prefix of the benchmark's own non-root spans


class Tracer:
    """In-memory span store plus the counters recorded at layer boundaries."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.spans: list = []
        self._stack: list = []
        self.counters = defaultdict(float)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name_id, parent, time.perf_counter(), 0.0])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        name_id = self._id(name)
        observe = _OBSERVERS.get(name)
        tracer = self

        if name == "codebook.kmeans_train":
            # pass the function's own objective trace, to count iterations
            def wrapper(*args, **kwargs):
                if len(args) >= 5:
                    trace = args[4]
                else:
                    trace = kwargs.setdefault("trace", [])
                idx = tracer._open(name_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
                    tracer.counters["codebook.kmeans_iters"] += len(trace)
        else:
            def wrapper(*args, **kwargs):
                idx = tracer._open(name_id)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
                if observe is not None:
                    observe(tracer.counters, args, kwargs, result)
                return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    @contextmanager
    def installed(self):
        """Rebind every TRACED function in every loaded fpbits namespace."""
        for layer in TRACED:
            importlib.import_module(f"fpbits.{layer}")
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "fpbits" or n.startswith("fpbits."))
        ]
        restore = []
        try:
            for layer, funcs in TRACED.items():
                home = sys.modules[f"fpbits.{layer}"]
                for func in funcs:
                    original = getattr(home, func)
                    wrapper = self._wrap(f"{layer}.{func}", original)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, attr, wrapper)
                                restore.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(restore):
                setattr(mod, attr, original)

    # -- analysis ---------------------------------------------------------

    def self_times(self):
        """Per-span self time, and the index of each span's root (phase) span."""
        n = len(self.spans)
        child = [0.0] * n
        root = [0] * n
        for i, (_, parent, start, end) in enumerate(self.spans):
            if parent < 0:
                root[i] = i
            else:
                root[i] = root[parent]
                child[parent] += end - start
        return [s[3] - s[2] - child[i] for i, s in enumerate(self.spans)], root

    def aggregate(self):
        """Self time and call count per span name, over all phases."""
        self_s = defaultdict(float)
        calls = defaultdict(int)
        own, _ = self.self_times()
        for (name_id, _, _, _), t in zip(self.spans, own):
            self_s[self.names[name_id]] += t
            calls[self.names[name_id]] += 1
        return self_s, calls

    def phase_accounting(self):
        """Per phase: wall time and self time by layer (phase/bench = glue)."""
        own, root = self.self_times()
        phases = {}
        for i, (name_id, parent, start, end) in enumerate(self.spans):
            if parent < 0:
                phases[i] = {"name": self.names[name_id], "wall": end - start,
                             "layers": defaultdict(float)}
        for i, (name_id, _, _, _) in enumerate(self.spans):
            layer = self.names[name_id].split(".", 1)[0]
            if layer == PHASE:
                layer = BENCH
            phases[root[i]]["layers"][layer] += own[i]
        return list(phases.values())

    def write(self, path: str) -> None:
        """Write the span table as gzipped JSON (seconds relative to the first span)."""
        t0 = self.spans[0][2] if self.spans else 0.0
        doc = {
            "names": self.names,
            "fields": ["name", "parent", "start_s", "end_s"],
            "spans": [[n, p, round(s - t0, 9), round(e - t0, 9)] for n, p, s, e in self.spans],
            "counters": dict(self.counters),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


# -- counters recorded at layer boundaries ----------------------------------

def _rows(counters, args, kwargs, result):
    samples = args[0] if args else kwargs["samples"]
    counters["subspace_fusion.train_pca_rows"] += len(samples)


def _model_bytes(counters, args, kwargs, result):
    counters["model_store.model_bytes"] = len(result)


def _eer(counters, args, kwargs, result):
    counters["protocol.compute_eer_scores"] += (
        result.genuine_scores.size + result.impostor_scores.size
    )


def _lgs(counters, args, kwargs, result):
    counters["matching.lgs_short"] += bool(result.short)


def _finger(counters, args, kwargs, result):
    counters["bit_training.mask_kept"] += float(result.mask.mean())


_OBSERVERS = {
    "subspace_fusion.train_pca": _rows,
    "model_store.save_model": _model_bytes,
    "protocol.compute_eer": _eer,
    "matching.lgs_score": _lgs,
    "bit_training.train_finger": _finger,
}
