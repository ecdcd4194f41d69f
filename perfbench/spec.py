"""What the fpbits benchmark measures: workloads, metric names, units, bounds.

``run.py`` prints from these tables, the smoke test checks against them, and
running this file writes ``BENCHMARK.json`` at the repository root::

    python3 perfbench/spec.py

``BENCHMARK.json`` lists the *gated* metrics only. Every workload must report
each of them, so the gated end-to-end metrics are the ones both workloads
incur, and the gated per-layer metrics are the ones both workloads exercise.
``run.py`` also prints the rest, with units, on the workloads that have them.
README.md defines each metric and maps each layer metric to the end-to-end
metric it should move.
"""

from __future__ import annotations

import json
import os
from collections import namedtuple

Workload = namedtuple("Workload", "name why")
Metric = namedtuple("Metric", "name unit better bound workloads")
LayerMetric = namedtuple("LayerMetric", "name unit better gated")

TRAIN_PAPER = "train-paper"
ENCODE_VERIFY = "encode-verify"
BOTH = (TRAIN_PAPER, ENCODE_VERIFY)
EV = (ENCODE_VERIFY,)

WORKLOADS = (
    Workload(
        TRAIN_PAPER,
        "paper-default fit (K=200, n_p=50) on 40x4 synth, then held-out captures "
        "encoded; no pair matching, so it bypasses every matcher and protocol change",
    ),
    Workload(
        ENCODE_VERIFY,
        "baseline model serves 120x4 probe captures plus sparse ones; the only "
        "workload where pair matching, bit training, the protocol and lgs do real work",
    ),
)

# bound: share of the parent's median by which the metric may worsen (None:
# printed but not gated). The timing bounds are wide because a shared host
# drifts by 10-15% over tens of seconds; see README.md.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25, BOTH),
    Metric("train_s", "s", "lower", 0.25, BOTH),
    Metric("encode_ms_p50", "ms", "lower", 0.25, BOTH),
    Metric("encode_ms_p90", "ms", "lower", 0.25, BOTH),
    Metric("pass_s", "s", "lower", 0.25, BOTH),
    Metric("peak_rss_mb", "MB", "lower", 0.1, BOTH),
    Metric("bits_scores_per_s", "scores/s", "higher", None, EV),
    Metric("lgs_eval_s", "s", "lower", None, EV),
    Metric("eer_bits", "fraction", "lower", None, EV),
    Metric("eer_split_trained", "fraction", "lower", None, EV),
    Metric("eer_split_untrained", "fraction", "lower", None, EV),
    Metric("eer_fold_half", "fraction", "lower", None, EV),
    Metric("eer_lgs", "fraction", "lower", None, EV),
    Metric("ops_failed_frac", "fraction", "lower", None, BOTH),
)

# Every *_s is self time: span duration minus the child spans it contains.
PER_LAYER = (
    LayerMetric("local_structures.build_mbls_s", "s", "lower", True),
    LayerMetric("local_structures.build_mbls_calls", "count", "lower", True),
    LayerMetric("local_structures.extract_tbls_s", "s", "lower", True),
    LayerMetric("local_structures.extract_tbls_calls", "count", "lower", True),
    LayerMetric("local_structures.normalize_image_s", "s", "lower", True),
    LayerMetric("subspace_fusion.train_pca_s", "s", "lower", True),
    LayerMetric("subspace_fusion.train_pca_rows", "count", "lower", True),
    LayerMetric("subspace_fusion.project_s", "s", "lower", True),
    LayerMetric("subspace_fusion.project_calls", "count", "lower", True),
    LayerMetric("subspace_fusion.fuse_s", "s", "lower", True),
    LayerMetric("subspace_fusion.fuse_calls", "count", "lower", True),
    LayerMetric("codebook.kmeans_train_s", "s", "lower", True),
    LayerMetric("codebook.kmeans_iters", "count", "lower", True),
    LayerMetric("codebook.estimate_radii_s", "s", "lower", True),
    LayerMetric("codebook.cluster_cardinalities_s", "s", "lower", True),
    LayerMetric("codebook.encode_bitstring_s", "s", "lower", True),
    LayerMetric("codebook.distance_vector_s", "s", "lower", True),
    LayerMetric("codebook.bits_set_mean", "count", "higher", True),
    LayerMetric("codebook.dead_bits", "count", "lower", True),
    LayerMetric("codebook.always_on_bits", "count", "lower", True),
    LayerMetric("template_io.parse_text_template_s", "s", "lower", True),
    LayerMetric("template_io.read_pgm_s", "s", "lower", True),
    LayerMetric("model_store.save_bitstring_s", "s", "lower", True),
    LayerMetric("model_store.save_model_s", "s", "lower", True),
    LayerMetric("model_store.model_bytes", "bytes", "lower", True),
    LayerMetric("model_store.load_model_s", "s", "lower", True),
    LayerMetric("matching.intersection_score_s", "s", "lower", False),
    LayerMetric("matching.intersection_score_calls", "count", "lower", False),
    LayerMetric("matching.masked_score_s", "s", "lower", False),
    LayerMetric("matching.fold_compress_s", "s", "lower", False),
    LayerMetric("bit_training.train_finger_s", "s", "lower", False),
    LayerMetric("bit_training.mask_keep_rate", "fraction", "higher", False),
    LayerMetric("matching.lgs_score_s", "s", "lower", False),
    LayerMetric("matching.lgs_score_calls", "count", "lower", False),
    LayerMetric("matching.lgs_short_frac", "fraction", "lower", False),
    LayerMetric("protocol.compute_eer_s", "s", "lower", False),
    LayerMetric("protocol.compute_eer_calls", "count", "lower", False),
    LayerMetric("protocol.compute_eer_scores", "count", "lower", False),
    LayerMetric("pipeline.train_model_self_s", "s", "lower", True),
    LayerMetric("pipeline.encode_impression_self_s", "s", "lower", True),
    LayerMetric("pipeline.evaluate_fvc_bits_self_s", "s", "lower", False),
    LayerMetric("pipeline.evaluate_split_self_s", "s", "lower", False),
    LayerMetric("pipeline.compression_sweep_self_s", "s", "lower", False),
    LayerMetric("pipeline.evaluate_fvc_lgs_self_s", "s", "lower", False),
    LayerMetric("trace_overhead_frac", "fraction", "lower", True),
)

BENCHMARK_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")


def benchmark_json() -> dict:
    """The BENCHMARK.json document: the command, workloads and gated metrics."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 30,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
            if m.bound is not None
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
            if m.gated
        ],
    }


def render() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"


if __name__ == "__main__":
    with open(BENCHMARK_PATH, "w", encoding="utf-8") as fh:
        fh.write(render())
    print(f"wrote {os.path.normpath(BENCHMARK_PATH)}")
