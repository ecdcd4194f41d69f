"""The fpbits benchmark: one command, two workloads, every metric with its unit.

Run from the repository root::

    python3 perfbench/run.py --workload encode-verify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py    # every workload, untraced then traced, one process

``--trace 0`` runs the untraced measurement (end-to-end metrics), ``--trace 1``
the traced run (per-layer metrics). Lines before the last one name each metric
with its value and unit (``metric <workload> <name> <value> <unit> ...``); the
last line is one JSON object with ``correct``, ``attempted``, ``failed`` and the
metrics that ``BENCHMARK.json`` lists. A failed output check makes ``correct``
false and the exit code 1. ``perfbench/README.md`` explains the workloads, the
metrics and the layer map; ``perfbench/spec.py`` defines them.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time

import spec

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")

# Share of each traced phase that the layers and pipeline must explain; the
# rest is the benchmark's own glue.
MIN_COVERAGE = 0.95

# BLAS/OpenMP pool size, pinned before numpy loads. The only parallel resource
# in the pipeline is this pool (eigh and matmul).
BLAS_THREADS = 2
_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _pin_threads() -> int:
    threads = min(BLAS_THREADS, _nproc())
    for var in _THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


UNITS = {m.name: m.unit for m in spec.END_TO_END + spec.PER_LAYER}


class Report:
    """Collects metric lines for one workload run and prints them."""

    def __init__(self, workload: str):
        self.workload = workload
        self.values = {}
        self.problems = []
        self.ops = None

    def metric(self, name: str, value, note: str = "") -> None:
        unit = UNITS[name]
        self.values[name] = (value, unit)
        print(f"metric {self.workload} {name} {_fmt(value)} {unit}" + (f"  # {note}" if note else ""))

    def info(self, text: str) -> None:
        print(f"info {self.workload} {text}")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _failure_lines(report: Report, ops) -> None:
    report.metric("ops_failed_frac", ops.failed / max(ops.attempted, 1),
                  f"{ops.failed} of {ops.attempted} operations")
    report.info(f"failures typed={dict(ops.typed)} untyped={dict(ops.untyped)}")
    by_reason = {}
    for (reason, key), n in sorted(ops.failed_keys.items()):
        by_reason.setdefault(reason, []).append(f"{key[0]}/{key[1]}x{n}")
    for reason, keys in by_reason.items():
        report.info(f"failed requests {reason}: {' '.join(keys)}")


def run_untraced(workload: str, seed: int, seconds: float, sizes) -> Report:
    import numpy as np

    import workloads as wl

    report = Report(workload)
    ops = wl.Ops()
    setup_walls, train_walls, model_digests = [], [], []
    passes = []
    state = None
    # Set-ups and passes alternate (S P S P, and S again while set-ups are
    # due, then passes while the budget lasts), so each metric's samples
    # spread over the whole run and a slow stretch of a shared host hits all
    # of them alike.
    while len(setup_walls) < sizes.setups or len(passes) < wl.MIN_PASSES or (
        sum(p.wall for p in passes) + statistics.median([p.wall for p in passes]) <= seconds
    ):
        if len(setup_walls) < sizes.setups and len(setup_walls) <= len(passes):
            state = None
            gc.collect()
            t0 = time.perf_counter()
            state = wl.setup(workload, seed, sizes)
            setup_walls.append(time.perf_counter() - t0)
            train_walls.append(state.train_s)
            model_digests.append(state.model_sha256)
        else:
            # Check each pass as it ends and keep only its figures and
            # digests, so the high-water mark is one set-up plus one pass,
            # whatever the number of passes.
            p = wl.run_pass(workload, state, sizes, ops)
            report.problems += wl.check_pass(workload, state, p)
            p.encoded = p.parsed = p.model = p.reference = None
            passes.append(p)

    report.problems += wl.check_repeats(passes)
    if len(set(model_digests)) != 1:
        report.problems.append(f"model digest differs across set-ups: {model_digests}")

    lat = np.asarray([x for p in passes for x in p.latencies_ms])
    n_pass = len(passes)
    report.metric("setup_s", statistics.median(setup_walls), f"median of {len(setup_walls)} set-ups")
    if workload == wl.TRAIN_PAPER:
        report.metric("train_s", statistics.median([p.walls["train"] for p in passes]),
                      f"median of {n_pass} passes")
    else:
        report.metric("train_s", statistics.median(train_walls),
                      f"baseline fit inside set-up, median of {len(train_walls)}")
    if lat.size:
        p50, p90 = (float(v) for v in np.percentile(lat, [50, 90]))
    else:
        p50 = p90 = float("nan")
    report.metric("encode_ms_p50", p50, f"{lat.size} successful requests")
    report.metric("encode_ms_p90", p90, f"{lat.size} successful requests")
    report.metric("pass_s", statistics.median([p.wall for p in passes]), f"median of {n_pass} passes")
    if workload == wl.ENCODE_VERIFY:
        rates = [p.scores / p.walls["eval_bits"] for p in passes]
        report.metric("bits_scores_per_s", statistics.median(rates),
                      f"{passes[-1].scores} scores per pass, median of {n_pass}")
        report.metric("lgs_eval_s", statistics.median([p.walls["eval_lgs"] for p in passes]),
                      f"median of {n_pass} passes")
        for name, eer in passes[-1].eers.items():
            report.metric(name, eer, "deterministic in the seed")
    _failure_lines(report, ops)
    report.metric("peak_rss_mb", _peak_rss_mb(), "process high-water mark")
    report.info(f"phase walls of the last pass: "
                + " ".join(f"{k}={v:.4f}s" for k, v in passes[-1].walls.items()))
    report.info(f"digest bits_sha256 {passes[-1].bits_sha256} (same in all {n_pass} passes: "
                f"{len({p.bits_sha256 for p in passes}) == 1})")
    report.info(f"digest model_sha256 {passes[-1].model_sha256}")
    report.ops = ops
    return report


def run_traced(workload: str, seed: int, sizes) -> Report:
    import numpy as np

    import spans
    import workloads as wl

    report = Report(workload)
    ops = wl.Ops()

    gc.collect()
    t0 = time.perf_counter()
    state = wl.setup(workload, seed, sizes)
    first = wl.run_pass(workload, state, sizes, ops)
    untraced_wall = time.perf_counter() - t0
    report.problems += wl.check_pass(workload, state, first)
    first.encoded = first.parsed = None
    state = None

    tracer = spans.Tracer()
    walls = {}
    gc.collect()
    with tracer.installed():
        t0 = time.perf_counter()
        with wl.phase(tracer, "setup", walls):
            state = wl.setup(workload, seed, sizes)
        traced = wl.run_pass(workload, state, sizes, ops, tracer)
        traced_wall = time.perf_counter() - t0
    report.problems += wl.check_pass(workload, state, traced)
    report.problems += wl.check_repeats([first, traced])
    report.info(f"digest bits_sha256 {traced.bits_sha256} model_sha256 {traced.model_sha256}")

    self_s, calls = tracer.aggregate()
    counters = tracer.counters
    bits = np.array([e.bits.bits for e in traced.encoded.values()], dtype=bool)
    fired = bits.sum(axis=0) if bits.size else np.zeros(state.config.K, dtype=int)
    special = {
        "codebook.kmeans_iters": int(counters["codebook.kmeans_iters"]),
        "subspace_fusion.train_pca_rows": int(counters["subspace_fusion.train_pca_rows"]),
        "model_store.model_bytes": int(counters["model_store.model_bytes"]),
        "protocol.compute_eer_scores": int(counters["protocol.compute_eer_scores"]),
        "matching.lgs_short_frac": counters["matching.lgs_short"] / max(calls["matching.lgs_score"], 1),
        "bit_training.mask_keep_rate": counters["bit_training.mask_kept"]
        / max(calls["bit_training.train_finger"], 1),
        "codebook.bits_set_mean": float(bits.sum(axis=1).mean()) if bits.size else 0.0,
        "codebook.dead_bits": int((fired == 0).sum()),
        "codebook.always_on_bits": int((fired == len(bits)).sum()) if bits.size else 0,
        "trace_overhead_frac": traced_wall / untraced_wall - 1.0,
    }
    for m in spec.PER_LAYER:
        if m.name in special:
            value = special[m.name]
        elif m.name.endswith("_calls"):
            value = calls[m.name[: -len("_calls")]]
        elif m.name.endswith("_self_s"):
            value = self_s[m.name[: -len("_self_s")]]
        else:
            value = self_s[m.name[: -len("_s")]]
        note = "" if m.gated else "not gated: encode-verify only"
        report.metric(m.name, value, note)

    # the layers and pipeline must explain each phase's wall time; the
    # benchmark's own glue (bench) may only be a small part of it
    for ph in tracer.phase_accounting():
        layers = ph["layers"]
        bench = layers.get(spans.BENCH, 0.0)
        pipe = layers.get("pipeline", 0.0)
        coverage = 1.0 - bench / ph["wall"] if ph["wall"] > 0 else 0.0
        detail = " ".join(f"{k}={v:.4f}" for k, v in sorted(layers.items()))
        report.info(f"accounting {ph['name']} wall={ph['wall']:.4f}s layers+pipeline="
                    f"{ph['wall'] - bench:.4f}s pipeline_self={pipe:.4f}s coverage={coverage:.4f} "
                    f"[{detail}]")
        if coverage < MIN_COVERAGE:
            report.problems.append(
                f"{ph['name']}: layers + pipeline cover only {coverage:.3f} of the wall time")

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{workload}.json.gz")
    tracer.write(path)
    report.info(f"{len(tracer.spans)} spans written to {os.path.relpath(path, ROOT)}; "
                f"untraced {untraced_wall:.4f}s traced {traced_wall:.4f}s")
    report.ops = ops
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="train-paper, encode-verify, or all (default)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring budget of an untraced run (at least 2 passes run)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics "
                             "(default: both, in that order)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "fpbits", "__init__.py")):
        print(f"error: no fpbits sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    threads = _pin_threads()
    sys.path.insert(0, os.path.join(ROOT, "src"))

    import numpy as np

    import workloads as wl

    names = [w.name for w in spec.WORKLOADS]
    chosen = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in chosen):
        parser.error(f"unknown workload {args.workload!r}; choose from {names} or all")
    modes = (0, 1) if args.trace is None else (args.trace,)

    print(f"info env nproc={_nproc()} blas_threads={threads} python={platform.python_version()} "
          f"numpy={np.__version__} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    gated = {0: [m.name for m in spec.END_TO_END if m.bound is not None],
             1: [m.name for m in spec.PER_LAYER if m.gated]}
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in chosen:
        for mode in modes:
            if mode == 0:
                report = run_untraced(workload, args.seed, args.seconds, wl.SIZES[workload])
            else:
                report = run_traced(workload, args.seed, wl.SIZES[workload])
            for problem in report.problems:
                print(f"check {workload} FAILED {problem}")
            print(f"check {workload} trace={mode} "
                  f"{'ok' if not report.problems else 'FAILED'}")
            correct = correct and not report.problems
            attempted += report.ops.attempted
            failed += report.ops.failed
            prefix = "" if len(chosen) == 1 and len(modes) == 1 else f"{workload}/"
            for name in gated[mode]:
                value, unit = report.values[name]
                metrics[prefix + name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
