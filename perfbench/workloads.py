"""The benchmark workloads: inputs from the seed, set-up, timed passes, checks.

Only public functions of ``fpbits.pipeline``, ``fpbits.template_io`` and
``fpbits.model_store`` are timed, always looked up through the module at call
time so the traced run sees its wrappers. ``fpbits.synth`` makes the inputs
and ``fpbits.matching`` scores each string against itself in the checks.

* ``train-paper``: set-up synthesizes 40x4 training impressions (40 minutiae)
  and 30x4 held-out captures serialized to template text and PGM bytes. A pass
  times ``train_model`` + ``save_model`` with ``PipelineConfig()`` defaults
  (K=200, n_p=50), then ``load_model``, then one closed-loop request per
  held-out capture. No pair matching happens.
* ``encode-verify``: set-up fits the baseline model (20x4, 28 minutiae, K=100,
  n_p=20), saves and reloads it, and serializes a disjoint 120x4 probe grid
  plus 24 sparse captures kept to 0-8 minutiae (a fixed 4 of them with none).
  A pass runs (a) one closed-loop request per capture, (b)
  ``evaluate_fvc_bits``, ``evaluate_split`` and ``compression_sweep`` at
  [K, K/2, K/4] on the grid's encodings, and (c) ``evaluate_fvc_lgs`` on the
  first 30 grid subjects, which re-extracts their descriptors.
"""

from __future__ import annotations

import gc
import hashlib
import math
import sys
import time
import traceback
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from fpbits import matching, model_store, pipeline, synth, template_io
from fpbits.config import PipelineConfig
from fpbits.errors import FpbitsError
from fpbits.template_io import MinutiaTemplate

from spec import ENCODE_VERIFY, TRAIN_PAPER

PROBE_SEED_OFFSET = 1_000_003
SPARSE_SEED_OFFSET = 2_000_003
MIN_PASSES = 2  # the output digests must repeat across passes


@dataclass(frozen=True)
class Sizes:
    train: Tuple[int, int, int]  # subjects, impressions, minutiae
    config: dict  # PipelineConfig overrides
    probes: Tuple[int, int, int]
    sparse_keep: Tuple[int, ...] = ()  # minutiae kept per sparse capture
    lgs_subjects: int = 0
    setups: int = 3  # set-ups per untraced run; setup_s is their median


SIZES = {
    TRAIN_PAPER: Sizes(train=(40, 4, 40), config={}, probes=(30, 4, 40)),
    ENCODE_VERIFY: Sizes(
        train=(20, 4, 28),
        config={"K": 100, "n_p": 20},
        probes=(120, 4, 28),
        sparse_keep=(0, 1, 2, 3, 5, 8) * 4,
        lgs_subjects=30,
        setups=2,  # each fits the baseline model; a third would add ~12 s a run
    ),
}

# Smoke-test sizes: every code path of the full sizes, in seconds.
TOY_SIZES = {
    TRAIN_PAPER: Sizes(train=(6, 4, 16), config={"K": 16, "n_p": 4}, probes=(3, 2, 16)),
    ENCODE_VERIFY: Sizes(
        train=(6, 4, 16),
        config={"K": 16, "n_p": 4},
        probes=(6, 4, 16),
        sparse_keep=(0, 1, 3),
        lgs_subjects=3,
    ),
}


def _synth(shape: Tuple[int, int, int], seed: int):
    s, i, m = shape
    return synth.synth_dataset(
        synth.SynthParams(n_subjects=s, n_impressions=i, n_minutiae=m, seed=seed)
    )


def _serialize(items) -> List[Tuple[Tuple[str, str], str, bytes]]:
    return [
        (key, template_io.serialize_text_template(t), template_io.write_pgm(img))
        for key, (t, img) in sorted(items.items())
    ]


def _sparse_captures(sizes: Sizes, seed: int):
    """Captures outside the grid, each kept to its first few minutiae."""
    n = len(sizes.sparse_keep)
    items = _synth((n, 1, sizes.probes[2]), seed + SPARSE_SEED_OFFSET)
    out = {}
    for (key, (t, img)), keep in zip(sorted(items.items()), sizes.sparse_keep):
        sid = "x" + key[0][1:]
        out[(sid, key[1])] = (
            MinutiaTemplate(t.minutiae[:keep], t.width, t.height, sid, key[1]),
            img,
        )
    return out


# ---------------------------------------------------------------------------
# failure accounting
# ---------------------------------------------------------------------------

class Ops:
    """Attempts each timed operation on its own and counts what it raises."""

    def __init__(self):
        self.attempted = 0
        self.typed: Counter = Counter()
        self.untyped: Counter = Counter()
        self.failed_keys: Counter = Counter()  # (reason, key) of failed requests

    @property
    def failed(self) -> int:
        return sum(self.typed.values()) + sum(self.untyped.values())

    def attempt(self, fn, *args, key=None):
        """``(True, result)``, or ``(False, None)`` after counting the failure."""
        self.attempted += 1
        try:
            return True, fn(*args)
        except FpbitsError as exc:
            self.typed[type(exc).__name__] += 1
            reason = type(exc).__name__
        except Exception as exc:  # keep the run going; report it as untyped
            self.untyped[type(exc).__name__] += 1
            reason = type(exc).__name__
            if sum(self.untyped.values()) <= 3:
                traceback.print_exc(file=sys.stderr)
        if key is not None:
            self.failed_keys[(reason, key)] += 1
        return False, None


@contextmanager
def phase(tracer, name: str, walls: Dict[str, float]):
    """Time one phase; in the traced run it is also a root span."""
    cm = tracer.span(f"phase.{name}") if tracer is not None else nullcontext()
    t0 = time.perf_counter()
    with cm:
        yield
    walls[name] = time.perf_counter() - t0


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

@dataclass
class State:
    config: PipelineConfig
    probes: list  # [(key, template text, pgm bytes)], request order
    grid_keys: list
    items: Optional[dict] = None  # train-paper: the training set
    model: object = None  # encode-verify: the fitted model ...
    loaded: object = None  # ... and its reload from the saved bytes
    model_sha256: str = ""
    train_s: float = 0.0


def setup(workload: str, seed: int, sizes: Sizes) -> State:
    config = PipelineConfig(**sizes.config)
    items = _synth(sizes.train, seed)
    grid = _synth(sizes.probes, seed + PROBE_SEED_OFFSET)
    probes = _serialize(grid)
    state = State(config=config, probes=probes, grid_keys=sorted(grid))
    if workload == TRAIN_PAPER:
        state.items = items
        return state
    t0 = time.perf_counter()
    state.model = pipeline.train_model(items, config)
    blob = model_store.save_model(state.model)
    state.train_s = time.perf_counter() - t0
    state.model_sha256 = hashlib.sha256(blob).hexdigest()
    state.loaded = model_store.load_model(blob)
    state.probes += _serialize(_sparse_captures(sizes, seed))
    return state


# ---------------------------------------------------------------------------
# one pass over the timed calls
# ---------------------------------------------------------------------------

def _request(model, key, text: str, pgm: bytes):
    template = template_io.parse_text_template(text, key[0], key[1])
    image = template_io.read_pgm(pgm)
    encoded = pipeline.encode_impression(template, image, model)
    return template, image, encoded, model_store.save_bitstring(encoded.bits)


def _train_and_save(items, config):
    model = pipeline.train_model(items, config)
    return model, model_store.save_model(model)


@dataclass
class PassResult:
    walls: Dict[str, float] = field(default_factory=dict)
    latencies_ms: List[float] = field(default_factory=list)
    encoded: dict = field(default_factory=dict)  # key -> EncodedImpression
    parsed: dict = field(default_factory=dict)  # key -> (template, image)
    bits_sha256: str = ""
    model_sha256: str = ""
    scores: int = 0
    eers: Dict[str, float] = field(default_factory=dict)
    model: object = None  # the model the requests used
    reference: object = None  # the model it was reloaded from

    @property
    def wall(self) -> float:
        return sum(self.walls.values())


def _requests(state: State, model, ops: Ops, tracer, out: PassResult) -> None:
    blobs = hashlib.sha256()
    with phase(tracer, "requests", out.walls):
        for key, text, pgm in state.probes:
            cm = tracer.span("bench.request") if tracer is not None else nullcontext()
            t0 = time.perf_counter()
            with cm:
                ok, result = ops.attempt(_request, model, key, text, pgm, key=key)
            if ok:
                out.latencies_ms.append((time.perf_counter() - t0) * 1e3)
                template, image, encoded, blob = result
                out.encoded[key] = encoded
                out.parsed[key] = (template, image)
                blobs.update(repr(key).encode() + blob)
    out.bits_sha256 = blobs.hexdigest()


def run_pass(workload: str, state: State, sizes: Sizes, ops: Ops, tracer=None) -> PassResult:
    gc.collect()
    out = PassResult()
    if workload == TRAIN_PAPER:
        with phase(tracer, "train", out.walls):
            ok, result = ops.attempt(_train_and_save, state.items, state.config)
        model, blob = result if ok else (None, b"")
        out.model_sha256 = hashlib.sha256(blob).hexdigest()
        with phase(tracer, "load", out.walls):
            ok, loaded = ops.attempt(model_store.load_model, blob)
        out.model, out.reference = loaded, model
        _requests(state, loaded, ops, tracer, out)
        return out

    out.model, out.reference = state.loaded, state.model
    out.model_sha256 = state.model_sha256
    _requests(state, state.loaded, ops, tracer, out)
    grid = {k: out.encoded[k] for k in state.grid_keys if k in out.encoded}
    k = state.config.K
    with phase(tracer, "eval_bits", out.walls):
        ok, fvc = ops.attempt(pipeline.evaluate_fvc_bits, grid)
        if ok:
            out.eers["eer_bits"] = fvc.eer
            out.scores += fvc.genuine_scores.size + fvc.impostor_scores.size
        ok, split = ops.attempt(pipeline.evaluate_split, grid, state.loaded)
        if ok:
            out.eers["eer_split_trained"] = split.trained.eer
            out.eers["eer_split_untrained"] = split.untrained.eer
            out.scores += 2 * (split.n_genuine + split.n_impostor)
        lengths = [k, k // 2, k // 4]
        ok, sweep = ops.attempt(pipeline.compression_sweep, grid, lengths)
        if ok:
            out.eers["eer_fold_half"] = dict(sweep)[k // 2]
            # the sweep scores the full competition pairing at every length
            s, m = sizes.probes[0], sizes.probes[1]
            out.scores += len(lengths) * (s * m * (m - 1) // 2 + s * (s - 1) // 2)
    subjects = sorted({key[0] for key in state.grid_keys})[: sizes.lgs_subjects]
    subset = {key: out.parsed[key] for key in state.grid_keys
              if key[0] in subjects and key in out.parsed}
    with phase(tracer, "eval_lgs", out.walls):
        ok, lgs = ops.attempt(pipeline.evaluate_fvc_lgs, subset, state.loaded)
        if ok:
            out.eers["eer_lgs"] = lgs.eer
    return out


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def check_pass(workload: str, state: State, result: PassResult) -> List[str]:
    """Problems with one pass's outputs; empty when every check holds."""
    problems = []
    k = state.config.K
    for key, enc in result.encoded.items():
        if len(enc.bits) != k:
            problems.append(f"{key}: string length {len(enc.bits)} != K={k}")
        if enc.bits.ones and matching.intersection_score(enc.bits, enc.bits).value != 1.0:
            problems.append(f"{key}: string does not score 1.0 against itself")
    if not result.encoded:
        problems.append("no request succeeded")
    if workload == ENCODE_VERIFY:
        for name in ("eer_bits", "eer_split_trained", "eer_split_untrained",
                     "eer_fold_half", "eer_lgs"):
            eer = result.eers.get(name)
            if eer is None or not (math.isfinite(eer) and 0.0 <= eer <= 0.5):
                problems.append(f"{name} = {eer} is not a finite value in [0, 0.5]")
    if result.model is None or result.reference is None:
        problems.append("no model to compare the reload against")
    else:
        # The bit-string must be identical. The distance vector may differ in
        # the last bits: the reloaded PCA basis is C-ordered where the fitted
        # one can be Fortran-ordered, so BLAS sums in another order.
        key, text, pgm = state.probes[0]
        a = _request(result.reference, key, text, pgm)[2]
        b = _request(result.model, key, text, pgm)[2]
        if a.bits != b.bits:
            problems.append("reloaded model encodes the first probe to another string")
        if not np.allclose(a.distances.values, b.distances.values, rtol=1e-12, atol=1e-12):
            problems.append("reloaded model gives the first probe other distances")
    return problems


def check_repeats(results: List[PassResult]) -> List[str]:
    problems = []
    for name in ("bits_sha256", "model_sha256"):
        values = {getattr(r, name) for r in results}
        if len(values) != 1:
            problems.append(f"{name} differs across passes: {sorted(values)}")
    return problems
