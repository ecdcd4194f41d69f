"""Acceptance checks, one printed verdict line per criterion.

Run ``pytest -v -s tests/test_acceptance.py`` to see every verdict line with
its measured values; a plain run shows them only for failures. The full-scale
criteria (4, 11, 12) share one module-scoped synthetic dataset and model.
"""

import math
import time

import numpy as np
import pytest

from fpbits import pipeline
from fpbits.codebook import (
    BitString,
    Codebook,
    centroid_distances,
    encode_bitstring,
    kmeans_train,
)
from fpbits.bit_training import _adaptive_threshold
from fpbits.config import PipelineConfig
from fpbits.errors import FpbitsError
from fpbits.local_structures import StructureGeometry, build_mbls
from fpbits.matching import _pair_budget, fold_compress, intersection_score
from fpbits.protocol import fvc_pairs
from fpbits.subspace_fusion import project, train_pca
from fpbits.synth import SynthParams, synth_dataset
from fpbits.template_io import (
    MINUTIA_DTYPE,
    MINUTIA_KINDS,
    GrayImage,
    MinutiaTemplate,
    parse_text_template,
    read_pgm,
    serialize_text_template,
    write_pgm,
)
from oracles import Minutia, gaussian_response, local_frame, minutia_array


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num:02d} failed: {detail}"


@pytest.fixture(scope="module")
def full_scale():
    """Synthetic 30x8 dataset, trained model, and encoded impressions.

    Encoding keeps the strings sparse (smaller masters, three nominations
    per vector) so the fold-compression comparison stays meaningful; the
    build is timed because the end-to-end budget covers it.
    """
    params = SynthParams(
        n_subjects=30, n_impressions=8, n_minutiae=28, dropout=0.05, seed=11
    )
    config = PipelineConfig(K=200, n_p=20, top_t=3, seed=5)
    start = time.perf_counter()
    items = synth_dataset(params)
    model = pipeline.train_model(items, config)
    encoded = pipeline.encode_dataset(items, model)
    build_seconds = time.perf_counter() - start
    return {
        "model": model,
        "encoded": encoded,
        "build_seconds": build_seconds,
    }


def test_criterion_01_unit_norm():
    rng = np.random.default_rng(101)
    geometry = StructureGeometry.from_config(PipelineConfig())

    count = nonzero = 0
    worst = 0.0
    start = time.perf_counter()
    for _ in range(50):
        minutiae = [
            Minutia(float(x), float(y), float(t))
            for x, y, t in zip(
                rng.uniform(0.0, 300.0, 20),
                rng.uniform(0.0, 300.0, 20),
                rng.uniform(0.0, 2.0 * math.pi, 20),
            )
        ]
        columns = minutia_array(minutiae)
        for row in range(len(columns)):
            vec = build_mbls(columns, row, geometry)
            count += 1
            norm = float(np.linalg.norm(vec))
            if norm > 0.0:
                nonzero += 1
                worst = max(worst, abs(norm - 1.0))
    elapsed = time.perf_counter() - start

    ok = count >= 1000 and nonzero > 0 and worst <= 1e-9 and elapsed < 10.0
    _verdict(
        1,
        ok,
        f"{count} descriptors ({nonzero} nonzero), max |norm - 1| = {worst:.2e} "
        f"(tol 1e-9), {elapsed:.2f}s (budget 10s)",
    )


def _raw_mixture(ref, neighbors, geometry) -> np.ndarray:
    """Bump sum over the descriptor lattice, without the final normalization."""
    scale = geometry.position_scale
    lattice = geometry.lattice_m.astype(np.float64)
    acc = np.zeros(geometry.n_m)
    for m in neighbors:
        u, v, rho = local_frame(ref, m)
        if rho > geometry.config.r_m:
            continue
        sig_t = geometry.config.sigma_t0 + geometry.config.sigma_t_slope * rho
        sig_r = geometry.config.sigma_r0 + geometry.config.sigma_r_slope * rho
        acc += gaussian_response(
            lattice,
            (u * scale, v * scale),
            (sig_t * scale, sig_r * scale),
            math.atan2(v, u) + math.pi / 2.0,
        )
    return acc


def test_criterion_02_matched_pair_distances():
    # Two scenarios share one identical unmatched neighbor pair; they differ
    # only in how many identical matched neighbors sit alongside it.  The
    # unnormalized difference is then the same bump pair in both scenarios,
    # while normalization lets the shared mass pull the vectors together.
    geometry = StructureGeometry.from_config(PipelineConfig())
    ref = Minutia(0.0, 0.0, 0.0)
    matched = [
        Minutia(30.0, 10.0, 1.0),
        Minutia(-25.0, 20.0, 2.5),
        Minutia(5.0, -35.0, 4.0),
    ]
    odd_a = Minutia(50.0, 40.0, 0.5)
    odd_b = Minutia(-45.0, -30.0, 3.5)

    raw_ed = {}
    norm_ed = {}
    for k in (1, 3):
        side_a = matched[:k] + [odd_a]
        side_b = matched[:k] + [odd_b]
        raw_ed[k] = float(
            np.linalg.norm(
                _raw_mixture(ref, side_a, geometry)
                - _raw_mixture(ref, side_b, geometry)
            )
        )
        norm_ed[k] = float(np.linalg.norm(
            build_mbls(minutia_array([ref] + side_a), 0, geometry)
            - build_mbls(minutia_array([ref] + side_b), 0, geometry)
        ))

    gap = abs(raw_ed[1] - raw_ed[3])
    ok = gap <= 1e-9 and norm_ed[3] < norm_ed[1]
    _verdict(
        2,
        ok,
        f"unnormalized EDs {raw_ed[1]:.6f} vs {raw_ed[3]:.6f} (|diff| {gap:.2e}, "
        f"tol 1e-9); normalized d(3-match) {norm_ed[3]:.6f} < d(1-match) {norm_ed[1]:.6f}",
    )


def _pairwise(matrix: np.ndarray) -> np.ndarray:
    diff = matrix[:, None, :] - matrix[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def test_criterion_03_projection_distances():
    rng = np.random.default_rng(303)
    data = rng.normal(size=(50, 30))
    before = _pairwise(data)
    upper = np.triu_indices(50, k=1)

    full = train_pca(data, 30)
    after_full = _pairwise(project(full, data))
    rel = float(np.max(np.abs(after_full[upper] - before[upper]) / before[upper]))

    truncated = train_pca(data, 10)
    after_trunc = _pairwise(project(truncated, data))
    grew = float(np.max(after_trunc[upper] - before[upper]))

    ok = rel <= 1e-6 and grew <= 1e-9
    _verdict(
        3,
        ok,
        f"full-rank max relative distance error {rel:.2e} (tol 1e-6); "
        f"truncation max distance growth {grew:.2e} (must be <= 0)",
    )


def test_criterion_04_rigid_motion(full_scale):
    model = full_scale["model"]
    rng = np.random.default_rng(404)
    size = 384
    margin = 110.0  # keeps every texture patch inside the canvas at any angle

    n = 30
    minutiae_a = [
        Minutia(float(x), float(y), float(t))
        for x, y, t in zip(
            rng.uniform(margin, size - margin, n),
            rng.uniform(margin, size - margin, n),
            rng.uniform(0.0, 2.0 * math.pi, n),
        )
    ]
    phi = float(rng.uniform(0.0, 2.0 * math.pi))
    tx, ty = (float(v) for v in rng.uniform(-15.0, 15.0, 2))
    c = (size - 1) / 2.0
    cph, sph = math.cos(phi), math.sin(phi)
    minutiae_b = [
        Minutia(
            cph * (m.x - c) - sph * (m.y - c) + c + tx,
            sph * (m.x - c) + cph * (m.y - c) + c + ty,
            m.theta + phi,
        )
        for m in minutiae_a
    ]

    columns_a, columns_b = minutia_array(minutiae_a), minutia_array(minutiae_b)
    worst = 0.0
    for row in range(n):
        va = build_mbls(columns_a, row, model.geometry)
        vb = build_mbls(columns_b, row, model.geometry)
        worst = max(worst, float(np.max(np.abs(va - vb))))

    # Band-limited texture: a few plane waves well under the sampling limit,
    # so both views can be evaluated analytically at exact grid positions.
    wave_rng = np.random.default_rng(440)
    waves = []
    for _ in range(5):
        freq = wave_rng.uniform(0.03, 0.09)
        ang = wave_rng.uniform(0.0, 2.0 * math.pi)
        waves.append(
            (freq * math.cos(ang), freq * math.sin(ang), wave_rng.uniform(0.0, 2.0 * math.pi))
        )

    def texture(px: np.ndarray, py: np.ndarray) -> np.ndarray:
        val = np.full(px.shape, 127.5)
        for kx, ky, phase in waves:
            val += 24.0 * np.sin(2.0 * math.pi * (kx * px + ky * py) + phase)
        return val

    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    img_a = GrayImage(np.clip(np.rint(texture(xx, yy)), 0, 255).astype(np.uint8))
    inv_x = cph * (xx - c - tx) + sph * (yy - c - ty) + c
    inv_y = -sph * (xx - c - tx) + cph * (yy - c - ty) + c
    img_b = GrayImage(np.clip(np.rint(texture(inv_x, inv_y)), 0, 255).astype(np.uint8))

    ta = MinutiaTemplate(columns_a, size, size, subject_id="a", impression_id="1")
    tb = MinutiaTemplate(columns_b, size, size, subject_id="b", impression_id="1")
    bits_a = pipeline.encode_impression(ta, img_a, model).bits
    bits_b = pipeline.encode_impression(tb, img_b, model).bits
    union = int(np.logical_or(bits_a.bits, bits_b.bits).sum())
    inter = int(np.logical_and(bits_a.bits, bits_b.bits).sum())
    jaccard = inter / union if union else 0.0

    ok = worst <= 1e-6 and union > 0 and jaccard >= 0.9
    _verdict(
        4,
        ok,
        f"rotation {math.degrees(phi):.1f} deg, shift ({tx:.1f}, {ty:.1f}): "
        f"max descriptor diff {worst:.2e} (tol 1e-6); bit-string Jaccard "
        f"{jaccard:.4f} ({inter}/{union}, floor 0.9)",
    )


def test_criterion_05_kmeans_convergence():
    worst_rise = -math.inf
    centroid_errors = 0
    assign_mismatches = 0
    for trial in range(5):
        rng = np.random.default_rng(500 + trial)
        x = rng.normal(size=(120, 6)) * rng.uniform(0.5, 2.0, size=6)
        trace: list = []
        centroids = kmeans_train(
            x, k=8, max_iters=PipelineConfig().kmeans_max_iters, seed=trial, trace=trace
        )

        scale = max(1.0, trace[0])
        if len(trace) > 1:
            worst_rise = max(worst_rise, float(np.max(np.diff(trace))) / scale)

        assign = np.array(
            [min(range(8), key=lambda j: math.dist(v, centroids[j])) for v in x]
        )
        for j in range(8):
            members = x[assign == j]
            if members.shape[0] == 0:
                centroid_errors += 1
            elif not np.allclose(centroids[j], members.mean(axis=0), atol=1e-9):
                centroid_errors += 1
        library_assign = np.array(
            [int(np.argmin(((v - centroids) ** 2).sum(axis=1))) for v in x]
        )
        assign_mismatches += int((assign != library_assign).sum())

    ok = worst_rise <= 1e-9 and centroid_errors == 0 and assign_mismatches == 0
    _verdict(
        5,
        ok,
        f"5 pools: max relative objective rise {worst_rise:.2e} (must be <= 0); "
        f"fixpoint centroid errors {centroid_errors}; assignment oracle "
        f"mismatches {assign_mismatches}",
    )


def test_criterion_06_encode_oracle():
    rng = np.random.default_rng(606)
    k, dim = 50, 12
    centroids = rng.normal(size=(k, dim))
    radii = rng.uniform(0.2, 1.2, size=k)
    vectors = np.empty((100, dim))
    for i in range(100):
        if i % 2 == 0:  # near some centroid: gate passes
            vectors[i] = centroids[rng.integers(k)] + rng.normal(scale=0.15, size=dim)
        else:  # far away: gate blocks
            vectors[i] = rng.normal(size=dim) * 2.0

    mismatched = []
    set_counts = {}
    for top_t in (1, 5):
        book = Codebook(
            centroids=centroids,
            radii=radii,
            cardinalities=np.ones(k, dtype=np.int64),
        )
        got = encode_bitstring(centroid_distances(vectors, book.centroids), book.radii,
                               -0.05, top_t, True)

        want = np.zeros(k, dtype=bool)
        for v in vectors:
            adjusted = sorted(
                (math.dist(v, centroids[j]) - radii[j], j) for j in range(k)
            )
            for d, j in adjusted[:top_t]:
                if d < -0.05:
                    want[j] = True
        if not np.array_equal(got.bits, want):
            mismatched.append(top_t)
        set_counts[top_t] = got.ones

    ok = not mismatched and set_counts[1] > 0
    _verdict(
        6,
        ok,
        f"100 vectors vs 50 clusters: exhaustive scan matched exactly for "
        f"top_t=1 ({set_counts[1]} bits) and top_t=5 ({set_counts[5]} bits)"
        + (f"; MISMATCH at top_t={mismatched}" if mismatched else ""),
    )


def test_criterion_07_threshold_midpoint():
    n_mean = 2.0
    mid = _adaptive_threshold(n_mean, n_mean, alpha=0.45, beta=0.4)
    err = abs(mid - 0.725)
    values = [_adaptive_threshold(float(t), n_mean, 0.45, 0.4) for t in range(1, 201)]

    # The bar is strictly increasing in exact arithmetic; in doubles its
    # increments drop below one ulp once the sigmoid saturates (rank ~90 at
    # this steepness), so strictness is asserted where doubles can resolve
    # it and the tail must sit pinned at the supremum without ever dipping.
    strict_prefix = all(b > a for a, b in zip(values[:80], values[1:80]))
    never_decreasing = all(b >= a for a, b in zip(values, values[1:]))
    saturated = values[-1] <= 1.0 and values[-1] >= 1.0 - 1e-15
    bounded = values[0] > 0.45

    ok = err <= 1e-12 and strict_prefix and never_decreasing and saturated and bounded
    _verdict(
        7,
        ok,
        f"bar at rank n_mean = {mid!r} (|err| {err:.1e}, tol 1e-12); strictly "
        f"increasing over resolvable ranks 1..80: {strict_prefix}; "
        f"non-decreasing through rank 200 with tail at the supremum: "
        f"{never_decreasing and saturated}",
    )


def test_criterion_08_pair_budget():
    cfg = PipelineConfig()
    params = (cfg.min_nL, cfg.max_nL, cfg.mu_P, cfg.tau_P)
    at_midpoint = _pair_budget(35, 35, *params)
    floor_small = _pair_budget(1, 50, *params)
    floor_min_side = _pair_budget(1000, 1, *params)
    ceiling = _pair_budget(1000, 1000, *params)

    ok = (
        at_midpoint == 7
        and floor_small == 4
        and floor_min_side == 4
        and ceiling == 10
    )
    _verdict(
        8,
        ok,
        f"budget(35) = {at_midpoint} (want 7); floor {floor_small}/{floor_min_side} "
        f"(want 4); ceiling {ceiling} (want 10)",
    )


def test_criterion_09_intersection_arithmetic():
    def bitstring(positions, length=8):
        bits = np.zeros(length, dtype=bool)
        bits[list(positions)] = True
        return BitString(bits)

    a = bitstring({0, 1, 2})
    b = bitstring({1, 2, 3, 4})
    spot = intersection_score(a, b).value

    ident = bitstring({0, 3, 5})
    ident_score = intersection_score(ident, ident).value
    disjoint_score = intersection_score(bitstring({0, 1}), bitstring({5, 6})).value

    ok = spot == 0.56 and ident_score == 1.0 and disjoint_score == 0.0
    _verdict(
        9,
        ok,
        f"(3, 4, 2 common) -> {spot!r} (want exactly 0.56); identity -> "
        f"{ident_score}; disjoint -> {disjoint_score}",
    )


def test_criterion_10_protocol_counts():
    g1, i1 = fvc_pairs(100, 8)
    g2, i2 = fvc_pairs(140, 12)
    counts = (len(g1), len(i1), len(g2), len(i2))
    ok = counts == (2800, 4950, 9240, 9730)
    _verdict(
        10,
        ok,
        f"100x8 -> {counts[0]} genuine / {counts[1]} impostor (want 2800/4950); "
        f"140x12 -> {counts[2]} / {counts[3]} (want 9240/9730)",
    )


def test_criterion_11_end_to_end(full_scale):
    start = time.perf_counter()
    plain = pipeline.evaluate_fvc_bits(full_scale["encoded"])
    split = pipeline.evaluate_split(full_scale["encoded"], full_scale["model"])
    total = full_scale["build_seconds"] + (time.perf_counter() - start)

    ok = (
        plain.eer < 0.25
        and split.trained.eer <= split.untrained.eer + 1e-12
        and total < 300.0
    )
    _verdict(
        11,
        ok,
        f"bit-string EER {plain.eer:.4f} (< 0.25); trained {split.trained.eer:.4f} "
        f"<= untrained {split.untrained.eer:.4f}; total {total:.1f}s (budget 300s)",
    )


def test_criterion_12_fold_compression(full_scale):
    encoded = full_scale["encoded"]
    base = pipeline.evaluate_fvc_bits(encoded)
    folded = pipeline.evaluate_fvc_bits(encoded, fold_to=100)
    delta = folded.eer - base.eer

    empty = 0
    self_mismatch = 0
    for enc in encoded.values():
        short = fold_compress(enc.bits, 100)
        if short.ones == 0:
            empty += 1
        elif intersection_score(short, short).value != 1.0:
            self_mismatch += 1

    ok = delta <= 0.05 + 1e-12 and empty == 0 and self_mismatch == 0
    _verdict(
        12,
        ok,
        f"EER 200 bits {base.eer:.4f} -> 100 bits {folded.eer:.4f} "
        f"(delta {delta:+.4f}, cap +0.05); folded self-scores below 1.0: "
        f"{self_mismatch} of {len(encoded)}",
    )


def _random_template(rng: np.random.Generator, width: int = 256, height: int = 256):
    n = int(rng.integers(1, 40))
    rows = [
        (
            float(rng.uniform(0.0, width - 1e-6)),
            float(rng.uniform(0.0, height - 1e-6)),
            float(rng.uniform(0.0, 2.0 * math.pi)),
            MINUTIA_KINDS[int(rng.integers(len(MINUTIA_KINDS)))],
            int(rng.integers(0, 101)),
        )
        for _ in range(n)
    ]
    return MinutiaTemplate(np.array(rows, dtype=MINUTIA_DTYPE), width, height,
                           subject_id="f", impression_id="1")


def _mutate(rng: np.random.Generator, blob: bytes) -> bytes:
    out = bytearray(blob)
    op = int(rng.integers(4))
    if op == 0 and out:
        for _ in range(int(rng.integers(1, 8))):
            out[int(rng.integers(len(out)))] = int(rng.integers(256))
    elif op == 1:
        out = out[: int(rng.integers(len(out) + 1))]
    elif op == 2:
        pos = int(rng.integers(len(out) + 1))
        out[pos:pos] = bytes(rng.integers(0, 256, size=int(rng.integers(1, 16)), dtype=np.uint8))
    else:
        out = bytearray(rng.integers(0, 256, size=int(rng.integers(0, 200)), dtype=np.uint8))
    return bytes(out)


def test_criterion_13_parser_robustness():
    rng = np.random.default_rng(1313)
    text_seed = serialize_text_template(_random_template(rng)).encode("ascii")
    # a small image, so that most mutations land in the header
    pgm_seed = write_pgm(GrayImage(rng.integers(0, 256, size=(6, 5), dtype=np.uint8)))

    crashes = []
    parsed = rejected = 0
    for i in range(10000):
        if i % 2 == 0:
            payload = _mutate(rng, text_seed)
            attempt = lambda: parse_text_template(payload.decode("latin-1"))
        else:
            payload = _mutate(rng, pgm_seed)
            attempt = lambda: read_pgm(payload)
        try:
            attempt()
            parsed += 1
        except FpbitsError:
            rejected += 1
        except Exception as exc:  # anything untyped is a crash
            if len(crashes) < 5:
                crashes.append(f"{type(exc).__name__}: {exc}")

    roundtrip_errors = 0
    for _ in range(1000):
        template = _random_template(rng)
        back = parse_text_template(
            serialize_text_template(template),
            subject_id=template.subject_id,
            impression_id=template.impression_id,
        )
        same = back.minutiae.tolist() == template.minutiae.tolist()
        if not same:
            roundtrip_errors += 1

    ok = not crashes and roundtrip_errors == 0
    _verdict(
        13,
        ok,
        f"10000 fuzzed parses: {parsed} accepted, {rejected} typed rejections, "
        f"{len(crashes)} crashes"
        + (f" (first: {crashes[0]})" if crashes else "")
        + f"; 1000 text round-trips, {roundtrip_errors} mismatches",
    )
