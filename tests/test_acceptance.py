"""Acceptance checks for the detection pipeline.

Each test verifies one release criterion end to end and prints a single
PASS/FAIL line with the measured quantities (visible with ``pytest -s``
or in the captured output).
"""

import math
import time

import numpy as np
from scipy.integrate import quad

from conftest import (
    FEATURE_DIM,
    blob_stream,
    calibrated_leaf,
    detect_matrix,
    distance_variation,
    draw_candidates,
    entropy,
    feature_config,
    info_gain,
    oracle_best_split,
    random_segments,
    score_matrix,
    segment_set,
    split_test,
    tree_leaves,
)
from eventforest.cli import main
from eventforest.dataset import parse_annotations, write_annotations
from eventforest.detect import DetectConfig, extract_events
from eventforest.evaluate import default_beta_grid, segment_metrics
from eventforest.features import (
    FeatureConfig,
    Waveform,
    gammatone_cepstra,
    resample,
)
from eventforest.forest import (
    OBJECTIVE_CLASSIFICATION,
    OBJECTIVE_REGRESSION,
    ForestConfig,
    gaussian_pdf,
    load_forest,
    save_forest,
    select_best_test,
    train_forest,
)


def _verdict(name: str, failures: list, detail: str = "") -> None:
    status = "PASS" if not failures else "FAIL"
    line = f"[{status}] {name}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert not failures, f"{name}: " + "; ".join(failures[:5])


def test_split_search_equals_brute_force():
    """Vectorized split selection returns the exact brute-force winner."""
    rng = np.random.default_rng(2024)
    failures = []
    compared = 0
    start = time.perf_counter()
    for trial in range(50):
        n = int(rng.integers(4, 51))
        shift = float(rng.uniform(0.0, 2.0))
        segments = random_segments(rng, n, dim=FEATURE_DIM, class_shift=shift)
        seed = int(rng.integers(0, 2**31))
        for objective in (OBJECTIVE_CLASSIFICATION, OBJECTIVE_REGRESSION):
            expected = oracle_best_split(segments, 128, objective, seed)
            choice = select_best_test(
                segments,
                128,
                objective,
                np.random.default_rng(seed),
            )
            if (expected is None) != (choice is None):
                failures.append(
                    f"trial {trial} {objective}: "
                    f"oracle={expected} vs choice={choice}"
                )
                continue
            if expected is None:
                continue
            _, r, q, tau = expected
            if (choice.r, choice.q, choice.tau) != (r, q, tau):
                failures.append(
                    f"trial {trial} {objective}: oracle picked "
                    f"({r},{q},{tau}) but search picked "
                    f"({choice.r},{choice.q},{choice.tau})"
                )
            compared += 1
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.2f} s, limit 10 s")
    _verdict(
        "split search equals brute force on the identical candidate pool",
        failures,
        f"{compared} node comparisons in {elapsed:.2f} s",
    )


def test_objective_properties_hold_on_random_pairs():
    """Gain, entropy, and variation bounds hold on 10,000 random pairs."""
    rng = np.random.default_rng(7_1945)
    failures = []
    pairs = 0
    zero_cases = 0
    for _ in range(250):
        n = int(rng.integers(3, 31))
        segments = random_segments(
            rng, n, dim=FEATURE_DIM, class_shift=float(rng.uniform(0.0, 1.5))
        )
        r_arr, q_arr, tau_arr = draw_candidates(segments, 40, rng)
        for r, q, tau in zip(r_arr, q_arr, tau_arr):
            test = (int(r), int(q), float(tau))
            pairs += 1
            gain = info_gain(test, segments)
            if not gain >= -1e-12:
                failures.append(f"gain {gain} < -1e-12")
            went_right = [split_test(s.x, *test) == 1 for s in segments]
            for side in (True, False):
                labels = [s.c for s, w in zip(segments, went_right) if w == side]
                if labels:
                    h = entropy(labels)
                    if not 0.0 <= h <= 1.0:
                        failures.append(f"entropy {h} outside [0, 1]")
            variation = distance_variation(test, segments)
            if not variation >= 0.0:
                failures.append(f"variation {variation} < 0")
            uniform_sides = True
            for side in (True, False):
                dists = {
                    tuple(s.d)
                    for s, w in zip(segments, went_right)
                    if w == side and s.c == 1
                }
                if len(dists) > 1:
                    uniform_sides = False
            if (variation == 0.0) != uniform_sides:
                failures.append(
                    f"variation {variation} vs single-distance sides "
                    f"{uniform_sides}"
                )
            if variation == 0.0:
                zero_cases += 1
    if pairs != 10_000:
        failures.append(f"examined {pairs} pairs, wanted 10,000")
    if zero_cases == 0:
        failures.append("no zero-variation case was exercised")
    _verdict(
        "objective bounds hold on 10,000 random (set, test) pairs",
        failures,
        f"{pairs} pairs, {zero_cases} exact-zero variations",
    )


def test_leaf_gaussians_integrate_to_one():
    """Leaf vote densities carry unit mass over mean +/- 8 sigma."""
    rng = np.random.default_rng(55)
    failures = []
    worst = 0.0
    for i in range(100):
        n_pos = int(rng.integers(1, 30))
        repeat_one = rng.random() < 0.3
        base = rng.integers(0, 15, size=2).astype(float)
        rows = []
        for j in range(n_pos):
            d = base if repeat_one else rng.integers(0, 15, size=2).astype(float)
            rows.append((rng.normal(size=4), 1, d.copy()))
        for j in range(int(rng.integers(0, 10))):
            rows.append((rng.normal(size=4), 0, None))
        leaf = calibrated_leaf(segment_set(rows))
        for mean, variance in (leaf["onset"], leaf["offset"]):
            sigma = math.sqrt(variance)
            mass, _ = quad(
                lambda t: gaussian_pdf(t, mean, variance),
                mean - 8.0 * sigma,
                mean + 8.0 * sigma,
                limit=200,
            )
            err = abs(mass - 1.0)
            worst = max(worst, err)
            if err > 1e-3:
                failures.append(f"leaf {i}: mass {mass} (var {variance})")
    _verdict(
        "100 random leaf Gaussians integrate to 1 within 1e-3",
        failures,
        f"worst deviation {worst:.2e}",
    )


def test_calibration_conserves_counts(blob_model):
    """Across each tree the calibrated leaves account for every segment."""
    failures = []
    total = len(blob_model.train_segments)
    table = blob_model.forest.table
    for t, leaves in enumerate(tree_leaves(table)):
        arrived = sum(table.n_train[leaves])
        if arrived != total:
            failures.append(f"tree {t}: {arrived} arrivals, expected {total}")
        for p_pos, p_neg in zip(table.p_pos[leaves], table.p_neg[leaves]):
            if p_pos + p_neg != 1.0:
                failures.append(f"tree {t}: p_pos {p_pos} + p_neg {p_neg} != 1")
    _verdict(
        "calibrated arrival counts sum to the full set and posteriors to 1",
        failures,
        f"{blob_model.forest.n_trees} trees over {total} segments",
    )


def test_reproducible_models_and_detections(tmp_path, blob_model):
    """Same seed gives identical model bytes; reloading gives identical output."""
    failures = []
    config = ForestConfig(
        n_trees=3,
        subsample_ratio=0.5,
        n_candidate_tests=200,
        max_depth=5,
        min_segments=12,
        steer_depth=4,
        rng_seed=21,
    )
    fc = feature_config()
    paths = []
    for name in ("first.json", "second.json"):
        forest = train_forest(
            blob_model.train_segments, config, class_label="blob",
            feature_config=fc,
        )
        path = tmp_path / name
        save_forest(forest, path)
        paths.append(path)
    if paths[0].read_bytes() != paths[1].read_bytes():
        failures.append("retraining with the same seed changed the model file")

    model_path = tmp_path / "fitted.json"
    save_forest(blob_model.forest, model_path)
    reloaded = load_forest(model_path)
    configs = {"blob": DetectConfig(alpha=0.5, beta=0.05)}
    out_a = tmp_path / "direct.txt"
    out_b = tmp_path / "reloaded.txt"
    write_annotations(
        detect_matrix(blob_model.test_features, [blob_model.forest], configs),
        out_a,
    )
    write_annotations(
        detect_matrix(blob_model.test_features, [reloaded], configs),
        out_b,
    )
    if out_a.read_bytes() != out_b.read_bytes():
        failures.append("reloaded model changed the detection file")
    if out_a.read_text() == "":
        failures.append("fixture produced no detections to compare")
    _verdict(
        "same seed reproduces model bytes; reloaded model reproduces detections",
        failures,
        f"{len(out_a.read_text().splitlines())} detections compared",
    )


def test_beta_monotonicity_and_ignorance(blob_model):
    """Raising beta never adds detections; above 1 the class goes silent."""
    failures = []
    fc = blob_model.feature_config
    forest = blob_model.forest
    track = score_matrix(blob_model.dev_features, [forest],
                         {"blob": DetectConfig(alpha=0.5, smooth_window=11)})["blob"]
    grid = default_beta_grid() + [1.01]
    counts = [
        len(extract_events(track, beta, fc.hop_len, fc.window_len, "blob"))
        for beta in grid
    ]
    for lo, hi, c_lo, c_hi in zip(grid, grid[1:], counts, counts[1:]):
        if c_hi > c_lo:
            failures.append(
                f"beta {lo}->{hi} raised the count {c_lo}->{c_hi}"
            )
    if counts[0] == 0:
        failures.append("grid floor produced no detections at all")
    if counts[-1] != 0:
        failures.append(f"beta 1.01 still produced {counts[-1]} detections")
    if not blob_model.dev_reference:
        failures.append("reference stream carries no events")
    silent = segment_metrics(
        blob_model.dev_reference,
        [],
        resolution=1.0,
        duration=blob_model.dev_features.duration,
    )
    if silent.error_rate != 1.0:
        failures.append(f"silent error rate {silent.error_rate} != 1.0")
    _verdict(
        "detection count is non-increasing in beta and 1.01 means silence",
        failures,
        f"counts {counts[0]} -> {counts[-1]} over {len(grid)} thresholds; "
        f"silent ER {silent.error_rate}",
    )


def test_end_to_end_synthetic_benchmark(tmp_path):
    """The full pipeline clears the quality bar on the synthetic benchmark."""
    failures = []
    start = time.perf_counter()
    corpus = tmp_path / "corpus"
    models = tmp_path / "models"
    thresholds = tmp_path / "thresholds.json"
    detections = tmp_path / "detections.txt"

    if main(["synth", str(corpus), "--classes", "3", "--instances", "20",
             "--events", "60", "--scene-len", "60", "--snr", "0",
             "--seed", "0"]) != 0:
        failures.append("synth failed")
    reference = parse_annotations(corpus / "test.txt")
    if len(reference) != 60:
        failures.append(f"test scene has {len(reference)} events, wanted 60")
    overlapping = sum(
        any(
            a.onset < b.offset and b.onset < a.offset
            for j, b in enumerate(reference)
            if j != i
        )
        for i, a in enumerate(reference)
    )
    if overlapping < 20:
        failures.append(f"only {overlapping} overlapping placements")

    if not failures:
        if main(["train", str(corpus / "manifest.json"),
                 "--out-dir", str(models),
                 "--tests-per-node", "2000", "--threads", "4"]) != 0:
            failures.append("train failed")
    model_paths = sorted(str(p) for p in models.glob("model_*.json"))
    if len(model_paths) != 3:
        failures.append(f"expected 3 models, found {len(model_paths)}")

    if not failures:
        if main(["tune", str(corpus / "manifest.json"), *model_paths,
                 "--out", str(thresholds)]) != 0:
            failures.append("tune failed")
        args = ["detect", str(corpus / "test.wav")]
        for p in model_paths:
            args += ["--model", p]
        args += ["--thresholds", str(thresholds), "--out", str(detections)]
        if main(args) != 0:
            failures.append("detect failed")

    er = f1 = None
    if not failures:
        hypothesis = parse_annotations(detections)
        score = segment_metrics(reference, hypothesis)
        er, f1 = score.error_rate, score.f1
        if not f1 >= 0.60:
            failures.append(f"segment F1 {f1:.3f} < 0.60")
        if not er <= 0.7:
            failures.append(f"segment ER {er:.3f} > 0.7")
    elapsed = time.perf_counter() - start
    if elapsed >= 300.0:
        failures.append(f"pipeline took {elapsed:.0f} s, limit 300 s")
    detail = f"{overlapping} overlapping placements, {elapsed:.0f} s"
    if er is not None:
        detail = f"segment ER {er:.3f}, F1 {100 * f1:.1f}%, " + detail
    _verdict(
        "synthetic benchmark reaches segment F1 >= 60% and ER <= 0.7 "
        "inside 5 minutes",
        failures,
        detail,
    )


def test_feature_pipeline_counts_and_dimensions():
    """Window bookkeeping, resampler accuracy, and feature width."""
    failures = []
    config = FeatureConfig()
    rate = config.sample_rate
    t = np.arange(rate) / rate
    wave = Waveform(0.3 * np.sin(2.0 * np.pi * 440.0 * t), rate)
    features = gammatone_cepstra(wave, config)
    if features.n_segments != 91:
        failures.append(f"{features.n_segments} segments for 1.0 s, wanted 91")
    if features.rows.shape[1] != 64:
        failures.append(f"feature dimension {features.rows.shape[1]} != 64")
    dc = resample(Waveform(np.full(48000, 0.7), 48000), rate)
    interior = dc.samples[100:-100]
    dc_err = float(np.max(np.abs(interior - 0.7)))
    if not dc_err < 1e-3:
        failures.append(f"resampled DC error {dc_err:.2e} >= 1e-3")
    _verdict(
        "91 segments per second, 64 coefficients, DC resample error < 1e-3",
        failures,
        f"DC error {dc_err:.2e}",
    )


def test_metric_self_consistency():
    """The cell metric scores perfect, silent, and worked cases correctly."""
    from eventforest.dataset import EventAnnotation

    failures = []
    reference = [
        EventAnnotation(onset=0.0, offset=3.0, label="a"),
        EventAnnotation(onset=2.0, offset=6.0, label="b"),
    ]
    perfect = segment_metrics(reference, list(reference), duration=6.0)
    if perfect.error_rate != 0.0 or perfect.f1 != 1.0:
        failures.append(
            f"self-score ER {perfect.error_rate}, F1 {perfect.f1}"
        )
    silent = segment_metrics(reference, [], duration=6.0)
    if silent.error_rate != 1.0:
        failures.append(f"empty-hypothesis ER {silent.error_rate} != 1.0")
    worked = segment_metrics(
        [EventAnnotation(onset=0.0, offset=10.0, label="a")],
        [
            EventAnnotation(onset=0.0, offset=8.0, label="a"),
            EventAnnotation(onset=11.0, offset=12.0, label="a"),
        ],
        duration=12.0,
    )
    if worked.error_rate != 0.3:
        failures.append(f"worked example ER {worked.error_rate} != 0.3")
    if abs(worked.f1 - 16.0 / 19.0) > 1e-12:
        failures.append(f"worked example F1 {worked.f1} != 16/19")
    if abs(100.0 * worked.f1 - 84.2) > 0.1:
        failures.append(f"worked example F1 {100 * worked.f1:.2f}% != 84.2%")
    _verdict(
        "cell metric: perfect on self, ER 1.0 when silent, worked example "
        "ER 0.3 / F1 84.2%",
        failures,
        f"worked ER {worked.error_rate}, F1 {100 * worked.f1:.1f}%",
    )
