"""Annotation parsing, segment labeling, mixing, and benchmark generation."""

import numpy as np
import pytest

from conftest import feature_config
from eventforest.dataset import (
    EventAnnotation,
    MixtureSpec,
    Segment,
    build_training_segments,
    inject_background_segments,
    label_segments,
    mix_overlap,
    parse_annotations,
    pink_noise,
    scale_to_snr,
    synth_benchmark,
    write_annotations,
)
from eventforest.features import FeatureConfig, FeatureMatrix, Waveform, gammatone_cepstra


# ---------------------------------------------------------------- annotations


def test_parse_single_line(tmp_path):
    path = tmp_path / "ann.txt"
    path.write_text("0.5\t1.2\tspeech\n")
    events = parse_annotations(path)
    assert events == [EventAnnotation(0.5, 1.2, "speech")]


def test_parse_empty_file(tmp_path):
    path = tmp_path / "ann.txt"
    path.write_text("")
    assert parse_annotations(path) == []


def test_parse_rejects_reversed_times(tmp_path):
    path = tmp_path / "ann.txt"
    path.write_text("2.0\t1.0\tx\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_annotations(path)


def test_parse_rejects_malformed_line(tmp_path):
    path = tmp_path / "ann.txt"
    path.write_text("0.0\t1.0\ta\nnot-a-row\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_annotations(path)


def test_parse_accepts_commas_and_sorts(tmp_path):
    path = tmp_path / "ann.txt"
    path.write_text("3.0,4.0,b\n1.0,2.0,a\n")
    events = parse_annotations(path)
    assert [e.label for e in events] == ["a", "b"]


def test_annotations_round_trip(tmp_path):
    events = [
        EventAnnotation(0.25, 1.5, "dog"),
        EventAnnotation(2.0, 2.75, "bell"),
    ]
    path = tmp_path / "out.txt"
    write_annotations(events, path)
    assert parse_annotations(path) == events


def test_annotation_validation():
    with pytest.raises(ValueError):
        EventAnnotation(-0.1, 1.0, "x")
    with pytest.raises(ValueError):
        EventAnnotation(1.0, 1.0, "x")
    with pytest.raises(ValueError):
        EventAnnotation(0.0, 1.0, "")


def test_segment_requires_distances_only_for_positives():
    x = np.zeros(4)
    with pytest.raises(ValueError):
        Segment(x=x, c=1, d=None, m=0)
    with pytest.raises(ValueError):
        Segment(x=x, c=0, d=np.array([1.0, 2.0]), m=0)
    with pytest.raises(ValueError):
        Segment(x=x, c=1, d=np.array([-1.0, 2.0]), m=0)


def test_mixture_spec_validation():
    with pytest.raises(ValueError):
        MixtureSpec(min_overlap_fraction=0.0)
    with pytest.raises(ValueError):
        MixtureSpec(min_overlap_fraction=1.5)


# ---------------------------------------------------------------- labeling


def grid_features(n_segments, dim=4):
    config = feature_config(dim)
    rows = np.zeros((n_segments, dim))
    times = np.arange(n_segments) * config.hop_len
    return FeatureMatrix(rows, times, config)


def span_annotation(first, last, label, config):
    """An event whose covered segment centers are exactly first..last."""
    hop = config.hop_len
    center = config.window_len / 2.0
    return EventAnnotation(
        first * hop + center - hop / 2.0,
        last * hop + center + hop / 2.0,
        label,
    )


def test_label_segments_index_arithmetic():
    feats = grid_features(30)
    event = span_annotation(10, 20, "dog", feats.config)
    segments = label_segments(feats, [event], "dog")
    by_index = {s.m: s for s in segments}
    assert by_index[14].c == 1
    assert np.array_equal(by_index[14].d, [4.0, 6.0])
    assert by_index[10].c == 1
    assert np.array_equal(by_index[10].d, [0.0, 10.0])
    assert by_index[20].c == 1
    assert np.array_equal(by_index[20].d, [10.0, 0.0])
    assert by_index[9].c == 0 and by_index[9].d is None
    assert by_index[21].c == 0 and by_index[21].d is None
    for s in segments:
        if s.c == 1:
            assert s.d[0] + s.d[1] + 1 == 11


def test_label_segments_ignores_other_classes():
    feats = grid_features(30)
    target = span_annotation(5, 9, "dog", feats.config)
    other = span_annotation(8, 16, "cat", feats.config)
    segments = label_segments(feats, [target, other], "dog")
    labels = {s.m: s.c for s in segments}
    assert all(labels[m] == 1 for m in range(5, 10))
    assert all(labels[m] == 0 for m in range(10, 17))


def test_label_segments_first_event_claims_overlap():
    feats = grid_features(30)
    first = span_annotation(5, 12, "dog", feats.config)
    second = span_annotation(10, 18, "dog", feats.config)
    segments = label_segments(feats, [first, second], "dog")
    by_index = {s.m: s for s in segments}
    assert np.array_equal(by_index[11].d, [6.0, 1.0])
    assert np.array_equal(by_index[13].d, [3.0, 5.0])
    assert all(by_index[m].c == 1 for m in range(5, 19))


def test_every_positive_distance_is_consistent():
    feats = grid_features(60)
    events = [
        span_annotation(4, 9, "dog", feats.config),
        span_annotation(20, 33, "dog", feats.config),
    ]
    segments = label_segments(feats, events, "dog")
    lengths = {6, 14}
    seen = set()
    for s in segments:
        if s.c == 1:
            seen.add(int(s.d[0] + s.d[1] + 1))
    assert seen == lengths


# ---------------------------------------------------------------- SNR scaling


def test_scale_to_snr_zero_db_is_identity():
    rng = np.random.default_rng(0)
    event = Waveform(rng.normal(size=1000) * 0.25, 16000)
    background = Waveform(rng.normal(size=1000) * 0.25, 16000)
    scaled = scale_to_snr(event, background.rms(), 0.0)
    ratio = scaled.rms() / background.rms()
    assert 20 * np.log10(ratio) == pytest.approx(0.0, abs=1e-6)


def test_scale_to_snr_six_db_factor():
    samples = np.full(100, 0.1)
    event = Waveform(samples, 16000)
    background = Waveform(samples.copy(), 16000)
    scaled = scale_to_snr(event, background.rms(), 6.0)
    factor = scaled.samples[0] / samples[0]
    assert factor == pytest.approx(10 ** (6 / 20), rel=1e-9)
    achieved = 20 * np.log10(scaled.rms() / background.rms())
    assert achieved == pytest.approx(6.0, abs=1e-6)


def test_scale_to_snr_rejects_silence():
    silent = Waveform(np.zeros(100), 16000)
    loud = Waveform(np.full(100, 0.1), 16000)
    with pytest.raises(ValueError):
        scale_to_snr(silent, loud.rms(), 0.0)
    with pytest.raises(ValueError):
        scale_to_snr(loud, silent.rms(), 0.0)


def test_synth_reads_each_sample_once_for_levels(monkeypatch):
    # The bed is measured once per scene and each event once, so synthesis is
    # linear in scene length rather than events x samples.
    read = []
    rms = Waveform.rms

    def counting_rms(self):
        read.append(len(self.samples))
        return rms(self)

    monkeypatch.setattr(Waveform, "rms", counting_rms)
    bench = synth_benchmark(n_classes=2, instances_per_class=2, scene_len=8.0,
                            events_per_scene=9, seed=4)
    rate = bench.sample_rate
    events = bench.dev_events + bench.test_events
    beds = len(bench.dev_scene.samples) + len(bench.test_scene.samples)
    placed = sum(round((e.offset - e.onset) * rate) for e in events)
    assert len(events) == 18
    assert sum(read) <= beds + placed


# ---------------------------------------------------------------- mixing


def test_mix_without_negatives_is_identity():
    wave = Waveform(np.linspace(-0.5, 0.5, 400), 16000)
    mixed, events = mix_overlap((wave, "dog"), [], MixtureSpec())
    assert np.array_equal(mixed.samples, wave.samples)
    assert events == [EventAnnotation(0.0, wave.duration, "dog")]


def test_mix_forced_same_position_adds_samples():
    positive = Waveform(np.array([1.0, 0.0]), 16000)
    negative = Waveform(np.array([0.0, 1.0]), 16000)
    spec = MixtureSpec(min_overlap_fraction=1.0)
    mixed, events = mix_overlap(
        (positive, "a"), [(negative, "b")], spec, rng=np.random.default_rng(0)
    )
    assert np.array_equal(mixed.samples, [1.0, 1.0])
    assert {e.label for e in events} == {"a", "b"}


def test_mix_overlap_fraction_holds_over_seeds():
    rate = 1000
    positive = (Waveform(np.full(rate, 0.1), rate), "a")
    negative = Waveform(np.full(rate, 0.1), rate)
    spec = MixtureSpec(min_overlap_fraction=0.5)
    for seed in range(100):
        mixed, events = mix_overlap(
            positive, [(negative, "b")], spec, rng=np.random.default_rng(seed)
        )
        pos = next(e for e in events if e.label == "a")
        neg = next(e for e in events if e.label == "b")
        overlap = min(pos.offset, neg.offset) - max(pos.onset, neg.onset)
        assert overlap >= 0.5 * (pos.offset - pos.onset) - 1e-9
        assert mixed.duration >= pos.offset - pos.onset


def test_mix_annotations_relabel_exactly():
    rate = 16000
    rng = np.random.default_rng(4)
    positive = (Waveform(rng.normal(size=rate) * 0.1, rate), "a")
    negative = Waveform(rng.normal(size=rate // 2) * 0.1, rate)
    mixed, events = mix_overlap(
        positive, [(negative, "b")], MixtureSpec(), rng=np.random.default_rng(1)
    )
    config = feature_config()
    feats = gammatone_cepstra(mixed, config)
    segments = label_segments(feats, events, "a")
    pos = next(e for e in events if e.label == "a")
    centers = feats.segment_centers()
    inside = (centers >= pos.onset) & (centers < pos.offset)
    got = np.array([s.c for s in segments], bool)
    assert np.array_equal(got, inside)


def test_mix_infeasible_overlap_is_an_error():
    positive = (Waveform(np.full(8, 0.1), 16000), "a")
    negative = Waveform(np.full(3, 0.1), 16000)
    with pytest.raises(ValueError, match="cannot overlap"):
        mix_overlap(
            positive,
            [(negative, "b")],
            MixtureSpec(min_overlap_fraction=1.0),
            rng=np.random.default_rng(0),
        )


def test_mix_rejects_rate_mismatch():
    positive = (Waveform(np.full(100, 0.1), 16000), "a")
    negative = Waveform(np.full(100, 0.1), 8000)
    with pytest.raises(ValueError):
        mix_overlap(positive, [(negative, "b")], MixtureSpec())


# ---------------------------------------------------------------- background


def labeled_toy_segments(n_pos, n_neg, dim=4):
    segments = []
    for i in range(n_pos):
        segments.append(
            Segment(np.zeros(dim), 1, np.array([float(i), 0.0]), i)
        )
    for i in range(n_neg):
        segments.append(Segment(np.zeros(dim), 0, None, n_pos + i))
    return segments


def test_inject_matches_positive_count():
    segments = labeled_toy_segments(100, 5)
    background = grid_features(17)
    out = inject_background_segments(segments, background, rng_seed=0)
    added = out[len(segments):]
    assert len(added) == 100
    assert all(s.c == 0 and s.d is None for s in added)


def test_inject_no_positives_is_identity():
    segments = labeled_toy_segments(0, 5)
    out = inject_background_segments(segments, grid_features(9), rng_seed=0)
    assert out == segments


def test_inject_requires_background():
    with pytest.raises(ValueError):
        inject_background_segments(
            labeled_toy_segments(2, 2), grid_features(0), rng_seed=0
        )


def test_inject_deterministic_per_seed():
    segments = labeled_toy_segments(10, 3)
    rng = np.random.default_rng(8)
    background = FeatureMatrix(
        rng.normal(size=(6, 4)), np.arange(6) * 0.01, feature_config(4)
    )
    a = inject_background_segments(segments, background, rng_seed=5)
    b = inject_background_segments(segments, background, rng_seed=5)
    assert all(
        np.array_equal(x.x, y.x) for x, y in zip(a[len(segments):], b[len(segments):])
    )


# ---------------------------------------------------------------- pink noise


def test_pink_noise_is_unit_rms_and_low_tilted():
    rng = np.random.default_rng(2)
    samples = pink_noise(rng, 16000, 16000)
    rms = np.sqrt(np.mean(samples**2))
    assert rms == pytest.approx(1.0, rel=1e-6)
    spectrum = np.abs(np.fft.rfft(samples)) ** 2
    freqs = np.fft.rfftfreq(16000, d=1 / 16000)
    low = spectrum[(freqs > 20) & (freqs < 500)].mean()
    high = spectrum[freqs > 4000].mean()
    assert low > 4 * high


# ---------------------------------------------------------------- benchmark


def test_benchmark_deterministic_per_seed():
    a = synth_benchmark(n_classes=2, instances_per_class=2, scene_len=4.0,
                        events_per_scene=6, seed=3)
    b = synth_benchmark(n_classes=2, instances_per_class=2, scene_len=4.0,
                        events_per_scene=6, seed=3)
    assert np.array_equal(a.test_scene.samples, b.test_scene.samples)
    assert np.array_equal(a.dev_scene.samples, b.dev_scene.samples)
    assert a.test_events == b.test_events
    c = synth_benchmark(n_classes=2, instances_per_class=2, scene_len=4.0,
                        events_per_scene=6, seed=4)
    assert not np.array_equal(a.test_scene.samples, c.test_scene.samples)


def test_benchmark_bookkeeping():
    bench = synth_benchmark(n_classes=3, instances_per_class=4, scene_len=10.0,
                            events_per_scene=9, seed=0)
    assert sorted(bench.class_names) == sorted(bench.train_instances)
    assert all(len(w) == 4 for w in bench.train_instances.values())
    assert len(bench.test_events) == 9
    per_class = {label: 0 for label in bench.class_names}
    for event in bench.test_events:
        per_class[event.label] += 1
    assert set(per_class.values()) == {3}
    for event in bench.test_events:
        assert event.offset <= bench.test_scene.duration + 1e-6


def test_benchmark_contains_overlapping_pairs():
    bench = synth_benchmark(n_classes=3, instances_per_class=4, scene_len=10.0,
                            events_per_scene=9, seed=1)
    overlapping = set()
    events = bench.test_events
    for i in range(len(events)):
        for j in range(i + 1, len(events)):
            inter = min(events[i].offset, events[j].offset) - max(
                events[i].onset, events[j].onset
            )
            if inter > 0:
                overlapping.update((i, j))
    assert len(overlapping) >= 2 * (9 // 3)


def test_benchmark_classes_are_separable_in_feature_space():
    bench = synth_benchmark(n_classes=3, instances_per_class=3, scene_len=4.0,
                            events_per_scene=6, seed=2)
    config = feature_config(64)
    centroids = {}
    spreads = {}
    for label, waves in bench.train_instances.items():
        rows = np.vstack(
            [gammatone_cepstra(w, config).rows for w in waves]
        )
        centroids[label] = rows.mean(axis=0)
        spreads[label] = np.linalg.norm(rows - rows.mean(axis=0), axis=1).mean()
    labels = list(centroids)
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            gap = np.linalg.norm(centroids[labels[i]] - centroids[labels[j]])
            assert gap > max(spreads[labels[i]], spreads[labels[j]]) * 0.5


# ---------------------------------------------------------------- builder


def test_build_training_segments_small_run():
    bench = synth_benchmark(n_classes=2, instances_per_class=3, scene_len=4.0,
                            events_per_scene=6, seed=6)
    config = feature_config(64)
    instances = {
        label: [(w, [EventAnnotation(0.0, w.duration, label)]) for w in waves]
        for label, waves in bench.train_instances.items()
    }
    mixture = MixtureSpec(snr_levels=(0.0,), rng_seed=0)
    target = bench.class_names[0]
    segments = build_training_segments(target, instances, config, mixture)
    labels = np.array([s.c for s in segments])
    assert labels.sum() > 0
    assert (labels == 0).sum() > 0
    for s in segments:
        if s.c == 1:
            assert s.d[0] >= 0 and s.d[1] >= 0

    # with a background pool, exactly one extra negative per positive
    background = gammatone_cepstra(bench.dev_scene, config)
    with_bg = build_training_segments(
        target, instances, config, mixture,
        background=background, background_rms=bench.background_rms,
    )
    assert len(with_bg) == len(segments) + int(labels.sum())


def test_build_training_segments_deterministic():
    bench = synth_benchmark(n_classes=2, instances_per_class=2, scene_len=4.0,
                            events_per_scene=6, seed=9)
    config = feature_config(64)
    instances = {
        label: [(w, [EventAnnotation(0.0, w.duration, label)]) for w in waves]
        for label, waves in bench.train_instances.items()
    }
    mixture = MixtureSpec(snr_levels=(0.0,), rng_seed=1)
    target = bench.class_names[1]
    a = build_training_segments(target, instances, config, mixture)
    b = build_training_segments(target, instances, config, mixture)
    assert len(a) == len(b)
    assert all(np.array_equal(x.x, y.x) and x.c == y.c for x, y in zip(a, b))
