"""Annotation parsing, segment labeling, mixing, and benchmark generation."""

import hashlib
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import byte_platform, feature_config, oracle_label_segments, segment_set
from eventforest.dataset import (
    EventAnnotation,
    MixtureSpec,
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
from eventforest.forest import SegmentSet


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
    x = np.zeros((1, 4))
    with pytest.raises(ValueError, match="finite"):
        SegmentSet(x, [1], [[np.nan, np.nan]])
    with pytest.raises(ValueError, match="exactly for positives"):
        SegmentSet(x, [0], [[1.0, 2.0]])
    with pytest.raises(ValueError, match="non-negative"):
        SegmentSet(x, [1], [[-1.0, 2.0]])


def test_segment_set_rejects_labels_outside_zero_one():
    for label in (2, -1, 257):
        with pytest.raises(ValueError, match="0 or 1"):
            SegmentSet(np.zeros((1, 4)), [label], [[np.nan, np.nan]])
    with pytest.raises(ValueError, match="finite"):
        SegmentSet(np.zeros((1, 4)), [1], [[np.inf, 0.0]])


def test_segment_set_rows_and_concatenation():
    a = segment_set([([1.0, 2.0], 1, [0.0, 3.0]), ([3.0, 4.0], 0, None)])
    b = segment_set([([5.0, 6.0], 1, [2.0, 1.0])])
    joined = SegmentSet.concatenate([a, b])
    assert (len(joined), joined.n_positive) == (3, 2)
    assert joined.labels.dtype == np.int8
    rows = list(joined)
    assert [row.c for row in rows] == [1, 0, 1]
    assert [row.x.tolist() for row in rows] == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
    assert rows[0].d.tolist() == [0.0, 3.0] and np.isnan(rows[1].d).all()
    x, c, d = rows[2]
    assert (x.tolist(), c, d.tolist()) == ([5.0, 6.0], 1, [2.0, 1.0])


def test_mixture_spec_validation():
    with pytest.raises(ValueError):
        MixtureSpec(min_overlap_fraction=0.0)
    with pytest.raises(ValueError):
        MixtureSpec(min_overlap_fraction=1.5)
    for level in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="SNR level must be finite"):
            MixtureSpec(snr_levels=(0.0, level))


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
    labels, dists = label_segments(feats, [event], "dog")
    assert labels.dtype == np.int8 and dists.shape == (30, 2)
    assert labels[14] == 1
    assert np.array_equal(dists[14], [4.0, 6.0])
    assert labels[10] == 1
    assert np.array_equal(dists[10], [0.0, 10.0])
    assert labels[20] == 1
    assert np.array_equal(dists[20], [10.0, 0.0])
    assert labels[9] == 0 and np.isnan(dists[9]).all()
    assert labels[21] == 0 and np.isnan(dists[21]).all()
    assert np.all(dists[labels == 1].sum(axis=1) + 1 == 11)


def test_label_segments_ignores_other_classes():
    feats = grid_features(30)
    target = span_annotation(5, 9, "dog", feats.config)
    other = span_annotation(8, 16, "cat", feats.config)
    labels, _ = label_segments(feats, [target, other], "dog")
    assert all(labels[m] == 1 for m in range(5, 10))
    assert all(labels[m] == 0 for m in range(10, 17))


def test_label_segments_first_event_claims_overlap():
    feats = grid_features(30)
    first = span_annotation(5, 12, "dog", feats.config)
    second = span_annotation(10, 18, "dog", feats.config)
    labels, dists = label_segments(feats, [first, second], "dog")
    assert np.array_equal(dists[11], [6.0, 1.0])
    assert np.array_equal(dists[13], [3.0, 5.0])
    assert all(labels[m] == 1 for m in range(5, 19))


def test_every_positive_distance_is_consistent():
    feats = grid_features(60)
    events = [
        span_annotation(4, 9, "dog", feats.config),
        span_annotation(20, 33, "dog", feats.config),
    ]
    labels, dists = label_segments(feats, events, "dog")
    seen = {int(d[0] + d[1] + 1) for d in dists[labels == 1]}
    assert seen == {6, 14}


@settings(max_examples=150, deadline=None)
@given(
    n_segments=st.integers(0, 40),
    spans=st.lists(
        st.tuples(st.integers(-3, 42), st.integers(0, 12), st.sampled_from("dc"),
                  st.sampled_from([0.0, 0.3, 0.5, 0.7])),
        max_size=6,
    ),
)
def test_label_segments_matches_row_by_row_oracle(n_segments, spans):
    # Same-class events overlap, some are shorter than one hop (no center
    # inside), and some run past either edge of the stream.
    feats = grid_features(n_segments)
    hop = feats.config.hop_len
    center = feats.config.window_len / 2.0
    events = []
    for start, length, label, shift in spans:
        onset = max(0.0, center + (start + shift) * hop)
        events.append(EventAnnotation(onset, onset + (length + shift) * hop + 1e-4,
                                      label))
    labels, dists = label_segments(feats, events, "d")
    expected_labels, expected_dists = oracle_label_segments(feats, events, "d")
    assert labels.dtype == expected_labels.dtype
    assert np.array_equal(labels, expected_labels)
    assert np.array_equal(dists, expected_dists, equal_nan=True)


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


def test_scale_to_snr_rejects_an_snr_whose_gain_overflows():
    loud = Waveform(np.full(100, 0.1), 16000)
    with pytest.raises(ValueError, match="SNR of 1e\\+308 dB"):
        scale_to_snr(loud, loud.rms(), 1e308)
    # a large gain that a float holds still scales
    assert np.all(np.isfinite(scale_to_snr(loud, loud.rms(), 400.0).samples))


def test_synth_writes_each_scene_before_composing_the_next():
    corpus_args = dict(n_classes=2, instances_per_class=2, scene_len=4.0,
                    events_per_scene=4, seed=7)
    held = synth_benchmark(**corpus_args)
    written, alive = [], {}

    def write_scene(fold, scene, events):
        # only the scene being written is in memory
        assert all(ref() is None for ref in alive.values())
        alive[fold] = weakref.ref(scene)
        written.append((fold, scene.samples.tobytes(), events))

    streamed = synth_benchmark(**corpus_args, write_scene=write_scene)
    assert streamed.dev_scene is None and streamed.test_scene is None
    assert written == [
        ("dev", held.dev_scene.samples.tobytes(), held.dev_events),
        ("test", held.test_scene.samples.tobytes(), held.test_events),
    ]
    assert (streamed.dev_events, streamed.test_events) == (held.dev_events,
                                                           held.test_events)


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
    labels, _ = label_segments(feats, events, "a")
    pos = next(e for e in events if e.label == "a")
    centers = feats.segment_centers()
    inside = (centers >= pos.onset) & (centers < pos.offset)
    assert np.array_equal(labels.astype(bool), inside)


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
    rows = [(np.zeros(dim), 1, [float(i), 0.0]) for i in range(n_pos)]
    rows += [(np.zeros(dim), 0, None)] * n_neg
    return segment_set(rows)


def test_inject_matches_positive_count():
    segments = labeled_toy_segments(100, 5)
    background = grid_features(17).rows
    out = inject_background_segments(segments, background, rng_seed=0)
    added = out.take(np.arange(len(segments), len(out)))
    assert len(added) == 100
    assert not added.labels.any() and np.isnan(added.dists).all()


def test_inject_no_positives_is_identity():
    segments = labeled_toy_segments(0, 5)
    out = inject_background_segments(segments, grid_features(9).rows, rng_seed=0)
    assert len(out) == len(segments)
    assert np.array_equal(out.x, segments.x)
    assert np.array_equal(out.labels, segments.labels)
    assert np.array_equal(out.dists, segments.dists, equal_nan=True)


def test_inject_requires_background():
    with pytest.raises(ValueError):
        inject_background_segments(
            labeled_toy_segments(2, 2), grid_features(0).rows, rng_seed=0
        )


def test_inject_deterministic_per_seed():
    segments = labeled_toy_segments(10, 3)
    background = np.random.default_rng(8).normal(size=(6, 4))
    a = inject_background_segments(segments, background, rng_seed=5)
    b = inject_background_segments(segments, background, rng_seed=5)
    assert len(a) == len(segments) + 10
    assert np.array_equal(a.x, b.x)
    # drawn with replacement from six rows, each one of them
    assert all((background == row).all(axis=1).any() for row in a.x[len(segments):])


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


def test_pink_noise_holds_few_full_length_temporaries():
    n = 960_000
    pink_noise(np.random.default_rng(0), 1000, 16000)  # load the FFT module
    tracemalloc.start()
    try:
        pink_noise(np.random.default_rng(0), n, 16000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / n < 24, f"{peak / n:.1f} bytes per sample"


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
    labels = segments.labels
    assert labels.sum() > 0
    assert (labels == 0).sum() > 0
    assert (segments.dists[labels == 1] >= 0).all()

    # with a background pool, exactly one extra negative per positive
    background = gammatone_cepstra(bench.dev_scene, config).rows
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
    assert np.array_equal(a.x, b.x) and np.array_equal(a.labels, b.labels)


# sha256 of x, labels and dists of the training set below, under the package's
# one BLAS thread (the CLI's setting); the array path must keep every byte.
TRAINING_SET_DIGESTS = (
    "e1375559897fc8a6769709e49a55b6c3ccdd35ac03cb9d91f224cd9c1bc5583f",
    "5fd0309f303d0bbf2d7e7216070fc44531663f77d96c28c38c078e9ab378513a",
    "c8fe71d1db1965410761ef11a23e6187634d2900f0ffbfe3bad5e20555a759d4",
)


def pinned_training_set(instance_features=None, before=()):
    """The pinned class's training set, built after the classes ``before``
    with the same ``instance_features``."""
    bench = synth_benchmark(n_classes=3, instances_per_class=2, scene_len=4.0,
                            events_per_scene=6, seed=6)
    config = feature_config(16)
    instances = {
        label: [(w, [EventAnnotation(0.0, w.duration, label)]) for w in waves]
        for label, waves in bench.train_instances.items()
    }
    background = gammatone_cepstra(bench.dev_scene, config).rows
    for label in (*(bench.class_names[k] for k in before), bench.class_names[1]):
        train = build_training_segments(
            label, instances, config,
            MixtureSpec(snr_levels=(-6.0, 0.0), rng_seed=2),
            background=background,
            background_rms=bench.background_rms,
            instance_features=instance_features,
        )
    return train


def test_build_training_segments_bytes_are_pinned():
    train = pinned_training_set()
    assert (train.x.shape, train.n_positive) == ((1760, 16), 446)
    digests = tuple(
        hashlib.sha256(a.tobytes()).hexdigest()
        for a in (train.x, train.labels, train.dists)
    )
    assert digests == TRAINING_SET_DIGESTS, byte_platform()


def test_shared_instance_features_keep_the_pinned_bytes():
    # the pinned class reuses every isolated instance's features that another
    # class's set made first: 6 instances at 2 levels
    shared = {}
    train = pinned_training_set(shared, before=(0, 2))
    assert len(shared) == 12
    digests = tuple(
        hashlib.sha256(a.tobytes()).hexdigest()
        for a in (train.x, train.labels, train.dists)
    )
    assert digests == TRAINING_SET_DIGESTS, byte_platform()
