"""Training data assembly: annotations, segment labeling, mixing, synthesis."""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from math import ceil, isfinite

import numpy as np

from .features import (
    FeatureConfig,
    FeatureMatrix,
    Waveform,
    gammatone_cepstra,
)
from .forest import SegmentSet


@dataclass(frozen=True)
class EventAnnotation:
    """A labeled time span within a stream."""

    onset: float
    offset: float
    label: str

    def __post_init__(self):
        if not self.label:
            raise ValueError("annotation label must be non-empty")
        if not (isfinite(self.onset) and isfinite(self.offset)):
            raise ValueError(
                f"onset and offset must be finite, got {self.onset} and {self.offset}"
            )
        if self.onset < 0:
            raise ValueError(f"onset must be non-negative, got {self.onset}")
        if self.onset >= self.offset:
            raise ValueError(
                f"onset {self.onset} must precede offset {self.offset}"
            )

    @property
    def duration(self) -> float:
        return self.offset - self.onset


@dataclass(frozen=True)
class MixtureSpec:
    """How event instances are combined into training mixtures."""

    snr_levels: tuple = (-6.0, 0.0, 6.0)
    min_overlap_fraction: float = 0.5
    rng_seed: int = 0

    def __post_init__(self):
        if not self.snr_levels:
            raise ValueError("need at least one SNR level")
        for level in self.snr_levels:
            if not isfinite(level):
                raise ValueError(f"SNR level must be finite, got {level}")
        if not 0.0 < self.min_overlap_fraction <= 1.0:
            raise ValueError(
                f"overlap fraction must be in (0, 1], got {self.min_overlap_fraction}"
            )


def parse_annotations(path) -> list[EventAnnotation]:
    """Read tab- or comma-separated ``onset offset label`` lines, sorted by onset."""
    events = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            text = line.strip()
            if not text:
                continue
            parts = text.split("\t") if "\t" in text else text.split(",")
            if len(parts) != 3:
                raise ValueError(
                    f"{path}: line {lineno}: expected onset, offset, label"
                )
            try:
                onset, offset = float(parts[0]), float(parts[1])
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: non-numeric onset or offset"
                ) from None
            label = parts[2].strip()
            try:
                events.append(EventAnnotation(onset, offset, label))
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
    return sorted(events, key=lambda e: (e.onset, e.offset, e.label))


def write_annotations(events, out) -> None:
    """Write events one per line as tab-separated onset, offset, label.

    ``events`` are annotations or detections: anything with an onset, an
    offset and a label. ``out`` is a path, or an open text stream such as
    ``sys.stdout``.
    """
    lines = (f"{e.onset:.3f}\t{e.offset:.3f}\t{e.label}\n" for e in events)
    if hasattr(out, "write"):
        out.writelines(lines)
        return
    with open(out, "w") as handle:
        handle.writelines(lines)


def _covered(features: FeatureMatrix, events) -> np.ndarray:
    """One ``(first, stop)`` row per event: the segments ``[first, stop)`` whose
    center times fall inside its half-open span [onset, offset)."""
    bounds = [(e.onset, e.offset) for e in events]
    return np.searchsorted(features.segment_centers(), bounds).reshape(-1, 2)


def label_segments(
    features: FeatureMatrix,
    annotations,
    target_class: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Label every row of a feature matrix for one target class.

    A segment belongs to an event when its center time falls inside the
    event's half-open span [onset, offset). Returns int8 labels and (n, 2)
    distances to the first and last member segment of each positive's event,
    NaN on negatives; when same-class events overlap, the earlier event
    claims the shared segments.
    """
    labels = np.zeros(features.n_segments, dtype=np.int8)
    dists = np.full((features.n_segments, 2), np.nan)
    targets = sorted(
        (a for a in annotations if a.label == target_class),
        key=lambda e: (e.onset, e.offset),
    )
    for first, stop in _covered(features, targets):
        m = np.arange(first, stop)  # empty when no center falls inside
        m = m[labels[m] == 0]
        labels[m] = 1
        dists[m] = np.column_stack([m - first, stop - 1 - m])
    return labels, dists


def event_free_rows(features: FeatureMatrix, annotations) -> np.ndarray:
    """The rows of the segments that no event of any class covers, as
    ``label_segments`` places events: background for ``build_training_segments``."""
    keep = np.ones(features.n_segments, dtype=bool)
    for first, stop in _covered(features, annotations):
        keep[first:stop] = False
    return features.rows[keep]


def scale_to_snr(event: Waveform, background_rms: float, snr_db: float) -> Waveform:
    """Scale an event so its power sits ``snr_db`` decibels above a background.

    The background is given by its RMS level, so a caller placing many events
    on one bed measures the bed once.
    """
    event_rms = event.rms()
    if event_rms == 0.0:
        raise ValueError("cannot set SNR of a silent event")
    if not background_rms > 0.0:
        raise ValueError(
            f"cannot set SNR against a background of level {background_rms}"
        )
    try:
        gain = 10.0 ** (snr_db / 20.0)
    except OverflowError:
        raise ValueError(f"cannot scale an event to an SNR of {snr_db} dB") from None
    return Waveform(event.samples * (gain * background_rms / event_rms),
                    event.sample_rate)


def mix_overlap(
    positive: tuple[Waveform, str],
    negatives,
    spec: MixtureSpec,
    rng=None,
) -> tuple[Waveform, list[EventAnnotation]]:
    """Mix one positive instance with negatives at randomized overlaps.

    Every negative is placed so that its intersection with the positive spans
    at least ``min_overlap_fraction`` of the positive's length; offsets are
    drawn uniformly over the feasible integer sample range. The mixture is
    shifted so it starts at time zero, and the returned annotations locate
    every constituent instance in the mixture.
    """
    if rng is None:
        rng = np.random.default_rng(spec.rng_seed)
    pos_wave, pos_label = positive
    n_pos = len(pos_wave.samples)
    if n_pos == 0:
        raise ValueError("positive instance is empty")
    required = ceil(spec.min_overlap_fraction * n_pos)

    placements = [(0, pos_wave, pos_label)]
    for neg_wave, neg_label in negatives:
        if neg_wave.sample_rate != pos_wave.sample_rate:
            raise ValueError(
                f"sample rate mismatch: {neg_wave.sample_rate} vs "
                f"{pos_wave.sample_rate}"
            )
        n_neg = len(neg_wave.samples)
        lo, hi = required - n_neg, n_pos - required
        if n_neg < required or lo > hi:
            raise ValueError(
                f"negative of {n_neg} samples cannot overlap {required} samples "
                f"of a {n_pos}-sample positive"
            )
        offset = int(rng.integers(lo, hi + 1))
        placements.append((offset, neg_wave, neg_label))

    start = min(offset for offset, _, _ in placements)
    end = max(offset + len(w.samples) for offset, w, _ in placements)
    canvas = np.zeros(end - start)
    annotations = []
    rate = pos_wave.sample_rate
    for offset, wave, label in placements:
        shifted = offset - start
        canvas[shifted : shifted + len(wave.samples)] += wave.samples
        annotations.append(
            EventAnnotation(shifted / rate, (shifted + len(wave.samples)) / rate, label)
        )
    annotations.sort(key=lambda e: (e.onset, e.offset, e.label))
    return Waveform(canvas, rate), annotations


def inject_background_segments(
    train: SegmentSet,
    background_rows: np.ndarray,
    rng_seed: int = 0,
) -> SegmentSet:
    """Append one background row per positive training segment as a negative.

    Rows are drawn from ``background_rows`` without replacement when there
    are enough of them, with replacement otherwise.
    """
    n_rows = len(background_rows)
    if n_rows == 0:
        raise ValueError("background stream contains no segments")
    n_pos = train.n_positive
    if n_pos == 0:
        return train
    rng = np.random.default_rng(rng_seed)
    indices = rng.choice(n_rows, size=n_pos, replace=n_rows < n_pos)
    extra = SegmentSet(background_rows[indices], np.zeros(n_pos),
                       np.full((n_pos, 2), np.nan))
    return SegmentSet.concatenate([train, extra])


def build_training_segments(
    target_class: str,
    instances: dict,
    feature_config: FeatureConfig,
    mixture: MixtureSpec,
    background: np.ndarray | None = None,
    background_rms: float | None = None,
    instance_features: dict | None = None,
) -> SegmentSet:
    """Assemble the per-class training set from isolated event instances.

    ``instances`` maps each class label to a list of (waveform, annotations)
    pairs recorded in isolation. Per SNR level, the set contains the target
    instances alone, each target instance mixed with one random instance of
    every other class, the other-class instances alone, and as many
    negative-negative mixtures as there are target instances. When the level
    of the deployment background is known, events are scaled to the SNR level
    against it before mixing. All mixtures are of clean recordings, so noise
    subtraction stays off regardless of the configured stream preprocessing.
    When background feature rows are given, one of them is injected as an
    extra negative per positive segment. The sets of all mixtures are joined
    in the order they were made.

    ``instance_features`` maps ``(class, index, snr_db)`` to the features of
    that isolated instance at that level. Features found there are used, and
    the missing ones are added, so calls for several target classes that
    share one dict featurize each instance once per level; only the labels
    depend on the target class. Share a dict only between calls with the same
    ``instances``, ``feature_config`` and ``background_rms``.
    """
    if target_class not in instances:
        raise ValueError(f"no instances for target class {target_class}")
    other_classes = sorted(c for c in instances if c != target_class)
    clean_config = replace(feature_config, noise_subtraction=False)
    rng = np.random.default_rng(
        [mixture.rng_seed, zlib.crc32(target_class.encode())]
    )
    def _scaled(wave, snr_db):
        if background_rms is None:
            return wave
        return scale_to_snr(wave, background_rms, snr_db)

    def _labeled(feats, annotations):
        return SegmentSet(feats.rows, *label_segments(feats, annotations, target_class))

    def _collect(wave, annotations):
        return _labeled(gammatone_cepstra(wave, clean_config), annotations)

    features = {} if instance_features is None else instance_features

    def _isolated(cls, index, snr_db):
        wave, annotations = instances[cls][index]
        key = (cls, index, snr_db)
        if key not in features:
            features[key] = gammatone_cepstra(_scaled(wave, snr_db), clean_config)
        return _labeled(features[key], annotations)

    def _long_enough(candidates, n_lead):
        required = ceil(mixture.min_overlap_fraction * n_lead)
        return [c for c in candidates if len(c[0].samples) >= required]

    segments: list[SegmentSet] = []
    for snr_db in mixture.snr_levels:
        for index, (wave, _) in enumerate(instances[target_class]):
            segments.append(_isolated(target_class, index, snr_db))
            scaled = _scaled(wave, snr_db)
            negatives = []
            for cls in other_classes:
                # only instances long enough to reach the overlap target
                pool = _long_enough(instances[cls], len(wave.samples))
                if not pool:
                    continue
                pick = pool[int(rng.integers(len(pool)))]
                negatives.append((_scaled(pick[0], snr_db), cls))
            if negatives:
                mixed, mixed_ann = mix_overlap((scaled, target_class),
                                               negatives, mixture, rng)
                segments.append(_collect(mixed, mixed_ann))
        for cls in other_classes:
            for index in range(len(instances[cls])):
                segments.append(_isolated(cls, index, snr_db))
        if len(other_classes) >= 2:
            for _ in range(len(instances[target_class])):
                first_cls, second_cls = rng.choice(
                    len(other_classes), size=2, replace=False
                )
                first_cls = other_classes[int(first_cls)]
                second_cls = other_classes[int(second_cls)]
                lead = instances[first_cls][int(rng.integers(len(instances[first_cls])))]
                tail = instances[second_cls][int(rng.integers(len(instances[second_cls])))]
                # overlap is measured against the first member, so lead with
                # the shorter instance and the pair is always feasible
                if len(tail[0].samples) < len(lead[0].samples):
                    lead, first_cls, tail, second_cls = (
                        tail, second_cls, lead, first_cls,
                    )
                mixed, mixed_ann = mix_overlap(
                    (_scaled(lead[0], snr_db), first_cls),
                    [(_scaled(tail[0], snr_db), second_cls)],
                    mixture,
                    rng,
                )
                segments.append(_collect(mixed, mixed_ann))

    train = SegmentSet.concatenate(segments)
    if background is not None:
        train = inject_background_segments(train, background, mixture.rng_seed)
    return train


@dataclass
class SynthBenchmark:
    """Synthetic corpus: isolated training instances plus mixed scenes."""

    sample_rate: int
    class_names: list[str]
    train_instances: dict
    dev_scene: Waveform | None
    dev_events: list[EventAnnotation]
    test_scene: Waveform | None
    test_events: list[EventAnnotation]
    background_rms: float
    snr_db: float


def pink_noise(rng, n_samples: int, sample_rate: int) -> np.ndarray:
    """Noise with 1/f power rolloff, flat below 20 Hz, unit RMS."""
    # one full-length temporary at a time: the white noise goes straight into
    # the transform and the gain is built in the frequency array
    spectrum = np.fft.rfft(rng.standard_normal(n_samples))
    gain = np.fft.rfftfreq(n_samples, 1.0 / sample_rate)
    spectrum /= np.sqrt(np.maximum(gain, 20.0, out=gain), out=gain)
    del gain
    noise = np.fft.irfft(spectrum, n_samples)
    del spectrum
    noise /= np.sqrt(np.mean(noise**2))
    return noise


# RMS of a tone instance's pink-noise bed relative to the tone's.
_INSTANCE_NOISE_RATIO = 0.25


def _tone_instance(rng, class_index: int, sample_rate: int) -> Waveform:
    """One amplitude-modulated tone burst; class k sits an octave above k-1.

    A pink-noise bed under the tone stands in for the room tone of a real
    recording, so training instances and deployment streams share texture in
    the channels the burst does not excite.
    """
    duration = rng.uniform(0.4, 0.9)
    detune = 2.0 ** (rng.uniform(-1.0, 1.0) / 12.0)
    carrier = 300.0 * 2.0**class_index * detune
    am_rate = rng.uniform(2.0, 6.0)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    t = np.arange(int(round(duration * sample_rate))) / sample_rate
    envelope = 0.5 + 0.5 * (0.5 + 0.5 * np.sin(2.0 * np.pi * am_rate * t + phase))
    ramp_len = min(int(0.02 * sample_rate), len(t) // 2)
    ramp = np.ones(len(t))
    if ramp_len > 0:
        edge = 0.5 - 0.5 * np.cos(np.pi * np.arange(ramp_len) / ramp_len)
        ramp[:ramp_len] = edge
        ramp[-ramp_len:] = edge[::-1]
    samples = np.sin(2.0 * np.pi * carrier * t + phase) * envelope * ramp
    rms = np.sqrt(np.mean(samples**2))
    samples = samples * (0.1 / rms)
    noise = pink_noise(rng, len(t), sample_rate)
    samples = samples + noise * (0.1 * _INSTANCE_NOISE_RATIO)
    return Waveform(samples, sample_rate)


def _compose_scene(
    rng,
    class_names,
    pool,
    n_events: int,
    scene_len: float,
    snr_db: float,
    background_rms: float,
    sample_rate: int,
) -> tuple[Waveform, list[EventAnnotation]]:
    """Place events along a noise bed; every third event group is an overlapping pair.

    Classes are assigned round-robin so per-class counts are balanced and the
    two members of a pair always differ. The scene grows past ``scene_len``
    if the placements need more room.
    """
    n_classes = len(class_names)
    n_pairs = n_events // 3
    n_singles = n_events - 2 * n_pairs
    kinds = ["single"] * n_singles + ["pair"] * n_pairs
    rng.shuffle(kinds)

    def _pick(class_index):
        if pool is not None:
            items = pool[class_names[class_index]]
            return items[int(rng.integers(len(items)))]
        return _tone_instance(rng, class_index, sample_rate)

    placements = []  # (onset seconds, waveform, label)
    cursor = rng.uniform(0.5, 1.5)
    event_index = 0
    for kind in kinds:
        k = event_index % n_classes
        lead = _pick(k)
        placements.append((cursor, lead, class_names[k]))
        lead_end = cursor + lead.duration
        event_index += 1
        if kind == "pair":
            k2 = event_index % n_classes
            follow = _pick(k2)
            # start inside the first half of the lead event: the intersection
            # is then at least half of the shorter member
            follow_on = cursor + rng.uniform(0.0, 0.5) * lead.duration
            placements.append((follow_on, follow, class_names[k2]))
            lead_end = max(lead_end, follow_on + follow.duration)
            event_index += 1
        cursor = lead_end + rng.uniform(0.2, 0.8)

    total_len = max(scene_len, cursor + 0.5)
    n_samples = int(round(total_len * sample_rate))
    canvas = pink_noise(rng, n_samples, sample_rate)
    canvas *= background_rms
    # the bed is measured once, before any event is added to it
    bed_rms = Waveform(canvas, sample_rate).rms()
    annotations = []
    for onset, wave, label in placements:
        scaled = scale_to_snr(wave, bed_rms, snr_db)
        start = int(round(onset * sample_rate))
        stop = start + len(scaled.samples)
        canvas[start:stop] += scaled.samples
        annotations.append(
            EventAnnotation(start / sample_rate, stop / sample_rate, label)
        )
    annotations.sort(key=lambda e: (e.onset, e.offset, e.label))
    return Waveform(canvas, sample_rate), annotations


def synth_benchmark(
    n_classes: int = 3,
    instances_per_class: int = 20,
    scene_len: float = 60.0,
    snr_db: float = 0.0,
    seed: int = 0,
    events_per_scene: int = 60,
    sample_rate: int = 16000,
    background_rms: float = 0.05,
    write_scene=None,
) -> SynthBenchmark:
    """Generate a deterministic synthetic detection corpus.

    Produces clean isolated training instances per class, a development scene
    built from those instances for threshold tuning, and a test scene built
    from freshly drawn instances. Scenes mix the events into pink noise at
    the requested SNR with roughly a third of the events in overlapping
    cross-class pairs. The scene length and the SNR must be finite.

    ``write_scene(fold, scene, events)``, when given, receives the "dev" and
    then the "test" scene as soon as each is composed, and the result holds
    None in place of both scenes, so only one scene is in memory at a time.
    Each scene draws from its own random stream, so the scenes are the same
    either way.
    """
    if n_classes < 2:
        raise ValueError(f"need at least 2 classes, got {n_classes}")
    if instances_per_class < 1:
        raise ValueError("need at least one instance per class")
    if events_per_scene < 0:
        raise ValueError(f"events per scene {events_per_scene} is negative")
    for what, value in (("scene length", scene_len), ("SNR", snr_db)):
        if not isfinite(value):
            raise ValueError(f"{what} must be finite, got {value}")
    class_names = [f"tone{300 * 2**k}" for k in range(n_classes)]
    rng_train = np.random.default_rng([seed, 1])
    rng_dev = np.random.default_rng([seed, 2])
    rng_test = np.random.default_rng([seed, 3])
    train_instances = {
        name: [
            _tone_instance(rng_train, k, sample_rate)
            for _ in range(instances_per_class)
        ]
        for k, name in enumerate(class_names)
    }
    scenes = {}
    for fold, rng, pool in (("dev", rng_dev, train_instances), ("test", rng_test, None)):
        scene, events = _compose_scene(
            rng, class_names, pool, events_per_scene, scene_len,
            snr_db, background_rms, sample_rate,
        )
        if write_scene is not None:
            write_scene(fold, scene, events)
            scene = None
        scenes[fold] = (scene, events)
    return SynthBenchmark(
        sample_rate=sample_rate,
        class_names=class_names,
        train_instances=train_instances,
        dev_scene=scenes["dev"][0],
        dev_events=scenes["dev"][1],
        test_scene=scenes["test"][0],
        test_events=scenes["test"][1],
        background_rms=background_rms,
        snr_db=snr_db,
    )
