"""Stream detection: leaf voting, score accumulation, peak extraction."""

from __future__ import annotations

import concurrent.futures
import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import features as _features
from .features import FeatureMatrix, Waveform, featurize
from .forest import Forest, gaussian_pdf, route, shared_feature_config


@dataclass(frozen=True)
class DetectConfig:
    """Per-class inference parameters."""

    alpha: float = 0.0
    beta: float = 0.5
    smooth_window: int = 11
    duration_factor: float = 3.0

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not (math.isfinite(self.beta) and self.beta >= 0.0):
            raise ValueError(f"beta must be finite and non-negative, got {self.beta}")
        if self.smooth_window < 1 or self.smooth_window % 2 == 0:
            raise ValueError(
                f"smoothing window must be odd and positive, got {self.smooth_window}"
            )
        if not (math.isfinite(self.duration_factor) and self.duration_factor > 0.0):
            raise ValueError(
                "duration factor must be finite and positive, "
                f"got {self.duration_factor}"
            )


@dataclass(eq=False)
class ScoreTrack:
    """Normalized onset and offset scores, one value per segment.

    A track's arrays are not changed after it is made, so its local maxima
    are found once, on first use of ``maxima``.
    """

    f_plus: np.ndarray
    f_minus: np.ndarray

    def __post_init__(self):
        self.f_plus = np.asarray(self.f_plus, dtype=np.float64)
        self.f_minus = np.asarray(self.f_minus, dtype=np.float64)
        if self.f_plus.shape != self.f_minus.shape or self.f_plus.ndim != 1:
            raise ValueError("score tracks must be two equal-length vectors")
        for track in (self.f_plus, self.f_minus):
            if not np.all(np.isfinite(track)) or np.any(track < 0):
                raise ValueError("scores must be finite and non-negative")

    @property
    def n_segments(self) -> int:
        return len(self.f_plus)

    @cached_property
    def maxima(self) -> tuple:
        """Local maxima of the onset and offset tracks, whatever their height."""
        return _local_maxima(self.f_plus), _local_maxima(self.f_minus)


@dataclass(eq=False)
class Detection:
    """One detected event with its confidence score."""

    label: str
    onset: float
    offset: float
    confidence: float


@dataclass(eq=False)
class StreamVotes:
    """Leaf assignments of a stream or of one block of it, cached for rendering.

    Arrays are ordered segment-major, then tree order, so rendering is a
    fixed-order reduction regardless of the confidence gate. ``segment``
    counts from the first row of the rows routed.
    """

    p_pos: np.ndarray
    segment: np.ndarray
    mean_on: np.ndarray
    var_on: np.ndarray
    mean_off: np.ndarray
    var_off: np.ndarray
    n_segments: int
    n_trees: int


def collect_votes(features: FeatureMatrix, forest: Forest) -> StreamVotes:
    """Route every segment through every tree and keep the Gaussian leaves."""
    table = forest.table
    leaf = route(table, features.rows)  # segment-major, then tree order
    keep = np.flatnonzero(~np.isnan(table.onset[leaf, 0]))
    leaf = leaf[keep]
    onset, offset = table.onset[leaf], table.offset[leaf]
    return StreamVotes(
        p_pos=table.p_pos[leaf],
        segment=keep // forest.n_trees,
        mean_on=onset[:, 0],
        var_on=onset[:, 1],
        mean_off=offset[:, 0],
        var_off=offset[:, 1],
        n_segments=features.n_segments,
        n_trees=forest.n_trees,
    )


# Votes splatted per step of the blocked renderer. One block's flat
# (position, value) buffers hold at most this many clipped kernels per track,
# so rendering memory does not grow with the number of votes. Of 256 to
# 2048, 512 rendered the ~100-segment kernels of 240 s streams fastest.
_VOTE_BLOCK = 512

# Ranges of one stream that score_tracks scores at once, one thread each.
# Two threads ran detect on a 240 s stream 1.6x as fast on an idle 2-CPU
# host. More were never measured, np.fft.rfft and np.add.at hold the GIL,
# and each range holds a block in flight, so the cap stays at what was.
_SCORE_RANGES = 2


# Standard deviations at which every Gaussian kernel is truncated.
_TRUNCATION = 6.0


def _kernel_pairs(weight, mean, var, lo: int, hi: int):
    """Flat (vote, position, value) triples of weighted truncated Gaussians.

    Each vote's kernel covers the integer positions within ``_TRUNCATION``
    standard deviations of its mean, clipped to ``[lo, hi)``; the triples
    come in vote order, then position order, and each value is
    ``weight * gaussian_pdf`` evaluated elementwise, so every value matches a
    one-vote evaluation bit for bit.
    """
    spread = _TRUNCATION * np.sqrt(var)
    first = np.maximum(np.ceil(mean - spread), lo).astype(np.int64)
    last = np.minimum(np.floor(mean + spread), hi - 1).astype(np.int64)
    counts = np.maximum(last - first + 1, 0)
    owner = np.repeat(np.arange(len(counts)), counts)
    start = np.cumsum(counts) - counts
    positions = first[owner] + (np.arange(len(owner)) - start[owner])
    values = weight[owner] * gaussian_pdf(positions, mean[owner], var[owner])
    return owner, positions, values


def render_tracks(votes: StreamVotes, alpha: float, sums, first: int = 0,
                  lo: int = 0, hi: int | None = None) -> None:
    """Add one block's cached votes to a stream's raw onset and offset sums.

    ``sums`` maps each gate to the (onset, offset) pair of whole-stream sums
    that the votes with ``p_pos`` at or above it add to, and ``alpha`` is the
    lowest gate. Each such vote adds its ``p_pos``-weighted Gaussians,
    truncated at ``_TRUNCATION`` standard deviations, at the positions in
    ``[lo, hi)`` (by default the whole stream), and the votes' segments start
    at stream segment ``first``. Votes are splatted in fixed blocks of
    ``_VOTE_BLOCK``: the kernels of a block's votes that pass ``alpha`` are
    evaluated once and, per gate, the pairs of the votes that pass it are
    added with ``np.add.at``. That ufunc method is unbuffered and applies the
    pairs in index order, so every segment receives its terms in vote order,
    exactly the additions of rendering one vote at a time, for any block
    size, any set of gates and any cut of the stream into windows. The sums
    are normalized once the stream ends (see ``score_tracks``).
    """
    if hi is None:
        hi = len(next(iter(sums.values()))[0])
    for start in range(0, len(votes.p_pos), _VOTE_BLOCK):
        block = np.arange(start, min(start + _VOTE_BLOCK, len(votes.p_pos)))
        block = block[~(votes.p_pos[block] < alpha)]
        p = votes.p_pos[block]
        m = votes.segment[block] + first
        kernels = (
            (0, m - votes.mean_on[block], votes.var_on[block]),
            (1, m + votes.mean_off[block], votes.var_off[block]),
        )
        for side, mean, var in kernels:
            owner, positions, values = _kernel_pairs(p, mean, var, lo, hi)
            pair_p = p[owner]
            for gate, pair in sums.items():
                # None: every pair passes, as all do at the lowest gate
                keep = None if gate <= alpha else ~(pair_p < gate)
                if keep is None:
                    np.add.at(pair[side], positions, values)
                elif keep.any():
                    np.add.at(pair[side], positions[keep], values[keep])


def smooth(track: ScoreTrack, window: int) -> ScoreTrack:
    """Centered moving average; edge windows shrink to the available samples."""
    if window < 1 or window % 2 == 0:
        raise ValueError(f"smoothing window must be odd and positive, got {window}")
    if window == 1 or track.n_segments == 0:
        return ScoreTrack(track.f_plus.copy(), track.f_minus.copy())
    kernel = np.ones(window)
    n, half = track.n_segments, window // 2
    # the centre of the full convolution: mode="same" gives max(n, window)
    # values, and these n are its values whenever n >= window
    centre = slice(half, half + n)
    # samples under each window, min(i + half, n - 1) - max(i - half, 0) + 1:
    # whole numbers, so the same floats as convolving ones with the kernel
    counts = np.arange(n, dtype=np.float64)
    starts = counts - half
    counts += half
    np.minimum(counts, n - 1, out=counts)
    counts -= np.maximum(starts, 0.0, out=starts)
    counts += 1.0
    return ScoreTrack(
        np.convolve(track.f_plus, kernel)[centre] / counts,
        np.convolve(track.f_minus, kernel)[centre] / counts,
    )


def _local_maxima(values: np.ndarray) -> np.ndarray:
    """Indices of local maxima, whatever their height.

    A plateau counts once at its leftmost index; stream edges only need the
    inner side to fall away. The scan works on runs of equal values, found
    where ``values[1:] != values[:-1]``: a run is a maximum when both
    neighbouring runs lie strictly below it.
    """
    values = np.asarray(values)
    if len(values) == 0:
        return np.empty(0, dtype=np.int64)
    starts = np.concatenate(([0], np.flatnonzero(values[1:] != values[:-1]) + 1))
    level = values[starts]
    rises = np.ones(len(starts), dtype=bool)
    falls = np.ones(len(starts), dtype=bool)
    rises[1:] = level[:-1] < level[1:]
    falls[:-1] = level[1:] < level[:-1]
    return starts[rises & falls]


def _peak_indices(values: np.ndarray, threshold: float, maxima) -> list:
    """The indices of ``maxima``, the local maxima of ``values``, that reach
    the threshold."""
    return maxima[values[maxima] >= threshold].tolist()


def extract_events(
    track: ScoreTrack,
    beta: float,
    hop_len: float,
    window_len: float = 0.0,
    label: str = "",
) -> list:
    """Pair onset and offset peaks into detected events.

    Onset peaks are taken in order; each consumes the earliest unused offset
    peak at a strictly later segment. The confidence of a detection is the
    smaller of its two peak scores. Segment indices map to the center time of
    the segment. Peaks are the track's ``maxima`` that reach ``beta``.
    """
    onsets = _peak_indices(track.f_plus, beta, track.maxima[0])
    offsets = _peak_indices(track.f_minus, beta, track.maxima[1])
    detections = []
    cursor = 0
    for n_on in onsets:
        while cursor < len(offsets) and offsets[cursor] <= n_on:
            cursor += 1
        if cursor == len(offsets):
            break
        n_off = offsets[cursor]
        cursor += 1
        detections.append(
            Detection(
                label=label,
                onset=n_on * hop_len + window_len / 2.0,
                offset=n_off * hop_len + window_len / 2.0,
                confidence=float(
                    min(track.f_plus[n_on], track.f_minus[n_off])
                ),
            )
        )
    return detections


def _reach(forests) -> int:
    """One more than the furthest, in whole segments, that a Gaussian leaf of
    ``forests`` reaches from its vote's segment: ``|mean|`` plus
    ``_TRUNCATION`` standard deviations, onset or offset. Every kernel
    position lies closer than this to its vote's segment."""
    furthest = 0.0
    for forest in forests:
        for leaves in (forest.table.onset, forest.table.offset):
            gaussian = leaves[~np.isnan(leaves[:, 0])]
            if len(gaussian):
                furthest = max(furthest, float(np.max(
                    np.abs(gaussian[:, 0]) + _TRUNCATION * np.sqrt(gaussian[:, 1]))))
    return 1 + math.ceil(furthest)


def _usable_cores() -> int:
    """The CPUs this process may run on; all of them where the OS cannot say."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def score_tracks(source, forests, configs) -> dict:
    """Each class's smoothed onset and offset scores, from one pass over a stream.

    ``source`` has ``n_segments`` rows and gives rows ``[lo, hi)`` as a
    FeatureMatrix from ``block(lo, hi)``, as a ``FeatureStream`` or a
    ``FeatureMatrix`` does. ``configs`` maps each class label to a list of
    DetectConfigs. Each block's rows are routed once through every forest,
    and each vote's kernels are evaluated once and added to the whole-stream
    sums of every distinct alpha of its class that it passes.

    The n segments are cut into W = min(``_SCORE_RANGES``, usable cores,
    blocks of ``_SEGMENT_BLOCK``) contiguous ranges. The calling thread
    scores the first and a thread pool the others, each range block by
    block; a stream of one block starts no thread. The tracks are exact
    whatever W and the blocks. Each range ``[lo, hi)`` owns its positions: no
    kernel lies R (``_reach``) or more segments from its vote, so the rows
    ``[lo - R, hi + R)`` hold every vote that reaches the range, and the
    range adds, in vote order, only the pairs at its own positions, where no
    other thread writes. Every sum so takes the additions of one pass, in
    the same order, and the rows near an inner edge are read twice.

    The sums are then divided by the forest's normalization constants and
    smoothed, and each gate's sums are freed once its last track is smoothed.
    Returns a mapping from class label to the list of tracks, one per config
    and in the same order; a class with no configs gets an empty list, and
    its forest is not routed. With no forest to route, no block is read.
    """
    n = source.n_segments
    sums = {
        f.class_label: {c.alpha: (np.zeros(n), np.zeros(n))
                        for c in configs[f.class_label]}
        for f in forests
    }
    scored = [f for f in forests if sums[f.class_label]]
    size = _features._SEGMENT_BLOCK
    width = max(1, min(_SCORE_RANGES, _usable_cores(), -(-n // size)))
    bounds = [k * n // width for k in range(width + 1)]
    reach = _reach(scored)

    def score_range(lo: int, hi: int) -> None:
        stop = min(n, hi + reach)
        for start in range(max(0, lo - reach), stop, size):
            block = source.block(start, min(start + size, stop))
            for forest in scored:
                gates = sums[forest.class_label]
                render_tracks(collect_votes(block, forest), min(gates), gates,
                              start, lo, hi)
            block = None  # its rows are not held while the next block is made

    if scored and width == 1:
        score_range(0, n)
    elif scored:  # the first use imports the pool's module, which one block never needs
        with concurrent.futures.ThreadPoolExecutor(width - 1) as pool:
            later = pool.map(score_range, bounds[1:-1], bounds[2:])
            score_range(bounds[0], bounds[1])
            list(later)  # raises the error of a later range
    tracks = {}
    for forest in forests:
        label = forest.class_label
        gates = sums.pop(label)
        for f_plus, f_minus in gates.values():
            f_plus /= forest.n_trees * forest.z_plus
            f_minus /= forest.n_trees * forest.z_minus
        last = {config.alpha: i for i, config in enumerate(configs[label])}
        tracks[label] = []
        for i, config in enumerate(configs[label]):
            alpha = config.alpha
            pair = gates.pop(alpha) if last[alpha] == i else gates[alpha]
            tracks[label].append(smooth(ScoreTrack(*pair), config.smooth_window))
    return tracks


def normalize(forests, features) -> None:
    """Fit each forest's ``z_plus``/``z_minus`` on development streams, one
    FeatureMatrix each: the largest raw scores over the streams, with the gate
    wide open and no smoothing, so every track on that material stays at or
    below one; 1.0 with no stream or a zero maximum. All forests are scored in
    one ``score_tracks`` call per stream, which gives each the bits of scoring
    it alone."""
    raw = {f.class_label: [DetectConfig(alpha=0.0, smooth_window=1)] for f in forests}
    peaks = {label: np.zeros(2) for label in raw}
    for forest in forests:
        forest.z_plus = forest.z_minus = 1.0  # sums divided by the trees only
    for matrix in features:
        if matrix.n_segments:  # an empty stream has no peaks
            for label, [track] in score_tracks(matrix, forests, raw).items():
                np.maximum(peaks[label], [track.f_plus.max(), track.f_minus.max()],
                           out=peaks[label])
    for forest in forests:
        forest.z_plus, forest.z_minus = (float(z) if z > 0 else 1.0
                                         for z in peaks[forest.class_label])


def forest_events(
    track: ScoreTrack, forest: Forest, beta: float, duration_factor: float
) -> list:
    """One class's detections: ``extract_events``, then the duration rule.

    Segments map to times through the forest's feature space, and events
    longer than ``duration_factor`` times its longest training event are
    dropped.
    """
    fc = forest.feature_config
    events = extract_events(track, beta, fc.hop_len, fc.window_len,
                            forest.class_label)
    limit = duration_factor * forest.max_train_event_duration
    return [e for e in events if e.offset - e.onset <= limit]


def detect_on_features(tracks: dict, forests, configs) -> list:
    """Pair the scored tracks of several forests into detections, sorted by time.

    ``tracks`` maps each forest's class label to its track, scored by
    ``score_tracks`` for its DetectConfig in ``configs``.
    """
    detections = []
    for forest in forests:
        config = configs[forest.class_label]
        detections += forest_events(tracks[forest.class_label], forest,
                                    config.beta, config.duration_factor)
    detections.sort(key=lambda d: (d.onset, d.offset, d.label))
    return detections


def detect_stream(waveform: Waveform, forests, configs) -> list:
    """Detect events of all classes in a continuous stream.

    ``configs`` maps each class label to its DetectConfig. All forests must
    share one feature configuration and name distinct classes (see
    ``forest.shared_feature_config``); the stream is resampled to the training
    rate, and its features are scored block by block, on up to two threads
    (see ``score_tracks``), so the whole feature matrix is never held. Every
    given forest is scored: drop the classes that tuned thresholds disable
    with ``evaluate.enabled_forests`` first.
    """
    forests = list(forests)
    if not forests:
        return []
    stream = featurize(waveform, shared_feature_config(forests))
    tracks = score_tracks(stream, forests,
                          {label: [config] for label, config in configs.items()})
    del stream  # a noise floor's whole-stream energies go with it
    return detect_on_features({label: t for label, [t] in tracks.items()},
                              forests, configs)


def write_scores_csv(track: ScoreTrack, path) -> None:
    """Write the two score tracks with their segment indices."""
    with open(path, "w") as handle:
        handle.write("segment,f_plus,f_minus\n")
        for n in range(track.n_segments):
            handle.write(
                f"{n},{float(track.f_plus[n])!r},{float(track.f_minus[n])!r}\n"
            )
