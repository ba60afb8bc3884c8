"""Shared builders and fixtures for the test suite."""

import math
import os
from math import ceil, floor, sqrt
from types import SimpleNamespace

# eventforest before numpy and scipy: its import pins BLAS to one thread, as
# in the CLI, so in-process results do not depend on the core count.
import eventforest  # noqa: F401
import numpy as np
import pytest
from scipy.fft import dct

from eventforest.dataset import EventAnnotation
from eventforest.detect import (
    ScoreTrack,
    StreamVotes,
    detect_on_features,
    normalize,
    score_tracks,
)
from eventforest.features import (
    LOG_FLOOR,
    FeatureConfig,
    FeatureMatrix,
    gammatone_weights,
    periodic_hann,
    subtract_noise_floor,
)
from eventforest.forest import (
    OBJECTIVE_CLASSIFICATION,
    OBJECTIVE_REGRESSION,
    ForestConfig,
    NodeTable,
    SegmentSet,
    _candidate_blocks,
    _draw_pool,
    _entropy_from_counts,
    gaussian_pdf,
    make_leaf,
    train_forest,
)

FEATURE_DIM = 8

# Where the pinned digests and bit-for-bit checks were recorded. A matrix
# product, log or exp on other code paths can round differently.
RECORDED_PLATFORM = ("numpy 2.4.6 dispatching to X86_V3, X86_V4, AVX512_ICL, "
                     "AVX512_SPR, OPENBLAS_CORETYPE unset (OpenBLAS picks SkylakeX)")


def byte_platform() -> str:
    """A byte check's failure message: the recorded platform and this one's."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    active = [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]
    coretype = os.environ.get("OPENBLAS_CORETYPE", "unset")
    return (f"bytes recorded on {RECORDED_PLATFORM}; this run has numpy "
            f"{np.__version__} dispatching to {', '.join(active) or 'baseline only'}"
            f", OPENBLAS_CORETYPE {coretype}")


def feature_config(n_channels: int = FEATURE_DIM) -> FeatureConfig:
    return FeatureConfig(n_channels=n_channels)


def segment_set(rows) -> SegmentSet:
    """A training set from ``(x, c, d)`` rows, where ``d`` is None on negatives."""
    rows = list(rows)
    nan = (np.nan, np.nan)
    return SegmentSet(
        np.array([x for x, _, _ in rows], dtype=np.float64),
        np.array([c for _, c, _ in rows], dtype=np.int8),
        np.array([nan if d is None else d for _, _, d in rows],
                 dtype=np.float64).reshape(len(rows), 2),
    )


def entropy(labels) -> float:
    """Base-2 entropy of a binary label multiset.

    >>> entropy([0, 1])
    1.0
    >>> entropy([1, 1, 1])
    0.0
    """
    labels = np.asarray(labels)
    n = labels.size
    if n == 0:
        raise ValueError("entropy of an empty set is undefined")
    n_pos = int(np.count_nonzero(labels == 1))
    return _entropy_from_counts(float(n_pos), float(n - n_pos))


def oracle_label_segments(features, annotations, target_class):
    """Reference labelling: one row at a time, events in (onset, offset) order.

    Returns int8 labels and (n, 2) distances, NaN on negatives; a row an
    earlier event claimed keeps that event's distances.
    """
    centers = features.segment_centers()
    n = features.n_segments
    labels = np.zeros(n, dtype=np.int8)
    dists = np.full((n, 2), np.nan)
    targets = sorted(
        (a for a in annotations if a.label == target_class),
        key=lambda e: (e.onset, e.offset),
    )
    for event in targets:
        inside = [m for m in range(n) if event.onset <= centers[m] < event.offset]
        if not inside:
            continue
        first, last = inside[0], inside[-1]
        for m in inside:
            if labels[m] == 0:
                labels[m] = 1
                dists[m] = (m - first, last - m)
    return labels, dists


def oracle_event_free_rows(features, annotations):
    """Reference background rows: per event, one mask over every center."""
    centers = features.segment_centers()
    keep = np.ones(features.n_segments, dtype=bool)
    for a in annotations:
        keep[(centers >= a.onset) & (centers < a.offset)] = False
    return features.rows[keep]


def random_segments(rng, n, dim=FEATURE_DIM, d_span=12, class_shift=0.0):
    """Random labeled segments with integer distance vectors on positives.

    The first two segments get opposite labels so every set contains both
    classes; ``class_shift`` moves the positives along the first two feature
    channels to make splits discoverable when a test needs separability.
    """
    labels = rng.integers(0, 2, size=n)
    labels[0] = 1
    if n > 1:
        labels[1] = 0
    rows = []
    for c in labels:
        x = rng.normal(size=dim)
        if class_shift and c == 1:
            x[:2] += class_shift
        d = rng.integers(0, d_span, size=2).astype(float) if c == 1 else None
        rows.append((x, int(c), d))
    return segment_set(rows)


def split_test(x, r: int, q: int, tau: float) -> int:
    """Binary test on a feature vector: 1 when x[r] - x[q] exceeds tau.

    >>> split_test([3.0, 1.0], 0, 1, 1.5)
    1
    >>> split_test([3.0, 1.0], 0, 1, 2.0)
    0
    """
    x = np.asarray(x, dtype=np.float64)
    return int(x[r] - x[q] > tau)


def info_gain(test, segments) -> float:
    """Information gain of a candidate test over a segment set."""
    r, q, tau = test
    mask = segments.x[:, r] - segments.x[:, q] > tau
    n = len(segments)
    if n == 0:
        raise ValueError("information gain of an empty set is undefined")
    n_pos = float(segments.n_positive)
    n_right = float(np.count_nonzero(mask))
    n_pos_right = float(np.count_nonzero(mask & (segments.labels == 1)))
    gain = _entropy_from_counts(n_pos, n - n_pos)
    gain = gain - (n_right / n) * _entropy_from_counts(
        n_pos_right, n_right - n_pos_right
    )
    gain = gain - ((n - n_right) / n) * _entropy_from_counts(
        n_pos - n_pos_right, (n - n_right) - (n_pos - n_pos_right)
    )
    return float(gain)


def distance_variation(test, segments) -> float:
    """Summed squared deviation of positives' distance vectors across a split.

    Only positives contribute; each side's deviations are taken from that
    side's own mean distance vector.
    """
    r, q, tau = test
    mask = segments.x[:, r] - segments.x[:, q] > tau
    positive = segments.labels == 1
    total = 0.0
    for side in (mask & positive, ~mask & positive):
        d = segments.dists[side]
        if len(d) == 0:
            continue
        mean = np.array([math.fsum(d[:, 0]) / len(d), math.fsum(d[:, 1]) / len(d)])
        total += math.fsum(((d - mean) ** 2).ravel())
    return total


def leaf_node(p_pos=1.0, onset=(3.0, 1.0), offset=(2.0, 1.0), n_train=4):
    """Leaf record for ``NodeTable.from_trees``; ``onset=None`` means no Gaussians."""
    return {
        "kind": "leaf",
        "p_pos": p_pos,
        "p_neg": 1.0 - p_pos,
        "n_train": n_train,
        "onset": None if onset is None else list(onset),
        "offset": None if offset is None else list(offset),
    }


def split_node(r, q, tau, objective=OBJECTIVE_CLASSIFICATION):
    """Split record for ``NodeTable.from_trees``."""
    return {"kind": "split", "r": r, "q": q, "tau": tau, "objective": objective}


def node_depths(table):
    """Depth of every node, each root at 1; parents precede children in pre-order."""
    depths = np.zeros(len(table), dtype=np.int64)
    depths[table.roots] = 1
    for i in range(len(table)):
        if table.right[i] >= 0:
            depths[i + 1] = depths[table.right[i]] = depths[i] + 1
    return depths


def tree_leaves(table) -> list:
    """The table indices of each tree's leaves, one array per tree."""
    bounds = [*table.roots.tolist(), len(table)]
    return [start + np.flatnonzero(table.right[start:stop] < 0)
            for start, stop in zip(bounds, bounds[1:])]


def descend(table, x, root=0) -> int:
    """Reference routing: the leaf index of one feature vector, node by node.

    The walk starts at node ``root``. Test outcome 1 goes to the right child,
    0 to the left one at ``i + 1``.
    """
    x = np.asarray(x, dtype=np.float64)
    node = int(root)
    try:
        while table.right[node] >= 0:
            if split_test(x, table.r[node], table.q[node], table.tau[node]):
                node = int(table.right[node])
            else:
                node += 1
    except IndexError:
        raise ValueError(
            f"feature vector of length {len(x)} does not match the tree"
        ) from None
    return node


def vote_tree(table, leaf: int, m: int, alpha: float, n: int) -> tuple:
    """Onset and offset vote of leaf ``leaf`` for segment m at target position n.

    Leaves below the confidence gate, or without distance Gaussians, vote
    zero on both curves.
    """
    p_pos = table.p_pos[leaf]
    if np.isnan(table.onset[leaf, 0]) or p_pos < alpha:
        return (0.0, 0.0)
    mean_on, var_on = table.onset[leaf]
    mean_off, var_off = table.offset[leaf]
    p_plus = p_pos * gaussian_pdf(n, m - mean_on, var_on)
    p_minus = p_pos * gaussian_pdf(n, m + mean_off, var_off)
    return (float(p_plus), float(p_minus))


def vote_forest(forest, x, m: int, alpha: float, n: int) -> tuple:
    """Average the per-tree votes for one segment at one target position."""
    table = forest.table
    total_plus = 0.0
    total_minus = 0.0
    for root in table.roots:
        p_plus, p_minus = vote_tree(table, descend(table, x, root), m, alpha, n)
        total_plus += p_plus
        total_minus += p_minus
    n_trees = forest.n_trees
    return (total_plus / n_trees, total_minus / n_trees)


def oracle_collect_votes(features, forest):
    """Reference vote collection: one ``descend`` per segment and tree."""
    table = forest.table
    p_pos, segment = [], []
    mean_on, var_on, mean_off, var_off = [], [], [], []
    for m, x in enumerate(features.rows):
        for root in table.roots:
            leaf = descend(table, x, root)
            if np.isnan(table.onset[leaf, 0]):
                continue
            p_pos.append(table.p_pos[leaf])
            segment.append(m)
            mean_on.append(table.onset[leaf, 0])
            var_on.append(table.onset[leaf, 1])
            mean_off.append(table.offset[leaf, 0])
            var_off.append(table.offset[leaf, 1])
    return StreamVotes(
        p_pos=np.array(p_pos, dtype=np.float64),
        segment=np.array(segment, dtype=np.int64),
        mean_on=np.array(mean_on, dtype=np.float64),
        var_on=np.array(var_on, dtype=np.float64),
        mean_off=np.array(mean_off, dtype=np.float64),
        var_off=np.array(var_off, dtype=np.float64),
        n_segments=features.n_segments,
        n_trees=forest.n_trees,
    )


def oracle_calibrate(forest, segments) -> list:
    """Reference calibration: the per-tree node records ``calibrate`` should leave.

    Every row descends every tree node by node; each reached leaf becomes
    ``make_leaf`` of its rows in ascending order, and an unreached leaf keeps
    its statistics with ``n_train`` 0.
    """
    table = forest.table
    arrivals = {}
    for row, x in enumerate(segments.x):
        for root in table.roots:
            arrivals.setdefault(descend(table, x, root), []).append(row)
    expected = table.to_trees()
    for root, nodes in zip(table.roots.tolist(), expected):
        for i, node in enumerate(nodes):
            if node["kind"] != "leaf":
                continue
            rows = arrivals.get(root + i)
            if rows is None:
                node["n_train"] = 0
            else:
                nodes[i] = make_leaf(segments.take(np.array(rows)),
                                     forest.config.variance_floor)
    return expected


def random_tree(rng, n_features, max_depth):
    """Node records of a random tree with integer thresholds.

    About a third of its leaves lack Gaussians.
    """
    nodes = []

    def grow(depth):
        if depth >= max_depth or rng.random() < 0.3:
            gaussian = rng.random() < 0.7
            nodes.append(
                leaf_node(
                    p_pos=float(rng.random()),
                    onset=(float(rng.integers(0, 9)), float(rng.uniform(0.5, 4)))
                    if gaussian else None,
                    offset=(float(rng.integers(0, 9)), float(rng.uniform(0.5, 4)))
                    if gaussian else None,
                )
            )
            return
        r, q = (int(v) for v in rng.integers(0, n_features, 2))
        nodes.append(split_node(r, q, float(rng.integers(-3, 4))))
        grow(depth + 1)
        grow(depth + 1)

    grow(1)
    return nodes


def scalar_entropy(n_pos, n_neg):
    """Entropy from class counts, evaluated one candidate at a time."""
    n = n_pos + n_neg
    h = 0.0
    for count in (n_pos, n_neg):
        if count > 0:
            p = count / n
            h = h - p * np.log2(p)
    return h


def draw_candidates(segments: SegmentSet, n_candidates: int, rng):
    """Draw the candidate test pool for one node.

    Channels r and q are uniform over the feature dimensions; each threshold
    is uniform over the observed range of x_r - x_q within the node, so every
    candidate has a chance to separate something. This replays exactly the
    pool that ``select_best_test`` scores for the same RNG state.
    """
    r, q, u = _draw_pool(segments.x.shape[1], n_candidates, rng)
    tau = np.empty(n_candidates)
    for start, _, block_tau in _candidate_blocks(segments.x, r, q, u):
        tau[start:start + len(block_tau)] = block_tau
    return r, q, tau


def oracle_best_split(segments, n_candidates, objective, seed):
    """Reference split search: replay the candidate pool, score one by one.

    Returns (index, r, q, tau) of the winning candidate or None when no
    candidate yields two non-empty children (and, for the regression
    objective, at least one positive on each side).
    """
    r_arr, q_arr, tau_arr = draw_candidates(
        segments, n_candidates, np.random.default_rng(seed)
    )
    n = len(segments)
    best = None
    best_score = None
    for i in range(n_candidates):
        r, q, tau = int(r_arr[i]), int(q_arr[i]), float(tau_arr[i])
        went_right = [split_test(s.x, r, q, tau) == 1 for s in segments]
        n_right = sum(went_right)
        if n_right == 0 or n_right == n:
            continue
        if objective == OBJECTIVE_REGRESSION:
            pos_right = sum(
                1 for s, w in zip(segments, went_right) if w and s.c == 1
            )
            pos_left = sum(
                1 for s, w in zip(segments, went_right) if not w and s.c == 1
            )
            if pos_right == 0 or pos_left == 0:
                continue
            score = distance_variation((r, q, tau), segments)
            improves = best_score is None or score < best_score
        else:
            n_pos = sum(s.c for s in segments)
            n_pos_right = sum(
                1 for s, w in zip(segments, went_right) if w and s.c == 1
            )
            n_left = n - n_right
            score = scalar_entropy(float(n_pos), float(n - n_pos))
            score = score - (n_right / n) * scalar_entropy(
                float(n_pos_right), float(n_right - n_pos_right)
            )
            score = score - (n_left / n) * scalar_entropy(
                float(n_pos - n_pos_right), float(n_left - (n_pos - n_pos_right))
            )
            improves = best_score is None or score > best_score
        if improves:
            best = (i, r, q, tau)
            best_score = score
    return best


def add_gaussian(track, weight, mean, var):
    """Add one weighted Gaussian to the track, truncated at six standard deviations."""
    spread = 6.0 * sqrt(var)
    lo = max(0, ceil(mean - spread))
    hi = min(len(track) - 1, floor(mean + spread))
    if lo > hi:
        return
    positions = np.arange(lo, hi + 1)
    track[lo : hi + 1] += weight * gaussian_pdf(positions, mean, var)


def oracle_render_tracks(votes, alpha, z_plus=1.0, z_minus=1.0):
    """Reference renderer: one ``add_gaussian`` per vote and track, in vote order."""
    f_plus = np.zeros(votes.n_segments)
    f_minus = np.zeros(votes.n_segments)
    for i in range(len(votes.p_pos)):
        p = votes.p_pos[i]
        if p < alpha:
            continue
        m = votes.segment[i]
        add_gaussian(f_plus, p, m - votes.mean_on[i], votes.var_on[i])
        add_gaussian(f_minus, p, m + votes.mean_off[i], votes.var_off[i])
    scale = votes.n_trees
    f_plus /= scale * z_plus
    f_minus /= scale * z_minus
    return ScoreTrack(f_plus, f_minus)


def score_matrix(features, forests, configs):
    """Each class's track for its one DetectConfig in ``configs``, scored from
    a whole feature matrix as one block."""
    tracks = score_tracks([features], features.n_segments, forests,
                          {label: [config] for label, config in configs.items()})
    return {label: track for label, [track] in tracks.items()}


def detect_matrix(features, forests, configs):
    """Detections of a whole feature matrix: its tracks as one block, paired."""
    return detect_on_features(score_matrix(features, forests, configs), forests,
                              configs)


def oracle_event_metrics(reference, hypothesis, onset_collar=0.2):
    """Reference event matcher: every hypothesis against every reference,
    first by class, then across classes, in onset order."""
    reference = sorted(reference, key=lambda e: (e.onset, e.offset, e.label))
    hypothesis = sorted(hypothesis, key=lambda e: (e.onset, e.offset, e.label))
    ref_used = [False] * len(reference)
    hyp_used = [False] * len(hypothesis)
    tp = 0
    for i, hyp in enumerate(hypothesis):
        for j, ref in enumerate(reference):
            if ref_used[j] or ref.label != hyp.label:
                continue
            if abs(hyp.onset - ref.onset) <= onset_collar:
                ref_used[j] = True
                hyp_used[i] = True
                tp += 1
                break
    subs = 0
    for i, hyp in enumerate(hypothesis):
        if hyp_used[i]:
            continue
        for j, ref in enumerate(reference):
            if ref_used[j]:
                continue
            if abs(hyp.onset - ref.onset) <= onset_collar:
                ref_used[j] = True
                hyp_used[i] = True
                subs += 1
                break
    return (tp, subs)


def oracle_peak_indices(values, threshold):
    """Reference plateau scan: local maxima at or above the threshold.

    A plateau counts once at its leftmost index; stream edges only need the
    inner side to fall away.
    """
    n = len(values)
    peaks = []
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[j + 1] == values[i]:
            j += 1
        rises = i == 0 or values[i - 1] < values[i]
        falls = j == n - 1 or values[j + 1] < values[i]
        if rises and falls and values[i] >= threshold:
            peaks.append(i)
        i = j + 1
    return peaks


def oracle_gammatone_cepstra(waveform, config):
    """Reference extractor: every window of the stream transformed at once.

    Gathers the whole n_segments x window frame matrix with an index matrix,
    so its memory grows with the stream; the package extracts in blocks.
    """
    win = int(round(config.window_len * config.sample_rate))
    hop = int(round(config.hop_len * config.sample_rate))
    n = len(waveform.samples)
    n_segments = 0 if n < win else (n - win) // hop + 1
    if n_segments == 0:
        return FeatureMatrix(np.zeros((0, config.n_channels)), np.zeros(0), config)
    offsets = np.arange(n_segments) * hop
    frames = waveform.samples[offsets[:, np.newaxis] + np.arange(win)]
    frames = frames * periodic_hann(win)
    power = np.abs(np.fft.rfft(frames, axis=1)) ** 2
    energies = power @ gammatone_weights(config, win).T
    if config.noise_subtraction:
        energies = subtract_noise_floor(energies)
    rows = dct(np.log(energies + LOG_FLOOR), type=2, norm="ortho", axis=1)
    return FeatureMatrix(rows, offsets / config.sample_rate, config)


def blob_stream(rng, n_events=6, event_len=12, gap=20, dim=FEATURE_DIM,
                shift=2.5, noise=0.35):
    """Synthetic feature-space stream with embedded constant-signature events.

    Background rows are near-zero noise; event rows add ``shift`` on channels
    0-1 and subtract it on channel 2, so difference tests separate the two
    populations. Returns (features, annotations, labeled segments) for the
    single class "blob".
    """
    config = feature_config(dim)
    rows = []
    labels, dists = [], []
    annotations = []
    base = np.zeros(dim)
    base[:2] = shift
    base[2] = -shift

    def emit_background(count):
        for _ in range(count):
            rows.append(rng.normal(size=dim) * noise)
            labels.append(0)
            dists.append((np.nan, np.nan))

    emit_background(gap)
    for _ in range(n_events):
        first = len(rows)
        for j in range(event_len):
            rows.append(base + rng.normal(size=dim) * noise)
            labels.append(1)
            dists.append((j, event_len - 1 - j))
        last = len(rows) - 1
        hop = config.hop_len
        center = config.window_len / 2.0
        annotations.append(
            EventAnnotation(
                onset=first * hop + center - hop / 2.0,
                offset=last * hop + center + hop / 2.0,
                label="blob",
            )
        )
        emit_background(gap)

    times = np.arange(len(rows)) * config.hop_len
    features = FeatureMatrix(np.array(rows), times, config)
    return features, annotations, SegmentSet(features.rows, labels, dists)


@pytest.fixture(scope="session")
def blob_model():
    """A small trained single-class detector with matching streams.

    Provides the forest (normalized against the dev stream), its training
    segments, and dev/test streams with reference annotations.
    """
    fc = feature_config()
    train_rng = np.random.default_rng(11)
    _, _, train_segments = blob_stream(train_rng, n_events=10)
    config = ForestConfig(
        n_trees=4,
        subsample_ratio=0.5,
        n_candidate_tests=400,
        max_depth=5,
        min_segments=12,
        steer_depth=5,
        variance_floor=1.0,
        rng_seed=7,
    )
    forest = train_forest(
        train_segments, config, class_label="blob", feature_config=fc
    )
    dev_features, dev_reference, _ = blob_stream(
        np.random.default_rng(12), n_events=6
    )
    normalize([forest], [dev_features])
    test_features, test_reference, _ = blob_stream(
        np.random.default_rng(13), n_events=6
    )
    return SimpleNamespace(
        forest=forest,
        train_segments=train_segments,
        feature_config=fc,
        dev_features=dev_features,
        dev_reference=dev_reference,
        test_features=test_features,
        test_reference=test_reference,
    )
