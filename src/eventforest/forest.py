"""Joint classification-regression forests over labeled audio segments.

Trees split on pairwise feature differences. Nodes up to the steering depth
choose splits by information gain on the class labels; deeper nodes minimize
the spread of the positives' temporal distance vectors, so leaves model where
inside an event their segments tend to sit.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .features import FeatureConfig

OBJECTIVE_CLASSIFICATION = "classification"
OBJECTIVE_REGRESSION = "regression"
FORMAT_VERSION = 1


@dataclass(frozen=True)
class ForestConfig:
    """Training hyperparameters for one per-class forest."""

    n_trees: int = 10
    subsample_ratio: float = 0.5
    n_candidate_tests: int = 20000
    max_depth: int = 12
    min_segments: int = 20
    steer_depth: int = 9
    variance_floor: float = 1e-6
    rng_seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError(f"need at least one tree, got {self.n_trees}")
        if not 0.0 < self.subsample_ratio <= 1.0:
            raise ValueError(
                f"subsample ratio must be in (0, 1], got {self.subsample_ratio}"
            )
        if self.n_candidate_tests < 1:
            raise ValueError("need at least one candidate test per node")
        if self.max_depth < 1:
            raise ValueError(f"max depth must be >= 1, got {self.max_depth}")
        if self.min_segments < 1:
            raise ValueError(f"min segments must be >= 1, got {self.min_segments}")
        if not 1 <= self.steer_depth <= self.max_depth:
            raise ValueError(
                f"steer depth must lie in [1, max_depth], got {self.steer_depth}"
            )
        if self.variance_floor <= 0.0:
            raise ValueError("variance floor must be positive")


class SegmentSet:
    """Array view of a segment collection: features, labels, distance vectors.

    Distance rows of negatives are NaN so positive-only statistics can mask
    them out without consulting the labels twice.
    """

    def __init__(self, x, labels, dists):
        self.x = np.asarray(x, dtype=np.float64)
        self.labels = np.asarray(labels, dtype=np.int8)
        self.dists = np.asarray(dists, dtype=np.float64)
        if self.x.ndim != 2 or len(self.labels) != len(self.x):
            raise ValueError("inconsistent segment arrays")
        if self.dists.shape != (len(self.x), 2):
            raise ValueError("distance array must be (n, 2)")

    @classmethod
    def from_segments(cls, segments) -> "SegmentSet":
        if isinstance(segments, cls):
            return segments
        segments = list(segments)
        if not segments:
            return cls(np.zeros((0, 1)), np.zeros(0), np.zeros((0, 2)))
        x = np.stack([s.x for s in segments])
        labels = np.array([s.c for s in segments])
        dists = np.full((len(segments), 2), np.nan)
        for i, s in enumerate(segments):
            if s.c == 1:
                dists[i] = s.d
        return cls(x, labels, dists)

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def n_positive(self) -> int:
        return int(np.count_nonzero(self.labels == 1))

    def take(self, indices) -> "SegmentSet":
        return SegmentSet(self.x[indices], self.labels[indices], self.dists[indices])


def split_test(x, r: int, q: int, tau: float) -> int:
    """Binary test on a feature vector: 1 when x[r] - x[q] exceeds tau.

    >>> split_test([3.0, 1.0], 0, 1, 1.5)
    1
    >>> split_test([3.0, 1.0], 0, 1, 2.0)
    0
    """
    x = np.asarray(x, dtype=np.float64)
    return int(x[r] - x[q] > tau)


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


def _entropy_from_counts(n_pos, n_neg):
    """Entropy from the two class counts; scalar or elementwise on arrays."""
    n = n_pos + n_neg
    h = np.zeros(np.shape(n))
    for count in (n_pos, n_neg):
        p = np.where(count > 0, count, 1.0) / np.where(n > 0, n, 1.0)
        h = h - np.where(count > 0, p * np.log2(p), 0.0)
    return h if h.shape else float(h)


def info_gain(test, segments) -> float:
    """Information gain of a candidate test over a segment set."""
    segs = SegmentSet.from_segments(segments)
    r, q, tau = test
    mask = segs.x[:, r] - segs.x[:, q] > tau
    n = len(segs)
    if n == 0:
        raise ValueError("information gain of an empty set is undefined")
    n_pos = float(segs.n_positive)
    n_right = float(np.count_nonzero(mask))
    n_pos_right = float(np.count_nonzero(mask & (segs.labels == 1)))
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
    segs = SegmentSet.from_segments(segments)
    r, q, tau = test
    mask = segs.x[:, r] - segs.x[:, q] > tau
    positive = segs.labels == 1
    total = 0.0
    for side in (mask & positive, ~mask & positive):
        d = segs.dists[side]
        if len(d) == 0:
            continue
        mean = np.array([math.fsum(d[:, 0]) / len(d), math.fsum(d[:, 1]) / len(d)])
        total += math.fsum(((d - mean) ** 2).ravel())
    return total


# Candidates are scored this many at a time, so one node's split search holds
# O(rows x block) values however many candidates it draws.
_CANDIDATE_BLOCK = 1024


def _draw_pool(n_dims: int, n_candidates: int, rng):
    """Draw a node's candidate channels r and q, then threshold quantiles u."""
    r = rng.integers(0, n_dims, n_candidates)
    q = rng.integers(0, n_dims, n_candidates)
    u = rng.random(n_candidates)
    return r, q, u


def _candidate_blocks(x, r, q, u):
    """Yield ``(start, diffs, tau)`` for consecutive blocks of a candidate pool.

    ``diffs`` is the block's (B, n) matrix of x_r - x_q and ``tau`` its
    thresholds, each uniform over that candidate's observed range. ``diffs``
    is overwritten by the next block.
    """
    # transposed, each candidate's differences are two contiguous row reads
    xt = np.ascontiguousarray(x.T)
    # reused across blocks: a fresh array this large faults in every page
    size = min(len(r), _CANDIDATE_BLOCK)
    minuend = np.empty((size, len(x)))
    subtrahend = np.empty_like(minuend)
    for start in range(0, len(r), _CANDIDATE_BLOCK):
        stop = min(start + _CANDIDATE_BLOCK, len(r))
        diffs = minuend[: stop - start]
        other = subtrahend[: stop - start]
        # indices are in range, and "clip" lets take write straight into out
        np.take(xt, r[start:stop], axis=0, out=diffs, mode="clip")
        np.take(xt, q[start:stop], axis=0, out=other, mode="clip")
        diffs -= other
        lo = diffs.min(axis=1)
        hi = diffs.max(axis=1)
        yield start, diffs, lo + u[start:stop] * (hi - lo)


def draw_candidates(segments, n_candidates: int, rng):
    """Draw the candidate test pool for one node.

    Channels r and q are uniform over the feature dimensions; each threshold
    is uniform over the observed range of x_r - x_q within the node, so every
    candidate has a chance to separate something. This replays exactly the
    pool that ``select_best_test`` scores for the same RNG state.
    """
    segs = SegmentSet.from_segments(segments)
    r, q, u = _draw_pool(segs.x.shape[1], n_candidates, rng)
    tau = np.empty(n_candidates)
    for start, _, block_tau in _candidate_blocks(segs.x, r, q, u):
        tau[start:start + len(block_tau)] = block_tau
    return r, q, tau


@dataclass(eq=False)
class SplitChoice:
    r: int
    q: int
    tau: float
    objective: str
    mask: np.ndarray


def select_best_test(segments, n_candidates: int, objective: str, rng):
    """Pick the best candidate test for a node, or None when no candidate is valid.

    Classification maximizes information gain; regression minimizes the total
    distance variation. Candidates producing an empty child are invalid, as
    are regression candidates leaving a child without positives.

    The pool is scored in blocks of ``_CANDIDATE_BLOCK`` candidates, so memory
    grows with rows x block and not with ``n_candidates``. Ties keep the
    earliest-drawn candidate: within a block through argmax, across
    blocks because a later block replaces the running best only when it is
    strictly better. The result does not depend on the block size: child and
    positive counts are integers, and distance vectors are integer frame
    offsets, so every sum is exact in float64 in any order, and the scores
    are the same elementwise formulas as for the whole pool at once.
    """
    segs = SegmentSet.from_segments(segments)
    if objective not in (OBJECTIVE_CLASSIFICATION, OBJECTIVE_REGRESSION):
        raise ValueError(f"unknown objective {objective!r}")
    # positives first, so a block's positive columns are a contiguous view
    positive = segs.labels == 1
    order = np.argsort(~positive, kind="stable")
    n = float(len(segs))
    n_pos_rows = int(np.count_nonzero(positive))
    n_pos = float(n_pos_rows)
    h = _entropy_from_counts(n_pos, n - n_pos)
    d = segs.dists[positive]
    # one product gives each block's right-side s1 (onset, offset) and s2
    pos_stats = np.column_stack([d, (d**2).sum(axis=1)])
    s1_total = d.sum(axis=0)
    s2_total = float((d**2).sum())

    r, q, u = _draw_pool(segs.x.shape[1], n_candidates, rng)
    best = None
    best_score = -np.inf
    for start, diffs, tau in _candidate_blocks(segs.x[order], r, q, u):
        mask = diffs > tau[:, np.newaxis]
        pos_mask = mask[:, :n_pos_rows]
        n_right = np.count_nonzero(mask, axis=1).astype(np.float64)
        n_left = n - n_right
        valid = (n_right > 0) & (n_left > 0)
        n_pos_right = np.count_nonzero(pos_mask, axis=1).astype(np.float64)
        n_pos_left = n_pos - n_pos_right
        if objective == OBJECTIVE_CLASSIFICATION:
            h_right = _entropy_from_counts(n_pos_right, n_right - n_pos_right)
            h_left = _entropy_from_counts(n_pos_left, n_left - n_pos_left)
            gain = h - (n_right / n) * h_right
            gain = gain - (n_left / n) * h_left
            scores = np.where(valid, gain, -np.inf)
        else:
            valid &= (n_pos_right > 0) & (n_pos_left > 0)
            sums = pos_mask @ pos_stats
            s1_right = sums[:, :2]
            s2_right = sums[:, 2]
            safe_right = np.where(n_pos_right > 0, n_pos_right, 1.0)
            safe_left = np.where(n_pos_left > 0, n_pos_left, 1.0)
            v_right = s2_right - (s1_right**2).sum(axis=1) / safe_right
            s1_left = s1_total - s1_right
            v_left = (s2_total - s2_right) - (s1_left**2).sum(axis=1) / safe_left
            # negated (exactly), so both objectives keep the largest score
            scores = np.where(valid, -(v_right + v_left), -np.inf)
        i = int(np.argmax(scores))
        if scores[i] > best_score:
            best, best_tau, best_score = start + i, float(tau[i]), scores[i]

    if best is None:
        return None
    # information gain is non-negative by concavity of the entropy
    assert objective == OBJECTIVE_REGRESSION or best_score >= -1e-12
    r_best, q_best = int(r[best]), int(q[best])
    return SplitChoice(
        r=r_best,
        q=q_best,
        tau=best_tau,
        objective=objective,
        mask=segs.x[:, r_best] - segs.x[:, q_best] > best_tau,
    )


def gaussian_pdf(x, mean: float, variance: float):
    """Density of a one-dimensional normal distribution, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    dev = x - mean
    out = np.exp(-(dev * dev) / (2.0 * variance)) / np.sqrt(2.0 * np.pi * variance)
    return out if out.shape else float(out)


@dataclass(eq=False)
class LeafModel:
    """Leaf posterior and temporal distance Gaussians.

    The Gaussians exist exactly when the leaf saw at least one positive;
    ``onset`` and ``offset`` are (mean, variance) of the distances to the
    first and last segment of the enclosing event.
    """

    p_pos: float
    p_neg: float
    n_train: int
    onset: tuple | None = None
    offset: tuple | None = None


@dataclass(eq=False)
class SplitNode:
    r: int
    q: int
    tau: float
    objective: str
    left: object = None
    right: object = None


def _fit_leaf(leaf: LeafModel, labels, dists, variance_floor: float) -> LeafModel:
    """Set a leaf's posterior, row count and floored onset/offset Gaussians.

    ``labels`` and ``dists`` are the rows that reached the leaf; the Gaussians
    are cleared when none of them is positive.
    """
    n = len(labels)
    positive = labels == 1
    n_pos = int(np.count_nonzero(positive))
    leaf.p_pos = n_pos / n
    leaf.p_neg = 1.0 - leaf.p_pos
    leaf.n_train = n
    leaf.onset = leaf.offset = None
    if n_pos > 0:
        d = dists[positive]
        mean = d.mean(axis=0)
        var = np.maximum(d.var(axis=0), variance_floor)
        leaf.onset = (float(mean[0]), float(var[0]))
        leaf.offset = (float(mean[1]), float(var[1]))
    return leaf


def make_leaf(segments, variance_floor: float = 1e-6) -> LeafModel:
    """Estimate a leaf model from the segments that reached it."""
    segs = SegmentSet.from_segments(segments)
    if len(segs) == 0:
        raise ValueError("cannot build a leaf from an empty set")
    leaf = LeafModel(p_pos=0.0, p_neg=1.0, n_train=0)
    return _fit_leaf(leaf, segs.labels, segs.dists, variance_floor)


def train_tree(segments, config: ForestConfig, rng, depth: int = 1):
    """Grow one tree recursively; the root is at depth 1."""
    segs = SegmentSet.from_segments(segments)
    if depth >= config.max_depth or len(segs) <= config.min_segments:
        return make_leaf(segs, config.variance_floor)
    objective = (
        OBJECTIVE_CLASSIFICATION
        if depth <= config.steer_depth
        else OBJECTIVE_REGRESSION
    )
    if objective == OBJECTIVE_REGRESSION and segs.n_positive < 2:
        return make_leaf(segs, config.variance_floor)
    choice = select_best_test(segs, config.n_candidate_tests, objective, rng)
    if choice is None:
        return make_leaf(segs, config.variance_floor)
    node = SplitNode(r=choice.r, q=choice.q, tau=choice.tau, objective=objective)
    node.left = train_tree(segs.take(~choice.mask), config, rng, depth + 1)
    node.right = train_tree(segs.take(choice.mask), config, rng, depth + 1)
    return node


@dataclass(eq=False)
class Forest:
    """Per-class detector: trees plus stream-level constants."""

    class_label: str
    trees: list
    config: ForestConfig
    feature_config: FeatureConfig | None = None
    z_plus: float = 1.0
    z_minus: float = 1.0
    max_train_event_duration: float | None = None

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    def fingerprint(self) -> dict | None:
        if self.feature_config is None:
            return None
        return self.feature_config.fingerprint()


def _grow_one(segs: SegmentSet, config: ForestConfig, tree_index: int):
    rng = np.random.default_rng([config.rng_seed, tree_index])
    n_sub = max(1, int(config.subsample_ratio * len(segs)))
    indices = np.sort(rng.choice(len(segs), size=n_sub, replace=False))
    return train_tree(segs.take(indices), config, rng)


def train_forest(
    segments,
    config: ForestConfig,
    class_label: str = "",
    feature_config: FeatureConfig | None = None,
    n_workers: int = 1,
) -> Forest:
    """Train and calibrate a forest for one event class.

    Each tree grows on its own subsample drawn without replacement and with
    its own seed stream, so results do not depend on worker count. After
    growing, every leaf is re-estimated from the full training set.
    """
    segs = SegmentSet.from_segments(segments)
    if segs.n_positive == 0:
        raise ValueError(
            f"cannot train class {class_label!r}: no positive segments"
        )
    if segs.n_positive == len(segs):
        raise ValueError(
            f"cannot train class {class_label!r}: no negative segments"
        )
    if n_workers > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            trees = list(
                pool.map(lambda i: _grow_one(segs, config, i), range(config.n_trees))
            )
    else:
        trees = [_grow_one(segs, config, i) for i in range(config.n_trees)]

    duration = None
    if feature_config is not None and segs.n_positive:
        lengths = segs.dists[segs.labels == 1].sum(axis=1) + 1.0
        duration = float(lengths.max()) * feature_config.hop_len
    forest = Forest(
        class_label=class_label,
        trees=trees,
        config=config,
        feature_config=feature_config,
        max_train_event_duration=duration,
    )
    calibrate(forest, segs)
    return forest


def _iter_leaves(node):
    if isinstance(node, LeafModel):
        yield node
    else:
        yield from _iter_leaves(node.left)
        yield from _iter_leaves(node.right)


def _route_indices(node, x, indices, reached):
    if isinstance(node, LeafModel):
        reached[id(node)] = indices
        return
    right = x[indices, node.r] - x[indices, node.q] > node.tau
    _route_indices(node.left, x, indices[~right], reached)
    _route_indices(node.right, x, indices[right], reached)


def calibrate(forest: Forest, segments) -> None:
    """Re-estimate all leaf models by routing the full training set.

    Every reached leaf gets its posterior and Gaussians recomputed from the
    arriving segments, and records how many arrived. Leaves nothing reaches
    keep their grown statistics but record zero, so the arrival counts of a
    tree's leaves always sum to the calibration set size.
    """
    segs = SegmentSet.from_segments(segments)
    all_indices = np.arange(len(segs))
    for tree in forest.trees:
        reached: dict = {}
        _route_indices(tree, segs.x, all_indices, reached)
        for leaf in _iter_leaves(tree):
            indices = reached.get(id(leaf))
            if indices is None or len(indices) == 0:
                leaf.n_train = 0
                continue
            _fit_leaf(
                leaf,
                segs.labels[indices],
                segs.dists[indices],
                forest.config.variance_floor,
            )


def _flatten(node, out: list) -> None:
    if isinstance(node, LeafModel):
        out.append(
            {
                "kind": "leaf",
                "p_pos": _finite_float(node.p_pos),
                "p_neg": _finite_float(node.p_neg),
                "n_train": int(node.n_train),
                "onset": list(node.onset) if node.onset is not None else None,
                "offset": list(node.offset) if node.offset is not None else None,
            }
        )
    else:
        out.append(
            {
                "kind": "split",
                "r": int(node.r),
                "q": int(node.q),
                "tau": _finite_float(node.tau),
                "objective": node.objective,
            }
        )
        _flatten(node.left, out)
        _flatten(node.right, out)


def _finite_float(value) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"model contains non-finite value {value}")
    return value


def _unflatten(nodes: list, cursor: list):
    entry = nodes[cursor[0]]
    cursor[0] += 1
    if entry["kind"] == "leaf":
        onset = tuple(entry["onset"]) if entry["onset"] is not None else None
        offset = tuple(entry["offset"]) if entry["offset"] is not None else None
        return LeafModel(
            p_pos=entry["p_pos"],
            p_neg=entry["p_neg"],
            n_train=entry["n_train"],
            onset=onset,
            offset=offset,
        )
    if entry["kind"] != "split":
        raise ValueError(f"unknown node kind {entry['kind']!r}")
    node = SplitNode(
        r=entry["r"], q=entry["q"], tau=entry["tau"], objective=entry["objective"]
    )
    node.left = _unflatten(nodes, cursor)
    node.right = _unflatten(nodes, cursor)
    return node


def forest_to_dict(forest: Forest) -> dict:
    trees = []
    for tree in forest.trees:
        flat: list = []
        _flatten(tree, flat)
        trees.append(flat)
    return {
        "format_version": FORMAT_VERSION,
        "class_label": forest.class_label,
        "feature_fingerprint": (
            asdict(forest.feature_config) if forest.feature_config else None
        ),
        "config": asdict(forest.config),
        "z_plus": _finite_float(forest.z_plus),
        "z_minus": _finite_float(forest.z_minus),
        "max_train_event_duration": (
            _finite_float(forest.max_train_event_duration)
            if forest.max_train_event_duration is not None
            else None
        ),
        "trees": trees,
    }


def forest_from_dict(payload: dict) -> Forest:
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    feature_config = None
    if payload.get("feature_fingerprint"):
        feature_config = FeatureConfig(**payload["feature_fingerprint"])
    config = ForestConfig(**payload["config"])
    trees = []
    for flat in payload["trees"]:
        cursor = [0]
        trees.append(_unflatten(flat, cursor))
        if cursor[0] != len(flat):
            raise ValueError("model tree has trailing nodes")
    return Forest(
        class_label=payload["class_label"],
        trees=trees,
        config=config,
        feature_config=feature_config,
        z_plus=payload["z_plus"],
        z_minus=payload["z_minus"],
        max_train_event_duration=payload["max_train_event_duration"],
    )


def save_forest(forest: Forest, path) -> None:
    """Serialize a forest to JSON with deterministic byte layout."""
    with open(path, "w") as handle:
        json.dump(forest_to_dict(forest), handle, sort_keys=True,
                  separators=(",", ":"))
        handle.write("\n")


def load_forest(path) -> Forest:
    with open(path) as handle:
        return forest_from_dict(json.load(handle))
