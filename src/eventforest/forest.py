"""Joint classification-regression forests over labeled audio segments.

Trees split on pairwise feature differences. Nodes up to the steering depth
choose splits by information gain on the class labels; deeper nodes minimize
the spread of the positives' temporal distance vectors, so leaves model where
inside an event their segments tend to sit.
"""

from __future__ import annotations

import json
import math
import sys
from collections import namedtuple
from concurrent.futures import BrokenExecutor
from dataclasses import asdict, dataclass, fields

import numpy as np

from .features import FeatureConfig

OBJECTIVE_CLASSIFICATION = "classification"
OBJECTIVE_REGRESSION = "regression"
_OBJECTIVES = (OBJECTIVE_CLASSIFICATION, OBJECTIVE_REGRESSION)
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


SegmentRow = namedtuple("SegmentRow", "x c d")


class SegmentSet:
    """A training set as arrays: feature rows, class labels, distance vectors.

    Row ``i`` has features ``x[i]``, label ``labels[i]`` in {0, 1} and the
    distances ``dists[i]`` (in segments) to the first and last segment of its
    event. Distances are finite and non-negative on positives and NaN on
    negatives, so positive-only statistics can mask them out.
    """

    def __init__(self, x, labels, dists):
        self.x = np.asarray(x, dtype=np.float64)
        labels = np.asarray(labels)
        self.dists = np.asarray(dists, dtype=np.float64)
        if self.x.ndim != 2 or labels.shape != (len(self.x),):
            raise ValueError("inconsistent segment arrays")
        if self.dists.shape != (len(self.x), 2):
            raise ValueError("distance array must be (n, 2)")
        if not np.isin(labels, (0, 1)).all():
            raise ValueError("class labels must be 0 or 1")
        self.labels = labels.astype(np.int8)
        positive = self.labels == 1
        d = self.dists[positive]
        if not (np.isfinite(d).all() and (d >= 0.0).all()):
            raise ValueError("positive distances must be finite and non-negative")
        if not np.isnan(self.dists[~positive]).all():
            raise ValueError("distances must be present exactly for positives")

    @classmethod
    def concatenate(cls, sets) -> "SegmentSet":
        """The rows of ``sets`` one after another, in order."""
        return cls(*(np.concatenate([getattr(s, key) for s in sets])
                     for key in ("x", "labels", "dists")))

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        """``(x, c, d)`` rows, with ``d`` NaN on negatives."""
        return map(SegmentRow, self.x, self.labels.tolist(), self.dists)

    @property
    def n_positive(self) -> int:
        return int(np.count_nonzero(self.labels == 1))

    def take(self, indices) -> "SegmentSet":
        """The rows at ``indices``, not checked again: they were checked here."""
        subset = object.__new__(SegmentSet)
        subset.x, subset.labels = self.x[indices], self.labels[indices]
        subset.dists = self.dists[indices]
        return subset


def _entropy_from_counts(n_pos, n_neg):
    """Entropy from the two class counts; scalar or elementwise on arrays."""
    n = n_pos + n_neg
    h = np.zeros(np.shape(n))
    for count in (n_pos, n_neg):
        p = np.where(count > 0, count, 1.0) / np.where(n > 0, n, 1.0)
        h = h - np.where(count > 0, p * np.log2(p), 0.0)
    return h if h.shape else float(h)


# A block of candidates holds about this many difference cells (512 KB of
# float64), so it stays in cache whatever the node's row count.
_BLOCK_CELLS = 1 << 16


def _draw_pool(n_dims: int, n_candidates: int, rng):
    """Draw a node's candidate channels r and q, then threshold quantiles u."""
    r = rng.integers(0, n_dims, n_candidates)
    q = rng.integers(0, n_dims, n_candidates)
    u = rng.random(n_candidates)
    return r, q, u


def _candidate_blocks(x, r, q, u):
    """Yield ``(start, diffs, tau)`` for consecutive blocks of a candidate pool.

    ``diffs`` is the block's (B, n) matrix of x_r - x_q and ``tau`` its
    thresholds, each uniform over that candidate's observed range. A block
    has ``max(1, _BLOCK_CELLS // n)`` candidates, and ``diffs`` is
    overwritten by the next block.
    """
    # transposed, each candidate's differences are two contiguous row reads
    xt = np.ascontiguousarray(x.T)
    block = max(1, _BLOCK_CELLS // max(1, len(x)))
    # reused across blocks: a fresh array this large faults in every page
    size = min(len(r), block)
    minuend = np.empty((size, len(x)))
    subtrahend = np.empty_like(minuend)
    for start in range(0, len(r), block):
        stop = min(start + block, len(r))
        diffs = minuend[: stop - start]
        other = subtrahend[: stop - start]
        # indices are in range, and "clip" lets take write straight into out
        np.take(xt, r[start:stop], axis=0, out=diffs, mode="clip")
        np.take(xt, q[start:stop], axis=0, out=other, mode="clip")
        diffs -= other
        lo = diffs.min(axis=1)
        hi = diffs.max(axis=1)
        yield start, diffs, lo + u[start:stop] * (hi - lo)


@dataclass(eq=False)
class SplitChoice:
    r: int
    q: int
    tau: float
    objective: str
    mask: np.ndarray


def select_best_test(segments: SegmentSet, n_candidates: int, objective: str, rng):
    """Pick the best candidate test for a node, or None when no candidate is valid.

    Classification maximizes information gain; regression minimizes the total
    distance variation. Candidates producing an empty child are invalid, as
    are regression candidates leaving a child without positives.

    The pool's differences are formed in blocks of about ``_BLOCK_CELLS``
    cells (``max(1, _BLOCK_CELLS // rows)`` candidates), small enough to stay
    in cache. Each block records only its candidates' threshold, child counts
    and, for regression, right-side positive distance sums, in arrays of
    length ``n_candidates``. The whole pool is then scored at once, and ties
    keep the earliest-drawn candidate (the first maximum). Memory therefore
    grows with one block plus O(n_candidates), and the result does not
    depend on the block size: child and positive counts are integers, and
    distance vectors are integer frame offsets, so every sum is exact in
    float64 in any order.
    """
    if objective not in _OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    regression = objective == OBJECTIVE_REGRESSION
    # positives first, so a block's positive columns are a contiguous view
    positive = segments.labels == 1
    order = np.argsort(~positive, kind="stable")
    n = float(len(segments))
    n_pos_rows = int(np.count_nonzero(positive))
    n_pos = float(n_pos_rows)
    h = _entropy_from_counts(n_pos, n - n_pos)
    d = segments.dists[positive]
    # one product gives each candidate's right-side s1 (onset, offset) and s2
    pos_stats = np.column_stack([d, (d**2).sum(axis=1)])
    s1_total = d.sum(axis=0)
    s2_total = float((d**2).sum())

    r, q, u = _draw_pool(segments.x.shape[1], n_candidates, rng)
    tau = np.empty(n_candidates)
    n_right = np.empty(n_candidates)
    n_pos_right = np.empty(n_candidates)
    sums = np.empty((n_candidates, pos_stats.shape[1])) if regression else None
    for start, diffs, block_tau in _candidate_blocks(segments.x[order], r, q, u):
        stop = start + len(block_tau)
        mask = diffs > block_tau[:, np.newaxis]
        pos_mask = mask[:, :n_pos_rows]
        tau[start:stop] = block_tau
        n_right[start:stop] = np.count_nonzero(mask, axis=1)
        n_pos_right[start:stop] = np.count_nonzero(pos_mask, axis=1)
        if regression:
            sums[start:stop] = pos_mask @ pos_stats

    n_left = n - n_right
    valid = (n_right > 0) & (n_left > 0)
    n_pos_left = n_pos - n_pos_right
    if objective == OBJECTIVE_CLASSIFICATION:
        h_right = _entropy_from_counts(n_pos_right, n_right - n_pos_right)
        h_left = _entropy_from_counts(n_pos_left, n_left - n_pos_left)
        gain = h - (n_right / n) * h_right
        gain = gain - (n_left / n) * h_left
        scores = np.where(valid, gain, -np.inf)
    else:
        valid &= (n_pos_right > 0) & (n_pos_left > 0)
        s1_right = sums[:, :2]
        s2_right = sums[:, 2]
        safe_right = np.where(n_pos_right > 0, n_pos_right, 1.0)
        safe_left = np.where(n_pos_left > 0, n_pos_left, 1.0)
        v_right = s2_right - (s1_right**2).sum(axis=1) / safe_right
        s1_left = s1_total - s1_right
        v_left = (s2_total - s2_right) - (s1_left**2).sum(axis=1) / safe_left
        # negated (exactly), so both objectives keep the largest score
        scores = np.where(valid, -(v_right + v_left), -np.inf)
    if not valid.any():
        return None
    # the first maximum is the earliest-drawn of the tied candidates
    best = int(np.argmax(scores))
    # information gain is non-negative by concavity of the entropy
    assert regression or scores[best] >= -1e-12
    r_best, q_best, best_tau = int(r[best]), int(q[best]), float(tau[best])
    return SplitChoice(
        r=r_best,
        q=q_best,
        tau=best_tau,
        objective=objective,
        mask=segments.x[:, r_best] - segments.x[:, q_best] > best_tau,
    )


def gaussian_pdf(x, mean: float, variance: float):
    """Density of a one-dimensional normal distribution, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    dev = x - mean
    out = np.exp(-(dev * dev) / (2.0 * variance)) / np.sqrt(2.0 * np.pi * variance)
    return out if out.shape else float(out)


@dataclass(eq=False)
class Tree:
    """One decision tree as arrays over its nodes in pre-order.

    Split ``i`` sends a feature vector ``x`` to ``right[i]`` when
    ``x[r[i]] - x[q[i]] > tau[i]`` and to its left child ``i + 1`` otherwise;
    a leaf has ``right[i] == -1``. A leaf holds its posterior, the number of
    training rows that reached it, and the (mean, variance) Gaussians of the
    distances to the first and last segment of the enclosing event, NaN when
    no positive reached it. Fields of the other node kind are 0, NaN or "".
    """

    right: np.ndarray
    r: np.ndarray
    q: np.ndarray
    tau: np.ndarray
    objective: np.ndarray
    p_pos: np.ndarray
    p_neg: np.ndarray
    n_train: np.ndarray
    onset: np.ndarray
    offset: np.ndarray

    def __len__(self) -> int:
        return len(self.right)

    @classmethod
    def from_nodes(cls, nodes, n_features: int | None = None) -> "Tree":
        """Build a tree from the model file's pre-order node records.

        A split record has ``r``, ``q``, ``tau`` and ``objective``; a leaf
        record ``p_pos``, ``p_neg``, ``n_train`` and ``onset``/``offset``,
        both a [mean, variance] pair or both null. Each record is checked,
        with channels below ``n_features`` when it is given.
        """
        if not isinstance(nodes, list):
            raise ValueError("tree is not a list of nodes")
        n = len(nodes)
        tree = cls(
            right=np.full(n, -1, dtype=np.int64),
            objective=np.full(n, "", dtype="<U14"),
            **{key: np.zeros(n, dtype=np.int64) for key in ("r", "q", "n_train")},
            **{key: np.full(n, np.nan) for key in ("tau", "p_pos", "p_neg")},
            **{key: np.full((n, 2), np.nan) for key in ("onset", "offset")},
        )
        waiting = []  # splits whose right subtree starts after the open one
        for i, node in enumerate(nodes):
            if i > 0 and tree.objective[i - 1] == "":  # a subtree just closed
                if not waiting:
                    raise ValueError(f"trailing nodes from node {i}")
                tree.right[waiting.pop()] = i
            try:
                if not isinstance(node, dict):
                    raise ValueError("not an object")
                kind = _get(node, "kind")
                if kind == "split":
                    tree.r[i] = _integer(_get(node, "r"), "r", n_features)
                    tree.q[i] = _integer(_get(node, "q"), "q", n_features)
                    tree.tau[i] = _finite_float(_get(node, "tau"), "tau")
                    objective = _get(node, "objective")
                    if objective not in _OBJECTIVES:
                        raise ValueError(f"unknown objective {objective!r}")
                    tree.objective[i] = objective
                    waiting.append(i)
                elif kind == "leaf":
                    tree.set_leaf(i, node)
                else:
                    raise ValueError(f"unknown node kind {kind!r}")
            except ValueError as exc:
                raise ValueError(f"node {i}: {exc}") from None
        if waiting or n == 0:
            raise ValueError("tree is truncated")
        return tree

    def set_leaf(self, i: int, node: dict) -> None:
        """Write leaf record ``node`` to node ``i``, checking its values."""
        for key in ("p_pos", "p_neg"):
            p = _finite_float(_get(node, key), key)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{key} {p} outside [0, 1]")
            getattr(self, key)[i] = p
        self.n_train[i] = _integer(_get(node, "n_train"), "n_train")
        onset, offset = _get(node, "onset"), _get(node, "offset")
        if (onset is None) != (offset is None):
            raise ValueError("onset and offset must both be given or both null")
        for key, pair in (("onset", onset), ("offset", offset)):
            if pair is None:
                getattr(self, key)[i] = np.nan
                continue
            if not isinstance(pair, list) or len(pair) != 2:
                raise ValueError(f"{key} is not a [mean, variance] pair")
            mean = _finite_float(pair[0], f"{key} mean")
            var = _finite_float(pair[1], f"{key} variance")
            if var <= 0.0:
                raise ValueError(f"{key} variance {var} is not positive")
            getattr(self, key)[i] = (mean, var)

    def to_nodes(self) -> list:
        """The pre-order node records that ``from_nodes`` reads."""
        nodes = []
        for i in range(len(self)):
            if self.right[i] >= 0:
                nodes.append({"kind": "split", "r": int(self.r[i]),
                              "q": int(self.q[i]), "tau": _finite_float(self.tau[i]),
                              "objective": str(self.objective[i])})
            else:
                nodes.append({"kind": "leaf", "p_pos": _finite_float(self.p_pos[i]),
                              "p_neg": _finite_float(self.p_neg[i]),
                              "n_train": int(self.n_train[i]),
                              "onset": _pair(self.onset[i]),
                              "offset": _pair(self.offset[i])})
        return nodes


def _pair(gaussian) -> list | None:
    return None if np.isnan(gaussian[0]) else [float(v) for v in gaussian]


def _get(node: dict, key: str):
    try:
        return node[key]
    except KeyError:
        raise ValueError(f"missing key {key!r}") from None


def _integer(value, what: str, upper: int | None = None) -> int:
    """``value`` as an int in ``[0, upper)``, or in ``[0, 2**63)`` without ``upper``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} is not an integer: {value!r}")
    upper = 2**63 if upper is None else upper
    if not 0 <= value < upper:
        raise ValueError(f"{what} {value} outside [0, {upper})")
    return int(value)


def _finite_float(value, what: str = "value") -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, np.number)):
        raise ValueError(f"{what} is not a number: {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"model contains non-finite {what} {value}")
    return value


def route(tree: Tree, x) -> np.ndarray:
    """Leaf index of every row of the (n, d) matrix ``x``.

    All rows move down together, one level per step, so a tree of depth D
    takes at most D - 1 vectorized steps. Ties ``x[r] - x[q] == tau`` go left.
    """
    x = np.asarray(x, dtype=np.float64)
    splits = tree.right >= 0
    if splits.any() and max(tree.r[splits].max(), tree.q[splits].max()) >= x.shape[1]:
        raise ValueError(
            f"feature vector of length {x.shape[1]} does not match the tree"
        )
    node = np.zeros(len(x), dtype=np.int64)
    active = np.flatnonzero(splits[node])
    while len(active):
        at = node[active]
        right = x[active, tree.r[at]] - x[active, tree.q[at]] > tree.tau[at]
        at = np.where(right, tree.right[at], at + 1)
        node[active] = at
        active = active[splits[at]]
    return node


def make_leaf(segments: SegmentSet, variance_floor: float = 1e-6) -> dict:
    """Leaf record estimated from the segments that reached the leaf.

    The onset and offset Gaussians are floored, and null without positives.
    """
    n = len(segments)
    if n == 0:
        raise ValueError("cannot build a leaf from an empty set")
    positive = segments.labels == 1
    n_pos = int(np.count_nonzero(positive))
    p_pos = n_pos / n
    leaf = {"kind": "leaf", "p_pos": p_pos, "p_neg": 1.0 - p_pos, "n_train": n,
            "onset": None, "offset": None}
    if n_pos > 0:
        d = segments.dists[positive]
        mean = d.mean(axis=0)
        var = np.maximum(d.var(axis=0), variance_floor)
        leaf["onset"] = [float(mean[0]), float(var[0])]
        leaf["offset"] = [float(mean[1]), float(var[1])]
    return leaf


def _grow(segs: SegmentSet, config: ForestConfig, rng, depth: int, nodes: list):
    """Append the pre-order records of the subtree grown on ``segs``."""
    choice = None
    if depth < config.max_depth and len(segs) > config.min_segments:
        classify = depth <= config.steer_depth
        objective = OBJECTIVE_CLASSIFICATION if classify else OBJECTIVE_REGRESSION
        if classify or segs.n_positive >= 2:
            choice = select_best_test(segs, config.n_candidate_tests, objective, rng)
    if choice is None:
        nodes.append(make_leaf(segs, config.variance_floor))
        return
    nodes.append({"kind": "split", "r": choice.r, "q": choice.q,
                  "tau": choice.tau, "objective": objective})
    _grow(segs.take(~choice.mask), config, rng, depth + 1, nodes)
    _grow(segs.take(choice.mask), config, rng, depth + 1, nodes)


def train_tree(segments: SegmentSet, config: ForestConfig, rng) -> Tree:
    """Grow one tree, writing its nodes in pre-order, left subtree first."""
    nodes: list = []
    _grow(segments, config, rng, 1, nodes)
    return Tree.from_nodes(nodes, segments.x.shape[1])


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


def shared_feature_config(forests) -> FeatureConfig:
    """The feature configuration that all of ``forests`` were trained with.

    Raises ValueError when a forest carries no fingerprint or was trained in
    another feature space than the first one.
    """
    first = forests[0].feature_config
    for forest in forests:
        if forest.feature_config is None:
            raise ValueError(f"model {forest.class_label!r} has no feature fingerprint")
        if forest.feature_config.fingerprint() != first.fingerprint():
            raise ValueError(
                f"model {forest.class_label!r} was trained in a different "
                f"feature space than {forests[0].class_label!r}"
            )
    return first


def _grow_one(segs: SegmentSet, config: ForestConfig, tree_index: int):
    rng = np.random.default_rng([config.rng_seed, tree_index])
    n_sub = max(1, int(config.subsample_ratio * len(segs)))
    indices = np.sort(rng.choice(len(segs), size=n_sub, replace=False))
    return train_tree(segs.take(indices), config, rng)


# (segments, config, next_tree) in a worker process, set by the pool initializer
_worker_job = None


def _init_worker(segments: SegmentSet, config: ForestConfig, next_tree) -> None:
    global _worker_job
    _worker_job = (segments, config, next_tree)


def _grow_in_worker() -> dict:
    return _grow_claimed(*_worker_job)


def _grow_claimed(segments: SegmentSet, config: ForestConfig, next_tree) -> dict:
    """Grow trees by index until none is left, claiming each from ``next_tree``.

    ``next_tree`` is a shared counter, so every tree is grown exactly once
    whichever process claims it.
    """
    trees = {}
    while True:
        with next_tree.get_lock():
            i = next_tree.value
            next_tree.value = i + 1
        if i >= config.n_trees:
            return trees
        trees[i] = _grow_one(segments, config, i)


def _start_method() -> str | None:
    """Fork where the platform has it, else None: the default, spawn.

    A forked child shares the training set's pages with its parent and
    nothing is pickled. The pool forks all its children before it starts its
    manager thread, and the package runs BLAS on one thread, so no lock is
    held by a thread the child lacks. A spawned child gets the set pickled,
    and its import of this package pins BLAS to one thread before numpy
    loads.
    """
    import multiprocessing

    return "fork" if "fork" in multiprocessing.get_all_start_methods() else None


def _grow_trees(segments: SegmentSet, config: ForestConfig, n_workers: int) -> list:
    """Grow the forest's trees, in index order, on ``n_workers`` processes.

    One worker is this process; the others are ``min(n_workers, n_trees) - 1``
    child processes. Each worker claims the next tree nobody has claimed
    until none is left, so no worker idles while a tree waits.
    """
    n_children = min(n_workers, config.n_trees) - 1
    if n_children == 0:
        return [_grow_one(segments, config, i) for i in range(config.n_trees)]
    # imported here, so that only a run with workers loads multiprocessing
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context(_start_method())
    next_tree = context.Value("q", 0)
    pool = ProcessPoolExecutor(
        n_children,
        mp_context=context,
        initializer=_init_worker,
        initargs=(segments, config, next_tree),
    )
    try:
        futures = [pool.submit(_grow_in_worker) for _ in range(n_children)]
        trees = _grow_claimed(segments, config, next_tree)
        for future in futures:
            trees.update(future.result())
        return [trees[i] for i in range(config.n_trees)]
    finally:
        next_tree.value = config.n_trees  # after an error, no child starts a tree
        pool.shutdown(cancel_futures=True)


def train_forest(
    segments: SegmentSet,
    config: ForestConfig,
    class_label: str = "",
    feature_config: FeatureConfig | None = None,
    n_workers: int = 1,
) -> Forest:
    """Train and calibrate a forest for one event class.

    Each tree grows on its own subsample drawn without replacement and with
    its own seed stream, so results do not depend on worker count. With
    ``n_workers`` above one, trees grow at once in this process and in up to
    ``n_workers - 1`` child processes, never more children than trees less
    one; a child that dies raises ``BrokenExecutor``. After growing,
    every leaf is re-estimated from the full training set.
    """
    if n_workers < 1:
        raise ValueError(f"need at least one worker, got {n_workers}")
    if segments.n_positive == 0:
        raise ValueError(
            f"cannot train class {class_label!r}: no positive segments"
        )
    if segments.n_positive == len(segments):
        raise ValueError(
            f"cannot train class {class_label!r}: no negative segments"
        )
    try:
        trees = _grow_trees(segments, config, n_workers)
    except BrokenExecutor as exc:
        raise BrokenExecutor(f"cannot train class {class_label!r}: {exc}") from None

    duration = None
    if feature_config is not None and segments.n_positive:
        lengths = segments.dists[segments.labels == 1].sum(axis=1) + 1.0
        duration = float(lengths.max()) * feature_config.hop_len
    forest = Forest(
        class_label=class_label,
        trees=trees,
        config=config,
        feature_config=feature_config,
        max_train_event_duration=duration,
    )
    calibrate(forest, segments)
    return forest


def calibrate(forest: Forest, segments: SegmentSet) -> None:
    """Re-estimate all leaf models by routing the full training set.

    Every reached leaf gets its posterior and Gaussians recomputed from the
    arriving segments, taken in ascending row order, and records how many
    arrived. Leaves nothing reaches keep their grown statistics but record
    zero, so the arrival counts of a tree's leaves always sum to the
    calibration set size.
    """
    floor = forest.config.variance_floor
    for tree in forest.trees:
        leaf_of = route(tree, segments.x)
        counts = np.bincount(leaf_of, minlength=len(tree))
        # rows grouped by leaf, ascending within each group
        rows = np.split(np.argsort(leaf_of, kind="stable"), np.cumsum(counts)[:-1])
        tree.n_train[tree.right < 0] = 0
        for leaf in np.flatnonzero(counts):
            tree.set_leaf(leaf, make_leaf(segments.take(rows[leaf]), floor))


def expected_type(value, default) -> str | None:
    """What a JSON ``value`` standing for ``default`` must be, or None if it is.

    A value takes the type of the default: true or false, an integer, or a
    finite number, which may be written as an integer. Booleans are not
    numbers here.
    """
    if isinstance(default, bool):
        return None if isinstance(value, bool) else "true or false"
    kind = "an integer" if isinstance(default, int) else "a finite number"
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return kind
    if kind == "an integer":
        return None if isinstance(value, int) else kind
    # NaN and infinities fail this, and so do integers beyond the float range
    return None if abs(value) <= sys.float_info.max else kind


def _config_from_dict(cls, values, what: str):
    """``cls(**values)`` once every value has its field default's type."""
    if not isinstance(values, dict):
        raise ValueError(f"model {what} is not an object")
    defaults = {field.name: field.default for field in fields(cls)}
    for key, value in values.items():
        if key not in defaults:
            raise ValueError(f"model {what} has unknown key {key!r}")
        expected = expected_type(value, defaults[key])
        if expected:
            raise ValueError(f"model {what} {key!r} must be {expected}")
    return cls(**values)


def forest_to_dict(forest: Forest) -> dict:
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
        "trees": [tree.to_nodes() for tree in forest.trees],
    }


def _positive(value, what: str) -> float:
    value = _finite_float(value, what)
    if value <= 0.0:
        raise ValueError(f"model {what} {value} is not positive")
    return value


def forest_from_dict(payload: dict) -> Forest:
    """Rebuild a forest from ``forest_to_dict`` output.

    Every field is checked, so a malformed model raises ValueError here and
    not later during detection.
    """
    if not isinstance(payload, dict):
        raise ValueError("model is not a JSON object")
    version = payload.get("format_version")
    if expected_type(version, FORMAT_VERSION) or version != FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    feature_config = None
    if _get(payload, "feature_fingerprint"):
        feature_config = _config_from_dict(
            FeatureConfig, payload["feature_fingerprint"], "feature_fingerprint"
        )
    config = _config_from_dict(ForestConfig, _get(payload, "config"), "config")
    class_label = _get(payload, "class_label")
    if not isinstance(class_label, str):
        raise ValueError("model class_label is not a string")
    duration = _get(payload, "max_train_event_duration")
    if duration is not None:
        duration = _positive(duration, "max_train_event_duration")
    if not isinstance(_get(payload, "trees"), list) or not payload["trees"]:
        raise ValueError("model has no trees")
    n_features = feature_config.n_channels if feature_config else None
    trees = []
    for t, nodes in enumerate(payload["trees"]):
        try:
            trees.append(Tree.from_nodes(nodes, n_features))
        except ValueError as exc:
            raise ValueError(f"model tree {t}, {exc}") from None
    return Forest(
        class_label=class_label,
        trees=trees,
        config=config,
        feature_config=feature_config,
        z_plus=_positive(_get(payload, "z_plus"), "z_plus"),
        z_minus=_positive(_get(payload, "z_minus"), "z_minus"),
        max_train_event_duration=duration,
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
