"""Joint classification-regression forests over labeled audio segments.

Trees split on pairwise feature differences. Nodes up to the steering depth
choose splits by information gain on the class labels; deeper nodes minimize
the spread of the positives' temporal distance vectors, so leaves model where
inside an event their segments tend to sit.
"""

from __future__ import annotations

import contextlib
import itertools
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
    in cache. A block's right-child counts are byte sums of its bool mask over
    the positive and the negative columns (rows are ordered positives first),
    accumulated as ``uint32``, which no node can overflow: 2**32 rows would be
    2 TB of features at the default 64 channels. Each block records only its
    candidates' threshold, child counts and, for regression, right-side
    positive distance sums, in arrays of length ``n_candidates``. The whole
    pool is then scored at once, and ties keep the earliest-drawn candidate
    (the first maximum). Memory therefore grows with one block plus
    O(n_candidates), and the result does not depend on the block size: child
    and positive counts are integers, and distance vectors are integer frame
    offsets, so every sum is exact in float64 in any order.
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
        # a bool is one byte of 0 or 1, so its row sum is the child count;
        # uint32 holds any count: 2**32 rows are 2 TB of 64-channel features
        cells = mask.view(np.uint8)
        pos = np.add.reduce(cells[:, :n_pos_rows], axis=1, dtype=np.uint32)
        neg = np.add.reduce(cells[:, n_pos_rows:], axis=1, dtype=np.uint32)
        tau[start:stop] = block_tau
        n_right[start:stop] = pos + neg
        n_pos_right[start:stop] = pos
        if regression:
            sums[start:stop] = mask[:, :n_pos_rows] @ pos_stats

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
class NodeTable:
    """A forest's trees as arrays over all their nodes, tree after tree.

    Tree ``t`` is in pre-order from node ``roots[t]``. Split ``i`` sends a
    feature vector ``x`` to ``right[i]``, an index into the table, when
    ``x[r[i]] - x[q[i]] > tau[i]`` and to its left child ``i + 1`` otherwise;
    a leaf has ``right[i] == -1``. A leaf holds its posterior, the number of
    training rows that reached it, and the (mean, variance) Gaussians of the
    distances to the first and last segment of the enclosing event, NaN when
    no positive reached it. Fields of the other node kind are 0, NaN or "".
    """

    roots: np.ndarray
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
    def from_trees(cls, trees, n_features: int | None = None) -> "NodeTable":
        """Build the table from the model file's node records, one list per tree.

        Each list holds a tree in pre-order. A split record has ``r``, ``q``,
        ``tau`` and ``objective``; a leaf record ``p_pos``, ``p_neg``,
        ``n_train`` and ``onset``/``offset``, both a [mean, variance] pair or
        both null. Each record is checked, with channels below ``n_features``
        if given.
        """
        n = sum(len(nodes) for nodes in trees if isinstance(nodes, list))
        table = cls(
            roots=np.zeros(len(trees), dtype=np.int64),
            right=np.full(n, -1, dtype=np.int64),
            objective=np.full(n, "", dtype="<U14"),
            **{key: np.zeros(n, dtype=np.int64) for key in ("r", "q", "n_train")},
            **{key: np.full(n, np.nan) for key in ("tau", "p_pos", "p_neg")},
            **{key: np.full((n, 2), np.nan) for key in ("onset", "offset")},
        )
        waiting, at = [], 0  # splits whose right subtree starts after the open one
        for t, nodes in enumerate(trees):
            table.roots[t] = at
            if not isinstance(nodes, list):
                raise ValueError(f"model tree {t}, tree is not a list of nodes")
            for i, node in enumerate(nodes):
                if i > 0 and table.objective[at - 1] == "":  # a subtree just closed
                    if not waiting:
                        raise ValueError(f"model tree {t}, trailing nodes from node {i}")
                    table.right[waiting.pop()] = at
                try:
                    if not isinstance(node, dict):
                        raise ValueError("not an object")
                    kind = _get(node, "kind")
                    if kind == "split":
                        table.r[at] = _integer(_get(node, "r"), "r", n_features)
                        table.q[at] = _integer(_get(node, "q"), "q", n_features)
                        table.tau[at] = _finite_float(_get(node, "tau"), "tau")
                        objective = _get(node, "objective")
                        if objective not in _OBJECTIVES:
                            raise ValueError(f"unknown objective {objective!r}")
                        table.objective[at] = objective
                        waiting.append(at)
                    elif kind == "leaf":
                        table.set_leaf(at, node)
                    else:
                        raise ValueError(f"unknown node kind {kind!r}")
                except ValueError as exc:
                    raise ValueError(f"model tree {t}, node {i}: {exc}") from None
                at += 1
            if waiting or not nodes:
                raise ValueError(f"model tree {t}, tree is truncated")
        return table

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

    def to_trees(self) -> list:
        """The per-tree lists of pre-order node records that ``from_trees`` reads."""
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
        bounds = [*self.roots.tolist(), len(self)]
        return [nodes[start:stop] for start, stop in zip(bounds, bounds[1:])]


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


def route(table: NodeTable, x) -> np.ndarray:
    """Leaf index of every (row, tree) pair of the (n, d) matrix ``x``.

    Entry ``k`` is row ``k // T`` in tree ``k % T``. All pairs move down
    together, one level per step, so trees of depth D take at most D - 1
    vectorized steps. Ties ``x[r] - x[q] == tau`` go left.
    """
    x = np.asarray(x, dtype=np.float64)
    splits = table.right >= 0
    if splits.any() and max(table.r[splits].max(), table.q[splits].max()) >= x.shape[1]:
        raise ValueError(
            f"feature vector of length {x.shape[1]} does not match the tree"
        )
    node = np.tile(table.roots, len(x))
    active = np.flatnonzero(splits[node])
    while len(active):
        at = node[active]
        row = active // len(table.roots)
        right = x[row, table.r[at]] - x[row, table.q[at]] > table.tau[at]
        at = np.where(right, table.right[at], at + 1)
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


def _grow(segs: SegmentSet, config: ForestConfig, rng, depth: int, nodes: list) -> list:
    """``nodes`` with the pre-order records of the subtree grown on ``segs`` appended."""
    choice = None
    if depth < config.max_depth and len(segs) > config.min_segments:
        classify = depth <= config.steer_depth
        objective = OBJECTIVE_CLASSIFICATION if classify else OBJECTIVE_REGRESSION
        if classify or segs.n_positive >= 2:
            choice = select_best_test(segs, config.n_candidate_tests, objective, rng)
    if choice is None:
        nodes.append(make_leaf(segs, config.variance_floor))
        return nodes
    nodes.append({"kind": "split", "r": choice.r, "q": choice.q,
                  "tau": choice.tau, "objective": objective})
    _grow(segs.take(~choice.mask), config, rng, depth + 1, nodes)
    return _grow(segs.take(choice.mask), config, rng, depth + 1, nodes)


@dataclass(eq=False)
class Forest:
    """Per-class detector: its trees' node table plus the constants detection needs.

    These are the feature space the trees split in, the longest training
    event in seconds, and the score normalizers ``z_plus``/``z_minus``.
    """

    class_label: str
    table: NodeTable
    config: ForestConfig
    feature_config: FeatureConfig
    max_train_event_duration: float
    z_plus: float = 1.0
    z_minus: float = 1.0

    @property
    def n_trees(self) -> int:
        return len(self.table.roots)


def shared_feature_config(forests) -> FeatureConfig:
    """The feature configuration that all of ``forests`` were trained with.

    Raises ValueError when two forests name the same class, or when a forest
    was trained with another ``FeatureConfig`` than the first one, noise
    subtraction included: every class is scored on the same feature rows.
    """
    first = forests[0].feature_config
    seen = set()
    for forest in forests:
        if forest.class_label in seen:
            raise ValueError(f"two models are for class {forest.class_label!r}")
        seen.add(forest.class_label)
        if forest.feature_config != first:
            raise ValueError(
                f"model {forest.class_label!r} was trained in a different "
                f"feature space than {forests[0].class_label!r}"
            )
    return first


def _grow_one(segs: SegmentSet, config: ForestConfig, tree_index: int):
    rng = np.random.default_rng([config.rng_seed, tree_index])
    n_sub = max(1, int(config.subsample_ratio * len(segs)))
    indices = np.sort(rng.choice(len(segs), size=n_sub, replace=False))
    return _grow(segs.take(indices), config, rng, 1, [])


# (training sets, config) in a worker process, set by the pool initializer
_worker_job = None


def _init_worker(training_sets: list, config: ForestConfig) -> None:
    global _worker_job
    _worker_job = (training_sets, config)


def _grow_in_worker(job: tuple) -> list:
    training_sets, config = _worker_job
    k, tree_index = job
    return _grow_one(training_sets[k], config, tree_index)


def _start_method() -> str | None:
    """Fork where the platform has it, else None: the default, spawn.

    A forked child shares the training sets' pages with its parent and
    nothing is pickled. The pool forks all its children before it starts its
    manager thread, and the package runs BLAS on one thread, so no lock is
    held by a thread the child lacks. A spawned child gets the sets pickled,
    and its import of this package pins BLAS to one thread before numpy
    loads.
    """
    import multiprocessing

    return "fork" if "fork" in multiprocessing.get_all_start_methods() else None


def _grow_trees(training_sets: list, config: ForestConfig, n_workers: int):
    """Yield the node records of every (set, tree) job, set by set, trees in index order.

    The jobs grow on ``min(n_workers, jobs)`` processes. With one, this
    process grows every tree itself and starts no process. Otherwise one pool
    of that many child processes, started once, grows all the jobs in order,
    and this process only collects them.
    """
    jobs = [(k, t) for k in range(len(training_sets)) for t in range(config.n_trees)]
    n_processes = min(n_workers, len(jobs))
    if n_processes <= 1:  # no job, or one process for all of them
        for k, t in jobs:
            yield _grow_one(training_sets[k], config, t)
        return
    # imported here, so that only a run with workers loads multiprocessing
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(
        n_processes,
        mp_context=multiprocessing.get_context(_start_method()),
        initializer=_init_worker,
        initargs=(training_sets, config),
    )
    try:
        yield from pool.map(_grow_in_worker, jobs)
    finally:
        pool.shutdown(cancel_futures=True)


def train_forests(
    training_sets: dict,
    config: ForestConfig,
    feature_config: FeatureConfig,
    n_workers: int = 1,
):
    """Train and calibrate one forest per class, yielding them in the given order.

    ``training_sets`` maps each class label to its ``SegmentSet`` in the
    feature space ``feature_config``; each forest keeps that, and the longest
    positive event of its set converted to seconds. Each tree grows on its
    own subsample drawn without replacement and with its own seed stream, so
    results do not depend on worker count. When ``min(n_workers, classes ×
    n_trees)`` is above one, one pool of that many child processes, started
    before the first forest is yielded, grows every class's trees in order;
    a child that dies raises ``BrokenExecutor``. As soon as a class's trees
    are in, this process re-estimates every leaf from the class's full
    training set and yields the forest, while the children grow the trees of
    the classes after it.
    """
    if n_workers < 1:
        raise ValueError(f"need at least one worker, got {n_workers}")
    for label, segments in training_sets.items():
        if segments.n_positive in (0, len(segments)):
            kind = "positive" if segments.n_positive == 0 else "negative"
            raise ValueError(f"cannot train class {label!r}: no {kind} segments")
    trees = _grow_trees(list(training_sets.values()), config, n_workers)
    with contextlib.closing(trees):
        for label, segments in training_sets.items():
            try:
                grown = list(itertools.islice(trees, config.n_trees))
            except BrokenExecutor as exc:
                raise BrokenExecutor(f"cannot train class {label!r}: {exc}") from None
            lengths = segments.dists[segments.labels == 1].sum(axis=1) + 1.0
            forest = Forest(
                class_label=label,
                table=NodeTable.from_trees(grown, segments.x.shape[1]),
                config=config,
                feature_config=feature_config,
                max_train_event_duration=float(lengths.max()) * feature_config.hop_len,
            )
            calibrate(forest, segments)
            yield forest


def train_forest(
    segments: SegmentSet,
    config: ForestConfig,
    class_label: str,
    feature_config: FeatureConfig,
    n_workers: int = 1,
) -> Forest:
    """Train and calibrate a forest for one event class: ``train_forests`` of one set."""
    [forest] = train_forests({class_label: segments}, config, feature_config, n_workers)
    return forest


def calibrate(forest: Forest, segments: SegmentSet) -> None:
    """Re-estimate all leaf models by routing the full training set.

    Every reached leaf gets its posterior and Gaussians recomputed from the
    arriving segments, taken in ascending row order, and records how many
    arrived. Leaves nothing reaches keep their grown statistics but record
    zero, so the arrival counts of a tree's leaves always sum to the
    calibration set size.
    """
    table, n_trees = forest.table, forest.n_trees
    leaf_of = route(table, segments.x)
    counts = np.bincount(leaf_of, minlength=len(table))
    # rows grouped by leaf: a leaf's pairs are all in its tree, so the stable
    # order of the (row, tree) pairs keeps its rows ascending
    pairs = np.argsort(leaf_of, kind="stable")
    rows = np.split(pairs // n_trees, np.cumsum(counts)[:-1])
    table.n_train[table.right < 0] = 0
    for leaf in np.flatnonzero(counts):
        table.set_leaf(leaf, make_leaf(segments.take(rows[leaf]),
                                       forest.config.variance_floor))


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
        "feature_fingerprint": asdict(forest.feature_config),
        "config": asdict(forest.config),
        "z_plus": _finite_float(forest.z_plus),
        "z_minus": _finite_float(forest.z_minus),
        "max_train_event_duration": _finite_float(forest.max_train_event_duration),
        "trees": forest.table.to_trees(),
    }


def _positive(payload: dict, key: str) -> float:
    value = _finite_float(_get(payload, key), key)
    if value <= 0.0:
        raise ValueError(f"model {key} {value} is not positive")
    return value


def forest_from_dict(payload: dict) -> Forest:
    """Rebuild a forest from ``forest_to_dict`` output.

    Every field is checked, so a malformed model raises ValueError here and
    not later during detection. The label must be a non-empty string, and
    the fingerprint and the training duration must be present. Keys missing
    from ``feature_fingerprint`` or ``config`` take their defaults, so ``{}``
    reads as ``FeatureConfig()`` or ``ForestConfig()``.
    """
    if not isinstance(payload, dict):
        raise ValueError("model is not a JSON object")
    version = payload.get("format_version")
    if expected_type(version, FORMAT_VERSION) or version != FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    feature_config = _config_from_dict(
        FeatureConfig, _get(payload, "feature_fingerprint"), "feature_fingerprint"
    )
    config = _config_from_dict(ForestConfig, _get(payload, "config"), "config")
    class_label = _get(payload, "class_label")
    if not isinstance(class_label, str) or not class_label:
        raise ValueError("model class_label is not a non-empty string")
    if not isinstance(_get(payload, "trees"), list) or not payload["trees"]:
        raise ValueError("model has no trees")
    return Forest(
        class_label=class_label,
        table=NodeTable.from_trees(payload["trees"], feature_config.n_channels),
        config=config,
        feature_config=feature_config,
        max_train_event_duration=_positive(payload, "max_train_event_duration"),
        z_plus=_positive(payload, "z_plus"),
        z_minus=_positive(payload, "z_minus"),
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
