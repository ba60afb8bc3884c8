"""Joint classification-regression forests over labeled audio segments.

Trees split on pairwise feature differences. Nodes up to the steering depth
choose splits by information gain on the class labels; deeper nodes minimize
the spread of the positives' temporal distance vectors, so leaves model where
inside an event their segments tend to sit.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import os
import sys
from collections import namedtuple
from concurrent.futures import BrokenExecutor
from dataclasses import asdict, dataclass, fields
from pathlib import Path

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
SplitChoice = namedtuple("SplitChoice", "r q tau")


class SegmentSet:
    """A training set as arrays: feature rows, class labels, distance vectors.

    Row ``i`` has features ``x[i]``, label ``labels[i]`` in {0, 1} and the
    distances ``dists[i]`` (in segments) to the first and last segment of its
    event. Distances are whole non-negative numbers on positives, so sums of
    them are exact in any order, and NaN on negatives, so positive-only
    statistics can mask them out.
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
        if (d != np.floor(d)).any():
            raise ValueError("positive distances must be whole numbers of segments")
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

_KERNEL_SOURCE = Path(__file__).with_name("_split.c")
# -ffp-contract=off keeps each threshold's bits (an FMA would round
# lo + u * (hi - lo) once, not twice); the finite-math pair lets gcc vectorize
# the minimum and maximum, and select_best_test gives the kernel finite
# differences only. target_clones in the source picks AVX-512, AVX2 or plain
# code at load.
_KERNEL_FLAGS = ("-O3", "-ffp-contract=off", "-ffinite-math-only",
                 "-fno-signed-zeros", "-shared", "-fPIC")


@functools.cache
def _kernel():
    """The compiled loops of ``_split.c``, or None where they cannot build.

    The first call compiles the source with the compiler Python was built
    with into the package's ``__pycache__``, keyed by a hash of the source,
    flags and compiler, and later calls and processes load that object (see
    ``_build_kernel``). A missing compiler, a failed build or an unwritable
    cache gives None, and the split search, ``route`` and
    ``detect.render_tracks`` stay on numpy.
    """
    import ctypes
    import hashlib
    import shlex
    import sysconfig

    compiler = shlex.split(sysconfig.get_config_var("CC") or "")
    if not compiler:
        return None
    try:
        key = hashlib.sha256(repr((_KERNEL_SOURCE.read_bytes(), _KERNEL_FLAGS,
                                   compiler)).encode()).hexdigest()[:16]
        path = _KERNEL_SOURCE.parent / "__pycache__" / f"_split.{key}.so"
        if not path.exists():
            _build_kernel(compiler, path)
        library = ctypes.CDLL(str(path))
    except OSError:
        return None
    # ndpointer checks each array's dtype and C order at every call
    doubles = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    integers = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
    addresses = np.ctypeslib.ndpointer(np.uint64, flags="C_CONTIGUOUS")
    size, real = ctypes.c_int64, ctypes.c_double
    for name, argtypes, restype in (
        ("split_counts", (doubles, size, size, integers, integers, doubles, size,
                          doubles, size, doubles, doubles, doubles, doubles,
                          doubles), None),
        ("route_rows", (doubles, size, size, integers, size, integers, integers,
                        integers, doubles, integers), None),
        ("vote_exponents", (doubles, integers, doubles, doubles, doubles, doubles,
                            size, size, real, size, size, size, real, integers,
                            doubles, size), size),
        ("splat_votes", (doubles, doubles, doubles, size, size, integers, doubles,
                         size, doubles, addresses), None),
    ):
        function = getattr(library, name)
        function.argtypes, function.restype = argtypes, restype
    return library


def _build_kernel(compiler: list, path: Path) -> None:
    """Compile ``_split.c`` to ``path``, or raise OSError.

    The object is written under a temporary name and renamed into place, so
    a process never loads a half-written object; once it is in place, every
    other ``_split.*.so`` there is removed. Only a build imports the modules
    it needs, so a process that loads a built object does not pay for them.
    """
    import subprocess
    import tempfile

    path.parent.mkdir(exist_ok=True)
    fd, building = tempfile.mkstemp(suffix=".so", dir=path.parent)
    os.close(fd)
    try:
        build = subprocess.run([*compiler, *_KERNEL_FLAGS, "-o", building,
                                str(_KERNEL_SOURCE)], stdin=subprocess.DEVNULL,
                               capture_output=True)
        if build.returncode:
            raise OSError(f"{_KERNEL_SOURCE.name} did not compile")
        os.chmod(building, 0o755)  # mkstemp made it private to its owner
        os.replace(building, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(building)
    # objects of an older source, flags or compiler are never loaded again
    for stale in path.parent.glob("_split.*.so"):
        if stale != path:
            with contextlib.suppress(OSError):
                stale.unlink()


def _draw_pool(n_dims: int, n_candidates: int, rng):
    """Draw a node's candidate channels r and q, then threshold quantiles u."""
    r = rng.integers(0, n_dims, n_candidates)
    q = rng.integers(0, n_dims, n_candidates)
    u = rng.random(n_candidates)
    return r, q, u


def _differences(xt, r, q, out, spare):
    """Rows x_r - x_q of each (r, q) in ``out``, with each row's min and max."""
    diffs, other = out[: len(r)], spare[: len(r)]
    # indices are in range, and "clip" lets take write straight into out
    np.take(xt, r, axis=0, out=diffs, mode="clip")
    np.take(xt, q, axis=0, out=other, mode="clip")
    diffs -= other
    return diffs, diffs.min(axis=1), diffs.max(axis=1)


def _candidate_blocks(x, r, q, u, first=None):
    """Yield ``(index, diffs, tau)`` for the blocks of a candidate pool, in draw order.

    ``index`` is the slice of the pool a block holds; ``diffs`` is its
    candidates' (B, n) matrix of x_r - x_q and ``tau`` their thresholds, each
    uniform over that candidate's observed range. A block has
    ``max(1, _BLOCK_CELLS // n)`` candidates, and ``diffs`` is overwritten by
    the next block. With ``first``, the blocks hold ``first`` candidates, then
    twice as many each time up to the usual size, so a caller that stops at
    its first hit forms few.
    """
    # transposed, each candidate's differences are two contiguous row reads
    xt = np.ascontiguousarray(x.T)
    block = max(1, _BLOCK_CELLS // max(1, len(x)))
    # reused across blocks: a fresh array this large faults in every page
    out = np.empty((min(len(r), block), len(x)))
    spare = np.empty_like(out)
    start, step = 0, first or block
    while start < len(r):
        stop = min(start + step, len(r))
        diffs, lo, hi = _differences(xt, r[start:stop], q[start:stop], out, spare)
        yield slice(start, stop), diffs, lo + u[start:stop] * (hi - lo)
        start, step = stop, min(2 * step, block)


def _first_valid(x, r, q, u):
    """``(k, tau)`` of the earliest candidate whose threshold lies below its
    largest difference, or None."""
    for index, diffs, block_tau in _candidate_blocks(x, r, q, u, first=1):
        hits = np.flatnonzero(block_tau < diffs.max(axis=1))
        if len(hits):
            return index.start + hits[0], block_tau[hits[0]]
    return None


def _pool_counts(kernel, x, n_pos_rows: int, r, q, u, pos_stats):
    """Each candidate's threshold and right child's row and positive counts.

    The rows of ``x`` are ordered positives first, ``n_pos_rows`` of them.
    With ``pos_stats``, the positives' (n_pos, 3) onset, offset and squared
    norm, it also gives each candidate's right-side sums of those, else None.
    The compiled kernel visits one candidate at a time; numpy visits the
    pool in blocks, and takes ``uint32`` byte sums of the right child's
    positive and negative columns.
    """
    n_candidates = len(r)
    tau = np.empty(n_candidates)
    n_right = np.empty(n_candidates)
    n_pos_right = np.empty(n_candidates)
    sums = None if pos_stats is None else np.empty((n_candidates, 3))
    if kernel is not None:
        regression = sums is not None
        # classification reads no statistics and writes no sums
        stats = np.ascontiguousarray(pos_stats.T) if regression else np.empty(0)
        buffer = np.empty(len(x))  # one candidate's differences at a time
        kernel.split_counts(np.ascontiguousarray(x.T), len(x), n_pos_rows, r, q, u,
                            n_candidates, stats, regression, buffer, tau, n_right,
                            n_pos_right, sums if regression else np.empty(0))
        return tau, n_right, n_pos_right, sums
    for index, diffs, block_tau in _candidate_blocks(x, r, q, u):
        right = diffs > block_tau[:, np.newaxis]
        # a bool is one byte of 0 or 1, so its row sum is the child count;
        # uint32 holds any count: 2**32 rows are 2 TB of 64-channel features
        cells = right.view(np.uint8)
        pos = np.add.reduce(cells[:, :n_pos_rows], axis=1, dtype=np.uint32)
        neg = np.add.reduce(cells[:, n_pos_rows:], axis=1, dtype=np.uint32)
        tau[index] = block_tau
        n_right[index] = pos + neg
        n_pos_right[index] = pos
        if sums is not None:
            sums[index] = right[:, :n_pos_rows] @ pos_stats
    return tau, n_right, n_pos_right, sums


def select_best_test(segments: SegmentSet, n_candidates: int, objective: str, rng):
    """Pick the best candidate test for a node, or None when no candidate is valid.

    Classification maximizes information gain; regression minimizes the total
    distance variation. A test is valid when it sends a row right, and for
    regression a positive each way. No test empties the left child: ``tau =
    lo + u * (hi - lo)`` with ``u`` in [0, 1) rounds to at least ``lo``, so
    the row at the smallest difference goes left; a NaN ``tau`` (from
    non-finite rows) sends every row left.

    ``_pool_counts`` gives every candidate's threshold, right-child counts
    and, for regression, right-side positive distance sums, in arrays of
    length ``n_candidates``. The compiled kernel (``_kernel``) makes them
    unless its build failed or some difference of the node is not finite (a
    row holds inf or NaN, or two values lie beyond the float range apart);
    numpy then makes them in blocks of ``max(1, _BLOCK_CELLS // rows)``
    candidates. The whole pool is then scored at once, and ties keep the
    earliest-drawn candidate (the first maximum). Memory grows with one
    block plus O(n_candidates). Counts are integers and distance vectors
    whole frame offsets (``SegmentSet`` checks that), so every sum is exact
    in float64 in any order: the result depends neither on the path nor on
    the block size.

    A classification node whose rows are all of one class scores nothing:
    it takes the earliest test in draw order whose threshold lies below its
    largest difference, threshold bits and all (``_first_valid``, on numpy
    on every machine; it never loads the kernel). That is exact: every
    entropy is 0.0, so every valid test gains exactly 0.0 and the first
    maximum is the earliest valid one. The whole pool is still drawn, so the
    tree's later nodes see the same random stream.
    """
    if objective not in _OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    regression = objective == OBJECTIVE_REGRESSION
    r, q, u = _draw_pool(segments.x.shape[1], n_candidates, rng)
    x = segments.x
    if not regression and segments.n_positive in (0, len(segments)):
        hit = _first_valid(x, r, q, u)
        if hit is None:
            return None
        k, tau = hit
        return SplitChoice(int(r[k]), int(q[k]), float(tau))
    # the kernel's min and max are exact on finite differences only, and no
    # difference exceeds the node's range
    kernel = _kernel() if np.isfinite(x.max() - x.min()) else None
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

    tau, n_right, n_pos_right, sums = _pool_counts(
        kernel, x[order], n_pos_rows, r, q, u,
        pos_stats if regression else None)

    n_left = n - n_right
    valid = n_right > 0
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
    return SplitChoice(int(r[best]), int(q[best]), float(tau[best]))


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
        roots, right, records = [], [], []  # records: see _node_fields
        waiting = []  # splits whose right subtree starts after the open one
        for t, nodes in enumerate(trees):
            roots.append(len(records))
            if not isinstance(nodes, list):
                raise ValueError(f"model tree {t}, tree is not a list of nodes")
            for i, node in enumerate(nodes):
                if i > 0 and records[-1][3] == "":  # a leaf just closed a subtree
                    if not waiting:
                        raise ValueError(f"model tree {t}, trailing nodes from node {i}")
                    right[waiting.pop()] = len(records)
                try:
                    records.append(_node_fields(node, n_features))
                except ValueError as exc:
                    raise ValueError(f"model tree {t}, node {i}: {exc}") from None
                if records[-1][3]:  # a split, whose right subtree comes later
                    waiting.append(len(records) - 1)
                right.append(-1)
            if waiting or not nodes:
                raise ValueError(f"model tree {t}, tree is truncated")
        r, q, tau, objective, p_pos, p_neg, n_train, onset, offset = (
            zip(*records) if records else [()] * 9)
        return cls(
            roots=np.array(roots, dtype=np.int64),
            right=np.array(right, dtype=np.int64),
            r=np.array(r, dtype=np.int64),
            q=np.array(q, dtype=np.int64),
            tau=np.array(tau, dtype=np.float64),
            objective=np.array(objective, dtype="<U14"),
            p_pos=np.array(p_pos, dtype=np.float64),
            p_neg=np.array(p_neg, dtype=np.float64),
            n_train=np.array(n_train, dtype=np.int64),
            onset=np.array(onset, dtype=np.float64).reshape(-1, 2),
            offset=np.array(offset, dtype=np.float64).reshape(-1, 2),
        )

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


_NO_GAUSSIAN = (math.nan, math.nan)


def _node_fields(node, n_features: int | None) -> tuple:
    """A node record's checked (r, q, tau, objective, p_pos, p_neg, n_train,
    onset, offset), with 0, NaN or "" in the fields of the other node kind."""
    if not isinstance(node, dict):
        raise ValueError("not an object")
    kind = _get(node, "kind")
    if kind == "split":
        r = _integer(_get(node, "r"), "r", n_features)
        q = _integer(_get(node, "q"), "q", n_features)
        tau = _finite_float(_get(node, "tau"), "tau")
        objective = _get(node, "objective")
        if objective not in _OBJECTIVES:
            raise ValueError(f"unknown objective {objective!r}")
        return r, q, tau, objective, math.nan, math.nan, 0, _NO_GAUSSIAN, _NO_GAUSSIAN
    if kind != "leaf":
        raise ValueError(f"unknown node kind {kind!r}")
    posterior = []
    for key in ("p_pos", "p_neg"):
        p = _finite_float(_get(node, key), key)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{key} {p} outside [0, 1]")
        posterior.append(p)
    n_train = _integer(_get(node, "n_train"), "n_train")
    onset, offset = _get(node, "onset"), _get(node, "offset")
    if (onset is None) != (offset is None):
        raise ValueError("onset and offset must both be given or both null")
    gaussians = []
    for key, pair in (("onset", onset), ("offset", offset)):
        if pair is None:
            gaussians.append(_NO_GAUSSIAN)
            continue
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError(f"{key} is not a [mean, variance] pair")
        mean = _finite_float(pair[0], f"{key} mean")
        var = _finite_float(pair[1], f"{key} variance")
        if var <= 0.0:
            raise ValueError(f"{key} variance {var} is not positive")
        gaussians.append((mean, var))
    return 0, 0, math.nan, "", *posterior, n_train, *gaussians


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
    if type(value) is float and math.isfinite(value):  # most of a model file
        return value
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

    Entry ``k`` is row ``k // T`` in tree ``k % T``. Ties ``x[r] - x[q] ==
    tau`` go left. The compiled kernel (``_kernel``) walks each pair down its
    tree; each step is one subtraction and one comparison, as in numpy, so
    both give the same leaves. Where it is missing, or some row holds inf or
    NaN (the kernel assumes finite values), all pairs move down together in
    numpy, one level per step, so trees of depth D take at most D - 1
    vectorized steps.
    """
    x = np.asarray(x, dtype=np.float64)
    splits = table.right >= 0
    if splits.any() and max(table.r[splits].max(), table.q[splits].max()) >= x.shape[1]:
        raise ValueError(
            f"feature vector of length {x.shape[1]} does not match the tree"
        )
    # the range of every row at once, without a temporary as large as x
    kernel = _kernel() if x.size and np.isfinite(x.max() - x.min()) else None
    if kernel is not None:
        leaf = np.empty(len(x) * len(table.roots), dtype=np.int64)
        kernel.route_rows(np.ascontiguousarray(x), len(x), x.shape[1], table.roots,
                          len(table.roots), table.right, table.r, table.q,
                          table.tau, leaf)
        return leaf
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


# every leaf a tree grows, until ``calibrate`` gives it its statistics
_GROWN_LEAF = {"kind": "leaf", "p_pos": 0.0, "p_neg": 1.0, "n_train": 0,
               "onset": None, "offset": None}


def _grow(segs: SegmentSet, config: ForestConfig, rng, depth: int, nodes: list) -> list:
    """``nodes`` with the pre-order records of the subtree grown on ``segs`` appended."""
    choice = None
    if depth < config.max_depth and len(segs) > config.min_segments:
        classify = depth <= config.steer_depth
        objective = OBJECTIVE_CLASSIFICATION if classify else OBJECTIVE_REGRESSION
        if classify or segs.n_positive >= 2:
            choice = select_best_test(segs, config.n_candidate_tests, objective, rng)
    if choice is None:
        nodes.append(_GROWN_LEAF)
        return nodes
    nodes.append({"kind": "split", **choice._asdict(), "objective": objective})
    right = segs.x[:, choice.r] - segs.x[:, choice.q] > choice.tau
    _grow(segs.take(~right), config, rng, depth + 1, nodes)
    return _grow(segs.take(right), config, rng, depth + 1, nodes)


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
    # built and loaded once here, so that forked children inherit it
    _kernel()
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
    a child that dies raises ``BrokenExecutor``. Growth records only the
    splits. As soon as a class's trees are in, this process calibrates every
    leaf on the class's full training set and yields the forest, while the
    children grow the trees of the classes after it.
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
            # each grown leaf holds a subsample row, which routes there again
            assert forest.table.n_train[forest.table.right < 0].all(), label
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
    """Estimate every leaf's statistics from the segments routed to it.

    A leaf that n segments reach, n_pos of them positive, records n and the
    posterior ``p_pos = n_pos / n``. Its onset and offset Gaussians are the
    mean and population variance of the positives' distances, the variance
    floored at ``variance_floor``; without positives it has none. A leaf
    nothing reaches keeps its statistics and records 0. Each sum is a
    ``np.bincount`` over the routed (row, tree) pairs, which adds a leaf's rows
    in ascending order; distances are integers, so the means are exact.
    """
    table, n_trees, size = forest.table, forest.n_trees, len(forest.table)
    leaf_of = route(table, segments.x)
    counts = np.bincount(leaf_of, minlength=size)
    positive = np.flatnonzero(np.repeat(segments.labels == 1, n_trees))
    pos_leaf = leaf_of[positive]
    n_pos = np.bincount(pos_leaf, minlength=size)
    leaves, reached = table.right < 0, counts > 0
    table.n_train[leaves] = counts[leaves]
    table.p_pos[reached] = n_pos[reached] / counts[reached]
    table.p_neg[reached] = 1.0 - table.p_pos[reached]
    gaussian = n_pos > 0
    d = segments.dists[positive // n_trees]
    for key, column in (("onset", d[:, 0]), ("offset", d[:, 1])):
        mean = np.bincount(pos_leaf, weights=column, minlength=size)
        mean[gaussian] = mean[gaussian] / n_pos[gaussian]
        dev = column - mean[pos_leaf]
        var = np.bincount(pos_leaf, weights=dev * dev, minlength=size)
        var = var[gaussian] / n_pos[gaussian]
        stats = getattr(table, key)
        stats[reached] = np.nan
        stats[gaussian] = np.column_stack(
            [mean[gaussian], np.maximum(var, forest.config.variance_floor)])


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
    not later during detection. The label must be a non-empty string that a
    detections file reads back as written: no tab, line break or outer
    whitespace. The fingerprint and the training duration must be present.
    Keys missing from ``feature_fingerprint`` or ``config`` take their
    defaults, so ``{}`` reads as ``FeatureConfig()`` or ``ForestConfig()``.
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
    if class_label != class_label.strip() or {"\t", "\n", "\r"} & set(class_label):
        raise ValueError(f"model class_label {class_label!r} has a tab, a line "
                         "break or outer whitespace")
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
        # dumps takes the C encoder, which json.dump never uses
        handle.write(json.dumps(forest_to_dict(forest), sort_keys=True,
                                separators=(",", ":")))
        handle.write("\n")


def load_forest(path) -> Forest:
    with open(path) as handle:
        return forest_from_dict(json.load(handle))
