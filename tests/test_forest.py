"""Split search, objectives, leaf models, training, calibration, model files."""

import concurrent.futures
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FEATURE_DIM,
    distance_variation,
    draw_candidates,
    entropy,
    feature_config,
    info_gain,
    leaf_node,
    node_depths,
    oracle_best_split,
    oracle_calibrate,
    random_segments,
    random_tree,
    segment_set,
    split_node,
    split_test,
    tree_leaves,
)
from eventforest import forest as forest_module
from eventforest.features import FeatureConfig
from eventforest.forest import (
    OBJECTIVE_CLASSIFICATION,
    OBJECTIVE_REGRESSION,
    Forest,
    ForestConfig,
    NodeTable,
    SegmentSet,
    calibrate,
    forest_from_dict,
    forest_to_dict,
    gaussian_pdf,
    load_forest,
    make_leaf,
    save_forest,
    select_best_test,
    train_forest,
    train_forests,
)


def separable_set(n_pos=6, n_neg=6):
    """Positives at [+1, 0], negatives at [-1, 0]; one channel is constant."""
    rows = [([1.0, 0.0], 1, [float(i % 3), 1.0]) for i in range(n_pos)]
    rows += [([-1.0, 0.0], 0, None)] * n_neg
    return segment_set(rows)


# ---------------------------------------------------------------- split test


def test_split_test_examples():
    assert split_test([2.0, 0.0], 0, 1, 1.0) == 1
    assert split_test([2.0, 0.0], 0, 1, 2.0) == 0  # strict boundary
    for x in ([0.0, 5.0], [3.0, -1.0], [7.0, 7.0]):
        assert split_test(x, 0, 0, 0.0) == 0


# ---------------------------------------------------------------- entropy


def test_entropy_examples():
    assert entropy([1, 1, 1]) == 0.0
    assert entropy([0, 0]) == 0.0
    assert entropy([0, 1]) == 1.0
    three_one = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
    assert entropy([1, 1, 1, 0]) == pytest.approx(three_one, abs=1e-12)
    assert entropy([1, 1, 1, 0]) == pytest.approx(0.8113, abs=1e-4)


def test_entropy_empty_is_an_error():
    with pytest.raises(ValueError):
        entropy([])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=50))
def test_entropy_bounds(labels):
    h = entropy(labels)
    assert 0.0 <= h <= 1.0


# ---------------------------------------------------------------- info gain


def test_info_gain_perfect_split_is_one():
    segments = separable_set(4, 4)
    assert info_gain((0, 1, 0.0), segments) == 1.0


def test_info_gain_no_split_is_zero():
    segments = separable_set(4, 4)
    assert info_gain((0, 1, -5.0), segments) == 0.0


def test_info_gain_matches_plain_definition():
    rng = np.random.default_rng(17)
    for _ in range(30):
        segments = random_segments(rng, 10, dim=4)
        r, q = rng.integers(0, 4, 2)
        tau = float(rng.normal())
        got = info_gain((int(r), int(q), tau), segments)

        right = [s.c for s in segments if s.x[r] - s.x[q] > tau]
        left = [s.c for s in segments if not s.x[r] - s.x[q] > tau]

        def h(labels):
            total = len(labels)
            out = 0.0
            for c in (0, 1):
                k = labels.count(c)
                if k:
                    out -= (k / total) * math.log2(k / total)
            return out

        expected = h([s.c for s in segments])
        if right:
            expected -= (len(right) / 10) * h(right)
        if left:
            expected -= (len(left) / 10) * h(left)
        assert got == pytest.approx(expected, abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_info_gain_never_negative(seed):
    rng = np.random.default_rng(seed)
    segments = random_segments(rng, int(rng.integers(2, 14)), dim=4)
    r, q = (int(v) for v in rng.integers(0, 4, 2))
    tau = float(rng.normal())
    assert info_gain((r, q, tau), segments) >= -1e-12


# ---------------------------------------------------------------- variation


def test_distance_variation_single_positive_per_side_is_zero():
    segments = segment_set([
        ([1.0, 0.0], 1, [3.0, 4.0]),
        ([-1.0, 0.0], 1, [7.0, 2.0]),
    ])
    assert distance_variation((0, 1, 0.0), segments) == 0.0


def test_distance_variation_hand_example():
    segments = segment_set([
        ([1.0, 0.0], 1, [0.0, 0.0]),
        ([1.0, 0.0], 1, [2.0, 2.0]),
        ([-1.0, 0.0], 1, [5.0, 5.0]),
    ])
    # right side holds [0,0] and [2,2]: mean [1,1], deviations sum to 4
    assert distance_variation((0, 1, 0.0), segments) == 4.0


def test_distance_variation_doubles_when_duplicated():
    rng = np.random.default_rng(23)
    segments = random_segments(rng, 9, dim=4)
    test = (0, 1, 0.1)
    base = distance_variation(test, segments)
    doubled = distance_variation(test, SegmentSet.concatenate([segments, segments]))
    assert doubled == 2.0 * base


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_distance_variation_nonnegative_and_zero_iff_degenerate(seed):
    rng = np.random.default_rng(seed)
    segments = random_segments(rng, int(rng.integers(2, 14)), dim=4, d_span=5)
    r, q = (int(v) for v in rng.integers(0, 4, 2))
    tau = float(rng.normal())
    v = distance_variation((r, q, tau), segments)
    assert v >= 0.0
    sides = ([], [])
    for s in segments:
        if s.c == 1:
            sides[int(s.x[r] - s.x[q] > tau)].append(tuple(s.d.tolist()))
    degenerate = all(len(set(side)) <= 1 for side in sides)
    assert (v == 0.0) == degenerate


# ---------------------------------------------------------------- candidates


def test_draw_candidates_ranges_and_determinism():
    rng = np.random.default_rng(31)
    sset = random_segments(rng, 20, dim=5)
    r, q, tau = draw_candidates(sset, 200, np.random.default_rng(1))
    assert r.min() >= 0 and r.max() < 5
    assert q.min() >= 0 and q.max() < 5
    diffs = sset.x[:, r] - sset.x[:, q]
    assert np.all(tau >= diffs.min(axis=0) - 1e-12)
    assert np.all(tau <= diffs.max(axis=0) + 1e-12)
    r2, q2, tau2 = draw_candidates(sset, 200, np.random.default_rng(1))
    assert np.array_equal(r, r2) and np.array_equal(q, q2)
    assert np.array_equal(tau, tau2)


# ---------------------------------------------------------------- best test


def test_select_best_test_separates_perfectly():
    segments = separable_set()
    choice = select_best_test(
        segments, 400, OBJECTIVE_CLASSIFICATION, np.random.default_rng(2)
    )
    assert choice is not None
    assert info_gain((choice.r, choice.q, choice.tau), segments) == 1.0
    labels = np.array([s.c for s in segments], bool)
    assert np.array_equal(choice.mask, labels) or np.array_equal(
        choice.mask, ~labels
    )


def test_select_best_test_identical_features_signals_leaf():
    segments = segment_set([
        ([1.0, 1.0], 1, [2.0, 3.0]),
        ([1.0, 1.0], 1, [4.0, 1.0]),
        ([1.0, 1.0], 0, None),
        ([1.0, 1.0], 0, None),
    ])
    for objective in (OBJECTIVE_CLASSIFICATION, OBJECTIVE_REGRESSION):
        assert (
            select_best_test(segments, 100, objective, np.random.default_rng(0))
            is None
        )


def test_select_best_test_deterministic_per_seed():
    rng = np.random.default_rng(41)
    segments = random_segments(rng, 30, dim=6, class_shift=1.5)
    a = select_best_test(
        segments, 300, OBJECTIVE_CLASSIFICATION, np.random.default_rng(7)
    )
    b = select_best_test(
        segments, 300, OBJECTIVE_CLASSIFICATION, np.random.default_rng(7)
    )
    assert (a.r, a.q, a.tau) == (b.r, b.q, b.tau)


def test_select_best_regression_needs_positives_on_both_sides():
    segments = separable_set(4, 4)  # any split isolates all positives
    assert (
        select_best_test(
            segments, 200, OBJECTIVE_REGRESSION, np.random.default_rng(3)
        )
        is None
    )


# Candidates per block in the boundary tests: the cell budget is patched so
# that a node of the test's rows scores this many candidates a block.
BLOCK = 1024


def use_block(monkeypatch, segments, block):
    """Make a node of ``segments`` score ``block`` candidates per block."""
    monkeypatch.setattr(forest_module, "_BLOCK_CELLS", block * len(segments))


def assert_matches_oracle(segments, n_candidates, objective, seed):
    """select_best_test returns the oracle's (r, q, tau) and its partition."""
    choice = select_best_test(
        segments, n_candidates, objective, np.random.default_rng(seed)
    )
    expected = oracle_best_split(segments, n_candidates, objective, seed)
    if expected is None:
        assert choice is None
        return None
    _, r, q, tau = expected
    assert choice is not None
    assert (choice.r, choice.q, choice.tau) == (r, q, tau)
    went_right = [split_test(s.x, r, q, tau) == 1 for s in segments]
    assert choice.mask.tolist() == went_right
    return expected


def test_select_best_test_agrees_with_scalar_oracle(monkeypatch):
    rng = np.random.default_rng(53)
    cases = []  # (segments, seed, candidates per block or None for default)
    for trial in range(10):
        segments = random_segments(rng, int(rng.integers(6, 40)), dim=FEATURE_DIM)
        cases.append((segments, int(rng.integers(0, 2**31)), None))
    # one class only, so the positive or the negative columns are empty
    mixed = random_segments(rng, 30, dim=FEATURE_DIM)
    for label in (0, 1):
        cases.append((mixed.take(mixed.labels == label), 7, None))
    # more than 255 rows of each class, past what a byte can count, over
    # four blocks of 32 candidates
    large = random_segments(rng, 600, dim=FEATURE_DIM, class_shift=0.5)
    assert min(large.n_positive, len(large) - large.n_positive) > 255
    cases.append((large, 11, 32))
    for segments, seed, block in cases:
        if block is not None:
            use_block(monkeypatch, segments, block)
        for objective in (OBJECTIVE_CLASSIFICATION, OBJECTIVE_REGRESSION):
            assert_matches_oracle(segments, 128, objective, seed)


def test_select_best_test_partition_is_exact():
    rng = np.random.default_rng(61)
    segments = random_segments(rng, 40, dim=4, class_shift=2.0)
    choice = select_best_test(
        segments, 200, OBJECTIVE_CLASSIFICATION, np.random.default_rng(5)
    )
    n_right = int(choice.mask.sum())
    assert 0 < n_right < len(segments)
    for s, went_right in zip(segments, choice.mask):
        assert (s.x[choice.r] - s.x[choice.q] > choice.tau) == went_right


@pytest.mark.parametrize(
    "n_candidates", [BLOCK // 3, BLOCK - 1, BLOCK, BLOCK + 1, 5 * BLOCK // 2]
)
@pytest.mark.parametrize(
    "objective", [OBJECTIVE_CLASSIFICATION, OBJECTIVE_REGRESSION]
)
def test_select_best_test_block_boundaries_match_oracle(
    n_candidates, objective, monkeypatch
):
    rng = np.random.default_rng(n_candidates)
    segments = random_segments(rng, 24, dim=FEATURE_DIM, class_shift=0.5)
    use_block(monkeypatch, segments, BLOCK)
    assert assert_matches_oracle(segments, n_candidates, objective, 17)


@pytest.mark.parametrize(
    "objective", [OBJECTIVE_CLASSIFICATION, OBJECTIVE_REGRESSION]
)
def test_select_best_test_does_not_depend_on_the_block_size(objective, monkeypatch):
    rng = np.random.default_rng(89)
    segments = random_segments(rng, 300, dim=FEATURE_DIM, class_shift=0.5)

    def search():
        return select_best_test(segments, 500, objective, np.random.default_rng(9))

    default = search()  # 218 candidates a block at 300 rows
    assert default is not None
    # one candidate per block, then the whole pool in one block
    for cells in (1, 1 << 40):
        monkeypatch.setattr(forest_module, "_BLOCK_CELLS", cells)
        choice = search()
        assert (choice.r, choice.q, choice.tau) == (
            default.r, default.q, default.tau
        )
        assert np.array_equal(choice.mask, default.mask)


def two_cluster_set():
    """Rows at [+1, 0] and [-1, 0]: every test with r != q is the same split.

    Positives at [+1, 0] share one distance vector and positives at [-1, 0]
    another, so all valid candidates tie under both objectives.
    """
    return segment_set(
        [([1.0, 0.0], 1, [0.0, 3.0]), ([-1.0, 0.0], 1, [5.0, 1.0]),
         ([-1.0, 0.0], 0, None)] * 4
    )


@pytest.mark.parametrize(
    "objective", [OBJECTIVE_CLASSIFICATION, OBJECTIVE_REGRESSION]
)
def test_select_best_test_tie_across_blocks_keeps_earliest(objective, monkeypatch):
    segments = two_cluster_set()
    use_block(monkeypatch, segments, BLOCK)
    n_candidates = 5 * BLOCK // 2
    index, r, q, tau = assert_matches_oracle(segments, n_candidates, objective, 3)
    assert index < BLOCK
    score = info_gain if objective == OBJECTIVE_CLASSIFICATION else distance_variation
    r_all, q_all, tau_all = draw_candidates(
        segments, n_candidates, np.random.default_rng(3)
    )
    tied_later = [
        i for i in range(BLOCK, n_candidates)
        if r_all[i] != q_all[i]
        and score((r_all[i], q_all[i], tau_all[i]), segments)
        == score((r, q, tau), segments)
    ]
    assert tied_later  # equal-scoring candidates sit in later blocks


def test_select_best_test_memory_is_bounded_in_candidates():
    n, n_candidates = 2000, 20000
    rng = np.random.default_rng(83)
    labels = (np.arange(n) % 3 == 0).astype(np.int8)
    dists = np.where(
        labels[:, np.newaxis] == 1,
        rng.integers(0, 40, size=(n, 2)).astype(float),
        np.nan,
    )
    sset = SegmentSet(rng.normal(size=(n, FEATURE_DIM)), labels, dists)
    # one block of differences (about 512 KB) plus O(K) per-candidate
    # arrays; a block of 1,024 candidates at 2,000 rows alone is 16 MB
    bound = 4 << 20
    for objective in (OBJECTIVE_CLASSIFICATION, OBJECTIVE_REGRESSION):
        tracemalloc.start()
        try:
            choice = select_best_test(
                sset, n_candidates, objective, np.random.default_rng(5)
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert choice is not None
        assert peak < bound, f"{objective}: peak {peak} B >= {bound} B"


# ---------------------------------------------------------------- leaf model


def test_make_leaf_posterior_counts():
    segments = segment_set([
        ([0.0], 1, [2.0, 1.0]),
        ([0.0], 1, [4.0, 3.0]),
        ([0.0], 0, None),
        ([0.0], 0, None),
        ([0.0], 0, None),
    ])
    leaf = make_leaf(segments)
    assert leaf["p_pos"] == 0.4
    assert leaf["p_neg"] == 0.6
    assert leaf["p_pos"] + leaf["p_neg"] == 1.0
    assert leaf["n_train"] == 5
    assert leaf["onset"] == [3.0, 1.0]  # population variance of {2, 4}
    assert leaf["offset"] == [2.0, 1.0]


def test_make_leaf_single_positive_hits_variance_floor():
    segments = segment_set([([0.0], 1, [5.0, 2.0]), ([0.0], 0, None)])
    leaf = make_leaf(segments, variance_floor=1e-6)
    assert leaf["onset"] == [5.0, 1e-6]
    assert leaf["offset"] == [2.0, 1e-6]
    wide = make_leaf(segments, variance_floor=0.25)
    assert wide["onset"][1] == 0.25


def test_make_leaf_without_positives_has_no_gaussians():
    segments = segment_set([([0.0], 0, None)] * 3)
    leaf = make_leaf(segments)
    assert leaf["p_pos"] == 0.0 and leaf["p_neg"] == 1.0
    assert leaf["onset"] is None and leaf["offset"] is None


def test_make_leaf_empty_is_an_error():
    with pytest.raises(ValueError):
        make_leaf(SegmentSet(np.zeros((0, 1)), np.zeros(0), np.zeros((0, 2))))


# ---------------------------------------------------------------- tree growth


def grown_tree(segments, config, rng):
    """The one-tree table of a tree grown from the root on ``segments``."""
    nodes = forest_module._grow(segments, config, rng, 1, [])
    return NodeTable.from_trees([nodes], segments.x.shape[1])


def test_small_set_collapses_to_single_leaf():
    rng = np.random.default_rng(71)
    segments = random_segments(rng, 10, dim=4)
    config = ForestConfig(min_segments=20)
    tree = grown_tree(segments, config, np.random.default_rng(0))
    assert len(tree) == 1 and tree.right[0] == -1
    assert tree.n_train[0] == 10


def test_steering_depth_controls_objectives():
    rng = np.random.default_rng(73)
    segments = random_segments(rng, 300, dim=4, class_shift=2.0)
    all_classification = ForestConfig(
        max_depth=4, steer_depth=4, min_segments=10, n_candidate_tests=200
    )
    tree = grown_tree(segments, all_classification, np.random.default_rng(1))
    splits = tree.right >= 0
    assert splits.any()
    assert all(tree.objective[splits] == OBJECTIVE_CLASSIFICATION)

    steered = ForestConfig(
        max_depth=5, steer_depth=2, min_segments=10, n_candidate_tests=200
    )
    tree = grown_tree(segments, steered, np.random.default_rng(1))
    for node, depth in enumerate(node_depths(tree)):
        if tree.right[node] >= 0:
            expected = (
                OBJECTIVE_CLASSIFICATION if depth <= 2 else OBJECTIVE_REGRESSION
            )
            assert tree.objective[node] == expected


def test_tree_depth_never_exceeds_limit():
    rng = np.random.default_rng(79)
    segments = random_segments(rng, 400, dim=4, class_shift=1.0)
    config = ForestConfig(
        max_depth=4, steer_depth=3, min_segments=2, n_candidate_tests=100
    )
    tree = grown_tree(segments, config, np.random.default_rng(2))
    assert max(node_depths(tree)) <= 4
    assert sum(tree.n_train[tree.right < 0]) == len(segments)


# ---------------------------------------------------------------- forest


def small_training_set(seed=83, n=200):
    rng = np.random.default_rng(seed)
    return random_segments(rng, n, dim=4, class_shift=2.0)


def small_config(**overrides):
    base = dict(
        n_trees=2,
        subsample_ratio=0.5,
        n_candidate_tests=100,
        max_depth=4,
        min_segments=10,
        steer_depth=3,
        rng_seed=5,
    )
    base.update(overrides)
    return ForestConfig(**base)


def test_single_full_sample_tree_matches_direct_growth():
    segments = small_training_set()
    config = small_config(n_trees=1, subsample_ratio=1.0)
    forest = train_forest(segments, config, "x", feature_config(4))

    rng = np.random.default_rng([config.rng_seed, 0])
    indices = np.sort(rng.choice(len(segments), size=len(segments), replace=False))
    manual = grown_tree(segments.take(indices), config, rng)

    def node_key(tree):
        return tuple(
            getattr(tree, field).tobytes()
            for field in ("right", "r", "q", "tau", "objective", "p_pos",
                          "p_neg", "n_train", "onset", "offset")
        )

    assert node_key(forest.table) == node_key(manual)


def test_train_forest_requires_both_classes():
    only_pos = segment_set([([0.0], 1, [1.0, 1.0])] * 5)
    only_neg = segment_set([([0.0], 0, None)] * 5)
    with pytest.raises(ValueError, match="cannot train class"):
        train_forest(only_pos, small_config(), "dog", feature_config())
    with pytest.raises(ValueError, match="cannot train class"):
        train_forest(only_neg, small_config(), "dog", feature_config())


def test_training_is_deterministic_on_disk(tmp_path):
    segments = small_training_set()
    paths = []
    for run in range(2):
        forest = train_forest(
            segments, small_config(), class_label="x",
            feature_config=feature_config(4),
        )
        path = tmp_path / f"model_{run}.json"
        save_forest(forest, path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def model_bytes(forest) -> bytes:
    """The model file's bytes: floats as repr, so equal bytes are equal bits."""
    return json.dumps(forest_to_dict(forest), sort_keys=True).encode()


def test_threaded_training_matches_serial():
    segments = small_training_set()
    # (trees, workers): fewer workers than trees, more, and a single tree
    for n_trees, n_workers in ((4, 2), (4, 3), (4, 6), (1, 3)):
        config = small_config(n_trees=n_trees)
        serial = train_forest(segments, config, "x", feature_config(4))
        pooled = train_forest(segments, config, "x", feature_config(4),
                              n_workers=n_workers)
        assert model_bytes(pooled) == model_bytes(serial), (n_trees, n_workers)


def class_sets(n_classes):
    """A small training set per class label, each drawn from its own seed."""
    return {f"c{k}": small_training_set(seed=83 + k) for k in range(n_classes)}


def serial_bytes(training_sets, config):
    """Each class's model bytes, trained on its own in this process."""
    return [model_bytes(train_forest(segments, config, label, feature_config(4)))
            for label, segments in training_sets.items()]


@pytest.mark.parametrize("n_classes, n_trees, n_workers",
                         [(3, 2, 2), (2, 1, 3), (3, 4, 10**9), (1, 1, 3)])
def test_one_pool_for_all_classes_matches_serial(n_classes, n_trees, n_workers):
    # a billion workers is capped at classes x trees processes
    training_sets = class_sets(n_classes)
    config = small_config(n_trees=n_trees)
    pooled = train_forests(training_sets, config, feature_config(4), n_workers)
    assert [model_bytes(f) for f in pooled] == serial_bytes(training_sets, config)


def test_spawned_workers_match_serial(monkeypatch):
    # spawn pickles every class's training set and the config into each child
    training_sets = class_sets(2)
    config = small_config(n_trees=2)
    serial = serial_bytes(training_sets, config)
    monkeypatch.setattr(forest_module, "_start_method", lambda: "spawn")
    spawned = train_forests(training_sets, config, feature_config(4), n_workers=2)
    assert [model_bytes(f) for f in spawned] == serial


def test_every_class_is_checked_before_any_tree_grows(monkeypatch):
    def no_growth(*args):
        raise AssertionError("a tree grew before every class was checked")

    monkeypatch.setattr(forest_module, "_grow_one", no_growth)
    only_neg = segment_set([([0.0, 0.0, 0.0, 0.0], 0, None)] * 5)
    training_sets = {"a": small_training_set(), "b": only_neg}
    with pytest.raises(ValueError, match="cannot train class 'b': no positive"):
        list(train_forests(training_sets, small_config(), feature_config(4)))


def test_worker_processes_capped_at_trees(monkeypatch):
    sizes = []

    class PoolRecorder:
        """Records the pool size and starts no process: ``map`` runs the
        initializer and then every job in the calling process."""

        def __init__(self, max_workers, initializer, initargs, **kwargs):
            sizes.append(max_workers)
            self.init = initializer, initargs

        def map(self, fn, iterable):
            initializer, initargs = self.init
            initializer(*initargs)
            return map(fn, iterable)

        def shutdown(self, **kwargs):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", PoolRecorder)
    # map sets the worker job in this process; it is reset after the test
    monkeypatch.setattr(forest_module, "_worker_job", None)
    # a broken cap would ask for a billion processes, so none is ever started;
    # one pool of min(workers, classes x trees) serves every class
    for n_classes, n_trees, n_workers, expected in (
        (1, 4, 1, []), (1, 4, 2, [2]), (1, 4, 10**9, [4]), (1, 1, 10**9, []),
        (3, 2, 1, []), (3, 2, 4, [4]), (3, 2, 10**9, [6]), (2, 1, 10**9, [2]),
        (0, 2, 10**9, []),
    ):
        training_sets = class_sets(n_classes)
        config = small_config(n_trees=n_trees)
        sizes.clear()
        pooled = [model_bytes(f) for f in
                  train_forests(training_sets, config, feature_config(4), n_workers)]
        assert sizes == expected, (n_classes, n_trees, n_workers)
        assert pooled == serial_bytes(training_sets, config)


@pytest.mark.parametrize("n_workers", [0, -2])
def test_training_needs_a_worker(n_workers):
    with pytest.raises(ValueError, match="at least one worker"):
        train_forest(small_training_set(), small_config(), "x", feature_config(4),
                     n_workers=n_workers)


def test_forest_records_longest_training_event():
    segments = segment_set([
        ([1.0, 0.0], 1, [3.0, 7.0]),  # 11 segments long
        ([1.0, 0.0], 1, [1.0, 2.0]),
        ([-1.0, 0.0], 0, None),
        ([-1.0, 0.0], 0, None),
    ])
    forest = train_forest(
        segments, small_config(min_segments=1), class_label="x",
        feature_config=feature_config(2),
    )
    assert forest.max_train_event_duration == pytest.approx(11 * 0.01)


def test_forest_config_validation():
    for bad in (
        dict(n_trees=0),
        dict(subsample_ratio=0.0),
        dict(subsample_ratio=1.5),
        dict(steer_depth=0),
        dict(steer_depth=13, max_depth=12),
        dict(min_segments=0),
        dict(n_candidate_tests=0),
    ):
        with pytest.raises(ValueError):
            ForestConfig(**bad)


# ---------------------------------------------------------------- calibration


def test_calibration_is_a_fixed_point_on_full_sample():
    segments = small_training_set()
    config = small_config(n_trees=2, subsample_ratio=1.0)
    forest = train_forest(segments, config, "x", feature_config(4))
    before = json.dumps(forest_to_dict(forest), sort_keys=True)
    calibrate(forest, segments)
    after = json.dumps(forest_to_dict(forest), sort_keys=True)
    assert before == after


@pytest.mark.parametrize("seed", range(6))
def test_calibration_reaches_every_grown_leaf(seed):
    # each leaf grows from at least one subsample row, and route applies the
    # same x[r] - x[q] > tau test, so every leaf is re-estimated
    segments = small_training_set(seed=seed)
    config = small_config(n_trees=3, subsample_ratio=0.3, max_depth=8,
                          min_segments=2, rng_seed=seed)
    table = train_forest(segments, config, "x", feature_config(4)).table
    assert table.n_train[table.right < 0].min() >= 1


def test_training_duration_counts_whole_sample_hops():
    # at 22.05 kHz a hop is 220 samples, not 10 ms
    segments = small_training_set()
    fc = FeatureConfig(sample_rate=22050, n_channels=4)
    forest = train_forest(segments, small_config(), "x", fc)
    longest = segments.dists[segments.labels == 1].sum(axis=1).max() + 1.0
    assert forest.max_train_event_duration == longest * (220 / 22050)


def test_fingerprint_of_a_nominal_hop_loads_as_the_applied_hop():
    fc = FeatureConfig(sample_rate=22050, n_channels=4)
    forest = train_forest(small_training_set(), small_config(n_trees=1), "x", fc)
    payload = forest_to_dict(forest)
    assert payload["feature_fingerprint"]["hop_len"] == 220 / 22050
    # the nominal 10 ms, as models trained before whole-sample hops hold it
    payload["feature_fingerprint"]["hop_len"] = 0.01
    loaded = forest_from_dict(payload).feature_config
    assert loaded == fc
    assert loaded.hop_len == 220 / 22050


def test_calibration_counts_and_posteriors(blob_model):
    total = len(blob_model.train_segments)
    table = blob_model.forest.table
    for leaves in tree_leaves(table):
        assert sum(table.n_train[leaves]) == total
        for leaf in leaves:
            assert table.p_pos[leaf] + table.p_neg[leaf] == 1.0
            for gaussian in (table.onset[leaf], table.offset[leaf]):
                if not np.isnan(gaussian[0]):
                    assert gaussian[1] >= 1e-6


def test_calibration_unreached_and_negative_leaves():
    tree = NodeTable.from_trees([[
        split_node(0, 1, 0.0),
        leaf_node(p_pos=0.5, onset=(1.0, 1.0), offset=(1.0, 1.0), n_train=2),
        leaf_node(p_pos=0.5, onset=(2.0, 1.0), offset=(2.0, 1.0), n_train=2),
    ]])
    left, right = 1, 2
    forest = Forest(class_label="x", table=tree, config=small_config(),
                    feature_config=feature_config(2), max_train_event_duration=1.0)
    # all segments route right (x0 - x1 > 0) and none of them is positive
    segments = segment_set([([2.0, 0.0], 0, None)] * 4)
    calibrate(forest, segments)
    assert tree.n_train[right] == 4
    assert tree.p_pos[right] == 0.0 and tree.p_neg[right] == 1.0
    assert np.isnan(tree.onset[right]).all() and np.isnan(tree.offset[right]).all()
    assert tree.n_train[left] == 0  # unreached: keeps its model otherwise
    assert tree.p_pos[left] == 0.5 and tree.onset[left].tolist() == [1.0, 1.0]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_rows=st.integers(0, 60),
       n_trees=st.integers(1, 4))
def test_calibration_matches_oracle_on_random_trees(seed, n_rows, n_trees):
    # integer features and thresholds make ties x[r] - x[q] == tau common
    rng = np.random.default_rng(seed)
    table = NodeTable.from_trees(
        [random_tree(rng, 4, 6) for _ in range(n_trees)], 4
    )
    labels = rng.integers(0, 2, size=n_rows)
    dists = np.where(labels[:, np.newaxis] == 1,
                     rng.integers(0, 12, size=(n_rows, 2)), np.nan)
    segments = SegmentSet(rng.integers(-3, 4, size=(n_rows, 4)).astype(float),
                          labels, dists)
    forest = Forest(class_label="x", table=table,
                    config=small_config(n_trees=n_trees),
                    feature_config=feature_config(4), max_train_event_duration=1.0)
    expected = oracle_calibrate(forest, segments)
    calibrate(forest, segments)
    assert table.to_trees() == expected


# ---------------------------------------------------------------- gaussians


def test_gaussian_peak_and_mass():
    from scipy.integrate import quad

    for mean, var in ((0.0, 1.0), (3.7, 1e-6), (-2.0, 25.0)):
        assert gaussian_pdf(mean, mean, var) == pytest.approx(
            1.0 / math.sqrt(2 * math.pi * var), rel=1e-12
        )
        sigma = math.sqrt(var)
        mass, _ = quad(
            lambda v: gaussian_pdf(v, mean, var),
            mean - 8 * sigma,
            mean + 8 * sigma,
        )
        assert mass == pytest.approx(1.0, abs=1e-3)


def test_gaussian_peak_one_when_variance_matches():
    variance = 1.0 / (2.0 * math.pi)
    assert gaussian_pdf(4.0, 4.0, variance) == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------- model file


def trained_forest():
    return train_forest(
        small_training_set(), small_config(), class_label="dog",
        feature_config=feature_config(4),
    )


def test_model_dict_shape():
    forest = trained_forest()
    payload = forest_to_dict(forest)
    assert set(payload) == {
        "format_version",
        "class_label",
        "feature_fingerprint",
        "config",
        "z_plus",
        "z_minus",
        "max_train_event_duration",
        "trees",
    }
    assert payload["format_version"] == 1
    assert payload["class_label"] == "dog"
    assert len(payload["trees"]) == 2
    kinds = {node["kind"] for tree in payload["trees"] for node in tree}
    assert kinds <= {"split", "leaf"}


def test_model_round_trip_is_exact(tmp_path):
    forest = trained_forest()
    path_a = tmp_path / "a.json"
    path_b = tmp_path / "b.json"
    save_forest(forest, path_a)
    save_forest(load_forest(path_a), path_b)
    assert path_a.read_bytes() == path_b.read_bytes()
    assert path_a.read_bytes().endswith(b"\n")


def test_model_rejects_unknown_version():
    payload = forest_to_dict(trained_forest())
    payload["format_version"] = 99
    with pytest.raises(ValueError, match="format"):
        forest_from_dict(payload)


@pytest.mark.parametrize("key, value, message", [
    ("feature_fingerprint", None, "model feature_fingerprint is not an object"),
    ("max_train_event_duration", None,
     "max_train_event_duration is not a number: None"),
    ("max_train_event_duration", 0.0,
     "model max_train_event_duration 0.0 is not positive"),
    ("class_label", "", "model class_label is not a non-empty string"),
])
def test_model_requires_label_fingerprint_and_duration(key, value, message):
    payload = forest_to_dict(trained_forest())
    payload[key] = value
    with pytest.raises(ValueError) as caught:
        forest_from_dict(payload)
    assert str(caught.value) == message


def test_model_empty_fingerprint_reads_as_defaults():
    payload = forest_to_dict(trained_forest())
    payload["feature_fingerprint"] = {}
    assert forest_from_dict(payload).feature_config == FeatureConfig()


def test_model_rejects_trailing_nodes():
    payload = forest_to_dict(trained_forest())
    payload["trees"][0].append(
        {"kind": "leaf", "p_pos": 1.0, "p_neg": 0.0, "n_train": 1,
         "onset": [0.0, 1.0], "offset": [0.0, 1.0]}
    )
    with pytest.raises(ValueError, match="trailing"):
        forest_from_dict(payload)


def test_model_rejects_non_finite_values():
    forest = trained_forest()
    forest.z_plus = float("inf")
    with pytest.raises(ValueError):
        forest_to_dict(forest)
