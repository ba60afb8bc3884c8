"""Forest routing, Gaussian voting, score tracks, and event extraction."""

import copy
import io
import math
import os
import sys
import threading
import tracemalloc
import warnings
import weakref
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    blob_stream,
    compiled_kernel,
    descend,
    detect_matrix,
    feature_config,
    leaf_node,
    oracle_collect_votes,
    oracle_peak_indices,
    oracle_render_tracks,
    range_blocks,
    random_tree,
    score_matrix,
    segment_times,
    split_node,
    vote_forest,
    vote_tree,
)
from eventforest import detect as detect_module
from eventforest import features as features_module
from eventforest import forest as forest_module
from eventforest.detect import (
    _VOTE_BLOCK,
    DetectConfig,
    ScoreTrack,
    collect_votes,
    detect_on_features,
    detect_stream,
    extract_events,
    forest_events,
    normalize,
    StreamVotes,
    _local_maxima,
    _peak_indices,
    render_tracks,
    score_tracks,
    smooth,
    write_scores_csv,
)
from eventforest.dataset import EventAnnotation, write_annotations
from eventforest.evaluate import default_alpha_grid
from eventforest.features import FeatureConfig, FeatureMatrix, Waveform, featurize
from eventforest.forest import (
    Forest,
    ForestConfig,
    NodeTable,
    gaussian_pdf,
    route,
    train_forest,
)

PEAK_VARIANCE = 1.0 / (2.0 * math.pi)  # unit peak density


def leaf(p_pos=1.0, onset=(3.0, 1.0), offset=(2.0, 1.0), n_train=4):
    """A one-tree table whose tree is one leaf, node 0."""
    return NodeTable.from_trees([[leaf_node(p_pos, onset, offset, n_train)]])


def single_leaf_forest(the_leaf, n_trees=1, label="x", fc=None, duration=1.0):
    return Forest(
        class_label=label,
        table=NodeTable.from_trees(the_leaf.to_trees() * n_trees),
        config=ForestConfig(n_trees=n_trees),
        feature_config=fc or feature_config(),
        max_train_event_duration=duration,
    )


def flat_features(n_segments, dim=8):
    config = feature_config(dim)
    rows = np.zeros((n_segments, dim))
    return FeatureMatrix(rows, segment_times(n_segments, config), config)


# ---------------------------------------------------------------- routing


def test_descend_single_leaf():
    only = leaf()
    for x in (np.zeros(3), np.ones(64)):
        assert descend(only, x) == 0
        assert route(only, x[np.newaxis]).tolist() == [0]


def test_descend_follows_split():
    tree = NodeTable.from_trees(
        [[split_node(0, 1, 0.0), leaf_node(p_pos=0.2), leaf_node(p_pos=0.9)]]
    )
    left, right = 1, 2
    rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    assert descend(tree, rows[0]) == right
    assert descend(tree, rows[1]) == left
    assert descend(tree, rows[2]) == left  # boundary goes left
    assert route(tree, rows).tolist() == [right, left, left]


def test_descend_deterministic():
    tree = NodeTable.from_trees(
        [[split_node(0, 1, 0.5), leaf_node(p_pos=0.1), leaf_node(p_pos=0.8)]]
    )
    x = np.array([2.0, 0.0])
    assert descend(tree, x) == descend(tree, x)
    assert np.array_equal(route(tree, x[np.newaxis]), route(tree, x[np.newaxis]))


def test_descend_rejects_short_vector():
    tree = NodeTable.from_trees([[split_node(5, 1, 0.0), leaf_node(), leaf_node()]])
    with pytest.raises(ValueError, match="does not match the tree"):
        descend(tree, np.zeros(2))
    with pytest.raises(ValueError, match="does not match the tree"):
        route(tree, np.zeros((3, 2)))


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(0, 60),
    max_depth=st.integers(1, 7),
    n_trees=st.integers(1, 4),
)
def test_route_matches_descend_oracle(seed, n_rows, max_depth, n_trees):
    # integer features and thresholds make x[r] - x[q] == tau common
    rng = np.random.default_rng(seed)
    table = NodeTable.from_trees(
        [random_tree(rng, 4, max_depth) for _ in range(n_trees)], 4
    )
    x = rng.integers(-3, 4, size=(n_rows, 4)).astype(float)
    ties = []
    for i in np.flatnonzero((table.right >= 0) & (table.r != table.q)):
        tie = np.zeros(4)
        tie[table.r[i]] = table.tau[i]  # x[r] - x[q] == tau at split i
        ties.append(tie)
    x = np.vstack([x] + ties)
    leaves = route(table, x).reshape(len(x), n_trees)
    assert leaves.tolist() == [
        [descend(table, row, root) for root in table.roots] for row in x
    ]


class KernelSpy:
    """The compiled kernel, counting the uses of each of its functions."""

    def __init__(self, kernel):
        self.kernel, self.calls = kernel, {}

    def __getattr__(self, name):
        self.calls[name] = self.calls.get(name, 0) + 1
        return getattr(self.kernel, name)


def on_both_paths(function, *args):
    """``function(*args)`` on the compiled kernel and on numpy, and the
    kernel's uses by name in the first."""
    spy = KernelSpy(compiled_kernel())
    with mock.patch.object(forest_module, "_kernel", lambda: spy):
        compiled = function(*args)
    with mock.patch.object(forest_module, "_kernel", lambda: None):
        plain = function(*args)
    return compiled, plain, spy.calls


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(0, 60),
    max_depth=st.integers(1, 7),
    n_trees=st.integers(1, 4),
)
def test_compiled_route_matches_numpy(seed, n_rows, max_depth, n_trees):
    # integer cells and thresholds, signed zeros and rows exactly at each
    # split's threshold; a depth of 1 and early leaves give one-leaf trees
    rng = np.random.default_rng(seed)
    table = NodeTable.from_trees(
        [random_tree(rng, 4, max_depth) for _ in range(n_trees)], 4
    )
    x = rng.integers(-3, 4, size=(n_rows, 4)).astype(float)
    x[x == 0.0] = rng.choice([0.0, -0.0], size=np.count_nonzero(x == 0.0))
    ties = []
    for i in np.flatnonzero((table.right >= 0) & (table.r != table.q)):
        tie = np.full(4, -0.0)
        tie[table.r[i]] = table.tau[i]  # x[r] - x[q] == tau at split i
        ties.append(tie)
    x = np.vstack([x] + ties) if n_rows else x
    compiled, plain, calls = on_both_paths(route, table, x)
    assert compiled.dtype == plain.dtype == np.int64
    assert np.array_equal(compiled, plain)
    assert compiled.tolist() == [descend(table, row, root) for row in x
                                 for root in table.roots]
    assert calls.get("route_rows", 0) == (1 if n_rows else 0)


def test_compiled_route_matches_numpy_at_signed_zero_thresholds():
    # 0.0 - -0.0 and -0.0 - 0.0 equal both zeros, so every row goes left
    table = NodeTable.from_trees([
        [split_node(0, 1, 0.0), leaf_node(), leaf_node()],
        [split_node(1, 0, -0.0), leaf_node(), leaf_node()],
        [leaf_node()],
    ], 2)
    x = np.array([[0.0, -0.0], [-0.0, 0.0], [0.0, 0.0], [-0.0, -0.0],
                  [5e-324, 0.0], [0.0, 5e-324]])
    compiled, plain, calls = on_both_paths(route, table, x)
    assert calls == {"route_rows": 1}
    assert compiled.tolist() == plain.tolist() == [
        1, 4, 6, 1, 4, 6, 1, 4, 6, 1, 4, 6, 2, 4, 6, 1, 5, 6]


@pytest.mark.parametrize("cell", [np.inf, -np.inf, np.nan, "range"])
def test_route_leaves_non_finite_rows_to_numpy(cell):
    # the kernel assumes finite values; rows whose range overflows count too
    rng = np.random.default_rng(4)
    table = NodeTable.from_trees([random_tree(rng, 4, 6) for _ in range(3)], 4)
    x = rng.integers(-3, 4, size=(30, 4)).astype(float)
    if cell == "range":
        x[3, 1], x[7, 2] = 1e308, -1e308
    else:
        x[3, 1] = cell
    with np.errstate(invalid="ignore", over="ignore"):
        compiled, plain, calls = on_both_paths(route, table, x)
        expected = [descend(table, row, root) for row in x for root in table.roots]
    assert "route_rows" not in calls
    assert compiled.tolist() == plain.tolist() == expected


# ---------------------------------------------------------------- voting


def test_vote_peak_is_one_for_unit_peak_gaussian():
    the_leaf = leaf(p_pos=1.0, onset=(3.0, PEAK_VARIANCE),
                    offset=(2.0, PEAK_VARIANCE))
    p_on, p_off = vote_tree(the_leaf, 0, m=10, alpha=0.0, n=7)  # n = m - mean
    assert p_on == pytest.approx(1.0, rel=1e-12)
    p_on, p_off = vote_tree(the_leaf, 0, m=10, alpha=0.0, n=12)  # n = m + mean
    assert p_off == pytest.approx(1.0, rel=1e-12)


def test_vote_respects_alpha_gate():
    the_leaf = leaf(p_pos=0.3)
    assert vote_tree(the_leaf, 0, m=0, alpha=0.5, n=0) == (0.0, 0.0)
    p_on, p_off = vote_tree(the_leaf, 0, m=0, alpha=0.3, n=0)
    assert p_on > 0.0  # gate is inclusive


def test_vote_without_gaussians_is_zero():
    the_leaf = leaf(p_pos=1.0, onset=None, offset=None)
    assert vote_tree(the_leaf, 0, m=5, alpha=0.0, n=5) == (0.0, 0.0)


def test_vote_values_match_density():
    the_leaf = leaf(p_pos=0.8, onset=(4.0, 2.0), offset=(6.0, 3.0))
    m, n = 20, 17
    p_on, p_off = vote_tree(the_leaf, 0, m=m, alpha=0.0, n=n)
    assert p_on == pytest.approx(0.8 * gaussian_pdf(n, m - 4.0, 2.0), rel=1e-12)
    assert p_off == pytest.approx(0.8 * gaussian_pdf(n, m + 6.0, 3.0), rel=1e-12)


def test_forest_vote_averages_trees():
    a = leaf(p_pos=1.0, onset=(0.0, PEAK_VARIANCE), offset=(0.0, PEAK_VARIANCE))
    same = single_leaf_forest(a, n_trees=3)
    x = np.zeros(4)
    p_on, _ = vote_forest(same, x, m=5, alpha=0.0, n=5)
    single = vote_tree(a, 0, m=5, alpha=0.0, n=5)[0]
    assert p_on == pytest.approx(single, rel=1e-12)

    gated = leaf(p_pos=0.0, onset=None, offset=None, n_train=1)
    mixed = Forest(
        class_label="x",
        table=NodeTable.from_trees(a.to_trees() + gated.to_trees() * 9),
        config=ForestConfig(n_trees=10),
        feature_config=feature_config(),
        max_train_event_duration=1.0,
    )
    p_on, _ = vote_forest(mixed, x, m=5, alpha=0.0, n=5)
    assert p_on == pytest.approx(0.1, rel=1e-12)


def test_forest_vote_matches_manual_mean(blob_model):
    forest = blob_model.forest
    features = blob_model.test_features
    rng = np.random.default_rng(6)
    for _ in range(5):
        m = int(rng.integers(0, features.n_segments))
        n = int(rng.integers(0, features.n_segments))
        x = features.rows[m]
        expected_on = 0.0
        expected_off = 0.0
        for root in forest.table.roots:
            p_on, p_off = vote_tree(forest.table, descend(forest.table, x, root),
                                    m, 0.2, n)
            expected_on += p_on
            expected_off += p_off
        got_on, got_off = vote_forest(forest, x, m, 0.2, n)
        assert got_on == pytest.approx(expected_on / forest.n_trees, abs=1e-12)
        assert got_off == pytest.approx(expected_off / forest.n_trees, abs=1e-12)


# ---------------------------------------------------------------- score tracks


def test_score_track_single_segment_stream():
    the_leaf = leaf(p_pos=1.0, onset=(0.0, PEAK_VARIANCE),
                    offset=(0.0, PEAK_VARIANCE))
    forest = single_leaf_forest(the_leaf)
    track = score_matrix(flat_features(1), [forest],
                         {"x": DetectConfig(smooth_window=1)})["x"]
    assert track.f_plus.shape == (1,)
    assert track.f_plus[0] == pytest.approx(1.0, rel=1e-12)
    assert track.f_minus[0] == pytest.approx(1.0, rel=1e-12)


def test_score_track_alpha_gates_everything():
    the_leaf = leaf(p_pos=0.6)
    forest = single_leaf_forest(the_leaf)
    track = score_matrix(flat_features(30), [forest],
                         {"x": DetectConfig(alpha=0.7)})["x"]
    assert np.all(track.f_plus == 0.0)
    assert np.all(track.f_minus == 0.0)


def test_score_track_matches_per_segment_sum(blob_model):
    forest = blob_model.forest
    table = forest.table
    features = blob_model.dev_features
    n = features.n_segments
    alpha = 0.3
    expected_plus = np.zeros(n)
    expected_minus = np.zeros(n)
    for m in range(n):
        x = features.rows[m]
        for root in table.roots:
            node = descend(table, x, root)
            p_pos = table.p_pos[node]
            if np.isnan(table.onset[node, 0]) or p_pos < alpha:
                continue
            for target, (mean_d, var), sign in (
                (expected_plus, table.onset[node], -1.0),
                (expected_minus, table.offset[node], 1.0),
            ):
                mean = m + sign * mean_d
                sigma = math.sqrt(var)
                lo = max(0, math.ceil(mean - 6 * sigma))
                hi = min(n - 1, math.floor(mean + 6 * sigma))
                for idx in range(lo, hi + 1):
                    target[idx] += p_pos * gaussian_pdf(idx, mean, var)
    expected_plus /= forest.n_trees * forest.z_plus
    expected_minus /= forest.n_trees * forest.z_minus
    config = DetectConfig(alpha=alpha, smooth_window=1)
    track = score_matrix(features, [forest], {"blob": config})["blob"]
    assert np.max(np.abs(track.f_plus - expected_plus)) < 1e-9
    assert np.max(np.abs(track.f_minus - expected_minus)) < 1e-9


def test_score_tracks_divide_by_normalization():
    the_leaf = leaf(p_pos=1.0, onset=(0.0, PEAK_VARIANCE),
                    offset=(0.0, PEAK_VARIANCE))
    forest = single_leaf_forest(the_leaf)
    configs = {"x": DetectConfig(smooth_window=1)}
    base = score_matrix(flat_features(5), [forest], configs)["x"]
    forest.z_plus, forest.z_minus = 2.0, 4.0
    halved = score_matrix(flat_features(5), [forest], configs)["x"]
    assert np.allclose(halved.f_plus, base.f_plus / 2.0, rtol=1e-12)
    assert np.allclose(halved.f_minus, base.f_minus / 4.0, rtol=1e-12)


def raw_peaks(forest, streams):
    """The largest raw onset and offset scores of ``forest`` over ``streams``,
    scored with z = 1, the gate wide open and no smoothing."""
    forest = copy.deepcopy(forest)
    forest.z_plus = forest.z_minus = 1.0
    raw = {forest.class_label: DetectConfig(alpha=0.0, smooth_window=1)}
    tracks = [score_matrix(m, [forest], raw)[forest.class_label] for m in streams]
    return (max(float(t.f_plus.max()) for t in tracks),
            max(float(t.f_minus.max()) for t in tracks))


def test_normalize_gives_each_forest_the_bits_of_normalizing_it_alone(blob_model):
    other = train_forest(blob_model.train_segments,
                         replace(blob_model.forest.config, n_trees=2, rng_seed=8),
                         class_label="other", feature_config=blob_model.feature_config)
    forests = [blob_model.forest, other]
    dim = blob_model.dev_features.rows.shape[1]
    empty = FeatureMatrix(np.empty((0, dim)), np.empty(0), blob_model.feature_config)
    streams = [blob_model.dev_features, empty, blob_model.test_features]
    together = copy.deepcopy(forests)
    normalize(together, streams)
    for joint, forest in zip(together, forests):
        alone = copy.deepcopy(forest)
        normalize([alone], streams)
        peaks = raw_peaks(forest, [blob_model.dev_features, blob_model.test_features])
        assert 0.0 < peaks[0] and 0.0 < peaks[1]
        assert (joint.z_plus, joint.z_minus) == (alone.z_plus, alone.z_minus) == peaks
    assert (together[0].z_plus, together[0].z_minus) != (together[1].z_plus,
                                                         together[1].z_minus)


def test_normalize_ignores_the_forest_s_previous_constants(blob_model):
    fresh = copy.deepcopy(blob_model.forest)
    rescaled = copy.deepcopy(blob_model.forest)
    rescaled.z_plus, rescaled.z_minus = 2.0, 4.0
    normalize([fresh], [blob_model.dev_features])
    normalize([rescaled], [blob_model.dev_features])
    assert (rescaled.z_plus, rescaled.z_minus) == (fresh.z_plus, fresh.z_minus)
    assert (fresh.z_plus, fresh.z_minus) == (blob_model.forest.z_plus,
                                             blob_model.forest.z_minus)


def test_normalize_without_streams_or_peaks_gives_one():
    silent = single_leaf_forest(leaf(onset=None, offset=None))
    silent.z_plus, silent.z_minus = 2.0, 4.0
    normalize([silent], [flat_features(5)])
    assert silent.z_plus == silent.z_minus == 1.0
    voting = single_leaf_forest(leaf(), label="y")
    voting.z_plus, voting.z_minus = 2.0, 4.0
    normalize([voting], [])
    assert voting.z_plus == voting.z_minus == 1.0


def assert_votes_equal(got, expected):
    for field in ("p_pos", "segment", "mean_on", "var_on", "mean_off", "var_off"):
        a, b = getattr(got, field), getattr(expected, field)
        assert a.dtype == b.dtype, field
        assert np.array_equal(a, b), field


def test_collect_votes_matches_oracle(blob_model):
    for features in (blob_model.dev_features, blob_model.test_features):
        assert_votes_equal(
            collect_votes(features, blob_model.forest),
            oracle_collect_votes(features, blob_model.forest),
        )


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_segments=st.integers(0, 50),
       n_trees=st.integers(1, 4))
def test_collect_votes_matches_oracle_on_random_trees(seed, n_segments, n_trees):
    rng = np.random.default_rng(seed)
    config = feature_config(4)
    forest = Forest(
        class_label="x",
        table=NodeTable.from_trees([random_tree(rng, 4, 6) for _ in range(n_trees)]),
        config=ForestConfig(n_trees=n_trees),
        feature_config=config,
        max_train_event_duration=1.0,
    )
    features = FeatureMatrix(
        rng.integers(-3, 4, size=(n_segments, 4)).astype(float),
        segment_times(n_segments, config),
        config,
    )
    assert_votes_equal(
        collect_votes(features, forest), oracle_collect_votes(features, forest)
    )


def score_configs(source, forest, configs):
    """The tracks ``score_tracks`` gives one class's ``configs`` in one call."""
    label = forest.class_label
    return score_tracks(source, [forest], {label: configs})[label]


def score_alphas(features, forest, alphas, window=1):
    """One class's tracks of a whole matrix, one per alpha, in one call."""
    configs = [DetectConfig(alpha=a, smooth_window=window) for a in alphas]
    return score_configs(features, forest, configs)


def test_raising_alpha_never_raises_scores(blob_model):
    tracks = score_alphas(blob_model.dev_features, blob_model.forest,
                          (0.0, 0.2, 0.5, 0.8, 1.0))
    for previous, current in zip(tracks, tracks[1:]):
        assert np.all(current.f_plus <= previous.f_plus + 1e-15)
        assert np.all(current.f_minus <= previous.f_minus + 1e-15)


def test_rendering_is_deterministic(blob_model):
    [a] = score_alphas(blob_model.dev_features, blob_model.forest, [0.4])
    [b] = score_alphas(blob_model.dev_features, blob_model.forest, [0.4])
    assert np.array_equal(a.f_plus, b.f_plus)
    assert np.array_equal(a.f_minus, b.f_minus)


# ------------------------------------------- blocked rendering vs the oracle


# the trees that random_votes' votes come from, which rendering divides by
N_TREES = 5


def random_votes(rng, n_votes, n_segments):
    """Votes at ``n_segments`` segments with gate-aligned and free confidences
    and wide, edge-crossing kernels."""
    grid = np.array(default_alpha_grid())
    p_pos = np.where(
        rng.random(n_votes) < 0.5,
        rng.choice(grid, size=n_votes),
        rng.random(n_votes),
    )
    return StreamVotes(
        p_pos=p_pos,
        segment=rng.integers(0, max(n_segments, 1), size=n_votes),
        mean_on=rng.normal(2.0, 8.0, size=n_votes),
        var_on=np.exp(rng.uniform(-3.0, 4.6, size=n_votes)),
        mean_off=rng.normal(2.0, 8.0, size=n_votes),
        var_off=np.exp(rng.uniform(-3.0, 4.6, size=n_votes)),
    )


def assert_tracks_identical(track, expected):
    assert np.array_equal(track.f_plus, expected.f_plus)
    assert np.array_equal(track.f_minus, expected.f_minus)


def take_votes(votes, index, first=0):
    """The votes at ``index``, their segments counted from segment ``first``."""
    return StreamVotes(
        votes.p_pos[index], votes.segment[index] - first,
        votes.mean_on[index], votes.var_on[index],
        votes.mean_off[index], votes.var_off[index],
    )


def segment_major(votes):
    """The votes in segment order, as ``collect_votes`` returns them."""
    return take_votes(votes, np.argsort(votes.segment, kind="stable"))


def streamed_render(votes, n, alphas, z_plus=1.0, z_minus=1.0, cuts=(),
                    n_trees=N_TREES):
    """The track of each gate in ``alphas`` that ``render_tracks`` adds up
    over a stream of ``n`` segments, all gates at once, block by block at
    segment ``cuts``.

    The votes must be segment-major when there are cuts. Each block's votes
    count their segments from the block's first, as ``collect_votes`` of a
    block does; the sums are normalized as ``score_tracks`` normalizes them.
    """
    sums = {alpha: (np.zeros(n), np.zeros(n)) for alpha in alphas}
    bounds = [0, *cuts, n]
    for first, stop in zip(bounds, bounds[1:]):
        keep = (votes.segment >= first) & (votes.segment < stop)
        render_tracks(take_votes(votes, keep, first), min(alphas), sums, first)
    return [ScoreTrack(sums[alpha][0] / (n_trees * z_plus),
                       sums[alpha][1] / (n_trees * z_minus))
            for alpha in alphas]


@settings(max_examples=60, deadline=None)
@given(
    n_segments=st.integers(1, 90),
    n_votes=st.integers(0, 150),
    z=st.sampled_from([1.0, 0.37, 2.5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_render_grid_is_bit_identical_to_scalar_loop(n_segments, n_votes, z, seed):
    votes = random_votes(np.random.default_rng(seed), n_votes, n_segments)
    alphas = default_alpha_grid()
    grid = streamed_render(votes, n_segments, alphas, z, 1.0 / z)
    assert len(grid) == len(alphas)
    for alpha, track in zip(alphas, grid):
        expected = oracle_render_tracks(votes, n_segments, N_TREES, alpha, z, 1.0 / z)
        assert_tracks_identical(track, expected)
        [alone] = streamed_render(votes, n_segments, [alpha], z, 1.0 / z)
        assert_tracks_identical(alone, expected)


@settings(max_examples=40, deadline=None)
@given(
    n_segments=st.integers(1, 60),
    n_votes=st.integers(0, 120),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_streamed_render_is_bit_identical_at_any_block_cuts(
    n_segments, n_votes, data, seed
):
    votes = segment_major(random_votes(np.random.default_rng(seed), n_votes,
                                       n_segments))
    cuts = sorted(data.draw(st.lists(st.integers(0, n_segments), max_size=4)))
    alphas = (0.0, 0.35, 0.9)
    for alpha, track in zip(alphas, streamed_render(votes, n_segments, alphas,
                                                    cuts=cuts)):
        assert_tracks_identical(track, oracle_render_tracks(votes, n_segments,
                                                            N_TREES, alpha))


@pytest.mark.parametrize(
    "n_votes",
    [_VOTE_BLOCK - 1, _VOTE_BLOCK, _VOTE_BLOCK + 1, 2 * _VOTE_BLOCK + 300],
)
def test_render_is_bit_identical_across_block_boundaries(n_votes):
    # Few segments, many votes: every segment sums terms from several
    # blocks, so adding a block's partial sums at once would show.
    votes = random_votes(np.random.default_rng(n_votes), n_votes, 40)
    alphas = [0.0, 0.35, 0.9]
    for alpha, track in zip(alphas, streamed_render(votes, 40, alphas)):
        assert_tracks_identical(track, oracle_render_tracks(votes, 40, N_TREES, alpha))


def test_render_truncates_at_both_stream_ends():
    n = 12
    votes = StreamVotes(
        p_pos=np.array([0.9, 0.6, 1.0, 0.8]),
        segment=np.array([0, n - 1, 5, 3]),
        # Kernels centred before the start, past the end, wider than the
        # stream, and entirely outside it.
        mean_on=np.array([2.5, -3.0, 0.0, 40.0]),
        var_on=np.array([4.0, 1.0, 400.0, 1.0]),
        mean_off=np.array([-1.5, 2.2, 0.0, 40.0]),
        var_off=np.array([1.0, 9.0, 400.0, 1.0]),
    )
    alphas = (0.0, 0.7, 0.95)
    in_order = segment_major(votes)
    streamed = streamed_render(in_order, n, alphas, cuts=(4,), n_trees=2)
    whole = streamed_render(votes, n, alphas, n_trees=2)
    for alpha, track, cut in zip(alphas, whole, streamed):
        assert_tracks_identical(track, oracle_render_tracks(votes, n, 2, alpha))
        assert_tracks_identical(cut, oracle_render_tracks(in_order, n, 2, alpha))
    assert np.count_nonzero(streamed_render(votes, n, [0.0])[0].f_plus) == n


def test_render_without_votes_is_zero():
    votes = random_votes(np.random.default_rng(0), 0, 25)
    for track in streamed_render(votes, 25, default_alpha_grid()):
        assert np.array_equal(track.f_plus, np.zeros(25))
        assert np.array_equal(track.f_minus, np.zeros(25))
    [empty] = streamed_render(random_votes(np.random.default_rng(0), 0, 0), 0, [0.0])
    assert empty.n_segments == 0


@settings(max_examples=60, deadline=None)
@given(
    n_segments=st.integers(1, 90),
    n_votes=st.integers(0, 150),
    first=st.integers(0, 30),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_rendering_in_windows_is_bit_identical_to_one_render(
    n_segments, n_votes, first, data, seed
):
    # The votes' segments start at stream segment ``first``; each window
    # takes every vote once and adds only the pairs at its own positions.
    votes = random_votes(np.random.default_rng(seed), n_votes, n_segments)
    n = first + n_segments
    cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=5)))
    alphas = default_alpha_grid()
    whole = {alpha: (np.zeros(n), np.zeros(n)) for alpha in alphas}
    render_tracks(votes, alphas[0], whole, first)
    windowed = {alpha: (np.zeros(n), np.zeros(n)) for alpha in alphas}
    for lo, hi in zip([0, *cuts], [*cuts, n]):
        render_tracks(votes, alphas[0], windowed, first, lo, hi)
        for alpha in alphas:
            for got, want in zip(windowed[alpha], whole[alpha]):
                assert np.array_equal(got[:hi], want[:hi])
                assert not got[hi:].any()



def no_pair_votes(n_segments):
    """Votes whose kernels cover no position of a stream of ``n_segments``:
    centred far outside it, or so narrow that no whole position lies within
    six standard deviations of a centre between two of them."""
    far = [-1e3, 1e3, -1e300, 1e300, -1.7e308, 1.7e308]
    return StreamVotes(
        p_pos=np.ones(len(far) + 1),
        segment=np.zeros(len(far) + 1, dtype=np.int64) + n_segments // 2,
        mean_on=np.array(far + [0.5]),
        var_on=np.array([1.0] * len(far) + [1e-4]),
        mean_off=np.array(far[::-1] + [0.5]),
        var_off=np.array([4.0] * len(far) + [1e-4]),
    )


def concatenated_votes(*parts):
    return StreamVotes(*(np.concatenate([getattr(v, key) for v in parts])
                         for key in ("p_pos", "segment", "mean_on", "var_on",
                                     "mean_off", "var_off")))


@settings(max_examples=60, deadline=None)
@given(
    n_segments=st.integers(1, 90),
    n_votes=st.integers(0, 150),
    block=st.sampled_from([1, 7, 64, _VOTE_BLOCK]),
    first=st.integers(0, 30),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_compiled_render_matches_the_oracle_bit_for_bit(
    n_segments, n_votes, block, first, data, seed
):
    # gates below alpha take the votes that pass alpha, as numpy's do; the
    # window [lo, hi) clips kernels at both ends; blocks of ``block`` votes
    rng = np.random.default_rng(seed)
    n = first + n_segments
    votes = random_votes(rng, n_votes, n)
    votes = concatenated_votes(votes, no_pair_votes(n), votes)
    grid = default_alpha_grid()
    alpha = data.draw(st.sampled_from(grid))
    gates = sorted(set(data.draw(st.lists(st.sampled_from(grid), min_size=1,
                                          max_size=5))))
    lo = data.draw(st.integers(0, n))
    hi = data.draw(st.integers(lo, n))

    def render():
        sums = {gate: (np.zeros(n), np.zeros(n)) for gate in gates}
        render_tracks(take_votes(votes, slice(None), first), alpha, sums, first,
                      lo, hi)
        return sums

    with mock.patch.object(detect_module, "_VOTE_BLOCK", block):
        compiled, plain, calls = on_both_paths(render)
    assert calls.get("splat_votes", 0) == -(-len(votes.p_pos) // block)
    for gate in gates:
        expected = oracle_render_tracks(votes, n, 1, max(gate, alpha))
        for got, other, want in zip(compiled[gate], plain[gate],
                                    (expected.f_plus, expected.f_minus)):
            assert np.array_equal(got[lo:hi], want[lo:hi])
            assert not got[:lo].any() and not got[hi:].any()
            assert np.array_equal(got, other)


@pytest.mark.parametrize("path", ["kernel", "numpy"])
def test_far_off_kernels_render_nothing_without_a_warning(path, monkeypatch):
    # a model may hold any finite mean; the span of a kernel that far off
    # is clipped to the window before it is cast to an integer
    if path == "kernel":
        compiled_kernel()
    else:
        monkeypatch.setattr(forest_module, "_kernel", lambda: None)
    sums = {0.0: (np.zeros(40), np.zeros(40)), 0.5: (np.zeros(40), np.zeros(40))}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        render_tracks(no_pair_votes(40), 0.0, sums)
        render_tracks(no_pair_votes(40), 0.0, sums, 0, 10, 30)
    assert not any(track.any() for pair in sums.values() for track in pair)


def test_compiled_render_refuses_votes_of_unequal_lengths():
    # C reads as many of each array as there are confidences
    compiled_kernel()
    votes = no_pair_votes(40)
    votes.var_off = votes.var_off[:-1]
    with pytest.raises(ValueError, match="differ in length"):
        render_tracks(votes, 0.0, {0.0: (np.zeros(40), np.zeros(40))})


leaf_moments = st.tuples(st.floats(-200.0, 200.0),
                         st.floats(-6.0, 4.0).map(lambda e: 10.0**e))


@settings(max_examples=60, deadline=None)
@given(leaves=st.lists(st.tuples(leaf_moments, leaf_moments), min_size=1,
                       max_size=6))
def test_every_kernel_position_lies_closer_than_the_reach(leaves):
    forests = [single_leaf_forest(leaf(onset=onset, offset=offset))
               for onset, offset in leaves]
    reach = detect_module._reach(forests)
    segment = 1000  # far from the window's edges, which no kernel reaches
    (mean_on, var_on), (mean_off, var_off) = (np.array(m).T for m in zip(*leaves))
    for mean, var in ((segment - mean_on, var_on), (segment + mean_off, var_off)):
        _, positions, _ = detect_module._kernel_pairs(np.ones(len(leaves)), mean,
                                                      var, 0, 2 * segment)
        assert np.all(np.abs(positions - segment) < reach)


def test_score_tracks_render_each_alpha_as_the_scalar_loop(blob_model):
    forest = blob_model.forest
    features = blob_model.dev_features
    votes = collect_votes(features, forest)
    alphas = default_alpha_grid()
    for alpha, track in zip(alphas, score_alphas(features, forest, alphas)):
        assert_tracks_identical(track, oracle_render_tracks(
            votes, features.n_segments, forest.n_trees, alpha, forest.z_plus,
            forest.z_minus))
    [empty] = score_alphas(flat_features(0), single_leaf_forest(leaf()), [0.0])
    assert empty.n_segments == 0


@settings(max_examples=25, deadline=None)
@given(
    alphas=st.lists(
        st.sampled_from(default_alpha_grid()) | st.floats(0.0, 1.0),
        min_size=1, max_size=4,
    ),
    windows=st.lists(st.sampled_from([1, 3, 11]), min_size=5, max_size=5),
    data=st.data(),
)
def test_configs_of_one_class_score_as_separate_calls(blob_model, alphas,
                                                      windows, data):
    # The first alpha comes back with another window: both tracks share the
    # gate's sums, and each must still be smoothed from the raw ones.
    forest = blob_model.forest
    features = blob_model.dev_features
    n = features.n_segments
    configs = [DetectConfig(alpha=a, smooth_window=w)
               for a, w in zip(alphas + alphas[:1], windows)]
    if configs[-1].smooth_window == configs[0].smooth_window:
        configs[-1] = replace(configs[-1],
                              smooth_window=configs[0].smooth_window + 2)
    # blocks of any size, in as many ranges as there are blocks or cores
    size = data.draw(st.integers(1, n + 1))
    cores = data.draw(st.integers(1, 3))
    with mock.patch.object(features_module, "_SEGMENT_BLOCK", size), \
            mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cores))):
        together = score_configs(features, forest, configs)
    assert len(together) == len(configs)
    for config, track in zip(configs, together):
        [alone] = score_configs(features, forest, [config])
        assert_tracks_identical(track, alone)


def test_class_without_configs_gets_no_tracks_and_is_not_routed(blob_model,
                                                               monkeypatch):
    features = blob_model.dev_features
    other = single_leaf_forest(leaf(), label="x")
    routed = []

    def counting(block, forest):
        routed.append(forest.class_label)
        return collect_votes(block, forest)

    monkeypatch.setattr(detect_module, "collect_votes", counting)
    tracks = score_tracks(features, [blob_model.forest, other],
                          {"blob": [], "x": [DetectConfig()]})
    assert tracks["blob"] == [] and len(tracks["x"]) == 1
    assert routed == ["x"]


# ---------------------------------------------------- scoring in ranges


def wide_forest(rng, label, n_trees=3):
    """A forest of random trees whose Gaussian leaves reach up to about 70
    segments from their votes."""
    trees = [random_tree(rng, feature_config().n_channels, 4) for _ in range(n_trees)]
    for node in (node for tree in trees for node in tree):
        if node["kind"] == "leaf" and node["onset"] is not None:
            node["onset"] = [float(rng.uniform(0, 40)), float(rng.uniform(1, 25))]
            node["offset"] = [float(rng.uniform(0, 40)), float(rng.uniform(1, 25))]
    return Forest(
        class_label=label,
        table=NodeTable.from_trees(trees),
        config=ForestConfig(n_trees=n_trees),
        feature_config=feature_config(),
        max_train_event_duration=1.0,
    )


def usable_cores(monkeypatch, cores):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))


@pytest.mark.parametrize("noise_subtraction", [False, True])
@pytest.mark.parametrize("n_segments, size", [(150, 16), (3, 1), (0, 16)])
def test_ranges_cannot_change_any_track(n_segments, size, noise_subtraction,
                                        monkeypatch):
    rng = np.random.default_rng(n_segments)
    forests = [wide_forest(rng, label) for label in ("a", "b", "c")]
    configs = {
        "a": [DetectConfig(alpha=a) for a in default_alpha_grid()],
        "b": [DetectConfig(alpha=0.3), DetectConfig(alpha=0.0, smooth_window=1)],
        "c": [DetectConfig(alpha=0.0, smooth_window=3)],
    }
    samples = 1599 if n_segments == 0 else 1600 + (n_segments - 1) * 160
    wave = Waveform(rng.normal(size=samples) * 0.1, 16000)
    config = FeatureConfig(n_channels=feature_config().n_channels,
                           noise_subtraction=noise_subtraction)
    usable_cores(monkeypatch, 1)
    expected = score_tracks(featurize(wave, config), forests, configs)

    routed = []

    def recording(block, forest):
        start = int(round(block.segment_times[0] / config.hop_len))
        routed.append((threading.get_ident(), start))
        return collect_votes(block, forest)

    monkeypatch.setattr(detect_module, "collect_votes", recording)
    monkeypatch.setattr(features_module, "_SEGMENT_BLOCK", size)
    # ranges past the cap, and more threads than cores, switching often: two
    # threads adding to one element would lose or reorder an addition
    monkeypatch.setattr(detect_module, "_SCORE_RANGES", 7)
    reach = detect_module._reach(forests)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for cores in (1, 2, 3, 7):
            usable_cores(monkeypatch, cores)
            routed.clear()
            tracks = score_tracks(featurize(wave, config), forests, configs)
            width = max(1, min(cores, -(-n_segments // size)))
            starts = [start for start, _ in range_blocks(n_segments, width, reach,
                                                         size)]
            assert sorted(start for _, start in routed) == sorted(starts * len(forests))
            assert (len({thread for thread, _ in routed}) > 1) == (width > 1)
            assert tracks.keys() == expected.keys()
            for label, want in expected.items():
                assert len(tracks[label]) == len(want)
                for track, track_want in zip(tracks[label], want):
                    assert_tracks_identical(track, track_want)
    finally:
        sys.setswitchinterval(interval)
    if n_segments == 150:
        # at 7 ranges of 21 or 22 segments, each reads votes of several others
        assert reach > 2 * 22


def test_error_in_a_later_range_leaves_score_tracks(monkeypatch):
    rng = np.random.default_rng(4)
    config = feature_config()
    features = FeatureMatrix(rng.normal(size=(150, config.n_channels)),
                             segment_times(150, config), config)

    def failing(block, forest):
        if threading.current_thread() is not threading.main_thread():
            raise ValueError("routing failed")
        return collect_votes(block, forest)

    monkeypatch.setattr(detect_module, "collect_votes", failing)
    monkeypatch.setattr(features_module, "_SEGMENT_BLOCK", 16)
    usable_cores(monkeypatch, 3)
    before = threading.active_count()
    with pytest.raises(ValueError, match="routing failed"):
        score_tracks(features, [wide_forest(rng, "a")], {"a": [DetectConfig()]})
    assert threading.active_count() == before


def test_each_class_sums_are_freed_once_smoothed(monkeypatch):
    # the ranges write into every class's sums: once they are done, nothing
    # may keep them, or every class's sums outlive its smoothing
    rng = np.random.default_rng(6)
    labels = ("a", "b", "c")
    forests = [wide_forest(rng, label) for label in labels]
    configs = {label: [DetectConfig(alpha=0.0, smooth_window=3)] for label in labels}
    config = feature_config()
    features = FeatureMatrix(rng.normal(size=(150, config.n_channels)),
                             segment_times(150, config), config)
    monkeypatch.setattr(features_module, "_SEGMENT_BLOCK", 16)
    usable_cores(monkeypatch, 2)
    smoothed, alive = [], []
    smoothing = detect_module.smooth

    def recording(track, window):
        alive.append(sum(ref() is not None for ref in smoothed))
        smoothed.append(weakref.ref(track.f_plus))
        return smoothing(track, window)

    monkeypatch.setattr(detect_module, "smooth", recording)
    score_tracks(features, forests, configs)
    assert alive == [0, 0, 0]


def test_score_memory_does_not_grow_with_the_cores(monkeypatch):
    rng = np.random.default_rng(5)
    forests = [wide_forest(rng, label) for label in ("a", "b")]
    configs = {label: [DetectConfig(alpha=0.0)] for label in ("a", "b")}
    n_segments = 8 * 512
    wave = Waveform(rng.normal(size=1600 + (n_segments - 1) * 160) * 0.1, 16000)
    monkeypatch.setattr(features_module, "_SEGMENT_BLOCK", 512)
    peaks = {}
    for cores in (2, 2, 8):  # the first run's caches and imports are not counted
        usable_cores(monkeypatch, cores)
        stream = featurize(wave, feature_config())
        tracemalloc.start()
        try:
            score_tracks(stream, forests, configs)
            peaks[cores] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # eight ranges would hold eight blocks in flight, four times two's
    assert peaks[8] < 1.25 * peaks[2]


def test_render_memory_stays_within_a_few_blocks():
    n_votes, n_segments = 200_000, 50_000
    rng = np.random.default_rng(3)
    ones = np.ones(n_votes)
    votes = StreamVotes(
        p_pos=0.9 * ones,
        segment=rng.integers(0, n_segments, size=n_votes),
        mean_on=3.0 * ones,
        var_on=ones,
        mean_off=2.0 * ones,
        var_off=ones,
    )
    # Unit variance: 13 positions per kernel within six standard deviations.
    block_bytes = _VOTE_BLOCK * 13 * 8
    track_bytes = n_segments * 8
    tracemalloc.start()
    try:
        render_tracks(votes, 0.5, {0.5: (np.zeros(n_segments), np.zeros(n_segments))})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One float buffer over all 2.6 million (position, value) pairs would
    # alone take 20.8 MB.
    assert peak < 4 * track_bytes + 24 * block_bytes


# ---------------------------------------------------------------- smoothing


def convolved_smooth(track, window):
    """``smooth`` with its edge counts taken from convolving ones with the kernel."""
    if window == 1 or track.n_segments == 0:
        return ScoreTrack(track.f_plus.copy(), track.f_minus.copy())
    kernel = np.ones(window)
    centre = slice(window // 2, window // 2 + track.n_segments)
    counts = np.convolve(np.ones(track.n_segments), kernel)[centre]
    return ScoreTrack(np.convolve(track.f_plus, kernel)[centre] / counts,
                      np.convolve(track.f_minus, kernel)[centre] / counts)


@pytest.mark.parametrize("window", [1, 3, 11])
def test_smooth_edge_counts_equal_the_convolution(window):
    rng = np.random.default_rng(window)
    for n in range(3 * window + 1):
        track = ScoreTrack(rng.random(n), rng.random(n))
        assert_tracks_identical(smooth(track, window), convolved_smooth(track, window))


def test_smooth_keeps_constant_track():
    track = ScoreTrack(np.full(40, 0.37), np.full(40, 0.11))
    out = smooth(track, 11)
    assert np.allclose(out.f_plus, 0.37, rtol=1e-12)
    assert np.allclose(out.f_minus, 0.11, rtol=1e-12)


def test_smooth_spreads_interior_impulse():
    values = np.zeros(101)
    values[50] = 1.0
    out = smooth(ScoreTrack(values, values.copy()), 11)
    covered = out.f_plus[45:56]
    assert np.allclose(covered, 1.0 / 11.0, rtol=1e-12)
    assert np.all(out.f_plus[:45] == 0.0)
    assert np.all(out.f_plus[56:] == 0.0)


def test_smooth_window_one_is_identity():
    rng = np.random.default_rng(3)
    values = rng.random(25)
    out = smooth(ScoreTrack(values, values.copy()), 1)
    assert np.array_equal(out.f_plus, values)


def test_smooth_edges_use_shrunken_windows():
    values = np.zeros(10)
    values[0] = 1.0
    out = smooth(ScoreTrack(values, values.copy()), 3)
    assert out.f_plus[0] == pytest.approx(0.5)  # window covers two samples
    assert out.f_plus[1] == pytest.approx(1.0 / 3.0)
    assert np.all(out.f_plus[2:] == 0.0)


def test_smooth_preserves_interior_mass():
    rng = np.random.default_rng(4)
    values = np.zeros(60)
    values[20:40] = rng.random(20)
    out = smooth(ScoreTrack(values, values.copy()), 7)
    assert out.f_plus.sum() == pytest.approx(values.sum(), rel=1e-9)


def test_smooth_keeps_the_length_of_short_tracks():
    values = np.array([3.0, 0.0, 6.0])
    out = smooth(ScoreTrack(values, values[::-1].copy()), 11)
    # every window covers the whole track: each value is the track's mean
    assert np.array_equal(out.f_plus, np.full(3, 3.0))
    assert np.array_equal(out.f_minus, np.full(3, 3.0))
    values = np.array([1.0, 0.0, 0.0, 0.0, 2.0])
    out = smooth(ScoreTrack(values, values.copy()), 7)
    assert np.allclose(out.f_plus, [1 / 4, 3 / 5, 3 / 5, 3 / 5, 2 / 4])


def test_smooth_keeps_the_bits_of_tracks_at_least_a_window_long():
    rng = np.random.default_rng(6)
    for n in (11, 12, 200):
        values = rng.random(n)
        out = smooth(ScoreTrack(values, values.copy()), 11)
        kernel = np.ones(11)
        counts = np.convolve(np.ones(n), kernel, mode="same")
        same = np.convolve(values, kernel, mode="same") / counts
        assert np.array_equal(out.f_plus, same)


def test_smooth_rejects_even_windows():
    track = ScoreTrack(np.zeros(5), np.zeros(5))
    with pytest.raises(ValueError):
        smooth(track, 4)
    with pytest.raises(ValueError):
        smooth(track, 0)


# ---------------------------------------------------------------- extraction


def spiky_track(n, plus_peaks, minus_peaks):
    f_plus = np.zeros(n)
    f_minus = np.zeros(n)
    for idx, value in plus_peaks:
        f_plus[idx] = value
    for idx, value in minus_peaks:
        f_minus[idx] = value
    return ScoreTrack(f_plus, f_minus)


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), max_size=40),
    threshold=st.sampled_from([-1.0, 0.0, 0.3, 0.5, 1.0, 1.01]),
)
def test_peak_indices_match_plateau_scan(values, threshold):
    values = np.array(values, dtype=np.float64)
    peaks = _peak_indices(values, threshold, _local_maxima(values))
    assert peaks == oracle_peak_indices(values, threshold)
    assert all(type(i) is int for i in peaks)


@pytest.mark.parametrize(
    "values, expected",
    [
        ([], []),
        ([0.4], [0]),
        ([0.7, 0.7, 0.7], [0]),
        ([0.2, 0.8, 0.8, 0.3, 0.8, 0.8], [1, 4]),
        ([0.8, 0.8, 0.2, 0.9, 0.9, 0.95], [0, 5]),
        ([0.5, 0.9, 0.9, 0.95, 0.1], [3]),
        ([0.3, 0.3, 0.6, 0.6, 0.6, 0.4, 0.6], [2, 6]),
    ],
)
def test_peak_indices_on_plateaus_ties_and_short_tracks(values, expected):
    values = np.array(values, dtype=np.float64)
    assert _peak_indices(values, 0.0, _local_maxima(values)) == expected
    assert oracle_peak_indices(values, 0.0) == expected


def test_extract_with_precomputed_maxima_matches_fresh_scan(monkeypatch):
    rng = np.random.default_rng(4)
    values = np.round(rng.random((2, 120)) * 4) / 4
    track = ScoreTrack(values[0], values[1])
    scans = []

    def counted(side):
        scans.append(len(side))
        return _local_maxima(side)

    monkeypatch.setattr(detect_module, "_local_maxima", counted)
    for beta in (0.0, 0.25, 0.5, 0.75, 1.0):
        reused = extract_events(track, beta, 0.5, 0.0, "x")
        fresh = extract_events(ScoreTrack(values[0].copy(), values[1].copy()),
                               beta, 0.5, 0.0, "x")
        assert [vars(e) for e in reused] == [vars(e) for e in fresh]
    # two sides for the shared track, two for each of the five fresh copies
    assert len(scans) == 2 + 2 * 5
    onsets, offsets = track.maxima
    assert onsets.tolist() == _local_maxima(values[0]).tolist()
    assert offsets.tolist() == _local_maxima(values[1]).tolist()


def test_extract_single_pair():
    track = spiky_track(60, [(10, 0.8)], [(50, 0.9)])
    events = extract_events(track, 0.5, 0.01, 0.0, "x")
    assert events == [EventAnnotation(10 * 0.01, 50 * 0.01, "x")]


def test_extract_applies_center_alignment():
    track = spiky_track(60, [(10, 0.8)], [(50, 0.9)])
    events = extract_events(track, 0.5, 0.01, 0.1, "x")
    assert events[0].onset == pytest.approx(0.15)
    assert events[0].offset == pytest.approx(0.55)


def test_extract_nothing_below_threshold():
    track = spiky_track(60, [(10, 0.4)], [(50, 0.45)])
    assert extract_events(track, 0.5, 0.01, 0.0, "x") == []


def test_extract_interleaved_peaks_pair_in_order():
    track = spiky_track(
        40, [(5, 0.9), (8, 0.8)], [(20, 0.7), (30, 0.95)]
    )
    events = extract_events(track, 0.5, 1.0, 0.0, "x")
    assert [(e.onset, e.offset) for e in events] == [(5.0, 20.0), (8.0, 30.0)]


def test_extract_refuses_an_empty_label():
    # a detections file cannot hold an event without a label
    track = spiky_track(60, [(10, 0.8)], [(50, 0.9)])
    with pytest.raises(ValueError, match="label"):
        extract_events(track, 0.5, 0.01, 0.0, "")


def test_extract_requires_strictly_later_offset():
    track = spiky_track(40, [(10, 0.9)], [(10, 0.9), (15, 0.8)])
    events = extract_events(track, 0.5, 1.0, 0.0, "x")
    assert [(e.onset, e.offset) for e in events] == [(10.0, 15.0)]


def test_extract_plateau_counts_once_at_left_edge():
    f_plus = np.zeros(30)
    f_plus[7:10] = 0.8
    f_minus = np.zeros(30)
    f_minus[20] = 0.9
    events = extract_events(ScoreTrack(f_plus, f_minus), 0.5, 1.0, 0.0, "x")
    assert [(e.onset, e.offset) for e in events] == [(7.0, 20.0)]


def test_extract_peak_at_stream_edges():
    track = spiky_track(20, [(0, 0.9)], [(19, 0.9)])
    events = extract_events(track, 0.5, 1.0, 0.0, "x")
    assert [(e.onset, e.offset) for e in events] == [(0.0, 19.0)]


def test_extract_output_is_chronologically_valid():
    rng = np.random.default_rng(9)
    for _ in range(25):
        values = rng.random((2, 80)) * (rng.random((2, 80)) < 0.2)
        events = extract_events(ScoreTrack(values[0], values[1]), 0.3, 1.0, 0.0, "x")
        onsets = [e.onset for e in events]
        offsets = [e.offset for e in events]
        assert onsets == sorted(onsets)
        assert all(on < off for on, off in zip(onsets, offsets))
        assert len(set(offsets)) == len(offsets)  # no offset reused
        for previous, current in zip(offsets, offsets[1:]):
            assert current > previous


# ---------------------------------------------------------------- duration


def test_duration_filter_drops_only_overlong_events():
    fc = feature_config()
    # pairs lasting 7, 6 and 1 hops
    track = spiky_track(30, [(2, 0.9), (12, 0.8), (22, 0.7)],
                        [(9, 0.9), (18, 0.8), (23, 0.7)])
    paired = extract_events(track, 0.5, fc.hop_len, fc.window_len, "x")
    lengths = [e.offset - e.onset for e in paired]
    assert len(paired) == 3 and lengths[0] > lengths[1] > lengths[2]
    # boundary: a detection of exactly 2 x the longest training event stays
    forest = single_leaf_forest(leaf(), fc=fc, duration=lengths[1] / 2.0)
    kept = forest_events(track, forest, 0.5, 2.0)
    assert [vars(e) for e in kept] == [vars(e) for e in paired[1:]]
    assert forest_events(spiky_track(30, [], []), forest, 0.5, 2.0) == []


def test_forest_events_filters_by_the_training_duration():
    fc = feature_config()
    f_plus = np.zeros(40)
    f_minus = np.zeros(40)
    f_plus[[2, 10]] = 0.9
    f_minus[[4, 30]] = 0.8  # pairs lasting 2 and 20 hops
    track = ScoreTrack(f_plus, f_minus)
    forest = single_leaf_forest(leaf(), label="x", fc=fc, duration=5 * fc.hop_len)
    paired = extract_events(track, 0.5, fc.hop_len, fc.window_len, "x")
    assert len(paired) == 2
    # 20 hops fit in 5 x 5 hops, but not in 1 x 5 hops
    got = forest_events(track, forest, 0.5, 5.0)
    assert [(e.onset, e.offset) for e in got] == [(e.onset, e.offset) for e in paired]
    got = forest_events(track, forest, 0.5, 1.0)
    assert [(e.onset, e.offset, e.label) for e in got] == [
        (paired[0].onset, paired[0].offset, "x")
    ]


def test_forest_events_place_segments_at_the_stream_s_centers():
    # a 10 ms hop is 220 samples at 22.05 kHz: placing peaks with 10 ms hops
    # drifted 2.27e-5 s per segment from the segments the stream cut
    fc = FeatureConfig(sample_rate=22050)
    matrix = featurize(Waveform(np.zeros(5 * 22050), 22050), fc).matrix()
    centers = matrix.segment_centers()
    n = len(centers)
    track = spiky_track(n, [(10, 0.9), (n - 40, 0.9)], [(30, 0.8), (n - 1, 0.8)])
    forest = single_leaf_forest(leaf(), fc=fc, duration=5.0)
    events = forest_events(track, forest, 0.5, 3.0)
    onsets, offsets = centers[[10, n - 40]].tolist(), centers[[30, n - 1]].tolist()
    assert [e.onset for e in events] == pytest.approx(onsets, rel=0, abs=1e-12)
    assert [e.offset for e in events] == pytest.approx(offsets, rel=0, abs=1e-12)


def test_the_two_segment_clocks_at_segment_35():
    # Rows, and with them labels and background negatives, time segment k at
    # k * hop / rate; detections and the training duration at k * hop_len.
    # The two agree to rounding, not bit for bit: unifying them changes model
    # bytes, since the training duration is a segment count times hop_len.
    fc = FeatureConfig()
    matrix = featurize(Waveform(np.zeros(fc.sample_rate), fc.sample_rate), fc).matrix()
    times = segment_times(matrix.n_segments, fc)
    assert matrix.segment_times.tobytes() == times.tobytes()
    assert matrix.segment_centers()[35] == 0.39999999999999997
    track = spiky_track(60, [(35, 0.9)], [(50, 0.9)])
    [event] = extract_events(track, 0.5, fc.hop_len, fc.window_len, "x")
    assert event.onset == 0.4
    assert 35 * fc.hop_len == 0.35000000000000003


# ---------------------------------------------------------------- pipelines


def test_detect_on_features_no_classes():
    assert detect_on_features({}, [], {}) == []


def test_detect_on_features_ignorance_threshold(blob_model):
    config = DetectConfig(alpha=0.0, beta=1.01)
    events = detect_matrix(
        blob_model.test_features, [blob_model.forest], {"blob": config}
    )
    assert events == []


def test_detect_on_features_sorted_and_labeled(blob_model):
    config = DetectConfig(alpha=0.5, beta=0.05)
    events = detect_matrix(
        blob_model.test_features, [blob_model.forest], {"blob": config}
    )
    assert events
    assert all(e.label == "blob" for e in events)
    keys = [(e.onset, e.offset) for e in events]
    assert keys == sorted(keys)


def test_detect_finds_planted_events(blob_model):
    config = DetectConfig(alpha=0.5, beta=0.05)
    events = detect_matrix(
        blob_model.test_features, [blob_model.forest], {"blob": config}
    )
    hit = 0
    for ref in blob_model.test_reference:
        for hyp in events:
            if hyp.onset < ref.offset and ref.onset < hyp.offset:
                hit += 1
                break
    assert hit >= len(blob_model.test_reference) * 0.5


def test_detect_on_a_stream_shorter_than_the_smoothing_window():
    features = flat_features(3)
    forest = single_leaf_forest(leaf(onset=(0.0, 1.0), offset=(1.0, 1.0)))
    configs = {"x": DetectConfig(alpha=0.0, beta=0.0, smooth_window=11)}
    assert score_matrix(features, [forest], configs)["x"].n_segments == 3
    for d in detect_matrix(features, [forest], configs):
        assert 0.0 <= d.onset < d.offset <= features.duration


@pytest.mark.parametrize(
    "label_b, fc_b, message",
    [
        ("b", FeatureConfig(n_channels=32), "was trained in a different"),
        ("b", FeatureConfig(noise_subtraction=True), "was trained in a different"),
        ("a", FeatureConfig(), "two models are for class 'a'"),
    ],
    ids=["n_channels", "noise_subtraction", "duplicate_label"],
)
def test_detect_stream_checks_fingerprints(label_b, fc_b, message):
    forest_a = single_leaf_forest(leaf(), label="a", fc=FeatureConfig())
    forest_b = single_leaf_forest(leaf(), label=label_b, fc=fc_b)
    wave = Waveform(np.zeros(16000), 16000)
    for forests in ([forest_a, forest_b], [forest_b, forest_a]):
        with pytest.raises(ValueError, match=message):
            detect_stream(wave, forests, {"a": DetectConfig(), "b": DetectConfig()})


def test_detect_stream_resamples_input():
    forest = single_leaf_forest(
        leaf(p_pos=1.0, onset=(0.0, 4.0), offset=(5.0, 4.0)),
        fc=FeatureConfig(),
    )
    wave = Waveform(np.random.default_rng(0).normal(size=8000) * 0.1, 8000)
    events = detect_stream(wave, [forest], {"x": DetectConfig(alpha=0.0, beta=0.01)})
    assert isinstance(events, list)
    for e in events:
        assert e.label == "x"


# ---------------------------------------------------------------- validation


def test_score_track_validation():
    with pytest.raises(ValueError):
        ScoreTrack(np.array([0.1, -0.2]), np.array([0.1, 0.2]))
    with pytest.raises(ValueError):
        ScoreTrack(np.array([0.1]), np.array([0.1, 0.2]))
    with pytest.raises(ValueError):
        ScoreTrack(np.array([np.inf]), np.array([0.0]))


def test_detect_config_validation():
    with pytest.raises(ValueError):
        DetectConfig(alpha=-0.1)
    with pytest.raises(ValueError):
        DetectConfig(alpha=1.1)
    with pytest.raises(ValueError):
        DetectConfig(beta=-0.5)
    with pytest.raises(ValueError):
        DetectConfig(smooth_window=4)
    with pytest.raises(ValueError):
        DetectConfig(duration_factor=0.0)
    for bad in ({"beta": math.inf}, {"beta": math.nan},
                {"duration_factor": math.inf}, {"duration_factor": math.nan}):
        with pytest.raises(ValueError):
            DetectConfig(**bad)


# ---------------------------------------------------------------- output


def test_write_detections_format(tmp_path):
    events = [EventAnnotation(0.1234, 1.5, "dog"), EventAnnotation(2.0, 3.25, "cat")]
    path = tmp_path / "out.txt"
    write_annotations(events, path)
    assert path.read_text() == "0.123\t1.500\tdog\n2.000\t3.250\tcat\n"
    stream = io.StringIO()
    write_annotations(events, stream)
    assert stream.getvalue() == path.read_text()


def test_write_scores_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    track = ScoreTrack(rng.random(7), rng.random(7))
    path = tmp_path / "scores.csv"
    write_scores_csv(track, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "segment,f_plus,f_minus"
    assert len(lines) == 8
    for i, line in enumerate(lines[1:]):
        n, plus, minus = line.split(",")
        assert int(n) == i
        assert float(plus) == track.f_plus[i]
        assert float(minus) == track.f_minus[i]
