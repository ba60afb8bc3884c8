"""Tests for cell-based and event-based scoring and threshold tuning."""

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import detect_matrix, oracle_event_metrics, oracle_render_tracks
from eventforest.dataset import EventAnnotation
from eventforest.detect import (
    DetectConfig,
    collect_votes,
    extract_events,
    smooth,
)
from eventforest.evaluate import (
    IGNORANCE_BETA,
    ClassThresholds,
    Score,
    TuneFold,
    default_alpha_grid,
    default_beta_grid,
    enabled_forests,
    event_metrics,
    load_thresholds,
    per_class_event_metrics,
    per_class_segment_metrics,
    save_thresholds,
    segment_metrics,
    tune_thresholds,
)


def ev(onset, offset, label="A"):
    return EventAnnotation(onset=onset, offset=offset, label=label)


# ---------------------------------------------------------------------------
# segment_metrics
# ---------------------------------------------------------------------------


class TestSegmentMetrics:
    def test_reference_against_itself_is_perfect(self):
        reference = [ev(0.0, 3.0, "A"), ev(2.0, 5.0, "B"), ev(7.5, 9.0, "A")]
        score = segment_metrics(reference, reference, duration=10.0)
        assert score.error_rate == 0.0
        assert score.f1 == 1.0
        assert score.substitutions == 0
        assert score.deletions == 0
        assert score.insertions == 0
        assert score.tp == score.n_ref == score.n_hyp > 0

    def test_empty_hypothesis_gives_unit_error_rate(self):
        reference = [ev(0.0, 10.0, "A")]
        score = segment_metrics(reference, [], duration=10.0)
        assert score.n_ref == 10
        assert score.deletions == 10
        assert score.substitutions == 0 and score.insertions == 0
        assert score.error_rate == 1.0
        assert score.f1 == 0.0

    def test_worked_ten_cell_example(self):
        # One 10 s reference event, an 8 s partial detection, and a one-cell
        # spurious detection: 2 deletions + 1 insertion over 10 reference
        # cells, so the error rate is 0.3 and F1 is 16/19.
        reference = [ev(0.0, 10.0, "A")]
        hypothesis = [ev(0.0, 8.0, "A"), ev(11.0, 12.0, "A")]
        score = segment_metrics(reference, hypothesis, duration=12.0)
        assert score.n_ref == 10
        assert score.tp == 8
        assert score.substitutions == 0
        assert score.deletions == 2
        assert score.insertions == 1
        assert score.error_rate == pytest.approx(0.3, abs=1e-12)
        assert score.f1 == pytest.approx(16 / 19, abs=1e-12)

    def test_wrong_class_same_cell_is_substitution(self):
        score = segment_metrics(
            [ev(0.0, 1.0, "A")], [ev(0.0, 1.0, "B")], duration=1.0
        )
        assert score.substitutions == 1
        assert score.deletions == 0
        assert score.insertions == 0
        assert score.error_rate == 1.0
        assert score.tp == 0 and score.n_hyp == 1 and score.n_ref == 1
        assert score.f1 == 0.0

    def test_empty_against_empty(self):
        score = segment_metrics([], [])
        assert score.n_ref == 0
        assert score.error_rate is None
        assert score.f1 == 1.0

    def test_insertions_only_keep_error_rate_none(self):
        score = segment_metrics([], [ev(0.0, 3.0, "A")], duration=3.0)
        assert score.n_ref == 0
        assert score.error_rate is None
        assert score.insertions == 3
        assert score.f1 == 0.0

    def test_resolution_scales_cell_counts(self):
        reference = [ev(0.0, 4.0, "A")]
        coarse = segment_metrics(reference, [], resolution=1.0, duration=4.0)
        fine = segment_metrics(reference, [], resolution=0.5, duration=4.0)
        assert coarse.n_ref == 4
        assert fine.n_ref == 8
        assert coarse.error_rate == fine.error_rate == 1.0

    def test_partial_cell_activates_whole_cell(self):
        # An event covering any part of a cell marks the full cell active.
        score = segment_metrics([ev(0.3, 1.2, "A")], [], duration=2.0)
        assert score.n_ref == 2

    def test_explicit_duration_clips_events(self):
        score = segment_metrics([ev(0.0, 10.0, "A")], [], duration=5.0)
        assert score.n_ref == 5
        assert score.error_rate == 1.0

    def test_invalid_resolution_rejected(self):
        for resolution in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="resolution"):
                segment_metrics([], [], resolution=resolution)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        reference = [
            ev(float(o), float(o) + 1.5, "AB"[i % 2])
            for i, o in enumerate(rng.uniform(0.0, 18.0, size=8))
        ]
        hypothesis = [
            ev(float(o), float(o) + 1.0, "AB"[i % 2])
            for i, o in enumerate(rng.uniform(0.0, 18.0, size=8))
        ]
        base = segment_metrics(reference, hypothesis, duration=20.0)
        perm = segment_metrics(reference[::-1], hypothesis[::-1], duration=20.0)
        assert base == perm

    def test_overlapping_same_class_events_count_once_per_cell(self):
        reference = [ev(0.0, 3.0, "A"), ev(1.0, 4.0, "A")]
        score = segment_metrics(reference, [], duration=4.0)
        assert score.n_ref == 4


class TestScore:
    def test_add_pools_counts(self):
        a = Score(n_ref=10, n_hyp=9, tp=7, substitutions=1, deletions=2,
                  insertions=1)
        b = Score(n_ref=5, n_hyp=6, tp=4, substitutions=0, deletions=1,
                  insertions=2)
        a.add(b)
        assert a == Score(n_ref=15, n_hyp=15, tp=11, substitutions=1,
                          deletions=3, insertions=3)
        assert a.error_rate == pytest.approx(7 / 15)
        assert a.f1 == 22 / 30

    def test_f1_empty_denominator(self):
        assert Score().f1 == 1.0


# ---------------------------------------------------------------------------
# event_metrics
# ---------------------------------------------------------------------------


class TestEventMetrics:
    def test_exact_match_is_perfect(self):
        reference = [ev(1.0, 2.0, "A"), ev(4.0, 5.0, "B")]
        score = event_metrics(reference, list(reference))
        assert score.tp == 2
        assert score.error_rate == 0.0
        assert score.f1 == 1.0

    def test_empty_hypothesis(self):
        score = event_metrics([ev(1.0, 2.0, "A"), ev(3.0, 4.0, "A")], [])
        assert score.deletions == 2
        assert score.error_rate == 1.0
        assert score.f1 == 0.0

    def test_onset_outside_collar_misses(self):
        score = event_metrics(
            [ev(1.0, 2.0, "A")], [ev(1.5, 2.5, "A")], onset_collar=0.2
        )
        assert score.tp == 0
        assert score.deletions == 1
        assert score.insertions == 1
        assert score.error_rate == 2.0
        assert score.f1 == 0.0

    def test_collar_boundary_matches(self):
        score = event_metrics(
            [ev(1.0, 2.0, "A")], [ev(1.2, 2.2, "A")], onset_collar=0.2
        )
        assert score.tp == 1
        assert score.error_rate == 0.0

    def test_wrong_label_in_collar_is_substitution(self):
        score = event_metrics(
            [ev(1.0, 2.0, "A")], [ev(1.05, 2.0, "B")], onset_collar=0.2
        )
        assert score.substitutions == 1
        assert score.tp == 0
        assert score.deletions == 0 and score.insertions == 0
        assert score.error_rate == 1.0
        assert score.f1 == 0.0

    def test_one_to_one_matching(self):
        # Two detections near one reference: one true positive, one insertion.
        score = event_metrics(
            [ev(1.0, 2.0, "A")],
            [ev(0.95, 2.0, "A"), ev(1.1, 2.0, "A")],
            onset_collar=0.2,
        )
        assert score.tp == 1
        assert score.insertions == 1
        assert score.error_rate == 1.0
        assert score.f1 == pytest.approx(2 / 3)

    def test_empty_against_empty(self):
        score = event_metrics([], [])
        assert score.error_rate is None
        assert score.f1 == 1.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        reference = [
            ev(float(o), float(o) + 1.0, "AB"[i % 2])
            for i, o in enumerate(rng.uniform(0.0, 30.0, size=10))
        ]
        hypothesis = [
            ev(float(o) + 0.1, float(o) + 1.1, "AB"[i % 2])
            for i, o in enumerate(rng.uniform(0.0, 30.0, size=10))
        ]
        base = event_metrics(reference, hypothesis)
        perm = event_metrics(reference[::-1], hypothesis[::-1])
        assert base == perm

    @settings(max_examples=200, deadline=None)
    @given(
        events=st.lists(
            st.tuples(
                st.booleans(),
                st.integers(0, 60).map(lambda k: 0.1 * k) | st.floats(0.0, 6.0),
                st.sampled_from("AB"),
            ),
            max_size=30,
        ),
        collar=st.sampled_from([0.0, 0.1, 0.2, 0.3]) | st.floats(0.0, 1.0),
    )
    def test_matches_the_quadratic_oracle(self, events, collar):
        # Onsets on a 0.1 s grid put many pairs exactly at, or one rounding
        # away from, the collar's edge.
        reference = [ev(o, o + 0.5, c) for is_ref, o, c in events if is_ref]
        hypothesis = [ev(o, o + 0.5, c) for is_ref, o, c in events if not is_ref]
        score = event_metrics(reference, hypothesis, onset_collar=collar)
        assert (score.tp, score.substitutions) == oracle_event_metrics(
            reference, hypothesis, collar
        )

    def test_negative_collar_rejected(self):
        for collar in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="collar"):
                event_metrics([], [], onset_collar=collar)

    def test_counts_partition(self):
        rng = np.random.default_rng(13)
        reference = [
            ev(float(o), float(o) + 1.0, "ABC"[i % 3])
            for i, o in enumerate(rng.uniform(0.0, 40.0, size=12))
        ]
        hypothesis = [
            ev(float(o), float(o) + 1.0, "ABC"[i % 3])
            for i, o in enumerate(rng.uniform(0.0, 40.0, size=9))
        ]
        for score in (
            event_metrics(reference, hypothesis),
            segment_metrics(reference, hypothesis, duration=45.0),
            segment_metrics(reference, hypothesis, resolution=0.3),
        ):
            assert score.n_ref > 0 and score.n_hyp > 0
            assert score.tp + score.substitutions + score.deletions == score.n_ref
            assert score.tp + score.substitutions + score.insertions == score.n_hyp
            fp = score.substitutions + score.insertions
            fn = score.substitutions + score.deletions
            assert score.f1 == 2 * score.tp / (2 * score.tp + fp + fn)


# ---------------------------------------------------------------------------
# per-class wrappers
# ---------------------------------------------------------------------------


EVENT_LISTS = st.lists(
    st.builds(lambda onset, length, label: ev(onset, onset + length, label),
              st.floats(0.0, 20.0), st.floats(0.01, 5.0), st.sampled_from("ABC")),
    max_size=8,
)


class TestPerClass:
    @settings(max_examples=150, deadline=None)
    @given(reference=EVENT_LISTS, hypothesis=EVENT_LISTS,
           resolution=st.sampled_from([0.25, 0.5, 1.0, 1.7]),
           duration=st.none() | st.floats(0.0, 30.0))
    def test_segment_rows_equal_the_class_filter(self, reference, hypothesis,
                                                 resolution, duration):
        # A row scores the label's own events (an inferred duration spans
        # only them); the pooled row scores the full lists.
        report = per_class_segment_metrics(reference, hypothesis, resolution,
                                           duration)
        labels = {e.label for e in reference + hypothesis}
        assert set(report) == labels | {"overall"}
        for label in labels:
            assert report[label] == segment_metrics(
                [e for e in reference if e.label == label],
                [e for e in hypothesis if e.label == label],
                resolution,
                duration,
            )
        assert report["overall"] == segment_metrics(reference, hypothesis,
                                                    resolution, duration)

    def test_class_named_overall_is_refused(self):
        # its row would be overwritten by the pooled score
        cases = [  # on both sides, and in the hypothesis only
            ([ev(0.0, 2.0, "overall"), ev(3.0, 4.0, "dog")], [ev(0.0, 2.0, "overall")]),
            ([ev(3.0, 4.0, "dog")], [ev(0.0, 2.0, "overall")]),
        ]
        for report in (per_class_segment_metrics, per_class_event_metrics):
            for reference, hypothesis in cases:
                with pytest.raises(ValueError, match="class label 'overall' is "
                                                     "reserved for the pooled score"):
                    report(reference, hypothesis)

    def test_segment_keys_and_pooled_counts(self):
        reference = [ev(0.0, 3.0, "A"), ev(5.0, 8.0, "B")]
        hypothesis = [ev(0.0, 2.0, "A"), ev(5.0, 9.0, "B")]
        report = per_class_segment_metrics(reference, hypothesis, duration=10.0)
        assert set(report) == {"A", "B", "overall"}
        for field in ("tp", "n_hyp", "n_ref"):
            assert getattr(report["overall"], field) == (
                getattr(report["A"], field) + getattr(report["B"], field)
            )

    def test_overall_substitutions_couple_across_classes(self):
        # A missed A and a spurious B in the same cell pair up overall, but
        # per class they surface as a deletion and an insertion.
        reference = [ev(0.0, 1.0, "A")]
        hypothesis = [ev(0.0, 1.0, "B")]
        report = per_class_segment_metrics(reference, hypothesis, duration=1.0)
        assert report["overall"].substitutions == 1
        assert report["A"].deletions == 1 and report["A"].substitutions == 0
        assert report["B"].insertions == 1 and report["B"].substitutions == 0

    def test_event_keys_and_per_label_isolation(self):
        reference = [ev(1.0, 2.0, "A"), ev(1.05, 2.0, "B")]
        hypothesis = [ev(1.0, 2.0, "A")]
        report = per_class_event_metrics(reference, hypothesis)
        assert set(report) == {"A", "B", "overall"}
        assert report["A"].tp == 1 and report["A"].error_rate == 0.0
        assert report["B"].deletions == 1
        assert report["overall"].tp == 1 and report["overall"].deletions == 1


# ---------------------------------------------------------------------------
# threshold grids and tuning
# ---------------------------------------------------------------------------


class TestGrids:
    def test_alpha_grid_shape(self):
        grid = default_alpha_grid()
        assert len(grid) == 21
        assert grid[0] == 0.0 and grid[-1] == 1.0
        steps = np.diff(grid)
        assert np.allclose(steps, 0.05, atol=1e-9)

    def test_beta_grid_shape(self):
        grid = default_beta_grid()
        assert len(grid) == 41
        assert grid[0] == 0.0 and grid[-1] == 1.0
        steps = np.diff(grid)
        assert np.allclose(steps, 0.025, atol=1e-9)

    def test_ignorance_beta_above_grid(self):
        assert IGNORANCE_BETA > max(default_beta_grid())
        assert IGNORANCE_BETA == 1.01


def oracle_tune(folds, forest, alphas, betas, detect_config, resolution,
                allow_ignorance):
    """Independent exhaustive search mirroring the published tie-breaks.

    Tracks come from the scalar reference renderer, one alpha at a time, and
    every beta rescans the peaks anew. The ignorance pair scores no events on
    every fold, as a disabled class reports none, and competes first.
    """
    label = forest.class_label
    best = None

    def consider(pooled, alpha, beta):
        nonlocal best
        rate = pooled.error_rate
        if rate is None:
            errors = pooled.substitutions + pooled.deletions + pooled.insertions
            score = 0.0 if errors == 0 else math.inf
        else:
            score = rate
        key = (score, -beta, -alpha)
        if best is None or key < best[0]:
            best = (key, alpha, beta, rate)

    if allow_ignorance:
        silence = Score()
        for fold in folds:
            silence.add(segment_metrics([e for e in fold.reference if e.label == label],
                                        [], resolution, fold.features.duration))
        consider(silence, alphas[0], IGNORANCE_BETA)
    for alpha in alphas:
        tracks = [
            smooth(
                oracle_render_tracks(
                    collect_votes(fold.features, forest),
                    fold.features.n_segments,
                    forest.n_trees,
                    alpha,
                    forest.z_plus,
                    forest.z_minus,
                ),
                detect_config.smooth_window,
            )
            for fold in folds
        ]
        for beta in betas:
            pooled = Score()
            for track, fold in zip(tracks, folds):
                events = extract_events(
                    track,
                    beta,
                    fold.features.config.hop_len,
                    fold.features.config.window_len,
                    label,
                )
                limit = detect_config.duration_factor * forest.max_train_event_duration
                events = [e for e in events if e.offset - e.onset <= limit]
                pooled.add(
                    segment_metrics(
                        [e for e in fold.reference if e.label == label],
                        events,
                        resolution,
                        fold.features.duration,
                    )
                )
            consider(pooled, alpha, beta)
    return best[1], best[2], best[3]


class TestTuneThresholds:
    def test_matches_independent_search(self, blob_model):
        folds = [
            TuneFold(
                features=blob_model.dev_features,
                reference=blob_model.dev_reference,
            ),
            TuneFold(
                features=blob_model.test_features,
                reference=blob_model.test_reference,
            ),
        ]
        alphas = [0.0, 0.5, 1.0]
        betas = [0.0, 0.25, 0.5]
        config = DetectConfig(smooth_window=11, duration_factor=3.0)
        result = tune_thresholds(
            folds, [blob_model.forest], config, alphas=alphas, betas=betas
        )
        chosen = result["blob"]
        alpha, beta, rate = oracle_tune(
            folds, blob_model.forest, alphas, betas, config, 1.0, False
        )
        assert chosen.alpha == alpha
        assert chosen.beta == beta
        assert chosen.error_rate == rate

    @pytest.mark.parametrize("allow_ignorance", [False, True])
    def test_full_grid_matches_independent_search(self, blob_model,
                                                  allow_ignorance):
        # The second fold claims no events, so firing costs insertions there
        # and the best pair lies inside the grid, not at its edge. Cells of
        # 0.1 s make the score depend on where each peak sits.
        folds = [
            TuneFold(
                features=blob_model.dev_features,
                reference=blob_model.dev_reference,
            ),
            TuneFold(
                features=blob_model.test_features,
                reference=[],
            ),
        ]
        config = DetectConfig(smooth_window=11, duration_factor=3.0)
        chosen = tune_thresholds(
            folds, [blob_model.forest], config, resolution=0.1,
            allow_ignorance=allow_ignorance,
        )["blob"]
        expected = oracle_tune(
            folds, blob_model.forest, default_alpha_grid(), default_beta_grid(),
            config, 0.1, allow_ignorance,
        )
        assert (chosen.alpha, chosen.beta, chosen.error_rate) == expected

    def test_other_labels_in_the_reference_change_nothing(self, blob_model):
        # each fold's reference is filtered to the class before the grid
        own = [
            TuneFold(features=blob_model.dev_features,
                     reference=blob_model.dev_reference),
            TuneFold(features=blob_model.test_features, reference=[]),
        ]
        others = [ev(e.onset + 0.3, e.offset + 0.7, "other")
                  for e in blob_model.dev_reference]
        mixed = [
            TuneFold(features=blob_model.dev_features,
                     reference=others[::2] + blob_model.dev_reference + others[1::2]),
            TuneFold(features=blob_model.test_features,
                     reference=[ev(0.0, blob_model.test_features.duration + 5.0,
                                   "other")]),
        ]
        config = DetectConfig(smooth_window=11, duration_factor=3.0)
        for allow_ignorance in (False, True):
            expected = tune_thresholds(own, [blob_model.forest], config,
                                       resolution=0.1,
                                       allow_ignorance=allow_ignorance)
            assert tune_thresholds(mixed, [blob_model.forest], config,
                                   resolution=0.1,
                                   allow_ignorance=allow_ignorance) == expected

    def test_found_thresholds_detect_events(self, blob_model):
        folds = [
            TuneFold(
                features=blob_model.dev_features,
                reference=blob_model.dev_reference,
            )
        ]
        result = tune_thresholds(
            folds,
            [blob_model.forest],
            DetectConfig(smooth_window=11, duration_factor=3.0),
            alphas=[0.0, 0.5],
            betas=[0.05, 0.25, 0.5, 0.95],
        )
        chosen = result["blob"]
        # The dev stream carries real events, so a detecting pair must beat
        # the silent high-beta pair.
        assert chosen.beta < 0.95
        assert chosen.error_rate is not None and chosen.error_rate < 1.0

    def test_absent_class_selects_ignorance(self, blob_model):
        # Reference says the class never occurs, yet the stream still excites
        # the detector: every firing threshold scores worse than silence, and
        # silence at the ignorance beta wins the tie over silence at beta 1.0.
        folds = [
            TuneFold(
                features=blob_model.test_features,
                reference=[],
            )
        ]
        config = DetectConfig(smooth_window=11, duration_factor=3.0)
        with_ignorance = tune_thresholds(
            folds, [blob_model.forest], config, allow_ignorance=True
        )
        assert with_ignorance["blob"].beta == IGNORANCE_BETA
        assert with_ignorance["blob"].disabled
        without = tune_thresholds(
            folds, [blob_model.forest], config, allow_ignorance=False
        )
        assert without["blob"].beta == default_beta_grid()[-1]
        assert not without["blob"].disabled

    def test_ignorance_scores_the_silence_of_a_disabled_class(self, blob_model):
        # Tracks of a model normalized on other streams run far above the
        # ignorance beta, so pairing at it fires as often as the grid does;
        # a disabled class reports nothing, whatever its tracks.
        forest = copy.deepcopy(blob_model.forest)
        forest.z_plus = forest.z_minus = 0.1
        config = DetectConfig(smooth_window=11, duration_factor=3.0)

        def tune(reference):
            folds = [TuneFold(features=blob_model.dev_features, reference=reference)]
            chosen = tune_thresholds(folds, [forest], config, alphas=[0.0],
                                     betas=[0.5], resolution=0.1,
                                     allow_ignorance=True)["blob"]
            assert (chosen.alpha, chosen.beta, chosen.error_rate) == oracle_tune(
                folds, forest, [0.0], [0.5], config, 0.1, True)
            return chosen

        # missing every shifted event costs less than firing beside them
        shifted = [ev(e.onset + 0.16, e.offset + 0.16, "blob")
                   for e in blob_model.dev_reference]
        assert tune(shifted) == ClassThresholds(alpha=0.0, beta=IGNORANCE_BETA,
                                                error_rate=1.0)
        # finding the events beats silence
        found = tune(blob_model.dev_reference)
        assert found.beta == 0.5 and found.error_rate < 1.0

    def test_ignorance_is_not_chosen_when_detections_help(self, blob_model):
        folds = [
            TuneFold(
                features=blob_model.dev_features,
                reference=blob_model.dev_reference,
            )
        ]
        result = tune_thresholds(
            folds,
            [blob_model.forest],
            DetectConfig(smooth_window=11, duration_factor=3.0),
            alphas=[0.0, 0.5],
            betas=[0.05, 0.5],
            allow_ignorance=True,
        )
        assert result["blob"].beta != IGNORANCE_BETA

    def test_empty_folds_rejected(self, blob_model):
        with pytest.raises(ValueError, match="fold"):
            tune_thresholds([], [blob_model.forest])

    @pytest.mark.parametrize(
        "grid, message",
        [
            ({"alphas": []}, "must not be empty"),
            ({"betas": []}, "must not be empty"),
            ({"alphas": [0.5, 1.5]}, "alphas must lie in"),
            ({"alphas": [-0.1]}, "alphas must lie in"),
            ({"alphas": [math.nan]}, "alphas must lie in"),
            ({"betas": [0.5, -0.5]}, "betas must be finite"),
            ({"betas": [math.inf]}, "betas must be finite"),
            ({"betas": [math.nan]}, "betas must be finite"),
        ],
        ids=["no_alphas", "no_betas", "alpha_above_one", "alpha_below_zero",
             "alpha_nan", "beta_negative", "beta_inf", "beta_nan"],
    )
    def test_invalid_grids_rejected(self, blob_model, grid, message):
        folds = [TuneFold(features=blob_model.dev_features, reference=[])]
        with pytest.raises(ValueError, match=message):
            tune_thresholds(folds, [blob_model.forest], **grid)


class TestThresholdFiles:
    def test_round_trip(self, tmp_path):
        result = {
            "dog": ClassThresholds(alpha=0.35, beta=0.125, error_rate=0.21),
            "cat": ClassThresholds(alpha=0.0, beta=IGNORANCE_BETA, error_rate=None),
        }
        path = tmp_path / "thresholds.json"
        save_thresholds(result, path)
        loaded = load_thresholds(path)
        assert loaded == result

    def test_json_is_plain_and_sorted(self, tmp_path):
        result = {"b": ClassThresholds(0.5, 0.1, 0.3),
                  "a": ClassThresholds(0.2, 0.4, 0.0)}
        path = tmp_path / "thresholds.json"
        save_thresholds(result, path)
        text = path.read_text()
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')

    def test_ignorance_beta_reads_as_disabled(self, tmp_path):
        path = tmp_path / "thresholds.json"
        path.write_text(json.dumps({
            "cat": {"alpha": 0.0, "beta": 1.01, "error_rate": None},
            "dog": {"alpha": 0.5, "beta": 1.0, "error_rate": 0.4},
        }))
        loaded = load_thresholds(path)
        assert loaded["cat"].disabled
        assert not loaded["dog"].disabled

    def test_enabled_forests_drops_disabled_loud_class(self, blob_model):
        # Shrinking z scales every score up, so the class fires even at the
        # ignorance beta; only dropping the forest keeps it silent.
        loud = copy.copy(blob_model.forest)
        loud.z_plus /= 1000.0
        loud.z_minus /= 1000.0
        config = DetectConfig(alpha=0.0, beta=IGNORANCE_BETA)
        assert detect_matrix(blob_model.test_features, [loud], {"blob": config})
        off = {"blob": ClassThresholds(0.0, IGNORANCE_BETA, 1.0)}
        on = {"blob": ClassThresholds(0.0, 0.5, 0.2)}
        assert enabled_forests([loud], off) == []
        assert enabled_forests([loud], on) == [loud]
        assert enabled_forests([loud], {}) == [loud]
