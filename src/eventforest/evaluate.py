"""Detection scoring on fixed time cells and on matched events, plus tuning."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from functools import partial
from math import ceil

import numpy as np

from .detect import DetectConfig, forest_events, score_tracks
from .features import FeatureMatrix
from .forest import expected_type

# The beta that tune records for a class it switches off. A class tuned to
# it is disabled: detection drops it, however high its scores run later.
IGNORANCE_BETA = 1.01


@dataclass
class Score:
    """Error counts of one metric: over fixed time cells or over matched events.

    ``n_ref`` and ``n_hyp`` count the active reference and hypothesis cells,
    or the reference and hypothesis events. Either way ``n_ref`` is
    ``tp + substitutions + deletions`` and ``n_hyp`` is
    ``tp + substitutions + insertions``.
    """

    n_ref: int = 0
    n_hyp: int = 0
    tp: int = 0
    substitutions: int = 0
    deletions: int = 0
    insertions: int = 0

    @property
    def error_rate(self) -> float | None:
        if self.n_ref == 0:
            return None
        return (self.substitutions + self.deletions + self.insertions) / self.n_ref

    @property
    def f1(self) -> float:
        denom = self.n_ref + self.n_hyp
        if denom == 0:
            return 1.0
        return 2 * self.tp / denom

    def add(self, other: "Score") -> None:
        for field in fields(self):
            setattr(self, field.name,
                    getattr(self, field.name) + getattr(other, field.name))


def _activity(events, classes, n_cells: int, resolution: float) -> np.ndarray:
    """Boolean activity grid: one row per cell, one column per class."""
    index = {label: k for k, label in enumerate(classes)}
    grid = np.zeros((n_cells, len(classes)), dtype=bool)
    for event in events:
        k = index[event.label]
        first = int(math.floor(event.onset / resolution))
        last = int(ceil(event.offset / resolution)) - 1
        first = max(first, 0)
        last = min(last, n_cells - 1)
        if first <= last:
            grid[first : last + 1, k] = True
    return grid


def segment_metrics(
    reference,
    hypothesis,
    resolution: float = 1.0,
    duration: float | None = None,
) -> Score:
    """Score detections against reference events on fixed time cells.

    Every label of either list is scored; to score one class, pass only its
    events. Each cell of ``resolution`` seconds holds the set of active
    classes on both sides. A missing class pairs with a spurious one in the
    same cell as a substitution; unpaired misses and extras count as
    deletions and insertions.
    """
    if not (math.isfinite(resolution) and resolution > 0):
        raise ValueError(f"resolution must be finite and positive, got {resolution}")
    if duration is not None and not (math.isfinite(duration) and duration >= 0):
        raise ValueError(f"duration must be finite and non-negative, got {duration}")
    reference = list(reference)
    hypothesis = list(hypothesis)
    classes = sorted({e.label for e in reference} | {e.label for e in hypothesis})
    if duration is None:
        duration = max((e.offset for e in reference + hypothesis), default=0.0)
    n_cells = int(ceil(duration / resolution)) if duration > 0 else 0

    if n_cells == 0 or not classes:
        return Score()
    ref_grid = _activity(reference, classes, n_cells, resolution)
    hyp_grid = _activity(hypothesis, classes, n_cells, resolution)
    fn_cells = (ref_grid & ~hyp_grid).sum(axis=1)
    fp_cells = (hyp_grid & ~ref_grid).sum(axis=1)
    sub_cells = np.minimum(fn_cells, fp_cells)
    return Score(
        n_ref=int(ref_grid.sum()),
        n_hyp=int(hyp_grid.sum()),
        tp=int((ref_grid & hyp_grid).sum()),
        substitutions=int(sub_cells.sum()),
        deletions=int((fn_cells - sub_cells).sum()),
        insertions=int((fp_cells - sub_cells).sum()),
    )


def _match_onsets(hypothesis, reference, hyp_used, ref_used, collar: float,
                  same_class: bool) -> int:
    """Greedy collar matching in onset order; returns the number of new matches.

    Each unused hypothesis, in order, takes the first unused reference whose
    onset lies within the collar of its own, of the same class when
    ``same_class``.
    """
    matched = 0
    for i, hyp in enumerate(hypothesis):
        if hyp_used[i]:
            continue
        for j, ref in enumerate(reference):
            if (not ref_used[j] and (ref.label == hyp.label or not same_class)
                    and abs(hyp.onset - ref.onset) <= collar):
                ref_used[j] = hyp_used[i] = True
                matched += 1
                break
    return matched


def event_metrics(reference, hypothesis, onset_collar: float = 0.2) -> Score:
    """Score detections by one-to-one event matching on onset proximity.

    A hypothesis matches a reference of the same class when their onsets lie
    within the collar; matching is greedy in onset order. Leftovers that
    align in time but not in class count as substitutions.
    """
    if not (math.isfinite(onset_collar) and onset_collar >= 0):
        raise ValueError(f"collar must be finite and non-negative, got {onset_collar}")
    reference = sorted(reference, key=lambda e: (e.onset, e.offset, e.label))
    hypothesis = sorted(hypothesis, key=lambda e: (e.onset, e.offset, e.label))
    ref_used = [False] * len(reference)
    hyp_used = [False] * len(hypothesis)
    tp = _match_onsets(hypothesis, reference, hyp_used, ref_used, onset_collar, True)
    subs = _match_onsets(hypothesis, reference, hyp_used, ref_used, onset_collar,
                         False)
    return Score(
        n_ref=len(reference),
        n_hyp=len(hypothesis),
        tp=tp,
        substitutions=subs,
        deletions=len(reference) - tp - subs,
        insertions=len(hypothesis) - tp - subs,
    )


def _per_class(metric, reference, hypothesis) -> dict:
    """``metric`` of each label on that label's events, and on all of them
    under 'overall', which no label may take."""
    classes = sorted({e.label for e in reference} | {e.label for e in hypothesis})
    if "overall" in classes:
        raise ValueError("class label 'overall' is reserved for the pooled score")
    report = {
        label: metric([e for e in reference if e.label == label],
                      [e for e in hypothesis if e.label == label])
        for label in classes
    }
    report["overall"] = metric(reference, hypothesis)
    return report


def per_class_segment_metrics(
    reference, hypothesis, resolution: float = 1.0, duration: float | None = None
) -> dict:
    """Segment scores per class label, under 'overall' the pooled score."""
    return _per_class(partial(segment_metrics, resolution=resolution,
                              duration=duration), reference, hypothesis)


def per_class_event_metrics(reference, hypothesis, onset_collar: float = 0.2) -> dict:
    """Event scores per class label, under 'overall' the pooled score."""
    return _per_class(partial(event_metrics, onset_collar=onset_collar),
                      reference, hypothesis)


@dataclass(eq=False)
class TuneFold:
    """One held-out stream used for threshold selection."""

    features: FeatureMatrix
    reference: list


@dataclass
class ClassThresholds:
    """Tuned gate and peak threshold of one class."""

    alpha: float
    beta: float
    error_rate: float | None

    @property
    def disabled(self) -> bool:
        """Whether tune switched the class off; it is then never reported."""
        return self.beta == IGNORANCE_BETA


def default_alpha_grid() -> list:
    return [round(0.05 * i, 10) for i in range(21)]


def default_beta_grid() -> list:
    return [round(0.025 * i, 10) for i in range(41)]


def _candidate(pooled: Score, alpha: float, beta: float) -> tuple:
    """``(rank, alpha, beta, error_rate)`` of one threshold pair. The lowest
    rank wins: the lowest error rate, counting a class absent from every
    reference as 0 when silent and infinite otherwise, then the larger beta,
    then the larger alpha."""
    rate = pooled.error_rate
    if rate is None:
        errors = pooled.substitutions + pooled.deletions + pooled.insertions
        score = 0.0 if errors == 0 else math.inf
    else:
        score = rate
    return (score, -beta, -alpha), alpha, beta, rate


def tune_thresholds(
    folds,
    forests,
    detect_config: DetectConfig | None = None,
    alphas=None,
    betas=None,
    resolution: float = 1.0,
    allow_ignorance: bool = False,
) -> dict:
    """Exhaustive per-class grid search minimizing pooled segment error rate.

    Returns the chosen ``ClassThresholds`` of each forest's class label.
    ``alphas`` must lie in [0, 1] and ``betas`` be finite and non-negative;
    ``None`` takes the default grid, and an empty grid is a ValueError.

    For each class and fold, ``score_tracks`` renders the smoothed onset
    and offset tracks of all alphas in one pass over the fold's votes, then
    every beta is applied. The segment error rate on the class's reference
    events, pooled over all folds, scores each pair; ties prefer the larger
    beta, then the larger alpha.
    With ``allow_ignorance`` the pair (first alpha, IGNORANCE_BETA) competes
    too, scored as the silence of a disabled class (no events on any fold),
    so a class whose best grid point is still worse than silence is
    disabled.

    The search is exact: the tracks of all alphas take every vote in the
    same order as rendering one alpha at a time, and the peaks above a beta are
    exactly the track's local maxima that reach it. Each smoothed track
    finds its ``maxima`` once, and each beta only filters and pairs them.
    """
    folds = list(folds)
    if not folds:
        raise ValueError("need at least one tuning fold")
    if detect_config is None:
        detect_config = DetectConfig()
    alphas = default_alpha_grid() if alphas is None else list(alphas)
    betas = default_beta_grid() if betas is None else list(betas)
    if not alphas or not betas:
        raise ValueError("the alpha and beta grids must not be empty")
    if not all(0.0 <= a <= 1.0 for a in alphas):
        raise ValueError(f"alphas must lie in [0, 1], got {alphas}")
    if not all(math.isfinite(b) and b >= 0.0 for b in betas):
        raise ValueError(f"betas must be finite and non-negative, got {betas}")

    per_class = {}
    for forest in forests:
        label = forest.class_label
        grid = {label: [replace(detect_config, alpha=a) for a in alphas]}
        per_fold = [
            score_tracks(fold.features, [forest], grid)[label]
            for fold in folds
        ]
        references = [[e for e in f.reference if e.label == label] for f in folds]
        candidates = []  # (rank, alpha, beta, error_rate) of each pair
        if allow_ignorance:  # a disabled class reports nothing
            silence = Score()
            for fold, reference in zip(folds, references):
                silence.add(segment_metrics(reference, [], resolution,
                                            fold.features.duration))
            candidates.append(_candidate(silence, alphas[0], IGNORANCE_BETA))
        for alpha in alphas:
            tracks = [grid.pop(0) for grid in per_fold]  # freed once scored
            for beta in betas:
                pooled = Score()
                for track, fold, reference in zip(tracks, folds, references):
                    events = forest_events(track, forest, beta,
                                           detect_config.duration_factor)
                    pooled.add(segment_metrics(reference, events, resolution,
                                               fold.features.duration))
                candidates.append(_candidate(pooled, alpha, beta))
        _, alpha, beta, rate = min(candidates, key=lambda c: c[0])
        per_class[label] = ClassThresholds(alpha=alpha, beta=beta, error_rate=rate)
    return per_class


def save_thresholds(thresholds: dict, path) -> None:
    """Write ``{label: ClassThresholds}`` as a JSON object, sorted by label."""
    payload = {
        label: {
            "alpha": t.alpha,
            "beta": t.beta,
            "error_rate": t.error_rate,
        }
        for label, t in thresholds.items()
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_thresholds(path) -> dict:
    """Read a thresholds file back into ``{label: ClassThresholds}``."""
    with open(path) as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: thresholds are not a JSON object")
    per_class = {}
    for label, entry in payload.items():
        for key, high in (("alpha", 1.0), ("beta", math.inf)):
            value = entry.get(key) if isinstance(entry, dict) else None
            if expected_type(value, 0.0) or not 0.0 <= value <= high:
                raise ValueError(
                    f"{path}: class {label!r} {key!r} must be a finite number "
                    f"in [0, {high:g}]"
                )
        error_rate = entry.get("error_rate")
        if error_rate is not None and expected_type(error_rate, 0.0):
            raise ValueError(
                f"{path}: class {label!r} error_rate must be a finite number or null"
            )
        per_class[label] = ClassThresholds(
            alpha=entry["alpha"],
            beta=entry["beta"],
            error_rate=error_rate,
        )
    return per_class


def enabled_forests(forests, thresholds: dict) -> list:
    """The forests whose class ``thresholds`` does not disable.

    ``thresholds`` maps class labels to ``ClassThresholds``. A disabled
    class's thresholds still fire wherever its scores reach the ignorance
    beta, so drop such classes before ``detect_on_features`` or
    ``detect_stream``. Classes the thresholds do not name are kept.
    """
    return [
        forest
        for forest in forests
        if forest.class_label not in thresholds
        or not thresholds[forest.class_label].disabled
    ]
