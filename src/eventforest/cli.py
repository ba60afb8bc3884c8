"""Command line interface for the batch detection pipeline."""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import BrokenExecutor
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .dataset import (
    EventAnnotation,
    MixtureSpec,
    build_training_segments,
    event_free_rows,
    parse_annotations,
    parse_number,
    synth_benchmark,
    write_annotations,
)
from .detect import (
    DetectConfig,
    detect_on_features,
    normalize,
    score_tracks,
    write_scores_csv,
)
from .evaluate import (
    TuneFold,
    enabled_forests,
    load_thresholds,
    per_class_event_metrics,
    per_class_segment_metrics,
    save_thresholds,
    tune_thresholds,
)
from .features import (
    FeatureConfig,
    load_audio,
    resample,
    save_audio,
    stream_features,
    write_features_csv,
)
from .forest import (
    ForestConfig,
    expected_type,
    load_forest,
    save_forest,
    shared_feature_config,
    train_forests,
)

# train's names for ForestConfig fields, whose defaults are train's defaults
_FOREST_KEYS = {
    "seed": "rng_seed",
    "trees": "n_trees",
    "max_depth": "max_depth",
    "min_leaf": "min_segments",
    "steer_depth": "steer_depth",
    "tests_per_node": "n_candidate_tests",
    "subsample": "subsample_ratio",
}

TRAIN_DEFAULTS = {
    **{key: getattr(ForestConfig(), name) for key, name in _FOREST_KEYS.items()},
    "threads": 1,
    "snr_levels": None,
    "event_class": None,
    "noise_subtraction": False,
}

DETECT_DEFAULTS = asdict(DetectConfig())
# tune takes alpha and beta from its grid, so it reads only the other settings
TUNE_DEFAULTS = {k: DETECT_DEFAULTS[k] for k in ("smooth_window", "duration_factor")}


def _config_value_error(key: str, value, default) -> str | None:
    """What a config file value for ``key`` must be, when ``value`` is not that.

    A value takes its default's type (see ``expected_type``); the keys that
    default to None take a string or null, and ``snr_levels`` also a list of
    numbers.
    """
    if default is not None:
        return expected_type(value, default)
    if value is None or isinstance(value, str):
        return None
    if key != "snr_levels":
        return "a string or null"
    if isinstance(value, list) and not any(expected_type(v, 0.0) for v in value):
        return None
    return "a list of numbers, a string or null"


def _resolve(args, defaults: dict) -> dict:
    """Merge builtin defaults, the optional config file, and explicit flags."""
    merged = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path) as handle:
            payload = json.load(handle)
        if not isinstance(payload, dict):
            raise ValueError(f"{config_path}: config is not a JSON object")
        unknown = sorted(set(payload) - set(defaults))
        if unknown:
            raise ValueError(
                f"unknown keys in {config_path}: {', '.join(unknown)}"
            )
        for key, value in payload.items():
            expected = _config_value_error(key, value, defaults[key])
            if expected:
                raise ValueError(f"{config_path}: key {key!r} must be {expected}")
        merged.update(payload)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _print_config(merged: dict) -> None:
    print(json.dumps(merged, indent=2, sort_keys=True))


def _load_manifest(path):
    with open(path) as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or not isinstance(payload.get("entries"), list):
        raise ValueError(f"{path}: manifest has no entries")

    def must_be(what, kind):
        return ValueError(f"{path}: manifest {what} must be {kind}")

    rate = payload.get("sample_rate", 16000)
    if expected_type(rate, 16000) or expected_type(rate, 0.0):
        raise must_be("sample_rate", "an integer in the float range")
    classes = payload.get("classes")
    if classes is not None and not (
        isinstance(classes, list) and all(isinstance(c, str) for c in classes)
    ):
        raise must_be("classes", "a list of strings or null")
    if classes is not None and len(set(classes)) < len(classes):
        raise must_be("classes", "distinct")
    level = payload.get("background_rms")
    if level is not None and (expected_type(level, 0.0) or not level > 0):
        raise must_be("background_rms", "a positive number or null")
    if payload.get("snr_db") is not None and expected_type(payload["snr_db"], 0.0):
        raise must_be("snr_db", "a finite number or null")
    base = Path(path).parent
    entries = []
    for i, entry in enumerate(payload["entries"]):
        for key in ("audio", "annotations"):
            if not isinstance(entry, dict) or key not in entry:
                raise ValueError(f"{path}: manifest entry {i} has no {key!r}")
            if not isinstance(entry[key], str):
                raise must_be(f"entry {i} {key!r}", "a string")
        if not isinstance(entry.get("fold", "train"), str):
            raise must_be(f"entry {i} 'fold'", "a string")
        entries.append(
            {
                "audio": base / entry["audio"],
                "annotations": base / entry["annotations"],
                "fold": entry.get("fold", "train"),
            }
        )
    return {
        "sample_rate": rate,
        "classes": classes,
        "background_rms": payload.get("background_rms"),
        "snr_db": payload.get("snr_db"),
        "entries": entries,
    }


def _dev_folds(manifest, feature_config) -> list:
    """A ``TuneFold`` of features and reference annotations per development
    entry, in manifest order: every fold other than train and test."""
    return [
        TuneFold(
            features=stream_features(entry["audio"], feature_config).matrix(),
            reference=parse_annotations(entry["annotations"]),
        )
        for entry in manifest["entries"]
        if entry["fold"] not in ("train", "test")
    ]


def _load_instances(entries, sample_rate):
    """Load isolated training instances grouped by their single class label."""
    instances: dict = {}
    for entry in entries:
        wave = resample(load_audio(entry["audio"]), sample_rate)
        annotations = parse_annotations(entry["annotations"])
        labels = {a.label for a in annotations}
        if len(labels) != 1:
            raise ValueError(
                f"{entry['audio']}: training instance must contain exactly "
                f"one event class, found {sorted(labels)}"
            )
        label = labels.pop()
        instances.setdefault(label, []).append((wave, annotations))
    return instances


def cmd_synth(args) -> int:
    out = Path(args.outdir)
    scene_entries = []

    def write_scene(name, scene, events):
        out.mkdir(parents=True, exist_ok=True)
        save_audio(out / f"{name}.wav", scene)
        write_annotations(events, out / f"{name}.txt")
        scene_entries.append(
            {"audio": f"{name}.wav", "annotations": f"{name}.txt", "fold": name}
        )

    bench = synth_benchmark(
        n_classes=args.classes,
        instances_per_class=args.instances,
        scene_len=args.scene_len,
        snr_db=args.snr,
        seed=args.seed,
        events_per_scene=args.events,
        write_scene=write_scene,
    )
    (out / "train").mkdir(parents=True, exist_ok=True)
    entries = []
    for label, waves in bench.train_instances.items():
        for i, wave in enumerate(waves):
            stem = f"train/{label}_i{i:02d}"
            save_audio(out / f"{stem}.wav", wave)
            write_annotations([EventAnnotation(0.0, wave.duration, label)],
                              out / f"{stem}.txt")
            entries.append(
                {"audio": f"{stem}.wav", "annotations": f"{stem}.txt",
                 "fold": "train"}
            )
    entries += scene_entries
    manifest = {
        "sample_rate": bench.sample_rate,
        "classes": bench.class_names,
        "background_rms": bench.background_rms,
        "snr_db": bench.snr_db,
        "entries": entries,
    }
    with open(out / "manifest.json", "w") as handle:
        json.dump(manifest, handle, indent=2)
        handle.write("\n")
    print(
        f"wrote {sum(len(w) for w in bench.train_instances.values())} instances, "
        f"dev scene ({len(bench.dev_events)} events), "
        f"test scene ({len(bench.test_events)} events) to {out}"
    )
    return 0


def cmd_train(args) -> int:
    merged = _resolve(args, TRAIN_DEFAULTS)
    if args.print_config:
        _print_config(merged)
        return 0
    if merged["threads"] < 1:
        raise ValueError(f"threads must be at least 1, got {merged['threads']}")
    manifest = _load_manifest(args.manifest)
    feature_config = FeatureConfig(
        sample_rate=manifest["sample_rate"],
        noise_subtraction=bool(merged["noise_subtraction"]),
    )
    train_entries = [e for e in manifest["entries"] if e["fold"] == "train"]
    if not train_entries:
        raise ValueError("manifest has no train entries")
    instances = _load_instances(train_entries, feature_config.sample_rate)
    classes = manifest["classes"] or sorted(instances)
    if merged["event_class"]:
        classes = [merged["event_class"]]
    missing = [c for c in classes if c not in instances]
    if missing:
        raise ValueError(f"no training instances for classes: {missing}")

    folds = _dev_folds(manifest, feature_config)
    if not folds:
        print("warning: no dev entries; scores stay unnormalized", file=sys.stderr)
    background = np.concatenate(
        [event_free_rows(f.features, f.reference) for f in folds]
    ) if folds else None

    levels = merged["snr_levels"]
    if isinstance(levels, str):
        levels = [parse_number(v, "SNR level") for v in levels.split(",")]
    elif levels is None:  # the manifest's level, else the default ones
        snr_db = manifest["snr_db"]
        levels = MixtureSpec().snr_levels if snr_db is None else [snr_db]
    mixture = MixtureSpec(snr_levels=tuple(map(float, levels)), rng_seed=merged["seed"])
    forest_config = ForestConfig(
        **{name: merged[key] for key, name in _FOREST_KEYS.items()}
    )

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # Every class's set is built before the one worker pool forks, sharing
    # each isolated instance's features, and the fork copies only the sets.
    # No model is written until every class trains.
    instance_features: dict = {}
    training = {
        label: build_training_segments(
            label,
            instances,
            feature_config,
            mixture,
            background=background,
            background_rms=manifest["background_rms"],
            instance_features=instance_features,
        )
        for label in classes
    }
    del instances, background, instance_features
    counts = [f"{len(s)} segments ({s.n_positive} positive)" for s in training.values()]
    forests = list(train_forests(training, forest_config, feature_config,
                                 merged["threads"]))
    del training  # before normalize adds its scores to the peak

    normalize(forests, [fold.features for fold in folds])
    paths = [out / f"model_{forest.class_label}.json" for forest in forests]
    _save_all(forests, paths)
    for forest, count, path in zip(forests, counts, paths):
        print(f"{forest.class_label}: {count}, {forest.n_trees} trees -> {path}")
    return 0


def _save_all(forests, paths) -> None:
    """Write every forest to its path, or leave none of them behind.

    Each forest is written to a temporary file beside its path, and the files
    are renamed into place only once every write has succeeded. If a write or
    a rename fails, the temporary files and the models already renamed are
    removed before the error propagates.
    """
    temps = [path.with_name(f".{path.name}.tmp") for path in paths]
    placed = 0
    try:
        for forest, temp in zip(forests, temps):
            save_forest(forest, temp)
        for temp, path in zip(temps, paths):
            temp.replace(path)
            placed += 1
    except BaseException:
        for leftover in paths[:placed] + temps[placed:]:
            leftover.unlink(missing_ok=True)
        raise


def cmd_tune(args) -> int:
    merged = _resolve(args, TUNE_DEFAULTS)
    if args.print_config:
        _print_config(merged)
        return 0
    detect_config = DetectConfig(**merged)
    manifest = _load_manifest(args.manifest)
    forests = [load_forest(p) for p in args.models]
    feature_config = shared_feature_config(forests)
    folds = _dev_folds(manifest, feature_config)
    if not folds:
        raise ValueError("manifest has no development entries to tune on")
    tuned = tune_thresholds(
        folds,
        forests,
        detect_config,
        allow_ignorance=args.allow_ignorance,
    )
    save_thresholds(tuned, args.out)
    for label, t in sorted(tuned.items()):
        rate = "n/a" if t.error_rate is None else f"{t.error_rate:.3f}"
        chosen = "disabled" if t.disabled else f"alpha={t.alpha:g} beta={t.beta:g}"
        print(f"{label}: {chosen} segment-ER={rate}")
    return 0


def cmd_detect(args) -> int:
    merged = _resolve(args, DETECT_DEFAULTS)
    if args.print_config:
        _print_config(merged)
        return 0
    forests = [load_forest(p) for p in args.models]
    feature_config = shared_feature_config(forests)
    tuned = load_thresholds(args.thresholds) if args.thresholds else {}
    configs = {}
    for forest in forests:
        # explicit flags, then tuned thresholds, then the config file
        settings = dict(merged)
        choice = tuned.get(forest.class_label)
        if choice is not None:
            settings.update(alpha=choice.alpha, beta=choice.beta)
        for key in ("alpha", "beta"):
            if getattr(args, key) is not None:
                settings[key] = getattr(args, key)
        configs[forest.class_label] = DetectConfig(**settings)
    # One pass over the stream scores every class that is dumped or detected;
    # each dumped track is the one detection pairs.
    stream = stream_features(args.audio, feature_config)
    enabled = enabled_forests(forests, tuned)
    scored = forests if args.dump_scores else enabled
    if args.dump_features:
        # a pass of its own, since scoring may split the stream into ranges
        write_features_csv(stream.blocks(), args.dump_features,
                           feature_config.n_channels)
    tracks = score_tracks(stream, scored,
                          {label: [config] for label, config in configs.items()})
    del stream  # a noise floor's whole-stream energies go with it
    tracks = {label: track for label, [track] in tracks.items()}
    if args.dump_scores:
        score_dir = Path(args.dump_scores)
        score_dir.mkdir(parents=True, exist_ok=True)
        for forest in forests:
            write_scores_csv(tracks[forest.class_label],
                             score_dir / f"scores_{forest.class_label}.csv")
    # A class the thresholds file disables is never reported, whatever its
    # scores on this stream and whatever --alpha/--beta say.
    detections = detect_on_features(tracks, enabled, configs)
    if args.out:
        write_annotations(detections, args.out)
        print(f"{len(detections)} detections -> {args.out}")
    else:
        write_annotations(detections, sys.stdout)
    return 0


def _class_order(report) -> list:
    """A metric report's class labels in sorted order, then ``overall``."""
    return sorted(k for k in report if k != "overall") + ["overall"]


def _print_metric_table(title, report) -> None:
    print(title)
    header = f"{'class':<16}{'ER':>8}{'F1':>8}{'N':>7}{'S':>6}{'D':>6}{'I':>6}"
    print(header)
    for label in _class_order(report):
        score = report[label]
        rate = "n/a" if score.error_rate is None else f"{score.error_rate:.3f}"
        print(
            f"{label:<16}{rate:>8}{100 * score.f1:>7.1f}%{score.n_ref:>7}"
            f"{score.substitutions:>6}{score.deletions:>6}{score.insertions:>6}"
        )


def cmd_evaluate(args) -> int:
    reference = parse_annotations(args.reference)
    hypothesis = parse_annotations(args.hypothesis)
    reports = {}
    if args.mode in ("segment", "both"):
        reports["segment"] = per_class_segment_metrics(
            reference, hypothesis, args.resolution, args.duration
        )
        _print_metric_table(f"segment metrics ({args.resolution:g} s cells)",
                            reports["segment"])
    if args.mode in ("event", "both"):
        reports["event"] = per_class_event_metrics(
            reference, hypothesis, args.collar
        )
        _print_metric_table(f"event metrics ({args.collar:g} s onset collar)",
                            reports["event"])
    if args.csv:
        with open(args.csv, "w") as handle:
            handle.write(
                "mode,class,n_ref,substitutions,deletions,insertions,"
                "error_rate,f1\n"
            )
            for mode, report in reports.items():
                for label in _class_order(report):
                    s = report[label]
                    rate = "" if s.error_rate is None else repr(s.error_rate)
                    handle.write(
                        f"{mode},{label},{s.n_ref},{s.substitutions},"
                        f"{s.deletions},{s.insertions},{rate},{s.f1!r}\n"
                    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eventforest",
        description="Detect overlapping audio events in continuous streams "
        "with per-class decision forests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic benchmark corpus")
    p.add_argument("outdir", help="directory for audio, annotations, manifest")
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--instances", type=int, default=20,
                   help="training instances per class")
    p.add_argument("--events", type=int, default=60, help="events per scene")
    p.add_argument("--scene-len", type=float, default=60.0,
                   help="minimum scene length in seconds")
    p.add_argument("--snr", type=float, default=0.0,
                   help="event SNR against the noise bed in dB")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train one forest per event class")
    p.add_argument("manifest", help="dataset manifest JSON")
    p.add_argument("--out-dir", default="models")
    p.add_argument("--config", help="JSON config file; flags take precedence")
    p.add_argument("--print-config", action="store_true",
                   help="print the resolved configuration and exit")
    p.add_argument("--event-class", help="train only this class")
    p.add_argument("--seed", type=int)
    p.add_argument("--trees", type=int)
    p.add_argument("--max-depth", type=int)
    p.add_argument("--min-leaf", type=int)
    p.add_argument("--steer-depth", type=int)
    p.add_argument("--tests-per-node", type=int)
    p.add_argument("--subsample", type=float)
    p.add_argument("--threads", type=int)
    p.add_argument("--snr-levels", metavar="LEVELS", help="comma separated mixing "
                   "SNRs in dB; a negative first level needs '=': --snr-levels=-6,0")
    p.add_argument("--noise-subtraction", action="store_const", const=True,
                   default=None,
                   help="subtract the per-channel noise floor from streams")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("tune", help="select per-class thresholds on dev folds")
    p.add_argument("manifest")
    p.add_argument("models", nargs="+", help="model JSON files")
    p.add_argument("--out", default="thresholds.json")
    p.add_argument("--config", help="JSON config file; flags take precedence")
    p.add_argument("--print-config", action="store_true")
    p.add_argument("--smooth-window", type=int)
    p.add_argument("--duration-factor", type=float)
    p.add_argument("--allow-ignorance", action="store_true",
                   help="let a class be switched off when silence scores best")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("detect", help="detect events in an audio stream")
    p.add_argument("audio")
    p.add_argument("--model", dest="models", action="append", required=True,
                   help="model JSON file; repeat per class")
    p.add_argument("--thresholds", help="tuned thresholds JSON")
    p.add_argument("--out", help="write detections here instead of stdout")
    p.add_argument("--config", help="JSON config file; flags take precedence")
    p.add_argument("--print-config", action="store_true")
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--smooth-window", type=int)
    p.add_argument("--duration-factor", type=float)
    p.add_argument("--dump-scores", metavar="DIR",
                   help="write per-class score tracks as CSV")
    p.add_argument("--dump-features", metavar="FILE",
                   help="write the extracted features as CSV")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("evaluate", help="score detections against a reference")
    p.add_argument("reference", help="reference annotation file")
    p.add_argument("hypothesis", help="detection file")
    p.add_argument("--mode", choices=("segment", "event", "both"),
                   default="both")
    p.add_argument("--resolution", type=float, default=1.0,
                   help="segment cell length in seconds")
    p.add_argument("--collar", type=float, default=0.2,
                   help="event onset collar in seconds")
    p.add_argument("--duration", type=float,
                   help="stream length; default spans the events")
    p.add_argument("--csv", help="also write the counts as CSV")
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError, json.JSONDecodeError,
            BrokenExecutor) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
