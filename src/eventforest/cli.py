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
    MixtureSpec,
    build_training_segments,
    parse_annotations,
    synth_benchmark,
    write_annotations,
)
from .detect import (
    DetectConfig,
    collect_votes,
    detect_on_features,
    render_tracks,
    score_track,
    write_detections,
    write_scores_csv,
)
from .evaluate import (
    TuneFold,
    TuneResult,
    enabled_forests,
    load_thresholds,
    per_class_event_metrics,
    per_class_segment_metrics,
    save_thresholds,
    tune_thresholds,
)
from .features import (
    FeatureConfig,
    dump_features_csv,
    featurize,
    load_audio,
    resample,
    save_audio,
)
from .forest import (
    ForestConfig,
    expected_type,
    load_forest,
    save_forest,
    shared_feature_config,
    train_forest,
)

TRAIN_DEFAULTS = {
    "seed": 0,
    "trees": 10,
    "max_depth": 12,
    "min_leaf": 20,
    "steer_depth": 9,
    "tests_per_node": 20000,
    "subsample": 0.5,
    "threads": 1,
    "snr_levels": None,
    "event_class": None,
    "noise_subtraction": False,
}

DETECT_DEFAULTS = asdict(DetectConfig())


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

    if expected_type(payload.get("sample_rate", 16000), 16000):
        raise must_be("sample_rate", "an integer")
    classes = payload.get("classes")
    if classes is not None and not (
        isinstance(classes, list) and all(isinstance(c, str) for c in classes)
    ):
        raise must_be("classes", "a list of strings or null")
    for key in ("background_rms", "snr_db"):
        if payload.get(key) is not None and expected_type(payload[key], 0.0):
            raise must_be(key, "a finite number or null")
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
        "sample_rate": payload.get("sample_rate", 16000),
        "classes": classes,
        "background_rms": payload.get("background_rms"),
        "snr_db": payload.get("snr_db"),
        "entries": entries,
    }


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


def _event_free_rows(features, annotations):
    """Feature rows whose segment centers fall outside every annotated event."""
    centers = features.segment_centers()
    keep = np.ones(features.n_segments, dtype=bool)
    for a in annotations:
        keep[(centers >= a.onset) & (centers < a.offset)] = False
    return features.rows[keep]


def _fit_normalization(forest, dev_features) -> None:
    """Set z constants to the raw ungated score maxima over the dev streams.

    Scores are taken before smoothing and with the gate wide open, so every
    rendered track on the same material stays at or below one for any alpha.
    """
    z_plus = 0.0
    z_minus = 0.0
    for features in dev_features:
        track = render_tracks(collect_votes(features, forest), alpha=0.0)
        if track.n_segments:
            z_plus = max(z_plus, float(track.f_plus.max()))
            z_minus = max(z_minus, float(track.f_minus.max()))
    forest.z_plus = z_plus if z_plus > 0 else 1.0
    forest.z_minus = z_minus if z_minus > 0 else 1.0


def cmd_synth(args) -> int:
    bench = synth_benchmark(
        n_classes=args.classes,
        instances_per_class=args.instances,
        scene_len=args.scene_len,
        snr_db=args.snr,
        seed=args.seed,
        events_per_scene=args.events,
    )
    out = Path(args.outdir)
    (out / "train").mkdir(parents=True, exist_ok=True)
    entries = []
    for label, waves in bench.train_instances.items():
        for i, wave in enumerate(waves):
            stem = f"train/{label}_i{i:02d}"
            save_audio(out / f"{stem}.wav", wave)
            with open(out / f"{stem}.txt", "w") as handle:
                handle.write(f"0.000\t{wave.duration:.3f}\t{label}\n")
            entries.append(
                {"audio": f"{stem}.wav", "annotations": f"{stem}.txt",
                 "fold": "train"}
            )
    for name, scene, events in (
        ("dev", bench.dev_scene, bench.dev_events),
        ("test", bench.test_scene, bench.test_events),
    ):
        save_audio(out / f"{name}.wav", scene)
        write_annotations(events, out / f"{name}.txt")
        entries.append(
            {"audio": f"{name}.wav", "annotations": f"{name}.txt", "fold": name}
        )
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
    dev_entries = [
        e for e in manifest["entries"] if e["fold"] not in ("train", "test")
    ]
    if not train_entries:
        raise ValueError("manifest has no train entries")
    instances = _load_instances(train_entries, feature_config.sample_rate)
    classes = manifest["classes"] or sorted(instances)
    if merged["event_class"]:
        classes = [merged["event_class"]]
    missing = [c for c in classes if c not in instances]
    if missing:
        raise ValueError(f"no training instances for classes: {missing}")

    dev_features = []
    background_rows = []
    for entry in dev_entries:
        features = featurize(load_audio(entry["audio"]), feature_config)
        dev_features.append(features)
        background_rows.append(
            _event_free_rows(features, parse_annotations(entry["annotations"]))
        )
    background = np.concatenate(background_rows) if background_rows else None
    if not dev_entries:
        print("warning: no dev entries; scores stay unnormalized", file=sys.stderr)

    if merged["snr_levels"] is not None:
        levels = merged["snr_levels"]
        if isinstance(levels, str):
            levels = [float(v) for v in levels.split(",")]
        snr_levels = tuple(float(v) for v in levels)
    elif manifest["snr_db"] is not None:
        snr_levels = (float(manifest["snr_db"]),)
    else:
        snr_levels = (-6.0, 0.0, 6.0)
    mixture = MixtureSpec(
        snr_levels=snr_levels, rng_seed=merged["seed"]
    )
    forest_config = ForestConfig(
        n_trees=merged["trees"],
        subsample_ratio=merged["subsample"],
        n_candidate_tests=merged["tests_per_node"],
        max_depth=merged["max_depth"],
        min_segments=merged["min_leaf"],
        steer_depth=merged["steer_depth"],
        rng_seed=merged["seed"],
    )

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for label in classes:
        segments = build_training_segments(
            label,
            instances,
            feature_config,
            mixture,
            background=background,
            background_rms=manifest["background_rms"],
        )
        forest = train_forest(
            segments,
            forest_config,
            class_label=label,
            feature_config=feature_config,
            n_workers=merged["threads"],
        )
        _fit_normalization(forest, dev_features)
        path = out / f"model_{label}.json"
        save_forest(forest, path)
        print(
            f"{label}: {len(segments)} segments ({segments.n_positive} positive), "
            f"{forest.n_trees} trees -> {path}"
        )
    return 0


def cmd_tune(args) -> int:
    merged = _resolve(args, DETECT_DEFAULTS)
    if args.print_config:
        _print_config(merged)
        return 0
    detect_config = DetectConfig(**merged)
    manifest = _load_manifest(args.manifest)
    forests = [load_forest(p) for p in args.models]
    feature_config = shared_feature_config(forests)
    dev_entries = [
        e for e in manifest["entries"] if e["fold"] not in ("train", "test")
    ]
    if not dev_entries:
        raise ValueError("manifest has no development entries to tune on")
    folds = [
        TuneFold(
            features=featurize(load_audio(entry["audio"]), feature_config),
            reference=parse_annotations(entry["annotations"]),
        )
        for entry in dev_entries
    ]
    result = tune_thresholds(
        folds,
        forests,
        detect_config,
        allow_ignorance=args.allow_ignorance,
    )
    save_thresholds(result, args.out)
    for label, t in sorted(result.per_class.items()):
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
    thresholds = (
        load_thresholds(args.thresholds) if args.thresholds else TuneResult({})
    )
    tuned = thresholds.per_class
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
    features = featurize(load_audio(args.audio), feature_config)
    if args.dump_features:
        dump_features_csv(features, args.dump_features)
    # every class is dumped, and each dumped track is the one detection pairs
    tracks = {}
    if args.dump_scores:
        score_dir = Path(args.dump_scores)
        score_dir.mkdir(parents=True, exist_ok=True)
        for forest in forests:
            track = score_track(features, forest, configs[forest.class_label])
            write_scores_csv(track, score_dir / f"scores_{forest.class_label}.csv")
            tracks[forest.class_label] = track
    # A class the thresholds file disables is never reported, whatever its
    # scores on this stream and whatever --alpha/--beta say.
    detections = detect_on_features(
        features, enabled_forests(forests, thresholds), configs, tracks
    )
    if args.out:
        write_detections(detections, args.out)
    else:
        for d in detections:
            print(f"{d.onset:.3f}\t{d.offset:.3f}\t{d.label}")
    if args.out:
        print(f"{len(detections)} detections -> {args.out}")
    return 0


def _print_metric_table(title, report) -> None:
    print(title)
    header = f"{'class':<16}{'ER':>8}{'F1':>8}{'N':>7}{'S':>6}{'D':>6}{'I':>6}"
    print(header)
    order = sorted(k for k in report if k != "overall") + ["overall"]
    for label in order:
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
                order = sorted(k for k in report if k != "overall") + ["overall"]
                for label in order:
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
    p.add_argument("--snr-levels", help="comma separated mixing SNRs in dB")
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
    except (ValueError, OSError, json.JSONDecodeError, BrokenExecutor) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
