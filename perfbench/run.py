#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the eventforest command line pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload readme --seed 1 --seconds 20 --trace 0

Each CLI stage runs in its own process (``perfbench/stage.py``), one after
another, with one BLAS thread, so every stage has its own wall time, CPU time
and peak RSS (``os.wait4``). Times leave out the share the hypervisor stole
(see ``unstolen``). Set-up makes the inputs and is timed on its own
(``setup_s``); the measured stages then run in whole passes until
``--seconds`` have passed, and each end-to-end metric is the median over the
passes. The last line of stdout is one JSON object: ``correct``, ``attempted``
and ``failed`` stage runs, and ``metrics``.

``--trace 1`` reports per-layer metrics instead. It sets up and runs one
untraced pass as above, then sets up and runs one pass again, calling
``eventforest.cli.main`` in this process with spans around the package's
public functions (see ``tracing.py``). Tracing overhead is the traced minus
the untraced time of each stage.

Every output file is hashed. The passes of a run must agree byte for byte,
and the hashes are compared with the reference in ``perfbench/baseline.json``
(``outputs_match``). The inputs are the README corpus (``synth`` seed 0) for
every ``--seed``, so that byte identity can be checked; ``--seed`` is
reported but selects no other input.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import wave
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
BASELINE = HERE / "baseline.json"

# One BLAS thread per process. The default of one per core, next to
# `train --threads 2`, oversubscribes two cores (readme train 53 s against
# 39 s), and the thread count changes the summation order of the feature
# projection, hence the bytes of every model. Reference hashes hold only for
# this setting.
PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

README_CORPUS = (
    "--classes", "3", "--instances", "20", "--events", "60",
    "--scene-len", "60", "--snr", "0", "--seed", "0",
)
CLASSES = ("tone300", "tone600", "tone1200")
# What `tune` selects on the README corpus with the README training settings.
FIXED_THRESHOLDS = {
    "tone300": {"alpha": 1.0, "beta": 0.0},
    "tone600": {"alpha": 0.75, "beta": 0.0},
    "tone1200": {"alpha": 0.9, "beta": 0.0},
}
STAGES = ("train", "tune", "detect", "evaluate")


def _models(classes) -> tuple:
    return tuple(
        arg for c in classes for arg in ("--model", f"{{out}}/models/model_{c}.json")
    )


@dataclass(frozen=True)
class Workload:
    """CLI argument templates; {corpus}, {long}, {out} and {thresholds} are filled in."""

    setup: tuple
    setup_repeats: int
    stages: tuple
    fixed_thresholds: bool = False
    scored: str = "overall"


WORKLOADS = {
    # The README pipeline for one class. Per-class training and tuning are
    # independent of the other classes, so the model and detections are
    # byte-identical to the tone600 part of the full three-class run, which
    # takes about 80 s and does not fit the run budget.
    "readme": Workload(
        setup=(("synth", "{corpus}", *README_CORPUS),),
        setup_repeats=3,
        scored="tone600",
        stages=(
            ("train", ("train", "{corpus}/manifest.json", "--out-dir",
                       "{out}/models", "--tests-per-node", "2000",
                       "--threads", "2", "--event-class", "tone600")),
            ("tune", ("tune", "{corpus}/manifest.json",
                      "{out}/models/model_tone600.json",
                      "--out", "{out}/thresholds.json")),
            ("detect", ("detect", "{corpus}/test.wav", *_models(["tone600"]),
                        "--thresholds", "{out}/thresholds.json",
                        "--out", "{out}/test_detections.txt")),
            ("evaluate", ("evaluate", "{corpus}/test.txt",
                          "{out}/test_detections.txt",
                          "--csv", "{out}/test_scores.csv")),
        ),
    ),
    # Detection on two 240 s recordings with three small-candidate forests:
    # features, routing and rendering, no split search at scale and no tune
    # grid. Thresholds are fixed so set-up does not run the grid.
    "long_stream": Workload(
        setup=(
            ("synth", "{corpus}", *README_CORPUS),
            ("synth", "{long}", "--classes", "3", "--instances", "20",
             "--events", "240", "--scene-len", "240", "--snr", "0",
             "--seed", "0"),
        ),
        setup_repeats=1,
        fixed_thresholds=True,
        stages=(
            ("train", ("train", "{corpus}/manifest.json", "--out-dir",
                       "{out}/models", "--tests-per-node", "200",
                       "--threads", "2")),
            ("detect", ("detect", "{long}/dev.wav", *_models(CLASSES),
                        "--thresholds", "{thresholds}",
                        "--out", "{out}/dev_detections.txt")),
            ("detect", ("detect", "{long}/test.wav", *_models(CLASSES),
                        "--thresholds", "{thresholds}",
                        "--out", "{out}/test_detections.txt")),
            ("evaluate", ("evaluate", "{long}/test.txt",
                          "{out}/test_detections.txt",
                          "--csv", "{out}/test_scores.csv")),
        ),
    ),
    # Split search at the CLI default of 20,000 candidates, where the n x K
    # difference and mask matrices set the peak RSS.
    "wide_split": Workload(
        setup=(("synth", "{corpus}", *README_CORPUS),),
        setup_repeats=3,
        fixed_thresholds=True,
        scored="tone600",
        stages=(
            ("train", ("train", "{corpus}/manifest.json", "--out-dir",
                       "{out}/models", "--event-class", "tone600",
                       "--tests-per-node", "20000", "--trees", "1",
                       "--threads", "1")),
            ("detect", ("detect", "{corpus}/test.wav", *_models(["tone600"]),
                        "--thresholds", "{thresholds}",
                        "--out", "{out}/test_detections.txt")),
            ("evaluate", ("evaluate", "{corpus}/test.txt",
                          "{out}/test_detections.txt",
                          "--csv", "{out}/test_scores.csv")),
        ),
    ),
}


class StageFailed(Exception):
    pass


def cpu_ticks() -> tuple:
    """Busy and stolen clock ticks of the whole machine so far (/proc/stat)."""
    with open("/proc/stat") as handle:
        user, nice, system, _, _, irq, softirq, steal = map(
            int, handle.readline().split()[1:9])
    return user + nice + system + irq + softirq, steal


def unstolen(wall: float, before: tuple, after: tuple) -> float:
    """Wall time less the share of it the hypervisor gave to other guests.

    On a shared host a guest's CPUs are now and then not run although they
    have work (steal time). Such phases last minutes and stretch a 2-thread
    stage by up to half; scaling the wall time by busy / (busy + stolen)
    ticks over the interval removes them and leaves the program's own time.
    """
    busy, stolen = after[0] - before[0], after[1] - before[1]
    return wall * busy / (busy + stolen) if stolen else wall


def _fill(argv, dirs) -> list:
    return [arg.format(**dirs) for arg in argv]


def _flag(argv, name) -> Path:
    return Path(argv[argv.index(name) + 1])


def _check_output(argv) -> None:
    """Raise ValueError unless the stage left parseable output behind."""
    command = argv[0]
    if command == "synth":
        manifest = json.loads((Path(argv[1]) / "manifest.json").read_text())
        if not manifest["entries"]:
            raise ValueError("manifest has no entries")
    elif command == "train":
        models = sorted(_flag(argv, "--out-dir").glob("model_*.json"))
        if not models:
            raise ValueError("no model written")
        for path in models:
            payload = json.loads(path.read_text())
            if payload["format_version"] != 1 or not all(payload["trees"]):
                raise ValueError(f"{path.name}: not a version 1 model with trees")
    elif command == "tune":
        for entry in json.loads(_flag(argv, "--out").read_text()).values():
            float(entry["alpha"]), float(entry["beta"])
    elif command == "detect":
        for line in _flag(argv, "--out").read_text().splitlines():
            onset, offset, label = line.split("\t")
            if not float(onset) < float(offset) or label not in CLASSES:
                raise ValueError(f"bad detection line {line!r}")
    elif command == "evaluate":
        _read_scores(_flag(argv, "--csv"))


def _read_scores(path, row: str = "overall") -> dict:
    """Segment error rate and F1 and event F1 of one row of `evaluate --csv`."""
    with open(path, newline="") as handle:
        rows = {(r["mode"], r["class"]): r for r in csv.DictReader(handle)}
    return {
        "test_seg_er": float(rows[("segment", row)]["error_rate"]),
        "test_seg_f1": float(rows[("segment", row)]["f1"]),
        "test_event_f1": float(rows[("event", row)]["f1"]),
    }


def _wav_seconds(path) -> float:
    with wave.open(str(path)) as handle:
        return handle.getnframes() / handle.getframerate()


def _hashes(out_dir: Path) -> dict:
    return {
        str(path.relative_to(out_dir)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.rglob("*"))
        if path.is_file()
    }


class Bench:
    """One benchmark run: its working directory and its stage counts."""

    def __init__(self, work: Path):
        self.work = work
        self.attempted = 0
        self.failed = 0
        pythonpath = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        self.env = dict(os.environ, PYTHONPATH=pythonpath, **PINNED_THREADS)

    def _fail(self, argv, reason) -> StageFailed:
        self.failed += 1
        return StageFailed(f"{' '.join(argv)}: {reason}")

    def stage(self, stage: str, argv: list) -> dict:
        """Run one CLI stage in its own process and check its output."""
        self.attempted += 1
        log = self.work / "logs" / f"{self.attempted:03d}_{stage}"
        log.parent.mkdir(parents=True, exist_ok=True)
        timing = log.with_suffix(".timing.json")
        command = [sys.executable, str(HERE / "stage.py"), str(timing), *argv]
        before = cpu_ticks()
        start = time.perf_counter()
        with open(log.with_suffix(".out"), "w") as out, \
                open(log.with_suffix(".err"), "w") as err:
            process = subprocess.Popen(command, cwd=ROOT, env=self.env,
                                       stdout=out, stderr=err)
            try:
                _, status, usage = os.wait4(process.pid, 0)
            except BaseException:
                process.kill()
                process.wait()
                raise
        wall = time.perf_counter() - start
        after = cpu_ticks()
        process.returncode = os.waitstatus_to_exitcode(status)
        if process.returncode != 0:
            raise self._fail(argv, f"exit code {process.returncode}, "
                                   f"see {log.with_suffix('.err')}")
        try:
            times = json.loads(timing.read_text())
            _check_output(argv)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise self._fail(argv, f"bad output: {exc!r}") from None
        return {
            "stage": stage,
            "argv": argv,
            "wall_s": unstolen(wall, before, after),
            "raw_wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "main_s": times["main_s"],
        }

    def in_process(self, cli_main, argv: list) -> None:
        """Run one CLI stage in this process (traced runs) and check its output."""
        self.attempted += 1
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            code = cli_main(argv)
        if code != 0:
            raise self._fail(argv, f"exit code {code}")
        try:
            _check_output(argv)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise self._fail(argv, f"bad output: {exc!r}") from None


def _dirs(work: Path, out: str) -> dict:
    return {
        "corpus": str(work / "inputs" / "corpus"),
        "long": str(work / "inputs" / "long"),
        "thresholds": str(work / "inputs" / "thresholds.json"),
        "out": str(work / out),
    }


def _write_thresholds(dirs) -> None:
    with open(dirs["thresholds"], "w") as handle:
        json.dump(FIXED_THRESHOLDS, handle, indent=2, sort_keys=True)


def set_up(bench: Bench, workload: Workload, dirs: dict, run_stage) -> float:
    """Make the inputs from scratch; return the seconds it took, less steal."""
    shutil.rmtree(bench.work / "inputs", ignore_errors=True)
    (bench.work / "inputs").mkdir(parents=True)
    ticks = cpu_ticks()
    start = time.perf_counter()
    for argv in workload.setup:
        run_stage("synth", _fill(argv, dirs))
    if workload.fixed_thresholds:
        _write_thresholds(dirs)
    return unstolen(time.perf_counter() - start, ticks, cpu_ticks())


def run_pass(bench: Bench, workload: Workload, dirs: dict) -> list:
    Path(dirs["out"]).mkdir(parents=True)
    return [bench.stage(stage, _fill(argv, dirs)) for stage, argv in workload.stages]


def detect_xrt(records: list) -> float:
    """Seconds of audio detected per second of detect-process time."""
    detects = [r for r in records if r["stage"] == "detect"]
    audio = sum(_wav_seconds(r["argv"][1]) for r in detects)
    return audio / sum(r["wall_s"] for r in detects)


def pass_metrics(records: list, scored: str) -> dict:
    scores = _read_scores(_flag(records[-1]["argv"], "--csv"), scored)
    return {
        "wall_s": sum(r["wall_s"] for r in records),
        "train_s": sum(r["wall_s"] for r in records if r["stage"] == "train"),
        "peak_rss_mb": max(r["rss_mb"] for r in records),
        **scores,
    }


END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "train_s": "s",
    "peak_rss_mb": "MB",
    "test_seg_er": "ratio",
    "test_seg_f1": "ratio",
    "test_event_f1": "ratio",
}


def _reference(name: str) -> dict | None:
    if not BASELINE.exists():
        return None
    return json.loads(BASELINE.read_text())["workloads"].get(name, {}).get("outputs")


def timed_run(bench: Bench, name: str, seconds: float) -> tuple:
    workload = WORKLOADS[name]
    dirs = _dirs(bench.work, "pass0")
    setups = [
        set_up(bench, workload, dirs, bench.stage)
        for _ in range(workload.setup_repeats)
    ]
    passes, hashes = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        dirs = _dirs(bench.work, f"pass{len(passes)}")
        records = run_pass(bench, workload, dirs)
        passes.append(pass_metrics(records, workload.scored))
        hashes.append(_hashes(Path(dirs["out"])))
        for r in records:
            print(f"pass {len(passes) - 1} {r['stage']}: wall {r['wall_s']:.3f} s "
                  f"({r['raw_wall_s']:.3f} s with steal), cpu {r['cpu_s']:.3f} s, "
                  f"peak rss {r['rss_mb']:.0f} MB")
    metrics = {"setup_s": statistics.median(setups)}
    for key in passes[0]:
        metrics[key] = statistics.median(p[key] for p in passes)
    print(f"passes: {len(passes)}, set-ups: {len(setups)}")
    return metrics, hashes


def _clip(events, lo: float, hi: float) -> list:
    from eventforest.dataset import EventAnnotation

    return [
        EventAnnotation(max(e.onset, lo) - lo, min(e.offset, hi) - lo, e.label)
        for e in events
        if min(e.offset, hi) > max(e.onset, lo)
    ]


def _head_tail_error(reference_path: Path, hypothesis_path: Path, scored: str) -> tuple:
    """Segment error rate on the first and on the last third of the recording."""
    from eventforest.dataset import parse_annotations
    from eventforest.evaluate import per_class_segment_metrics

    duration = _wav_seconds(reference_path.with_suffix(".wav"))
    reference = parse_annotations(reference_path)
    hypothesis = parse_annotations(hypothesis_path)
    if scored != "overall":
        reference = [e for e in reference if e.label == scored]
        hypothesis = [e for e in hypothesis if e.label == scored]
    rates = []
    for lo, hi in ((0.0, duration / 3), (2 * duration / 3, duration)):
        report = per_class_segment_metrics(
            _clip(reference, lo, hi), _clip(hypothesis, lo, hi), 1.0, hi - lo
        )
        rates.append(report["overall"].error_rate or 0.0)
    return tuple(rates)


def _forest_structure(models_dir: Path) -> dict:
    nodes = leaves = gaussian = depth = size = 0
    for path in sorted(models_dir.glob("model_*.json")):
        size += path.stat().st_size
        for tree in json.loads(path.read_text())["trees"]:
            pending = [1]  # depths of the nodes still to come, in pre-order
            for node in tree:
                level = pending.pop()
                depth = max(depth, level)
                nodes += 1
                if node["kind"] == "split":
                    pending += [level + 1, level + 1]
                else:
                    leaves += 1
                    gaussian += node["onset"] is not None
    return {"nodes": nodes, "leaves": leaves, "gaussian_leaves": gaussian,
            "max_depth": depth, "model_bytes": size}


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        **PINNED_THREADS,
    }


def traced_run(bench: Bench, name: str) -> tuple:
    workload = WORKLOADS[name]
    # The untraced pass runs first, while this process is small: a child's
    # peak RSS counts the pages it shared with this process before exec.
    dirs = _dirs(bench.work, "untraced")
    set_up(bench, workload, dirs, bench.stage)
    untraced = run_pass(bench, workload, dirs)

    start = time.perf_counter()
    import eventforest.cli as cli

    import_s = time.perf_counter() - start
    from tracing import Tracer

    traced_dirs = _dirs(bench.work, "traced")
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("setup"):
            set_up(bench, workload, traced_dirs,
                   lambda stage, argv: bench.in_process(cli.main, argv))
        Path(traced_dirs["out"]).mkdir(parents=True)
        for stage, argv in workload.stages:
            with tracer.span(f"cli.{stage}"):
                bench.in_process(cli.main, _fill(argv, traced_dirs))
    finally:
        tracer.uninstall()

    totals = tracer.totals()

    def total(span, key):
        return totals.get(span, {}).get(key, 0)

    def rate(numerator, seconds):
        return numerator / seconds if seconds else 0.0

    m = {}

    def add(span, keys):
        for key in keys:
            m[f"{span}.{key}"] = (total(span, key), "s" if key == "s" else "count")

    def add_rate(name, span, work, unit="1/s"):
        m[name] = (rate(total(span, work), total(span, "s")), unit)

    add("features.gammatone_cepstra", ("calls", "s"))
    add_rate("features.gammatone_cepstra.audio_x", "features.gammatone_cepstra",
             "audio_s", "s/s")
    add("features.load_audio", ("s",))
    add("features.resample", ("s",))
    add("dataset.synth_benchmark", ("s",))
    add("dataset.build_training_segments", ("s", "segments", "positives"))
    add("forest.select_best_test", ("calls", "s", "cells"))
    add_rate("forest.select_best_test.cells_per_s", "forest.select_best_test", "cells")
    for span in ("train_forest", "calibrate", "load_forest", "save_forest"):
        add(f"forest.{span}", ("s",))
    structure = _forest_structure(Path(traced_dirs["out"]) / "models")
    for key, value in structure.items():
        m[f"forest.{key}"] = (value, "B" if key == "model_bytes" else "count")

    add("detect.collect_votes", ("calls", "s", "rows_trees"))
    add_rate("detect.collect_votes.rows_trees_per_s", "detect.collect_votes", "rows_trees")
    m["detect.votes"] = (total("detect.collect_votes", "votes"), "count")
    add("detect.render_tracks", ("calls", "s", "votes_rendered"))
    add_rate("detect.render_tracks.votes_per_s", "detect.render_tracks", "votes_rendered")
    add("detect.extract_events", ("calls", "s", "peaks", "paired"))
    add("detect.smooth", ("s",))
    detections = total("detect.detect_on_features", "detections")
    paired_in_detect = sum(
        span[5].get("paired", 0)
        for i, span in enumerate(tracer.spans)
        if span[0] == "detect.extract_events"
        and tracer.has_ancestor(i, "detect.detect_on_features")
    )
    m["detect.detections"] = (detections, "count")
    m["detect.kept_ratio"] = (
        detections / paired_in_detect if paired_in_detect else 0.0, "ratio")

    add("evaluate.tune_thresholds", ("s", "grid_points"))
    add("evaluate.segment_metrics", ("calls", "s"))
    add("evaluate.event_metrics", ("s",))
    evaluate_argv = _fill(workload.stages[-1][1], traced_dirs)
    head, tail = _head_tail_error(
        Path(evaluate_argv[1]), Path(evaluate_argv[2]), workload.scored)
    m["evaluate.seg_er_head"] = (head, "ratio")
    m["evaluate.seg_er_tail"] = (tail, "ratio")

    for stage in STAGES:
        runs = [r for r in untraced if r["stage"] == stage]
        spans = [i for i, s in enumerate(tracer.spans) if s[0] == f"cli.{stage}"]
        traced_s = sum(tracer.spans[i][2] - tracer.spans[i][1] for i in spans)
        m[f"cli.{stage}.wall_s"] = (sum(r["wall_s"] for r in runs), "s")
        m[f"cli.{stage}.cpu_s"] = (sum(r["cpu_s"] for r in runs), "s")
        m[f"cli.{stage}.peak_rss_mb"] = (max((r["rss_mb"] for r in runs), default=0.0), "MB")
        m[f"cli.{stage}.self_s"] = (sum(tracer.self_seconds(i) for i in spans), "s")
        m[f"trace.{stage}.overhead_s"] = (
            traced_s - sum(r["main_s"] for r in runs), "s")
    # Per layer, not end to end: single-threaded detect swings most with the
    # shared machine's speed, past the end-to-end bound over ten runs.
    m["cli.detect.xrt"] = (detect_xrt(untraced), "s/s")
    m["cli.import_s"] = (import_s, "s")
    m["src.lines"] = (
        sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")), "count")

    hashes = [_hashes(Path(dirs["out"])), _hashes(Path(traced_dirs["out"]))]
    print(f"environment: {json.dumps(environment(), sort_keys=True)}")
    print(f"spans: {len(tracer.spans)}")
    return m, hashes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "eventforest" / "cli.py").is_file():
        print(f"error: no eventforest sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_THREADS)  # before this process imports numpy
    sys.path.insert(0, str(SRC))

    bench = Bench(WORK / f"{args.workload}-{os.getpid()}")
    shutil.rmtree(bench.work, ignore_errors=True)
    print(f"workload {args.workload}, seed {args.seed} (inputs do not depend on it)")
    try:
        if args.trace:
            measured, hashes = traced_run(bench, args.workload)
        else:
            values, hashes = timed_run(bench, args.workload, args.seconds)
            measured = {k: (values[k], u) for k, u in END_TO_END_UNITS.items()}
    except StageFailed as exc:
        print(f"error: stage failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": bench.attempted,
                          "failed": max(bench.failed, 1), "metrics": {}}))
        return 1

    reference = _reference(args.workload)
    consistent = all(h == hashes[0] for h in hashes)
    outputs_match = reference is not None and hashes[0] == reference
    print(f"outputs_consistent: {consistent}")
    print(f"outputs_match: {outputs_match}")
    if not outputs_match:
        for key, digest in sorted(hashes[0].items()):
            print(f"  {key} {digest}")
    if args.trace:
        measured["check.outputs_match"] = (int(outputs_match), "bool")
        detected = measured["detect.detections"][0] > 0
    else:
        detected = measured["test_seg_f1"][0] > 0
    correct = consistent and detected and bench.failed == 0
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in measured.items()},
    }
    shutil.rmtree(bench.work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
