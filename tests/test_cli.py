"""End-to-end tests of the command line interface, run in process."""

import csv
import filecmp
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eventforest
from eventforest import features as features_module
from eventforest.cli import main
from eventforest.dataset import parse_annotations
from eventforest.evaluate import (
    default_alpha_grid,
    default_beta_grid,
    load_thresholds,
    per_class_event_metrics,
    per_class_segment_metrics,
)
from eventforest.forest import load_forest

SYNTH_ARGS = [
    "--classes", "2",
    "--instances", "4",
    "--events", "8",
    "--scene-len", "6",
    "--seed", "3",
]

TRAIN_ARGS = [
    "--trees", "3",
    "--tests-per-node", "150",
    "--max-depth", "8",
    "--min-leaf", "10",
    "--steer-depth", "6",
    "--threads", "2",
    "--seed", "5",
]


@pytest.fixture(scope="session")
def corpus(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("corpus")
    assert main(["synth", str(outdir)] + SYNTH_ARGS) == 0
    return outdir


@pytest.fixture(scope="session")
def models(tmp_path_factory, corpus):
    outdir = tmp_path_factory.mktemp("models")
    code = main(
        ["train", str(corpus / "manifest.json"), "--out-dir", str(outdir)]
        + TRAIN_ARGS
    )
    assert code == 0
    paths = sorted(outdir.glob("model_*.json"))
    assert len(paths) == 2
    return paths


@pytest.fixture(scope="session")
def thresholds(tmp_path_factory, corpus, models):
    out = tmp_path_factory.mktemp("tuned") / "thresholds.json"
    code = main(
        ["tune", str(corpus / "manifest.json")]
        + [str(p) for p in models]
        + ["--out", str(out)]
    )
    assert code == 0
    return out


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


class TestSynth:
    def test_corpus_layout(self, corpus):
        manifest = json.loads((corpus / "manifest.json").read_text())
        assert len(manifest["classes"]) == 2
        assert isinstance(manifest["sample_rate"], int)
        folds = {e["fold"] for e in manifest["entries"]}
        assert folds == {"train", "dev", "test"}
        for entry in manifest["entries"]:
            assert (corpus / entry["audio"]).is_file()
            assert (corpus / entry["annotations"]).is_file()
        train_entries = [e for e in manifest["entries"] if e["fold"] == "train"]
        assert len(train_entries) == 8  # 2 classes x 4 instances

    def test_scene_annotations_parse(self, corpus):
        manifest = json.loads((corpus / "manifest.json").read_text())
        for name in ("dev", "test"):
            events = parse_annotations(corpus / f"{name}.txt")
            assert len(events) == 8
            labels = {e.label for e in events}
            assert labels <= set(manifest["classes"])

    def test_same_seed_reproduces_corpus(self, corpus, tmp_path):
        other = tmp_path / "again"
        assert main(["synth", str(other)] + SYNTH_ARGS) == 0
        for name in ("manifest.json", "dev.wav", "test.wav", "dev.txt"):
            assert filecmp.cmp(corpus / name, other / name, shallow=False)

    def test_different_seed_differs(self, corpus, tmp_path):
        other = tmp_path / "other"
        args = [a if a != "3" else "4" for a in SYNTH_ARGS]
        assert main(["synth", str(other)] + args) == 0
        assert not filecmp.cmp(corpus / "dev.wav", other / "dev.wav",
                               shallow=False)


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


class TestTrain:
    def test_models_load_and_match_settings(self, models, corpus):
        manifest = json.loads((corpus / "manifest.json").read_text())
        labels = set()
        for path in models:
            forest = load_forest(path)
            labels.add(forest.class_label)
            assert forest.n_trees == 3
            assert forest.config.max_depth == 8
            assert forest.z_plus > 0 and forest.z_minus > 0
        assert labels == set(manifest["classes"])

    def test_same_seed_byte_identical(self, corpus, models, tmp_path):
        outdir = tmp_path / "repeat"
        code = main(
            ["train", str(corpus / "manifest.json"), "--out-dir", str(outdir)]
            + TRAIN_ARGS
        )
        assert code == 0
        for path in models:
            assert filecmp.cmp(path, outdir / path.name, shallow=False)

    def test_single_class_flag(self, corpus, models, tmp_path):
        outdir = tmp_path / "single"
        label = load_forest(models[0]).class_label
        code = main(
            ["train", str(corpus / "manifest.json"), "--out-dir", str(outdir),
             "--event-class", label] + TRAIN_ARGS
        )
        assert code == 0
        written = list(outdir.glob("model_*.json"))
        assert [p.name for p in written] == [f"model_{label}.json"]
        assert filecmp.cmp(models[0], written[0], shallow=False)

    def test_unknown_class_errors(self, corpus, capsys):
        code = main(
            ["train", str(corpus / "manifest.json"),
             "--event-class", "unicorn"] + TRAIN_ARGS
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "unicorn" in err

    def test_print_config(self, capsys):
        code = main(["train", "ignored.json", "--print-config", "--trees", "7"])
        assert code == 0
        merged = json.loads(capsys.readouterr().out)
        assert merged["trees"] == 7
        assert merged["max_depth"] == 12
        assert merged["tests_per_node"] == 20000

    def test_config_file_merging(self, tmp_path, capsys):
        config = tmp_path / "train.json"
        config.write_text(json.dumps({"trees": 2, "min_leaf": 15}))
        code = main(
            ["train", "ignored.json", "--config", str(config),
             "--print-config", "--trees", "4"]
        )
        assert code == 0
        merged = json.loads(capsys.readouterr().out)
        assert merged["trees"] == 4  # flag beats file
        assert merged["min_leaf"] == 15  # file beats default
        assert merged["max_depth"] == 12  # default survives

    def test_config_unknown_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"bogus": 1}))
        code = main(
            ["train", "ignored.json", "--config", str(config), "--print-config"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "unknown keys" in err and "bogus" in err

    def test_missing_manifest_errors(self, tmp_path, capsys):
        code = main(["train", str(tmp_path / "absent.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# tune
# ---------------------------------------------------------------------------


class TestTune:
    def test_thresholds_on_grid(self, thresholds, corpus):
        manifest = json.loads((corpus / "manifest.json").read_text())
        tuned = load_thresholds(thresholds).per_class
        assert set(tuned) == set(manifest["classes"])
        for choice in tuned.values():
            assert choice.alpha in default_alpha_grid()
            assert choice.beta in default_beta_grid()
            assert choice.error_rate is not None

    def test_deterministic(self, thresholds, corpus, models, tmp_path):
        out = tmp_path / "thresholds.json"
        code = main(
            ["tune", str(corpus / "manifest.json")]
            + [str(p) for p in models]
            + ["--out", str(out)]
        )
        assert code == 0
        assert filecmp.cmp(thresholds, out, shallow=False)

    def test_requires_dev_entries(self, corpus, models, tmp_path, capsys):
        manifest = json.loads((corpus / "manifest.json").read_text())
        manifest["entries"] = [
            e for e in manifest["entries"] if e["fold"] in ("train", "test")
        ]
        stripped = corpus / "manifest_nodev.json"
        stripped.write_text(json.dumps(manifest))
        code = main(
            ["tune", str(stripped)] + [str(p) for p in models]
            + ["--out", str(tmp_path / "t.json")]
        )
        assert code == 1
        assert "development" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# detect
# ---------------------------------------------------------------------------


def model_args(models):
    out = []
    for p in models:
        out += ["--model", str(p)]
    return out


class TestDetect:
    def test_stdout_sorted_and_labeled(self, corpus, models, thresholds,
                                       capsys):
        code = main(
            ["detect", str(corpus / "test.wav")]
            + model_args(models)
            + ["--thresholds", str(thresholds)]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines
        manifest = json.loads((corpus / "manifest.json").read_text())
        onsets = []
        for line in lines:
            onset, offset, label = line.split("\t")
            assert float(onset) < float(offset)
            assert label in manifest["classes"]
            onsets.append(float(onset))
        assert onsets == sorted(onsets)

    def test_out_file_matches_stdout(self, corpus, models, thresholds,
                                     tmp_path, capsys):
        out = tmp_path / "detections.txt"
        code = main(
            ["detect", str(corpus / "test.wav")]
            + model_args(models)
            + ["--thresholds", str(thresholds), "--out", str(out)]
        )
        assert code == 0
        assert "detections ->" in capsys.readouterr().out
        code = main(
            ["detect", str(corpus / "test.wav")]
            + model_args(models)
            + ["--thresholds", str(thresholds)]
        )
        assert code == 0
        assert out.read_text() == capsys.readouterr().out

    def test_beta_above_scores_empty(self, corpus, models, tmp_path):
        out = tmp_path / "none.txt"
        code = main(
            ["detect", str(corpus / "test.wav")]
            + model_args(models)
            + ["--beta", "2.0", "--out", str(out)]
        )
        assert code == 0
        assert out.read_text() == ""

    def test_dump_scores_and_features(self, corpus, models, tmp_path):
        scores = tmp_path / "scores"
        feats = tmp_path / "features.csv"
        code = main(
            ["detect", str(corpus / "dev.wav")]
            + model_args(models)
            + ["--beta", "2.0", "--out", str(tmp_path / "d.txt"),
               "--dump-scores", str(scores), "--dump-features", str(feats)]
        )
        assert code == 0
        score_files = sorted(scores.glob("scores_*.csv"))
        assert len(score_files) == 2
        with open(score_files[0]) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["segment", "f_plus", "f_minus"]
        assert all(0.0 <= float(r[1]) for r in rows[1:])
        with open(feats) as handle:
            header = handle.readline().strip().split(",")
        assert header[0] == "time"
        assert len(header) == 1 + 64

    def test_explicit_beta_overrides_thresholds(self, corpus, models,
                                                thresholds, tmp_path):
        tuned_out = tmp_path / "tuned.txt"
        override_out = tmp_path / "override.txt"
        base = (
            ["detect", str(corpus / "test.wav")]
            + model_args(models)
            + ["--thresholds", str(thresholds)]
        )
        assert main(base + ["--out", str(tuned_out)]) == 0
        assert main(base + ["--beta", "2.0", "--out", str(override_out)]) == 0
        assert override_out.read_text() == ""
        assert tuned_out.read_text() != ""

    def test_disabled_class_stays_silent_above_ignorance_beta(
        self, corpus, models, tmp_path
    ):
        # Shrinking z scales every score up, so the smoothed tracks of this
        # class pass 1.01 on the test stream.
        payload = json.loads(models[0].read_text())
        payload["z_plus"] = payload["z_plus"] / 1000.0
        payload["z_minus"] = payload["z_minus"] / 1000.0
        loud = tmp_path / "loud.json"
        loud.write_text(json.dumps(payload))
        label = payload["class_label"]
        base = ["detect", str(corpus / "test.wav"), "--model", str(loud)]
        fired = tmp_path / "fired.txt"
        assert main(base + ["--beta", "1.01", "--out", str(fired)]) == 0
        assert fired.read_text() != ""

        disabled = tmp_path / "disabled.json"
        disabled.write_text(json.dumps(
            {label: {"alpha": 0.0, "beta": 1.01, "error_rate": 1.0}}
        ))
        for extra in ([], ["--beta", "0.0", "--smooth-window", "1"]):
            out = tmp_path / "silent.txt"
            code = main(base + ["--thresholds", str(disabled), "--out",
                                str(out)] + extra)
            assert code == 0
            assert out.read_text() == ""

    def test_mismatched_models_rejected(self, models, corpus, tmp_path,
                                        capsys):
        payload = json.loads(models[0].read_text())
        payload["feature_fingerprint"]["sample_rate"] = 32000
        altered = tmp_path / "alien.json"
        altered.write_text(json.dumps(payload))
        code = main(
            ["detect", str(corpus / "test.wav"),
             "--model", str(models[1]), "--model", str(altered)]
        )
        assert code == 1
        assert "feature space" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


class TestEvaluate:
    def test_reference_against_itself(self, corpus, capsys):
        code = main(
            ["evaluate", str(corpus / "test.txt"), str(corpus / "test.txt")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "segment metrics" in out
        assert "event metrics" in out
        overall = [l for l in out.splitlines() if l.startswith("overall")]
        assert len(overall) == 2
        for line in overall:
            assert "0.000" in line and "100.0%" in line

    def test_mode_segment_only(self, corpus, capsys):
        code = main(
            ["evaluate", str(corpus / "test.txt"), str(corpus / "test.txt"),
             "--mode", "segment"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "segment metrics" in out
        assert "event metrics" not in out

    def test_csv_matches_library_scores(self, corpus, tmp_path, capsys):
        csv_path = tmp_path / "scores.csv"
        code = main(
            ["evaluate", str(corpus / "test.txt"), str(corpus / "dev.txt"),
             "--csv", str(csv_path)]
        )
        assert code == 0
        capsys.readouterr()
        reference = parse_annotations(corpus / "test.txt")
        hypothesis = parse_annotations(corpus / "dev.txt")
        expected = {
            "segment": per_class_segment_metrics(reference, hypothesis),
            "event": per_class_event_metrics(reference, hypothesis),
        }
        with open(csv_path) as handle:
            rows = list(csv.DictReader(handle))
        assert {r["mode"] for r in rows} == {"segment", "event"}
        for row in rows:
            score = expected[row["mode"]][row["class"]]
            assert int(row["n_ref"]) == score.n_ref
            assert int(row["substitutions"]) == score.substitutions
            assert int(row["deletions"]) == score.deletions
            assert int(row["insertions"]) == score.insertions
            assert float(row["f1"]) == score.f1
            if row["error_rate"]:
                assert float(row["error_rate"]) == score.error_rate
            else:
                assert score.error_rate is None

    def test_missing_file_errors(self, tmp_path, capsys):
        code = main(
            ["evaluate", str(tmp_path / "no.txt"), str(tmp_path / "no2.txt")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# malformed inputs
# ---------------------------------------------------------------------------


def first_node(payload, kind, gaussian=False):
    return next(
        node for node in payload["trees"][0]
        if node["kind"] == kind and (not gaussian or node["onset"] is not None)
    )


# name -> (corruption of a valid model payload, fragment of the error line)
MALFORMED_MODELS = {
    "missing_z_plus": (lambda p: p.pop("z_plus"), "missing key 'z_plus'"),
    "missing_split_r": (lambda p: first_node(p, "split").pop("r"), "missing key 'r'"),
    "unknown_kind": (
        lambda p: first_node(p, "split").update(kind="stump"),
        "tree 0, node 0: unknown node kind 'stump'",
    ),
    "truncated_tree": (lambda p: p["trees"][0].pop(), "tree 0, tree is truncated"),
    "trailing_node": (
        lambda p: p["trees"][0].append(dict(p["trees"][0][-1])),
        "tree 0, trailing nodes from node",
    ),
    "r_out_of_range": (lambda p: first_node(p, "split").update(r=999), "r 999 outside"),
    "q_negative": (lambda p: first_node(p, "split").update(q=-1), "q -1 outside"),
    "p_pos_above_one": (
        lambda p: first_node(p, "leaf").update(p_pos=1.5), "p_pos 1.5 outside"
    ),
    "zero_variance": (
        lambda p: first_node(p, "leaf", gaussian=True)["onset"].__setitem__(1, 0.0),
        "onset variance 0.0 is not positive",
    ),
    "infinite_variance": (
        lambda p: first_node(p, "leaf", gaussian=True)["offset"].__setitem__(
            1, float("inf")
        ),
        "non-finite offset variance",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MODELS))
def test_malformed_model_rejected_at_load(case, corpus, models, tmp_path,
                                          capsys, monkeypatch):
    corrupt, fragment = MALFORMED_MODELS[case]
    payload = json.loads(models[0].read_text())
    corrupt(payload)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))

    def no_features(*args, **kwargs):
        raise AssertionError("features extracted before the model was checked")

    monkeypatch.setattr(features_module, "gammatone_cepstra", no_features)
    code = main(["detect", str(corpus / "test.wav"), "--model", str(bad)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert fragment in err


@pytest.mark.parametrize("entry", [{"beta": 0.1}, {"alpha": "0.5", "beta": 0.1}, 5])
def test_thresholds_entry_without_alpha_rejected(entry, corpus, models, tmp_path,
                                                 capsys):
    label = json.loads(models[0].read_text())["class_label"]
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({label: entry}))
    code = main(["detect", str(corpus / "test.wav"), "--model", str(models[0]),
                 "--thresholds", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "partial.json" in err and "'alpha'" in err


def drop_dev_key(key):
    def corrupt(manifest):
        del next(e for e in manifest["entries"] if e["fold"] == "dev")[key]

    return corrupt


# name -> (corruption of a valid manifest, fragment of the error line)
MALFORMED_MANIFESTS = {
    "no_audio": (drop_dev_key("audio"), "has no 'audio'"),
    "no_annotations": (drop_dev_key("annotations"), "has no 'annotations'"),
    "entries_not_a_list": (lambda m: m.update(entries=5), "has no entries"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MANIFESTS))
def test_malformed_manifest_rejected(case, corpus, models, tmp_path, capsys):
    corrupt, fragment = MALFORMED_MANIFESTS[case]
    manifest = json.loads((corpus / "manifest.json").read_text())
    corrupt(manifest)
    path = corpus / f"manifest_{case}.json"
    path.write_text(json.dumps(manifest))
    code = main(["tune", str(path)] + [str(p) for p in models]
                + ["--out", str(tmp_path / "t.json")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and path.name in err and fragment in err


def test_cli_import_leaves_scipy_signal_unloaded():
    src = str(Path(eventforest.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    code = "import sys, eventforest.cli; print('scipy.signal' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    assert result.stdout.strip() == "False"
