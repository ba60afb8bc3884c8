"""End-to-end tests of the command line interface, run in process."""

import concurrent.futures
import contextlib
import csv
import filecmp
import hashlib
import importlib.util
import io
import json
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import eventforest
from conftest import byte_platform, oracle_event_free_rows, score_matrix
from eventforest import cli as cli_module
from eventforest import dataset as dataset_module
from eventforest import detect as detect_module
from eventforest import features as features_module
from eventforest import forest as forest_module
from eventforest.cli import DETECT_DEFAULTS, main
from eventforest.dataset import (
    EventAnnotation,
    event_free_rows,
    parse_annotations,
    write_annotations,
)
from eventforest.detect import (
    DetectConfig,
    ScoreTrack,
    detect_on_features,
    detect_stream,
    forest_events,
    normalize,
)
from eventforest.evaluate import (
    default_alpha_grid,
    default_beta_grid,
    load_thresholds,
    per_class_event_metrics,
    per_class_segment_metrics,
)
from eventforest.features import (
    FeatureConfig,
    FeatureMatrix,
    Waveform,
    featurize,
    gammatone_cepstra,
    load_audio,
    save_audio,
    stream_features,
)
from eventforest.forest import load_forest, shared_feature_config

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

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


# sha256 of every file `synth` writes with SYNTH_ARGS. Speeding up scene
# composition or the WAV writer must leave every byte as it is.
SYNTH_DIGESTS = {
    "dev.txt": "b548bf6efc72ca71a600dce69b57264fde1ed0e503e7b1956cc642fa49050290",
    "dev.wav": "2bfeafe4111827503693dbdc8cbb6ad26f5e3d7bcd2bd230af1451150227a143",
    "manifest.json": "0f4d74a2a091d351c56119d5b12690f756b9647a4b002249f030bd31be17a1d2",
    "test.txt": "5c1932facb0403aee57eccbc7919a97d0fc613f1ccb858d0bbc9f676d72c6061",
    "test.wav": "c21b0e4973479f818ae6dc4acdaf2b1db6b3eea5bccb0cee62f21af4a93a7692",
    "train/tone300_i00.txt": "bb6e5c646e0604cbbc092161db03a22659d410fb0b85c680ced431b07406f7be",
    "train/tone300_i00.wav": "fe334ad54a508d806eed4fc42a159ad7153301518bf13ae028358fafd001d265",
    "train/tone300_i01.txt": "3f8e10566d8298d8d08829588c2d60c6a6fb48ba2f628b42ae6f98531945bcd1",
    "train/tone300_i01.wav": "58571b10144ede03f4b82f7c1d93c490f44e3d2fb091ee23949cd7f3e726c2c8",
    "train/tone300_i02.txt": "a492ad7ba2bfe0d876436cbe67d0c203de09624cbf2b5687510a72696ecdaf9d",
    "train/tone300_i02.wav": "fd631ecb2ef0b24122840c02152b4751de91839763fa5c47aea173542a410b75",
    "train/tone300_i03.txt": "d96bdd1960622231a453f9444d6116b35497e49faad1cc30ec277bdd7bb8ff88",
    "train/tone300_i03.wav": "a942ec5b6e3b912d2d42a902c5f42a4db7518bde2b7ed1e322ba35389e825fa5",
    "train/tone600_i00.txt": "6cc59bbd54e30213925e46910a11d44358a2b3afaadc529c24cc9e8d9cfb0287",
    "train/tone600_i00.wav": "bc3c3b511c1bf74d54d3abcece3df2277a1f1e55853a9a22208e17bd5707282c",
    "train/tone600_i01.txt": "7f433d268bd5f7e4e2e5a74c519944cc046d62c8eadfc14e6da53294b3895d95",
    "train/tone600_i01.wav": "874b895a3ef0ea0ced0999e480cd9426363e8933d7be1fa96dd7d18912c50990",
    "train/tone600_i02.txt": "096fe5be8421e247db80ce602179fda8342b1007d5cacd25cbbc3a862f33c394",
    "train/tone600_i02.wav": "a0df6ddfe2b59fe10f0281b2bca203a672f5a4b817cbe9332c4eb9e6ad9f8e6c",
    "train/tone600_i03.txt": "4640d8cfe1797430afbc8fa9094577842da7faefd5eb043087ce4cd7a2c20cf4",
    "train/tone600_i03.wav": "d7ff5e979963272a9beeea640bab35dfe3f52a44a540a96a68463973033e85c0",
}


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
def corpus3(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("corpus3")
    assert main(["synth", str(outdir)] + SYNTH_ARGS + ["--classes", "3"]) == 0
    return outdir


def edited_manifest(corpus, directory, edit):
    """A copy of the corpus manifest in ``directory``, with absolute paths,
    after ``edit(entries)`` changed its entries in place."""
    manifest = json.loads((corpus / "manifest.json").read_text())
    for entry in manifest["entries"]:
        for key in ("audio", "annotations"):
            entry[key] = str(corpus / entry[key])
    edit(manifest["entries"])
    path = directory / "manifest.json"
    path.write_text(json.dumps(manifest))
    return path


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

    def test_corpus_bytes_pinned(self, corpus):
        manifest = json.loads((corpus / "manifest.json").read_text())
        names = ["manifest.json"] + [
            e[key] for e in manifest["entries"] for key in ("audio", "annotations")
        ]
        digests = {
            name: hashlib.sha256((corpus / name).read_bytes()).hexdigest()
            for name in names
        }
        assert digests == SYNTH_DIGESTS

    @pytest.mark.parametrize("flag, value, quantity", [
        ("--scene-len", "inf", "scene length"),
        ("--scene-len", "nan", "scene length"),
        ("--snr", "inf", "SNR"),
        ("--snr", "-inf", "SNR"),
        ("--events", "-3", "events per scene"),
    ])
    def test_bad_size_rejected(self, flag, value, quantity, tmp_path, capsys):
        out = tmp_path / "corpus"
        code = main(["synth", str(out), f"{flag}={value}"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {quantity} ") and err.count("\n") == 1
        assert not out.exists()

    def test_overflowing_snr_rejected(self, tmp_path, capsys):
        # finite, but 10 ** (snr / 20) overflows a float
        out = tmp_path / "corpus"
        code = main(["synth", str(out), "--snr", "1e308"] + SYNTH_ARGS)
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: cannot scale an event to an SNR of 1e+308 dB\n"
        assert not (out / "manifest.json").exists()

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

    def test_print_config_defaults_pinned(self, capsys):
        assert main(["train", "ignored.json", "--print-config"]) == 0
        assert capsys.readouterr().out == (
            '{\n'
            '  "event_class": null,\n'
            '  "max_depth": 12,\n'
            '  "min_leaf": 20,\n'
            '  "noise_subtraction": false,\n'
            '  "seed": 0,\n'
            '  "snr_levels": null,\n'
            '  "steer_depth": 9,\n'
            '  "subsample": 0.5,\n'
            '  "tests_per_node": 20000,\n'
            '  "threads": 1,\n'
            '  "trees": 10\n'
            '}\n'
        )

    def test_negative_snr_levels_need_the_equals_form(self, capsys):
        assert main(["train", "ignored.json", "--print-config",
                     "--snr-levels=-6,0"]) == 0
        assert '"snr_levels": "-6,0"' in capsys.readouterr().out

    @pytest.mark.parametrize("flags, snr_db, levels", [
        (["--snr-levels=-6,0"], 0.0, (-6.0, 0.0)),
        ([], 0.0, (0.0,)),
        ([], None, (-6.0, 0.0, 6.0)),
    ])
    def test_mixture_snr_levels(self, flags, snr_db, levels, corpus, tmp_path,
                                capsys, monkeypatch):
        # flags first, then the manifest's snr_db, then MixtureSpec's default
        manifest = json.loads((corpus / "manifest.json").read_text())
        manifest["snr_db"] = snr_db
        path = corpus / f"manifest_snr_{snr_db}.json"
        path.write_text(json.dumps(manifest))
        mixtures = []
        build = cli_module.build_training_segments

        def recording(label, instances, feature_config, mixture, **kwargs):
            mixtures.append(mixture)
            return build(label, instances, feature_config, mixture, **kwargs)

        monkeypatch.setattr(cli_module, "build_training_segments", recording)
        code = main(["train", str(path), "--out-dir", str(tmp_path),
                     "--event-class", "tone300", "--trees", "1",
                     "--tests-per-node", "20"] + flags)
        capsys.readouterr()
        assert code == 0
        assert [m.snr_levels for m in mixtures] == [levels]

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

    @pytest.mark.parametrize("key, value, expected", [
        ("trees", "3", "an integer"),
        ("trees", 3.0, "an integer"),
        ("threads", True, "an integer"),
        ("subsample", "0.5", "a finite number"),
        ("noise_subtraction", "yes", "true or false"),
        ("snr_levels", [0, "6"], "a list of numbers, a string or null"),
        ("event_class", ["tone300"], "a string or null"),
    ])
    def test_config_value_types_checked(self, key, value, expected, tmp_path,
                                        capsys):
        config = tmp_path / "typed.json"
        config.write_text(json.dumps({key: value}))
        code = main(["train", "ignored.json", "--config", str(config)])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: {config}: key {key!r} must be {expected}\n"

    def test_config_accepts_each_default_type(self, tmp_path, capsys):
        config = tmp_path / "typed.json"
        config.write_text(json.dumps({
            "subsample": 1, "noise_subtraction": True, "snr_levels": [-6, 0.5],
            "event_class": "tone300", "seed": 7,
        }))
        code = main(
            ["train", "ignored.json", "--config", str(config), "--print-config"]
        )
        assert code == 0
        merged = json.loads(capsys.readouterr().out)
        assert merged["subsample"] == 1 and merged["snr_levels"] == [-6, 0.5]

    def test_config_must_be_an_object(self, tmp_path, capsys):
        config = tmp_path / "list.json"
        config.write_text("[1, 2]")
        code = main(["train", "ignored.json", "--config", str(config)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {config}: config is not a JSON object\n"
        )

    def test_missing_manifest_errors(self, tmp_path, capsys):
        code = main(["train", str(tmp_path / "absent.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("threads, source", [
        (0, "flag"), (-2, "flag"), (0, "config"),
    ])
    def test_threads_below_one_rejected(self, threads, source, corpus, tmp_path,
                                        capsys):
        argv = ["train", str(corpus / "manifest.json"), "--out-dir",
                str(tmp_path / "models"), "--event-class", "tone300",
                "--trees", "1"]
        if source == "flag":
            argv += ["--threads", str(threads)]
        else:
            config = tmp_path / "train.json"
            config.write_text(json.dumps({"threads": threads}))
            argv += ["--config", str(config)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: threads must be at least 1, got {threads}\n"
        assert not (tmp_path / "models").exists()

    @pytest.mark.parametrize("levels, source, shown", [
        ("nan", "flag", "nan"), ("0,inf", "flag", "inf"),
        ("6,1e400", "flag", "inf"), ("nan", "config", "nan"),
    ])
    def test_non_finite_snr_levels_rejected(self, levels, source, shown, corpus,
                                            tmp_path, capsys):
        argv = ["train", str(corpus / "manifest.json"), "--out-dir",
                str(tmp_path / "models"), "--event-class", "tone300",
                "--trees", "1"]
        if source == "flag":
            argv += ["--snr-levels", levels]
        else:
            config = tmp_path / "train.json"
            config.write_text(json.dumps({"snr_levels": levels}))
            argv += ["--config", str(config)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: SNR level must be finite, got {shown}\n"

    @pytest.mark.parametrize("source", ["flag", "manifest"])
    def test_overflowing_snr_level_rejected(self, source, corpus, tmp_path,
                                            capsys):
        argv = ["train", str(corpus / "manifest.json"), "--out-dir",
                str(tmp_path / "models"), "--event-class", "tone300",
                "--trees", "1"]
        if source == "flag":
            argv.append("--snr-levels=1e308")
        else:
            manifest = json.loads((corpus / "manifest.json").read_text())
            manifest["snr_db"] = 1e308
            argv[1] = str(corpus / "manifest_snr_overflow.json")
            Path(argv[1]).write_text(json.dumps(manifest))
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == "error: cannot scale an event to an SNR of 1e+308 dB\n"
        assert not list((tmp_path / "models").glob("model_*.json"))

    @pytest.mark.skipif(forest_module._start_method() != "fork",
                        reason="only a forked child inherits the patch")
    def test_dead_worker_gives_one_error_line(self, corpus, tmp_path, capsys,
                                              monkeypatch):
        grow_one, test_pid = forest_module._grow_one, os.getpid()

        def die_in_a_child(*args):
            if os.getpid() != test_pid:
                os._exit(3)
            return grow_one(*args)

        monkeypatch.setattr(forest_module, "_grow_one", die_in_a_child)
        out = tmp_path / "models"
        code = main(["train", str(corpus / "manifest.json"), "--out-dir",
                     str(out), "--event-class", "tone300"] + TRAIN_ARGS)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: cannot train class 'tone300': ")
        assert err.count("\n") == 1
        assert list(out.iterdir()) == []

    @pytest.mark.skipif(forest_module._start_method() != "fork",
                        reason="only a forked child inherits the patch")
    def test_worker_dying_on_a_later_class_writes_no_model(self, corpus3, tmp_path,
                                                           capsys, monkeypatch):
        build, built = cli_module.build_training_segments, []
        grow_one, test_pid = forest_module._grow_one, os.getpid()

        def recorded(*args, **kwargs):
            built.append(build(*args, **kwargs))
            return built[-1]

        def die_on_the_last_class(segments, *args):
            # a forked child holds the very sets this process built
            if os.getpid() != test_pid and segments is built[-1]:
                os._exit(3)
            return grow_one(segments, *args)

        monkeypatch.setattr(cli_module, "build_training_segments", recorded)
        monkeypatch.setattr(forest_module, "_grow_one", die_on_the_last_class)
        out = tmp_path / "models"
        code = main(["train", str(corpus3 / "manifest.json"), "--out-dir",
                     str(out)] + TRAIN_ARGS)
        captured = capsys.readouterr()
        assert code == 1
        assert len(built) == 3
        [line] = captured.err.splitlines()
        assert line.startswith("error: cannot train class '")
        assert list(out.iterdir()) == []
        assert captured.out == ""

    @pytest.mark.parametrize("threads, pools", [("1", []), ("2", [2]), ("64", [9])])
    def test_one_pool_per_run(self, threads, pools, corpus3, tmp_path, monkeypatch):
        # 3 classes of 3 trees: one pool of min(threads, 9) processes for the
        # run, and none with one thread
        sizes = []

        class PoolRecorder:
            """Records the pool size and starts no process: ``map`` runs the
            initializer and then every job in this process."""

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
        code = main(["train", str(corpus3 / "manifest.json"), "--out-dir",
                     str(tmp_path)] + TRAIN_ARGS + ["--threads", threads])
        assert code == 0
        assert sizes == pools

    def test_each_instance_is_featurized_once_per_level(self, corpus3, tmp_path,
                                                        monkeypatch):
        calls = {"gammatone_cepstra": 0, "mix_overlap": 0}

        def counted(name):
            function = getattr(dataset_module, name)

            def call(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            monkeypatch.setattr(dataset_module, name, call)

        counted("gammatone_cepstra")
        counted("mix_overlap")
        code = main(["train", str(corpus3 / "manifest.json"), "--out-dir",
                     str(tmp_path), "--snr-levels=-6,0"]
                    + TRAIN_ARGS + ["--threads", "1", "--trees", "1"])
        assert code == 0
        manifest = json.loads((corpus3 / "manifest.json").read_text())
        n_instances = sum(e["fold"] == "train" for e in manifest["entries"])
        assert n_instances == 12 and calls["mix_overlap"] > 0
        # 3 classes, 2 levels: each instance once per level, each mixture once
        assert calls["gammatone_cepstra"] == 2 * n_instances + calls["mix_overlap"]


    def test_manifest_without_train_entries_errors(self, corpus, tmp_path,
                                                   capsys):
        def drop_train(entries):
            entries[:] = [e for e in entries if e["fold"] != "train"]

        manifest = edited_manifest(corpus, tmp_path, drop_train)
        out = tmp_path / "models"
        code = main(["train", str(manifest), "--out-dir", str(out)] + TRAIN_ARGS)
        assert code == 1
        assert capsys.readouterr().err == "error: manifest has no train entries\n"
        assert not out.exists()

    def test_instance_with_two_classes_errors(self, corpus, tmp_path, capsys):
        def mix_first_instance(entries):
            entry = next(e for e in entries if e["fold"] == "train")
            mixed = tmp_path / "mixed.txt"
            mixed.write_text(Path(entry["annotations"]).read_text()
                             + "0.0\t0.1\ttone600\n")
            entry["annotations"] = str(mixed)

        manifest = edited_manifest(corpus, tmp_path, mix_first_instance)
        code = main(["train", str(manifest), "--out-dir", str(tmp_path / "models")]
                    + TRAIN_ARGS)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "tone300_i00.wav" in err and "exactly one event class" in err

    def test_without_dev_entries_scores_stay_unnormalized(self, corpus, tmp_path,
                                                          capsys):
        def drop_dev(entries):
            entries[:] = [e for e in entries if e["fold"] in ("train", "test")]

        manifest = edited_manifest(corpus, tmp_path, drop_dev)
        out = tmp_path / "models"
        code = main(["train", str(manifest), "--out-dir", str(out),
                     "--event-class", "tone300"] + TRAIN_ARGS)
        assert code == 0
        assert capsys.readouterr().err == (
            "warning: no dev entries; scores stay unnormalized\n"
        )
        forest = load_forest(out / "model_tone300.json")
        assert forest.z_plus == forest.z_minus == 1.0

    def test_models_carry_the_z_that_normalize_fits(self, corpus, models):
        manifest = json.loads((corpus / "manifest.json").read_text())
        dev = [e["audio"] for e in manifest["entries"]
               if e["fold"] not in ("train", "test")]
        assert dev
        forests = [load_forest(path) for path in models]
        refit = [load_forest(path) for path in models]
        fc = shared_feature_config(refit)
        normalize(refit, [stream_features(corpus / audio, fc).matrix()
                          for audio in dev])
        for forest, fitted in zip(forests, refit):
            assert forest.z_plus.hex() == fitted.z_plus.hex()
            assert forest.z_minus.hex() == fitted.z_minus.hex()

    def test_failing_later_class_writes_no_model(self, corpus3, tmp_path, capsys,
                                                 monkeypatch):
        train_forests, trained = cli_module.train_forests, []

        def fail_tone600(*args, **kwargs):
            for forest in train_forests(*args, **kwargs):
                if forest.class_label == "tone600":
                    raise ValueError("cannot train class 'tone600': injected")
                trained.append(forest.class_label)
                yield forest

        monkeypatch.setattr(cli_module, "train_forests", fail_tone600)
        out = tmp_path / "models"
        code = main(["train", str(corpus3 / "manifest.json"), "--out-dir",
                     str(out)] + TRAIN_ARGS)
        captured = capsys.readouterr()
        assert code == 1
        assert trained == ["tone300"]
        assert captured.err == "error: cannot train class 'tone600': injected\n"
        assert list(out.iterdir()) == []
        assert captured.out == ""

    @pytest.mark.parametrize("failure", ["rename", "write"])
    def test_failing_model_write_leaves_no_model(self, failure, corpus3, tmp_path,
                                                 capsys, monkeypatch):
        out = tmp_path / "models"
        if failure == "rename":
            # every write succeeds, and moving tone600 into place fails after
            # tone300 is already in place
            (out / "model_tone600.json").mkdir(parents=True)
        else:
            save_forest = cli_module.save_forest

            def fail_tone600(forest, path):
                if forest.class_label == "tone600":
                    raise OSError("injected write failure")
                save_forest(forest, path)

            monkeypatch.setattr(cli_module, "save_forest", fail_tone600)
        code = main(["train", str(corpus3 / "manifest.json"), "--out-dir",
                     str(out)] + TRAIN_ARGS + ["--trees", "1"])
        captured = capsys.readouterr()
        assert code == 1
        [line] = captured.err.splitlines()
        assert line.startswith("error: ")
        left = sorted(p.name for p in out.iterdir())
        assert left == (["model_tone600.json"] if failure == "rename" else [])
        assert captured.out == ""


@settings(max_examples=60, deadline=None)
@given(n_segments=st.integers(0, 80), data=st.data())
def test_event_free_rows_match_the_mask_oracle(n_segments, data):
    config = FeatureConfig()
    features = FeatureMatrix(np.arange(n_segments, dtype=float)[:, None],
                             np.arange(n_segments) * config.hop_len, config)
    # times exactly on a segment center test both ends of [onset, offset)
    time = st.floats(0.0, (n_segments + 3) * config.hop_len)
    if n_segments:
        time |= st.sampled_from(features.segment_centers().tolist())
    events = []
    for a, b in data.draw(st.lists(st.tuples(time, time), max_size=6)):
        if a != b:
            events.append(EventAnnotation(min(a, b), max(a, b), "x"))
    assert np.array_equal(event_free_rows(features, events),
                          oracle_event_free_rows(features, events))


# ---------------------------------------------------------------------------
# tune
# ---------------------------------------------------------------------------


class TestTune:
    def test_thresholds_on_grid(self, thresholds, corpus):
        manifest = json.loads((corpus / "manifest.json").read_text())
        tuned = load_thresholds(thresholds)
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


@pytest.mark.parametrize("command", ["tune", "detect"])
def test_print_config_prints_the_merged_config_and_writes_nothing(command,
                                                                  tmp_path,
                                                                  capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"beta": 0.3, "smooth_window": 7}))
    out = tmp_path / "out.json"
    inputs = {"tune": ["missing.json", "missing_model.json"],
              "detect": ["missing.wav", "--model", "missing_model.json"]}
    code = main([command, *inputs[command], "--out", str(out), "--config",
                 str(config), "--print-config", "--smooth-window", "5"])
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed == {**DETECT_DEFAULTS, "beta": 0.3, "smooth_window": 5}
    assert list(tmp_path.iterdir()) == [config]


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

    def test_config_value_types_checked(self, corpus, models, tmp_path, capsys):
        config = tmp_path / "detect.json"
        config.write_text(json.dumps({"smooth_window": "11"}))
        code = main(
            ["detect", str(corpus / "test.wav")]
            + model_args(models)
            + ["--config", str(config)]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {config}: key 'smooth_window' must be an integer\n"
        )

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

    def test_dumped_scores_are_the_detection_track(self, corpus, models,
                                                  thresholds, tmp_path):
        scores = tmp_path / "scores"
        out = tmp_path / "detections.txt"
        code = main(
            ["detect", str(corpus / "test.wav")]
            + model_args(models)
            + ["--thresholds", str(thresholds), "--out", str(out),
               "--dump-scores", str(scores)]
        )
        assert code == 0
        tuned = load_thresholds(thresholds)
        detections = []
        for path in models:
            forest = load_forest(path)
            with open(scores / f"scores_{forest.class_label}.csv") as handle:
                rows = list(csv.DictReader(handle))
            # repr floats read back exactly
            track = ScoreTrack([float(r["f_plus"]) for r in rows],
                               [float(r["f_minus"]) for r in rows])
            choice = tuned[forest.class_label]
            detections += forest_events(track, forest, choice.beta,
                                        DetectConfig().duration_factor)
        assert detections
        detections.sort(key=lambda d: (d.onset, d.offset, d.label))
        expected = tmp_path / "expected.txt"
        write_annotations(detections, expected)
        assert out.read_text() == expected.read_text()

    def test_dump_scores_scores_each_class_once(self, corpus, models,
                                                tmp_path, monkeypatch):
        # the first class is disabled: dumped, never detected
        disabled = load_forest(models[0]).class_label
        tuned = tmp_path / "thresholds.json"
        tuned.write_text(json.dumps(
            {disabled: {"alpha": 0.0, "beta": 1.01, "error_rate": 1.0}}
        ))
        routed = []
        collect_votes = detect_module.collect_votes

        def counting(features, forest):
            routed.append(forest.class_label)
            return collect_votes(features, forest)

        monkeypatch.setattr(detect_module, "collect_votes", counting)
        base = (["detect", str(corpus / "test.wav")] + model_args(models)
                + ["--thresholds", str(tuned), "--beta", "0.0"])
        plain = tmp_path / "plain.txt"
        assert main(base + ["--out", str(plain)]) == 0
        enabled = sorted(routed)
        assert disabled not in enabled and len(enabled) == len(models) - 1
        routed.clear()
        dumped = tmp_path / "dumped.txt"
        scores = tmp_path / "scores"
        assert main(base + ["--out", str(dumped),
                            "--dump-scores", str(scores)]) == 0
        assert sorted(routed) == sorted([disabled] + enabled)
        assert (scores / f"scores_{disabled}.csv").exists()
        assert dumped.read_bytes() == plain.read_bytes()
        assert plain.read_text() and disabled not in plain.read_text()


# ---------------------------------------------------------------------------
# streamed detect
# ---------------------------------------------------------------------------

# Segments per block in the tests below: the test scene is shorter than one
# block of the default size, so the tests shrink the block to stream it.
BLOCK = 64


@pytest.mark.parametrize("case", ["mixed", "mixed_reversed", "duplicate_detect",
                                  "duplicate_tune"])
def test_inconsistent_model_set_gives_one_error_line(case, corpus, models,
                                                     tmp_path):
    # A model trained with noise subtraction scores other feature rows, and
    # two models for one class would each claim its track.
    payload = json.loads(models[0].read_text())
    payload["feature_fingerprint"]["noise_subtraction"] = True
    subtracted = tmp_path / "subtracted.json"
    subtracted.write_text(json.dumps(payload))
    copy = tmp_path / "copy.json"
    copy.write_text(models[0].read_text())
    out = tmp_path / "out.json"
    detect = ["detect", str(corpus / "test.wav"), "--out", str(out)]
    argv, fragment = {
        "mixed": (detect + ["--model", str(models[1]), "--model", str(subtracted)],
                  "feature space"),
        "mixed_reversed": (
            detect + ["--model", str(subtracted), "--model", str(models[1])],
            "feature space"),
        "duplicate_detect": (
            detect + ["--model", str(models[0]), "--model", str(models[0])],
            "two models are for class"),
        "duplicate_tune": (["tune", str(corpus / "manifest.json"), str(models[0]),
                            str(copy), "--out", str(out)],
                           "two models are for class"),
    }[case]
    code, err = run_main(argv)
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert fragment in err
    assert not out.exists()


def cut_scene(corpus, path, n_segments):
    """Write the start of the test scene that makes exactly ``n_segments``."""
    wave = load_audio(corpus / "test.wav")
    win, hop = 1600, 160  # FeatureConfig() at 16 kHz
    n = win - 1 if n_segments == 0 else win + (n_segments - 1) * hop
    assert n <= len(wave.samples)
    save_audio(path, Waveform(wave.samples[:n], wave.sample_rate))


def detect_outputs(audio, models, thresholds, out_dir):
    """Bytes of every file ``detect`` writes with all its dump flags."""
    out_dir.mkdir()
    code = main(["detect", str(audio)] + model_args(models)
                + ["--thresholds", str(thresholds),
                   "--out", str(out_dir / "detections.txt"),
                   "--dump-scores", str(out_dir / "scores"),
                   "--dump-features", str(out_dir / "features.csv")])
    assert code == 0
    return {str(p.relative_to(out_dir)): p.read_bytes()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("window_block", [512, 48])
@pytest.mark.parametrize("n_segments",
                         [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 5 * BLOCK + 1])
def test_streamed_detect_equals_batch_at_block_boundaries(
    n_segments, window_block, corpus, models, thresholds, tmp_path, monkeypatch
):
    audio = tmp_path / "cut.wav"
    cut_scene(corpus, audio, n_segments)
    # transform blocks of 48 windows end inside the segment blocks
    monkeypatch.setattr(features_module, "_WINDOW_BLOCK", window_block)
    monkeypatch.setattr(features_module, "_SEGMENT_BLOCK", 10**9)
    batch = detect_outputs(audio, models, thresholds, tmp_path / "batch")
    monkeypatch.setattr(features_module, "_SEGMENT_BLOCK", BLOCK)
    streamed = detect_outputs(audio, models, thresholds, tmp_path / "streamed")
    assert sorted(batch) == ["detections.txt", "features.csv",
                             "scores/scores_tone300.csv", "scores/scores_tone600.csv"]
    assert batch["features.csv"].count(b"\n") == 1 + n_segments
    assert streamed == batch


@pytest.mark.parametrize("fault", ["nan", "truncated"])
def test_faulty_stream_gives_one_error_line_and_no_output(
    fault, corpus, models, tmp_path, monkeypatch
):
    from scipy.io import wavfile

    monkeypatch.setattr(features_module, "_SEGMENT_BLOCK", BLOCK)
    audio = tmp_path / "faulty.wav"
    if fault == "nan":
        wave = load_audio(corpus / "test.wav")
        samples = wave.samples.astype(np.float32)
        samples[-200] = np.nan  # in the last of the stream's blocks
        wavfile.write(audio, wave.sample_rate, samples)
        shown = "waveform contains non-finite samples"
    else:
        full = (corpus / "test.wav").read_bytes()
        audio.write_bytes(full[:len(full) // 2])
        shown = "truncated WAV"
    out, feats = tmp_path / "detections.txt", tmp_path / "features.csv"
    code, err = run_main(["detect", str(audio)] + model_args(models)
                         + ["--out", str(out), "--dump-features", str(feats)])
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert shown in err
    assert not out.exists() and not feats.exists()


def test_detect_memory_does_not_grow_with_the_stream(
    corpus, models, thresholds, tmp_path, monkeypatch
):
    import tracemalloc

    monkeypatch.setattr(features_module, "_SEGMENT_BLOCK", 2 * BLOCK)
    wave = load_audio(corpus / "test.wav")
    runs = []
    for tiles in (1, 4):
        audio = tmp_path / f"tiled_{tiles}.wav"
        save_audio(audio, Waveform(np.tile(wave.samples, tiles), wave.sample_rate))
        runs.append(["detect", str(audio)] + model_args(models)
                    + ["--thresholds", str(thresholds),
                       "--out", str(tmp_path / f"detections_{tiles}.txt")])
    assert main(runs[0]) == 0  # caches and lazy imports are not counted
    peaks = []
    for argv in runs:
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # what batch detection adds first: a float64 copy of the extra audio
    extra_audio = 3 * len(wave.samples) * 8
    assert peaks[1] - peaks[0] < extra_audio


def library_detection(models):
    """The forests of ``models`` and a config per class that fires on the test scene."""
    forests = [load_forest(p) for p in models]
    configs = {f.class_label: DetectConfig(alpha=0.3, beta=0.1) for f in forests}
    return forests, configs


def test_detect_stream_equals_pairing_the_whole_matrix(corpus, models, monkeypatch):
    forests, configs = library_detection(models)
    wave = load_audio(corpus / "test.wav")
    whole = gammatone_cepstra(wave, shared_feature_config(forests))
    tracks = score_matrix(whole, forests, configs)
    expected = detect_on_features(tracks, forests, configs)
    monkeypatch.setattr(features_module, "_SEGMENT_BLOCK", BLOCK)
    routed = []

    def recording(features, forest):
        routed.append(features.n_segments)
        return collect_votes(features, forest)

    collect_votes = detect_module.collect_votes
    monkeypatch.setattr(detect_module, "collect_votes", recording)
    got = detect_stream(wave, forests, configs)
    # every forest routes the stream once, one block of rows at a time
    assert whole.n_segments > 2 * BLOCK
    assert max(routed) == BLOCK
    assert sum(routed) == whole.n_segments * len(forests)
    assert expected
    assert [(d.label, d.onset, d.offset, d.confidence) for d in got] == [
        (d.label, d.onset, d.offset, d.confidence) for d in expected
    ]


def test_detect_stream_memory_does_not_grow_with_the_features(
    corpus, models, monkeypatch
):
    import tracemalloc

    monkeypatch.setattr(features_module, "_SEGMENT_BLOCK", 2 * BLOCK)
    forests, configs = library_detection(models)
    wave = load_audio(corpus / "test.wav")
    waves = [Waveform(np.tile(wave.samples, tiles), wave.sample_rate)
             for tiles in (1, 4)]
    detect_stream(waves[0], forests, configs)  # caches are not counted
    peaks = []
    for tiled in waves:
        tracemalloc.start()
        try:
            assert detect_stream(tiled, forests, configs)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # the rows of the three added tiles: a whole feature matrix holds them,
    # at 512 bytes a segment
    fc = shared_feature_config(forests)
    n_segments = [featurize(w, fc).n_segments for w in waves]
    extra_rows = (n_segments[1] - n_segments[0]) * fc.n_channels * 8
    # the whole-stream score sums and tracks grow by about 35 bytes a segment
    assert peaks[1] - peaks[0] < extra_rows / 4


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
# the whole pipeline
# ---------------------------------------------------------------------------


# sha256 of every file the pipeline below writes: the corpus, models,
# thresholds, detections, score tracks and metric counts, and the detections
# of the test scene tiled three times. Each stage runs in
# a fresh interpreter under the package's one BLAS thread, the only setting
# the digests hold for (a threaded BLAS sums features in another order). A
# faster path must leave every byte as it is; new digests mean that models
# or detections changed.
PIPELINE_DIGESTS = {
    "corpus/dev.txt": "b548bf6efc72ca71a600dce69b57264fde1ed0e503e7b1956cc642fa49050290",
    "corpus/dev.wav": "7f7fbad87e7b46595cf9be29224935d3b4b7b258623a8eab7e3194eacc23bfca",
    "corpus/manifest.json": "0f4d74a2a091d351c56119d5b12690f756b9647a4b002249f030bd31be17a1d2",
    "corpus/test.txt": "5c1932facb0403aee57eccbc7919a97d0fc613f1ccb858d0bbc9f676d72c6061",
    "corpus/test.wav": "09eb8014b5ab5cdda783d155d7c2a0154b330143f0a96fcf5652709a4147af9d",
    "corpus/train/tone300_i00.txt": "bb6e5c646e0604cbbc092161db03a22659d410fb0b85c680ced431b07406f7be",
    "corpus/train/tone300_i00.wav": "fe334ad54a508d806eed4fc42a159ad7153301518bf13ae028358fafd001d265",
    "corpus/train/tone300_i01.txt": "3f8e10566d8298d8d08829588c2d60c6a6fb48ba2f628b42ae6f98531945bcd1",
    "corpus/train/tone300_i01.wav": "58571b10144ede03f4b82f7c1d93c490f44e3d2fb091ee23949cd7f3e726c2c8",
    "corpus/train/tone300_i02.txt": "a492ad7ba2bfe0d876436cbe67d0c203de09624cbf2b5687510a72696ecdaf9d",
    "corpus/train/tone300_i02.wav": "fd631ecb2ef0b24122840c02152b4751de91839763fa5c47aea173542a410b75",
    "corpus/train/tone300_i03.txt": "d96bdd1960622231a453f9444d6116b35497e49faad1cc30ec277bdd7bb8ff88",
    "corpus/train/tone300_i03.wav": "a942ec5b6e3b912d2d42a902c5f42a4db7518bde2b7ed1e322ba35389e825fa5",
    "corpus/train/tone600_i00.txt": "6cc59bbd54e30213925e46910a11d44358a2b3afaadc529c24cc9e8d9cfb0287",
    "corpus/train/tone600_i00.wav": "bc3c3b511c1bf74d54d3abcece3df2277a1f1e55853a9a22208e17bd5707282c",
    "corpus/train/tone600_i01.txt": "7f433d268bd5f7e4e2e5a74c519944cc046d62c8eadfc14e6da53294b3895d95",
    "corpus/train/tone600_i01.wav": "874b895a3ef0ea0ced0999e480cd9426363e8933d7be1fa96dd7d18912c50990",
    "corpus/train/tone600_i02.txt": "096fe5be8421e247db80ce602179fda8342b1007d5cacd25cbbc3a862f33c394",
    "corpus/train/tone600_i02.wav": "a0df6ddfe2b59fe10f0281b2bca203a672f5a4b817cbe9332c4eb9e6ad9f8e6c",
    "corpus/train/tone600_i03.txt": "4640d8cfe1797430afbc8fa9094577842da7faefd5eb043087ce4cd7a2c20cf4",
    "corpus/train/tone600_i03.wav": "d7ff5e979963272a9beeea640bab35dfe3f52a44a540a96a68463973033e85c0",
    "out/detections.txt": "0be6426b24452cd7da34eb515f9e2e6a089a61f1ebb652d4eb80981bf43b6d4d",
    "out/detections_x3.txt": "0532494eb2cb6af4fcdbd517b27afdd1036d8defd336214c1e4cb1fac9b5a66a",
    "out/model_tone300.json": "048b3d2b225c684b25a2c823b6edb7d576c7b34a4520a6358adbea074a28904e",
    "out/model_tone600.json": "0d9c1b203ef2b7c79d7c27d40b7aaa4f0e23ec65c3bc94d9b4b45d64ef18dcf5",
    "out/scores.csv": "2b3ae2947db80ec883e1a86b05d9a86a0e99d36dfdbf8692288c64161d575594",
    "out/scores_tone300.csv": "fa2c1791ea7cfade837c140fb02486da934807538b0a19039283c2868bbc3bd0",
    "out/scores_tone600.csv": "24a226c7ae4eb69a64df56a246dfcf38b8caeda163b579657c95be60fa1c1408",
    "out/thresholds.json": "39bd0cf61b5754a4ca33af432181cd94ba6a1fa20f8e195f933639ad4b963f0b",
}


def test_pipeline_output_bytes_pinned(tmp_path):
    root = tmp_path / "run"
    corpus, out = root / "corpus", root / "out"
    models = [str(out / f"model_{c}.json") for c in ("tone300", "tone600")]
    # outside root, so only its detections are pinned
    tiled = tmp_path / "test_x3.wav"
    env = _package_env(**dict.fromkeys(BLAS_THREAD_VARIABLES))

    def run(*argv):
        subprocess.run([sys.executable, "-m", "eventforest.cli", *argv],
                       env=env, capture_output=True, check=True)

    for argv in (
        # the later --scene-len wins: 12 s scenes give detections to pin
        ["synth", str(corpus)] + SYNTH_ARGS + ["--scene-len", "12"],
        # --threads 2 in TRAIN_ARGS: trees grow on more than one worker
        ["train", str(corpus / "manifest.json"), "--out-dir", str(out)]
        + TRAIN_ARGS,
        ["tune", str(corpus / "manifest.json"), *models,
         "--out", str(out / "thresholds.json")],
        ["detect", str(corpus / "test.wav"), *model_args(models),
         "--thresholds", str(out / "thresholds.json"),
         "--out", str(out / "detections.txt"), "--dump-scores", str(out)],
        ["evaluate", str(corpus / "test.txt"), str(out / "detections.txt"),
         "--csv", str(out / "scores.csv")],
    ):
        run(*argv)
    # a tiled stream pins how detections pair later in a long recording
    scene = load_audio(corpus / "test.wav")
    save_audio(tiled, Waveform(np.tile(scene.samples, 3), scene.sample_rate))
    assert np.array_equal(load_audio(tiled).samples, np.tile(scene.samples, 3))
    run("detect", str(tiled), *model_args(models),
        "--thresholds", str(out / "thresholds.json"),
        "--out", str(out / "detections_x3.txt"))
    digests = {
        path.relative_to(root).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*")) if path.is_file()
    }
    assert digests == PIPELINE_DIGESTS, byte_platform()


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
    "version_true": (lambda p: p.update(format_version=True),
                     "unsupported model format version True"),
    "config_bool": (lambda p: p["config"].update(n_trees=True),
                    "model config 'n_trees' must be an integer"),
    "fingerprint_null": (lambda p: p.update(feature_fingerprint=None),
                         "model feature_fingerprint is not an object"),
    "duration_null": (lambda p: p.update(max_train_event_duration=None),
                      "max_train_event_duration is not a number: None"),
    "class_label_empty": (lambda p: p.update(class_label=""),
                          "model class_label is not a non-empty string"),
    "fingerprint_string": (
        lambda p: p["feature_fingerprint"].update(window_len="0.1"),
        "model feature_fingerprint 'window_len' must be a finite number",
    ),
    "n_train_overflow": (
        lambda p: first_node(p, "leaf").update(n_train=2**63),
        "n_train 9223372036854775808 outside [0, 9223372036854775808)",
    ),
    "z_plus_overflow": (lambda p: p.update(z_plus=10**400), "non-finite z_plus inf"),
    "hop_below_one_sample": (
        lambda p: p["feature_fingerprint"].update(hop_len=1e-5, window_len=1e-5),
        "hop_len 1e-05 is shorter than one sample at rate 16000",
    ),
    "huge_hop": (
        lambda p: p["feature_fingerprint"].update(hop_len=1e308, window_len=1e308),
        "hop_len 1e+308 is too long at 16000 Hz",
    ),
    "infinite_variance": (
        lambda p: first_node(p, "leaf", gaussian=True)["offset"].__setitem__(
            1, float("inf")
        ),
        "non-finite offset variance",
    ),
    "sample_rate_overflow": (
        lambda p: p["feature_fingerprint"].update(sample_rate=10**400),
        "sample rate is beyond the float range",
    ),
    "channels_overflow": (
        lambda p: p["feature_fingerprint"].update(n_channels=2**63),
        "9223372036854775808 channels exceed the 801 spectral bins",
    ),
    "channels_beyond_the_bins": (
        lambda p: p["feature_fingerprint"].update(n_channels=10**7),
        "10000000 channels exceed the 801 spectral bins of a 1600-sample window",
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

    monkeypatch.setattr(cli_module, "stream_features", no_features)
    code = main(["detect", str(corpus / "test.wav"), "--model", str(bad)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert fragment in err


@pytest.mark.parametrize("case", ["fingerprint_null", "duration_null",
                                  "class_label_empty"])
def test_incomplete_model_rejected_by_tune(case, corpus, models, tmp_path,
                                           capsys, monkeypatch):
    corrupt, fragment = MALFORMED_MODELS[case]
    payload = json.loads(models[0].read_text())
    corrupt(payload)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))

    def no_audio(*args, **kwargs):
        raise AssertionError("audio read before the model was checked")

    monkeypatch.setattr(cli_module, "load_audio", no_audio)
    monkeypatch.setattr(cli_module, "stream_features", no_audio)
    out = tmp_path / "thresholds.json"
    code = main(["tune", str(corpus / "manifest.json"), str(models[1]), str(bad),
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert fragment in err
    assert not out.exists()


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


def test_thresholds_error_rate_type_checked(corpus, models, tmp_path, capsys):
    label = json.loads(models[0].read_text())["class_label"]
    path = tmp_path / "typed.json"
    path.write_text(json.dumps({label: {"alpha": 0.5, "beta": 0.1, "error_rate": "?"}}))
    code = main(["detect", str(corpus / "test.wav"), "--model", str(models[0]),
                 "--thresholds", str(path)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {path}: class {label!r} error_rate must be a finite number or null\n"
    )


@pytest.mark.parametrize(
    "text",
    ['{"alpha": NaN, "beta": 0.1}', '{"alpha": 0.5, "beta": NaN}',
     '{"alpha": 0.5, "beta": Infinity}', '{"alpha": 7, "beta": 0.1}',
     '{"alpha": 0.5, "beta": -1}', '{"alpha": 0.5, "beta": 1%s}' % ("0" * 400)],
)
def test_thresholds_out_of_range_rejected(text, corpus, models, tmp_path, capsys):
    # a NaN or infinite beta never fires, yet the class is not reported disabled
    label = json.loads(models[0].read_text())["class_label"]
    path = tmp_path / "ranged.json"
    path.write_text(f"{{{json.dumps(label)}: {text}}}")
    code = main(["detect", str(corpus / "test.wav"), "--model", str(models[0]),
                 "--thresholds", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert "ranged.json" in err and repr(label) in err


def test_detect_rejects_nan_beta(corpus, models, capsys):
    code = main(["detect", str(corpus / "test.wav"), "--model", str(models[0]),
                 "--beta", "nan"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert "beta" in err


# (command, flag, value): values that a sign check alone let through
NON_FINITE_FLAGS = [
    ("detect", "--beta", "inf"),
    ("detect", "--duration-factor", "nan"),
    ("detect", "--duration-factor", "inf"),
    ("tune", "--duration-factor", "nan"),
    ("tune", "--duration-factor", "inf"),
    ("evaluate", "--collar", "nan"),
    ("evaluate", "--collar", "inf"),
    ("evaluate", "--resolution", "inf"),
    ("evaluate", "--resolution", "nan"),
    ("evaluate", "--duration", "inf"),
]


@pytest.mark.parametrize("command,flag,value", NON_FINITE_FLAGS)
def test_non_finite_flag_rejected(command, flag, value, corpus, models, tmp_path,
                                  capsys):
    args = {
        "detect": ["detect", str(corpus / "test.wav"), "--model", str(models[0])],
        "tune": ["tune", str(corpus / "manifest.json"), str(models[0]),
                 "--out", str(tmp_path / "never.json")],
        "evaluate": ["evaluate", str(corpus / "test.txt"), str(corpus / "dev.txt")],
    }[command]
    code = main(args + [f"{flag}={value}"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert flag.lstrip("-").split("-")[0] in captured.err
    assert not (tmp_path / "never.json").exists()


def traced_main(argv):
    """Run the CLI under perfbench's tracer, loaded from its file unchanged."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = main(argv)
    finally:
        tracer.uninstall()
    assert code == 0
    return tracer


def test_benchmark_scores_the_head_and_tail_thirds(corpus, monkeypatch):
    # perfbench/run.py scores the first and last third of the test scene with
    # parse_annotations and per_class_segment_metrics, imported by name, and
    # reads the error rate of the report's 'overall' row.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look it up
    spec.loader.exec_module(run)
    reference = corpus / "test.txt"
    assert run._head_tail_error(reference, reference, "overall") == (0.0, 0.0)
    head, tail = run._head_tail_error(reference, corpus / "dev.txt", "overall")
    assert head > 0 and tail > 0


def test_tracer_counts_the_training_set(corpus, tmp_path, capsys):
    # perfbench's tracer wraps build_training_segments and select_best_test by
    # name and counts rows and positives by iterating the training set.
    # --threads 1 grows the trees in this process: with worker processes the
    # traced process grows none, so it records no split search. The pinned
    # pipeline digests and the test_forest pool tests cover the pool path.
    tracer = traced_main(["train", str(corpus / "manifest.json"), "--out-dir",
                          str(tmp_path), "--event-class", "tone300"]
                         + TRAIN_ARGS + ["--threads", "1"])
    printed = capsys.readouterr().out
    totals = tracer.totals()
    counts = totals["dataset.build_training_segments"]
    assert counts["calls"] == 1
    assert printed.startswith(
        f"tone300: {counts['segments']} segments ({counts['positives']} positive)"
    )
    assert 0 < counts["positives"] < counts["segments"]
    assert totals["forest.select_best_test"]["cells"] > 0


def test_tracer_counts_tune_and_detect(corpus, models, tmp_path, capsys):
    # perfbench's tracer wraps render_tracks, extract_events, tune_thresholds
    # and detect_on_features by name, and counts peaks through _peak_indices;
    # tune and detect must keep pairing through those names.
    tuned = tmp_path / "thresholds.json"
    tracer = traced_main(["tune", str(corpus / "manifest.json")]
                         + [str(p) for p in models] + ["--out", str(tuned)])
    totals = tracer.totals()
    grid = len(default_alpha_grid()) * len(default_beta_grid())
    assert grid == 861
    assert totals["evaluate.tune_thresholds"]["calls"] == 1
    assert totals["evaluate.tune_thresholds"]["grid_points"] == grid * len(models)
    n_dev = sum(e["fold"] == "dev" for e in
                json.loads((corpus / "manifest.json").read_text())["entries"])
    assert totals["detect.extract_events"]["calls"] == grid * len(models) * n_dev
    assert all(
        tracer.has_ancestor(i, "evaluate.tune_thresholds")
        for i, span in enumerate(tracer.spans)
        if span[0] == "detect.extract_events"
    )

    out = tmp_path / "detections.txt"
    tracer = traced_main(["detect", str(corpus / "test.wav")]
                         + model_args(models)
                         + ["--thresholds", str(tuned), "--out", str(out)])
    capsys.readouterr()
    totals = tracer.totals()
    assert totals["detect.render_tracks"]["calls"] == len(models)
    assert totals["detect.render_tracks"]["votes_rendered"] > 0
    pairing = [i for i, span in enumerate(tracer.spans)
               if span[0] == "detect.extract_events"]
    assert len(pairing) == len(models)
    assert all(tracer.has_ancestor(i, "detect.detect_on_features") for i in pairing)
    events = totals["detect.extract_events"]
    assert events["paired"] > 0
    assert events["peaks"] >= 2 * events["paired"]
    detections = totals["detect.detect_on_features"]["detections"]
    assert 0 < detections <= events["paired"]
    assert detections == len(out.read_text().splitlines())


def drop_dev_key(key):
    def corrupt(manifest):
        del next(e for e in manifest["entries"] if e["fold"] == "dev")[key]

    return corrupt


def set_dev_key(key, value):
    def corrupt(manifest):
        next(e for e in manifest["entries"] if e["fold"] == "dev")[key] = value

    return corrupt


# name -> (corruption of a valid manifest, fragment of the error line)
MALFORMED_MANIFESTS = {
    "no_audio": (drop_dev_key("audio"), "has no 'audio'"),
    "no_annotations": (drop_dev_key("annotations"), "has no 'annotations'"),
    "entries_not_a_list": (lambda m: m.update(entries=5), "has no entries"),
    "audio_not_a_string": (set_dev_key("audio", [0]), "'audio' must be a string"),
    "fold_not_a_string": (set_dev_key("fold", 1.5), "'fold' must be a string"),
    "classes_not_strings": (
        lambda m: m.update(classes=[0]), "classes must be a list of strings or null"
    ),
    "classes_repeated": (
        lambda m: m.update(classes=["tone300", "tone600", "tone300"]),
        "classes must be distinct",
    ),
    "sample_rate_not_an_integer": (
        lambda m: m.update(sample_rate=16000.0), "sample_rate must be an integer"
    ),
    "background_rms_not_positive": (
        lambda m: m.update(background_rms=0),
        "background_rms must be a positive number or null",
    ),
    "sample_rate_overflow": (
        lambda m: m.update(sample_rate=10**400),
        "sample_rate must be an integer in the float range",
    ),
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


@pytest.mark.parametrize("command", ["evaluate", "tune"])
@pytest.mark.parametrize("line", ["0.0\tinf\ttone300", "nan\t1.0\ttone300"])
def test_non_finite_annotation_times_rejected(command, line, corpus, models,
                                              tmp_path, capsys):
    # An infinite offset overflowed the segment cells into a traceback, and
    # a NaN onset was scored silently by the event metric.
    bad = tmp_path / "bad.txt"
    bad.write_text("0.5\t1.0\ttone300\n" + line + "\n")
    if command == "evaluate":
        argv = ["evaluate", str(bad), str(corpus / "test.txt")]
    else:
        manifest = json.loads((corpus / "manifest.json").read_text())
        for entry in manifest["entries"]:
            entry["audio"] = str(corpus / entry["audio"])
            entry["annotations"] = str(corpus / entry["annotations"])
            if entry["fold"] == "dev":
                entry["annotations"] = str(bad)
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        argv = (["tune", str(path)] + [str(p) for p in models]
                + ["--out", str(tmp_path / "t.json")])
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: {bad}: line 2: onset and offset must be finite, "
        f"got {float(line.split()[0])} and {float(line.split()[1])}\n"
    )
    assert not (tmp_path / "t.json").exists()


# ---------------------------------------------------------------------------
# fuzzed inputs
# ---------------------------------------------------------------------------

FUZZ = settings(max_examples=25, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def run_main(argv):
    """Exit code and stderr of ``main``, led by any warnings it issued, which
    the command line prints to stderr; an exception escapes as a failure."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
    shown = [warnings.formatwarning(w.message, w.category, w.filename, w.lineno)
             for w in caught]
    return code, "".join(shown) + err.getvalue()


def assert_one_error_line(argv):
    code, err = run_main(argv)
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err


@st.composite
def json_path(draw, value):
    """A position in a parsed JSON document, found by walking down from the
    root and stopping at each level with probability 1/3."""
    path = ()
    while isinstance(value, (dict, list)) and value and draw(st.integers(0, 2)):
        key = draw(st.sampled_from(
            sorted(value) if isinstance(value, dict) else range(len(value))
        ))
        path += (key,)
        value = value[key]
    return path


def json_kind(value):
    return "number" if isinstance(value, (int, float)) and not isinstance(
        value, bool) else type(value).__name__


# Stand-ins of another JSON kind; none may be accepted where a value of the
# original kind was written.
SWAPS = ("?", 1.5, True, [0], {"?": 0})


@st.composite
def corrupted_json(draw, text):
    """``text`` truncated, with one structural character replaced, or with one
    value swapped for one of another kind; never a valid input."""
    how = draw(st.sampled_from(["truncate", "flip", "swap"]))
    if how == "truncate":
        return text[: draw(st.integers(0, text.rindex("}") - 1))]
    if how == "flip":
        structural, in_string = [], False
        for i, ch in enumerate(text):
            if ch == '"':
                in_string = not in_string
            if ch == '"' or (not in_string and ch in "{}[]:,"):
                structural.append(i)
        i = draw(st.sampled_from(structural))
        return text[:i] + draw(st.sampled_from(" #x\x00")) + text[i + 1:]
    payload = json.loads(text)
    path = draw(json_path(payload))
    old = payload
    for key in path:
        old = old[key]
    new = draw(st.sampled_from([v for v in SWAPS if json_kind(v) != json_kind(old)]))
    if not path:
        return json.dumps(new)
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    return json.dumps(payload)


def write_fuzzed(directory, name, text):
    path = Path(directory) / name
    path.write_text(text)
    return path


@pytest.fixture(scope="session")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(data=st.data())
def test_fuzzed_model_gives_one_error_line(data, corpus, models, fuzz_dir):
    text = data.draw(corrupted_json(models[0].read_text()))
    bad = write_fuzzed(fuzz_dir, "model.json", text)
    assert_one_error_line(["detect", str(corpus / "test.wav"), "--model", str(bad)])


@FUZZ
@given(data=st.data())
def test_fuzzed_thresholds_give_one_error_line(data, corpus, models, thresholds,
                                               fuzz_dir):
    text = data.draw(corrupted_json(thresholds.read_text()))
    bad = write_fuzzed(fuzz_dir, "thresholds.json", text)
    assert_one_error_line(["detect", str(corpus / "test.wav"), "--model",
                           str(models[0]), "--thresholds", str(bad)])


@FUZZ
@given(data=st.data())
def test_fuzzed_manifest_gives_one_error_line(data, corpus):
    text = data.draw(corrupted_json((corpus / "manifest.json").read_text()))
    # beside the corpus, so that intact entries name existing files
    bad = write_fuzzed(corpus, "manifest_fuzzed.json", text)
    assert_one_error_line(["train", str(bad), "--out-dir", str(corpus / "unused")])


# Header bytes a WAV reader must check: the RIFF and WAVE tags, the format
# chunk but the low byte of the bits per sample, and the data chunk's tag. The
# RIFF size, that byte (16 bits may become 24) and the data size may change
# without making the file unreadable: a smaller data size leaves trailing
# bytes, which the reader skips.
WAV_CHECKED_BYTES = [*range(0, 4), *range(8, 34), *range(35, 40)]


@FUZZ
@given(how=st.sampled_from(["truncate", "truncate_data", "flip"]),
       at=st.integers(0, 43), cut=st.floats(0.0, 1.0, exclude_max=True),
       mask=st.integers(1, 255))
def test_fuzzed_wav_gives_one_error_line(how, at, cut, mask, corpus, models,
                                         fuzz_dir):
    wav = (corpus / "test.wav").read_bytes()
    if how == "truncate":
        wav = wav[:at]
    elif how == "truncate_data":
        wav = wav[: 44 + int(cut * (len(wav) - 44))]
    else:
        at = WAV_CHECKED_BYTES[at % len(WAV_CHECKED_BYTES)]
        wav = wav[:at] + bytes([wav[at] ^ mask]) + wav[at + 1:]
    bad = Path(fuzz_dir) / "stream.wav"
    bad.write_bytes(wav)
    assert_one_error_line(["detect", str(bad), "--model", str(models[0])])


@pytest.mark.parametrize("mask", [0x01, 0x80, 0xFF])
def test_every_checked_wav_byte_flipped_gives_one_error_line(mask, corpus, models,
                                                             fuzz_dir):
    # each checked header byte, flipped in its lowest, highest and every bit
    wav = (corpus / "test.wav").read_bytes()
    bad = Path(fuzz_dir) / f"flipped_{mask}.wav"
    accepted = []
    for at in WAV_CHECKED_BYTES:
        bad.write_bytes(wav[:at] + bytes([wav[at] ^ mask]) + wav[at + 1:])
        code, err = run_main(["detect", str(bad), "--model", str(models[0])])
        if code != 1 or not err.startswith("error: ") or err.count("\n") != 1:
            accepted.append((at, code, err))
    assert accepted == []


def test_rate_beyond_the_resampling_cap_gives_one_error_line(corpus, models,
                                                             tmp_path,
                                                             monkeypatch):
    # 8-bit mono PCM may declare any rate below 2**32 with a consistent byte
    # rate. From 2,147,499,648 Hz, 16 kHz is up 125 and down 16,777,341: a
    # 335 M-tap filter of 2.7 GB, which must be refused before scipy designs it.
    import scipy.signal

    def designed(*args, **kwargs):
        raise AssertionError("resample_poly was called")

    monkeypatch.setattr(scipy.signal, "resample_poly", designed)
    rate = 2_147_499_648
    data = bytes(range(0, 256, 8))
    fmt = struct.pack("<HHIIHH", 1, 1, rate, rate, 1, 8)
    body = (b"WAVEfmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(data)) + data)
    wav = tmp_path / "fast.wav"
    wav.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    (tmp_path / "fast.txt").write_text("0.000\t1.000\ttone300\n")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"entries": [
        {"audio": "fast.wav", "annotations": "fast.txt", "fold": "train"}]}))
    for argv in (["detect", str(wav), "--model", str(models[0])],
                 ["train", str(manifest), "--out-dir", str(tmp_path / "out")]):
        code, err = run_main(argv)
        assert code == 1
        assert err.startswith("error: cannot resample 2147499648 Hz to 16000 Hz")
        assert err.count("\n") == 1


def _package_env(**overrides):
    """The environment with this package first on the path; a None value unsets."""
    src = str(Path(eventforest.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    for key, value in overrides.items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    return env


def test_cli_import_leaves_scipy_signal_unloaded(tmp_path):
    # The import, `synth` and `evaluate` load no scipy module at all, and
    # neither do `train`, `tune` and `detect` on 16 kHz streams: WAVs are
    # parsed and cepstra transformed with numpy alone. Only a stream at
    # another rate, which is resampled, loads scipy.signal (and what it
    # imports), and still no WAV reader.
    code = (
        "import contextlib, io, sys\n"
        "import numpy as np\n"
        "import eventforest.cli as cli\n"
        "from eventforest.features import Waveform, save_audio\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "def run(*argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(list(argv)) == 0, argv\n"
        "print(loaded())\n"
        "out = sys.argv[1]\n"
        "run('synth', out, *sys.argv[3:])\n"
        "print(loaded())\n"
        "run('evaluate', out + '/test.txt', out + '/dev.txt')\n"
        "print(loaded())\n"
        "models = [out + '/models/model_tone300.json', out + '/models/model_tone600.json']\n"
        "run('train', out + '/manifest.json', '--out-dir', out + '/models', "
        "*sys.argv[2].split())\n"
        "run('tune', out + '/manifest.json', *models, '--out', out + '/t.json')\n"
        "run('detect', out + '/test.wav', '--model', models[0], '--model', models[1])\n"
        "print(loaded())\n"
        "noise = np.random.default_rng(0).uniform(-0.5, 0.5, 11025 * 2)\n"
        "save_audio(out + '/low.wav', Waveform(noise, 11025))\n"
        "run('detect', out + '/low.wav', '--model', models[0])\n"
        "print('scipy.signal' in sys.modules, 'scipy.io' in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "corpus"), " ".join(TRAIN_ARGS),
         *SYNTH_ARGS],
        env=_package_env(), capture_output=True, text=True, check=True,
    )
    assert result.stdout.splitlines() == ["[]"] * 4 + ["True False"]


def test_features_do_not_depend_on_unset_blas_threads():
    # eventforest is imported before numpy, so its one-thread default applies
    code = (
        "import hashlib\n"
        "from eventforest.features import FeatureConfig, Waveform, featurize\n"
        "import numpy as np\n"
        "samples = np.random.default_rng(0).normal(size=6 * 16000) * 0.1\n"
        "rows = featurize(Waveform(samples, 16000), FeatureConfig()).matrix().rows\n"
        "print(hashlib.sha256(rows.tobytes()).hexdigest())\n"
    )
    digests = [
        subprocess.run(
            [sys.executable, "-c", code],
            env=_package_env(**dict.fromkeys(BLAS_THREAD_VARIABLES, value)),
            capture_output=True, text=True, check=True,
        ).stdout
        for value in (None, "1")
    ]
    assert digests[0] == digests[1]
