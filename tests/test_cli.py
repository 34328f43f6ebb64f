import json
import os
import resource
import shutil
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import eegintent
from eegintent import spectral
from eegintent.cli import config_hash, default_run_config, load_run_config, main
from eegintent.data import AcquisitionSpec, load_dataset, save_dataset
from eegintent.model import FeatureScaler
from eegintent.spectral import BandTable, read_features
from oracles import maker_of

TINY_CONFIG = {
    "synth": {
        "n_trials_per_class": 10,  # seeds 0 and 1 keep every cell >= 2 trials
        "seed": 0,
    },
    "model": {
        "encoder_dims": [16, 8],
        "class_head_dims": [8, 4],
        "domain_head_dims": [8, 2],
        "epochs": 8,
        "batch_size": 8,
        "seed": 2,
    },
    "split": {"test_fraction": 0.3, "seed": 1},
    "report": {"seeds": 2},
}


@pytest.fixture()
def tiny_config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return path


def run(*argv):
    return main(list(argv))


def _cap_child():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
    resource.setrlimit(resource.RLIMIT_FSIZE, (1 << 30, 1 << 30))


def run_capped(*argv):
    """The CLI in a subprocess whose address space is capped at 2 GiB and
    whose files at 1 GiB, so an oversized allocation or write fails there
    instead of taking the machine's memory or disk."""
    env = {**os.environ, "PYTHONPATH": str(Path(eegintent.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, "-m", "eegintent.cli", *argv], capture_output=True, text=True,
        env=env, timeout=120, preexec_fn=_cap_child,
    )


@pytest.fixture(scope="module")
def tiny_features(tmp_path_factory):
    """A feature file of the tiny dataset, shared by tests that only train."""
    out = tmp_path_factory.mktemp("tiny")
    cfg = out / "config.json"
    cfg.write_text(json.dumps(TINY_CONFIG))
    assert run("synth", "--config", str(cfg), "--out", str(out)) == 0
    features = out / "features.bin"
    assert run("features", "--config", str(cfg), "--dataset", str(out / "dataset.json"),
               "--out", str(features)) == 0
    return features


class TestConfig:
    def test_defaults_complete(self):
        cfg = default_run_config()
        assert set(cfg) == {"out_dir", "synth", "welch", "bands", "model",
                            "split", "stats", "report"}

    def test_overrides_merge(self, tiny_config_path):
        cfg = load_run_config(str(tiny_config_path))
        assert cfg.synth.n_trials_per_class == 10
        assert cfg.synth.misarticulation_rate == 0.3  # default retained
        assert cfg.model["epochs"] == 8

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"synht": {}}))
        assert run("synth", "--config", str(path), "--out", str(tmp_path)) == 1

    def test_hash_stable_and_sensitive(self, tiny_config_path):
        cfg = load_run_config(str(tiny_config_path))
        again = load_run_config(str(tiny_config_path))
        assert config_hash(cfg) == config_hash(again)
        cfg = replace(cfg, synth=replace(cfg.synth, seed=cfg.synth.seed + 1))
        assert config_hash(cfg) != config_hash(again)
        default_hash = "6ef3265905554e44bed8df79f2f298c1ec200b991a9c7b9bd5ec21545b84a170"
        assert config_hash(load_run_config(None)) == default_hash

    def test_model_section_hash_pinned(self, tmp_path):
        # CI's smoke config with a null bandwidth and an integer learning rate,
        # hashed as the model section was stored before it went through ModelConfig
        model = {"encoder_dims": [16, 8], "class_head_dims": [8, 4], "domain_head_dims": [8, 2],
                 "epochs": 4, "batch_size": 8, "mmd_bandwidth": None, "learning_rate": 1}
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"synth": {"n_trials_per_class": 10}, "model": model,
                                    "split": {"test_fraction": 0.3, "seed": 1},
                                    "report": {"seeds": 1}}))
        pinned = "6b610752c477e634a8f55cd0a3dc9265a689bfa11d569bc081895abf6c368494"
        assert config_hash(load_run_config(str(path))) == pinned

    @pytest.mark.parametrize(
        "bands, signatures, code",
        [
            # every signature's beta partner lands in a widened gamma band
            ({"beta": [13, 14], "gamma": [14, 50]}, None, 1),
            # 3.9 Hz signatures sit in theta once delta ends at 3 Hz
            ({"delta": [1, 3], "theta": [3, 8]},
             [[3.90625, 15.625], [5.859375, 19.53125],
              [6.8359375, 23.4375], [7.8125, 27.34375]], 0),
        ],
    )
    def test_signatures_checked_against_run_bands(self, tmp_path, capsys,
                                                  bands, signatures, code):
        synth = {"n_trials_per_class": 1}
        if signatures is not None:
            synth["class_signature_freqs_hz"] = signatures
        path = tmp_path / "c.json"
        path.write_text(json.dumps(
            {"synth": synth, "bands": {**BandTable().to_dict(), **bands}}))
        assert run("synth", "--config", str(path), "--out", str(tmp_path / "o")) == code
        err = capsys.readouterr().err
        assert ("synth: ValueError: synth.class_signature_freqs_hz" in err) == bool(code)


class TestPipeline:
    def test_full_chain(self, tmp_path, tiny_config_path, capsys):
        out = tmp_path / "run"
        cfg = ["--config", str(tiny_config_path)]

        assert run("synth", *cfg, "--out", str(out)) == 0
        manifest = out / "dataset.json"
        assert manifest.exists() and (out / "dataset.bin").exists()

        features = out / "features.bin"
        assert run("features", *cfg, "--dataset", str(manifest),
                   "--out", str(features)) == 0

        assert run("stats", *cfg, "--features", str(features),
                   "--out", str(out / "stats")) == 0
        for band in ("delta", "theta", "alpha", "beta", "gamma"):
            assert (out / "stats" / f"stats_{band}.csv").exists()
            assert (out / "stats" / f"topomap_{band}.svg").exists()

        model = out / "model.bin"
        assert run("train", *cfg, "--features", str(features),
                   "--mode", "multitask", "--out", str(model)) == 0
        assert model.exists()
        history = model.with_suffix(".history.csv")
        assert history.exists()
        lines = history.read_text().strip().split("\n")
        assert lines[1] == "epoch,l_class,l_domain,l_mmd,l_total"
        assert len(lines) == 2 + TINY_CONFIG["model"]["epochs"]

        report = out / "eval.json"
        assert run("eval", *cfg, "--features", str(features),
                   "--model", str(model), "--out", str(report)) == 0
        payload = json.loads(report.read_text())
        assert {"accuracy", "f1_all", "f1_correct", "f1_misarticulated",
                "confusion", "mode", "config_hash"} <= set(payload)

        printed = capsys.readouterr().out
        assert "accuracy" in printed

    def test_config_hash_embedded_everywhere(self, tmp_path, tiny_config_path):
        out = tmp_path / "run"
        cfg = ["--config", str(tiny_config_path)]
        chash = config_hash(load_run_config(str(tiny_config_path)))

        run("synth", *cfg, "--out", str(out))
        assert json.loads((out / "dataset.json").read_text())["config_hash"] == chash

        features = out / "features.bin"
        run("features", *cfg, "--dataset", str(out / "dataset.json"),
            "--out", str(features))
        header = json.loads(features.read_bytes().split(b"\n", 1)[0])
        assert header["config_hash"] == chash

        run("stats", *cfg, "--features", str(features), "--out", str(out / "stats"))
        csv_text = (out / "stats" / "stats_delta.csv").read_text()
        assert chash in csv_text
        svg_text = (out / "stats" / "topomap_delta.svg").read_text()
        assert chash in svg_text

    def test_alpha_flag_hashed(self, tmp_path, tiny_config_path, tiny_features):
        cfg = ["--config", str(tiny_config_path), "--features", str(tiny_features)]
        texts = []
        for alpha in ([], ["--alpha", "0.01"]):
            out = tmp_path / f"stats{len(alpha)}"
            assert run("stats", *cfg, *alpha, "--out", str(out)) == 0
            texts.append([(out / name).read_text().split("\n")[0]
                          for name in ("stats_delta.csv", "topomap_delta.svg")])
        for at_default, at_flag in zip(*texts):
            assert "config_hash=" in at_flag and at_default != at_flag

    def test_band_key_order_irrelevant(self, tmp_path, tiny_features):
        config = {**TINY_CONFIG, "bands": BandTable().to_dict()}
        models = []
        for name, text in (("canonical", json.dumps(config)),
                           ("sorted", json.dumps(config, sort_keys=True))):
            path = tmp_path / f"{name}.json"
            path.write_text(text)
            model = tmp_path / f"{name}.bin"
            assert run("train", "--config", str(path), "--features", str(tiny_features),
                       "--out", str(model)) == 0
            models.append(model.read_bytes())
        assert text.index('"alpha"') < text.index('"delta"')  # really reordered
        assert models[0] == models[1]

    def test_seed_flag_changes_dataset(self, tmp_path, tiny_config_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cfg = ["--config", str(tiny_config_path)]
        run("synth", *cfg, "--out", str(out_a), "--seed", "1")
        run("synth", *cfg, "--out", str(out_b), "--seed", "2")
        blob_a = (out_a / "dataset.bin").read_bytes()
        blob_b = (out_b / "dataset.bin").read_bytes()
        assert blob_a != blob_b


class TestExitCodes:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_no_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_missing_input_file_exits_1(self, tmp_path, capsys):
        code = run("features", "--dataset", str(tmp_path / "none.json"),
                   "--out", str(tmp_path / "f.bin"))
        assert code == 1
        err = capsys.readouterr().err
        assert "features" in err and "MissingFile" in err

    def test_feature_dim_mismatch_names_shape_error(self, tmp_path,
                                                    tiny_config_path, capsys):
        out = tmp_path / "run"
        cfg = ["--config", str(tiny_config_path)]
        run("synth", *cfg, "--out", str(out))
        features = out / "features.bin"
        run("features", *cfg, "--dataset", str(out / "dataset.json"),
            "--out", str(features))
        model = out / "model.bin"
        run("train", *cfg, "--features", str(features), "--out", str(model))

        # same dataset, coarser Welch grid -> different bin count F
        alt = tmp_path / "alt.json"
        alt_cfg = dict(TINY_CONFIG)
        alt_cfg["welch"] = {"segment_length": 256, "overlap": 128}
        alt.write_text(json.dumps(alt_cfg))
        alt_features = out / "alt_features.bin"
        assert run("features", "--config", str(alt), "--dataset",
                   str(out / "dataset.json"), "--out", str(alt_features)) == 0

        code = run("eval", *cfg, "--features", str(alt_features),
                   "--model", str(model), "--out", str(out / "eval.json"))
        assert code == 1
        err = capsys.readouterr().err
        assert "ShapeMismatch" in err

    def test_eval_names_other_layout_of_same_width(self, tmp_path, tiny_features, capsys):
        # 32 channels at 250 Hz: 32 x 100 bins, the 3,200 inputs of a 64 x 50 model
        model = tmp_path / "model.bin"
        assert run("train", "--features", str(tiny_features), "--out", str(model)) == 0
        tiny = load_dataset(tiny_features.parent / "dataset.json")
        spec = AcquisitionSpec(sample_rate_hz=250.0, n_channels=32, trial_seconds=6.0)
        save_dataset(replace(tiny, spec=spec, channel_names=tiny.channel_names[:32],
                             samples=maker_of([tiny.trial(i)[:32] for i in range(len(tiny))])),
                     tmp_path / "set.json",
                     config_hash="")
        features = tmp_path / "features.bin"
        assert run("features", "--dataset", str(tmp_path / "set.json"),
                   "--out", str(features)) == 0
        assert read_features(features).flat().shape[1] == 3200
        # the writer stamps the dataset's rate, not the default 500 Hz
        assert json.loads(features.read_bytes().split(b"\n", 1)[0])["sample_rate_hz"] == 250.0
        out = tmp_path / "eval.json"
        assert run("eval", "--features", str(features), "--model", str(model),
                   "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "eval: ShapeMismatch: features of 32 channels x 100 bins" in err
        assert "for a model of 64 channels x 50 bins" in err
        assert not out.exists()

    @pytest.mark.parametrize("split", [{"seed": 78}, {"test_fraction": 0.2}])
    def test_eval_refuses_model_of_other_split(self, tmp_path, tiny_features, capsys, split):
        # the model's scaler is refitted on eval's train split: another split
        # would score trials the model trained on
        trained, other = tmp_path / "trained.json", tmp_path / "other.json"
        trained.write_text(json.dumps(TINY_CONFIG))
        other.write_text(json.dumps({**TINY_CONFIG, "split": {**TINY_CONFIG["split"], **split}}))
        model, out = tmp_path / "model.bin", tmp_path / "eval.json"
        assert run("train", "--config", str(trained), "--features", str(tiny_features),
                   "--mode", "baseline", "--out", str(model)) == 0
        assert run("eval", "--config", str(other), "--features", str(tiny_features),
                   "--model", str(model), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert f"eval: SplitMismatch: {model} was not trained on the train split" in err
        key, value = next(iter(split.items()))
        assert f"split.{key} {value}" in err and "Traceback" not in err
        assert not out.exists()
        assert run("eval", "--config", str(trained), "--features", str(tiny_features),
                   "--model", str(model), "--out", str(out)) == 0

    @pytest.mark.parametrize(
        "key, value",
        [
            ("epochs", "2"),
            ("epochs", 0),
            ("epochs", True),
            ("epochs", 2.0),
            ("batch_size", 0),
            ("seed", -1),
            ("seed", 1.5),
            ("learning_rate", "0.1"),
            ("learning_rate", float("nan")),
            ("learning_rate", -1),
            ("weight_init_scale", -1),
            ("lambda1", float("inf")),
            ("gamma_sup", None),
            ("mmd_bandwidth", "1.0"),
        ],
    )
    def test_bad_model_value_names_value_error(self, tmp_path, tiny_features,
                                               capsys, key, value):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {**TINY_CONFIG, "model": {**TINY_CONFIG["model"], key: value}}))
        code = run("train", "--config", str(path), "--features", str(tiny_features),
                   "--out", str(tmp_path / "m.bin"))
        assert code == 1
        err = capsys.readouterr().err
        assert "train: ValueError: model." in err and key in err
        assert not (tmp_path / "m.bin").exists()

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["train", "--seed", "-1", "--features", "none.bin"], "model.seed"),
            (["stats", "--alpha", "0", "--features", "none.bin"], "stats.alpha"),
            (["report", "--seeds", "0"], "report.seeds"),
            (["synth", "--seed", "-1"], "synth.seed"),
            (["report", "--seed", "-1"], "synth.seed"),
        ],
    )
    def test_bad_flag_value_names_key_before_reading(self, tmp_path, capsys, argv, key):
        assert run(*argv, "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert f"{argv[0]}: ValueError: {key} " in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("band, stage", [((10.0, 10.5), "features"), ((10.0, 11.0), "stats")])
    def test_band_without_two_bins_named(self, tmp_path, tiny_features, capsys, band, stage):
        # 512-sample Welch bins sit 0.98 Hz apart: none in [10, 10.5], one in [10, 11]
        manifest = json.loads((tiny_features.parent / "dataset.json").read_text())
        manifest["spec"]["band_low_hz"], manifest["spec"]["band_high_hz"] = band
        (tmp_path / "dataset.json").write_text(json.dumps(manifest))
        shutil.copy(tiny_features.parent / "dataset.bin", tmp_path)
        features = tmp_path / "features.bin"
        code = run("features", "--dataset", str(tmp_path / "dataset.json"),
                   "--out", str(features))
        if stage == "stats":
            assert code == 0
            code = run("stats", "--features", str(features), "--out", str(tmp_path / "stats"))
        assert code == 1
        assert f"{stage}: EmptyBand" in capsys.readouterr().err

    def test_segment_longer_than_trial_named(self, tmp_path, tiny_features, capsys):
        # default trials hold 1500 samples
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({"welch": {"segment_length": 2048, "overlap": 0}}))
        features = tmp_path / "features.bin"
        code = run("features", "--config", str(cfg_path),
                   "--dataset", str(tiny_features.parent / "dataset.json"), "--out", str(features))
        assert code == 1
        assert "features: SignalTooShort" in capsys.readouterr().err
        assert not features.exists()

    def test_huge_segment_named_before_allocating(self, tmp_path, tiny_features):
        # 2**40 samples: a bin-index array of it alone would be 4 TiB
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({"welch": {"segment_length": 2**40, "overlap": 0}}))
        proc = run_capped("features", "--config", str(cfg_path), "--dataset",
                          str(tiny_features.parent / "dataset.json"),
                          "--out", str(tmp_path / "features.bin"))
        assert proc.returncode == 1
        assert "error: features: SignalTooShort: signal length 1500 < segment length" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_memory_error_named(self, tmp_path):
        # 40 million trials: a 14 TiB blob, refused before its first trial
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({"synth": {"n_trials_per_class": 10_000_000}}))
        proc = run_capped("synth", "--config", str(cfg_path), "--out", str(tmp_path))
        assert proc.returncode == 1
        assert "error: synth: IoFailure: cannot write " in proc.stderr
        assert f"dataset.bin: {40_000_000 * 64 * 1500 * 4} bytes needed, " in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "dataset.json").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

    def test_cell_too_small_named(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({
            **TINY_CONFIG,
            "synth": {"n_trials_per_class": 2, "seed": 3},
        }))
        out = tmp_path / "run"
        run("synth", "--config", str(cfg_path), "--out", str(out))
        features = out / "features.bin"
        run("features", "--config", str(cfg_path),
            "--dataset", str(out / "dataset.json"), "--out", str(features))
        code = run("train", "--config", str(cfg_path), "--features", str(features),
                   "--out", str(out / "m.bin"))
        assert code == 1
        assert "CellTooSmall" in capsys.readouterr().err

    @pytest.mark.parametrize("probe", ["list channel name", "duplicate channel name",
                                       "reversed bin frequencies"])
    def test_bad_feature_header_named_by_every_reader(self, tmp_path, tiny_features,
                                                      tiny_config_path, capsys, probe):
        head, _, blob = tiny_features.read_bytes().partition(b"\n")
        header = json.loads(head)
        if probe == "list channel name":
            header["channel_names"][0] = ["Fp1"]
        elif probe == "duplicate channel name":
            header["channel_names"][1] = header["channel_names"][0]
        else:
            header["bin_freqs_hz"] = header["bin_freqs_hz"][::-1]
        features = tmp_path / "features.bin"
        features.write_bytes(json.dumps(header).encode() + b"\n" + blob)
        for stage in ("stats", "train"):
            out = tmp_path / stage
            code = run(stage, "--config", str(tiny_config_path), "--features", str(features),
                       "--out", str(out))
            err = capsys.readouterr().err
            assert code == 1, stage
            assert f"{stage}: MalformedManifest" in err and "features.bin" in err
            assert "Traceback" not in err and not out.exists()


def listing(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in directory.iterdir()}


TRIAL_BYTES = 64 * 1500 * 4  # one default trial in the dataset blob


class TestStreamedStages:
    """synth writes and features reads the dataset blob one trial at a time."""

    @pytest.fixture()
    def no_features(self, monkeypatch):
        """Fails a test in which the Welch kernel is built, i.e. features are computed."""
        def refuse(*args):
            raise AssertionError("features computed")
        monkeypatch.setattr(spectral, "welch_kernel", refuse)

    @pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
    def test_failed_synth_keeps_previous_files(self, tmp_path, tiny_config_path, capsys):
        out = tmp_path / "run"
        assert run("synth", "--config", str(tiny_config_path), "--out", str(out)) == 0
        before = listing(out)
        # 1e38 microvolts of noise overflows float32 part-way through the blob
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"synth": {"n_trials_per_class": 10, "pink_noise_scale": 1e38}}))
        assert run("synth", "--config", str(bad), "--out", str(out)) == 1
        assert "error: synth: NonFiniteSample: trial " in capsys.readouterr().err
        assert listing(out) == before  # the same two files: no temporary left

    def test_smaller_synth_over_larger_leaves_no_tail(self, tmp_path):
        out, fresh = tmp_path / "run", tmp_path / "fresh"
        for per_class, directory in ((100, out), (10, out), (10, fresh)):
            cfg = tmp_path / f"c{per_class}.json"
            cfg.write_text(json.dumps({"synth": {"n_trials_per_class": per_class}}))
            assert run("synth", "--config", str(cfg), "--out", str(directory)) == 0
        assert (out / "dataset.bin").stat().st_size == 40 * TRIAL_BYTES
        assert listing(out) == listing(fresh)
        assert len(load_dataset(out / "dataset.json")) == 40

    def test_non_finite_trials_named_before_features(self, tmp_path, tiny_features, capsys,
                                                     no_features):
        for name in ("dataset.json", "dataset.bin"):
            shutil.copy(tiny_features.parent / name, tmp_path / name)
        blob = bytearray((tmp_path / "dataset.bin").read_bytes())
        for trial, sample in ((3, 5), (1, 700)):
            offset = trial * TRIAL_BYTES + 4 * sample
            blob[offset : offset + 4] = np.float32(np.nan).tobytes()
        (tmp_path / "dataset.bin").write_bytes(bytes(blob))
        out = tmp_path / "features.bin"
        assert run("features", "--dataset", str(tmp_path / "dataset.json"), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "error: features: NonFiniteSample: trial 1: samples contain non-finite" in err
        assert not out.exists()

    def test_truncated_blob_named_before_features(self, tmp_path, tiny_features, capsys,
                                                  no_features):
        shutil.copy(tiny_features.parent / "dataset.json", tmp_path / "dataset.json")
        blob = (tiny_features.parent / "dataset.bin").read_bytes()
        (tmp_path / "dataset.bin").write_bytes(blob[: 5 * TRIAL_BYTES // 2])
        out = tmp_path / "features.bin"
        assert run("features", "--dataset", str(tmp_path / "dataset.json"), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "error: features: DimensionMismatch: trial 2: expected bytes of dataset.bin" in err
        assert not out.exists()

    def test_stage_chain_peaks_below_a_quarter_of_the_trial_table(self, tmp_path):
        # the default 200 trials: a 76.8 MB trial table that neither stage holds
        table_bytes = 200 * TRIAL_BYTES
        features = tmp_path / "features.bin"
        peaks = []
        for argv in (["synth", "--out", str(tmp_path)],
                     ["features", "--dataset", str(tmp_path / "dataset.json"),
                      "--out", str(features)]):
            tracemalloc.start()
            try:
                assert run(*argv) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # numpy's buffers are traced: synth holds a float64 trial, and features
        # its float32 table of 50 Welch bins per channel
        assert 2 * TRIAL_BYTES < peaks[0] < table_bytes / 4
        assert 200 * 64 * 50 * 4 < peaks[1] < table_bytes / 4


class TestReport:
    def test_report_structure_and_determinism(self, tmp_path, tiny_config_path):
        cfg = ["--config", str(tiny_config_path)]
        out_a, out_b = tmp_path / "ra", tmp_path / "rb"
        assert run("report", *cfg, "--out", str(out_a)) == 0
        assert run("report", *cfg, "--out", str(out_b)) == 0

        csv_a = (out_a / "report.csv").read_text()
        lines = csv_a.strip().split("\n")
        # hash comment + header + 2 seeds x 2 modes + 2 mean rows
        assert len(lines) == 2 + 4 + 2
        assert lines[1].startswith("seed,mode,accuracy")
        assert lines[-1].startswith("mean,multitask")

        payload = json.loads((out_a / "report.json").read_text())
        assert payload["n_seeds"] == 2
        assert len(payload["per_seed"]) == 2
        assert {"baseline", "multitask"} <= set(payload["mean"])

        table = (out_a / "comparison.txt").read_text()
        assert "baseline" in table and "multitask" in table

        for name in ("report.csv", "report.json", "comparison.txt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for svg in sorted((out_a / "topomaps").glob("*.svg")):
            twin = out_b / "topomaps" / svg.name
            assert svg.read_bytes() == twin.read_bytes()

    def test_report_fits_one_scaler_per_seed(self, tmp_path, tiny_config_path, monkeypatch):
        fitted = []
        fit = FeatureScaler.fit.__func__
        monkeypatch.setattr(FeatureScaler, "fit",
                            classmethod(lambda cls, x: fitted.append(len(x)) or fit(cls, x)))
        assert run("report", "--config", str(tiny_config_path), "--out", str(tmp_path)) == 0
        assert len(fitted) == TINY_CONFIG["report"]["seeds"]  # both modes share a seed's split

    def test_report_matches_stage_chain(self, tmp_path):
        # one seed, so the chain and report share a config and a config_hash
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**TINY_CONFIG, "report": {"seeds": 1}}))
        cfg, out = ["--config", str(config)], tmp_path / "chain"
        features = out / "features.bin"
        assert run("synth", *cfg, "--out", str(out)) == 0
        assert run("features", *cfg, "--dataset", str(out / "dataset.json"),
                   "--out", str(features)) == 0
        assert run("stats", *cfg, "--features", str(features), "--out", str(out / "stats")) == 0
        evals = {}
        for mode in ("baseline", "multitask"):
            model, evals[mode] = out / f"model_{mode}.bin", out / f"eval_{mode}.json"
            assert run("train", *cfg, "--features", str(features), "--mode", mode,
                       "--out", str(model)) == 0
            assert run("eval", *cfg, "--features", str(features), "--model", str(model),
                       "--out", str(evals[mode])) == 0
        report = tmp_path / "report"
        assert run("report", *cfg, "--out", str(report)) == 0

        stats = sorted(p.name for p in (out / "stats").iterdir())
        assert stats == sorted(p.name for p in (report / "topomaps").iterdir())
        for name in stats:
            assert (report / "topomaps" / name).read_bytes() == (out / "stats" / name).read_bytes()
        (row,) = json.loads((report / "report.json").read_text())["per_seed"]
        for mode, path in evals.items():
            payload = json.loads(path.read_text())
            assert payload.pop("config_hash") and payload.pop("mode") == mode
            assert row[mode] == payload

    def test_seeds_flag_overrides(self, tmp_path, tiny_config_path):
        out = tmp_path / "r"
        assert run("report", "--config", str(tiny_config_path),
                   "--out", str(out), "--seeds", "1") == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["n_seeds"] == 1
