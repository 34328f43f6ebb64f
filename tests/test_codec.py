"""The shared file codec and config schema: byte-pinned formats, atomic
writes, and named errors for every malformed file or config value."""

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eegintent import model
from eegintent.cli import default_run_config, load_run_config, main
from eegintent.codec import write_atomic
from eegintent.data import (
    AcquisitionSpec,
    Dataset,
    load_dataset,
    save_dataset,
)
from eegintent.errors import IoFailure, MalformedManifest, PipelineError
from eegintent.model import (
    FeatureScaler,
    Layer,
    ModelConfig,
    ModelParams,
    TrainMode,
    backward,
    init_params,
    input_mask,
    load_model,
    save_model,
)
from eegintent.montage import default_montage
from eegintent.spectral import FeatureSet, read_features, write_features

# SHA-256 of the files pinned_files writes, recorded from the release that
# introduced each format; a codec change must not alter a byte of them.
PINNED_DIGESTS = {
    "features.bin": "cab8196280ba7833a00cc52b9d3288c9817f606e02330dfae7bf910a2c404590",
    "model.bin": "842862d6aff0746fa419547b7426769b3236e5f6fa065f013f90a44d623576f1",
    "set.bin": "94a4f7a267d0b40846003521590cf9567aecc7a29b4e0642aecc2d7321853102",
    "set.json": "6cf2e927ce7e400193899bb60f4da3b0fdb90f1a806b3075464fa00e5c064388",
}

FREQS = (2.0, 6.0, 10.0, 35.0)


def pinned_files(out: Path) -> dict:
    """A dataset, a feature file and a model file from fixed hand-made
    arrays (no BLAS, no training); returns {name: path}."""
    spec = AcquisitionSpec(sample_rate_hz=32.0, n_channels=3, trial_seconds=1.0,
                           band_low_hz=1.0, band_high_hz=8.0)
    names = default_montage().channel_names[:3]
    ids = np.arange(3)
    samples = (np.arange(3 * 32).reshape(3, 32) - 40.0 * ids[:, None, None]) / 8.0
    save_dataset(Dataset(spec, names, samples, ids, ids % 4, ids % 2), out / "set.json",
                 config_hash="ab" * 32)
    values = np.arange(3 * 3 * 4, dtype=np.float32).reshape(3, 3, 4) / 16.0 - 1.0
    features = FeatureSet(values, np.array(FREQS), names, np.array([0, 1, 2]),
                          np.array([0, 1, 2]), np.array([0, 1, 0]))
    write_features(features, out / "features.bin", sample_rate_hz=32.0, config_hash="cd" * 32)
    config = ModelConfig(n_channels=3, bin_freqs_hz=FREQS, encoder_dims=(5, 3),
                         class_head_dims=(4,), domain_head_dims=(2,), seed=4)
    dims = ((12, 5, 3), (3, 4), (3, 2))
    stacks = [[Layer(np.arange(a * b).reshape(a, b) / (a * b) - 0.5, np.arange(b) / 4.0)
               for a, b in zip(d[:-1], d[1:])] for d in dims]
    scaler = FeatureScaler(np.linspace(-1.0, 1.0, 12), np.linspace(0.5, 2.0, 12))
    save_model(ModelParams(*stacks, input_mask(config)), config, out / "model.bin",
               mode=TrainMode.MULTITASK, config_hash="ef" * 32, scaler=scaler)
    return {name: out / name for name in PINNED_DIGESTS}


@pytest.fixture()
def files(tmp_path):
    return pinned_files(tmp_path)


def header_and_blob(path: Path):
    head, _, blob = path.read_bytes().partition(b"\n")
    return json.loads(head), blob


def rewrite(path: Path, header, blob: bytes = b"") -> None:
    path.write_bytes(json.dumps(header).encode() + b"\n" + blob)


def run(*argv) -> int:
    return main([str(a) for a in argv])


# --- format pin and atomic writes -----------------------------------------

def test_format_pin(files):
    digests = {name: hashlib.sha256(p.read_bytes()).hexdigest() for name, p in files.items()}
    assert digests == PINNED_DIGESTS


def test_pinned_files_round_trip(files):
    assert len(load_dataset(files["set.json"])) == 3
    assert read_features(files["features.bin"]).values.shape == (3, 3, 4)
    params, config, mode, scaler = load_model(files["model.bin"])
    assert mode is TrainMode.MULTITASK and config.encoder_dims == (5, 3)
    assert [layer.w.shape for layer in params.all_layers()] == [(12, 5), (5, 3), (3, 4), (3, 2)]


def test_features_read_as_the_float32_blob(files):
    # the blob itself, read-only, not a float64 copy
    values = read_features(files["features.bin"]).values
    _, blob = header_and_blob(files["features.bin"])
    assert values.dtype == np.float32 and not values.flags.writeable
    assert values.tobytes() == blob


def test_write_features_stamps_the_given_hash(files, tmp_path):
    features = read_features(files["features.bin"])
    for chash in ("01" * 32, None):
        write_features(features, tmp_path / "again.bin", sample_rate_hz=32.0, config_hash=chash)
        assert header_and_blob(tmp_path / "again.bin")[0]["config_hash"] == chash
    assert header_and_blob(files["features.bin"])[0]["config_hash"] == "cd" * 32


def test_failed_write_keeps_previous_file_and_leaves_no_temp(tmp_path):
    target = tmp_path / "out.bin"
    target.write_bytes(b"previous")

    def chunks():
        yield b"half of the new file"
        raise OSError("disk full")

    with pytest.raises(IoFailure, match="disk full"):
        write_atomic(target, chunks())
    assert target.read_bytes() == b"previous"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


def test_interrupted_write_leaves_no_temp(tmp_path):
    target = tmp_path / "out.bin"

    def chunks():
        yield b"x"
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        write_atomic(target, chunks())
    assert list(tmp_path.iterdir()) == []


# --- malformed files end as named errors ----------------------------------

def test_non_object_header_in_every_reader(files):
    rewrite(files["features.bin"], [1])
    with pytest.raises(MalformedManifest, match="object"):
        read_features(files["features.bin"])
    rewrite(files["model.bin"], [1])
    with pytest.raises(MalformedManifest, match="object"):
        load_model(files["model.bin"])
    files["set.json"].write_text("[1]")
    with pytest.raises(MalformedManifest, match="object"):
        load_dataset(files["set.json"])


def test_manifest_trials_not_a_list(files, capsys):
    manifest = json.loads(files["set.json"].read_text())
    manifest["trials"] = 5
    files["set.json"].write_text(json.dumps(manifest))
    assert run("features", "--dataset", files["set.json"], "--out", files["set.json"].parent / "f.bin") == 1
    err = capsys.readouterr().err
    assert "features: MalformedManifest" in err and "set.json" in err


def corrupt_features(path: Path, defect: str) -> None:
    header, blob = header_and_blob(path)
    values = np.frombuffer(blob, dtype="<f4").copy()
    if defect == "negative dims":
        header["n_trials"], header["n_channels"] = -3, -3
    elif defect == "nan":
        values[5] = np.nan
    elif defect == "bin_freqs_hz":
        header["bin_freqs_hz"] = header["bin_freqs_hz"][:-1]
    elif defect == "channel_names":
        header["channel_names"] = header["channel_names"][:2]
    elif defect == "trials":
        header["trials"] = header["trials"][:2]
    elif defect == "class_label":
        header["trials"][0]["class_label"] = 7
    elif defect.startswith("sample_rate_hz="):
        header["sample_rate_hz"] = json.loads(defect.partition("=")[2])
    rewrite(path, header, values.tobytes())


@pytest.mark.parametrize("defect", ["negative dims", "nan", "bin_freqs_hz",
                                    "channel_names", "trials", "class_label",
                                    *(f"sample_rate_hz={v}" for v in
                                      ("NaN", "-Infinity", "true", "-5", '"fast"'))])
def test_bad_feature_file_named(files, capsys, defect):
    corrupt_features(files["features.bin"], defect)
    with pytest.raises(MalformedManifest):
        read_features(files["features.bin"])
    out = files["features.bin"].parent / "stats"
    assert run("stats", "--features", files["features.bin"], "--out", out) == 1
    err = capsys.readouterr().err
    assert "stats: MalformedManifest" in err and "features.bin" in err


@pytest.mark.parametrize("field, value", [("trial_id", True), ("domain_label", "slurred"),
                                          ("trial_id", 1)])  # trial 1 has id 1 already
def test_bad_trial_entry_named(files, field, value):
    header, blob = header_and_blob(files["features.bin"])
    header["trials"][0][field] = value
    rewrite(files["features.bin"], header, blob)
    with pytest.raises(MalformedManifest, match=f"features.bin: .*{field}"):
        read_features(files["features.bin"])


def corrupt_model(path: Path, defect: str) -> None:
    header, blob = header_and_blob(path)
    weights = np.frombuffer(blob, dtype="<f4").copy()
    if defect == "inf":
        weights[3] = np.inf
    elif defect == "negative shape":
        header["layer_shapes"][0] = [[12, -5], [-5]]
    elif defect == "swapped heads":  # shapes that would put layers in the wrong head
        header["config"]["encoder_dims"] = [5]
        header["config"]["class_head_dims"] = [3, 4]
    elif defect == "scaler length":  # mean and std agree, but not with the input dim
        scaling = header["feature_scaling"]
        scaling["mean"], scaling["std"] = scaling["mean"][:-1], scaling["std"][:-1]
    elif defect == "scaler std":
        header["feature_scaling"]["std"][2] = 0.0
    elif defect == "null scaler":  # no writer leaves the scaler out
        header["feature_scaling"] = None
    elif defect == "no scaler":
        del header["feature_scaling"]
    elif defect == "negative dims in config":
        header["config"]["encoder_dims"] = [-5, 3]
    rewrite(path, header, weights.tobytes())


@pytest.mark.parametrize("defect", ["inf", "negative shape", "swapped heads",
                                    "scaler length", "scaler std", "null scaler",
                                    "no scaler", "negative dims in config"])
def test_bad_model_file_named(files, capsys, defect):
    corrupt_model(files["model.bin"], defect)
    with pytest.raises(MalformedManifest):
        load_model(files["model.bin"])
    out = files["model.bin"].parent / "eval.json"
    assert run("eval", "--features", files["features.bin"], "--model", files["model.bin"],
               "--out", out) == 1
    err = capsys.readouterr().err
    assert "eval: MalformedManifest" in err and "model.bin" in err


# --- config values are checked once, at load ------------------------------

@pytest.mark.parametrize(
    "config, key",
    [
        ({"synth": {"n_trials_per_class": "x"}}, "synth.n_trials_per_class"),
        ({"split": {"test_fraction": "x"}}, "split.test_fraction"),
        ({"welch": {"overlap": "a"}}, "welch.overlap"),
        ({"welch": {"segment_length": 500}}, "welch.segment_length"),
        ({"bands": {"delta": 5}}, "bands.delta"),
        ({"model": {"encoder_dims": 5}}, "model.encoder_dims"),
        ({"synth": {"delta_freqs_hz": 3}}, "synth.delta_freqs_hz"),
        ({"stats": {"alpha": "x"}}, "stats.alpha"),
        ({"report": {"seeds": "x"}}, "report.seeds"),
        ({"model": {"n_channels": 3}}, "model.n_channels"),
        ({"out_dir": 5}, "out_dir"),
    ],
)
def test_bad_config_value_names_key(tmp_path, capsys, config, key):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    with pytest.raises(ValueError, match=key.replace(".", r"\.")):
        load_run_config(str(path))
    # every stage checks the whole config before it does anything
    assert run("synth", "--config", path, "--out", tmp_path / "run") == 1
    err = capsys.readouterr().err
    assert "synth: ValueError" in err and key in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv, config", [
    (["--alpha", "5"], {}),
    (["--alpha", "-1"], {}),
    (["--alpha", "0"], {}),
    (["--alpha", "1"], {}),
    ([], {"stats": {"alpha": 0}}),
    ([], {"stats": {"alpha": 1.5}}),
])
def test_stats_alpha_outside_unit_interval(files, capsys, argv, config):
    path = files["set.json"].parent / "config.json"
    path.write_text(json.dumps(config))
    out = files["set.json"].parent / "stats"
    assert run("stats", "--config", path, "--features", files["features.bin"],
               "--out", out, *argv) == 1
    err = capsys.readouterr().err
    assert "stats: ValueError" in err and "alpha" in err
    assert not out.exists()


def test_default_config_round_trips(tmp_path):
    path = tmp_path / "defaults.json"
    path.write_text(json.dumps(default_run_config(), sort_keys=True))
    assert load_run_config(str(path)).to_dict() == default_run_config()


# --- the MMD term builds one distance matrix per step -----------------------

def test_mmd_kernels_built_once_per_step(monkeypatch):
    calls = []
    original = model._sq_dists

    def counting(a, b):
        calls.append(len(a))
        return original(a, b)

    monkeypatch.setattr(model, "_sq_dists", counting)
    rng = np.random.default_rng(0)
    x, y_class, y_domain = rng.normal(size=(8, 12)), np.arange(8) % 4, np.arange(8) % 2
    for bandwidth in (1.0, None):
        config = ModelConfig(n_channels=3, bin_freqs_hz=FREQS, encoder_dims=(6,),
                             class_head_dims=(4,), domain_head_dims=(2,), seed=1,
                             mmd_bandwidth=bandwidth)
        calls.clear()
        backward(init_params(config), x, y_class, y_domain, config)
        assert calls == [8], bandwidth


# --- fuzz: readers and the config loader raise only named errors ----------

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])
READERS = {"set.json": load_dataset, "set.bin": lambda p: load_dataset(p.with_suffix(".json")),
           "features.bin": read_features, "model.bin": load_model}


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """The bytes of each pinned file, mutated per example below."""
    return {name: p.read_bytes() for name, p in pinned_files(tmp_path_factory.mktemp("pin")).items()}


def read_mutated(pristine, name: str, data: bytes) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        paths = {n: Path(tmp) / n for n in pristine}
        for n, p in paths.items():
            p.write_bytes(data if n == name else pristine[n])
        try:
            READERS[name](paths[name])
        except PipelineError:
            pass


@FUZZ
@given(st.sampled_from(sorted(READERS)), st.floats(0.0, 1.0))
def test_truncated_files(pristine, name, where):
    raw = pristine[name]
    read_mutated(pristine, name, raw[: int(where * (len(raw) - 1))])


@FUZZ
@given(st.sampled_from(sorted(READERS)), st.floats(0.0, 1.0), st.integers(0, 7))
def test_bit_flipped_files(pristine, name, where, bit):
    raw = bytearray(pristine[name])
    raw[int(where * (len(raw) - 1))] ^= 1 << bit
    read_mutated(pristine, name, bytes(raw))


@FUZZ
@given(st.sampled_from(["set.json", "features.bin", "model.bin"]), JSON)
def test_replaced_headers(pristine, name, value):
    raw = pristine[name]
    blob = b"" if name == "set.json" else raw[raw.index(b"\n"):]
    read_mutated(pristine, name, json.dumps(value).encode() + blob)


@FUZZ
@given(st.sampled_from(["set.json", "features.bin", "model.bin"]), st.data(), JSON)
def test_replaced_header_fields(pristine, name, data, value):
    raw = pristine[name]
    newline = len(raw) if name == "set.json" else raw.index(b"\n")
    header = json.loads(raw[:newline])
    target, key = header, data.draw(st.sampled_from(sorted(header)))
    child = target[key]
    if isinstance(child, list) and child and isinstance(child[0], dict):
        child = child[0]  # a trial entry
    if isinstance(child, dict) and child and data.draw(st.booleans()):
        target, key = child, data.draw(st.sampled_from(sorted(child)))
    target[key] = value
    read_mutated(pristine, name, json.dumps(header).encode() + raw[newline:])


SECTIONS = default_run_config()


@FUZZ
@given(st.one_of(
    JSON,
    st.sampled_from(sorted(SECTIONS)).flatmap(lambda section: st.fixed_dictionaries({
        section: JSON if not isinstance(SECTIONS[section], dict) else st.dictionaries(
            st.sampled_from(sorted(SECTIONS[section]) or ["x"]), JSON, max_size=3)
    })),
))
def test_any_config_document(document):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(document))
        try:
            load_run_config(str(path))
        except (PipelineError, ValueError):
            pass
