import json

import numpy as np
import pytest

from eegintent.data import (
    AcquisitionSpec,
    Dataset,
    load_dataset,
    save_dataset,
    stratified_split_indices,
)
from eegintent.errors import (
    CellTooSmall,
    DimensionMismatch,
    IoFailure,
    MalformedManifest,
    MissingFile,
    NonFiniteSample,
)
from eegintent.montage import default_montage
from eegintent.spectral import WelchConfig, extract_feature_set
from oracles import maker_of


def tiny_spec(n_channels=4, n_samples=32):
    return AcquisitionSpec(
        sample_rate_hz=float(n_samples),
        n_channels=n_channels,
        trial_seconds=1.0,
        band_low_hz=1.0,
        band_high_hz=n_samples / 4.0,
    )


def make_dataset(n_trials=8, n_channels=4, n_samples=32, seed=0):
    spec = tiny_spec(n_channels, n_samples)
    rng = np.random.default_rng(seed)
    names = default_montage().channel_names[:n_channels]
    ids = np.arange(n_trials)
    return Dataset(spec, names, maker_of(rng.normal(size=(n_trials, n_channels, n_samples))),
                   ids, ids % 4, ids % 2)


class TestAcquisitionSpec:
    def test_default_sample_count(self):
        assert AcquisitionSpec().n_samples == 1500

    def test_band_must_fit_under_nyquist(self):
        with pytest.raises(ValueError):
            AcquisitionSpec(sample_rate_hz=80.0)  # 50 Hz > Nyquist
        with pytest.raises(ValueError):
            AcquisitionSpec(band_low_hz=10.0, band_high_hz=5.0)


class TestValidation:
    def test_class_label_range(self):
        ds = make_dataset(1)
        with pytest.raises(ValueError, match="class_label must be in 0..3, got 4"):
            Dataset(ds.spec, ds.channel_names, ds.samples, [0], [4], [0])

    def test_array_samples_refused(self):
        # a table in memory is wrapped as a maker; the dataset holds a blob's Path or a maker
        ds = make_dataset(1)
        with pytest.raises(TypeError, match="Path of a blob or a maker of trial i, got ndarray"):
            Dataset(ds.spec, ds.channel_names, np.zeros((1, 4, 32)), [0], [0], [0])

    def test_duplicate_trial_ids(self):
        ds = make_dataset(2)
        with pytest.raises(ValueError, match="duplicate"):
            Dataset(ds.spec, ds.channel_names, ds.samples, [0, 0], [0, 0], [0, 0])

    @pytest.mark.parametrize("names, message", [
        ((["Fp1"], "Fp2", "F3", "F4"), r"channel_names\[0\] must be a str"),
        (("Fp1", "Fp1", "F3", "F4"), "unique"),
        (("Fp1", "Fp2", "F3"), "3 channel names for 4 channels"),
        (("Fp1", "Fp2", "F3", "Xz"), "'Xz' is not in the montage"),
    ])
    def test_channel_names_checked(self, names, message):
        ds = make_dataset(1)
        with pytest.raises(ValueError, match=message):
            Dataset(ds.spec, names, ds.samples, [0], [0], [0])

    def test_dimension_mismatch(self, tmp_path):
        # checked as a maker's trial is read: written, a longer trial would run
        # into the next one's bytes and load back without an error
        ds = make_dataset(2)
        for shape in ((3, 32), (4, 31), (4, 33)):
            wrong = Dataset(ds.spec, ds.channel_names, maker_of(np.zeros((2, *shape))), [4, 5],
                            [0, 0], [0, 0])
            with pytest.raises(DimensionMismatch, match=r"trial 5: expected samples of shape"):
                wrong.trial(1)
            with pytest.raises(DimensionMismatch):
                save_dataset(wrong, tmp_path / "set.json", config_hash="")
            assert list(tmp_path.iterdir()) == []

    def test_non_finite_maker_trial_named_on_every_route(self, tmp_path):
        # a table in memory wrapped as in README's Library section, NaN in trial 2
        spec = AcquisitionSpec()
        table = np.zeros((4, spec.n_channels, spec.n_samples))
        table[2, 5, 700] = np.nan
        ids = np.arange(4)
        ds = Dataset(spec, default_montage().channel_names[: spec.n_channels], maker_of(table),
                     ids, ids % 4, ids % 2)
        with pytest.raises(NonFiniteSample, match="^trial 2: samples contain non-finite"):
            extract_feature_set(ds, WelchConfig())
        with pytest.raises(NonFiniteSample, match="^trial 2: samples contain non-finite"):
            save_dataset(ds, tmp_path / "set.json", config_hash="")
        assert list(tmp_path.iterdir()) == []  # no manifest, blob or temporary file

    @pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
    def test_float32_overflow_named_when_written(self, tmp_path):
        # a finite float64 trial the blob cannot hold: refused as written, not read back
        ds = make_dataset(3)
        table = np.zeros((3, 4, 32))
        table[1, 0, 0] = 1e39
        wide = Dataset(ds.spec, ds.channel_names, table.__getitem__, [7, 8, 9], [0, 0, 0],
                       [0, 0, 0])
        assert wide.trial(1)[0, 0] == 1e39
        with pytest.raises(NonFiniteSample, match="^trial 8: "):
            save_dataset(wide, tmp_path / "set.json", config_hash="")
        assert list(tmp_path.iterdir()) == []

    def test_unknown_channel_name(self):
        ds = make_dataset(1)
        with pytest.raises(ValueError, match="montage"):
            Dataset(ds.spec, ("Fp1", "Fp2", "XX", "F7"), ds.samples, ds.trial_ids,
                    ds.class_labels, ds.domain_labels)


class TestRoundTrip:
    def test_round_trip_bit_exact(self, tmp_path):
        ds = make_dataset(8)
        path = tmp_path / "set.json"
        save_dataset(ds, path, config_hash="")
        loaded = load_dataset(path)
        assert loaded.spec == ds.spec
        assert loaded.channel_names == ds.channel_names
        assert len(loaded) == len(ds)
        for name in ("trial_ids", "class_labels", "domain_labels"):
            assert getattr(loaded, name).dtype == np.int64
            assert np.array_equal(getattr(loaded, name), getattr(ds, name))
        # read one trial at a time from the blob, each float32 and read-only
        trials = [loaded.trial(i) for i in range(len(loaded))]
        assert all(t.dtype == np.float32 and not t.flags.writeable for t in trials)
        assert np.stack(trials).tobytes() == np.stack([ds.trial(i) for i in range(8)]).tobytes()

    def test_second_save_identical_bytes(self, tmp_path):
        ds = make_dataset(5)
        save_dataset(ds, tmp_path / "a.json", config_hash="")
        save_dataset(ds, tmp_path / "b.json", config_hash="")
        a = (tmp_path / "a.bin").read_bytes()
        b = (tmp_path / "b.bin").read_bytes()
        assert a == b

    def test_empty_dataset(self, tmp_path):
        ds = Dataset(tiny_spec(), default_montage().channel_names[:4],
                     maker_of(np.zeros((0, 4, 32))), [], [], [])
        path = tmp_path / "empty.json"
        save_dataset(ds, path, config_hash="")
        manifest = json.loads(path.read_text())
        assert manifest["trials"] == []
        assert len(load_dataset(path)) == 0

    def test_unwritable_directory(self, tmp_path):
        ds = make_dataset(1)
        with pytest.raises(IoFailure):
            save_dataset(ds, tmp_path / "missing_dir" / "set.json", config_hash="")


class TestLoadErrors:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(MissingFile):
            load_dataset(tmp_path / "nope.json")

    def test_missing_blob(self, tmp_path):
        ds = make_dataset(2)
        path = tmp_path / "set.json"
        save_dataset(ds, path, config_hash="")
        (tmp_path / "set.bin").unlink()
        with pytest.raises(MissingFile):
            load_dataset(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(MalformedManifest):
            load_dataset(path)

    def test_wrong_format_marker(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "other"}))
        with pytest.raises(MalformedManifest):
            load_dataset(path)

    def test_blob_length_mismatch_names_trial(self, tmp_path):
        ds = make_dataset(2)
        path = tmp_path / "set.json"
        save_dataset(ds, path, config_hash="")
        manifest = json.loads(path.read_text())
        # manifest declares 4x32 samples; shrink trial 1's blob span
        manifest["trials"][1]["byte_length"] -= 4 * 32
        path.write_text(json.dumps(manifest))
        with pytest.raises(DimensionMismatch, match="trial 1"):
            load_dataset(path)

    @pytest.mark.parametrize("key, value", [("byte_offset", 0), ("blob_file", "other.bin")])
    def test_moved_blob_span_names_trial(self, tmp_path, key, value):
        # save_dataset's layout is required: one blob file, trial i at i * trial bytes
        ds = make_dataset(3)
        path = tmp_path / "set.json"
        save_dataset(ds, path, config_hash="")
        (tmp_path / "other.bin").write_bytes((tmp_path / "set.bin").read_bytes())
        manifest = json.loads(path.read_text())
        manifest["trials"][2][key] = value
        path.write_text(json.dumps(manifest))
        with pytest.raises(DimensionMismatch, match=f"trial 2: .*{key}"):
            load_dataset(path)

    def test_truncated_blob_names_trial(self, tmp_path):
        ds = make_dataset(3)
        path = tmp_path / "set.json"
        save_dataset(ds, path, config_hash="")
        blob_path = tmp_path / "set.bin"
        blob_path.write_bytes(blob_path.read_bytes()[: 4 * 4 * 32 + 10])
        with pytest.raises(DimensionMismatch, match="trial 1"):
            load_dataset(path)

    def test_trailing_blob_bytes_refused(self, tmp_path):
        ds = make_dataset(4)
        path = tmp_path / "set.json"
        save_dataset(ds, path, config_hash="")
        with open(tmp_path / "set.bin", "ab") as fh:
            fh.write(bytes(4096))
        with pytest.raises(MalformedManifest, match="4096 trailing bytes in set.bin"):
            load_dataset(path)

    def test_non_finite_blob_names_trial(self, tmp_path):
        ds = make_dataset(2)
        path = tmp_path / "set.json"
        save_dataset(ds, path, config_hash="")
        blob_path = tmp_path / "set.bin"
        raw = bytearray(blob_path.read_bytes())
        offset = json.loads(path.read_text())["trials"][1]["byte_offset"]
        raw[offset : offset + 4] = np.float32(np.inf).tobytes()
        blob_path.write_bytes(bytes(raw))
        with pytest.raises(NonFiniteSample, match="trial 1"):
            load_dataset(path)


class TestStratifiedSplit:
    def balanced_labels(self, per_cell=25):
        classes = np.repeat(np.arange(4), 2 * per_cell)
        domains = np.tile(np.repeat([0, 1], per_cell), 4)
        return classes, domains

    def test_balanced_200_fraction_02(self):
        classes, domains = self.balanced_labels()
        train, test = stratified_split_indices(classes, domains, 0.2, seed=9)
        assert len(test) == 40 and len(train) == 160
        for c in range(4):
            for d in (0, 1):
                in_cell = (classes[test] == c) & (domains[test] == d)
                assert in_cell.sum() == 5

    def test_partition_and_determinism(self):
        classes, domains = self.balanced_labels(per_cell=6)
        a = stratified_split_indices(classes, domains, 0.3, seed=4)
        b = stratified_split_indices(classes, domains, 0.3, seed=4)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        merged = np.sort(np.concatenate(a))
        assert np.array_equal(merged, np.arange(len(classes)))

    def test_test_count_clamped_to_leave_one(self):
        classes = np.zeros(2, dtype=int)
        domains = np.zeros(2, dtype=int)
        train, test = stratified_split_indices(classes, domains, 0.9, seed=0)
        assert len(test) == 1 and len(train) == 1

    def test_cell_too_small(self):
        classes = np.array([0, 0, 1])
        domains = np.array([0, 0, 0])
        with pytest.raises(CellTooSmall, match="class=1"):
            stratified_split_indices(classes, domains, 0.5, seed=0)

    def test_dataset_level_split(self):
        ds = make_dataset(16)
        train_idx, test_idx = stratified_split_indices(
            ds.class_labels, ds.domain_labels, 0.25, seed=1)
        train, test = ds.trial_ids[train_idx], ds.trial_ids[test_idx]
        assert len(train) + len(test) == len(ds)
        assert sorted(np.concatenate([train, test]).tolist()) == ds.trial_ids.tolist()

    def test_fraction_out_of_range(self):
        classes, domains = self.balanced_labels(per_cell=3)
        with pytest.raises(ValueError):
            stratified_split_indices(classes, domains, 1.0, seed=0)
