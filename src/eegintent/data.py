"""Trial/dataset model, lossless on-disk format, and stratified splitting.

A dataset on disk is a JSON manifest plus one binary blob file. Samples are
stored channel-major as little-endian float32, so a save/load round trip is
bit-exact. Trials are immutable after construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .codec import (
    Schema,
    header_fields,
    is_int,
    read_header,
    write_atomic,
    write_text,
)
from .errors import CellTooSmall, DimensionMismatch, MissingFile, NonFiniteSample
from .montage import default_montage

N_CLASSES = 4

MANIFEST_FORMAT = "eegintent-dataset-v1"


class DomainLabel(Enum):
    CORRECT = "correct"
    MISARTICULATED = "misarticulated"


@dataclass(frozen=True)
class AcquisitionSpec(Schema):
    """Recording geometry: 64 channels at 500 Hz, 3 s trials, 1-50 Hz band."""

    sample_rate_hz: float = 500.0
    n_channels: int = 64
    trial_seconds: float = 3.0
    band_low_hz: float = 1.0
    band_high_hz: float = 50.0

    def __post_init__(self):
        super().__post_init__()
        if self.sample_rate_hz <= 0 or self.n_channels <= 0 or self.trial_seconds <= 0:
            raise ValueError("sample rate, channel count and trial length must be positive")
        if not self.band_low_hz < self.band_high_hz <= self.sample_rate_hz / 2:
            raise ValueError(
                f"need band_low < band_high <= Nyquist, got "
                f"[{self.band_low_hz}, {self.band_high_hz}] at {self.sample_rate_hz} Hz"
            )

    @property
    def n_samples(self) -> int:
        return round(self.sample_rate_hz * self.trial_seconds)


@dataclass(frozen=True)
class TrialRecord:
    """One 3 s multichannel epoch with its class and domain labels.

    Samples are kept as a read-only float32 [n_channels x n_samples] array in
    microvolts; float32 is the storage dtype, so round trips are exact.
    """

    trial_id: int
    class_label: int
    domain_label: DomainLabel
    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.trial_id < 0:
            raise ValueError(f"trial_id must be non-negative, got {self.trial_id}")
        if self.class_label not in range(N_CLASSES):
            raise ValueError(
                f"trial {self.trial_id}: class_label must be in 0..{N_CLASSES - 1}, "
                f"got {self.class_label}"
            )
        samples = np.ascontiguousarray(self.samples, dtype=np.float32)
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)


@dataclass(frozen=True)
class Dataset:
    """An acquisition spec, the channel ordering, and the trial list."""

    spec: AcquisitionSpec
    channel_names: tuple[str, ...]
    trials: tuple[TrialRecord, ...]

    def __post_init__(self):
        object.__setattr__(self, "channel_names", tuple(self.channel_names))
        object.__setattr__(self, "trials", tuple(self.trials))
        montage = default_montage()
        if len(set(self.channel_names)) != len(self.channel_names):
            raise ValueError("channel names must be unique")
        if len(self.channel_names) != self.spec.n_channels:
            raise ValueError(
                f"{len(self.channel_names)} channel names for "
                f"{self.spec.n_channels} channels"
            )
        for name in self.channel_names:
            if name not in montage:
                raise ValueError(f"channel {name!r} is not in the montage")
        seen = set()
        expected = (self.spec.n_channels, self.spec.n_samples)
        for t in self.trials:
            if t.trial_id in seen:
                raise ValueError(f"duplicate trial_id {t.trial_id}")
            seen.add(t.trial_id)
            if t.samples.shape != expected:
                raise DimensionMismatch(t.trial_id, expected, t.samples.shape)
            if not np.isfinite(t.samples).all():
                raise NonFiniteSample(t.trial_id)

    def __len__(self) -> int:
        return len(self.trials)

    def class_labels(self) -> np.ndarray:
        return np.array([t.class_label for t in self.trials], dtype=np.int64)

    def domain_labels(self) -> np.ndarray:
        """1 for misarticulated trials, 0 for correct ones."""
        return np.array(
            [int(t.domain_label is DomainLabel.MISARTICULATED) for t in self.trials],
            dtype=np.int64,
        )

    def subset(self, indices) -> "Dataset":
        return Dataset(self.spec, self.channel_names, tuple(self.trials[i] for i in indices))


def trial_entry(trial_id, class_label, misarticulated) -> dict:
    """The labels of one trial as the manifest and the feature header store them."""
    domain = DomainLabel.MISARTICULATED if misarticulated else DomainLabel.CORRECT
    return {"trial_id": int(trial_id), "class_label": int(class_label),
            "domain_label": domain.value}


def parse_trial_entry(row) -> tuple[int, int, DomainLabel]:
    """(trial_id, class_label, domain) of a trial_entry read back from a file;
    ValueError, KeyError or TypeError when a field is missing or ill-typed."""
    trial_id, class_label = row["trial_id"], row["class_label"]
    if not is_int(trial_id) or trial_id < 0:
        raise ValueError(f"trial_id must be a non-negative integer, got {trial_id!r}")
    if not is_int(class_label) or class_label not in range(N_CLASSES):
        raise ValueError(
            f"trial {trial_id}: class_label must be in 0..{N_CLASSES - 1}, got {class_label!r}"
        )
    return trial_id, class_label, DomainLabel(row["domain_label"])


def save_dataset(dataset: Dataset, path, config_hash: str | None = None) -> None:
    """Write `path` (JSON manifest) plus a sibling .bin blob with all samples,
    each atomically, the blob first.

    Raises IoFailure if either file cannot be written.
    """
    manifest_path = Path(path)
    blob_path = manifest_path.with_suffix(".bin")
    write_atomic(blob_path, (np.ascontiguousarray(t.samples, dtype="<f4") for t in dataset.trials))
    nbytes = 4 * dataset.spec.n_channels * dataset.spec.n_samples
    manifest = {
        "format": MANIFEST_FORMAT,
        "config_hash": config_hash,
        "spec": dataset.spec.to_dict(),
        "channel_names": list(dataset.channel_names),
        "trials": [
            {
                **trial_entry(t.trial_id, t.class_label,
                              t.domain_label is DomainLabel.MISARTICULATED),
                "blob_file": blob_path.name,
                "byte_offset": i * nbytes,
                "byte_length": nbytes,
            }
            for i, t in enumerate(dataset.trials)
        ],
    }
    write_text(manifest_path, json.dumps(manifest, indent=1) + "\n")


def load_dataset(path) -> Dataset:
    """Read a manifest written by save_dataset and validate every trial.

    Raises MissingFile, MalformedManifest, DimensionMismatch or
    NonFiniteSample; the latter two name the offending trial_id.
    """
    manifest_path = Path(path)
    manifest, _ = read_header(manifest_path, MANIFEST_FORMAT, "manifest", blob=False)
    blobs: dict[str, memoryview] = {}
    trials = []
    with header_fields(manifest_path):
        spec = AcquisitionSpec.from_dict(manifest["spec"])
        shape = (spec.n_channels, spec.n_samples)
        nbytes = 4 * spec.n_channels * spec.n_samples
        for row in manifest["trials"]:
            trial_id, class_label, domain = parse_trial_entry(row)
            blob_file, offset, length = row["blob_file"], row["byte_offset"], row["byte_length"]
            if blob_file not in blobs:
                blob_path = manifest_path.parent / blob_file
                if not blob_path.is_file():
                    raise MissingFile(f"no blob file at {blob_path}")
                blobs[blob_file] = memoryview(blob_path.read_bytes())
            raw = blobs[blob_file][offset : offset + length]
            if not is_int(offset) or offset < 0 or len(raw) != length or length != nbytes:
                raise DimensionMismatch(trial_id, shape, (length // 4,))
            # Dataset checks each trial's finiteness and names the trial
            samples = np.frombuffer(raw, dtype="<f4").reshape(shape)
            trials.append(TrialRecord(trial_id, class_label, domain, samples))
        return Dataset(spec, manifest["channel_names"], tuple(trials))


@dataclass(frozen=True)
class SplitConfig(Schema):
    test_fraction: float = 0.4
    seed: int = 77

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError(f"test_fraction must be in (0, 1), got {self.test_fraction}")
        if self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.seed}")


def stratified_split_indices(
    class_labels: np.ndarray,
    domain_labels: np.ndarray,
    test_fraction: float,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic per-(class, domain)-cell split into train/test indices.

    Each nonempty cell contributes round(cell_size * test_fraction) test
    trials, clamped to [1, cell_size - 1]. Returned index arrays are sorted
    and partition range(n).
    """
    SplitConfig(test_fraction, seed)  # checks both
    class_labels = np.asarray(class_labels)
    domain_labels = np.asarray(domain_labels)
    rng = np.random.default_rng(seed)
    test_idx: list[np.ndarray] = []
    cells = sorted(set(zip(class_labels.tolist(), domain_labels.tolist())))
    for cls, dom in cells:
        members = np.flatnonzero((class_labels == cls) & (domain_labels == dom))
        if len(members) < 2:
            domain = DomainLabel.MISARTICULATED if dom else DomainLabel.CORRECT
            raise CellTooSmall(cls, domain, len(members))
        n_test = int(np.floor(len(members) * test_fraction + 0.5))
        n_test = min(max(n_test, 1), len(members) - 1)
        perm = rng.permutation(len(members))
        test_idx.append(members[perm[:n_test]])
    test = np.sort(np.concatenate(test_idx))
    in_train = np.ones(len(class_labels), dtype=bool)
    in_train[test] = False
    return np.flatnonzero(in_train), test
