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

from .errors import (
    CellTooSmall,
    DimensionMismatch,
    IoFailure,
    MalformedManifest,
    MissingFile,
    NonFiniteSample,
)
from .montage import default_montage

N_CLASSES = 4

MANIFEST_FORMAT = "eegintent-dataset-v1"


class DomainLabel(Enum):
    CORRECT = "correct"
    MISARTICULATED = "misarticulated"


@dataclass(frozen=True)
class AcquisitionSpec:
    """Recording geometry: 64 channels at 500 Hz, 3 s trials, 1-50 Hz band."""

    sample_rate_hz: float = 500.0
    n_channels: int = 64
    trial_seconds: float = 3.0
    band_low_hz: float = 1.0
    band_high_hz: float = 50.0

    def __post_init__(self):
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

    def to_dict(self) -> dict:
        return {
            "sample_rate_hz": self.sample_rate_hz,
            "n_channels": self.n_channels,
            "trial_seconds": self.trial_seconds,
            "band_low_hz": self.band_low_hz,
            "band_high_hz": self.band_high_hz,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "AcquisitionSpec":
        return cls(**{k: d[k] for k in cls().to_dict()})


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


def save_dataset(dataset: Dataset, path, config_hash: str | None = None) -> None:
    """Write `path` (JSON manifest) plus a sibling .bin blob with all samples.

    Raises IoFailure if either file cannot be written.
    """
    manifest_path = Path(path)
    blob_path = manifest_path.with_suffix(".bin")
    offsets = []
    try:
        with open(blob_path, "wb") as blob:
            offset = 0
            for t in dataset.trials:
                raw = np.ascontiguousarray(t.samples, dtype="<f4").tobytes()
                blob.write(raw)
                offsets.append((offset, len(raw)))
                offset += len(raw)
        manifest = {
            "format": MANIFEST_FORMAT,
            "config_hash": config_hash,
            "spec": dataset.spec.to_dict(),
            "channel_names": list(dataset.channel_names),
            "trials": [
                {
                    "trial_id": t.trial_id,
                    "class_label": t.class_label,
                    "domain_label": t.domain_label.value,
                    "blob_file": blob_path.name,
                    "byte_offset": off,
                    "byte_length": length,
                }
                for t, (off, length) in zip(dataset.trials, offsets)
            ],
        }
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=1)
            fh.write("\n")
    except OSError as exc:
        raise IoFailure(f"cannot write dataset to {manifest_path}: {exc}") from exc


def load_dataset(path) -> Dataset:
    """Read a manifest written by save_dataset and validate every trial.

    Raises MissingFile, MalformedManifest, DimensionMismatch or
    NonFiniteSample; the latter two name the offending trial_id.
    """
    manifest_path = Path(path)
    if not manifest_path.is_file():
        raise MissingFile(f"no manifest at {manifest_path}")
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise MalformedManifest(f"{manifest_path}: {exc}") from exc

    if manifest.get("format") != MANIFEST_FORMAT:
        raise MalformedManifest(
            f"{manifest_path}: expected format {MANIFEST_FORMAT!r}, "
            f"got {manifest.get('format')!r}"
        )
    try:
        spec = AcquisitionSpec.from_dict(manifest["spec"])
        channel_names = tuple(manifest["channel_names"])
        trial_rows = manifest["trials"]
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedManifest(f"{manifest_path}: {exc}") from exc

    blobs: dict[str, bytes] = {}
    trials = []
    n_ch, n_sa = spec.n_channels, spec.n_samples
    for row in trial_rows:
        try:
            trial_id = int(row["trial_id"])
            class_label = int(row["class_label"])
            domain = DomainLabel(row["domain_label"])
            blob_file = row["blob_file"]
            offset = int(row["byte_offset"])
            length = int(row["byte_length"])
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedManifest(f"{manifest_path}: bad trial entry: {exc}") from exc
        if blob_file not in blobs:
            blob_path = manifest_path.parent / blob_file
            if not blob_path.is_file():
                raise MissingFile(f"no blob file at {blob_path}")
            blobs[blob_file] = blob_path.read_bytes()
        raw = blobs[blob_file][offset : offset + length]
        if len(raw) != length or length != 4 * n_ch * n_sa:
            raise DimensionMismatch(trial_id, (n_ch, n_sa), (length // 4,))
        samples = np.frombuffer(raw, dtype="<f4").reshape(n_ch, n_sa)
        if not np.isfinite(samples).all():
            raise NonFiniteSample(trial_id)
        trials.append(TrialRecord(trial_id, class_label, domain, samples))

    try:
        return Dataset(spec, channel_names, tuple(trials))
    except ValueError as exc:
        raise MalformedManifest(f"{manifest_path}: {exc}") from exc


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
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
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
    mask = np.zeros(len(class_labels), dtype=bool)
    mask[test] = True
    train = np.flatnonzero(~mask)
    return train, test


def stratified_split(
    dataset: Dataset, test_fraction: float, seed: int
) -> tuple[Dataset, Dataset]:
    """Split a dataset into disjoint train/test parts, stratified per cell."""
    train_idx, test_idx = stratified_split_indices(
        dataset.class_labels(), dataset.domain_labels(), test_fraction, seed
    )
    return dataset.subset(train_idx), dataset.subset(test_idx)
