"""The trials, their lossless on-disk format, the trial pool and its BLAS
blocking, and splitting.

A dataset's trials are read-only float32 [channels x samples] arrays in
microvolts, read from its blob or made by a maker of trial i, plus int64
trial ids, class labels and domain labels (1 = misarticulated). On disk it is
a JSON manifest, which names the domains as DOMAIN_NAMES, plus one blob that
holds trial i channel-major as little-endian float32 at byte
i * channels * samples * 4: a round trip is bit-exact.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .codec import (
    Schema,
    atomic_file,
    check_value,
    header_fields,
    is_int,
    read_header,
    write_text,
)
from .errors import CellTooSmall, DimensionMismatch, IoFailure, MissingFile, NonFiniteSample
from .montage import default_montage

N_CLASSES = 4

DOMAIN_NAMES = ("correct", "misarticulated")  # domain label 0 and 1 in the files

MANIFEST_FORMAT = "eegintent-dataset-v1"

_BLAS_BLOCK = 1 << 18  # OpenBLAS runs a GEMM of m*n*k <= 4 * 65536 on the calling thread
_MAP_CHUNK = 1024  # trials queued on map_trials's pool at once, as map queues its whole range


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


def _check_labels(trial_ids, class_labels, domain_labels):
    """The three label vectors as int64 arrays. ValueError unless each lists
    integers (not booleans), all of one length, the ids unique and >= 0, the
    classes in 0..N_CLASSES-1 and the domains 0 or 1."""
    names = ("trial_ids", "class_labels", "domain_labels")
    ids, classes, domains = (np.array(check_value(v, tuple[int, ...], key), dtype=np.int64)
                             for v, key in zip((trial_ids, class_labels, domain_labels), names))
    if not len(ids) == len(classes) == len(domains):
        raise ValueError(f"label vectors of lengths {len(ids)}, {len(classes)}, {len(domains)}")
    if (ids < 0).any():
        raise ValueError(f"trial_id must be non-negative, got {ids.min()}")
    unique, counts = np.unique(ids, return_counts=True)
    if (counts > 1).any():
        raise ValueError(f"duplicate trial_id {unique[counts > 1][0]}")
    for labels, name, n in ((classes, "class_label", N_CLASSES),
                            (domains, "domain_label", len(DOMAIN_NAMES))):
        bad = np.flatnonzero((labels < 0) | (labels >= n))
        if len(bad):
            raise ValueError(f"trial {ids[bad[0]]}: {name} must be in 0..{n - 1}, "
                             f"got {labels[bad[0]]}")
    return ids, classes, domains


def check_channel_names(names, n_channels: int) -> tuple[str, ...]:
    """`names` as a tuple; ValueError unless it holds `n_channels` unique
    strings, each a channel of the montage."""
    names = check_value(names, tuple[str, ...], "channel_names")
    if len(set(names)) != len(names):
        raise ValueError("channel names must be unique")
    if len(names) != n_channels:
        raise ValueError(f"{len(names)} channel names for {n_channels} channels")
    for name in names:
        if name not in default_montage():
            raise ValueError(f"channel {name!r} is not in the montage")
    return names


def check_trial(spec: AcquisitionSpec, trial_id, trial: np.ndarray) -> np.ndarray:
    """`trial` if of the spec's shape and finite, else DimensionMismatch or NonFiniteSample."""
    if trial.shape != (shape := (spec.n_channels, spec.n_samples)):
        raise DimensionMismatch(int(trial_id), shape, trial.shape)
    if not np.isfinite(trial).all():
        raise NonFiniteSample(int(trial_id))
    return trial


@dataclass(frozen=True)
class Dataset:
    """An acquisition spec, the channel ordering, and the trials (see the
    module docstring): the Path of their blob, or a maker, a function that
    returns trial i. Construction checks the labels; TypeError for other samples."""

    spec: AcquisitionSpec
    channel_names: tuple[str, ...]
    samples: Path | Callable[[int], np.ndarray] = field(repr=False)
    trial_ids: np.ndarray
    class_labels: np.ndarray
    domain_labels: np.ndarray  # 1 = misarticulated

    def __post_init__(self):
        if not (isinstance(self.samples, Path) or callable(self.samples)):
            raise TypeError(f"samples must be the Path of a blob or a maker of trial i, "
                            f"got {type(self.samples).__name__}")
        names = check_channel_names(self.channel_names, self.spec.n_channels)
        object.__setattr__(self, "channel_names", names)
        labels = _check_labels(self.trial_ids, self.class_labels, self.domain_labels)
        for name, array in zip(("trial_ids", "class_labels", "domain_labels"), labels):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    def __len__(self) -> int:
        return len(self.trial_ids)

    def trial(self, i: int) -> np.ndarray:
        """Trial i, read-only float32, through check_trial: the maker's, or one
        os.pread from the blob (a memory map's pages would count as resident)."""
        if callable(self.samples):
            trial = self.samples(i)
        else:
            nbytes = 4 * self.spec.n_channels * self.spec.n_samples
            with open(self.samples, "rb") as fh:
                raw = os.pread(fh.fileno(), nbytes, i * nbytes)
            if len(raw) != nbytes:
                raise IoFailure(f"{self.samples}: trial {self.trial_ids[i]} is cut short")
            trial = np.frombuffer(raw, dtype="<f4").reshape(self.spec.n_channels, -1)
        return check_trial(self.spec, self.trial_ids[i], trial)


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def blocked_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b in column blocks of b of at most _BLAS_BLOCK multiply-adds each.
    OpenBLAS runs a product that small on the calling thread, so the trials on
    map_trials's pool never queue on its thread server, and each product's
    float64 values are the same at any BLAS thread count."""
    out = np.empty((a.shape[0], b.shape[1]))
    step = max(1, _BLAS_BLOCK // (a.shape[0] * a.shape[1]))
    for j in range(0, b.shape[1], step):
        np.matmul(a, b[:, j : j + step], out=out[:, j : j + step])
    return out


def map_trials(fill, n_trials: int) -> None:
    """fill(i) for every trial index i, on a thread pool of one worker per usable
    core (the process's CPU affinity, never a config key), _MAP_CHUNK at a time.
    A trial's error is raised as is, and trials not yet started are cancelled."""
    with ThreadPoolExecutor(max_workers=_usable_cores()) as pool:
        for start in range(0, n_trials, _MAP_CHUNK):  # map cancels the rest if one raises
            list(pool.map(fill, range(start, min(start + _MAP_CHUNK, n_trials))))


def trial_entries(trial_ids, class_labels, domain_labels) -> list[dict]:
    """The labels as the manifest and the feature header store them, one
    entry per trial; ValueError as _check_labels."""
    ids, classes, domains = _check_labels(trial_ids, class_labels, domain_labels)
    return [{"trial_id": int(t), "class_label": int(c), "domain_label": DOMAIN_NAMES[d]}
            for t, c, d in zip(ids, classes, domains)]


def parse_trial_entries(rows):
    """(trial_ids, class_labels, domain_labels) of trial_entries read back
    from a file; ValueError, KeyError or TypeError when an entry is missing,
    ill-typed or fails _check_labels."""
    if not isinstance(rows, list):
        raise ValueError(f"trials must be a list, got {rows!r}")
    domains = [row["domain_label"] for row in rows]
    for name in domains:
        if name not in DOMAIN_NAMES:
            raise ValueError(f"domain_label must be one of {DOMAIN_NAMES}, got {name!r}")
    return _check_labels([row["trial_id"] for row in rows], [row["class_label"] for row in rows],
                        [DOMAIN_NAMES.index(name) for name in domains])


def write_trials(path, spec: AcquisitionSpec, trial_ids, trial) -> Path:
    """The blob beside the manifest `path`, written by codec.atomic_file: trial(i),
    float32 through check_trial, is one os.pwrite at its own offset from a
    map_trials worker, so the order trials finish in cannot change a byte.
    IoFailure before any trial if the blob outgrows the disk; a trial's error is raised."""
    blob, nbytes = Path(path).with_suffix(".bin"), 4 * spec.n_channels * spec.n_samples
    with atomic_file(blob) as fh:
        fs = os.fstatvfs(fh.fileno())
        if (need := len(trial_ids) * nbytes) > (free := fs.f_bavail * fs.f_frsize):
            raise IoFailure(f"cannot write {blob}: {need} bytes needed, {free} bytes free")

        def put(i: int) -> None:
            samples = check_trial(spec, trial_ids[i], np.ascontiguousarray(trial(i), "<f4"))
            if os.pwrite(fh.fileno(), samples, i * nbytes) < nbytes:
                raise IoFailure(f"cannot write {blob}: trial {trial_ids[i]} was written short")

        map_trials(put, len(trial_ids))
    return blob


def save_dataset(dataset: Dataset, path, *, config_hash: str) -> None:
    """Write `path` (JSON manifest) after its sibling .bin blob, each atomically;
    write_trials writes the blob unless the dataset reads its trials from it.

    Raises IoFailure if either file cannot be written.
    """
    manifest_path = Path(path)
    blob = dataset.samples
    if not (isinstance(blob, Path) and blob == manifest_path.with_suffix(".bin")):
        blob = write_trials(manifest_path, dataset.spec, dataset.trial_ids, dataset.trial)
    nbytes = 4 * dataset.spec.n_channels * dataset.spec.n_samples
    entries = trial_entries(dataset.trial_ids, dataset.class_labels, dataset.domain_labels)
    manifest = {
        "format": MANIFEST_FORMAT,
        "config_hash": config_hash,
        "spec": dataset.spec.to_dict(),
        "channel_names": list(dataset.channel_names),
        "trials": [
            {**entry, "blob_file": blob.name, "byte_offset": i * nbytes,
             "byte_length": nbytes}
            for i, entry in enumerate(entries)
        ],
    }
    write_text(manifest_path, json.dumps(manifest, indent=1) + "\n")


def load_dataset(path) -> Dataset:
    """Read a manifest written by save_dataset, and each trial of its blob once.

    The entries must give save_dataset's layout: one blob file of exactly its
    trials, trial i at byte i * channels * samples * 4. Raises MissingFile,
    MalformedManifest (also for trailing bytes), DimensionMismatch or
    NonFiniteSample; the latter two name the offending trial_id.
    """
    manifest_path = Path(path)
    manifest, _ = read_header(manifest_path, MANIFEST_FORMAT, "manifest", blob=False)
    with header_fields(manifest_path):
        spec = AcquisitionSpec.from_dict(manifest["spec"])
        nbytes = 4 * spec.n_channels * spec.n_samples
        rows = manifest["trials"]
        trial_ids, class_labels, domain_labels = parse_trial_entries(rows)
        blob_file = rows[0]["blob_file"] if rows else manifest_path.with_suffix(".bin").name
        for i, row in enumerate(rows):
            span = (row["blob_file"], row["byte_offset"], row["byte_length"])
            if span != (blob_file, i * nbytes, nbytes) or not all(map(is_int, span[1:])):
                raise DimensionMismatch(int(trial_ids[i]), (blob_file, i * nbytes, nbytes), span,
                                        what="(blob_file, byte_offset, byte_length)")
        blob_path = manifest_path.parent / blob_file
        if not blob_path.is_file():
            raise MissingFile(f"no blob file at {blob_path}")
        size = blob_path.stat().st_size
        if size < len(rows) * nbytes:
            i = size // nbytes
            raise DimensionMismatch(int(trial_ids[i]), f"{i * nbytes}..{(i + 1) * nbytes}",
                                    f"a {size}-byte file", what=f"bytes of {blob_file}")
        if size > len(rows) * nbytes:
            raise ValueError(f"{size - len(rows) * nbytes} trailing bytes in {blob_file}")
        dataset = Dataset(spec, manifest["channel_names"], blob_path, trial_ids, class_labels,
                          domain_labels)
    for i in range(len(dataset)):
        dataset.trial(i)  # check_trial's scan
    return dataset


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
            raise CellTooSmall(cls, DOMAIN_NAMES[dom], len(members))
        n_test = int(np.floor(len(members) * test_fraction + 0.5))
        n_test = min(max(n_test, 1), len(members) - 1)
        perm = rng.permutation(len(members))
        test_idx.append(members[perm[:n_test]])
    test = np.sort(np.concatenate(test_idx))
    in_train = np.ones(len(class_labels), dtype=bool)
    in_train[test] = False
    return np.flatnonzero(in_train), test
