"""FFT, Welch PSD estimation, band powers, and per-trial spectral features.

The PSD path is fully deterministic: radix-2 FFT with a fixed butterfly
order, periodic Hann windows, per-segment mean removal, and one-sided
density scaling in microvolt^2 per Hz.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

from .data import AcquisitionSpec, Dataset, DomainLabel, TrialRecord
from .errors import (
    EmptyBand,
    IoFailure,
    MalformedManifest,
    MissingFile,
    NonPowerOfTwoLength,
    SignalTooShort,
)

PSD_FLOOR = 1e-12  # microvolt^2/Hz, applied before log10

FEATURES_FORMAT = "eegintent-features-v1"


# --- FFT -----------------------------------------------------------------

@lru_cache(maxsize=32)
def _bit_reversal(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    idx = np.arange(n)
    rev = np.zeros(n, dtype=np.int64)
    for _ in range(bits):
        rev = (rev << 1) | (idx & 1)
        idx >>= 1
    return rev


@lru_cache(maxsize=32)
def _twiddles(m: int) -> np.ndarray:
    w = np.exp(-2j * np.pi * np.arange(m // 2) / m)
    w.flags.writeable = False
    return w


def _check_fft_length(n: int) -> None:
    if n < 2 or n & (n - 1):
        raise NonPowerOfTwoLength(f"FFT length must be a power of two >= 2, got {n}")


def fft(x) -> np.ndarray:
    """Radix-2 decimation-in-time DFT along the last axis.

    Forward convention exp(-2*pi*i*k*n/N), no normalization. The length must
    be a power of two (NonPowerOfTwoLength otherwise).
    """
    x = np.asarray(x)
    n = x.shape[-1]
    _check_fft_length(n)
    y = np.ascontiguousarray(x[..., _bit_reversal(n)], dtype=np.complex128)
    m = 2
    while m <= n:
        half = m // 2
        blocks = y.reshape(-1, n // m, m)
        even = blocks[..., :half]
        odd = blocks[..., half:]
        t = odd * _twiddles(m)
        np.subtract(even, t, out=odd)
        np.add(even, t, out=even)
        m *= 2
    return y


def ifft(x) -> np.ndarray:
    """Inverse of fft (1/N normalization on the inverse transform)."""
    x = np.asarray(x)
    return np.conj(fft(np.conj(x))) / x.shape[-1]


# --- Welch PSD -----------------------------------------------------------

@dataclass(frozen=True)
class WelchConfig:
    """Welch estimator parameters: 512-sample periodic Hann segments, 50% overlap."""

    segment_length: int = 512
    overlap: int = 256

    def __post_init__(self):
        if self.segment_length < 2 or self.segment_length & (self.segment_length - 1):
            raise ValueError(
                f"segment_length must be a power of two, got {self.segment_length}"
            )
        if not 0 <= self.overlap < self.segment_length:
            raise ValueError(
                f"overlap must be in [0, {self.segment_length}), got {self.overlap}"
            )

    def to_dict(self) -> dict:
        return {"segment_length": self.segment_length, "overlap": self.overlap}


def _hann(n: int) -> np.ndarray:
    # periodic Hann, the spectral-analysis variant
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def _welch_psd_batch(signals: np.ndarray, config: WelchConfig, sample_rate_hz: float):
    """One-sided Welch PSD of each row of `signals`; shape (B, nfft/2 + 1).

    Segment periodograms are computed two-at-a-time by packing segment pairs
    into one complex FFT; pairing stays inside each row, so per-row results
    do not depend on the batch around them.
    """
    signals = np.asarray(signals, dtype=np.float64)
    n = signals.shape[-1]
    seg = config.segment_length
    if n < seg:
        raise SignalTooShort(f"signal length {n} < segment length {seg}")
    step = seg - config.overlap
    n_segments = (n - seg) // step + 1
    window = _hann(seg)
    scale = 1.0 / (sample_rate_hz * np.sum(window**2))

    starts = step * np.arange(n_segments)
    segments = np.stack([signals[..., s : s + seg] for s in starts], axis=-2)
    segments -= segments.mean(axis=-1, keepdims=True)
    segments *= window
    if n_segments % 2:  # pad one zero segment so pairs line up
        pad_shape = segments.shape[:-2] + (1, seg)
        segments = np.concatenate([segments, np.zeros(pad_shape)], axis=-2)

    z = segments[..., 0::2, :] + 1j * segments[..., 1::2, :]
    spectrum = fft(z)
    reversed_conj = np.conj(
        np.concatenate([spectrum[..., :1], spectrum[..., :0:-1]], axis=-1)
    )
    half = seg // 2 + 1
    even_part = 0.5 * (spectrum + reversed_conj)[..., :half]
    odd_part = (-0.5j * (spectrum - reversed_conj))[..., :half]
    pair_power = (
        even_part.real**2
        + even_part.imag**2
        + odd_part.real**2
        + odd_part.imag**2
    )
    psd = pair_power.sum(axis=-2) * (scale / n_segments)
    psd[..., 1 : seg // 2] *= 2.0  # one-sided doubling, DC and Nyquist excluded
    bin_freqs = np.arange(half) * (sample_rate_hz / seg)
    return psd, bin_freqs


def welch_psd(signal, config: WelchConfig, sample_rate_hz: float):
    """Welch PSD of a single signal: (psd [nfft/2+1], bin_freqs_hz).

    Averages Hann-windowed, mean-detrended segment periodograms; density
    scaling 1/(fs * sum(w^2)) with one-sided doubling.
    """
    signal = np.asarray(signal, dtype=np.float64)
    if signal.ndim != 1:
        raise ValueError(f"expected a 1-D signal, got shape {signal.shape}")
    psd, bin_freqs = _welch_psd_batch(signal[None, :], config, sample_rate_hz)
    return psd[0], bin_freqs


def band_power(psd, bin_freqs, band: tuple[float, float]) -> float:
    """Integrated PSD (sum of psd * df) over bins with low <= f < high."""
    psd = np.asarray(psd, dtype=np.float64)
    bin_freqs = np.asarray(bin_freqs, dtype=np.float64)
    low, high = band
    mask = (bin_freqs >= low) & (bin_freqs < high)
    if not mask.any():
        raise EmptyBand(f"no PSD bin centers inside [{low}, {high}) Hz")
    df = bin_freqs[1] - bin_freqs[0]
    return float(psd[mask].sum() * df)


# --- band table ----------------------------------------------------------

@dataclass(frozen=True)
class Band:
    name: str
    low_hz: float   # inclusive
    high_hz: float  # exclusive

    def contains(self, freqs) -> np.ndarray:
        freqs = np.asarray(freqs)
        return (freqs >= self.low_hz) & (freqs < self.high_hz)


@dataclass(frozen=True)
class BandTable:
    """Ordered, disjoint frequency bands covering the 1-50 Hz analysis range."""

    bands: tuple[Band, ...] = (
        Band("delta", 1.0, 4.0),
        Band("theta", 4.0, 8.0),
        Band("alpha", 8.0, 13.0),
        Band("beta", 13.0, 30.0),
        Band("gamma", 30.0, 50.0),
    )

    def __post_init__(self):
        object.__setattr__(self, "bands", tuple(self.bands))
        prev_high = None
        for b in self.bands:
            if not (1.0 <= b.low_hz < b.high_hz <= 50.0):
                raise ValueError(f"band {b.name}: [{b.low_hz}, {b.high_hz}) not inside [1, 50]")
            if prev_high is not None and b.low_hz < prev_high:
                raise ValueError(f"band {b.name} overlaps or reorders the previous band")
            prev_high = b.high_hz

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(b.name for b in self.bands)

    def __iter__(self):
        return iter(self.bands)

    def __len__(self):
        return len(self.bands)

    def get(self, name: str) -> Band:
        for b in self.bands:
            if b.name == name:
                return b
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {b.name: [b.low_hz, b.high_hz] for b in self.bands}

    @classmethod
    def from_dict(cls, d: dict) -> "BandTable":
        """Bands in any key order (a config file may have sorted keys),
        ordered by lower edge; overlaps are still rejected."""
        bands = [Band(name, lo, hi) for name, (lo, hi) in d.items()]
        return cls(tuple(sorted(bands, key=lambda b: b.low_hz)))


# --- per-trial features --------------------------------------------------

@dataclass(frozen=True)
class SpectralFeatures:
    """Per-trial [channels x bins] log10 PSD over the in-band FFT bins."""

    trial_id: int
    values: np.ndarray
    bin_freqs_hz: np.ndarray


def in_band_bins(bin_freqs, low_hz: float, high_hz: float) -> np.ndarray:
    """Indices of bins whose center frequency lies in [low, high] inclusive."""
    bin_freqs = np.asarray(bin_freqs)
    return np.flatnonzero((bin_freqs >= low_hz) & (bin_freqs <= high_hz))


def _log_features(psd_block: np.ndarray) -> np.ndarray:
    return np.log10(np.maximum(psd_block, PSD_FLOOR))


def extract_features(
    trial: TrialRecord, config: WelchConfig, spec: AcquisitionSpec
) -> SpectralFeatures:
    """Per-channel Welch log10 PSD restricted to the acquisition band."""
    psd, bin_freqs = _welch_psd_batch(trial.samples, config, spec.sample_rate_hz)
    keep = in_band_bins(bin_freqs, spec.band_low_hz, spec.band_high_hz)
    return SpectralFeatures(trial.trial_id, _log_features(psd[:, keep]), bin_freqs[keep])


@dataclass(frozen=True)
class FeatureSet:
    """Stacked features for a whole dataset, [trials x channels x bins]."""

    values: np.ndarray
    bin_freqs_hz: np.ndarray
    sample_rate_hz: float
    channel_names: tuple[str, ...]
    trial_ids: np.ndarray
    class_labels: np.ndarray
    domain_labels: np.ndarray  # 1 = misarticulated
    config_hash: str | None = None

    @property
    def n_trials(self) -> int:
        return self.values.shape[0]

    @property
    def n_channels(self) -> int:
        return self.values.shape[1]

    @property
    def n_bins(self) -> int:
        return self.values.shape[2]

    def flat(self) -> np.ndarray:
        """[trials x (channels * bins)] view for the model."""
        return self.values.reshape(self.n_trials, -1)

    def subset(self, indices) -> "FeatureSet":
        indices = np.asarray(indices)
        return FeatureSet(
            self.values[indices],
            self.bin_freqs_hz,
            self.sample_rate_hz,
            self.channel_names,
            self.trial_ids[indices],
            self.class_labels[indices],
            self.domain_labels[indices],
            self.config_hash,
        )


def extract_feature_set(
    dataset: Dataset,
    config: WelchConfig,
    config_hash: str | None = None,
    chunk_trials: int = 8,
) -> FeatureSet:
    """extract_features over every trial of a dataset, stacked.

    Trials are processed in chunks of flattened channel signals purely for
    speed; the per-element arithmetic matches extract_features exactly.
    """
    spec = dataset.spec
    n_trials = len(dataset.trials)
    if n_trials == 0:
        raise ValueError("dataset has no trials")
    values = None
    keep = None
    for start in range(0, n_trials, chunk_trials):
        block = dataset.trials[start : start + chunk_trials]
        stacked = np.stack([t.samples for t in block]).astype(np.float64)
        flat = stacked.reshape(-1, spec.n_samples)
        psd, bin_freqs = _welch_psd_batch(flat, config, spec.sample_rate_hz)
        if keep is None:
            keep = in_band_bins(bin_freqs, spec.band_low_hz, spec.band_high_hz)
            kept_freqs = bin_freqs[keep]
            values = np.empty((n_trials, spec.n_channels, len(keep)))
        values[start : start + len(block)] = _log_features(
            psd[:, keep].reshape(len(block), spec.n_channels, -1)
        )
    return FeatureSet(
        values,
        kept_freqs,
        spec.sample_rate_hz,
        dataset.channel_names,
        np.array([t.trial_id for t in dataset.trials], dtype=np.int64),
        dataset.class_labels(),
        dataset.domain_labels(),
        config_hash,
    )


def band_powers_from_features(
    values: np.ndarray, bin_freqs, bands: BandTable
) -> np.ndarray:
    """Linear band power [.. x channels x n_bands] from log10 PSD features."""
    bin_freqs = np.asarray(bin_freqs)
    df = bin_freqs[1] - bin_freqs[0]
    psd = 10.0 ** np.asarray(values)
    out = []
    for b in bands:
        mask = b.contains(bin_freqs)
        if not mask.any():
            raise EmptyBand(f"band {b.name} has no feature bins")
        out.append(psd[..., mask].sum(axis=-1) * df)
    return np.stack(out, axis=-1)


# --- feature file --------------------------------------------------------

def write_features(features: FeatureSet, path) -> None:
    """Single-file format: one compact JSON header line, then a float32 blob.

    Blob layout is little-endian row-major [trial][channel][bin].
    """
    header = {
        "format": FEATURES_FORMAT,
        "config_hash": features.config_hash,
        "n_trials": int(features.n_trials),
        "n_channels": int(features.n_channels),
        "n_bins": int(features.n_bins),
        "sample_rate_hz": features.sample_rate_hz,
        "bin_freqs_hz": [float(f) for f in features.bin_freqs_hz],
        "channel_names": list(features.channel_names),
        "trials": [
            {
                "trial_id": int(t),
                "class_label": int(c),
                "domain_label": DomainLabel.MISARTICULATED.value
                if d
                else DomainLabel.CORRECT.value,
            }
            for t, c, d in zip(
                features.trial_ids, features.class_labels, features.domain_labels
            )
        ],
    }
    try:
        with open(path, "wb") as fh:
            fh.write(json.dumps(header, separators=(",", ":")).encode("utf-8"))
            fh.write(b"\n")
            fh.write(np.ascontiguousarray(features.values, dtype="<f4").tobytes())
    except OSError as exc:
        raise IoFailure(f"cannot write features to {path}: {exc}") from exc


def read_features(path) -> FeatureSet:
    path = Path(path)
    if not path.is_file():
        raise MissingFile(f"no feature file at {path}")
    raw = path.read_bytes()
    newline = raw.find(b"\n")
    if newline < 0:
        raise MalformedManifest(f"{path}: missing header line")
    try:
        header = json.loads(raw[:newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedManifest(f"{path}: {exc}") from exc
    if header.get("format") != FEATURES_FORMAT:
        raise MalformedManifest(
            f"{path}: expected format {FEATURES_FORMAT!r}, got {header.get('format')!r}"
        )
    try:
        shape = (header["n_trials"], header["n_channels"], header["n_bins"])
        bin_freqs = np.asarray(header["bin_freqs_hz"], dtype=np.float64)
        channel_names = tuple(header["channel_names"])
        trials = header["trials"]
        sample_rate = float(header["sample_rate_hz"])
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedManifest(f"{path}: {exc}") from exc
    blob = raw[newline + 1 :]
    expected = 4 * shape[0] * shape[1] * shape[2]
    if len(blob) != expected:
        raise MalformedManifest(
            f"{path}: blob holds {len(blob)} bytes, header implies {expected}"
        )
    values = np.frombuffer(blob, dtype="<f4").reshape(shape).astype(np.float64)
    try:
        trial_ids = np.array([int(t["trial_id"]) for t in trials], dtype=np.int64)
        class_labels = np.array([int(t["class_label"]) for t in trials], dtype=np.int64)
        domain_labels = np.array(
            [
                int(DomainLabel(t["domain_label"]) is DomainLabel.MISARTICULATED)
                for t in trials
            ],
            dtype=np.int64,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedManifest(f"{path}: bad trial entry: {exc}") from exc
    if len(trial_ids) != shape[0]:
        raise MalformedManifest(
            f"{path}: {len(trial_ids)} trial entries for {shape[0]} trials"
        )
    return FeatureSet(
        values,
        bin_freqs,
        sample_rate,
        channel_names,
        trial_ids,
        class_labels,
        domain_labels,
        header.get("config_hash"),
    )
