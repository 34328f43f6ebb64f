"""FFT, Welch PSD features, band powers, and the feature file.

The Welch PSD uses periodic Hann windows, per-segment mean removal and
one-sided density scaling in microvolt^2 per Hz. welch_kernel computes it per
trial at the kept bins only, by data.blocked_matmul, so a trial's features
are the same at any worker or BLAS thread count. Its reference, one fft per
segment over every bin, lives in tests/oracles.py. extract_feature_set is the
one route from trials to features, which it holds as float32 like the file.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .codec import (
    Schema,
    check_value,
    header_fields,
    read_header,
    unpack_floats,
    write_header_file,
)
from .data import (AcquisitionSpec, Dataset, blocked_matmul, check_channel_names, map_trials,
                   parse_trial_entries, trial_entries)
from .errors import EmptyBand, NonPowerOfTwoLength, SignalTooShort

PSD_FLOOR = 1e-12  # microvolt^2/Hz, applied before log10

FEATURES_FORMAT = "eegintent-features-v1"

# --- FFT -----------------------------------------------------------------

def fft(x) -> np.ndarray:
    """Radix-2 decimation-in-time DFT along the last axis.

    Forward convention exp(-2*pi*i*k*n/N), no normalization. The length must
    be a power of two (NonPowerOfTwoLength otherwise). The pipeline runs it
    only to build the cached kept-bin basis of the Welch kernel, on 64 rows at
    a time.
    """
    x = np.asarray(x)
    n = x.shape[-1]
    if n < 2 or n & (n - 1):
        raise NonPowerOfTwoLength(f"FFT length must be a power of two >= 2, got {n}")
    idx = np.arange(n)
    rev = np.zeros(n, dtype=np.int64)  # bit-reversed indices
    for _ in range(n.bit_length() - 1):
        rev = (rev << 1) | (idx & 1)
        idx >>= 1
    y = np.ascontiguousarray(x[..., rev], dtype=np.complex128)
    m = 2
    while m <= n:
        half = m // 2
        blocks = y.reshape(-1, n // m, m)
        even = blocks[..., :half]
        odd = blocks[..., half:]
        t = odd * np.exp(-2j * np.pi * np.arange(half) / m)
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
class WelchConfig(Schema):
    """Welch estimator parameters: 512-sample periodic Hann segments, 50% overlap."""

    segment_length: int = 512
    overlap: int = 256

    def __post_init__(self):
        super().__post_init__()
        if self.segment_length < 2 or self.segment_length & (self.segment_length - 1):
            raise ValueError(
                f"segment_length must be a power of two, got {self.segment_length}"
            )
        if not 0 <= self.overlap < self.segment_length:
            raise ValueError(
                f"overlap must be in [0, {self.segment_length}), got {self.overlap}"
            )


def _hann(n: int) -> np.ndarray:
    # periodic Hann, the spectral-analysis variant
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


@lru_cache(maxsize=8)
def _kept_bin_basis(seg: int, bins: tuple[int, ...]) -> np.ndarray:
    """(seg, 2K) [real | imag] of fft of the Hann-windowed identity at K bins,
    the window times [cos | -sin]: a segment times it is the real and
    imaginary part of the Hann-windowed DFT of that segment at those bins."""
    window, rows = _hann(seg), min(seg, 64)  # rows at a time: no seg x seg complex temporaries
    columns = np.vstack([fft(np.eye(rows, seg, i) * window[i : i + rows, None])[:, list(bins)]
                         for i in range(0, seg, rows)])
    basis = np.hstack([columns.real, columns.imag])
    basis.flags.writeable = False
    return basis


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
        spec, prev_high = AcquisitionSpec(), None
        for b in self.bands:
            if not (spec.band_low_hz <= b.low_hz < b.high_hz <= spec.band_high_hz):
                raise ValueError(f"{b.name}: [{b.low_hz}, {b.high_hz}) is not inside "
                                 f"[{spec.band_low_hz:g}, {spec.band_high_hz:g}] Hz")
            if prev_high is not None and b.low_hz < prev_high:
                raise ValueError(f"{b.name} overlaps or reorders the previous band")
            prev_high = b.high_hz

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(b.name for b in self.bands)

    def __iter__(self):
        return iter(self.bands)

    def __len__(self):
        return len(self.bands)

    def get(self, name: str) -> Band:
        return {b.name: b for b in self.bands}[name]

    def to_dict(self) -> dict:
        return {b.name: [b.low_hz, b.high_hz] for b in self.bands}

    @classmethod
    def from_dict(cls, d: dict) -> "BandTable":
        """Bands in any key order (a config file may have sorted keys),
        ordered by lower edge; overlaps are still rejected."""
        if not isinstance(d, dict):
            raise ValueError(f"expected an object of bands, got {d!r}")
        for name, edges in d.items():
            if len(check_value(edges, tuple[float, ...], name)) != 2:
                raise ValueError(f"{name} must be [low_hz, high_hz], got {edges!r}")
        bands = [Band(name, lo, hi) for name, (lo, hi) in d.items()]
        return cls(tuple(sorted(bands, key=lambda b: b.low_hz)))


# --- per-trial features --------------------------------------------------

@dataclass(frozen=True)
class FeatureSet:
    """Stacked features for a whole dataset, [trials x channels x bins]."""

    values: np.ndarray
    bin_freqs_hz: np.ndarray
    channel_names: tuple[str, ...]
    trial_ids: np.ndarray
    class_labels: np.ndarray
    domain_labels: np.ndarray  # 1 = misarticulated

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
        i = np.asarray(indices)
        return replace(self, values=self.values[i], trial_ids=self.trial_ids[i],
                       class_labels=self.class_labels[i], domain_labels=self.domain_labels[i])


def welch_kernel(spec: AcquisitionSpec, config: WelchConfig):
    """(bin_freqs_hz, log_psd): the Welch bins centered in [band_low, band_high]
    and the map from a [channels x samples] trial of `spec` to its float64 log10
    PSD there. SignalTooShort and EmptyBand precede any segment-sized array."""
    seg = config.segment_length
    if spec.n_samples < seg:
        raise SignalTooShort(f"signal length {spec.n_samples} < segment length {seg}")
    bins = np.arange(seg // 2 + 1)
    freqs = bins * (spec.sample_rate_hz / seg)
    keep = bins[(freqs >= spec.band_low_hz) & (freqs <= spec.band_high_hz)]
    if len(keep) == 0:
        raise EmptyBand(f"no {seg}-sample Welch bin inside "
                        f"[{spec.band_low_hz}, {spec.band_high_hz}] Hz")
    basis = _kept_bin_basis(seg, tuple(keep.tolist()))
    step = seg - config.overlap
    n_segments = (spec.n_samples - seg) // step + 1
    # one-sided density over the segment mean: 1/(fs * sum(w^2)), doubled but at DC and Nyquist
    scale = 1.0 / (spec.sample_rate_hz * np.sum(_hann(seg) ** 2)) / n_segments
    density = np.where((keep > 0) & (keep < seg // 2), 2.0 * scale, scale)

    def log_psd(trial: np.ndarray) -> np.ndarray:
        segments = sliding_window_view(trial, seg, axis=-1)[:, ::step].astype(np.float64)
        segments -= segments.mean(axis=-1, keepdims=True)
        parts = blocked_matmul(segments.reshape(-1, seg), basis) ** 2
        power = parts[:, : len(keep)] + parts[:, len(keep) :]
        power = power.reshape(len(trial), n_segments, -1).sum(axis=1)
        return np.log10(np.maximum(power * density, PSD_FLOOR))

    return freqs[keep], log_psd


def extract_feature_set(dataset: Dataset, config: WelchConfig) -> FeatureSet:
    """Per-channel Welch log10 PSD over the acquisition band, every trial stacked
    as float32: welch_kernel on each dataset.trial(i) on data.map_trials's pool."""
    if len(dataset) == 0:
        raise ValueError("dataset has no trials")
    bin_freqs, log_psd = welch_kernel(dataset.spec, config)
    values = np.empty((len(dataset), dataset.spec.n_channels, len(bin_freqs)), np.float32)

    def fill(i: int) -> None:
        values[i] = log_psd(dataset.trial(i))

    map_trials(fill, len(dataset))
    return FeatureSet(values, bin_freqs, dataset.channel_names, dataset.trial_ids,
                      dataset.class_labels, dataset.domain_labels)


def band_powers_from_features(
    values: np.ndarray, bin_freqs, bands: BandTable
) -> np.ndarray:
    """Linear band power [.. x channels x n_bands] from log10 PSD features;
    EmptyBand when there are fewer than two bins to give the bin width or a
    band holds none."""
    bin_freqs = np.asarray(bin_freqs)
    if len(bin_freqs) < 2:
        raise EmptyBand(f"need at least two feature bins for the bin width, got {len(bin_freqs)}")
    df = bin_freqs[1] - bin_freqs[0]
    out = []
    for b in bands:  # one band's float64 PSD at a time, not the whole table's
        mask = b.contains(bin_freqs)
        if not mask.any():
            raise EmptyBand(f"band {b.name} has no feature bins")
        out.append(np.power(10.0, values[..., mask], dtype=np.float64).sum(axis=-1) * df)
    return np.stack(out, axis=-1)


# --- feature file --------------------------------------------------------

def write_features(features: FeatureSet, path, *, sample_rate_hz: float, config_hash: str) -> None:
    """Single-file format: one compact JSON header line, stamped with the
    sample rate of the recording the features came from, then a float32 blob.

    Blob layout is little-endian row-major [trial][channel][bin].
    """
    header = {
        "format": FEATURES_FORMAT,
        "config_hash": config_hash,
        "n_trials": int(features.n_trials),
        "n_channels": int(features.n_channels),
        "n_bins": int(features.n_bins),
        "sample_rate_hz": sample_rate_hz,
        "bin_freqs_hz": [float(f) for f in features.bin_freqs_hz],
        "channel_names": list(features.channel_names),
        "trials": trial_entries(features.trial_ids, features.class_labels,
                                features.domain_labels),
    }
    write_header_file(path, header, [features.values])


def read_features(path) -> FeatureSet:
    """Read a file written by write_features, its values the read-only float32
    blob without a copy; MissingFile or MalformedManifest (naming the file)
    when it is absent, truncated, inconsistent or not finite."""
    header, blob = read_header(path, FEATURES_FORMAT, "feature file")
    with header_fields(path):
        shape = (header["n_trials"], header["n_channels"], header["n_bins"])
        (values,) = unpack_floats(blob, [shape])
        bin_freqs = np.array(check_value(header["bin_freqs_hz"], tuple[float, ...], "bin_freqs_hz"))
        if bin_freqs.shape != shape[2:] or (np.diff(bin_freqs) <= 0).any():
            raise ValueError(f"bin_freqs_hz must be {shape[2]} increasing frequencies")
        channel_names = check_channel_names(header["channel_names"], shape[1])
        trial_ids, class_labels, domain_labels = parse_trial_entries(header["trials"])
        if len(trial_ids) != shape[0]:
            raise ValueError(f"{len(trial_ids)} trial entries for {shape[0]} trials")
        sample_rate = float(check_value(header["sample_rate_hz"], float, "sample_rate_hz"))
        if sample_rate <= 0:
            raise ValueError(f"sample_rate_hz must be positive, got {sample_rate}")
    return FeatureSet(values, bin_freqs, channel_names, trial_ids, class_labels, domain_labels)
