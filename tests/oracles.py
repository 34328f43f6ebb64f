"""Reference computations that only the tests use."""

import numpy as np

from eegintent.errors import EmptyBand, SignalTooShort
from eegintent.spectral import fft


def welch_psd(signal, config, sample_rate_hz: float):
    """Welch PSD of a single signal: (psd [seg/2+1], bin_freqs_hz).

    The feature path's reference, written apart from it: its own segment
    loop and periodic Hann window, one fft per mean-removed, windowed
    segment over every bin, the periodograms averaged, then density scaling
    1/(fs * sum(w^2)) with every bin but DC and Nyquist doubled.
    """
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-D signal, got shape {x.shape}")
    seg = config.segment_length
    if len(x) < seg:
        raise SignalTooShort(f"signal length {len(x)} < segment length {seg}")
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(seg) / seg)
    n_bins = seg // 2 + 1
    starts = range(0, len(x) - seg + 1, seg - config.overlap)
    total = np.zeros(n_bins)
    for start in starts:
        piece = x[start : start + seg]
        spectrum = fft((piece - piece.mean()) * window)[:n_bins]
        total += spectrum.real**2 + spectrum.imag**2
    psd = total / (len(starts) * sample_rate_hz * np.sum(window**2))
    psd[1 : seg // 2] *= 2.0
    return psd, np.arange(n_bins) * (sample_rate_hz / seg)


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
