"""Reference computations that only the tests use."""

import numpy as np

from eegintent.errors import EmptyBand


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
