"""Reference computations, and the array-to-maker helper, that only the tests use."""

import numpy as np

from eegintent.errors import EmptyBand, SignalTooShort
from eegintent.spectral import fft


def maker_of(table):
    """The [trials x channels x samples] array `table` as a Dataset's maker:
    trial i is row i, float32 and read-only."""
    table = np.array(table, dtype=np.float32)
    table.flags.writeable = False
    return table.__getitem__


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


def mmd_embedding_grads(x, y, bandwidth):
    """(dx, dy): the gradients of the biased RBF-MMD^2 in the rows of x and
    of y, from the three kernel blocks kxx, kyy and kxy built from explicit
    row differences. bandwidth None takes sigma^2 = median pairwise squared
    distance of [x; y] / 2, and None is returned when that median is zero;
    the gradient then adds the median's own term, dL/dmed times the mean
    gradient of the middle pair distances, each by explicit loops."""
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    n, m = len(x), len(y)
    median_term = None
    if bandwidth is None:
        pooled = np.vstack([x, y])
        index = [(i, j) for i in range(n + m) for j in range(i + 1, n + m)]
        pairs = [np.sum((pooled[i] - pooled[j]) ** 2) for i, j in index]
        med = float(np.median(pairs))
        if med <= 0.0:
            return None
        bandwidth = np.sqrt(med / 2.0)
        # the middle one or two pairs of a stable sort, as np.median averages them
        ranked = sorted(range(len(pairs)), key=pairs.__getitem__)
        middle = ranked[(len(pairs) - 1) // 2 : len(pairs) // 2 + 1]
        weights = [1.0 / n] * n + [-1.0 / m] * m
        d_med = 0.0  # dL/dmed = sum_ab w_a w_b K_ab sq_ab / med^2, with 2 sigma^2 = med
        for a in range(n + m):
            for b in range(n + m):
                sq = np.sum((pooled[a] - pooled[b]) ** 2)
                d_med += weights[a] * weights[b] * np.exp(-sq / (2.0 * bandwidth**2)) * sq / med**2
        median_term = np.zeros_like(pooled)
        for p in middle:  # d sq_ij / d e_i = 2 (e_i - e_j) = -d sq_ij / d e_j
            i, j = index[p]
            median_term[i] += d_med * 2.0 * (pooled[i] - pooled[j]) / len(middle)
            median_term[j] -= d_med * 2.0 * (pooled[i] - pooled[j]) / len(middle)

    def kernel(a, b):
        return np.exp(-np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2) / (2.0 * bandwidth**2))

    kxx, kyy, kxy = kernel(x, x), kernel(y, y), kernel(x, y)
    inv = 1.0 / bandwidth**2
    dx = (2.0 * inv / n**2) * (kxx @ x - kxx.sum(axis=1)[:, None] * x) - (
        2.0 * inv / (n * m)
    ) * (kxy @ y - kxy.sum(axis=1)[:, None] * x)
    dy = (2.0 * inv / m**2) * (kyy @ y - kyy.sum(axis=1)[:, None] * y) - (
        2.0 * inv / (n * m)
    ) * (kxy.T @ x - kxy.sum(axis=0)[:, None] * y)
    if median_term is not None:
        dx, dy = dx + median_term[:n], dy + median_term[n:]
    return dx, dy
