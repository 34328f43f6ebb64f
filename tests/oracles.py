"""Reference computations, and the array-to-maker helper, that only the tests use."""

import numpy as np

from eegintent.errors import EmptyBand, SignalTooShort
from eegintent.montage import Region
from eegintent.spectral import fft
from eegintent.synth import _pink_weights, _sin_cos_basis


def maker_of(table):
    """The [trials x channels x samples] array `table` as a Dataset's maker:
    trial i is row i, float32 and read-only."""
    table = np.array(table, dtype=np.float32)
    table.flags.writeable = False
    return table.__getitem__


def matmul_by_blocks(a, b):
    """a @ b as data.blocked_matmul computes it, in its loop form: one
    np.matmul per column block of b of at most 2^18 multiply-adds."""
    out = np.empty((a.shape[0], b.shape[1]))
    step = max(1, (1 << 18) // (a.shape[0] * a.shape[1]))
    for j in range(0, b.shape[1], step):
        np.matmul(a, b[:, j : j + step], out=out[:, j : j + step])
    return out


def trial_by_loops(class_label, misarticulated, config, montage, rng, spec):
    """synth.generate_trial in its loop form: each component's amplitude
    factor and its channels' phases drawn by rng.uniform, one component after
    another, and the sinusoid products through matmul_by_blocks."""
    n_ch, n = spec.n_channels, spec.n_samples
    nfft = n + (n % 2)
    half = nfft // 2
    weights = _pink_weights(half)
    gauss = rng.standard_normal((n_ch, 2 * half - 1))
    spectrum = np.zeros((n_ch, half + 1), dtype=np.complex128)
    parts = spectrum.view(np.float64).reshape(n_ch, -1)
    interior = weights[: half - 1] / np.sqrt(2.0)
    parts[:, 2 : 2 * half : 2] = gauss[:, : half - 1] * interior
    parts[:, 3 : 2 * half + 1 : 2] = gauss[:, half - 1 : 2 * half - 2] * interior
    parts[:, 2 * half] = gauss[:, 2 * half - 2] * weights[half - 1]
    x = np.fft.irfft(spectrum, n=nfft, axis=-1) * nfft
    samples = (x[:, :n] - x[:, :n].mean(axis=-1, keepdims=True)) * config.pink_noise_scale

    names = montage.channel_names[:n_ch]
    frontal = np.array([montage.entry(name).region == Region.FRONTAL_CENTRAL for name in names])
    temporal = np.array([montage.entry(name).region == Region.TEMPORAL for name in names])
    mis = bool(misarticulated)
    groups = [
        (config.class_signature_freqs_hz[class_label], config.class_signature_amp, np.ones(n_ch)),
        (config.delta_freqs_hz, config.delta_amp,
         np.where(frontal, config.delta_gain_mis if mis else 1.0, 1.0)),
        (config.alpha_freqs_hz, config.alpha_amp,
         np.where(frontal, config.alpha_gain_mis if mis else 1.0, 1.0)),
        (config.gamma_freqs_hz, config.gamma_amp,
         np.where(temporal, config.gamma_gain_mis if mis else 1.0, 1.0)),
    ]
    freqs, amps, phases = [], [], []
    for group_freqs, base_amp, gain in groups:
        for f in group_freqs:
            factor = rng.uniform(1.0 - config.amp_jitter, 1.0 + config.amp_jitter)
            phases.append(rng.uniform(0.0, 2.0 * np.pi, size=n_ch))
            freqs.append(float(f))
            amps.append(base_amp * factor * gain)
    amp, phase = np.stack(amps, axis=1), np.stack(phases, axis=1)
    sin_t, cos_t = _sin_cos_basis(tuple(freqs), n, spec.sample_rate_hz)
    samples += (matmul_by_blocks(amp * np.cos(phase), sin_t)
                + matmul_by_blocks(amp * np.sin(phase), cos_t))
    return samples


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
