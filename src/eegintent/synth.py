"""Synthetic labeled EEG with known spectral structure.

Each trial is 1/f background noise plus class-signature sinusoids in theta
and beta, plus band-limited delta/alpha/gamma components. Misarticulated
trials scale the delta/alpha components up at frontal-central channels and
the gamma component down at temporal channels, so the generator is its own
ground truth for the statistics and decoding stages.

generate_trial returns one trial's samples; generate_dataset's Dataset makes
each trial, rounded to float32, when it is read, and data.save_dataset writes
them to disk. Neither holds the trial table, and features come from
spectral.extract_feature_set alone.

Determinism contract: every trial draws from its own generator seeded with
seed XOR splitmix64(trial_id), and the domain label only multiplies
amplitudes after all random draws, so trials can be generated in any order
and label flips keep shared components identical. A trial's components draw
their amplitude factors and phases as one rng.random call, mapped as
Generator.uniform maps each draw (low + (high - low) * u), so the draw order,
each component's factor and then its channels' phases, is unchanged. Hence
the worker count (the process's CPU affinity, never a config key) cannot
change a byte of the samples or of the features. A trial's BLAS products,
and the feature kernel's, run through data.blocked_matmul, so their float64
values do not depend on BLAS's thread count either, and each releases the
GIL at most twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .codec import Schema
from .data import N_CLASSES, AcquisitionSpec, Dataset, blocked_matmul, check_room
from .montage import Montage, Region, default_montage
from .spectral import WelchConfig

_MASK64 = (1 << 64) - 1

# default Welch bin centers (500/512 Hz apart): a periodic-Hann segment confines
# a bin-centered sinusoid to +-1 bin, so components do not leak across bands
_BIN = AcquisitionSpec().sample_rate_hz / WelchConfig().segment_length
DEFAULT_CLASS_FREQS = (
    (5 * _BIN, 16 * _BIN),   # 4.88 Hz theta + 15.63 Hz beta
    (6 * _BIN, 20 * _BIN),
    (7 * _BIN, 24 * _BIN),
    (8 * _BIN, 28 * _BIN),
)
DEFAULT_DELTA_FREQS = (2 * _BIN, 2.5 * _BIN, 3 * _BIN)    # 1.95-2.93 Hz
DEFAULT_ALPHA_FREQS = (10 * _BIN, 11 * _BIN, 12 * _BIN)   # 9.77-11.72 Hz
DEFAULT_GAMMA_FREQS = (33 * _BIN, 37 * _BIN, 41 * _BIN)   # 32.2-40.0 Hz

# direction of each generator effect: band -> (region, sign of t)
EFFECT_DIRECTIONS = {
    "delta": (Region.FRONTAL_CENTRAL, 1),
    "alpha": (Region.FRONTAL_CENTRAL, 1),
    "gamma": (Region.TEMPORAL, -1),
}


@dataclass(frozen=True)
class SynthConfig(Schema):
    """Generator parameters; amplitudes are microvolts per sinusoid."""

    n_trials_per_class: int = 50
    misarticulation_rate: float = 0.3
    pink_noise_scale: float = 1.0
    class_signature_freqs_hz: tuple[tuple[float, ...], ...] = DEFAULT_CLASS_FREQS
    class_signature_amp: float = 0.10
    delta_gain_mis: float = 1.8
    alpha_gain_mis: float = 1.6
    gamma_gain_mis: float = 0.55
    delta_freqs_hz: tuple[float, ...] = DEFAULT_DELTA_FREQS
    alpha_freqs_hz: tuple[float, ...] = DEFAULT_ALPHA_FREQS
    gamma_freqs_hz: tuple[float, ...] = DEFAULT_GAMMA_FREQS
    delta_amp: float = 1.0
    alpha_amp: float = 1.0
    gamma_amp: float = 1.0
    amp_jitter: float = 0.4
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        if self.n_trials_per_class < 1:
            raise ValueError("n_trials_per_class must be positive")
        if not 0.0 < self.misarticulation_rate < 1.0:
            raise ValueError("misarticulation_rate must be in (0, 1)")
        if self.pink_noise_scale <= 0:
            raise ValueError("pink_noise_scale must be positive")
        if len(self.class_signature_freqs_hz) != N_CLASSES:
            raise ValueError(
                f"class_signature_freqs_hz needs one frequency list per class ({N_CLASSES})"
            )
        spec = AcquisitionSpec()  # the run config checks the suppressed bands
        for class_label, freqs in enumerate(self.class_signature_freqs_hz):
            for f in freqs:
                if not spec.band_low_hz <= f <= spec.band_high_hz:
                    raise ValueError(
                        f"class_signature_freqs_hz: class {class_label} signature {f:g} Hz "
                        f"outside the [{spec.band_low_hz:g}, {spec.band_high_hz:g}] Hz pass band"
                    )
        if self.delta_gain_mis < 1 or self.alpha_gain_mis < 1:
            raise ValueError("delta_gain_mis and alpha_gain_mis must be >= 1")
        if not 0.0 < self.gamma_gain_mis <= 1.0:
            raise ValueError("gamma_gain_mis must be in (0, 1]")
        if not 0.0 <= self.amp_jitter < 1.0:
            raise ValueError("amp_jitter must be in [0, 1)")
        if self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.seed}")


def splitmix64(value: int) -> int:
    """Finalizer of the splitmix64 generator; a 64-bit integer hash."""
    z = (value + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def trial_seed(seed: int, trial_id: int) -> int:
    """Per-trial sub-seed: seed XOR hash(trial_id)."""
    return (seed ^ splitmix64(trial_id)) & _MASK64


@lru_cache(maxsize=8)
def _pink_weights(half: int) -> np.ndarray:
    k = np.arange(1, half + 1)
    weights = 1.0 / np.sqrt(k)  # amplitude ~ f^{-1/2} so power ~ 1/f
    # unit expected power: interior bins count twice (conjugate images)
    weights /= np.sqrt(2.0 * np.sum(weights[:-1] ** 2) + weights[-1] ** 2)
    weights.flags.writeable = False
    return weights


def pink_noise(n_rows: int, n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """Rows of zero-mean 1/f noise with unit expected rms."""
    if n_samples < 2:
        raise ValueError(f"need at least 2 samples, got {n_samples}")
    nfft = n_samples + (n_samples % 2)
    half = nfft // 2
    weights = _pink_weights(half)

    gauss = rng.standard_normal((n_rows, 2 * half - 1))
    spectrum = np.zeros((n_rows, half + 1), dtype=np.complex128)
    parts = spectrum.view(np.float64).reshape(n_rows, -1)  # interleaved re/im
    interior = weights[: half - 1] / np.sqrt(2.0)
    np.multiply(gauss[:, : half - 1], interior, out=parts[:, 2 : 2 * half : 2])
    np.multiply(gauss[:, half - 1 : 2 * half - 2], interior, out=parts[:, 3 : 2 * half + 1 : 2])
    parts[:, 2 * half] = gauss[:, 2 * half - 2] * weights[half - 1]  # real Nyquist
    x = np.fft.irfft(spectrum, n=nfft, axis=-1)
    x *= nfft
    x = x[:, :n_samples]
    x -= x.mean(axis=-1, keepdims=True)
    return x


@lru_cache(maxsize=64)
def _sin_cos_basis(freqs: tuple[float, ...], n_samples: int, sample_rate_hz: float):
    t = np.arange(n_samples) / sample_rate_hz
    phase = 2.0 * np.pi * np.asarray(freqs)[:, None] * t[None, :]
    basis = np.sin(phase), np.cos(phase)
    for b in basis:
        b.flags.writeable = False
    return basis


@lru_cache(maxsize=64)
def _components(config: SynthConfig, class_label: int, mis: bool, montage: Montage, n_ch: int):
    """(freqs, base amplitudes, [channels x components] gains) of a trial's
    sinusoids: the class signature, then the delta, alpha and gamma groups."""
    regions = np.array([montage.entry(name).region for name in montage.channel_names[:n_ch]])
    frontal, temporal = regions == Region.FRONTAL_CENTRAL, regions == Region.TEMPORAL
    groups = [
        (config.class_signature_freqs_hz[class_label], config.class_signature_amp, np.ones(n_ch)),
        (config.delta_freqs_hz, config.delta_amp, np.where(frontal, config.delta_gain_mis, 1.0)),
        (config.alpha_freqs_hz, config.alpha_amp, np.where(frontal, config.alpha_gain_mis, 1.0)),
        (config.gamma_freqs_hz, config.gamma_amp, np.where(temporal, config.gamma_gain_mis, 1.0)),
    ]
    freqs, base_amp, gain = zip(*[(float(f), amp, group_gain if mis else np.ones(n_ch))
                                  for group_freqs, amp, group_gain in groups for f in group_freqs])
    base_amp, gain = np.array(base_amp, float), np.stack(gain, axis=1)
    for array in (base_amp, gain):
        array.flags.writeable = False
    return freqs, base_amp, gain


def generate_trial(class_label: int, misarticulated: bool, config: SynthConfig,
                   montage: Montage, rng: np.random.Generator,
                   spec: AcquisitionSpec) -> np.ndarray:
    """One synthetic trial's float64 [channels x samples] array in
    microvolts; all randomness comes from `rng`.

    The draw sequence does not depend on `misarticulated`: gains only scale
    already-drawn components, so regenerating with the other label keeps the
    shared noise and phases bit-identical.
    """
    samples = pink_noise(spec.n_channels, spec.n_samples, rng)
    samples *= config.pink_noise_scale
    freqs, base_amp, gain = _components(config, class_label, misarticulated, montage,
                                        spec.n_channels)
    # per component, as uniform maps each draw: one amplitude factor shared
    # across channels, then each channel's phase
    draws = rng.random((len(freqs), spec.n_channels + 1))
    low, high = 1.0 - config.amp_jitter, 1.0 + config.amp_jitter
    amp = gain * (base_amp * (low + (high - low) * draws[:, 0]))
    phase = np.ascontiguousarray(draws[:, 1:].T) * (2.0 * np.pi)
    sin_t, cos_t = _sin_cos_basis(freqs, spec.n_samples, spec.sample_rate_hz)
    # sin(2 pi f t + phi) = cos(phi) sin(2 pi f t) + sin(phi) cos(2 pi f t)
    samples += (blocked_matmul(amp * np.cos(phase), sin_t)
                + blocked_matmul(amp * np.sin(phase), cos_t))
    return samples


def generate_dataset(config: SynthConfig, *, path=None) -> Dataset:
    """N_CLASSES * n_trials_per_class trials of the default acquisition spec and
    montage, classes round-robin, domains Bernoulli from each trial's first
    draw: a Dataset whose trial(i) makes trial i as read-only float32 (a
    trial's error raised as is). Given the manifest `path` it will be saved
    to, data.check_room runs first, before the labels are drawn.

    A pure function of the config: per-trial generators are derived from
    config.seed, so trial order and prior draws cannot leak between trials.
    """
    montage, spec = default_montage(), AcquisitionSpec()
    n_trials = N_CLASSES * config.n_trials_per_class
    if path is not None:
        check_room(path, spec, n_trials)

    def first_draw(tid: int):
        rng = np.random.default_rng(trial_seed(config.seed, tid))
        return rng, int(rng.random() < config.misarticulation_rate)

    def make(tid: int) -> np.ndarray:
        rng, mis = first_draw(tid)
        trial = generate_trial(tid % N_CLASSES, mis, config, montage, rng, spec).astype(np.float32)
        trial.flags.writeable = False
        return trial

    trial_ids = np.arange(n_trials)
    return Dataset(spec, montage.channel_names[: spec.n_channels], make, trial_ids,
                   trial_ids % N_CLASSES, [first_draw(tid)[1] for tid in range(n_trials)])
