import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegintent.data import AcquisitionSpec, Dataset
from eegintent.errors import EmptyBand, NonPowerOfTwoLength, SignalTooShort
from eegintent.montage import default_montage
from eegintent.spectral import (
    Band,
    BandTable,
    WelchConfig,
    _kept_bin_basis,
    band_powers_from_features,
    extract_feature_set,
    fft,
    ifft,
    welch_kernel,
)
from eegintent.synth import SynthConfig, generate_dataset
from oracles import band_power, maker_of, welch_psd

FS = 500.0


def dft_oracle(x):
    """Direct O(N^2) DFT, the independent reference for fft."""
    x = np.asarray(x, dtype=np.complex128)
    n = len(x)
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n) @ x


class TestFft:
    def test_impulse_spectrum_is_flat(self):
        x = np.zeros(8)
        x[0] = 1.0
        assert np.allclose(fft(x), np.ones(8), atol=1e-12)

    def test_cosine_line(self):
        n = 8
        x = np.cos(2 * np.pi * np.arange(n) / n)
        spectrum = fft(x)
        mags = np.abs(spectrum)
        assert mags[1] == pytest.approx(4.0, abs=1e-9)
        assert mags[7] == pytest.approx(4.0, abs=1e-9)
        others = np.delete(mags, [1, 7])
        assert np.all(others < 1e-9)

    @pytest.mark.parametrize("n", [2, 4, 8, 32, 128, 512, 1024])
    def test_matches_direct_dft(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert np.abs(fft(x) - dft_oracle(x)).max() < 1e-9

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=1024) + 1j * rng.normal(size=1024)
        assert np.abs(ifft(fft(x)) - x).max() < 1e-9

    def test_linearity(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=256) + 1j * rng.normal(size=256)
        y = rng.normal(size=256) + 1j * rng.normal(size=256)
        lhs = fft(2.5 * x - 1.25j * y)
        rhs = 2.5 * fft(x) - 1.25j * fft(y)
        assert np.abs(lhs - rhs).max() / np.abs(rhs).max() < 1e-9

    @pytest.mark.parametrize("n", [0, 1, 3, 12, 1000])
    def test_rejects_non_power_of_two(self, n):
        with pytest.raises(NonPowerOfTwoLength):
            fft(np.zeros(max(n, 1)) if n else np.zeros(0))

    def test_batched_rows_match_single(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, 64)) + 1j * rng.normal(size=(5, 64))
        batched = fft(x)
        for i in range(5):
            assert np.array_equal(batched[i], fft(x[i]))


class TestWelch:
    def test_sinusoid_energy(self):
        # amplitude A at an exact bin center: integrated PSD ~ A^2/2
        cfg = WelchConfig()
        amp = 2.0
        f0 = 40 * FS / cfg.segment_length
        t = np.arange(8192) / FS
        psd, freqs = welch_psd(amp * np.cos(2 * np.pi * f0 * t), cfg, FS)
        total = psd.sum() * (freqs[1] - freqs[0])
        assert total == pytest.approx(amp**2 / 2, rel=0.05)

    def test_white_noise_level(self):
        cfg = WelchConfig()
        sigma = 1.5
        rng = np.random.default_rng(123)
        level = np.zeros(cfg.segment_length // 2 + 1)
        for _ in range(100):
            psd, freqs = welch_psd(rng.normal(0, sigma, size=1500), cfg, FS)
            level += psd
        level /= 100
        expected = sigma**2 / (FS / 2)
        # detrending empties the DC bin; check the interior
        assert np.mean(level[1:-1]) == pytest.approx(expected, rel=0.10)

    def test_zero_signal(self):
        psd, _ = welch_psd(np.zeros(1500), WelchConfig(), FS)
        assert np.all(psd == 0.0)

    def test_signal_too_short(self):
        with pytest.raises(SignalTooShort):
            welch_psd(np.zeros(100), WelchConfig(), FS)

    def test_time_domain_power_consistency(self):
        # stationary broadband signal: integral of PSD ~ mean power
        rng = np.random.default_rng(77)
        x = rng.normal(size=6000)
        psd, freqs = welch_psd(x, WelchConfig(), FS)
        spectral = psd.sum() * (freqs[1] - freqs[0])
        assert spectral == pytest.approx(np.mean(x**2), rel=0.10)

    @pytest.mark.parametrize("seg", [2, 32, 512])
    def test_kept_bin_basis_is_the_windowed_identity_transform(self, seg):
        # built from row blocks of the windowed identity; fft transforms row by row
        bins = tuple(range(1, seg // 2 + 1))
        window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(seg) / seg)
        columns = fft(np.diag(window))[:, list(bins)]
        basis = _kept_bin_basis(seg, bins)
        assert basis.tobytes() == np.hstack([columns.real, columns.imag]).tobytes()

    def test_segment_count_default_trial(self):
        cfg = WelchConfig()
        assert (1500 - cfg.segment_length) // (cfg.segment_length - cfg.overlap) + 1 == 4

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WelchConfig(segment_length=500)
        with pytest.raises(ValueError):
            WelchConfig(overlap=512)


class TestBandPower:
    def test_flat_psd_arithmetic(self):
        freqs = np.arange(257) * (FS / 512)
        psd = np.ones_like(freqs)
        df = freqs[1] - freqs[0]
        n_bins = np.count_nonzero((freqs >= 8) & (freqs < 13))
        assert band_power(psd, freqs, (8, 13)) == pytest.approx(n_bins * df)

    def test_zero_psd(self):
        freqs = np.arange(257) * (FS / 512)
        assert band_power(np.zeros_like(freqs), freqs, (8, 13)) == 0.0

    def test_empty_band(self):
        freqs = np.arange(51) * 1.0  # content up to 50 Hz
        with pytest.raises(EmptyBand):
            band_power(np.ones_like(freqs), freqs, (60, 70))


class TestBandTable:
    def test_default_edges(self):
        table = BandTable()
        assert table.names == ("delta", "theta", "alpha", "beta", "gamma")
        assert [(b.low_hz, b.high_hz) for b in table] == [
            (1, 4), (4, 8), (8, 13), (13, 30), (30, 50)]

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            BandTable((Band("a", 1, 5), Band("b", 4, 8)))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            BandTable((Band("a", 0.5, 4),))

    def test_round_trip(self):
        table = BandTable()
        assert BandTable.from_dict(table.to_dict()) == table

    def test_from_dict_orders_by_lower_edge(self):
        table = BandTable()
        shuffled = dict(sorted(table.to_dict().items()))  # alpha, beta, delta, ...
        assert BandTable.from_dict(shuffled) == table
        with pytest.raises(ValueError):
            BandTable.from_dict({"b": [4, 8], "a": [1, 5]})


def dataset_of(trials, spec):
    """A dataset of the [channels x samples] arrays `trials`, ids 0..n-1."""
    ids = np.arange(len(trials))
    return Dataset(spec, default_montage().channel_names[: spec.n_channels], maker_of(trials),
                   ids, ids % 4, ids % 2)


def extract_features(trial, config, spec):
    """The feature set of a one-trial dataset: its values and bin frequencies."""
    features = extract_feature_set(dataset_of([trial], spec), config)
    return SimpleNamespace(values=features.values[0], bin_freqs_hz=features.bin_freqs_hz)


def synth_trials(n_channels, n_trials_per_class=1, offset=0.0):
    """Synthetic trials cut to their first channels and shifted by `offset` uV."""
    dataset = generate_dataset(SynthConfig(n_trials_per_class=n_trials_per_class, seed=7))
    return list(np.stack([dataset.trial(i)[:n_channels] for i in range(len(dataset))]) + offset)


class TestExtractFeatures:
    spec = AcquisitionSpec()

    def test_bin_count_matches_enumeration(self):
        # oracle: enumerate bin centers k * fs/nfft inside [1, 50]
        expected = [k for k in range(257) if 1.0 <= k * FS / 512 <= 50.0]
        trial = np.random.default_rng(0).normal(size=(64, 1500))
        feats = extract_features(trial, WelchConfig(), self.spec)
        assert feats.values.shape == (64, len(expected))
        assert np.allclose(feats.bin_freqs_hz, np.array(expected) * FS / 512)
        assert len(expected) == 50 and expected[0] == 2 and expected[-1] == 51

    def test_dc_signal_hits_floor(self):
        trial = np.full((64, 1500), 3.25)
        feats = extract_features(trial, WelchConfig(), self.spec)
        assert np.all(feats.values == np.log10(1e-12))

    def test_deterministic(self):
        samples = np.random.default_rng(4).normal(size=(64, 1500))
        a = extract_features(samples, WelchConfig(), self.spec)
        b = extract_features(samples, WelchConfig(), self.spec)
        assert np.array_equal(a.values, b.values)

    def test_trial_values_independent_of_neighbours(self):
        spec = AcquisitionSpec(n_channels=3)
        trials = synth_trials(spec.n_channels, n_trials_per_class=3)
        together = extract_feature_set(dataset_of(trials, spec), WelchConfig()).values
        for trial, values in zip(trials, together):
            assert np.array_equal(extract_features(trial, WelchConfig(), spec).values, values)

    def test_band_powers_same_bits_for_float32_input(self):
        # feature files hold float32; the powers must not be taken in float32
        samples = np.random.default_rng(5).normal(size=(64, 1500))
        feats = extract_features(samples, WelchConfig(), self.spec)
        values = feats.values.astype(np.float32)
        as32 = band_powers_from_features(values, feats.bin_freqs_hz, BandTable())
        as64 = band_powers_from_features(values.astype(np.float64), feats.bin_freqs_hz, BandTable())
        assert as32.dtype == np.float64 and as32.tobytes() == as64.tobytes()

    def test_band_powers_peak_below_the_float64_psd(self):
        # the default 200 trials of float32 features, 64 channels x 50 bins
        bin_freqs, _ = welch_kernel(AcquisitionSpec(), WelchConfig())
        values = np.random.default_rng(8).normal(size=(200, 64, len(bin_freqs)))
        values = values.astype(np.float32)
        tracemalloc.start()
        try:
            powers = band_powers_from_features(values, bin_freqs, BandTable())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < values.size * 8  # the whole float64 PSD table is never held
        psd, df = np.power(10.0, values, dtype=np.float64), bin_freqs[1] - bin_freqs[0]
        whole = np.stack([psd[..., b.contains(bin_freqs)].sum(axis=-1) * df
                          for b in BandTable()], axis=-1)
        assert powers.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("offset", [0.0, 1000.0])
    @pytest.mark.parametrize("band", [(1.0, 50.0), (0.0, FS / 2)])  # the second keeps DC and Nyquist
    @pytest.mark.parametrize(
        "segment_length, overlap", [(512, 256), (256, 0), (512, 100), (1024, 512)]
    )
    def test_matches_welch_psd_row_by_row(self, segment_length, overlap, band, offset):
        spec = AcquisitionSpec(n_channels=4, band_low_hz=band[0], band_high_hz=band[1])
        trials = synth_trials(spec.n_channels, offset=offset)
        assert trials[0].dtype == np.float32  # as load_dataset returns them
        cfg = WelchConfig(segment_length, overlap)
        bin_freqs, log_psd = welch_kernel(spec, cfg)
        feats = extract_feature_set(dataset_of(trials, spec), cfg)
        assert feats.values.dtype == np.float32
        assert np.array_equal(feats.bin_freqs_hz, bin_freqs)
        for trial, values in zip(trials, feats.values):
            rows = log_psd(trial)
            assert rows.dtype == np.float64
            assert values.tobytes() == rows.astype(np.float32).tobytes()
            for samples, row in zip(trial, rows):
                psd, freqs = welch_psd(samples, cfg, FS)
                keep = (freqs >= band[0]) & (freqs <= band[1])
                assert np.array_equal(bin_freqs, freqs[keep])
                assert np.abs(10.0**row / psd[keep] - 1.0).max() <= 1e-9

    def test_band_powers_from_features_match_direct(self):
        rng = np.random.default_rng(9)
        samples = rng.normal(size=(64, 1500))
        cfg = WelchConfig()
        feats = extract_features(samples, cfg, self.spec)
        table = BandTable()
        via_features = band_powers_from_features(
            feats.values[None, ...], feats.bin_freqs_hz, table
        )[0]
        for ci in (0, 13, 63):
            psd, freqs = welch_psd(samples[ci].astype(np.float32), cfg, FS)
            for bi, band in enumerate(table):
                direct = band_power(psd, freqs, (band.low_hz, band.high_hz))
                assert via_features[ci, bi] == pytest.approx(direct, rel=1e-6)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_welch_psd_non_negative(seed):
    rng = np.random.default_rng(seed)
    psd, _ = welch_psd(rng.normal(size=512), WelchConfig(), FS)
    assert np.all(psd >= 0.0)
