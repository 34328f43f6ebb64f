import os
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import stats as sps

from eegintent import data, spectral, synth
from eegintent.cli import RunConfig, main
from eegintent.data import AcquisitionSpec, Dataset, load_dataset, save_dataset
from eegintent.errors import NonFiniteSample, UnknownChannel
from eegintent.montage import Region, default_montage
from eegintent.spectral import WelchConfig, extract_feature_set, welch_kernel
from eegintent.synth import (
    SynthConfig,
    generate_dataset,
    generate_trial,
    pink_noise,
    splitmix64,
    trial_seed,
)
from oracles import band_power, maker_of, matmul_by_blocks, trial_by_loops, welch_psd

MONTAGE = default_montage()
SPEC = AcquisitionSpec()


def patch_cores(monkeypatch, n):
    """Make the process see n usable cores; returns the list that records the
    worker count of every pool data.map_trials opens."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    sizes = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(data, "ThreadPoolExecutor", RecordingPool)
    return sizes


def fail_trial_5(monkeypatch, seed, nan=False):
    """Replace generate_trial: trial 5 raises UnknownChannel (with nan=True, it
    returns NaN samples) and every later trial takes 0.3 s. Returns the set of
    trial ids that were started."""
    trial_of_seed = {trial_seed(seed, tid): tid for tid in range(200)}  # default size
    started = set()

    def fake_trial(class_label, misarticulated, config, montage, rng, spec):
        tid = trial_of_seed[rng.bit_generator.seed_seq.entropy]
        started.add(tid)
        if tid == 5 and nan:
            return np.full((spec.n_channels, spec.n_samples), np.nan)
        if tid == 5:
            raise UnknownChannel("channel 'Xz' is not in the montage")
        if tid > 5:
            time.sleep(0.3)
        return np.zeros((spec.n_channels, spec.n_samples))

    monkeypatch.setattr(synth, "generate_trial", fake_trial)
    return started


def serial_trials(cfg, n_trials):
    """(float32 bytes, domain label) of each trial, regenerated one after
    another from its sub-seed."""
    trials, domains = [], []
    for tid in range(n_trials):
        rng = np.random.default_rng(trial_seed(cfg.seed, tid))
        domains.append(rng.random() < cfg.misarticulation_rate)
        trial = generate_trial(tid % 4, domains[-1], cfg, MONTAGE, rng, SPEC)
        trials.append(trial.astype(np.float32).tobytes())
    return trials, domains


def as_table(dataset):
    """The same trials and labels, each made once and held in memory as one table."""
    table = np.stack([dataset.trial(i) for i in range(len(dataset))])
    return Dataset(dataset.spec, dataset.channel_names, maker_of(table), dataset.trial_ids,
                   dataset.class_labels, dataset.domain_labels)


class TestPinkNoise:
    def test_log_log_slope_near_minus_one(self):
        # least-squares fit over averaged periodograms, 200 realizations
        rng = np.random.default_rng(1234)
        accum = np.zeros(751)
        for _ in range(200):
            accum += np.abs(np.fft.rfft(pink_noise(1, 1500, rng)[0])) ** 2
        freqs = np.fft.rfftfreq(1500, 1.0 / SPEC.sample_rate_hz)
        keep = (freqs >= 1.0) & (freqs <= 50.0)
        slope = np.polyfit(np.log(freqs[keep]), np.log(accum[keep]), 1)[0]
        assert -1.4 <= slope <= -0.6

    def test_deterministic(self):
        a = pink_noise(1, 1000, np.random.default_rng(9))[0]
        b = pink_noise(1, 1000, np.random.default_rng(9))[0]
        assert np.array_equal(a, b)

    def test_two_samples(self):
        x = pink_noise(1, 2, np.random.default_rng(0))[0]
        assert x.shape == (2,)
        assert np.isfinite(x).all()
        assert x.mean() == pytest.approx(0.0, abs=1e-15)

    def test_zero_mean(self):
        x = pink_noise(1, 1500, np.random.default_rng(3))[0]
        assert x.mean() == pytest.approx(0.0, abs=1e-12)

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError):
            pink_noise(1, 1, np.random.default_rng(0))


def frontal_indices(names):
    return [i for i, n in enumerate(names) if MONTAGE.entry(n).region is Region.FRONTAL_CENTRAL]


def mean_band_power(samples, names, indices, band):
    cfg = WelchConfig()
    total = 0.0
    for i in indices:
        psd, freqs = welch_psd(samples[i], cfg, SPEC.sample_rate_hz)
        total += band_power(psd, freqs, band)
    return total / len(indices)


class TestGenerateTrial:
    def test_misarticulation_raises_frontal_delta_power(self):
        cfg = SynthConfig(seed=5)
        correct = generate_trial(0, False, cfg, MONTAGE, np.random.default_rng(42), SPEC)
        mis = generate_trial(0, True, cfg, MONTAGE, np.random.default_rng(42), SPEC)
        idx = frontal_indices(MONTAGE.channel_names)
        p_correct = mean_band_power(correct, MONTAGE.channel_names, idx, (1, 4))
        p_mis = mean_band_power(mis, MONTAGE.channel_names, idx, (1, 4))
        assert p_mis > p_correct

    def test_null_gains_make_domains_identical(self):
        cfg = SynthConfig(seed=5, delta_gain_mis=1.0, alpha_gain_mis=1.0,
                          gamma_gain_mis=1.0)
        correct = generate_trial(2, False, cfg, MONTAGE, np.random.default_rng(7), SPEC)
        mis = generate_trial(2, True, cfg, MONTAGE, np.random.default_rng(7), SPEC)
        assert np.array_equal(correct, mis)

    def test_class_signature_peaks(self):
        cfg = SynthConfig(seed=5, class_signature_amp=0.5)
        rngs = (np.random.default_rng(3), np.random.default_rng(3))
        trials = [generate_trial(c, False, cfg, MONTAGE, r, SPEC)
                  for c, r in zip((0, 1), rngs)]
        welch = WelchConfig()
        for class_label, trial in zip((0, 1), trials):
            psd = np.zeros(welch.segment_length // 2 + 1)
            for ch in trial[:8]:
                p, freqs = welch_psd(ch, welch, SPEC.sample_rate_hz)
                psd += p
            theta = (freqs >= 4) & (freqs < 8)
            peak_freq = freqs[theta][np.argmax(psd[theta])]
            expected = cfg.class_signature_freqs_hz[class_label][0]
            assert peak_freq == pytest.approx(expected, abs=0.5)

    def test_signatures_validated_against_suppressed_bands(self):
        synth = {"class_signature_freqs_hz": [[5.0, 10.0], [6.0, 20.0], [6.5, 21.0], [7.0, 22.0]]}
        with pytest.raises(ValueError, match="alpha"):
            RunConfig.from_dict({"synth": synth})


class TestGenerateDataset:
    def test_signatures_checked_against_pass_band_only(self):
        pairs = ((6.0, 20.0), (6.5, 21.0), (7.0, 22.0))
        with pytest.raises(ValueError, match="60 Hz outside the .* pass band"):
            generate_dataset(SynthConfig(n_trials_per_class=1,
                                         class_signature_freqs_hz=((5.0, 60.0), *pairs)))
        # the suppressed bands are the run config's, not a default table's
        in_alpha = SynthConfig(n_trials_per_class=1, class_signature_freqs_hz=((5.0, 10.0), *pairs))
        assert len(generate_dataset(in_alpha)) == 4

    def test_default_sizing(self):
        ds = generate_dataset(SynthConfig(n_trials_per_class=3, seed=0))
        assert len(ds) == 12
        labels = ds.class_labels
        assert np.bincount(labels, minlength=4).tolist() == [3, 3, 3, 3]

    def test_paper_scale_default(self):
        assert SynthConfig().n_trials_per_class == 50
        assert 4 * SynthConfig().n_trials_per_class == 200

    def test_deterministic_bit_identical(self):
        cfg = SynthConfig(n_trials_per_class=4, seed=77)
        a = generate_dataset(cfg)
        b = generate_dataset(cfg)
        assert np.array_equal(a.domain_labels, b.domain_labels)
        for i in range(len(a)):
            assert a.trial(i).tobytes() == b.trial(i).tobytes()

    def test_misarticulation_rate_within_binomial_bound(self):
        # 20 seeds x 40 trials; oracle: exact binomial 99% interval
        n_per, seeds = 10, 20
        total = 0
        for seed in range(seeds):
            ds = generate_dataset(SynthConfig(n_trials_per_class=n_per, seed=seed))
            total += int(ds.domain_labels.sum())
        n = seeds * 4 * n_per
        lo, hi = sps.binom.interval(0.99, n, 0.3)
        assert lo <= total <= hi

    def test_trials_independent_of_generation_order(self, monkeypatch, tmp_path):
        # every trial regenerated serially from its sub-seed must match the
        # blob the pool writes byte for byte at 1, 2 and 3 workers, with the
        # interpreter switching threads as often as it can
        cfg = SynthConfig(n_trials_per_class=3, seed=13)
        trials, domains = serial_trials(cfg, 12)
        interval = sys.getswitchinterval()
        for cores in (1, 2, 3):
            pools = patch_cores(monkeypatch, cores)
            manifest = tmp_path / f"{cores}.json"
            sys.setswitchinterval(1e-6)
            try:
                ds = generate_dataset(cfg)
                save_dataset(ds, manifest, config_hash="")
            finally:
                sys.setswitchinterval(interval)
            assert pools == [cores]
            assert ds.trial_ids.tolist() == list(range(12))
            assert ds.domain_labels.tolist() == domains
            assert manifest.with_suffix(".bin").read_bytes() == b"".join(trials)

    def test_trial_made_when_read_read_only_float32(self):
        cfg = SynthConfig(n_trials_per_class=2, seed=31)
        trials, _ = serial_trials(cfg, 8)
        ds = generate_dataset(cfg)
        for tid in range(8):
            trial = ds.trial(tid)
            assert trial.dtype == np.float32 and not trial.flags.writeable
            assert trial.tobytes() == trials[tid]

    def test_generating_makes_no_trial(self, monkeypatch):
        started = fail_trial_5(monkeypatch, seed=0)
        ds = generate_dataset(SynthConfig(n_trials_per_class=3, seed=0))
        assert len(ds) == 12 and started == set()
        for tid in range(5):
            assert not ds.trial(tid).any()
        with pytest.raises(UnknownChannel):
            ds.trial(5)
        assert started == set(range(6))

    def test_synth_reads_no_trial_back(self, monkeypatch, tmp_path):
        calls = []
        pread = os.pread

        def counting_pread(*args):
            calls.append(args[2])
            return pread(*args)

        monkeypatch.setattr(os, "pread", counting_pread)
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text('{"synth": {"n_trials_per_class": 3}}')
        assert main(["synth", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        assert calls == []
        # load_dataset scans the blob it reads, one trial at a time
        load_dataset(tmp_path / "dataset.json")
        assert len(calls) == 12

    def test_each_trial_checked_once(self, monkeypatch, tmp_path):
        # data.check_trial is the one trial check: synth and the feature route
        # each pass every trial through it exactly once
        checked = []
        check = data.check_trial

        def spy(spec, trial_id, trial):
            checked.append(int(trial_id))
            return check(spec, trial_id, trial)

        monkeypatch.setattr(data, "check_trial", spy)
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text('{"synth": {"n_trials_per_class": 3}}')
        assert main(["synth", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        assert sorted(checked) == list(range(12))
        checked.clear()
        extract_feature_set(generate_dataset(SynthConfig(n_trials_per_class=3)), WelchConfig())
        assert sorted(checked) == list(range(12))
        checked.clear()
        save_dataset(generate_dataset(SynthConfig(n_trials_per_class=3)), tmp_path / "d.json",
                     config_hash="ab" * 32)
        assert sorted(checked) == list(range(12))

    def test_core_count_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert data._usable_cores() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert data._usable_cores() == 1

    def test_trial_error_raised_and_later_trials_cancelled(self, monkeypatch):
        patch_cores(monkeypatch, 2)
        started = fail_trial_5(monkeypatch, seed=0)
        with pytest.raises(UnknownChannel) as info:
            extract_feature_set(generate_dataset(SynthConfig(n_trials_per_class=3, seed=0)),
                                WelchConfig())
        assert str(info.value) == "channel 'Xz' is not in the montage"
        # two workers: only trials 6 and 7 can start before 8-11 are cancelled
        assert 5 in started and max(started) <= 7

    def test_pool_gets_one_chunk_of_trials_at_a_time(self, monkeypatch):
        patch_cores(monkeypatch, 4)
        monkeypatch.setattr(data, "_MAP_CHUNK", 4)
        started = fail_trial_5(monkeypatch, seed=0)
        with pytest.raises(UnknownChannel):
            extract_feature_set(generate_dataset(SynthConfig(n_trials_per_class=3, seed=0)),
                                WelchConfig())
        # four workers: trial 5 fails in the second chunk (4-7), and the third
        # (8-11) is never handed out, though two workers are free
        assert 5 in started and max(started) <= 7
        done = []
        data.map_trials(done.append, 10)
        assert sorted(done) == list(range(10))

    def test_cli_synth_names_trial_error(self, monkeypatch, tmp_path, capsys):
        fail_trial_5(monkeypatch, seed=0)
        assert main(["synth", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "error: synth: UnknownChannel: channel 'Xz' is not in the montage" in err
        assert "Traceback" not in err
        assert not (tmp_path / "dataset.json").exists()

    def test_config_round_trip(self):
        cfg = SynthConfig(seed=123, class_signature_amp=0.2)
        assert SynthConfig.from_dict(cfg.to_dict()) == cfg

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(misarticulation_rate=0.0)
        with pytest.raises(ValueError):
            SynthConfig(gamma_gain_mis=1.5)
        with pytest.raises(ValueError):
            SynthConfig(delta_gain_mis=0.5)
        with pytest.raises(ValueError, match="seed"):
            SynthConfig(seed=-1)


class TestStreamedFeatures:
    """extract_feature_set of generate_dataset's Dataset: the features of each
    trial, made as it is read, without the trial table."""

    def test_equal_to_features_of_dataset_rounded(self):
        cfg = SynthConfig(n_trials_per_class=3, seed=21)
        dataset = generate_dataset(cfg)
        expected = extract_feature_set(as_table(dataset), WelchConfig())
        streamed = extract_feature_set(dataset, WelchConfig())
        assert streamed.values.dtype == expected.values.dtype == np.float32
        assert streamed.values.tobytes() == expected.values.tobytes()
        assert streamed.bin_freqs_hz.tobytes() == expected.bin_freqs_hz.tobytes()
        assert streamed.channel_names == dataset.channel_names
        for name in ("trial_ids", "class_labels", "domain_labels"):
            assert getattr(streamed, name).tolist() == getattr(dataset, name).tolist()

    def test_both_routes_same_bytes_at_any_worker_count(self, monkeypatch):
        # with the interpreter switching threads as often as it can
        cfg = SynthConfig(n_trials_per_class=2, seed=4)
        runs = []
        interval = sys.getswitchinterval()
        for cores in (1, 3):
            monkeypatch.setattr(data, "_usable_cores", lambda: cores)
            sys.setswitchinterval(1e-6)
            try:
                table = as_table(generate_dataset(cfg))
                features = extract_feature_set(table, WelchConfig()).values
                streamed = extract_feature_set(generate_dataset(cfg), WelchConfig()).values
                assert features.dtype == streamed.dtype == np.float32
            finally:
                sys.setswitchinterval(interval)
            trials = b"".join(table.trial(i).tobytes() for i in range(len(table)))
            runs.append((trials, features.tobytes(), streamed.tobytes()))
        assert runs[0] == runs[1]
        assert runs[0][1] == runs[0][2]

    def test_nan_trial_named_and_later_trials_cancelled(self, monkeypatch):
        patch_cores(monkeypatch, 2)
        started = fail_trial_5(monkeypatch, seed=0, nan=True)
        with pytest.raises(NonFiniteSample, match="^trial 5: ") as info:
            extract_feature_set(generate_dataset(SynthConfig(n_trials_per_class=3, seed=0)),
                                WelchConfig())
        assert info.value.trial_id == 5
        # two workers: only trials 6 and 7 can start before 8-11 are cancelled
        assert 5 in started and max(started) <= 7

    def test_peak_memory_below_trial_table(self, monkeypatch):
        monkeypatch.setattr(data, "_usable_cores", lambda: 2)
        cfg = SynthConfig()  # the default 200 trials
        table_bytes = 4 * cfg.n_trials_per_class * SPEC.n_channels * SPEC.n_samples * 4
        tracemalloc.start()
        try:
            features = extract_feature_set(generate_dataset(cfg), WelchConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # numpy's buffers are traced: the peak holds at least the feature table
        assert features.values.nbytes < peak < table_bytes / 4


def recording_matmul(monkeypatch):
    """Patch np.matmul to record each call; returns the list of calls, each
    the list of the multiply-add counts of the products stacked in it."""
    calls = []
    matmul = np.matmul

    def record(x, y, **kwargs):
        blocks = int(np.prod(np.broadcast_shapes(x.shape[:-2], y.shape[:-2])))
        calls.append([x.shape[-2] * x.shape[-1] * y.shape[-1]] * blocks)
        return matmul(x, y, **kwargs)

    monkeypatch.setattr(np, "matmul", record)
    return calls


# the configs whose trials and Welch products must keep the loop forms' bytes
FORM_CONFIGS = {
    "default": SynthConfig(),
    "null gains": SynthConfig(delta_gain_mis=1.0, alpha_gain_mis=1.0, gamma_gain_mis=1.0),
    "no jitter": SynthConfig(amp_jitter=0.0),
    "jitter 0.95": SynthConfig(amp_jitter=0.95),
    "uneven groups": SynthConfig(
        class_signature_freqs_hz=((5.0,), (6.0, 7.0, 20.0), (9.0, 30.0), (40.0,)),
        delta_freqs_hz=(2.0,), alpha_freqs_hz=(), gamma_freqs_hz=(33.0, 35.0, 37.0, 39.0, 41.0)),
}


class TestBlockedMatmul:
    # (64, 11, 1500) is the default synth shape: 4 blocks of 372 columns in
    # one call and the last 12 columns in another; (64, 15, 1500), 15
    # components: 5 blocks of 273 columns and one of 135; (256, 512, 100) is
    # the default Welch product, 50 blocks of 2 columns in one call
    @pytest.mark.parametrize("m, k, n", [(64, 11, 1500), (64, 15, 1500), (256, 512, 100),
                                         (7, 5, 10_000), (3, 2, 5)])
    def test_matches_matmul_in_bounded_blocks(self, monkeypatch, m, k, n):
        rng = np.random.default_rng(m * n)
        calls = recording_matmul(monkeypatch)
        # small integers: every summation order is exact, so equal bits show
        # that each output column comes from its own column of b
        a = rng.integers(-50, 50, (m, k)).astype(float)
        b = rng.integers(-50, 50, (k, n)).astype(float)
        assert data.blocked_matmul(a, b).tobytes() == (a @ b).tobytes()
        block_sizes = [size for call in calls for size in call]
        assert sum(block_sizes) == m * k * n
        assert max(block_sizes) <= 2**18
        assert len(calls) <= 2
        # general values: OpenBLAS may round a column tail of the one large
        # product in another order, so only the dot-product error bound holds;
        # each block is the BLAS call of the loop form, so its bytes hold
        a, b = rng.standard_normal((m, k)), rng.standard_normal((k, n))
        bound = 2 * k * np.finfo(float).eps * (np.abs(a) @ np.abs(b))
        assert np.all(np.abs(data.blocked_matmul(a, b) - a @ b) <= bound)
        assert data.blocked_matmul(a, b).tobytes() == matmul_by_blocks(a, b).tobytes()

    @pytest.mark.parametrize("seg", [128, 512, 1024])
    def test_welch_product_keeps_loop_form_bytes(self, seg):
        trial = generate_dataset(SynthConfig(n_trials_per_class=1)).trial(3)
        segments = np.lib.stride_tricks.sliding_window_view(trial, seg, axis=-1)[:, :: seg // 2]
        segments = (segments - segments.mean(axis=-1, keepdims=True)).reshape(-1, seg)
        freqs, _ = welch_kernel(SPEC, WelchConfig(seg, seg // 2))
        bins = tuple(np.rint(freqs * seg / SPEC.sample_rate_hz).astype(int).tolist())
        basis = spectral._kept_bin_basis(seg, bins)
        assert data.blocked_matmul(segments, basis).tobytes() == \
            matmul_by_blocks(segments, basis).tobytes()

    def test_trial_pipeline_calls_matmul_at_most_six_times_a_trial(self, monkeypatch):
        calls = recording_matmul(monkeypatch)
        extract_feature_set(generate_dataset(SynthConfig(n_trials_per_class=2)), WelchConfig())
        assert 0 < len(calls) <= 6 * 8


class TestTrialForm:
    # the one draw of all components is the per-component uniform draws, in order
    @pytest.mark.parametrize("name", FORM_CONFIGS)
    def test_trial_keeps_loop_form_bytes(self, name):
        for tid in range(8):
            for mis in (False, True):
                made, looped = (form(tid % 4, mis, FORM_CONFIGS[name], MONTAGE,
                                     np.random.default_rng(tid), SPEC)
                                for form in (generate_trial, trial_by_loops))
                assert made.tobytes() == looped.tobytes()

    def test_odd_sample_count_keeps_loop_form_bytes(self):
        spec = AcquisitionSpec(trial_seconds=2.002)  # 1001 samples
        made, looped = (form(1, True, SynthConfig(), MONTAGE, np.random.default_rng(5), spec)
                        for form in (generate_trial, trial_by_loops))
        assert made.tobytes() == looped.tobytes()


class TestHashing:
    def test_splitmix64_is_stable(self):
        # reference values of the splitmix64 finalizer
        assert splitmix64(0) == 16294208416658607535
        assert splitmix64(1) == 10451216379200822465

    def test_trial_seed_combines_seed_and_id(self):
        assert trial_seed(0, 5) == splitmix64(5)
        assert trial_seed(12345, 5) == 12345 ^ splitmix64(5)
        assert trial_seed(12345, 5) != trial_seed(12345, 6)
