"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line per criterion. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.integrate import quad

from eegintent.cli import load_run_config, run_report
from eegintent.model import (
    ModelConfig,
    backward,
    compute_loss,
    forward,
    init_params,
    mmd_rbf,
)
from eegintent.montage import Region, default_montage
from eegintent.spectral import BandTable, WelchConfig, band_powers_from_features, extract_feature_set, fft, ifft
from eegintent.stats import band_topomaps, bh_fdr, student_t_two_sided_p
from eegintent.synth import SynthConfig, generate_dataset


@contextmanager
def criterion(number, name, limit_seconds):
    start = time.time()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} ({name}): FAIL after {time.time() - start:.1f}s")
        raise
    elapsed = time.time() - start
    print(f"ACCEPTANCE {number} ({name}): PASS in {elapsed:.1f}s (limit {limit_seconds}s)")
    assert elapsed < limit_seconds, f"criterion {number} exceeded {limit_seconds}s"


def dft_oracle(x):
    x = np.asarray(x, dtype=np.complex128)
    n = len(x)
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n) @ x


def t_two_sided_quad(t, df):
    c = math.gamma((df + 1) / 2) / (math.sqrt(df * math.pi) * math.gamma(df / 2))
    tail, _ = quad(lambda u: c * (1 + u * u / df) ** (-(df + 1) / 2), abs(t), np.inf)
    return 2 * tail


def test_criterion_1_numerical_kernels():
    with criterion(1, "numerical kernels vs oracles", 5.0):
        rng = np.random.default_rng(0)
        for n in (2, 4, 8, 16, 64, 256, 1024):
            x = rng.normal(size=n) + 1j * rng.normal(size=n)
            assert np.abs(fft(x) - dft_oracle(x)).max() < 1e-9
            assert np.abs(ifft(fft(x)) - x).max() < 1e-9

        spots = [(2.0, 10.0), (1.0, 8.0), (0.25, 3.0), (3.5, 40.0), (6.0, 150.0)]
        for t, df in spots:
            assert abs(student_t_two_sided_p(t, df) - t_two_sided_quad(t, df)) < 1e-6
        assert student_t_two_sided_p(2.0, 10.0) == pytest.approx(0.0734, abs=5e-5)

        adjusted, reject = bh_fdr(np.array([0.01, 0.02, 0.03, 0.04]), 0.05)
        assert reject.all() and np.allclose(adjusted, 0.04)
        adjusted, reject = bh_fdr(np.array([0.2, 0.5, 0.9]), 0.05)
        assert not reject.any() and np.allclose(adjusted, [0.6, 0.75, 0.9])


def test_criterion_2_mmd_correctness():
    with criterion(2, "MMD vs double-sum oracle", 1.0):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n, m, d = rng.integers(1, 10), rng.integers(1, 10), rng.integers(1, 5)
            x = rng.normal(size=(n, d))
            y = rng.normal(size=(m, d))
            sigma = float(rng.uniform(0.2, 3.0))

            def k(u, v):
                return np.exp(-np.sum((u - v) ** 2) / (2 * sigma**2))

            oracle = (
                sum(k(a, b) for a in x for b in x) / n**2
                + sum(k(a, b) for a in y for b in y) / m**2
                - 2 * sum(k(a, b) for a in x for b in y) / (n * m)
            )
            assert abs(mmd_rbf(x, y, sigma) - oracle) < 1e-12

        x = rng.normal(size=(8, 4))
        assert abs(mmd_rbf(x, x, 1.0)) <= 1e-12
        a, b = np.array([[0.5, 1.0]]), np.array([[2.0, -0.5]])
        expected = 2.0 - 2.0 * np.exp(-np.sum((a - b) ** 2) / (2 * 0.7**2))
        assert mmd_rbf(a, b, 0.7) == pytest.approx(expected, abs=1e-14)


def test_criterion_3_gradient_check():
    with criterion(3, "analytic gradient vs finite differences", 10.0):
        cfg = ModelConfig(
            n_channels=2,
            bin_freqs_hz=(2.0, 6.0, 10.0, 20.0, 35.0, 16.0),
            encoder_dims=(8,),
            class_head_dims=(4,),
            domain_head_dims=(2,),
            gamma_sup=0.2,
            lambda1=0.3,
            lambda2=0.3,
            mmd_bandwidth=1.0,
            weight_init_scale=1.0,
            seed=3,
        )
        rng = np.random.default_rng(5)
        x = rng.normal(size=(12, 12))
        y_class = rng.integers(0, 4, 12)
        y_domain = np.arange(12) % 2
        params = init_params(cfg)
        grads = backward(params, x, y_class, y_domain, cfg)
        eps = 1e-4
        worst = 0.0
        for layer, grad in zip(params.all_layers(), grads.all_layers()):
            for arr, garr in ((layer.w, grad.w), (layer.b, grad.b)):
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    orig = arr[idx]
                    arr[idx] = orig + eps
                    up = compute_loss(params, x, y_class, y_domain, cfg).l_total
                    arr[idx] = orig - eps
                    down = compute_loss(params, x, y_class, y_domain, cfg).l_total
                    arr[idx] = orig
                    fd = (up - down) / (2 * eps)
                    worst = max(worst, abs(fd - garr[idx]) / (abs(garr[idx]) + 1e-8))
        assert worst < 1e-4, f"worst relative gradient error {worst:.2e}"


def _recovery_counts(maps, montage):
    """Pooled true/false positives and relevant counts for the three
    generator effects: delta+, alpha+ at frontal-central; gamma- at temporal."""
    relevant_sets = {
        "delta": (set(montage.names_in_region(Region.FRONTAL_CENTRAL)), 1),
        "alpha": (set(montage.names_in_region(Region.FRONTAL_CENTRAL)), 1),
        "gamma": (set(montage.names_in_region(Region.TEMPORAL)), -1),
    }
    tp = fp = relevant = 0
    for tmap in maps:
        if tmap.band not in relevant_sets:
            continue
        expected, sign = relevant_sets[tmap.band]
        predicted = {
            ch
            for ch, sig, t in zip(tmap.channels, tmap.significant, tmap.t)
            if sig and np.sign(t) == sign
        }
        tp += len(predicted & expected)
        fp += len(predicted - expected)
        relevant += len(expected)
    return tp, fp, relevant


def _maps_for(config, alpha=0.05):
    dataset = generate_dataset(config)
    features = extract_feature_set(dataset, WelchConfig())
    powers = band_powers_from_features(features.values, features.bin_freqs_hz, BandTable())
    correct = features.domain_labels == 0
    return band_topomaps(
        powers[correct],
        powers[~correct],
        features.channel_names,
        default_montage(),
        BandTable(),
        alpha=alpha,
    )


def test_criterion_4_spectral_statistics_recovery():
    with criterion(4, "FDR t-map recovery and null control", 180.0):
        montage = default_montage()
        tp = fp = relevant = 0
        for seed in range(20):
            maps = _maps_for(SynthConfig(seed=seed))
            seed_tp, seed_fp, seed_rel = _recovery_counts(maps, montage)
            tp += seed_tp
            fp += seed_fp
            relevant += seed_rel
        precision = tp / (tp + fp) if tp + fp else 1.0
        recall = tp / relevant
        print(f"  recovery over 20 seeds: precision {precision:.3f} recall {recall:.3f}")
        assert precision >= 0.8
        assert recall >= 0.8

        # null generator: all gains 1; false-positive control is
        # size-independent, so a smaller dataset keeps the runtime bounded
        fractions = []
        for seed in range(50):
            cfg = SynthConfig(
                seed=10_000 + seed,
                n_trials_per_class=25,
                delta_gain_mis=1.0,
                alpha_gain_mis=1.0,
                gamma_gain_mis=1.0,
            )
            maps = _maps_for(cfg)
            n_sig = sum(int(m.significant.sum()) for m in maps)
            n_tests = sum(len(m.channels) for m in maps)
            fractions.append(n_sig / n_tests)
        mean_fraction = float(np.mean(fractions))
        print(f"  null significant fraction over 50 seeds: {mean_fraction:.4f}")
        assert mean_fraction <= 0.05


def test_criterion_5_directional_model_replication(tmp_path):
    with criterion(5, "multitask beats baseline on misarticulated F1", 600.0):
        payload = run_report(load_run_config(None), 5, tmp_path)
        base = payload["mean"]["baseline"]
        multi = payload["mean"]["multitask"]
        gap = multi["f1_misarticulated"] - base["f1_misarticulated"]
        acc_drop = base["accuracy"] - multi["accuracy"]
        print(
            f"  baseline acc {base['accuracy']:.1f} misF1 {base['f1_misarticulated']:.1f}"
            f" | multitask acc {multi['accuracy']:.1f} misF1 "
            f"{multi['f1_misarticulated']:.1f} | gap {gap:+.1f}"
        )
        assert gap >= 5.0
        assert acc_drop <= 1.0


SMALL_RUN = {
    "synth": {"n_trials_per_class": 10, "seed": 0},
    "model": {
        "encoder_dims": [16, 8],
        "class_head_dims": [8, 4],
        "domain_head_dims": [8, 2],
        "epochs": 8,
        "batch_size": 8,
        "seed": 2,
    },
    "split": {"test_fraction": 0.3, "seed": 1},
    "report": {"seeds": 2},
}


def test_criterion_6_report_determinism(tmp_path):
    with criterion(6, "byte-identical report reruns", 300.0):
        from eegintent.cli import main

        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(SMALL_RUN))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["report", "--config", str(cfg_path), "--out", str(out_a)]) == 0
        assert main(["report", "--config", str(cfg_path), "--out", str(out_b)]) == 0
        compared = 0
        for file_a in sorted(out_a.rglob("*")):
            if file_a.is_dir():
                continue
            file_b = out_b / file_a.relative_to(out_a)
            assert file_b.is_file(), f"missing twin for {file_a.name}"
            assert file_a.read_bytes() == file_b.read_bytes(), f"{file_a.name} differs"
            compared += 1
        assert compared >= 13  # json + csv + table + 5 x (csv + svg)


def test_criterion_7_mask_semantics():
    with criterion(7, "suppression mask algebra", 30.0):
        bin_freqs = tuple(k * 500.0 / 512.0 for k in range(2, 52))
        base = dict(
            n_channels=64,
            bin_freqs_hz=bin_freqs,
            encoder_dims=(32, 16),
            class_head_dims=(8, 4),
            domain_head_dims=(8, 2),
            seed=1,
        )
        rng = np.random.default_rng(3)
        x = rng.normal(size=64 * 50)

        # gamma_sup = 0: class logits ignore suppressed bins bit-for-bit
        params = init_params(ModelConfig(gamma_sup=0.0, **base))
        suppressed = np.flatnonzero(params.mask == 0.0)
        assert len(suppressed) > 0
        logits_before, _, _, _ = forward(params, x[None])
        for trial in range(5):
            perturbed = x.copy()
            perturbed[suppressed] += rng.normal(scale=100.0, size=len(suppressed))
            logits_after, domain_after, _, _ = forward(params, perturbed[None])
            assert np.array_equal(logits_before, logits_after)

        # gamma_sup = 1: the two encoder views coincide
        params_one = init_params(ModelConfig(gamma_sup=1.0, **base))
        _, _, emb_class, emb_domain = forward(params_one, x[None])
        assert np.array_equal(emb_class, emb_domain)
