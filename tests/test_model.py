import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegintent.errors import EmptyGroup, NonFiniteLoss, ShapeMismatch
from eegintent.model import (
    FeatureScaler,
    Layer,
    ModelConfig,
    ModelParams,
    TrainMode,
    _log_softmax,
    backward,
    band_mask_bins,
    compute_loss,
    effective_config,
    forward,
    init_params,
    input_mask,
    load_model,
    mmd_rbf,
    save_model,
    train,
)
from eegintent.spectral import BandTable
from oracles import mmd_embedding_grads

# C=2 channels x F=6 bins: one bin per band plus an out-of-band 2nd theta bin
TOY_FREQS = (2.0, 6.0, 10.0, 20.0, 35.0, 7.0)


def toy_config(**overrides):
    defaults = dict(
        n_channels=2,
        bin_freqs_hz=TOY_FREQS,
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
    defaults.update(overrides)
    return ModelConfig(**defaults)


def toy_batch(seed=7, n=10):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 12))
    y_class = rng.integers(0, 4, n)
    y_domain = np.arange(n) % 2
    return x, y_class, y_domain


# --- reference: the two-pass training step -------------------------------
# Each view runs its own encoder pass and its own encoder backward, including
# the input gradient, and the two encoder gradients are summed afterwards.

def ref_stack_forward(layers, x, relu_last):
    acts, pre, h = [x], [], x
    for i, layer in enumerate(layers):
        z = h @ layer.w + layer.b
        pre.append(z)
        h = np.maximum(z, 0.0) if (relu_last or i < len(layers) - 1) else z
        acts.append(h)
    return h, (acts, pre)


def ref_stack_backward(layers, cache, d, relu_last):
    acts, pre = cache
    grads = [None] * len(layers)
    for i in reversed(range(len(layers))):
        if relu_last or i < len(layers) - 1:
            d = d * (pre[i] > 0)
        grads[i] = Layer(acts[i].T @ d, d.sum(axis=0))
        d = d @ layers[i].w.T
    return grads, d


def reference_backward(params, x, y_class, y_domain, config):
    n = len(x)
    emb_c, cache_c = ref_stack_forward(params.encoder, x * params.mask, True)
    emb_d, cache_d = ref_stack_forward(params.encoder, x, True)
    logits_c, cache_head_c = ref_stack_forward(params.class_head, emb_c, False)
    logits_d, cache_head_d = ref_stack_forward(params.domain_head, emb_d, False)

    probs = np.exp(_log_softmax(logits_c))
    probs[np.arange(n), y_class] -= 1.0
    head_c, d_emb_c = ref_stack_backward(params.class_head, cache_head_c, probs / n, False)
    enc_c, _ = ref_stack_backward(params.encoder, cache_c, d_emb_c, True)

    probs_d = np.exp(_log_softmax(logits_d))
    probs_d[np.arange(n), y_domain] -= 1.0
    head_d, d_emb_d = ref_stack_backward(
        params.domain_head, cache_head_d, config.lambda1 * probs_d / n, False
    )
    correct, mis = np.flatnonzero(y_domain == 0), np.flatnonzero(y_domain == 1)
    grads = None
    if len(correct) and len(mis):
        grads = mmd_embedding_grads(emb_d[correct], emb_d[mis], config.mmd_bandwidth)
    if config.lambda2 != 0.0 and grads is not None:
        dx, dy = grads
        d_emb_d = d_emb_d.copy()
        d_emb_d[correct] += config.lambda2 * dx
        d_emb_d[mis] += config.lambda2 * dy
    enc_d, _ = ref_stack_backward(params.encoder, cache_d, d_emb_d, True)

    encoder = [Layer(a.w + b.w, a.b + b.b) for a, b in zip(enc_c, enc_d)]
    return ModelParams(encoder, head_c, head_d, params.mask)


def reference_train(x, y_class, y_domain, config):
    """train()'s schedule (init, shuffles, batches) around reference_backward."""
    params = init_params(config)
    shuffle_rng = np.random.default_rng([config.seed, 0x5EED])
    for _ in range(config.epochs):
        perm = shuffle_rng.permutation(len(x))
        for start in range(0, len(x), config.batch_size):
            b = perm[start : start + config.batch_size]
            grads = reference_backward(params, x[b], y_class[b], y_domain[b], config)
            for layer, grad in zip(params.all_layers(), grads.all_layers()):
                layer.w -= config.learning_rate * grad.w
                layer.b -= config.learning_rate * grad.b
    return params


class TestConfig:
    def test_head_sizes_enforced(self):
        with pytest.raises(ValueError):
            toy_config(class_head_dims=(3,))
        with pytest.raises(ValueError):
            toy_config(domain_head_dims=(4,))

    def test_round_trip(self):
        cfg = toy_config()
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg

    def test_input_dim(self):
        assert toy_config().input_dim == 12


class TestMask:
    def test_bin_mask_pattern(self):
        mask = band_mask_bins(TOY_FREQS, BandTable(), gamma_sup=0.2)
        # delta, alpha, gamma bins suppressed; theta and beta pass through
        assert list(mask) == [0.2, 1.0, 0.2, 1.0, 0.2, 1.0]

    def test_broadcast_over_channels(self):
        full = input_mask(toy_config())
        assert full.shape == (12,)
        assert np.array_equal(full[:6], full[6:])


class TestInit:
    def test_deterministic(self):
        a = init_params(toy_config())
        b = init_params(toy_config())
        for la, lb in zip(a.all_layers(), b.all_layers()):
            assert np.array_equal(la.w, lb.w)
            assert np.array_equal(la.b, lb.b)

    def test_zero_scale_zero_logits(self):
        params = init_params(toy_config(weight_init_scale=0.0))
        x, _, _ = toy_batch()
        class_logits, domain_logits, _, _ = forward(params, x)
        assert np.all(class_logits == 0.0)
        assert np.all(domain_logits == 0.0)

    def test_weight_std_near_target(self):
        # wide layer so the sample estimate is tight
        cfg = toy_config(
            n_channels=20, bin_freqs_hz=tuple(np.linspace(2, 45, 30)),
            encoder_dims=(64,), weight_init_scale=0.5,
        )
        params = init_params(cfg)
        w = params.encoder[0].w
        target = 0.5 / np.sqrt(cfg.input_dim)
        assert w.std() == pytest.approx(target, rel=0.2)
        assert np.all(params.encoder[0].b == 0.0)


class TestForward:
    def test_gamma_one_views_coincide(self):
        params = init_params(toy_config(gamma_sup=1.0))
        x, _, _ = toy_batch()
        _, _, emb_class, emb_domain = forward(params, x)
        assert np.array_equal(emb_class, emb_domain)

    def test_gamma_zero_class_path_ignores_suppressed_bins(self):
        params = init_params(toy_config(gamma_sup=0.0))
        x, _, _ = toy_batch(n=1)
        x = x[0]
        logits_before, domain_before, _, _ = forward(params, x[None])
        perturbed = x.copy()
        for idx in (0, 2, 4, 6, 8, 10):  # delta/alpha/gamma bins of both channels
            perturbed[idx] += 13.7
        logits_after, domain_after, _, _ = forward(params, perturbed[None])
        assert np.array_equal(logits_before, logits_after)
        assert not np.array_equal(domain_before, domain_after)

    def test_single_vector_matches_batch_row(self):
        # forward takes [trials x inputs] batches only, like the training step
        params = init_params(toy_config())
        x, _, _ = toy_batch()
        with pytest.raises(ShapeMismatch):
            forward(params, x[3])

    def test_shape_mismatch(self):
        params = init_params(toy_config())
        with pytest.raises(ShapeMismatch):
            forward(params, np.zeros(13))

    @pytest.mark.parametrize("gamma_sup", [0.2, 1.0])
    def test_matches_training_step_pass(self, gamma_sup):
        cfg = toy_config(gamma_sup=gamma_sup)
        params = init_params(cfg)
        x, yc, yd = toy_batch()
        class_logits, domain_logits, emb_class, emb_domain = forward(params, x)
        # the training step's losses, recomputed from forward's outputs
        loss = compute_loss(params, x, yc, yd, cfg)
        rows = np.arange(len(yc))
        assert -_log_softmax(class_logits)[rows, yc].mean() == loss.l_class
        assert -_log_softmax(domain_logits)[rows, yd].mean() == loss.l_domain
        assert mmd_rbf(emb_domain[yd == 0], emb_domain[yd == 1], 1.0) == loss.l_mmd
        # and each view is its own encoder pass; one stacked GEMM may round
        # differently from two
        ref_class, _ = ref_stack_forward(params.encoder, x * params.mask, True)
        ref_domain, _ = ref_stack_forward(params.encoder, x, True)
        np.testing.assert_allclose(emb_class, ref_class, rtol=1e-12, atol=0)
        np.testing.assert_allclose(emb_domain, ref_domain, rtol=1e-12, atol=0)


def double_sum_mmd(x, y, sigma):
    def k(u, v):
        return np.exp(-np.sum((u - v) ** 2) / (2 * sigma**2))

    xx = sum(k(a, b) for a in x for b in x) / (len(x) * len(x))
    yy = sum(k(a, b) for a in y for b in y) / (len(y) * len(y))
    xy = sum(k(a, b) for a in x for b in y) / (len(x) * len(y))
    return xx + yy - 2 * xy


class TestMmd:
    def test_identical_sets_zero(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(6, 3))
        assert abs(mmd_rbf(x, x, 1.3)) <= 1e-12

    def test_singleton_closed_form(self):
        x = np.array([[1.0, 2.0]])
        y = np.array([[3.0, -1.0]])
        sigma = 0.8
        d2 = np.sum((x - y) ** 2)
        expected = 2.0 - 2.0 * np.exp(-d2 / (2 * sigma**2))
        assert mmd_rbf(x, y, sigma) == pytest.approx(expected, abs=1e-14)

    def test_matches_double_sum_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n, m, d = rng.integers(1, 9), rng.integers(1, 9), rng.integers(1, 4)
            x = rng.normal(size=(n, d))
            y = rng.normal(size=(m, d))
            sigma = float(rng.uniform(0.3, 2.0))
            assert abs(mmd_rbf(x, y, sigma) - double_sum_mmd(x, y, sigma)) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_non_negative(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(rng.integers(1, 7), 4))
        y = rng.normal(size=(rng.integers(1, 7), 4))
        assert mmd_rbf(x, y, 1.0) >= -1e-12

    def test_empty_group(self):
        with pytest.raises(EmptyGroup):
            mmd_rbf(np.zeros((0, 3)), np.zeros((2, 3)), 1.0)

    @pytest.mark.parametrize("x, y", [(np.zeros(3), np.zeros((2, 3))),
                                      (np.zeros((2, 3)), np.zeros(3)),
                                      (np.zeros((2, 3)), np.zeros((2, 4)))])
    def test_groups_are_batches_of_one_width(self, x, y):
        with pytest.raises(ShapeMismatch, match="MMD needs two groups of one width"):
            mmd_rbf(x, y, 1.0)


class TestMedianHeuristic:
    """mmd_rbf with bandwidth None: sigma^2 = median pairwise squared
    distance of [x; y] / 2."""

    def test_two_points(self):
        x, y = np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]])  # distance 5
        # sigma^2 = 25 / 2, so the cross kernel is exp(-1)
        assert mmd_rbf(x, y, None) == pytest.approx(2.0 - 2.0 * np.exp(-1.0), abs=1e-12)

    def test_all_identical(self):
        assert mmd_rbf(np.ones((2, 3)), np.ones((3, 3)), None) == 0.0

    def test_matches_sorted_pairs_oracle(self):
        rng = np.random.default_rng(31)
        pts = rng.normal(size=(10, 4))
        sq = sorted(
            np.sum((pts[i] - pts[j]) ** 2)
            for i in range(10)
            for j in range(i + 1, 10)
        )
        assert len(sq) == 45
        med = sq[22]  # odd count: the middle element
        expected = double_sum_mmd(pts[:4], pts[4:], np.sqrt(med / 2.0))
        assert mmd_rbf(pts[:4], pts[4:], None) == pytest.approx(expected, rel=1e-12)


class TestLoss:
    def test_total_composition(self):
        cfg = toy_config()
        params = init_params(cfg)
        x, yc, yd = toy_batch()
        loss = compute_loss(params, x, yc, yd, cfg)
        assert loss.l_total == loss.l_class + 0.3 * loss.l_domain + 0.3 * loss.l_mmd
        assert loss.l_class >= 0 and loss.l_domain >= 0 and loss.l_mmd >= -1e-12

    def test_uniform_logits_entropy(self):
        cfg = toy_config(weight_init_scale=0.0)
        params = init_params(cfg)
        x, yc, yd = toy_batch()
        loss = compute_loss(params, x, yc, yd, cfg)
        assert loss.l_class == pytest.approx(np.log(4.0), abs=1e-12)
        assert loss.l_domain == pytest.approx(np.log(2.0), abs=1e-12)

    def test_single_domain_batch_flagged(self):
        cfg = toy_config()
        params = init_params(cfg)
        x, yc, _ = toy_batch()
        loss = compute_loss(params, x, yc, np.zeros(len(x), dtype=int), cfg)
        assert loss.single_domain
        assert loss.l_mmd == 0.0

    def test_median_bandwidth_path(self):
        cfg = toy_config(mmd_bandwidth=None)
        params = init_params(cfg)
        x, yc, yd = toy_batch()
        loss = compute_loss(params, x, yc, yd, cfg)
        assert np.isfinite(loss.l_mmd) and loss.l_mmd >= 0


def middle_pairs(params, x):
    """The pairs of trials whose domain-embedding distance np.median takes."""
    emb = forward(params, x)[3]
    rows, cols = np.triu_indices(len(emb), k=1)
    sq = ((emb[rows] - emb[cols]) ** 2).sum(axis=1)
    order = np.argsort(sq, kind="stable")
    return {(rows[p], cols[p]) for p in order[(len(sq) - 1) // 2 : len(sq) // 2 + 1]}


def finite_difference_check(cfg, x, yc, yd, eps=1e-4, tol=1e-4):
    """Central differences of l_total against backward. Under the median
    bandwidth, no perturbation may move another pair across a middle one,
    where the median has no derivative."""
    params = init_params(cfg)
    grads = backward(params, x, yc, yd, cfg)
    middle = middle_pairs(params, x) if cfg.mmd_bandwidth is None else None
    worst = 0.0
    for layer, grad in zip(params.all_layers(), grads.all_layers()):
        for arr, garr in ((layer.w, grad.w), (layer.b, grad.b)):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + eps
                up = compute_loss(params, x, yc, yd, cfg).l_total
                assert middle is None or middle_pairs(params, x) == middle
                arr[idx] = orig - eps
                down = compute_loss(params, x, yc, yd, cfg).l_total
                assert middle is None or middle_pairs(params, x) == middle
                arr[idx] = orig
                fd = (up - down) / (2 * eps)
                rel = abs(fd - garr[idx]) / (abs(garr[idx]) + 1e-8)
                worst = max(worst, rel)
    assert worst < tol, f"worst relative gradient error {worst}"
    return worst


class TestBackward:
    def test_finite_difference_full_loss(self):
        cfg = toy_config()
        x, yc, yd = toy_batch()
        finite_difference_check(cfg, x, yc, yd)

    def test_finite_difference_two_hidden_layers(self):
        cfg = toy_config(encoder_dims=(8, 5), class_head_dims=(6, 4),
                         domain_head_dims=(3, 2), seed=12)
        x, yc, yd = toy_batch(seed=9)
        finite_difference_check(cfg, x, yc, yd)

    # 45 pairs of 10 trials have one middle pair, 28 of 8 have two
    @pytest.mark.parametrize("n, n_middle", [(10, 1), (8, 2)])
    def test_finite_difference_median_bandwidth(self, n, n_middle):
        cfg = toy_config(mmd_bandwidth=None)
        x, yc, yd = toy_batch(n=n)
        assert len(middle_pairs(init_params(cfg), x)) == n_middle
        finite_difference_check(cfg, x, yc, yd)

    def test_lambdas_zero_equals_class_only(self):
        cfg_full = toy_config(lambda1=0.0, lambda2=0.0)
        params = init_params(cfg_full)
        x, yc, yd = toy_batch()
        grads = backward(params, x, yc, yd, cfg_full)
        for layer in grads.domain_head:
            assert np.all(layer.w == 0.0)
            assert np.all(layer.b == 0.0)
        # encoder grads equal the gradient of l_class alone
        eps = 1e-6
        w = params.encoder[0].w
        g = grads.encoder[0].w
        w[0, 0] += eps
        up = compute_loss(params, x, yc, yd, cfg_full).l_class
        w[0, 0] -= 2 * eps
        down = compute_loss(params, x, yc, yd, cfg_full).l_class
        w[0, 0] += eps
        assert g[0, 0] == pytest.approx((up - down) / (2 * eps), rel=1e-3, abs=1e-9)


class TestReferenceStep:
    """The fused step against the two-pass reference. Fusing reorders sums,
    so float64 results agree to roundoff; in baseline mode (identity mask,
    zero domain gradient) the arithmetic is unchanged and must be exact."""

    @pytest.mark.parametrize(
        "overrides, batch_seed, single_domain",
        [
            ({}, 7, False),
            (dict(encoder_dims=(8, 5), class_head_dims=(6, 4),
                  domain_head_dims=(3, 2), seed=12), 9, False),
            (dict(mmd_bandwidth=None), 7, False),
            ({}, 7, True),
            (dict(gamma_sup=1.0), 7, False),  # identity mask: shared view
        ],
        ids=["toy", "two-hidden", "median-bandwidth", "single-domain", "gamma-one"],
    )
    def test_backward_matches_reference(self, overrides, batch_seed, single_domain):
        cfg = toy_config(**overrides)
        params = init_params(cfg)
        x, yc, yd = toy_batch(seed=batch_seed)
        if single_domain:
            yd = np.zeros_like(yd)
        fused = backward(params, x, yc, yd, cfg)
        ref = reference_backward(params, x, yc, yd, cfg)
        for a, b in zip(fused.all_layers(), ref.all_layers()):
            np.testing.assert_allclose(a.w, b.w, rtol=1e-12, atol=0)
            np.testing.assert_allclose(a.b, b.b, rtol=1e-12, atol=0)

    def test_baseline_backward_exact(self):
        cfg = effective_config(toy_config(), TrainMode.BASELINE)
        params = init_params(cfg)
        x, yc, yd = toy_batch()
        fused = backward(params, x, yc, yd, cfg)
        ref = reference_backward(params, x, yc, yd, cfg)
        for a, b in zip(fused.all_layers(), ref.all_layers()):
            assert np.array_equal(a.w, b.w)
            assert np.array_equal(a.b, b.b)

    def test_train_matches_reference(self):
        cfg = toy_config(epochs=5, batch_size=4, learning_rate=0.05)
        x, yc, yd = toy_batch(n=20)
        params, _ = train(x, yc, yd, cfg, TrainMode.MULTITASK)
        ref = reference_train(x, yc, yd, cfg)
        for a, b in zip(params.all_layers(), ref.all_layers()):
            np.testing.assert_allclose(a.w, b.w, rtol=0, atol=1e-9)
            np.testing.assert_allclose(a.b, b.b, rtol=0, atol=1e-9)
        params, _ = train(x, yc, yd, cfg, TrainMode.BASELINE)
        ref = reference_train(x, yc, yd, effective_config(cfg, TrainMode.BASELINE))
        for a, b in zip(params.all_layers(), ref.all_layers()):
            assert np.array_equal(a.w, b.w)
            assert np.array_equal(a.b, b.b)


def assert_close_rel(actual, reference, tol):
    for a, b in zip(actual.all_layers(), reference.all_layers()):
        for x, y in ((a.w, b.w), (a.b, b.b)):
            assert np.linalg.norm(x - y) <= tol * np.linalg.norm(y)


def spy_dense_steps(monkeypatch):
    """The steps that see the first encoder weights moved from their value
    at the first step: the coefficient form keeps them there until training
    ends, the dense form updates them every step."""
    import eegintent.model as model

    calls, first = [], []
    real = model._step

    def recording(params, *args):
        w = params.encoder[0].w
        if not first:
            first.append(w.copy())
        elif not np.array_equal(w, first[0]):
            calls.append(w.copy())
        return real(params, *args)

    monkeypatch.setattr(model, "_step", recording)
    return calls


class TestSpanTrain:
    """train() keeps the first layer in coefficient form while its M view
    rows (N, or 2N with the mask) are fewer than the input dim, and updates
    W densely otherwise; both must follow the dense reference."""

    @pytest.mark.parametrize("mode", list(TrainMode), ids=lambda m: m.value)
    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            dict(encoder_dims=(8, 5), class_head_dims=(6, 4), domain_head_dims=(3, 2), seed=12),
            dict(mmd_bandwidth=None),
            dict(gamma_sup=1.0),
        ],
        ids=["toy", "two-hidden", "median-bandwidth", "gamma-one"],
    )
    def test_span_train_matches_reference(self, overrides, mode, monkeypatch):
        cfg = toy_config(n_channels=4, epochs=5, batch_size=4, **overrides)
        rng = np.random.default_rng(21)
        x = rng.normal(size=(10, 24))  # 2N = 20 rows < 24 inputs
        yc, yd = rng.integers(0, 4, 10), np.arange(10) % 2
        calls = spy_dense_steps(monkeypatch)
        params, _ = train(x, yc, yd, cfg, mode)
        assert not calls
        ref = reference_train(x, yc, yd, effective_config(cfg, mode))
        assert_close_rel(params, ref, 1e-9)

    @pytest.mark.parametrize(
        "mode, n, span",
        [
            (TrainMode.MULTITASK, 11, True),   # M = 22 < 24
            (TrainMode.MULTITASK, 12, False),  # M = 24
            (TrainMode.BASELINE, 23, True),
            (TrainMode.BASELINE, 24, False),
        ],
    )
    def test_branch_at_input_dim(self, mode, n, span, monkeypatch):
        cfg = toy_config(n_channels=4, epochs=3, batch_size=4)
        rng = np.random.default_rng(n)
        x = rng.normal(size=(n, 24))
        yc, yd = rng.integers(0, 4, n), np.arange(n) % 2
        calls = spy_dense_steps(monkeypatch)
        params, _ = train(x, yc, yd, cfg, mode)
        assert (not calls) == span
        ref = reference_train(x, yc, yd, effective_config(cfg, mode))
        assert_close_rel(params, ref, 1e-9)

    @pytest.mark.parametrize("shape", [(10, 25), (30, 25), (24,), (10, 12)])
    def test_wrong_feature_shape_raises_before_training(self, shape):
        cfg = toy_config(n_channels=4)
        n = shape[0]
        with pytest.raises(ShapeMismatch):
            train(np.zeros(shape), np.zeros(n, dtype=int), np.arange(n) % 2, cfg,
                  TrainMode.MULTITASK)


class TestTrain:
    def test_zero_learning_rate_keeps_params(self):
        cfg = toy_config(learning_rate=0.0, epochs=3, batch_size=4)
        x, yc, yd = toy_batch(n=12)
        params, _ = train(x, yc, yd, cfg, TrainMode.MULTITASK)
        init = init_params(cfg)
        for trained, original in zip(params.all_layers(), init.all_layers()):
            assert np.array_equal(trained.w, original.w)
            assert np.array_equal(trained.b, original.b)

    def test_deterministic(self):
        cfg = toy_config(epochs=5, batch_size=4, learning_rate=0.05)
        x, yc, yd = toy_batch(n=20)
        p1, h1 = train(x, yc, yd, cfg, TrainMode.MULTITASK)
        p2, h2 = train(x, yc, yd, cfg, TrainMode.MULTITASK)
        for a, b in zip(p1.all_layers(), p2.all_layers()):
            assert np.array_equal(a.w, b.w)
        assert [h.l_total for h in h1] == [h.l_total for h in h2]

    def test_loss_decreases_on_toy_problem(self):
        rng = np.random.default_rng(15)
        n = 40
        y_class = np.repeat(np.arange(4), 10)
        y_domain = np.tile([0, 1], 20)
        centers = rng.normal(scale=2.0, size=(4, 12))
        x = centers[y_class] + rng.normal(scale=0.5, size=(n, 12))
        cfg = toy_config(epochs=200, batch_size=8, learning_rate=0.05,
                         weight_init_scale=0.3)
        _, history = train(x, y_class, y_domain, cfg, TrainMode.MULTITASK)
        assert history[-1].l_total <= 0.5 * history[0].l_total

    def test_history_composition_identity(self):
        cfg = toy_config(epochs=4, batch_size=4)
        x, yc, yd = toy_batch(n=16)
        _, history = train(x, yc, yd, cfg, TrainMode.MULTITASK)
        for h in history:
            assert h.l_total == h.l_class + cfg.lambda1 * h.l_domain + cfg.lambda2 * h.l_mmd

    def test_baseline_mode_freezes_domain_head(self):
        cfg = toy_config(epochs=4, batch_size=4)
        x, yc, yd = toy_batch(n=16)
        params, history = train(x, yc, yd, cfg, TrainMode.BASELINE)
        init = init_params(ModelConfig.from_dict({**cfg.to_dict(),
                                                  "gamma_sup": 1.0,
                                                  "lambda1": 0.0,
                                                  "lambda2": 0.0}))
        for trained, original in zip(params.domain_head, init.domain_head):
            assert np.array_equal(trained.w, original.w)
        assert np.all(params.mask == 1.0)
        for h in history:
            assert h.l_total == h.l_class

    def test_divergence_raises_with_epoch(self):
        cfg = toy_config(learning_rate=1e9, epochs=10, batch_size=4)
        x, yc, yd = toy_batch(n=12)
        with pytest.raises(NonFiniteLoss) as err:
            train(100.0 * x, yc, yd, cfg, TrainMode.MULTITASK)
        assert err.value.epoch >= 0


class TestModelFile:
    def test_round_trip(self, tmp_path):
        cfg = toy_config()
        params = init_params(cfg)
        scaler = FeatureScaler.fit(toy_batch(n=20)[0])
        path = tmp_path / "model.bin"
        save_model(params, cfg, path, mode=TrainMode.MULTITASK,
                   config_hash="deadbeef", scaler=scaler)
        loaded, loaded_cfg, mode, loaded_scaler = load_model(path)
        assert loaded_cfg == cfg
        assert mode is TrainMode.MULTITASK
        assert np.allclose(loaded_scaler.mean, scaler.mean, atol=1e-6)
        for a, b in zip(loaded.all_layers(), params.all_layers()):
            assert np.allclose(a.w, b.w, atol=1e-6)
        assert np.array_equal(loaded.mask, params.mask)

    def test_baseline_round_trip_uses_identity_mask(self, tmp_path):
        cfg = toy_config()
        x, yc, yd = toy_batch(n=12)
        params, _ = train(x, yc, yd, toy_config(epochs=2, batch_size=4),
                          TrainMode.BASELINE)
        path = tmp_path / "model.bin"
        save_model(params, cfg, path, mode=TrainMode.BASELINE, scaler=FeatureScaler.fit(x),
                   config_hash="deadbeef")
        loaded, _, mode, _ = load_model(path)
        assert mode is TrainMode.BASELINE
        assert np.all(loaded.mask == 1.0)


class TestFeatureScaler:
    def test_transform_standardizes(self):
        rng = np.random.default_rng(3)
        x = rng.normal(loc=5.0, scale=2.0, size=(200, 7))
        scaler = FeatureScaler.fit(x)
        z = scaler.transform(x)
        assert np.allclose(z.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(z.std(axis=0), 1.0, atol=1e-12)

    def test_constant_column_guard(self):
        x = np.ones((10, 3))
        z = FeatureScaler.fit(x).transform(x)
        assert np.all(np.isfinite(z))
