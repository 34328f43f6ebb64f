"""Soft multitask decoder: shared encoder, band-suppressed class branch,
domain branch, and RBF-MMD alignment, trained by plain mini-batch gradient
descent with hand-derived gradients.

The encoder is one trunk applied to two views of each trial: the class
branch sees the feature vector with delta/alpha/gamma bins attenuated by a
fixed gain, the domain branch sees it unmasked. The MMD penalty pulls the
domain-branch embeddings of correct and misarticulated trials together.
Total loss: l_class + lambda1 * l_domain + lambda2 * l_mmd.

A step starts from z1, the first encoder layer's pre-activation, and returns
the loss gradient at z1; the caller holding that layer computes z1 and uses
the gradient (backward from the rows, train from its dense or span form).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .codec import (
    Schema,
    header_fields,
    read_header,
    unpack_floats,
    write_header_file,
)
from .data import DOMAIN_NAMES, N_CLASSES
from .errors import EmptyGroup, NonFiniteLoss, ShapeMismatch
from .spectral import BandTable

MODEL_FORMAT = "eegintent-model-v1"

SUPPRESSED_BANDS = ("delta", "alpha", "gamma")


class TrainMode(Enum):
    BASELINE = "baseline"
    MULTITASK = "multitask"


@dataclass(frozen=True)
class ModelConfig(Schema):
    """Architecture and training hyperparameters.

    mmd_bandwidth None means the per-batch median heuristic; a float fixes
    the RBF bandwidth.
    """

    n_channels: int
    bin_freqs_hz: tuple[float, ...]
    encoder_dims: tuple[int, ...] = (256, 64)
    class_head_dims: tuple[int, ...] = (32, 4)
    domain_head_dims: tuple[int, ...] = (32, 2)
    gamma_sup: float = 0.2
    lambda1: float = 0.3
    lambda2: float = 0.3
    mmd_bandwidth: float | None = 1.0
    learning_rate: float = 0.05
    epochs: int = 300
    batch_size: int = 16
    weight_init_scale: float = 0.3
    seed: int = 11
    bands: BandTable = field(default_factory=BandTable)

    def __post_init__(self):
        super().__post_init__()
        for name, minimum in (("epochs", 1), ("batch_size", 1), ("seed", 0), ("n_channels", 1)):
            if (value := getattr(self, name)) < minimum:
                raise ValueError(f"{name} must be an integer >= {minimum}, got {value}")
        if not self.bin_freqs_hz:
            raise ValueError("bin_freqs_hz needs at least one frequency bin")
        for name in ("encoder_dims", "class_head_dims", "domain_head_dims"):
            dims = getattr(self, name)
            if not dims or min(dims) < 1:
                raise ValueError(f"{name} must be one or more layer widths >= 1, got {dims}")
        if self.class_head_dims[-1] != N_CLASSES:
            raise ValueError(f"class_head_dims must end with {N_CLASSES} outputs")
        if self.domain_head_dims[-1] != len(DOMAIN_NAMES):
            raise ValueError(f"domain_head_dims must end with {len(DOMAIN_NAMES)} outputs")
        if not 0.0 <= self.gamma_sup <= 1.0:
            raise ValueError("gamma_sup must be in [0, 1]")
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValueError("lambda1 and lambda2 must be non-negative")
        if self.mmd_bandwidth is not None and self.mmd_bandwidth <= 0:
            raise ValueError("mmd_bandwidth must be positive when fixed")
        if not set(SUPPRESSED_BANDS) <= set(self.bands.names):
            raise ValueError(f"bands must include {', '.join(SUPPRESSED_BANDS)}")

    @property
    def input_dim(self) -> int:
        return self.n_channels * len(self.bin_freqs_hz)


@dataclass(frozen=True)
class FeatureScaler(Schema):
    """Per-bin standardization fitted on the training split.

    Log-PSD features share a large constant offset across trials; plain
    fixed-rate gradient descent stalls (or kills the ReLU trunk) on raw
    features, so the pipeline z-scores them before the decoder sees them.
    """

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        mean, std = self.mean, self.std
        if mean.ndim != 1 or mean.shape != std.shape or not (
            np.isfinite(mean).all() and np.isfinite(std).all() and (std > 0).all()
        ):
            raise ValueError("feature_scaling needs finite mean and std vectors "
                             "of one length, with std > 0")

    @classmethod
    def fit(cls, x) -> "FeatureScaler":
        x = np.asarray(x, dtype=np.float64)
        return cls(x.mean(axis=0), np.maximum(x.std(axis=0), 1e-6))

    def transform(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1:] != self.mean.shape:
            raise ShapeMismatch(f"features of shape {x.shape} for a scaler of dim {len(self.mean)}")
        return (x - self.mean) / self.std


def band_mask_bins(bin_freqs, bands: BandTable, gamma_sup: float) -> np.ndarray:
    """Length-F mask: gamma_sup on delta/alpha/gamma bins, 1.0 elsewhere."""
    freqs = np.asarray(bin_freqs, dtype=np.float64)
    mask = np.ones(len(freqs))
    for name in SUPPRESSED_BANDS:
        band = bands.get(name)
        mask[band.contains(freqs)] = gamma_sup
    return mask


def input_mask(config: ModelConfig) -> np.ndarray:
    """The bin mask broadcast over channels, length C*F."""
    return np.tile(
        band_mask_bins(config.bin_freqs_hz, config.bands, config.gamma_sup),
        config.n_channels,
    )


@dataclass
class Layer:
    w: np.ndarray
    b: np.ndarray


@dataclass
class ModelParams:
    """Weights of the shared encoder and both heads, plus the fixed mask."""

    encoder: list[Layer]
    class_head: list[Layer]
    domain_head: list[Layer]
    mask: np.ndarray

    def all_layers(self) -> list[Layer]:
        return [*self.encoder, *self.class_head, *self.domain_head]


def _stack_dims(config: ModelConfig):
    """Layer widths of the encoder, the class head and the domain head."""
    emb = config.encoder_dims[-1]
    return (
        (config.input_dim, *config.encoder_dims),
        (emb, *config.class_head_dims),
        (emb, *config.domain_head_dims),
    )


def _init_stack(rng, dims, scale) -> list[Layer]:
    layers = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        w = rng.normal(0.0, scale / np.sqrt(fan_in), size=(fan_in, fan_out))
        layers.append(Layer(w, np.zeros(fan_out)))
    return layers


def init_params(config: ModelConfig) -> ModelParams:
    """Fan-in-scaled Gaussian weights, zero biases, deterministic in seed."""
    rng = np.random.default_rng(config.seed)
    stacks = [_init_stack(rng, dims, config.weight_init_scale) for dims in _stack_dims(config)]
    return ModelParams(*stacks, input_mask(config))


# --- forward / loss ------------------------------------------------------

def _stack_forward(layers: list[Layer], x, relu_last: bool):
    """Output and (activations, pre-activations) cache of a stack on x."""
    acts, pre = [x], []
    for i, layer in enumerate(layers):
        z = acts[-1] @ layer.w + layer.b
        pre.append(z)
        acts.append(np.maximum(z, 0.0) if (relu_last or i < len(layers) - 1) else z)
    return acts[-1], (acts, pre)


def _stack_backward(layers, cache, d_out, relu_last: bool):
    """Weight gradients and the loss gradient at the stack's input."""
    acts, pre = cache
    grads = [None] * len(layers)
    d = d_out
    for i in reversed(range(len(layers))):
        if relu_last or i < len(layers) - 1:
            d = d * (pre[i] > 0)
        grads[i] = Layer(acts[i].T @ d, d.sum(axis=0))
        d = d @ layers[i].w.T
    return grads, d


def _check_features(params: ModelParams, x: np.ndarray) -> None:
    expected = params.encoder[0].w.shape[0]
    if x.ndim != 2 or x.shape[1] != expected:
        raise ShapeMismatch(
            f"feature dim {x.shape[-1]} does not match model input dim {expected}"
        )


def _view_rows(mask: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The encoder's rows [x * mask; x], or x alone when the mask is the
    identity and the two views coincide."""
    return x if np.all(mask == 1.0) else np.vstack([x * mask, x])


def _first_layer(params: ModelParams, x):
    """(rows, z1): the _view_rows of a [trials x inputs] batch and the first
    encoder layer's pre-activation on them."""
    x = np.asarray(x, dtype=np.float64)
    _check_features(params, x)
    rows = _view_rows(params.mask, x)
    return rows, rows @ params.encoder[0].w + params.encoder[0].b


def _two_view_pass(params: ModelParams, z1, n: int):
    """One encoder pass for both views of n trials from z1, the first encoder
    layer's pre-activation on their _view_rows. Returns the forward() outputs
    and the backward caches (shared, the later encoder layers, heads)."""
    emb, enc_cache = _stack_forward(params.encoder[1:], np.maximum(z1, 0.0), relu_last=True)
    shared = len(emb) == n
    emb_class, emb_domain = emb[:n], emb[len(emb) - n :]
    class_logits, cls_cache = _stack_forward(params.class_head, emb_class, relu_last=False)
    domain_logits, dom_cache = _stack_forward(params.domain_head, emb_domain, relu_last=False)
    outputs = (class_logits, domain_logits, emb_class, emb_domain)
    return outputs, (shared, enc_cache, cls_cache, dom_cache)


def forward(params: ModelParams, x):
    """(class_logits, domain_logits, embedding_class, embedding_domain) of a
    [trials x inputs] batch.

    The class branch runs the shared encoder on the mask-scaled features,
    the domain branch on the raw features.
    """
    _, z1 = _first_layer(params, x)
    return _two_view_pass(params, z1, len(x))[0]


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def _cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """(mean negative log-likelihood of integer labels under softmax logits,
    softmax - one-hot): the loss and n times its gradient at the logits."""
    logp = _log_softmax(logits)
    rows = np.arange(len(labels))
    probs = np.exp(logp)
    probs[rows, labels] -= 1.0
    return float(-logp[rows, labels].mean()), probs


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances between the rows of a and of b, clipped at 0."""
    sq = (a**2).sum(axis=1)[:, None] + (b**2).sum(axis=1)[None, :] - 2.0 * (a @ b.T)
    return np.maximum(sq, 0.0)


def _mmd(e: np.ndarray, w: np.ndarray, bandwidth: float | None):
    """(w.T K w, its gradient in e) for the RBF kernel K on the rows of e,
    from one distance matrix. bandwidth None takes the median heuristic,
    sigma^2 = median pairwise squared distance / 2, and the gradient includes
    the median's own, through its one or two middle pairs in a stable sort;
    where a middle distance ties another, the median has no derivative and
    that order picks one side. A zero median, as when every row is the same,
    gives (0.0, None)."""
    sq = _sq_dists(e, e)
    median = bandwidth is None
    if median:
        rows, cols = np.triu_indices(len(e), k=1)
        pairs = sq[rows, cols]
        med = float(np.median(pairs))
        if med <= 0.0:
            return 0.0, None
        bandwidth = np.sqrt(med / 2.0)
    k = np.exp(-sq / (2.0 * bandwidth**2))
    kw = k @ w
    grad = (2.0 / bandwidth**2) * w[:, None] * (k @ (w[:, None] * e) - kw[:, None] * e)
    if median:  # dL/dmed = w.T (K * sq) w / med^2; d sq_ij / d e_i = 2 (e_i - e_j)
        mid = np.argsort(pairs, kind="stable")[(len(pairs) - 1) // 2 : len(pairs) // 2 + 1]
        d_pair = (2.0 * (w @ (k * sq) @ w) / (med**2 * len(mid))) * (e[rows[mid]] - e[cols[mid]])
        np.add.at(grad, rows[mid], d_pair)
        np.add.at(grad, cols[mid], -d_pair)
    return float(w @ kw), grad


def _mmd_weights(n: int, m: int) -> np.ndarray:
    """w of the biased MMD: 1/n on the first n rows, -1/m on the next m."""
    return np.repeat([1.0 / n, -1.0 / m], [n, m])


def mmd_rbf(x, y, bandwidth: float | None) -> float:
    """Biased (V-statistic) squared MMD with an RBF kernel: w.T K w over
    [x; y], two [vectors x dims] groups (ShapeMismatch otherwise). bandwidth
    None means the median heuristic on [x; y], as ModelConfig.mmd_bandwidth
    None does per batch."""
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
        raise ShapeMismatch(f"MMD needs two groups of one width, got {x.shape} and {y.shape}")
    if len(x) == 0 or len(y) == 0:
        raise EmptyGroup("MMD needs at least one vector per group")
    if bandwidth is not None and bandwidth <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    return _mmd(np.vstack([x, y]), _mmd_weights(len(x), len(y)), bandwidth)[0]


@dataclass(frozen=True)
class LossBreakdown:
    l_class: float
    l_domain: float
    l_mmd: float
    l_total: float
    single_domain: bool


def _labels(y_class, y_domain):
    return np.asarray(y_class, dtype=np.int64), np.asarray(y_domain, dtype=np.int64)


def _step(params, z1, y_class, y_domain, config):
    """(grads, d1, loss) of one batch from z1, the first encoder layer's
    pre-activation on its _view_rows: the gradients of every other layer,
    and d1, the loss gradient at z1."""
    n = len(y_class)
    (class_logits, domain_logits, _, emb_domain), caches = _two_view_pass(params, z1, n)
    shared, enc_cache, cls_cache, dom_cache = caches

    l_class, probs = _cross_entropy(class_logits, y_class)
    l_domain, probs_d = _cross_entropy(domain_logits, y_domain)

    n_mis = int(np.count_nonzero(y_domain))
    single_domain = n_mis in (0, n)
    l_mmd, d_mmd = 0.0, None
    if not single_domain:  # domain rows correct first, as mmd_rbf(correct, mis) stacks them
        order = np.argsort(y_domain, kind="stable")
        l_mmd, d_mmd = _mmd(emb_domain[order], _mmd_weights(n - n_mis, n_mis),
                            config.mmd_bandwidth)
    loss = LossBreakdown(
        l_class,
        l_domain,
        l_mmd,
        l_class + config.lambda1 * l_domain + config.lambda2 * l_mmd,
        single_domain,
    )

    # class path
    cls_head_grads, d_emb_class = _stack_backward(params.class_head, cls_cache, probs / n,
                                                  relu_last=False)

    # domain path: weighted cross-entropy plus the MMD alignment term
    dom_head_grads, d_emb_domain = _stack_backward(
        params.domain_head, dom_cache, config.lambda1 * probs_d / n, relu_last=False
    )
    if config.lambda2 != 0.0 and d_mmd is not None:
        d_emb_domain[order] += config.lambda2 * d_mmd

    # one encoder backward for both views, rows aligned with the forward pass
    d_emb = d_emb_class + d_emb_domain if shared else np.vstack([d_emb_class, d_emb_domain])
    encoder_grads, d_h1 = _stack_backward(params.encoder[1:], enc_cache, d_emb, relu_last=True)
    grads = ModelParams(encoder_grads, cls_head_grads, dom_head_grads, params.mask)
    return grads, d_h1 * (z1 > 0), loss


def compute_loss(params, x, y_class, y_domain, config: ModelConfig) -> LossBreakdown:
    """Eq.-style loss split; l_mmd is 0 (and flagged) for single-domain batches."""
    _, z1 = _first_layer(params, x)
    return _step(params, z1, *_labels(y_class, y_domain), config)[2]


def backward(params, x, y_class, y_domain, config: ModelConfig) -> ModelParams:
    """Analytic gradient of the total loss for every weight and bias."""
    rows, z1 = _first_layer(params, x)
    grads, d1, _ = _step(params, z1, *_labels(y_class, y_domain), config)
    grads.encoder.insert(0, Layer(rows.T @ d1, d1.sum(axis=0)))
    return grads


def effective_config(config: ModelConfig, mode: TrainMode) -> ModelConfig:
    """Baseline mode disables the mask and both auxiliary losses."""
    if mode is TrainMode.BASELINE:
        return replace(config, gamma_sup=1.0, lambda1=0.0, lambda2=0.0)
    return config


def train(
    x,
    y_class,
    y_domain,
    config: ModelConfig,
    mode: TrainMode,
) -> tuple[ModelParams, list[LossBreakdown]]:
    """Mini-batch gradient descent, deterministic in config.seed.

    Returns the trained parameters and one aggregated LossBreakdown per
    epoch. Raises NonFiniteLoss (with the epoch index) on divergence.
    """
    cfg = effective_config(config, mode)
    x = np.asarray(x, dtype=np.float64)
    y_class, y_domain = _labels(y_class, y_domain)
    n = len(x)
    if n == 0:
        raise ValueError("cannot train on an empty set")
    params = init_params(cfg)
    _check_features(params, x)
    shuffle_rng = np.random.default_rng([cfg.seed, 0x5EED])
    history: list[LossBreakdown] = []
    # divergence surfaces as NonFiniteLoss, not as overflow warning spam
    with np.errstate(over="ignore", invalid="ignore"):
        _train_loop(params, x, y_class, y_domain, cfg, shuffle_rng, history)
    return params, history


def _train_loop(params, x, y_class, y_domain, cfg, shuffle_rng, history):
    """Plain SGD keeps the first encoder layer at W_0 + R.T @ C for the M
    _view_rows R of x. While M < input_dim, a step takes the first layer's
    pre-activation from P0 = R @ W_0, the Gram matrix R @ R.T and C, and W
    is formed once at the end; else it takes R @ W and W is updated densely."""
    (n, dim), first, lr = x.shape, params.encoder[0], cfg.learning_rate
    rows = _view_rows(params.mask, x)
    m = len(rows)
    span = m < dim
    if span:
        p0, gram, coef = rows @ first.w, rows @ rows.T, np.zeros((m, first.w.shape[1]))
    for epoch in range(cfg.epochs):
        perm = shuffle_rng.permutation(n)
        sums = np.zeros(3)
        any_single = False
        for start in range(0, n, cfg.batch_size):
            batch = perm[start : start + cfg.batch_size]
            r = batch if m == n else np.concatenate([batch, batch + n])
            if span:
                z1 = p0[r] + gram[r] @ coef + first.b
            else:
                view = rows[r]
                z1 = view @ first.w + first.b
            grads, d1, loss = _step(params, z1, y_class[batch], y_domain[batch], cfg)
            if not np.isfinite(loss.l_total):
                raise NonFiniteLoss(epoch)
            for layer, grad in zip(params.all_layers()[1:], grads.all_layers()):
                layer.w -= np.multiply(grad.w, lr, out=grad.w)  # no temporary
                layer.b -= np.multiply(grad.b, lr, out=grad.b)
            first.b -= lr * d1.sum(axis=0)
            if span:
                coef[r] -= lr * d1
            else:
                first.w -= lr * (view.T @ d1)
            sums += np.array([loss.l_class, loss.l_domain, loss.l_mmd]) * len(batch)
            any_single = any_single or loss.single_domain
        l_class, l_domain, l_mmd = sums / n  # the batches cover every row once
        history.append(
            LossBreakdown(
                float(l_class),
                float(l_domain),
                float(l_mmd),
                float(l_class + cfg.lambda1 * l_domain + cfg.lambda2 * l_mmd),
                any_single,
            )
        )
    if span:  # free P0 and K, then fold R.T @ C into W by blocks: no W-sized temporary
        del p0, gram
        for i in range(0, dim, 256):
            first.w[i : i + 256] += rows[:, i : i + 256].T @ coef


# --- model file ----------------------------------------------------------

def save_model(
    params: ModelParams,
    config: ModelConfig,
    path,
    *,
    mode: TrainMode,
    scaler: FeatureScaler,
    config_hash: str,
) -> None:
    """One JSON header line (config + shapes + scaler), then float32 weights."""
    layers = params.all_layers()
    header = {
        "format": MODEL_FORMAT,
        "config_hash": config_hash,
        "mode": mode.value,
        "config": config.to_dict(),
        "feature_scaling": scaler.to_dict(),
        "layer_shapes": [[list(layer.w.shape), list(layer.b.shape)] for layer in layers],
    }
    write_header_file(path, header, [a for layer in layers for a in (layer.w, layer.b)])


def load_model(path) -> tuple[ModelParams, ModelConfig, TrainMode, FeatureScaler]:
    """Read a file written by save_model; MalformedManifest unless the layer
    shapes match the config's dims, the scaler its input dim, and all is finite."""
    header, blob = read_header(path, MODEL_FORMAT, "model file")
    with header_fields(path):
        config = ModelConfig.from_dict(header["config"])
        mode = TrainMode(header["mode"])
        scaler = FeatureScaler.from_dict(header["feature_scaling"])
        if len(scaler.mean) != config.input_dim:
            raise ValueError(f"feature_scaling has {len(scaler.mean)} entries for "
                             f"input dim {config.input_dim}")
        stacks = _stack_dims(config)
        shapes = [[[a, b], [b]] for dims in stacks for a, b in zip(dims[:-1], dims[1:])]
        if header["layer_shapes"] != shapes:
            raise ValueError(f"layer_shapes {header['layer_shapes']} do not match "
                             f"the config's dims {shapes}")
        arrays = unpack_floats(blob, [s for pair in shapes for s in pair])
        mask = input_mask(effective_config(config, mode))
    layers = [Layer(w.astype(np.float64), b.astype(np.float64))
              for w, b in zip(arrays[::2], arrays[1::2])]
    n_enc, n_cls = len(stacks[0]) - 1, len(stacks[1]) - 1
    params = ModelParams(
        layers[:n_enc], layers[n_enc : n_enc + n_cls], layers[n_enc + n_cls :], mask
    )
    return params, config, mode, scaler
