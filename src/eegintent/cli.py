"""Command-line pipeline: synth | features | stats | train | eval | report.

Every run is driven by one JSON config document; flags override file values
and the effective config's SHA-256 hash is embedded in every artifact, so a
run is reproducible from the config alone. Usage errors exit 2, data errors
exit 1 with the failing stage named.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .codec import Schema, write_text
from .data import (
    SplitConfig,
    load_dataset,
    save_dataset,
    stratified_split_indices,
)
from .errors import OutOfMemory, PipelineError, ShapeMismatch, SplitMismatch
from .evaluation import evaluate
from .model import (
    SUPPRESSED_BANDS,
    FeatureScaler,
    ModelConfig,
    TrainMode,
    load_model,
    save_model,
    train,
)
from .montage import default_montage
from .spectral import (
    BandTable,
    WelchConfig,
    band_powers_from_features,
    extract_feature_set,
    read_features,
    write_features,
)
from .stats import band_topomaps, render_topomap_svg, topomap_csv
from .synth import SynthConfig, generate_dataset


@dataclass(frozen=True)
class StatsConfig(Schema):
    alpha: float = 0.05

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")


@dataclass(frozen=True)
class ReportConfig(Schema):
    seeds: int = 5

    def __post_init__(self):
        super().__post_init__()
        if self.seeds < 1:
            raise ValueError(f"seeds must be at least 1, got {self.seeds}")


# ModelConfig's fields that the data and the bands section set, not the model section
_DATA_KEYS = ("n_channels", "bin_freqs_hz", "bands")


@dataclass(frozen=True)
class RunConfig(Schema):
    """The run config: one section per stage. A file's section replaces only
    the keys it names, except `bands`, which replaces the whole table."""

    out_dir: str = "runs"
    synth: SynthConfig = field(default_factory=SynthConfig)
    welch: WelchConfig = field(default_factory=WelchConfig)
    bands: BandTable = field(default_factory=BandTable)
    model: dict = field(default_factory=dict)
    split: SplitConfig = field(default_factory=SplitConfig)
    stats: StatsConfig = field(default_factory=StatsConfig)
    report: ReportConfig = field(default_factory=ReportConfig)

    def __post_init__(self):
        super().__post_init__()
        try:  # the data sets the real shape
            if data_keys := [key for key in self.model if key in _DATA_KEYS]:
                raise ValueError(f"{data_keys[0]} is not a known key")
            model = _model_config(self, 1, [1.0]).to_dict()
        except ValueError as exc:
            raise ValueError(f"model.{exc}") from None
        object.__setattr__(self, "model", {k: model[k] for k in model if k not in _DATA_KEYS})
        # the decoder's mask must not suppress class evidence
        suppressed = [self.bands.get(name) for name in SUPPRESSED_BANDS]
        for class_label, freqs in enumerate(self.synth.class_signature_freqs_hz):
            for f in freqs:
                for band in suppressed:
                    if band.contains(f):
                        raise ValueError(
                            f"synth.class_signature_freqs_hz: class {class_label} signature "
                            f"{f:g} Hz falls in the suppressed {band.name} band")


def default_run_config() -> dict:
    return RunConfig().to_dict()


def load_run_config(path: str | None, args=None) -> RunConfig:
    """The defaults with the file's values merged in, then the parsed flags in
    `args` that override a config value (--seed, --alpha, --seeds), every
    value checked and hashed alike: an unknown key or a bad value is a
    ValueError that names the dotted key."""
    user = {}
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise PipelineError(f"no config file at {p}")
        try:
            user = json.loads(p.read_text(encoding="utf-8"))
        except (UnicodeDecodeError, ValueError, RecursionError) as exc:
            raise PipelineError(f"config file {p}: {exc}") from exc
        if not isinstance(user, dict):
            raise PipelineError(f"config file {p}: top level must be an object")
    seed_section = "model" if getattr(args, "stage", None) == "train" else "synth"
    for key, section in (("seed", seed_section), ("alpha", "stats"), ("seeds", "report")):
        value = getattr(args, key, None)
        if value is not None and isinstance(user.get(section, {}), dict):
            user[section] = {**user.get(section, {}), key: value}
    return RunConfig.from_dict(user)


def config_hash(cfg: RunConfig) -> str:
    canonical = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _model_config(cfg: RunConfig, n_channels: int, bin_freqs) -> ModelConfig:
    """The model section as a ModelConfig for data of this layout and the run's bands."""
    return ModelConfig.from_dict(
        {**cfg.model, "n_channels": n_channels, "bin_freqs_hz": bin_freqs, "bands": cfg.bands})


def _split(cfg: RunConfig, features):
    """The config's (train, test) subsets of a feature set."""
    indices = stratified_split_indices(
        features.class_labels, features.domain_labels, cfg.split.test_fraction, cfg.split.seed
    )
    return tuple(features.subset(i) for i in indices)


# --- subcommands ----------------------------------------------------------

def _cmd_synth(cfg: RunConfig, args) -> int:
    out_dir = Path(args.out or cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = out_dir / "dataset.json"
    dataset = generate_dataset(cfg.synth, path=manifest)  # room for the blob first
    save_dataset(dataset, manifest, config_hash=config_hash(cfg))
    print(f"wrote {manifest} ({len(dataset)} trials)")
    return 0


def _cmd_features(cfg: RunConfig, args) -> int:
    dataset = load_dataset(args.dataset)
    features = extract_feature_set(dataset, cfg.welch)
    out = Path(args.out or Path(cfg.out_dir) / "features.bin")
    out.parent.mkdir(parents=True, exist_ok=True)
    write_features(features, out, sample_rate_hz=dataset.spec.sample_rate_hz,
                   config_hash=config_hash(cfg))
    print(
        f"wrote {out} ({features.n_trials} trials x {features.n_channels} "
        f"channels x {features.n_bins} bins)"
    )
    return 0


def _write_maps(maps, out_dir: Path, chash: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for tmap in maps:
        write_text(out_dir / f"stats_{tmap.band}.csv", topomap_csv(tmap, config_hash=chash))
        svg = f"<!-- config_hash={chash} -->\n" + render_topomap_svg(tmap)
        write_text(out_dir / f"topomap_{tmap.band}.svg", svg)


def _band_maps(cfg: RunConfig, features):
    powers = band_powers_from_features(features.values, features.bin_freqs_hz, cfg.bands)
    correct = features.domain_labels == 0
    return band_topomaps(powers[correct], powers[~correct], features.channel_names,
                         default_montage(), cfg.bands, alpha=cfg.stats.alpha)


def _cmd_stats(cfg: RunConfig, args) -> int:
    features = read_features(args.features)
    maps = _band_maps(cfg, features)
    out_dir = Path(args.out or cfg.out_dir)
    _write_maps(maps, out_dir, config_hash(cfg))
    n_sig = sum(int(m.significant.sum()) for m in maps)
    print(f"wrote {len(maps)} band maps to {out_dir} ({n_sig} significant cells)")
    return 0


def _history_csv(history, chash: str) -> str:
    lines = [f"# config_hash={chash}", "epoch,l_class,l_domain,l_mmd,l_total"]
    for i, h in enumerate(history):
        lines.append(
            f"{i},{h.l_class:.10g},{h.l_domain:.10g},{h.l_mmd:.10g},{h.l_total:.10g}"
        )
    return "\n".join(lines) + "\n"


def _train_on(cfg: RunConfig, train_set, scaler: FeatureScaler, mode: TrainMode):
    """(params rounded to float32 in place, as in a model file, model config,
    history) of training on the train set's rows standardized by scaler."""
    model_cfg = _model_config(cfg, train_set.n_channels, train_set.bin_freqs_hz)
    params, history = train(scaler.transform(train_set.flat()), train_set.class_labels,
                            train_set.domain_labels, model_cfg, mode)
    for layer in params.all_layers():
        layer.w[...], layer.b[...] = layer.w.astype(np.float32), layer.b.astype(np.float32)
    return params, model_cfg, history


def _evaluate_on(params, scaler, test_set):
    x = scaler.transform(test_set.flat())
    return evaluate(params, x, test_set.class_labels, test_set.domain_labels)


def _cmd_train(cfg: RunConfig, args) -> int:
    mode = TrainMode(args.mode)
    train_set = _split(cfg, read_features(args.features))[0]  # the features go before training
    scaler = FeatureScaler.fit(train_set.flat())
    params, model_cfg, history = _train_on(cfg, train_set, scaler, mode)
    chash = config_hash(cfg)
    out = Path(args.out or Path(cfg.out_dir) / f"model_{mode.value}.bin")
    out.parent.mkdir(parents=True, exist_ok=True)
    save_model(params, model_cfg, out, mode=mode, config_hash=chash, scaler=scaler)
    write_text(out.with_suffix(".history.csv"), _history_csv(history, chash))
    last = history[-1]
    print(
        f"wrote {out} (mode={mode.value}, {len(history)} epochs, "
        f"final l_total={last.l_total:.4f})"
    )
    return 0


def _cmd_eval(cfg: RunConfig, args) -> int:
    features = read_features(args.features)
    params, model_cfg, mode, scaler = load_model(args.model)
    layouts = [(c.n_channels, tuple(map(float, c.bin_freqs_hz))) for c in (features, model_cfg)]
    if layouts[0] != layouts[1]:  # a flat width can match on another layout
        raise ShapeMismatch("features of {} for a model of {}".format(*(
            f"{n} channels x {len(f)} bins {f[:1] + f[-1:]} Hz" for n, f in layouts)))
    train_set, test_set = _split(cfg, features)
    refit = FeatureScaler.fit(train_set.flat())  # the model file's scaler, if trained on this split
    if not np.allclose(np.r_[refit.mean, refit.std], np.r_[scaler.mean, scaler.std],
                       rtol=1e-9, atol=0):
        raise SplitMismatch(f"{args.model} was not trained on the train split of {args.features} "
                            f"at split.test_fraction {cfg.split.test_fraction}, "
                            f"split.seed {cfg.split.seed}")
    report = _evaluate_on(params, scaler, test_set)
    payload = {"config_hash": config_hash(cfg), "mode": mode.value, **report.to_dict()}
    out = Path(args.out or Path(cfg.out_dir) / f"eval_{mode.value}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    write_text(out, json.dumps(payload, sort_keys=True, indent=1) + "\n")
    print(
        f"{mode.value}: accuracy {report.accuracy:.1f}  f1_all {report.f1_all:.1f}  "
        f"f1_correct {report.f1_correct:.1f}  f1_misarticulated "
        f"{report.f1_misarticulated:.1f}  (n={report.n_test})"
    )
    return 0


_METRICS = ("accuracy", "f1_all", "f1_correct", "f1_misarticulated")


def _comparison_table(mean_metrics: dict, n_seeds: int, chash: str) -> str:
    lines = [
        f"Baseline vs multitask, mean over {n_seeds} seed(s)",
        f"config_hash={chash}",
        "",
        f"{'Model':<12}{'Accuracy':>10}{'F1 all':>10}{'F1 correct':>12}"
        f"{'F1 misartic.':>14}",
    ]
    for mode in TrainMode:
        m = mean_metrics[mode.value]
        lines.append(
            f"{mode.value:<12}{m['accuracy']:>10.1f}{m['f1_all']:>10.1f}"
            f"{m['f1_correct']:>12.1f}{m['f1_misarticulated']:>14.1f}"
        )
    return "\n".join(lines) + "\n"


def run_report(cfg: RunConfig, n_seeds: int, out_dir: Path) -> dict:
    """Full pipeline over n_seeds seeds; returns the report payload. A seed's
    modes share its scaler, and each is evaluated and dropped before the next trains."""
    chash = config_hash(cfg)
    per_seed = []
    for i in range(n_seeds):
        synth_cfg = replace(cfg.synth, seed=cfg.synth.seed + i)
        features = extract_feature_set(generate_dataset(synth_cfg), cfg.welch)
        if i == 0:
            _write_maps(_band_maps(cfg, features), out_dir / "topomaps", chash)
        train_set, test_set = _split(cfg, features)
        del features
        scaler = FeatureScaler.fit(train_set.flat())
        row: dict = {"seed": synth_cfg.seed}
        for mode in TrainMode:
            params = _train_on(cfg, train_set, scaler, mode)[0]
            row[mode.value] = _evaluate_on(params, scaler, test_set).to_dict()
            del params
        per_seed.append(row)

    mean_metrics = {
        mode.value: {
            metric: float(np.mean([row[mode.value][metric] for row in per_seed]))
            for metric in _METRICS
        }
        for mode in TrainMode
    }
    return {
        "config_hash": chash,
        "n_seeds": n_seeds,
        "per_seed": per_seed,
        "mean": mean_metrics,
    }


def _report_csv(payload: dict) -> str:
    lines = [f"# config_hash={payload['config_hash']}"]
    lines.append("seed,mode,accuracy,f1_all,f1_correct,f1_misarticulated,n_test")
    # per-seed rows, then the mean rows with an empty n_test
    rows = [(row["seed"], row) for row in payload["per_seed"]] + [("mean", payload["mean"])]
    for seed, metrics in rows:
        for mode in TrainMode:
            m = metrics[mode.value]
            lines.append(
                f"{seed},{mode.value},{m['accuracy']:.4f},{m['f1_all']:.4f},"
                f"{m['f1_correct']:.4f},{m['f1_misarticulated']:.4f},{m.get('n_test', '')}"
            )
    return "\n".join(lines) + "\n"


def _cmd_report(cfg: RunConfig, args) -> int:
    n_seeds = cfg.report.seeds
    out_dir = Path(args.out or cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = run_report(cfg, n_seeds, out_dir)
    write_text(out_dir / "report.json", json.dumps(payload, sort_keys=True, indent=1) + "\n")
    write_text(out_dir / "report.csv", _report_csv(payload))
    table = _comparison_table(payload["mean"], n_seeds, payload["config_hash"])
    write_text(out_dir / "comparison.txt", table)
    print(table, end="")
    print(f"wrote report.json, report.csv, comparison.txt, topomaps/ to {out_dir}")
    return 0


# --- entry point ----------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eegintent",
        description="Synthetic-EEG speech-intention decoding pipeline.",
    )
    sub = parser.add_subparsers(dest="stage", required=True)

    def add(name, help_text, command):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(command=command)
        p.add_argument("--config", help="JSON run-config file (defaults built in)")
        p.add_argument("--out", help="output directory or file")
        return p

    p = add("synth", "generate a synthetic labeled dataset", _cmd_synth)
    p.add_argument("--seed", type=int, help="override the generator seed")

    p = add("features", "extract Welch log-PSD features from a dataset", _cmd_features)
    p.add_argument("--dataset", required=True, help="dataset manifest JSON")

    p = add("stats", "per-band t-maps with FDR correction (CSV + SVG)", _cmd_stats)
    p.add_argument("--features", required=True, help="feature file")
    p.add_argument("--alpha", type=float, help="significance level")

    p = add("train", "train the decoder on the config's train split", _cmd_train)
    p.add_argument("--features", required=True, help="feature file")
    p.add_argument(
        "--mode",
        choices=[m.value for m in TrainMode],
        default=TrainMode.MULTITASK.value,
    )
    p.add_argument("--seed", type=int, help="override the training seed")

    p = add("eval", "evaluate a trained model on the config's test split", _cmd_eval)
    p.add_argument("--features", required=True, help="feature file")
    p.add_argument("--model", required=True, help="model file")

    p = add("report", "full pipeline over N seeds, baseline vs multitask", _cmd_report)
    p.add_argument("--seeds", type=int, help="number of seeds")
    p.add_argument("--seed", type=int, help="override the base generator seed")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    stage = args.stage
    try:
        cfg = load_run_config(args.config, args)
        return args.command(cfg, args)
    except (PipelineError, ValueError, OSError, MemoryError) as exc:
        exc = OutOfMemory(exc) if isinstance(exc, MemoryError) else exc
        print(f"error: {stage}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
