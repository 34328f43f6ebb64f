"""Command-line pipeline: synth | features | stats | train | eval | report.

Every run is driven by one JSON config document; flags override file values
and the effective config's SHA-256 hash is embedded in every artifact, so a
run is reproducible from the config alone. Usage errors exit 2, data errors
exit 1 with the failing stage named.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

from .data import load_dataset, save_dataset, stratified_split_indices
from .errors import PipelineError, ShapeMismatch
from .evaluation import EvalReport, evaluate
from .model import (
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


def default_run_config() -> dict:
    # ModelConfig's defaults; the data sets n_channels and bin_freqs_hz, and
    # bands come from the top-level section
    model = {
        f.name: list(f.default) if isinstance(f.default, tuple) else f.default
        for f in fields(ModelConfig)
        if f.default is not MISSING
    }
    return {
        "out_dir": "runs",
        "synth": SynthConfig().to_dict(),
        "welch": WelchConfig().to_dict(),
        "bands": BandTable().to_dict(),
        "model": {**model, "seed": 11},
        "split": {"test_fraction": 0.4, "seed": 77},
        "stats": {"alpha": 0.05},
        "report": {"seeds": 5},
    }


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if key not in base:
            raise ValueError(f"unknown config key {path + key!r}")
        if isinstance(base[key], dict) and key != "bands":
            if not isinstance(value, dict):
                raise ValueError(f"config key {path + key!r} must be an object")
            out[key] = _merge(base[key], value, path + key + ".")
        else:
            out[key] = value
    return out


def load_run_config(path: str | None) -> dict:
    cfg = default_run_config()
    if path is None:
        return cfg
    p = Path(path)
    if not p.is_file():
        raise PipelineError(f"no config file at {p}")
    try:
        user = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise PipelineError(f"config file {p}: {exc}") from exc
    if not isinstance(user, dict):
        raise PipelineError(f"config file {p}: top level must be an object")
    try:
        return _merge(cfg, user)
    except ValueError as exc:
        raise PipelineError(f"config file {p}: {exc}") from exc


def config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _model_config(cfg: dict, n_channels: int, bin_freqs) -> ModelConfig:
    return ModelConfig(
        n_channels=n_channels,
        bin_freqs_hz=tuple(float(f) for f in bin_freqs),
        bands=BandTable.from_dict(cfg["bands"]),
        **{
            k: (tuple(v) if isinstance(v, list) else v)
            for k, v in cfg["model"].items()
        },
    )


def _split(cfg: dict, features):
    return stratified_split_indices(
        features.class_labels,
        features.domain_labels,
        cfg["split"]["test_fraction"],
        cfg["split"]["seed"],
    )


# --- subcommands ----------------------------------------------------------

def _cmd_synth(cfg: dict, args) -> int:
    out_dir = Path(args.out or cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset = generate_dataset(SynthConfig.from_dict(cfg["synth"]))
    manifest = out_dir / "dataset.json"
    save_dataset(dataset, manifest, config_hash=config_hash(cfg))
    print(f"wrote {manifest} ({len(dataset)} trials)")
    return 0


def _cmd_features(cfg: dict, args) -> int:
    dataset = load_dataset(args.dataset)
    features = extract_feature_set(
        dataset, WelchConfig(**cfg["welch"]), config_hash=config_hash(cfg)
    )
    out = Path(args.out or Path(cfg["out_dir"]) / "features.bin")
    out.parent.mkdir(parents=True, exist_ok=True)
    write_features(features, out)
    print(
        f"wrote {out} ({features.n_trials} trials x {features.n_channels} "
        f"channels x {features.n_bins} bins)"
    )
    return 0


def _write_maps(maps, out_dir: Path, chash: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for tmap in maps:
        (out_dir / f"stats_{tmap.band}.csv").write_text(
            topomap_csv(tmap, config_hash=chash), encoding="utf-8"
        )
        svg = f"<!-- config_hash={chash} -->\n" + render_topomap_svg(tmap)
        (out_dir / f"topomap_{tmap.band}.svg").write_text(svg, encoding="utf-8")


def _band_maps(cfg: dict, features, alpha: float):
    bands = BandTable.from_dict(cfg["bands"])
    powers = band_powers_from_features(features.values, features.bin_freqs_hz, bands)
    correct = features.domain_labels == 0
    return band_topomaps(
        powers[correct],
        powers[~correct],
        features.channel_names,
        default_montage(),
        bands,
        alpha=alpha,
    )


def _cmd_stats(cfg: dict, args) -> int:
    features = read_features(args.features)
    alpha = args.alpha if args.alpha is not None else cfg["stats"]["alpha"]
    maps = _band_maps(cfg, features, alpha)
    out_dir = Path(args.out or cfg["out_dir"])
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


def _cmd_train(cfg: dict, args) -> int:
    features = read_features(args.features)
    mode = TrainMode(args.mode)
    train_idx, _ = _split(cfg, features)
    subset = features.subset(train_idx)
    model_cfg = _model_config(cfg, features.n_channels, features.bin_freqs_hz)
    scaler = FeatureScaler.fit(subset.flat())
    params, history = train(
        scaler.transform(subset.flat()),
        subset.class_labels,
        subset.domain_labels,
        model_cfg,
        mode,
    )
    chash = config_hash(cfg)
    out = Path(args.out or Path(cfg["out_dir"]) / f"model_{mode.value}.bin")
    out.parent.mkdir(parents=True, exist_ok=True)
    save_model(params, model_cfg, out, mode=mode, config_hash=chash, scaler=scaler)
    history_path = Path(args.history) if args.history else out.with_suffix(".history.csv")
    history_path.write_text(_history_csv(history, chash), encoding="utf-8")
    last = history[-1]
    print(
        f"wrote {out} (mode={mode.value}, {len(history)} epochs, "
        f"final l_total={last.l_total:.4f})"
    )
    return 0


def _cmd_eval(cfg: dict, args) -> int:
    features = read_features(args.features)
    params, model_cfg, mode, scaler = load_model(args.model)
    feature_dim = features.n_channels * features.n_bins
    if feature_dim != model_cfg.input_dim:
        raise ShapeMismatch(
            f"feature file provides {feature_dim} values per trial, model "
            f"expects {model_cfg.input_dim}"
        )
    _, test_idx = _split(cfg, features)
    subset = features.subset(test_idx)
    x = scaler.transform(subset.flat()) if scaler is not None else subset.flat()
    report = evaluate(params, x, subset.class_labels, subset.domain_labels)
    payload = {"config_hash": config_hash(cfg), "mode": mode.value, **report.to_dict()}
    out = Path(args.out or Path(cfg["out_dir"]) / f"eval_{mode.value}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n", encoding="utf-8")
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
    for mode in (TrainMode.BASELINE, TrainMode.MULTITASK):
        m = mean_metrics[mode.value]
        lines.append(
            f"{mode.value:<12}{m['accuracy']:>10.1f}{m['f1_all']:>10.1f}"
            f"{m['f1_correct']:>12.1f}{m['f1_misarticulated']:>14.1f}"
        )
    return "\n".join(lines) + "\n"


def run_report(cfg: dict, n_seeds: int, out_dir: Path) -> dict:
    """Full pipeline over n_seeds seeds; returns the report payload."""
    chash = config_hash(cfg)
    base_synth = SynthConfig.from_dict(cfg["synth"])
    welch = WelchConfig(**cfg["welch"])
    per_seed = []
    for i in range(n_seeds):
        synth_cfg = SynthConfig.from_dict({**base_synth.to_dict(), "seed": base_synth.seed + i})
        dataset = generate_dataset(synth_cfg)
        features = extract_feature_set(dataset, welch, config_hash=chash)
        if i == 0:
            maps = _band_maps(cfg, features, cfg["stats"]["alpha"])
            _write_maps(maps, out_dir / "topomaps", chash)
        train_idx, test_idx = _split(cfg, features)
        train_set = features.subset(train_idx)
        test_set = features.subset(test_idx)
        model_cfg = _model_config(cfg, features.n_channels, features.bin_freqs_hz)
        scaler = FeatureScaler.fit(train_set.flat())
        x_train = scaler.transform(train_set.flat())
        x_test = scaler.transform(test_set.flat())
        row: dict = {"seed": synth_cfg.seed}
        for mode in (TrainMode.BASELINE, TrainMode.MULTITASK):
            params, _ = train(
                x_train,
                train_set.class_labels,
                train_set.domain_labels,
                model_cfg,
                mode,
            )
            report = evaluate(
                params, x_test, test_set.class_labels, test_set.domain_labels
            )
            row[mode.value] = report.to_dict()
        per_seed.append(row)

    mean_metrics = {
        mode.value: {
            metric: float(np.mean([row[mode.value][metric] for row in per_seed]))
            for metric in _METRICS
        }
        for mode in (TrainMode.BASELINE, TrainMode.MULTITASK)
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
    for row in payload["per_seed"]:
        for mode in (TrainMode.BASELINE, TrainMode.MULTITASK):
            m = row[mode.value]
            lines.append(
                f"{row['seed']},{mode.value},{m['accuracy']:.4f},{m['f1_all']:.4f},"
                f"{m['f1_correct']:.4f},{m['f1_misarticulated']:.4f},{m['n_test']}"
            )
    for mode in (TrainMode.BASELINE, TrainMode.MULTITASK):
        m = payload["mean"][mode.value]
        lines.append(
            f"mean,{mode.value},{m['accuracy']:.4f},{m['f1_all']:.4f},"
            f"{m['f1_correct']:.4f},{m['f1_misarticulated']:.4f},"
        )
    return "\n".join(lines) + "\n"


def _cmd_report(cfg: dict, args) -> int:
    n_seeds = args.seeds if args.seeds is not None else cfg["report"]["seeds"]
    if n_seeds < 1:
        raise PipelineError(f"--seeds must be at least 1, got {n_seeds}")
    out_dir = Path(args.out or cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = run_report(cfg, n_seeds, out_dir)
    (out_dir / "report.json").write_text(
        json.dumps(payload, sort_keys=True, indent=1) + "\n", encoding="utf-8"
    )
    (out_dir / "report.csv").write_text(_report_csv(payload), encoding="utf-8")
    table = _comparison_table(payload["mean"], n_seeds, payload["config_hash"])
    (out_dir / "comparison.txt").write_text(table, encoding="utf-8")
    print(table, end="")
    print(f"wrote report.json, report.csv, comparison.txt, topomaps/ to {out_dir}")
    return 0


# --- entry point ----------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eegintent",
        description="Synthetic-EEG speech-intention decoding pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON run-config file (defaults built in)")
        p.add_argument("--out", help="output directory or file")
        return p

    p = add("synth", "generate a synthetic labeled dataset")
    p.add_argument("--seed", type=int, help="override the generator seed")

    p = add("features", "extract Welch log-PSD features from a dataset")
    p.add_argument("--dataset", required=True, help="dataset manifest JSON")

    p = add("stats", "per-band t-maps with FDR correction (CSV + SVG)")
    p.add_argument("--features", required=True, help="feature file")
    p.add_argument("--alpha", type=float, help="significance level")

    p = add("train", "train the decoder on the config's train split")
    p.add_argument("--features", required=True, help="feature file")
    p.add_argument(
        "--mode",
        choices=[m.value for m in TrainMode],
        default=TrainMode.MULTITASK.value,
    )
    p.add_argument("--seed", type=int, help="override the training seed")
    p.add_argument("--history", help="training-history CSV path")

    p = add("eval", "evaluate a trained model on the config's test split")
    p.add_argument("--features", required=True, help="feature file")
    p.add_argument("--model", required=True, help="model file")

    p = add("report", "full pipeline over N seeds, baseline vs multitask")
    p.add_argument("--seeds", type=int, help="number of seeds")
    p.add_argument("--seed", type=int, help="override the base generator seed")

    return parser


_COMMANDS = {
    "synth": _cmd_synth,
    "features": _cmd_features,
    "stats": _cmd_stats,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    stage = args.command
    try:
        cfg = load_run_config(args.config)
        if getattr(args, "seed", None) is not None:
            if stage == "train":
                cfg["model"]["seed"] = args.seed
            else:
                cfg["synth"]["seed"] = args.seed
        return _COMMANDS[stage](cfg, args)
    except PipelineError as exc:
        print(f"error: {stage}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {stage}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
