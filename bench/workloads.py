"""The three benchmark workloads: `report`, `tmaps` and `stages`.

A workload builds its configuration once (part of set-up), then runs
rounds. A round is the unit that `wall_s` times:

- report: one `eegintent report --seeds 1` call, i.e. one dataset seed
  through synth, features, t-maps, baseline and multitask training, eval;
- tmaps: one default-generator dataset plus one null-generator dataset
  through synth, features, band powers, t-maps and SVG rendering;
- stages: the seven-call CLI chain synth, features, stats, train baseline,
  train multitask, eval baseline, eval multitask, every artifact on disk.

`run(i)` is the timed part of round i. `check(i, state)` runs untimed and
untraced: it validates the outputs, reads written artifacts back through the
public readers and returns the SHA-256 of every deterministic artifact.
Round i uses dataset seed `seed + i`, so a run is a pure function of the
benchmark seed and the number of rounds done.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from eegintent import cli, data, model, spectral, stats, synth
from eegintent.montage import default_montage

# Training budget of the `report` workload. The default config trains for
# 300 epochs, about a minute per seed on two cores; 40 epochs keeps two or
# three rounds inside one 40 s run while training stays most of a round.
REPORT_EPOCHS = 40
# `stages` trains briefly so that training is not the largest stage and the
# file codecs and per-command config handling stay visible.
STAGES_EPOCHS = 10
TMAPS_ALPHA = 0.05
NULL_TRIALS_PER_CLASS = 25
NULL_SEED_OFFSET = 10_000

# Tiny shapes for the smoke mode: the acceptance suite's SMALL_RUN config.
SMOKE_RUN = {
    "synth": {"n_trials_per_class": 10},
    "model": {
        "encoder_dims": [16, 8],
        "class_head_dims": [8, 4],
        "domain_head_dims": [8, 2],
        "epochs": 8,
        "batch_size": 8,
        "seed": 2,
    },
    "split": {"test_fraction": 0.3, "seed": 1},
}
SMOKE_NULL_TRIALS_PER_CLASS = 8

EVAL_METRICS = ("accuracy", "f1_all", "f1_correct", "f1_misarticulated")


@dataclass
class RoundResult:
    ops: int
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    quality: dict[str, float] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)


def _run_config(smoke: bool, epochs: int) -> dict:
    cfg = cli.default_run_config()
    cfg["model"]["epochs"] = epochs
    if smoke:
        for section, values in SMOKE_RUN.items():
            cfg[section].update(values)
    return cfg


def _call_cli(argv: list[str]) -> tuple[int, str]:
    """cli.main in-process with its output captured; (exit code, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, err.getvalue().strip()


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _digest_tree(root: Path, prefix: str) -> dict[str, str]:
    return {
        f"{prefix}/{p.relative_to(root).as_posix()}": _sha256(p)
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _all_finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


class Report:
    name = "report"

    def __init__(self, work: Path, seed: int, smoke: bool):
        self.work, self.seed = work, seed
        self.config = _run_config(smoke, REPORT_EPOCHS)
        self.config_path = work / "report_config.json"
        self.config_path.write_text(json.dumps(self.config), encoding="utf-8")

    def run(self, i: int):
        out = self.work / f"report_{i}"
        rc, err = _call_cli([
            "report", "--config", str(self.config_path), "--seeds", "1",
            "--seed", str(self.seed + i), "--out", str(out),
        ])
        return out, rc, err

    def check(self, i: int, state) -> RoundResult:
        out, rc, err = state
        result = RoundResult(ops=1)
        if rc != 0:
            result.fail(f"report seed {self.seed + i}: exit {rc}: {err}")
            return result
        try:
            payload = json.loads((out / "report.json").read_text(encoding="utf-8"))
            rows = payload["per_seed"]
            means = payload["mean"]
            values = [v for row in rows for m in ("baseline", "multitask")
                      for k, v in row[m].items() if k in EVAL_METRICS]
            values += [v for m in means.values() for v in m.values()]
            if len(rows) != 1 or rows[0]["seed"] != self.seed + i:
                result.fail(f"report seed {self.seed + i}: wrong per-seed rows")
            elif not _all_finite(values):
                result.fail(f"report seed {self.seed + i}: non-finite metric")
            else:
                base, multi = means["baseline"], means["multitask"]
                result.quality = {
                    "acc_baseline": base["accuracy"],
                    "acc_multitask": multi["accuracy"],
                    "f1_mis_gap": multi["f1_misarticulated"] - base["f1_misarticulated"],
                }
            result.digests = _digest_tree(out, f"seed{self.seed + i}")
        except (OSError, KeyError, TypeError, ValueError) as exc:
            result.fail(f"report seed {self.seed + i}: unreadable output: {exc!r}")
        shutil.rmtree(out, ignore_errors=True)
        return result


def _recovery(maps, montage) -> tuple[int, int, int]:
    """Pooled true positives, false positives and relevant cells for the
    generator's effects (synth.EFFECT_DIRECTIONS: band -> region, sign)."""
    tp = fp = relevant = 0
    by_band = {m.band: m for m in maps}
    for band, (region, sign) in synth.EFFECT_DIRECTIONS.items():
        tmap = by_band[band]
        expected = set(montage.names_in_region(region))
        predicted = {
            ch for ch, sig, t in zip(tmap.channels, tmap.significant, tmap.t)
            if sig and np.sign(t) == sign
        }
        tp += len(predicted & expected)
        fp += len(predicted - expected)
        relevant += len(expected)
    return tp, fp, relevant


class TMaps:
    name = "tmaps"

    def __init__(self, work: Path, seed: int, smoke: bool):
        self.seed = seed
        self.trials_per_class = (
            SMOKE_RUN["synth"]["n_trials_per_class"] if smoke
            else synth.SynthConfig().n_trials_per_class
        )
        self.null_trials_per_class = (
            SMOKE_NULL_TRIALS_PER_CLASS if smoke else NULL_TRIALS_PER_CLASS
        )
        self.welch = spectral.WelchConfig()
        self.bands = spectral.BandTable()
        self.montage = default_montage()

    def configs(self, i: int):
        default = synth.SynthConfig(seed=self.seed + i, n_trials_per_class=self.trials_per_class)
        null = synth.SynthConfig(
            seed=self.seed + NULL_SEED_OFFSET + i,
            n_trials_per_class=self.null_trials_per_class,
            delta_gain_mis=1.0,
            alpha_gain_mis=1.0,
            gamma_gain_mis=1.0,
        )
        return default, null

    def _maps(self, config):
        dataset = synth.generate_dataset(config)
        features = spectral.extract_feature_set(dataset, self.welch)
        powers = spectral.band_powers_from_features(
            features.values, features.bin_freqs_hz, self.bands
        )
        correct = features.domain_labels == 0
        maps = stats.band_topomaps(
            powers[correct], powers[~correct], features.channel_names,
            self.montage, self.bands, alpha=TMAPS_ALPHA,
        )
        return maps, [stats.render_topomap_svg(m) for m in maps]

    def run(self, i: int):
        outputs = []
        for config in self.configs(i):
            try:
                outputs.append(self._maps(config))
            except Exception:  # counted as a failed operation, never fatal
                outputs.append(traceback.format_exc(limit=3))
        return outputs

    def _check_maps(self, maps, svgs) -> str | None:
        if [m.band for m in maps] != list(self.bands.names) or len(svgs) != len(maps):
            return "wrong band list"
        for m in maps:
            if len(m.t) != len(self.montage) or not np.isfinite(m.t).all():
                return f"band {m.band}: t-values missing or non-finite"
            if ((m.p_adjusted < 0) | (m.p_adjusted > 1)).any():
                return f"band {m.band}: adjusted p outside [0, 1]"
            if not np.array_equal(m.significant, m.p_adjusted <= m.alpha):
                return f"band {m.band}: significance disagrees with adjusted p"
        if not all(s.startswith("<svg") and s.endswith("</svg>\n") for s in svgs):
            return "malformed SVG"
        return None

    def check(self, i: int, state) -> RoundResult:
        result = RoundResult(ops=2)
        for kind, config, output in zip(("default", "null"), self.configs(i), state):
            label = f"{kind} dataset seed {config.seed}"
            if isinstance(output, str):
                result.fail(f"{label}: {output}")
                continue
            maps, svgs = output
            problem = self._check_maps(maps, svgs)
            if problem:
                result.fail(f"{label}: {problem}")
                continue
            h = hashlib.sha256()
            for m in maps:
                for arr in (m.t, m.p_adjusted, m.significant):
                    h.update(np.ascontiguousarray(arr).tobytes())
            result.digests[f"seed{config.seed}/{kind}_maps"] = h.hexdigest()
            if kind == "default":
                tp, fp, relevant = _recovery(maps, self.montage)
                result.quality["tmap_precision"] = tp / (tp + fp) if tp + fp else 1.0
                result.quality["tmap_recall"] = tp / relevant
            else:
                result.quality["null_sig_frac"] = sum(
                    int(m.significant.sum()) for m in maps) / sum(len(m.t) for m in maps)
        return result


class Stages:
    name = "stages"

    def __init__(self, work: Path, seed: int, smoke: bool):
        self.work, self.seed = work, seed
        self.config = _run_config(smoke, STAGES_EPOCHS)
        self.config_path = work / "stages_config.json"
        self.config_path.write_text(json.dumps(self.config), encoding="utf-8")

    def _calls(self, i: int, d: Path) -> list[list[str]]:
        cfg = ["--config", str(self.config_path)]
        feats = ["--features", str(d / "features.bin")]
        calls = [
            ["synth", *cfg, "--seed", str(self.seed + i), "--out", str(d)],
            ["features", *cfg, "--dataset", str(d / "dataset.json"),
             "--out", str(d / "features.bin")],
            ["stats", *cfg, *feats, "--out", str(d / "stats")],
        ]
        for mode in ("baseline", "multitask"):
            calls.append(["train", *cfg, *feats, "--mode", mode,
                          "--out", str(d / f"model_{mode}.bin")])
        for mode in ("baseline", "multitask"):
            calls.append(["eval", *cfg, *feats, "--model", str(d / f"model_{mode}.bin"),
                          "--out", str(d / f"eval_{mode}.json")])
        return calls

    def run(self, i: int):
        d = self.work / f"stages_{i}"
        return d, [(argv[0], *_call_cli(argv)) for argv in self._calls(i, d)]

    def check(self, i: int, state) -> RoundResult:
        d, calls = state
        result = RoundResult(ops=len(calls))
        for cmd, rc, err in calls:
            if rc != 0:
                result.fail(f"stages seed {self.seed + i}: {cmd} exit {rc}: {err}")
        if result.failed:
            shutil.rmtree(d, ignore_errors=True)
            return result
        n_trials = 4 * self.config["synth"]["n_trials_per_class"]
        try:
            dataset = data.load_dataset(d / "dataset.json")
            if len(dataset) != n_trials:
                result.fail(f"synth: {len(dataset)} trials read back, wanted {n_trials}")
            features = spectral.read_features(d / "features.bin")
            if features.n_trials != n_trials or not np.isfinite(features.values).all():
                result.fail("features: wrong trial count or non-finite values read back")
            bands = spectral.BandTable().names
            for band in bands:
                for name in (f"stats_{band}.csv", f"topomap_{band}.svg"):
                    if not (d / "stats" / name).is_file():
                        result.fail(f"stats: {name} missing")
            for mode in ("baseline", "multitask"):
                params, _, file_mode, _ = model.load_model(d / f"model_{mode}.bin")
                if file_mode.value != mode or not all(
                    np.isfinite(layer.w).all() and np.isfinite(layer.b).all()
                    for layer in params.all_layers()
                ):
                    result.fail(f"train {mode}: wrong mode or non-finite weights read back")
                report = json.loads((d / f"eval_{mode}.json").read_text(encoding="utf-8"))
                if report.get("mode") != mode or not _all_finite(
                    [report[k] for k in EVAL_METRICS]
                ):
                    result.fail(f"eval {mode}: wrong mode or non-finite metric")
        except Exception as exc:  # a reader raising counts as a failed check
            result.fail(f"stages seed {self.seed + i}: read-back failed: {exc!r}")
        result.digests = _digest_tree(d, f"seed{self.seed + i}")
        shutil.rmtree(d, ignore_errors=True)
        return result


WORKLOADS = {w.name: w for w in (Report, TMaps, Stages)}
