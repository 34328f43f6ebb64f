"""One fresh benchmark process: set up, run rounds, write a JSON result.

Started by run.py, never by hand. Set-up (imports, BLAS start-up, workload
config) is timed from the parent's clock reading taken just before this
process was spawned. With --probe the process stops after set-up. With
--trace the public layer functions are wrapped and per-layer metrics are
added to the result.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

def _blas_info() -> dict:
    """Runtime OpenBLAS build string and thread count, when it can be found."""
    import numpy as np

    info = {"numpy": np.__version__, "openblas": None, "blas_threads": None}
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if config is not None and threads is not None:
                    config.restype, config.argtypes = ctypes.c_char_p, []
                    threads.restype, threads.argtypes = ctypes.c_int, []
                    info["openblas"] = config().decode()
                    info["blas_threads"] = threads()
                    return info
    return info


def _layer_metrics(tracer, rounds: int) -> dict:
    """Per-round layer times and counts, and the rates derived from them."""
    t, c = tracer.total, tracer.counters
    per = 1.0 / rounds

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "synth.generate_dataset_s": t("synth.generate_dataset") * per,
        "synth.trials": c.get("synth.trials", 0) * per,
        "synth.trial_ms": 1e3 * ratio(t("synth.generate_dataset"), c.get("synth.trials", 0)),
        "spectral.extract_feature_set_s": t("spectral.extract_feature_set") * per,
        "spectral.signals": c.get("spectral.signals", 0) * per,
        "spectral.fft_s": t("spectral.fft") * per,
        "spectral.fft_calls": c.get("spectral.fft_calls", 0) * per,
        "spectral.fft_gflop": c.get("spectral.fft_gflop", 0) * per,
        "spectral.fft_gflop_per_s": ratio(c.get("spectral.fft_gflop", 0), t("spectral.fft")),
        "spectral.band_powers_s": t("spectral.band_powers") * per,
        "spectral.write_features_s": t("spectral.write_features") * per,
        "spectral.read_features_s": t("spectral.read_features") * per,
        "stats.band_topomaps_s": t("stats.band_topomaps") * per,
        "stats.t_tests": c.get("stats.t_tests", 0) * per,
        "stats.render_s": t("stats.render") * per,
        "model.init_params_s": t("model.init_params") * per,
        "model.save_model_s": t("model.save_model") * per,
        "model.load_model_s": t("model.load_model") * per,
        "data.save_dataset_s": t("data.save_dataset") * per,
        "data.load_dataset_s": t("data.load_dataset") * per,
        "data.dataset_mb": ratio(c.get("data.loaded_mb", 0),
                                 sum(1 for s in tracer.spans if s.name == "data.load_dataset")),
        "data.load_dataset_mb_per_s": ratio(c.get("data.loaded_mb", 0), t("data.load_dataset")),
        "evaluation.evaluate_s": t("evaluation.evaluate") * per,
        "cli.calls": c.get("cli.calls", 0) * per,
        "cli.self_s": tracer.self_total("cli.command") * per,
    }
    for mode in ("baseline", "multitask"):
        train_s = t(f"model.train.{mode}")
        steps = c.get(f"model.steps.{mode}", 0)
        m[f"model.train_s.{mode}"] = train_s * per
        m[f"model.steps.{mode}"] = steps * per
        m[f"model.step_ms.{mode}"] = 1e3 * ratio(train_s, steps)
        m[f"model.samples_per_s.{mode}"] = ratio(c.get(f"model.samples.{mode}", 0), train_s)
        m[f"model.final_l_total.{mode}"] = c.get(f"model.first_final_l_total.{mode}", 0.0)
    for cmd in ("synth", "features", "stats", "train", "eval", "report"):
        m[f"cli.command_s.{cmd}"] = t(f"cli.command.{cmd}") * per
    return m


def _model_probe(seed: int, reps: int) -> dict:
    """Median time of public forward/backward on one default-shape batch."""
    import numpy as np

    from eegintent import cli, model
    from eegintent.spectral import BandTable

    cfg = cli.default_run_config()
    n_channels, n_bins, batch = 64, 50, cfg["model"]["batch_size"]
    config = model.ModelConfig(
        n_channels=n_channels,
        bin_freqs_hz=tuple(np.arange(2, 2 + n_bins) * 500.0 / 512.0),
        bands=BandTable.from_dict(cfg["bands"]),
        **{k: tuple(v) if isinstance(v, list) else v for k, v in cfg["model"].items()},
    )
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((batch, config.input_dim))
    y_class = np.arange(batch) % 4
    y_domain = np.arange(batch) % 2
    params = model.init_params(config)

    def median_ms(fn):
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return 1e3 * statistics.median(times)

    return {
        "model.forward_ms": median_ms(lambda: model.forward(params, x)),
        "model.backward_ms": median_ms(
            lambda: model.backward(params, x, y_class, y_domain, config)
        ),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--t0", type=float, required=True, help="parent's monotonic clock at spawn")
    p.add_argument("--src", required=True, help="the src/ directory eegintent must load from")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--budget", type=float, required=True, help="seconds of rounds to run")
    p.add_argument("--work", required=True, help="scratch directory for artifacts")
    p.add_argument("--out", required=True, help="result JSON path")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--probe", action="store_true", help="stop after set-up")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)

    import numpy as np

    import eegintent

    src = Path(args.src).resolve()
    if src not in Path(eegintent.__file__).resolve().parents:
        print(f"eegintent imported from {eegintent.__file__}, not from {src}", file=sys.stderr)
        return 3
    np.ones((64, 64)) @ np.ones((64, 64))  # start the BLAS thread pool

    from tracer import Tracer, install
    from workloads import WORKLOADS

    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](work, args.seed, args.smoke)
    # time.monotonic is CLOCK_MONOTONIC on Linux, one clock for every process
    setup_s = time.monotonic() - args.t0

    result: dict = {"setup_s": setup_s, "env": _blas_info()}
    if not args.probe:
        tracer = Tracer()
        if args.trace:
            install(tracer)
        rounds = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start + statistics.mean(
            r["wall_s"] for r in rounds
        ) <= args.budget:
            i = len(rounds)
            tracer.enabled = True
            t_round = time.perf_counter()
            state = workload.run(i)
            wall = time.perf_counter() - t_round
            tracer.enabled = False
            if i == 0:  # before any check or read-back adds to the peak
                result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            checked = workload.check(i, state)
            rounds.append({"wall_s": wall, **vars(checked)})
        result["rounds"] = rounds
        if args.trace:
            result["layers"] = {
                **_layer_metrics(tracer, len(rounds)),
                **_model_probe(args.seed, reps=5 if args.smoke else 30),
            }
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
