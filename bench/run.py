"""eegintent benchmark: run one workload (or all) and print every metric.

    python3 bench/run.py --workload report --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1234          # held-out seed
    python3 bench/run.py --smoke                             # tiny, seconds

Each workload run happens in fresh worker processes (bench/worker.py) with
the BLAS thread count pinned to at most the number of usable cores. An
untraced run reports the end-to-end metrics; a traced run (--trace 1)
reports the per-layer metrics, measured by wrapping the public layer
functions, plus the tracing overhead against an untraced twin. The last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
See bench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
RESULTS = BENCH / "_results"

WORKLOADS = ("report", "tmaps", "stages")
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
SETUP_PROBES = 7
RUN_DEADLINE_S = 170.0

# Every metric the harness can report, with its unit. BENCHMARK.json picks
# the ones printed on the last line; the table above it shows them all.
UNITS = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "acc_baseline": "%", "acc_multitask": "%", "f1_mis_gap": "points",
    "tmap_precision": "ratio", "tmap_recall": "ratio", "null_sig_frac": "ratio",
    "trace.overhead_s": "s", "trace.overhead_pct": "%",
    "synth.generate_dataset_s": "s", "synth.trials": "count", "synth.trial_ms": "ms",
    "spectral.extract_feature_set_s": "s", "spectral.signals": "count",
    "spectral.fft_s": "s", "spectral.fft_calls": "count",
    "spectral.fft_gflop": "GFLOP", "spectral.fft_gflop_per_s": "GFLOP/s",
    "spectral.band_powers_s": "s", "spectral.write_features_s": "s",
    "spectral.read_features_s": "s",
    "stats.band_topomaps_s": "s", "stats.t_tests": "count", "stats.render_s": "s",
    "model.init_params_s": "s", "model.save_model_s": "s", "model.load_model_s": "s",
    "model.forward_ms": "ms", "model.backward_ms": "ms",
    "data.save_dataset_s": "s", "data.load_dataset_s": "s", "data.dataset_mb": "MB",
    "data.load_dataset_mb_per_s": "MB/s",
    "evaluation.evaluate_s": "s", "cli.calls": "count", "cli.self_s": "s",
    **{f"model.{k}.{mode}": u for mode in ("baseline", "multitask") for k, u in (
        ("train_s", "s"), ("steps", "count"), ("step_ms", "ms"),
        ("samples_per_s", "1/s"), ("final_l_total", "loss"))},
    **{f"cli.command_s.{cmd}": "s"
       for cmd in ("synth", "features", "stats", "train", "eval", "report")},
}


class HarnessError(Exception):
    """The benchmark cannot run here (missing program, bad BENCHMARK.json)."""


def _load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise HarnessError(f"cannot read {path}: {exc}") from exc
    for entry in spec["end_to_end"] + spec["per_layer"]:
        if UNITS.get(entry["name"]) != entry["unit"]:
            raise HarnessError(f"BENCHMARK.json metric {entry['name']!r}: unknown or wrong unit")
    return spec


def _child_env() -> dict:
    """This environment with BLAS threads pinned and `src/` as the only path."""
    cores = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in THREAD_VARS:
        current = env.get(var, "")
        n = int(current) if current.isdigit() and 0 < int(current) < cores else cores
        env[var] = str(n)
    env["PYTHONPATH"] = str(SRC)
    return env


def _fingerprint(env_info: dict, smoke: bool) -> str:
    """Identifies 'the same code': program source, workload definitions and
    the numeric environment that can change the arithmetic."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + [BENCH / "workloads.py"]:
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    h.update(json.dumps([env_info, smoke], sort_keys=True).encode())
    return h.hexdigest()[:16]


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _spawn(env: dict, workload: str, seed: int, budget: float, tag: str, deadline: float,
           trace: bool = False, probe: bool = False, smoke: bool = False) -> dict:
    """Run one worker process to completion; its result dict, or an error."""
    work = WORK / tag
    shutil.rmtree(work, ignore_errors=True)
    out = WORK / f"{tag}.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--src", str(SRC),
           "--workload", workload, "--seed", str(seed), "--budget", repr(budget),
           "--work", str(work), "--out", str(out)]
    cmd += ["--trace"] * trace + ["--probe"] * probe + ["--smoke"] * smoke
    timeout = max(1.0, deadline - time.monotonic())
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"worker {tag} killed after {timeout:.0f} s"}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0 or not out.is_file():
        return {"error": f"worker {tag} exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    result = json.loads(out.read_text(encoding="utf-8"))
    out.unlink()
    return result


QUALITY = ("acc_baseline", "acc_multitask", "f1_mis_gap",
           "tmap_precision", "tmap_recall", "null_sig_frac")


def _quality(first_round: dict) -> dict:
    """Deterministic quality of round 0; 0.0 where the workload has none."""
    return {**dict.fromkeys(QUALITY, 0.0), **first_round["quality"]}


def _check_digests(children: list[dict], fingerprint: str, workload: str) -> list[str]:
    """Compare every artifact digest with the registry of earlier runs of the
    same code (and with the other workers of this run); record new ones."""
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / "digests.json"
    registry = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    mismatches = []
    for child in children:
        for rnd in child.get("rounds", []):
            for artifact, digest in rnd["digests"].items():
                key = f"{workload}|{fingerprint}|{artifact}"
                if registry.setdefault(key, digest) != digest:
                    mismatches.append(f"{artifact}: digest differs from an earlier run")
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(registry, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)
    return mismatches


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 env: dict) -> dict:
    """One benchmark run of one workload; a record with all metrics."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    load_before = os.getloadavg()
    cores = len(os.sched_getaffinity(0))
    spawn = dict(env=env, workload=workload, seed=seed, deadline=deadline, smoke=smoke)
    if trace:
        children = [_spawn(budget=seconds / 2, tag=f"{workload}-untraced", **spawn),
                    _spawn(budget=seconds / 2, tag=f"{workload}-traced", trace=True, **spawn)]
        probes = []
    else:
        probes = [_spawn(budget=0, tag=f"{workload}-probe{i}", probe=True, **spawn)
                  for i in range(1 if smoke else SETUP_PROBES)]
        children = [_spawn(budget=seconds, tag=workload, **spawn)]
    errors = [c["error"] for c in probes + children if "error" in c]
    rounds = [r for c in children for r in c.get("rounds", [])]
    attempted = sum(r["ops"] for r in rounds) or 1
    failed = sum(r["failed"] for r in rounds) + sum("error" in c for c in children)
    errors += [e for r in rounds for e in r["errors"]]
    blas = next((c["env"] for c in children if "env" in c), {})
    fingerprint = _fingerprint(blas, smoke)
    mismatches = _check_digests(children, fingerprint, workload)
    failed += len(mismatches)
    errors += mismatches

    metrics: dict = {}
    main = children[-1]
    if "rounds" in main:
        walls = [[r["wall_s"] for r in c.get("rounds", [])] for c in children]
        if trace and all(walls):
            base, traced = statistics.median(walls[0]), statistics.median(walls[1])
            metrics["trace.overhead_s"] = traced - base
            metrics["trace.overhead_pct"] = 100.0 * (traced - base) / base
            metrics.update(main.get("layers", {}))
            metrics.update(_quality(main["rounds"][0]))
        elif not trace and walls[0]:
            metrics["wall_s"] = statistics.median(walls[0])
            metrics["setup_s"] = statistics.median(
                [c["setup_s"] for c in probes + children if "setup_s" in c])
            metrics["peak_rss_mb"] = main["peak_rss_mb"]
            metrics.update(_quality(main["rounds"][0]))
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "smoke": smoke, "round_walls": [r["wall_s"] for r in main.get("rounds", [])],
        "correct": failed == 0 and not errors, "attempted": attempted, "failed": failed,
        "errors": errors, "metrics": metrics,
        "env": {
            "python": sys.version.split()[0], **blas, "threads": {
                k: v for k, v in sorted(env.items()) if k.endswith("_NUM_THREADS")},
            "nproc": cores, "load_before": load_before, "load_after": os.getloadavg(),
            "loaded_at_start": load_before[0] > cores,
            "git_commit": _git_commit(), "src_lines": sum(
                len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py")),
            "fingerprint": fingerprint,
        },
    }


def _print_record(record: dict, wanted: list[dict]) -> dict:
    """Print a table of every metric; return the result object for the last line."""
    env = record["env"]
    print(f"# workload={record['workload']} seed={record['seed']} trace={record['trace']} "
          f"rounds={len(record['round_walls'])} attempted={record['attempted']} "
          f"failed={record['failed']}")
    print(f"# python {env['python']}  numpy {env.get('numpy')}  {env.get('openblas')}  "
          f"blas_threads={env.get('blas_threads')}  {env['threads']}")
    print(f"# nproc={env['nproc']}  load before {env['load_before']} after {env['load_after']}  "
          f"commit={env['git_commit']}  src_lines={env['src_lines']}")
    if env["loaded_at_start"]:
        print(f"# WARNING: load average {env['load_before'][0]:.2f} was above the "
              f"{env['nproc']} cores when this run started; its timings are suspect")
    for err in record["errors"]:
        print(f"# FAILED: {err}")
    for name, value in sorted(record["metrics"].items()):
        print(f"{name:36s} {value:16.6f} {UNITS[name]}")
    values = record["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    correct = record["correct"] and not missing and all(
        math.isfinite(values[m["name"]]) for m in wanted)
    return {
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in values},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="eegintent benchmark")
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0, help="workload seed (base synth seed)")
    p.add_argument("--seconds", type=float, help="measured seconds per run "
                   "(default: run_seconds from BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, one round, every workload traced and untraced")
    args = p.parse_args(argv)

    try:
        if not (SRC / "eegintent" / "__init__.py").is_file():
            raise HarnessError(f"no eegintent sources under {SRC}")
        spec = _load_spec()
    except (HarnessError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    seconds = 0.0 if args.smoke else (args.seconds or spec["run_seconds"])
    env = _child_env()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    traces = (0, 1) if args.smoke else (args.trace,)

    lines = {}
    for workload in workloads:
        for trace in traces:
            record = run_workload(workload, args.seed, seconds, bool(trace), args.smoke, env)
            RESULTS.mkdir(parents=True, exist_ok=True)
            with open(RESULTS / "runs.jsonl", "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record) + "\n")
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            lines[(workload, trace)] = _print_record(record, wanted)
            print(json.dumps(lines[(workload, trace)]))
    shutil.rmtree(WORK, ignore_errors=True)
    if len(lines) > 1:
        summary = {
            "correct": all(line["correct"] for line in lines.values()),
            "attempted": sum(line["attempted"] for line in lines.values()),
            "failed": sum(line["failed"] for line in lines.values()),
            "metrics": {f"{w}.trace{t}.{name}": m for (w, t), line in lines.items()
                        for name, m in line["metrics"].items()},
        }
        print(json.dumps(summary))
    return 0 if all(line["correct"] for line in lines.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
