"""Repeat bench/run.py over several seeds and summarise each metric.

    python3 bench/sweep.py --runs 10 --first-seed 100 --out bench/_results/sweep.json
    python3 bench/sweep.py --runs 5 --workload tmaps

For every workload and end-to-end metric it prints the median, the first
and third quartiles (statistics.quantiles, n=4) and the spread
(Q3 - Q1) / median, and marks a spread that is not below a third of the
metric's bound in BENCHMARK.json. With --traced it adds one traced run per
workload. Runs go one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    result["run_s"] = time.monotonic() - start
    result["exit"] = proc.returncode
    # the environment run.py recorded, if that run got as far as recording
    result["env"] = {}
    log = BENCH / "_results" / "runs.jsonl"
    record = json.loads(log.read_text(encoding="utf-8").splitlines()[-1]) if log.is_file() else {}
    if [record.get(k) for k in ("workload", "seed", "trace")] == [workload, seed, trace]:
        result["env"] = record["env"]
    return result


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"), "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=100)
    p.add_argument("--workload", action="append",
                   help="repeatable; default: every workload in BENCHMARK.json")
    p.add_argument("--traced", action="store_true", help="add one traced run per workload")
    p.add_argument("--out", help="write the summary JSON here")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    summary: dict = {"runs": args.runs, "first_seed": args.first_seed, "workloads": {}}
    ok = True
    for workload in workloads:
        results = [_run(workload, args.first_seed + i, 0) for i in range(args.runs)]
        failed = [r for r in results if r.get("exit") != 0 or not r.get("correct")]
        entry = {"failed_runs": len(failed),
                 "run_s": summarise([r["run_s"] for r in results]),
                 "env": results[0]["env"],
                 "loaded_runs": sum(r["env"].get("loaded_at_start", False) for r in results),
                 "metrics": {}}
        print(f"{workload}: {args.runs} runs, {len(failed)} failed, "
              f"{entry['loaded_runs']} started under load, "
              f"run time median {entry['run_s']['median']:.1f} s")
        ok &= not failed
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results if name in r.get("metrics", {})]
            if len(values) < 2:
                ok = False
                print(f"  {name}: too few values")
                continue
            s = summarise(values)
            entry["metrics"][name] = {**s, "bound": bound}
            steady = name == "setup_s" or s["spread"] < bound / 3
            ok &= steady
            print(f"  {name:12s} median {s['median']:12.6f}  q1 {s['q1']:12.6f}  "
                  f"q3 {s['q3']:12.6f}  spread {s['spread']:.4f}  bound {bound}"
                  f"{'' if steady else '  NOT STEADY'}")
            print(f"    values {[round(v, 4) for v in values]}")
        if args.traced:
            traced = _run(workload, args.first_seed, 1)
            entry["traced"] = traced
            print(f"  traced run: correct={traced.get('correct')} "
                  f"{len(traced.get('metrics', {}))} per-layer metrics")
            ok &= bool(traced.get("correct"))
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
