"""Tests of the benchmark harness itself, through its smoke mode.

    python3 -m pytest -q bench/test_harness.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _checkout(dest: Path, with_src: bool) -> None:
    """A copy of the files the benchmark runs from, without run leftovers."""
    skip = shutil.ignore_patterns("_work", "_results", "__pycache__")
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    shutil.copytree(BENCH, dest / "bench", ignore=skip)
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=skip)


def _table(block: list[str]) -> dict[str, float]:
    rows = (line.split() for line in block if line and line[0] not in "#{")
    return {name: float(value) for name, value, _unit in rows}


def test_smoke_runs_every_workload_traced_and_untraced():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines = proc.stdout.splitlines()
    json_rows = [i for i, line in enumerate(lines) if line.startswith("{")]
    assert len(json_rows) == 7  # 3 workloads x {untraced, traced} + summary

    tables, start = {}, 0
    for run, end in zip(
        [(w, t) for w in ("report", "tmaps", "stages") for t in (0, 1)], json_rows
    ):
        result = json.loads(lines[end])
        wanted = spec["per_layer"] if run[1] else spec["end_to_end"]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in wanted}
        for m in wanted:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
        tables[run] = _table(lines[start:end])
        start = end + 1
    assert json.loads(lines[-1])["correct"]

    for workload in ("report", "tmaps", "stages"):
        assert tables[(workload, 0)]["wall_s"] > 0
        assert tables[(workload, 0)]["setup_s"] > 0
        traced = tables[(workload, 1)]
        assert traced["synth.trials"] > 0 and traced["spectral.fft_calls"] > 0
        assert traced["model.forward_ms"] > 0 and traced["model.backward_ms"] > 0
    # calls through `from .x import f` bindings in cli are traced
    assert tables[("stages", 1)]["data.load_dataset_s"] > 0
    assert tables[("stages", 1)]["model.train_s.baseline"] > 0
    assert tables[("stages", 1)]["cli.calls"] == 7
    assert tables[("report", 1)]["model.steps.multitask"] > 0
    assert 0 < tables[("report", 1)]["acc_multitask"] <= 100
    # tmaps never trains, and reports its recovery figures
    assert tables[("tmaps", 1)]["model.train_s.baseline"] == 0
    assert 0 <= tables[("tmaps", 1)]["tmap_recall"] <= 1
    assert tables[("tmaps", 1)]["stats.t_tests"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    _checkout(tmp_path, with_src=False)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tmaps", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_changed_artifact_digest_counts_as_failure(tmp_path):
    _checkout(tmp_path, with_src=True)
    cmd = [sys.executable, "bench/run.py", "--smoke", "--workload", "tmaps"]
    first = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert first.returncode == 0, first.stdout[-3000:] + first.stderr[-3000:]

    registry_path = tmp_path / "bench" / "_results" / "digests.json"
    registry = json.loads(registry_path.read_text())
    assert registry
    registry_path.write_text(json.dumps({key: "0" * 64 for key in registry}))
    second = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert second.returncode == 1
    last = json.loads(second.stdout.splitlines()[-1])
    assert not last["correct"] and last["failed"] > 0
    assert "digest differs from an earlier run" in second.stdout
