"""Self-test of the benchmark: a ``--small`` pass over every workload
and the traced walk, plus the failure accounting.

Run from the repository root::

    python3 -m pytest e2ebench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (the benchmark entry point, imported for its helpers)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def invoke(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "e2ebench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_metrics(result: dict, declared: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in declared} == {
        name: entry["unit"] for name, entry in result["metrics"].items()
    }
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))


def test_spec_matches_run_tables():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_small_workload_reports_every_end_to_end_metric(workload):
    proc = invoke("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", "0", "--small")
    result = result_of(proc)
    assert_metrics(result, SPEC["end_to_end"])
    assert all(result["metrics"][name]["value"] > 0 for name in run.END_TO_END)
    diagnostics = json.loads(proc.stdout.strip().splitlines()[-2])["diagnostics"]
    assert len(diagnostics["stdout_sha256"]) == 64
    assert diagnostics["samples"]["wall_s"]["raw"]
    assert set(diagnostics["calibration_s"]) == {"start", "end"}


def test_small_traced_walk_reports_every_per_layer_metric():
    result = result_of(invoke("--workload", "paper-cold", "--seed", "3",
                              "--seconds", "1", "--trace", "1", "--small"))
    assert_metrics(result, SPEC["per_layer"])


def test_failed_operations_are_counted(tmp_path):
    host = run.Host(tmp_path, small=True)
    samples = run.Samples()
    # A negative seed is refused by the program: every operation fails.
    results = run.paper_ops(host, samples, 0.0, 2, -1, 5)
    assert (samples.attempted, samples.failed) == (2, 2)
    assert all(r["exit"] != 0 for r in results)
    assert "wall_s" not in samples.raw


def test_lookup_p99_drops_one_off_interruptions_and_keeps_slow_addresses():
    samples = run.Samples()
    samples.passes = [[40.0] * 1000 for _ in range(5)]
    # 2% of each pass interrupted, at other addresses on every pass.
    for k, latencies in enumerate(samples.passes):
        latencies[k * 20:(k + 1) * 20] = [200.0] * 20
    assert run.end_to_end(samples)["lookup_p99_us"] == 40.0
    # A slow path the program takes for 5% of addresses, on every pass.
    for latencies in samples.passes:
        latencies[950:] = [90.0] * 50
    assert run.end_to_end(samples)["lookup_p99_us"] == 90.0


def test_mismatched_output_counts_as_failed():
    samples = run.Samples()
    results = [{"exit": 0, "sha256": "a"}, {"exit": 0, "sha256": "a"},
               {"exit": 0, "sha256": "b"}]
    assert run.check_digests(results, samples) == "a"
    assert samples.failed == 1


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = invoke("--workload", "paper-cold", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
