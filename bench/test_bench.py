"""The benchmark's own tests.

    python -m pytest bench -q

Tiny runs of every workload must pass their checks and print every metric
BENCHMARK.json declares, with its unit; a damaged artifact must fail the
run; a directory without the program must exit non-zero with no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from tracing import CALIBRATION, Tracer

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def tiny(workload: str, *extra: str) -> subprocess.CompletedProcess:
    return bench("--workload", workload, "--seed", "3", "--seconds", "0.3", "--size", "tiny", *extra)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_declared_metric(workload, trace):
    proc = tiny(workload, "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    res = last_json(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in res["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    for m in declared:
        assert f"metric {m['name']} " in proc.stdout
    if not trace:
        assert all(m["value"] > 0 for m in res["metrics"].values())
        assert "metric error_rate 0.0 ratio" in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_damaged_artifact_fails_the_run(workload):
    proc = tiny(workload, "--trace", "0", "--corrupt")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    res = last_json(proc)
    assert res["correct"] is False and res["failed"] > 0
    assert "FAILED " in proc.stdout
    assert "metric error_rate 0.0 ratio" not in proc.stdout


def test_directory_without_the_program_gives_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "learn", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_layer_self_times_add_up_to_the_root_without_calibration():
    tr = Tracer()
    with tr.span("bench.pass"):
        with tr.span("grammar.apply"):
            with tr.span("repair.replay"):
                pass
            with tr.span(CALIBRATION):
                time.sleep(0.01)
        with tr.span("corpus.encode"):
            pass
    root, apply, _, cal = tr.spans[:4]
    by_name, self_by_layer, calls = tr.subtree_totals(root[0])
    cal_s = cal[3] - cal[2]
    assert sum(self_by_layer.values()) == pytest.approx(root[3] - root[2] - cal_s, abs=1e-9)
    assert by_name["grammar.apply"] == pytest.approx(apply[3] - apply[2] - cal_s, abs=1e-9)
    assert calls == {"bench.pass": 1, "grammar.apply": 1, "repair.replay": 1, "corpus.encode": 1}
    assert by_name["grammar.apply"] >= by_name["repair.replay"]
