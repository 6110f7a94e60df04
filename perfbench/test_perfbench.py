"""Self-test of the benchmark: metric names and units, oracles, determinism.

Run from the repository root:  python -m pytest -q perfbench
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
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_emitted_with_unit(trace, section):
    proc = _run(ROOT, "--workload", "bounds", "--seed", "3", "--seconds", "1", "--trace", trace, "--short")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    # the p = 1.5 growth request of the one 10-request cycle fails today
    assert result["failed"] == result["attempted"] // 10


def _one_of_each(tmp_path: Path) -> tuple[list[dict], dict]:
    from suptail import cli

    requests = workloads.make_requests("bounds", 5, len(workloads.BOUNDS_MIX))
    requests = [r for r in requests if r["config"].get("p") != 1.5]
    requests += workloads.make_requests("verify-sample", 5, 1)
    return requests, run.run_pass(cli.main, requests, tmp_path)


def _corrupt(path: Path, edit) -> None:
    data = json.loads(path.read_text(encoding="utf-8"))
    edit(data)
    path.write_text(json.dumps(data), encoding="utf-8")


def _scale_first_valid_bound(data: dict) -> None:
    row = next(r for r in data["curve"] if r["validity"] == "VALID" and r["bound"] < 0.5)
    row["bound"] *= 1.0 + 1e-6


CORRUPTIONS = {
    "bound-sup": ("bound_sup.json", _scale_first_valid_bound),
    "bound-growth": ("bound_growth.json", lambda d: d["series"].update(c_tilde=d["series"]["c_tilde"] * 1.001)),
    "constants": ("constants.json", lambda d: d["constants"].update(variance_coefficient=1.0)),
    "covering": ("covering.json", lambda d: d.update(oracle_leq_bound=False)),
    "simulate-verify": ("verify_report.json", lambda d: d["rows"].pop()),
}


def test_corrupted_output_counts_as_failure(tmp_path):
    requests, sent = _one_of_each(tmp_path)
    assert run.check_pass(requests, sent, tmp_path) == []
    for i, req in enumerate(requests):
        name, edit = CORRUPTIONS[req["command"]]
        _corrupt(tmp_path / f"out{i}" / name, edit)
    failures = run.check_pass(requests, sent, tmp_path)
    assert [i for i, _, wrong in failures if wrong] == list(range(len(requests)))


def test_request_list_repeats_for_a_seed():
    for name in workloads.WORKLOADS:
        assert workloads.make_requests(name, 7, 12) == workloads.make_requests(name, 7, 12)
        assert workloads.make_requests(name, 7, 12) != workloads.make_requests(name, 8, 12)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "bounds", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
