"""Toy-size runs of every workload, plus the failure paths of the checks.

Run from the repository root:

    python -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run._import_package()

import affground.backbone  # noqa: E402
import affground.model  # noqa: E402
import affground.train  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(capsys, workload, trace, seed=3):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "1",
                     "--trace", str(trace), "--toy"])
    lines = capsys.readouterr().out.strip().splitlines()
    detail = json.loads(lines[-2])["detail"]
    return code, json.loads(lines[-1]), detail, lines


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_toy_run_emits_every_metric(capsys, workload, trace):
    code, result, detail, lines = _run(capsys, workload, trace)
    kind = "per_layer" if trace else "end_to_end"
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0 or name in detail["skips"], name
    assert not detail["missing_targets"]
    assert detail["provenance"]["workload"] == workload
    assert detail["provenance"]["seed"] == 3
    assert detail["config"]["seed"] == 3
    report = "\n".join(lines[:-2])
    assert "failed_share" in report
    if not trace:
        family = "eval" if workload == "eval-corrupt" else "train"
        for alias in workloads.ALIASES[family].values():
            assert alias in report


def test_traced_run_covers_steps_and_restores_the_package(capsys):
    originals = (affground.backbone.ball_query, affground.train.backward,
                 affground.model.AffordanceModel.forward)
    code, result, detail, _ = _run(capsys, "train-small", 1)
    assert code == 0
    assert (affground.backbone.ball_query, affground.train.backward,
            affground.model.AffordanceModel.forward) == originals
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert 0 <= metrics["trace.uncovered_share"] < 0.5
    assert metrics["tensor.tape_nodes"] > 0
    names = {row["name"] for row in detail["spans"]}
    assert {"backbone.build_plan", "tensor.backward", "optim.step"} <= names


def test_out_of_range_prediction_fails_the_run(capsys, monkeypatch):
    predict = affground.model.AffordanceModel.predict

    def saturated(self, *args, **kwargs):
        return predict(self, *args, **kwargs) * 0 + 1.0

    monkeypatch.setattr(affground.model.AffordanceModel, "predict", saturated)
    code, result, detail, _ = _run(capsys, "eval-corrupt", 0)
    assert code == 1
    assert not result["correct"] and result["failed"] > 0
    assert detail["checks"]["prediction_finite_in_unit_interval"]["failed"] > 0


def test_nondeterministic_training_fails_the_run(capsys, monkeypatch):
    rng_for = affground.train.rng_for
    calls = iter(range(10**6))

    def drifting(*keys):
        return rng_for(*keys, next(calls))

    monkeypatch.setattr(affground.train, "rng_for", drifting)
    code, result, detail, _ = _run(capsys, "train-small", 0)
    assert code == 1 and not result["correct"]
    assert detail["checks"]["same_seed_same_rows"]["failed"] == 1


def test_crash_in_the_package_is_reported_as_failed(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(affground.train, "evaluate", broken)
    code, result, detail, _ = _run(capsys, "eval-corrupt", 0)
    assert code == 1 and not result["correct"]
    assert detail["checks"]["workload_completed"]["failed"] == 1


def test_tail_is_the_highest_percentile_with_ten_beyond():
    value, pct, n = workloads.tail(range(35))
    assert (value, n) == (24, 35)
    assert sum(1 for v in range(35) if v > value) == 10
    assert pct == pytest.approx(100 * 25 / 35)
    assert workloads.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
