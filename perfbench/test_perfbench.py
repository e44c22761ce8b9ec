"""Tests of the benchmark itself (not part of the repository's tier-1 run).

    python -m pytest perfbench/test_perfbench.py

Smoke runs use ``--tiny`` inputs and a one-second budget; each still
starts several fresh interpreters, so the module takes a minute or two.
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
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from plan import BATCH_WORKLOADS, WORKLOADS, batch_plan  # noqa: E402
from spans import covered, self_times  # noqa: E402


def bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=root, timeout=300,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_smoke(workload, trace):
    proc = bench(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    elif workload == "cold-tables":
        assert result["metrics"]["corpus.hit_ratio"]["value"] == 0.0
    elif workload.startswith("warm-"):
        assert result["metrics"]["corpus.hit_ratio"]["value"] == 1.0


@pytest.mark.parametrize("workload,seed,caught_by", [
    ("cold-tables", run.DEFAULT_SEED, "golden digest"),
    ("cold-tables", run.DEFAULT_SEED + 5, "table7 row"),
    ("warm-sweep", run.DEFAULT_SEED + 5, "table9 row"),
])
def test_planted_wrong_result_fails_the_run(tmp_path, workload, seed, caught_by):
    """A program that returns a wrong hit ratio must fail the output
    check on any seed, not only on the one with a golden digest."""
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    common = tmp_path / "src" / "repro" / "experiments" / "common.py"
    text = common.read_text()
    assert "    return stats.hit_ratio\n" in text
    common.write_text(text.replace(
        "    return stats.hit_ratio\n", "    return stats.hit_ratio * 0.5\n"))
    proc = bench(tmp_path, "--workload", workload, "--seed", str(seed),
                 "--seconds", "1", "--tiny")
    assert proc.returncode != 0
    result = last_json(proc)
    assert not result["correct"]
    assert result["failed"] > 0
    assert caught_by in proc.stdout


def test_benchmark_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", "cold-tables", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_times_and_unattributed_add_up_to_traced_wall(tmp_path):
    experiments = batch_plan("cold-tables", 1, tiny=True)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    rep = run.run_child(experiments, corpus, True, tmp_path, run.child_env())
    assert rep["ok"]
    spans = rep["out"]["spans"]
    own = self_times(spans)
    assert min(own.values()) >= -1e-9
    unattributed = rep["wall"] - covered(spans)
    assert unattributed >= 0
    assert sum(own.values()) + unattributed == pytest.approx(rep["wall"], abs=1e-6)
    # The per-layer table bills every span's self time to one metric.
    layers = run.layer_metrics([rep])
    billed = sum(layers[name] for name in set(run.SPAN_METRIC.values()))
    billed += layers["experiments.self_s"]
    assert billed + layers["trace.unattributed_frac"] * rep["wall"] == pytest.approx(
        rep["wall"], abs=1e-6)


def test_plans_repeat_per_seed_and_vary_across_seeds():
    for workload in BATCH_WORKLOADS:
        assert batch_plan(workload, 7) == batch_plan(workload, 7)
    assert len({json.dumps(batch_plan("cold-tables", seed)) for seed in range(8)}) > 1


def test_reference_scales_by_host_speed_and_stops():
    with run.Reference(run.child_env()) as reference:
        before, after = reference.sample(), reference.sample()
        assert before > 0 and after > 0
        assert reference.scaled(2.0, before, after) == pytest.approx(
            2.0 * run.REFERENCE_S * 2 / (before + after))
    assert reference._proc.returncode == 0
