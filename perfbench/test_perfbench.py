"""Tests of the benchmark itself: inputs, gate, tracing and the CLI contract.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bootstrap

bootstrap.use_checkout_source()

import inputs  # noqa: E402
import pinning  # noqa: E402
import run  # noqa: E402
from gate import Gate, digest, load_reference  # noqa: E402
from repro.designs import benchmark_names  # noqa: E402
from workloads import WORKLOADS, Table3PassAtK  # noqa: E402

BENCHMARK_JSON = bootstrap.ROOT / "BENCHMARK.json"


# -- seeded inputs --------------------------------------------------------------


def _serve_keys(seed: int) -> list[tuple[float, str]]:
    return [(at, item.key) for at, item in inputs.serve_schedule(seed, 18)]


def test_same_seed_gives_identical_inputs():
    assert inputs.table3_sweep(3, 0) == inputs.table3_sweep(3, 0)
    assert _serve_keys(3) == _serve_keys(3)


def test_different_seed_gives_different_inputs():
    assert inputs.table3_sweep(3, 0) != inputs.table3_sweep(4, 0)
    assert _serve_keys(3) != _serve_keys(4)


def test_serve_schedule_is_stratified_and_never_repeats():
    schedule = inputs.serve_schedule(7, 36)
    assert len(schedule) >= 40
    assert len({item.key for _, item in schedule}) == len(schedule)
    assert [at for at, _ in schedule] == sorted(at for at, _ in schedule)
    structures = {(f, r) for f in inputs.families() for r in range(inputs.RESIDUES)}
    for start in range(0, len(schedule), len(structures)):
        items = [item for _, item in schedule[start:start + len(structures)]]
        assert {(item.family, item.residue) for item in items} == structures


def test_reference_covers_every_drawable_request():
    reference = load_reference()
    keys = {f"table3/{name}" for name in benchmark_names()}
    keys |= {item.key for item in inputs.pool()}
    assert keys <= set(reference)


# -- correctness gate and traced runs -----------------------------------------------


@pytest.fixture(scope="module")
def table3():
    workload = Table3PassAtK(0, load_reference())
    workload.setup()
    return workload


def test_gate_fails_on_altered_reference_digest(table3):
    key = "table3/dynamic_node"
    result = table3.customize("dynamic_node")
    reference = load_reference()
    assert Gate(reference).reference[key] == digest(result)

    altered = dict(reference)
    altered[key] = "0" * 16
    gate = Gate(altered)
    gate.check(key, result)
    assert not gate.correct
    assert gate.mismatched == [key]


def test_non_executable_result_counts_as_failed(table3):
    result = table3.customize("riscv32i")
    result.executable = False
    gate = Gate(load_reference())
    gate.check("table3/riscv32i", result)
    assert (gate.attempted, gate.failed, gate.correct) == (1, 1, False)


def test_traced_run_matches_untraced_and_attributes_the_wall(table3):
    (plain, traced), metrics = run.run_traced(table3, seconds=0.1)
    assert plain.gate.correct and traced.gate.correct
    assert plain.gate.digests == traced.gate.digests
    wall = metrics["wall_s"]["value"]
    assert abs(metrics["unattributed_s"]["value"]) <= run.SELF_TIME_TOLERANCE * wall
    assert set(metrics) == set(run.per_layer_units())


# -- CPU pinning ------------------------------------------------------------------


def test_pinning_leaves_one_allowed_cpu():
    allowed = os.sched_getaffinity(0)
    try:
        cpu = pinning.pin_to_fastest_cpu(trials=1)
        assert cpu in allowed and os.sched_getaffinity(0) == {cpu}
    finally:
        os.sched_setaffinity(0, allowed)


# -- CLI contract -----------------------------------------------------------------


def test_metric_names_match_benchmark_json():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_non_default_repro_settings_are_refused():
    assert run.non_default({"REPRO_SYNTH_CACHE": "1", "REPRO_JOBS": ""}) == {}
    assert run.non_default({"REPRO_JOBS": "4"}) == {"REPRO_JOBS": "4"}
    env = dict(os.environ, REPRO_SYNTH_CACHE="0")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_bursts",
         "--seed", "1", "--seconds", "1"],
        cwd=bootstrap.ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 2
    assert out.stdout == ""


def test_run_fails_without_the_program(tmp_path: Path):
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(bootstrap.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table3_pass_at_k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout
