"""Smoke test of the benchmark at toy size.

    python3 -m pytest -q perfbench

Runs every workload, with tracing off and on, on problems small enough to
finish in seconds, and checks that every metric named in BENCHMARK.json is
emitted with its unit and that no operation fails.
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run as bench

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())

TOY = {
    "serial-ridge": dict(n=200, d=50, density=0.1, max_epochs=20),
    "nice-logistic": dict(n=400, d=40, density=0.25, max_epochs=30),
    "chunked-logistic": dict(n=400, d=40, density=0.25, eps=0.9, max_epochs=60),
}


def test_spec_matches_benchmark():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (wl.name, wl.why) for wl in bench.WORKLOADS.values()
    ]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.LAYER_UNITS
    assert set(TOY) == set(bench.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_workload_emits_every_metric(name, trace, tmp_path):
    wl = dataclasses.replace(bench.WORKLOADS[name], draws=50, **TOY[name])
    result = bench.run_workload(wl, seed=3, seconds=0.0, trace=trace, out_dir=tmp_path)
    expected = bench.LAYER_UNITS if trace else bench.E2E_UNITS
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    for key, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), key
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert (tmp_path / f"spans-{name}-seed3.csv").is_file()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serial-ridge",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
