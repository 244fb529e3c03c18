"""The benchmark's own tests. Slow (a few minutes); run them from the root of
the checkout with

    python3 -m pytest perfbench/test_perfbench.py
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from pingerloc import recording, simulator  # noqa: E402

LAYERS = json.loads((HERE / "layers.json").read_text())
QUALITY = ("success_fraction", "octant_accuracy", "failed_fraction",
           "az_err_deg.p50", "az_err_deg.max")


def run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def traced_result(workload: str, seed: int) -> dict:
    proc = run_bench(workload, seed, 1)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0
    return json.loads((ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace1"
                       / "result.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_exact_counts_and_quality_repeat(workload):
    first = traced_result(workload, 3)
    second = traced_result(workload, 3)
    for name in LAYERS["exact_counts"]:
        assert first["per_layer"][name] == second["per_layer"][name], name
    for name in QUALITY:
        assert first["end_to_end"][name] == second["end_to_end"][name], name
    assert first["inputs"] == second["inputs"]
    assert first["outputs"] == second["outputs"]


def test_every_declared_metric_is_reported():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = run_bench("montecarlo", 2, 0)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in last["metrics"].values())


@pytest.mark.parametrize("workload", ["ping_train", "long_quiet"])
def test_short_render_equals_full_render(workload):
    base = workloads.scene.load_scenario(ROOT / workloads.CONFIG_FILES[workload])
    silent = dataclasses.replace(base, noise=workloads.scene.NoiseSpec.silent())
    segment = workloads._segment(base, base.pinger.position, base.record_duration)
    assert np.array_equal(segment, simulator.render_scene(silent).channels)


def test_ping_train_changes_direction_every_ping(scratch):
    manifest = workloads.generate("ping_train", 9, ROOT, scratch)
    for entry in manifest["files"]:
        pings = entry["pings"]
        assert len(pings) == entry["expected_pings"] == workloads.PING_TRAIN_PINGS
        assert len({tuple(p["position"]) for p in pings}) == len(pings)
        for k in range(0, len(pings), 8):
            assert len({p["true_octant"] for p in pings[k:k + 8]}) == 8


@pytest.fixture
def scratch():
    path = ROOT / ".perfbench_out" / "tests"
    shutil.rmtree(path, ignore_errors=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_inputs_repeat_per_seed(scratch):
    a = workloads.generate("montecarlo", 5, ROOT, scratch / "a")
    b = workloads.generate("montecarlo", 5, ROOT, scratch / "b")
    c = workloads.generate("montecarlo", 6, ROOT, scratch / "c")
    sha = [[e["sha256"] for e in m["evals"]] for m in (a, b, c)]
    assert sha[0] == sha[1] != sha[2]


def test_directions_are_octant_stratified():
    rng = np.random.default_rng(0)
    dirs = workloads._directions(rng, 11.0, 8)
    octants = {tuple(np.sign(d.as_array())) for d in dirs}
    assert len(octants) == 8
    assert all(np.all(np.abs(d.as_array()) >= workloads.CLEARANCE_M) for d in dirs)
    assert all(abs(np.linalg.norm(d.as_array()) - 11.0) < 1e-9 for d in dirs)


def test_recording_round_trip_of_generated_input(scratch):
    manifest = workloads.generate("long_quiet", 4, ROOT, scratch)
    entry = manifest["files"][0]
    rec = recording.read_recording(ROOT / entry["path"])
    assert rec.channels.size == entry["samples"]
    assert workloads.sha256_file(ROOT / entry["path"]) == entry["sha256"]


def test_without_sources_exits_nonzero_and_prints_no_result():
    bare = ROOT / ".perfbench_out" / "bare_checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    try:
        proc = run_bench("ping_train", 1, 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
