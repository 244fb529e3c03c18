"""Seeded inputs and ground truth for the three benchmark workloads.

Everything here is input generation: it runs before any timed region, in the
parent process, and writes files that the measured process reads. The same
seed always gives byte-identical files; their sha256 is recorded.

- ``ping_train``: scenario_quick geometry and noise, PING_TRAIN_PINGS
  repetitions 50 ms apart per file, PING_TRAIN_FILES files; the pinger
  takes a new direction at every repetition.
- ``long_quiet``: scenario_default (2 s, 1M samples per channel, one ping),
  LONG_QUIET_FILES files, each with its own direction; every
  LONG_QUIET_FILES_PER_NOISE files share a noise seed.
- ``montecarlo``: the eval_small grid, MC_EVALS evaluations with
  MC_TRIALS trials per cell, each with its own grid seed.

Pinger directions sit at the config's pinger range. They are stratified by
octant: consecutive directions take distinct octants in a seeded order, and
each direction is uniform within its octant, resampled until every
coordinate is at least CLEARANCE_M from an octant boundary plane so the true
octant is unambiguous.

The solver's iteration count varies with both the noise and the direction:
per-ping counts range from about 150 to over 2000 (coefficient of variation
about 0.65). A seed's solver work therefore evens out only over many pings,
each with its own direction: over eight seeds, the quartile spread of the
total iterations of ping_train's 160 pings was 0.05 with a direction per
ping, and 0.12 when the files shared eight directions.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path

import numpy as np

from pingerloc import pipeline, recording, scene, simulator

WORKLOADS = ("ping_train", "long_quiet", "montecarlo")

PING_TRAIN_FILES = 10
PING_TRAIN_PINGS = 16
LONG_QUIET_FILES = 24
MC_EVALS = 11
MC_TRIALS = 1
CLEARANCE_M = 1.0

# Recordings are assembled from noiseless renders of short segments, each
# with its own pinger position and zero-padded to the segment length, plus a
# noise bed: the scenario's noise alone, from simulator.add_noise. The
# filtered bursts underflow float32 to exactly zero well inside each rendered
# segment (checked below), so a padded segment equals a noiseless render of
# the whole segment byte for byte. Only the first RENDERED_S of a segment is
# rendered: past it the filter's tail decays through subnormal floats, which
# made rendering a whole 50 ms repetition seven times slower.
RENDERED_S = 0.025
# long_quiet files come in pairs that share a noise bed and differ in
# direction: drawing the noise for 2 s on 8 channels takes about 0.8 s, most
# of the generation time. Over eight seeds, the quartile spread of the
# solver's total iterations was 0.21 for 12 files with their own noise and
# 0.13 for 24 files in pairs.
LONG_QUIET_FILES_PER_NOISE = 2

CONFIG_FILES = {
    "ping_train": "configs/scenario_quick.json",
    "long_quiet": "configs/scenario_default.json",
    "montecarlo": "configs/eval_small.json",
}


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def azimuth_error_deg(est: float, true: float) -> float:
    return abs((est - true + 180.0) % 360.0 - 180.0)


def _directions(rng: np.random.Generator, radius: float, count: int) -> list[scene.Vec3]:
    octants = rng.permutation(8)
    out = []
    for k in range(count):
        signs = scene.OctantId(*(bool(octants[k % 8] >> axis & 1) for axis in range(3))).signs()
        while True:
            v = rng.normal(size=3)
            n = float(np.linalg.norm(v))
            if n < 1e-12:
                continue
            pos = radius * signs * np.abs(v) / n
            if np.all(np.abs(pos) >= CLEARANCE_M):
                out.append(scene.Vec3.from_array(pos))
                break
    return out


def _truth(array: scene.HydrophoneArray, position: scene.Vec3) -> dict:
    """True azimuth from the precise-quad centroid and true octant from the
    coarse-quad centroid, as the pipeline reports them."""
    pos = position.as_array()
    az, el = scene.true_azimuth_elevation(
        scene.Vec3.from_array(pos - array.precise_centroid().as_array()))
    octant = scene.octant_of(scene.Vec3.from_array(pos - array.coarse_centroid().as_array()))
    return {"position": [float(x) for x in pos], "true_az_deg": az, "true_el_deg": el,
            "true_octant": octant.as_string()}


def _segment(base: scene.Scenario, position: scene.Vec3, duration: float) -> np.ndarray:
    """Noiseless channels for ``duration`` seconds with the pinger at
    ``position``; only the first RENDERED_S seconds are rendered."""
    pinger = dataclasses.replace(base.pinger, position=position,
                                 repetition_interval=min(base.pinger.repetition_interval,
                                                         RENDERED_S))
    clean = simulator.render_scene(dataclasses.replace(
        base, pinger=pinger, record_duration=RENDERED_S, noise=scene.NoiseSpec.silent())).channels
    if np.any(clean[:, clean.shape[1] * 4 // 5:]):
        raise RuntimeError("a burst tail reaches the end of its rendered segment")
    out = np.zeros((clean.shape[0], int(round(duration * base.sample_rate))), dtype=np.float32)
    out[:, :clean.shape[1]] = clean
    return out


def noise_bed(base: scene.Scenario, shape: tuple[int, int], seed: int) -> np.ndarray:
    """The scenario's noise alone, as float32 channels of ``shape``."""
    silent = recording.MultiChannelRecording(sample_rate=base.sample_rate,
                                             channels=np.zeros(shape, dtype=np.float32))
    return simulator.add_noise(silent, base.noise, seed).channels


def _localize_inputs(workload: str, seed: int, root: Path, out_dir: Path) -> dict:
    config = CONFIG_FILES[workload]
    base = scene.load_scenario(root / config)
    radius = float(np.linalg.norm(base.pinger.position.as_array()))
    period = base.pinger.repetition_interval
    if workload == "ping_train":
        n_files, n_pings, per_noise = PING_TRAIN_FILES, PING_TRAIN_PINGS, 1
    else:
        n_files, n_pings, per_noise = LONG_QUIET_FILES, 1, LONG_QUIET_FILES_PER_NOISE
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    positions = _directions(rng, radius, n_files * n_pings)
    files = []
    for k in range(n_files):
        mine = positions[k * n_pings:(k + 1) * n_pings]
        clean = np.concatenate([_segment(base, p, period) for p in mine], axis=1)
        if k % per_noise == 0:
            noise_seed = int(rng.integers(0, 2**31 - 1))
            noise = noise_bed(base, clean.shape, noise_seed)
        rec = recording.MultiChannelRecording(sample_rate=base.sample_rate,
                                              channels=clean + noise)
        path = out_dir / f"{workload}_{k}.oogw"
        recording.write_recording(rec, path)
        # Write back now: on two cores, the kernel writing back hundreds of
        # MB of dirty pages during the timed runs would slow them.
        with open(path, "rb+") as fh:
            os.fsync(fh.fileno())
        files.append({"path": str(path.relative_to(root)), "sha256": sha256_file(path),
                      "duration_s": rec.duration, "samples": int(rec.channels.size),
                      "bytes": path.stat().st_size, "expected_pings": n_pings,
                      "noise_seed": noise_seed,
                      "pings": [_truth(base.array, p) for p in mine]})
    return {"config": config, "files": files}


def _montecarlo_inputs(seed: int, root: Path, out_dir: Path) -> dict:
    config = CONFIG_FILES["montecarlo"]
    doc = json.loads((root / config).read_text())
    rng = np.random.default_rng([seed, WORKLOADS.index("montecarlo")])
    evals = []
    for k in range(MC_EVALS):
        eval_doc = dict(doc, trials=MC_TRIALS, seed=int(rng.integers(0, 2**31 - 1)))
        path = out_dir / f"montecarlo_{k}.json"
        path.write_text(json.dumps(eval_doc, indent=2) + "\n")
        cfg = pipeline.monte_carlo_config_from_dict(eval_doc)
        evals.append({"path": str(path.relative_to(root)), "sha256": sha256_file(path),
                      "trials": len(cfg.ranges) * len(cfg.snr_db) * cfg.trials,
                      "recording_s_per_trial": cfg.repetition_interval,
                      "success_threshold_deg": cfg.success_threshold_deg})
    return {"config": config, "evals": evals}


def generate(workload: str, seed: int, root: Path, out_dir: Path) -> dict:
    """Write the workload's inputs under ``out_dir`` and return a manifest
    with paths relative to ``root``, fingerprints and ground truth."""
    out_dir.mkdir(parents=True, exist_ok=True)
    if workload == "montecarlo":
        body = _montecarlo_inputs(seed, root, out_dir)
    else:
        body = _localize_inputs(workload, seed, root, out_dir)
    return {"workload": workload, "seed": seed, **body}
