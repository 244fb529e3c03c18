"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(visible with ``pytest -s``). Criteria 2 and 3 share one batch of 200
randomized noiseless trials built by the module fixture.
"""

import dataclasses
import json
import time

import numpy as np
import pytest
from scipy import signal as sps

from pingerloc import (
    NoiseSpec,
    PingerSource,
    Scenario,
    Vec3,
    default_array,
    design_bandpass,
    detect_ping,
    estimate_delay,
    filter_signal,
    gradient_descent,
    initial_point,
    octant_guess,
    octant_of,
    render_scene,
    select_stable_window,
    true_azimuth_elevation,
)
from pingerloc import solver
from pingerloc.cli import EXIT_OK, main
from pingerloc.dsp import PAIRS
from conftest import geometric_tdoa, travel_time
from test_dsp import multitone

C = 1480.0
FS = 500_000.0
ARRAY = default_array()


def report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num} {name}: {status} ({detail})", flush=True)
    assert ok, f"criterion {num} {name}: {detail}"


def az_error(est, true):
    return abs((est - true + 180.0) % 360.0 - 180.0)


def sample_position(rng, lo=5.0, hi=30.0, clearance=1.0):
    while True:
        radius = rng.uniform(lo, hi)
        v = rng.normal(size=3)
        n = np.linalg.norm(v)
        if n < 1e-12:
            continue
        pos = radius * v / n
        if np.all(np.abs(pos) >= clearance):
            return pos


def grid_best_objective(tdoa, array, half=30.0, n=21):
    """Brute-force oracle: best pair objective G (m^2) over an n^3 grid.
    Residuals are recomputed here from scratch."""
    quad = array.precise_positions_array()
    axis = np.linspace(-half, half, n)
    X, Y, Z = np.meshgrid(axis, axis, axis, indexing="ij")
    nodes = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1)

    total = np.zeros(len(nodes))
    for (i, j), delay in zip(PAIRS, tdoa.pair_delays):
        d_i = np.linalg.norm(nodes - quad[i], axis=1)
        d_j = np.linalg.norm(nodes - quad[j], axis=1)
        rho = d_i - d_j - C * delay
        total += rho * rho
    return float(0.5 * total.min())


@pytest.fixture(scope="module")
def noiseless_trials():
    rng = np.random.default_rng(2024)
    trials = []
    t_pipeline = 0.0
    t_oracle = 0.0
    for _ in range(200):
        pos = sample_position(rng)
        scenario = Scenario(
            array=ARRAY,
            pinger=PingerSource(position=Vec3.from_array(pos), repetition_interval=0.05),
            sample_rate=FS,
            record_duration=0.05,
            noise=NoiseSpec.silent(),
            seed=0,
        )
        t0 = time.perf_counter()
        recording = render_scene(scenario)
        cascade = design_bandpass(4, 30_000.0, 50_000.0, FS)
        tdoa = select_stable_window(recording, cascade, ARRAY, C)
        guess = octant_guess(tdoa.coarse_arrivals, list(ARRAY.coarse), min_margin=2.0 / FS)
        result = gradient_descent(guess.init, tdoa, ARRAY, C)
        t_pipeline += time.perf_counter() - t0

        t0 = time.perf_counter()
        f_grid = grid_best_objective(tdoa, ARRAY)
        anti_init = initial_point(guess.octant.negated(), ARRAY.coarse_centroid())
        anti = gradient_descent(anti_init, tdoa, ARRAY, C)
        t_oracle += time.perf_counter() - t0

        centroid = ARRAY.precise_centroid().as_array()
        true_az, _ = true_azimuth_elevation(Vec3.from_array(pos - centroid))
        coarse_centroid = ARRAY.coarse_centroid().as_array()
        trials.append({
            "true_az": true_az,
            "octant_true": octant_of(Vec3.from_array(pos - coarse_centroid)).as_string(),
            "octant_guess": guess.octant.as_string(),
            "converged": result.converged,
            "azimuth": result.azimuth,
            "objective": result.objective,
            "grid_best": f_grid,
            "anti_converged": anti.converged,
            "anti_objective": anti.objective,
        })
    return {"trials": trials, "pipeline_s": t_pipeline, "oracle_s": t_oracle}


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        truth = Vec3.from_array(rng.uniform(-15, 15, 3))
        base = geometric_tdoa(ARRAY, truth, C)
        tdoa = dataclasses.replace(
            base,
            onset_time_abs=base.onset_time_abs + rng.uniform(-1e-4, 1e-4),
            pair_delays=tuple(d + rng.uniform(-5e-6, 5e-6) for d in base.pair_delays),
        )
        point = rng.uniform(-20, 20, 3)
        while min(np.linalg.norm(point - p.as_array()) for p in ARRAY.precise) < 0.5:
            point = rng.uniform(-20, 20, 3)
        problem = solver._Problem(tdoa, ARRAY, C)
        _, grad = problem.objective_and_grad(point)

        # At a 1e-6 m step the differences of G (m^2) sit at float64 roundoff.
        h = 1e-3
        for comp in range(3):
            def f_at(offset, comp=comp):
                q = point.copy()
                q[comp] += offset
                return problem.objective_and_grad(q)[0]

            fd = (f_at(h) - f_at(-h)) / (2.0 * h)
            rel = abs(grad[comp] - fd) / max(abs(fd), abs(grad[comp]), 1e-15)
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    report(1, "gradient-correctness",
           worst < 1e-5 and elapsed < 5.0,
           f"worst relative error {worst:.2e} over 100 instances, {elapsed:.2f} s")


def test_criterion_2_noiseless_end_to_end(noiseless_trials):
    trials = noiseless_trials["trials"]
    elapsed = noiseless_trials["pipeline_s"]
    n_conv = sum(t["converged"] for t in trials)
    worst_az = max(az_error(t["azimuth"], t["true_az"]) for t in trials)
    octant_hits = sum(t["octant_guess"] == t["octant_true"] for t in trials)
    ok = n_conv == 200 and worst_az < 0.5 and octant_hits == 200 and elapsed < 120.0
    report(2, "noiseless-end-to-end", ok,
           f"converged {n_conv}/200, worst azimuth error {worst_az:.4f} deg, "
           f"octant {octant_hits}/200, {elapsed:.1f} s")


def test_criterion_3_guess_server_value(noiseless_trials):
    trials = noiseless_trials["trials"]
    elapsed = noiseless_trials["oracle_s"]
    hits = sum(t["converged"] and t["objective"] <= t["grid_best"] for t in trials)
    anti_hits = sum(t["anti_converged"] and t["anti_objective"] <= t["grid_best"]
                    for t in trials)
    ok = hits >= 190 and anti_hits < hits and elapsed < 600.0
    report(3, "guess-server-value", ok,
           f"octant-init basin hits {hits}/200 vs antipodal {anti_hits}/200, "
           f"oracle time {elapsed:.1f} s")


def test_criterion_4_filter_behavior():
    t0 = time.perf_counter()
    cascade = design_bandpass(4, 30_000.0, 50_000.0, FS)
    grid = np.arange(1_000.0, 250_000.0, 25.0)
    peak = float(np.abs(sps.sosfreqz(cascade, worN=grid, fs=FS)[1]).max())
    h18, h30, h40, h50 = np.abs(sps.sosfreqz(
        cascade, worN=np.array([18_000.0, 30_000.0, 40_000.0, 50_000.0]), fs=FS)[1])
    edges_ok = (abs(h30 - peak / np.sqrt(2)) <= 0.02 * peak / np.sqrt(2)
                and abs(h50 - peak / np.sqrt(2)) <= 0.02 * peak / np.sqrt(2))
    elapsed = time.perf_counter() - t0
    report(4, "filter-behavior",
           h18 <= 0.1 * h40 and edges_ok and elapsed < 1.0,
           f"|H(18k)|/|H(40k)| = {h18 / h40:.4f}, edges at "
           f"{h30 / peak:.4f}/{h50 / peak:.4f} of peak, {elapsed:.2f} s")


def test_criterion_5_delay_estimation_oracle():
    t0 = time.perf_counter()
    pinger = PingerSource(position=Vec3(10, 0, 0), repetition_interval=1.0,
                          ping_duration=3e-3)
    from pingerloc import ping_waveform
    a = ping_waveform(np.arange(3_000) / FS, pinger)
    worst_int = 0.0
    for k in range(1, 101):
        b = np.concatenate([np.zeros(k), a[:-k]])
        delay, _ = estimate_delay(a, b, FS, 120)
        worst_int = max(worst_int, abs(delay * FS + k))

    worst_frac = 0.0
    for shift in (10.5, 3.25):
        b = multitone(offset_samples=shift)
        delay, _ = estimate_delay(multitone(), b, FS, 120)
        worst_frac = max(worst_frac, abs(delay * FS + shift))
    elapsed = time.perf_counter() - t0
    report(5, "delay-estimation-oracle",
           worst_int < 1e-6 and worst_frac <= 0.2 and elapsed < 10.0,
           f"integer shifts 1..100 worst {worst_int:.2e} samples, fractional worst "
           f"{worst_frac:.3f} samples, {elapsed:.2f} s")


def test_criterion_6_detectability_at_30m():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    cascade = design_bandpass(4, 30_000.0, 50_000.0, FS)
    found = 0
    for trial in range(100):
        pos = sample_position(rng, lo=30.0, hi=30.0)
        scenario = Scenario(
            array=ARRAY,
            pinger=PingerSource(position=Vec3.from_array(pos), repetition_interval=0.05),
            sample_rate=FS,
            record_duration=0.05,
            noise=NoiseSpec(),  # default calibrated noise model
            seed=trial,
        )
        recording = render_scene(scenario)
        ref = ARRAY.precise_channels[0]
        arrival = travel_time(scenario.pinger.position, ARRAY.channel_position(ref), C)
        onsets, _ = detect_ping(filter_signal(cascade, recording.channels[ref]), FS)
        if onsets.size and abs(onsets[0] / FS - arrival) < 2e-3:
            found += 1
    elapsed = time.perf_counter() - t0
    report(6, "detectability-at-30m",
           found >= 95 and elapsed < 120.0,
           f"onset found in {found}/100 trials at 30 m with gain 10, {elapsed:.1f} s")


def test_criterion_7_determinism(tmp_path):
    from pingerloc import scenario_to_dict
    from conftest import fast_scenario

    scenario = fast_scenario(Vec3(10.0, 5.0, -2.0),
                             noise=NoiseSpec(white_sigma=0.01), seed=77)
    spath = tmp_path / "scenario.json"
    spath.write_text(json.dumps(scenario_to_dict(scenario)))
    loc = []
    for tag in ("a", "b"):
        out = tmp_path / f"loc_{tag}.ndjson"
        assert main(["localize", "--config", str(spath), "--out", str(out)]) == EXIT_OK
        loc.append(out.read_bytes())

    cfg = tmp_path / "eval.json"
    cfg.write_text(json.dumps({"ranges": [10.0], "snr_db": [None, 20.0],
                               "trials": 3, "seed": 5}))
    mc = []
    for tag in ("a", "b"):
        out = tmp_path / f"mc_{tag}.csv"
        assert main(["montecarlo", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        mc.append(out.read_bytes())

    ok = loc[0] == loc[1] and mc[0] == mc[1]
    report(7, "determinism", ok,
           f"localize streams identical: {loc[0] == loc[1]}, "
           f"montecarlo CSVs identical: {mc[0] == mc[1]}")


def test_criterion_8_monotone_noise_degradation():
    from pingerloc import MonteCarloConfig, monte_carlo

    t0 = time.perf_counter()
    config = MonteCarloConfig(ranges=(10.0, 20.0), snr_db=(0.0, 20.0),
                              trials=50, seed=808)
    summary, _ = monte_carlo(config)
    elapsed = time.perf_counter() - t0

    by_cell = {(c["range_m"], c["snr_db"]): c for c in summary.cells}
    monotone = all(
        by_cell[(r, 20.0)]["az_err_p50"] <= by_cell[(r, 0.0)]["az_err_p50"]
        for r in (10.0, 20.0)
    )
    detail = ", ".join(
        f"range {r:g} m: p50 {by_cell[(r, 20.0)]['az_err_p50']:.3f} deg @20dB vs "
        f"{by_cell[(r, 0.0)]['az_err_p50']:.3f} deg @0dB"
        for r in (10.0, 20.0)
    )
    report(8, "monotone-noise-degradation",
           monotone and elapsed < 900.0, f"{detail}, {elapsed:.1f} s")
