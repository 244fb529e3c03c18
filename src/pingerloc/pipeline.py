"""End-to-end localization: recording (simulated or loaded) -> bandpass ->
stable-window TDOA -> octant guess -> gradient descent -> one ``PingOutcome``
per ping, plus a Monte Carlo evaluation harness; both run their pings
through ``localize_ping``.

An outcome serializes as one NDJSON line: a report for a solved ping, a
failure record for a failed one. Timings and window-search diagnostics ride
on each outcome but stay out of the serialized stream unless asked for, so
runs with the same seed are byte-identical. Onsets are detected once per
recording, in the front end (``dsp.scan_reference``, then
``dsp.filter_and_scan``), against the reference channel's noise floor; a Monte
Carlo trial takes the same front end. Its result is one ``dsp.FrontEnd``
record, which keeps only the reference channel at full length and the other
precise channels as their filtered burst windows. Every ping, a run of
reference crossings, is known before any is searched: one
``dsp.tdoa_from_filtered`` call reads the record in place and searches them
all, and a recording's costs are charged to its first outcome only.
"""

from __future__ import annotations

import csv
import itertools
import math
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import ClassVar, Iterator

import numpy as np

from . import dsp, guess, simulator, solver
from .recording import MultiChannelRecording
from .scene import (
    ConfigError,
    NoiseSpec,
    PingerSource,
    Scenario,
    Vec3,
    config_from_dict,
    default_array,
    octant_of,
    true_azimuth_elevation,
)

__all__ = [
    "PingOutcome",
    "MonteCarloConfig",
    "MonteCarloSummary",
    "localize_ping",
    "run_localization",
    "monte_carlo",
    "write_monte_carlo_csv",
    "monte_carlo_config_from_dict",
]

# Azimuth error charged to a trial whose pipeline failed outright (no ping,
# unstable window, ...): the worst possible bearing error.
FAILED_TRIAL_AZ_ERROR = 180.0

MC_CSV_COLUMNS = [
    "trial", "range_m", "snr_db", "true_az_deg", "est_az_deg", "az_err_deg",
    "octant_true", "octant_guess", "converged", "objective", "iters", "failure",
]

PING_ERRORS = (dsp.NoPingError, dsp.UnstableWindowError, solver.SingularGeometryError,
               solver.DivergedError)


@dataclass(frozen=True)
class PingOutcome:
    """Ping ``ping_index`` through window search -> octant guess -> solve.
    ``error`` is the failure (one of PING_ERRORS) that stopped the chain; the
    stages before it still fill their fields. ``window_search`` holds the
    search's candidate starts, variance scores and chosen index; ``timing``
    each stage's milliseconds ("tdoa", "guess", "solve" as far as the chain
    got), where "tdoa" is the search over every ping of the recording on the
    first outcome and 0.0 on later ones."""

    ping_index: int
    tdoa: dsp.TdoaSet | None
    guess: guess.OctantGuess | None
    result: solver.SolverResult | None
    window_search: dict
    timing: dict[str, float]
    error: Exception | None

    @property
    def azimuth(self) -> float:
        """The solved azimuth (degrees), NaN for a failed ping."""
        return self.result.azimuth if self.result else math.nan

    @property
    def converged(self) -> bool:
        return self.result is not None and self.result.converged

    @property
    def octant_guess(self) -> str:
        """The guessed octant, like "++-", or "" before the guess."""
        return self.guess.octant.as_string() if self.guess else ""

    def to_json_dict(self, include_timing: bool = False) -> dict:
        """The report of a solved ping; for a failed one, a failure record of
        its index, error class and message. ``window`` is the chosen
        analysis window's (start sample, length)."""
        if self.error is not None:
            doc = {"ping_index": self.ping_index, "error": type(self.error).__name__,
                   "message": str(self.error)}
        else:
            result = self.result
            doc = {
                "ping_index": self.ping_index,
                "azimuth": result.azimuth,
                "elevation": result.elevation,
                "range": result.range,
                "octant_guess": self.octant_guess,
                "objective": result.objective,
                "converged": result.converged,
                "window": list(self.tdoa.window),
            }
        if include_timing:
            doc["timing"] = self.timing
        return doc


def localize_ping(front: dsp.FrontEnd, scenario: Scenario) -> Iterator[PingOutcome]:
    """Localize every ping of a front-end record (``dsp.filter_and_scan``),
    a run of reference crossings with room for one analysis window. One
    search (``dsp.tdoa_from_filtered``) covers every ping, on the first
    ``next``, and its milliseconds are the first outcome's "tdoa" timing
    (later ones carry 0.0). Then one outcome per run (without a run, one
    NoPingError) is yielded in order, numbered from 0, each ping guessed and
    solved only when its outcome is asked for; a failure in PING_ERRORS is
    recorded on it, anything else raises."""
    t_search = time.perf_counter()
    searches = dsp.tdoa_from_filtered(front, scenario.array, scenario.sound_speed)
    search_ms = (time.perf_counter() - t_search) * 1e3
    for ping_index, (tdoa, window_search) in enumerate(searches):
        octant = result = error = None
        timing = {"tdoa": search_ms}
        if isinstance(tdoa, Exception):
            tdoa, error = None, tdoa
        else:
            try:
                t_stage = time.perf_counter()
                octant = guess.octant_guess(tdoa.coarse_arrivals, scenario.array.coarse,
                                            min_margin=2.0 / front.sample_rate)
                timing["guess"] = (time.perf_counter() - t_stage) * 1e3

                t_stage = time.perf_counter()
                result = solver.gradient_descent(octant.init, tdoa, scenario.array,
                                                 scenario.sound_speed)
                timing["solve"] = (time.perf_counter() - t_stage) * 1e3
            except PING_ERRORS as exc:
                # Drop its frames and its (suppressed) context's: they link
                # back to the caller holding the outcome, and the cycle would
                # keep the front-end record alive until the garbage collector
                # runs.
                exc.__context__ = None
                error = exc.with_traceback(None)
        search_ms = 0.0
        yield PingOutcome(ping_index=ping_index, tdoa=tdoa, guess=octant, result=result,
                          window_search=window_search, timing=timing, error=error)


def _front_end_sos(scenario: Scenario, fs: float) -> np.ndarray:
    """The scenario's front-end bandpass at ``fs``."""
    fe = scenario.front_end
    return dsp.design_bandpass(fe.analog_order, fe.analog_band_low, fe.analog_band_high, fs)


def run_localization(scenario: Scenario,
                     recording: MultiChannelRecording | None = None) -> Iterator[PingOutcome]:
    """Yield every ping's PingOutcome in time order, a ping being a run of
    reference crossings with room for one analysis window
    (``dsp.scan_reference``, which drops a burst cut off by the recording's
    end); a failed ping's outcome carries its error and the stream goes on.
    The recording's render, filter and onset milliseconds are merged into
    the first outcome's timing (later outcomes carry 0.0).

    With ``recording`` None the scenario is rendered first. Otherwise the
    scenario supplies only geometry, sound speed and filter band: the pings
    come from the recording, not from the pinger's timing. Without any ping
    the reference channel's NoPingError is no ping's outcome: it raises.
    Deterministic given the scenario seed.
    """
    t_start = time.perf_counter()
    if recording is None:
        recording = simulator.render_scene(scenario)
    recording_timing = {"render": (time.perf_counter() - t_start) * 1e3}
    if recording.channel_count != 8:
        raise ConfigError(f"expected an 8-channel recording, got {recording.channel_count}")

    sos = _front_end_sos(scenario, recording.sample_rate)
    array, sound_speed = scenario.array, scenario.sound_speed
    reference = dsp.scan_reference(recording, sos, array, sound_speed, recording_timing)
    front = dsp.filter_and_scan(recording, sos, array, sound_speed, reference, recording_timing)

    if not front.runs:
        raise next(localize_ping(front, scenario)).error
    for outcome in localize_ping(front, scenario):
        yield replace(outcome, timing={**recording_timing, **outcome.timing})
        recording_timing = dict.fromkeys(recording_timing, 0.0)


def measure_burst_rms(recording: MultiChannelRecording, scenario: Scenario) -> float:
    """RMS of the first burst on the channel of the nearest hydrophone,
    measured over [arrival, arrival + ping_duration]. Meant for noiseless
    renders; this is the signal side of the SNR definition."""
    source = scenario.pinger.position.as_array()
    fs = recording.sample_rate
    best_channel, best_r = 0, np.inf
    for ch in range(8):
        r = float(np.linalg.norm(source - scenario.array.channel_position(ch).as_array()))
        if r < best_r:
            best_channel, best_r = ch, r
    start = int(round(best_r / scenario.sound_speed * fs))
    stop = start + int(round(scenario.pinger.ping_duration * fs))
    burst = recording.channels[best_channel][start:stop].astype(float)
    if burst.size == 0:
        raise ValueError("burst window is empty; arrival beyond recording")
    return float(np.sqrt(np.mean(np.square(burst))))


def white_sigma_for_snr(burst_rms: float, snr_db: float, band_low: float,
                        band_high: float, fs: float) -> float:
    """White-noise sigma that puts the in-band noise RMS at
    burst_rms / 10^(snr_db/20). White noise of sigma s has RMS
    s * sqrt(2 (f_hi - f_lo) / fs) inside the band."""
    band_fraction = 2.0 * (band_high - band_low) / fs
    if not (0 < band_fraction <= 1):
        raise ValueError(f"band {band_low}..{band_high} invalid at fs={fs}")
    return burst_rms * 10.0 ** (-snr_db / 20.0) / math.sqrt(band_fraction)


@dataclass(frozen=True)
class MonteCarloConfig:
    """Evaluation grid: every (range, SNR) cell runs ``trials`` randomized
    pinger placements. An SNR of None means zero noise; otherwise white noise
    is calibrated per trial to the requested in-band SNR at the nearest
    hydrophone. Every trial renders the default scenario (500 kHz, 1480 m/s,
    a 40 kHz 4 ms burst, the default array and front end) for one
    ``repetition_interval``, noiseless, its pinger at least ``clearance``
    meters from every octant boundary plane so the true octant is
    unambiguous. Those two are class constants, not config keys."""

    ranges: tuple[float, ...]
    snr_db: tuple[float | None, ...]
    trials: int
    seed: int = 0
    success_threshold_deg: float = 5.0
    # 50 ms still covers a 30 m arrival (~20 ms) plus the analysis window span.
    repetition_interval: ClassVar[float] = 0.05
    clearance: ClassVar[float] = 1.0

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")
        if not self.ranges or not self.snr_db:
            raise ConfigError("ranges and snr_db must be non-empty")
        # Each check below is written so that NaN fails it.
        if not self.success_threshold_deg > 0:
            raise ConfigError(f"success_threshold_deg must be > 0, "
                              f"got {self.success_threshold_deg}")
        # white_sigma_for_snr scales the burst RMS by 10^(-snr_db/20).
        for snr in (s for s in self.snr_db if s is not None):
            try:
                10.0 ** (-snr / 20.0)
            except OverflowError:
                raise ConfigError(f"snr_db {snr} dB: its noise scale 10^({-snr / 20.0:g}) "
                                  f"overflows a float") from None
        # A placement at radius r clears every octant plane by ``clearance``
        # only if r > sqrt(3) * clearance, and the rejection sampler slows
        # without bound toward that limit: at 1.75 * clearance it accepts
        # 1.6e-4 of the directions it draws, at 2 * clearance 2.6e-2.
        min_range = 2.0 * self.clearance
        # The trial scene's sound speed, burst and array are the defaults.
        reach = max(np.linalg.norm(p.as_array()) for p in default_array().all_positions())
        for radius in self.ranges:
            if not radius > 0:
                raise ConfigError(f"ranges must be > 0, got {radius}")
            if not radius >= min_range:
                raise ConfigError(f"range {radius} m cannot clear every octant plane by "
                                  f"{self.clearance} m (needs >= {min_range:.4g} m)")
            # The whole burst must be recorded: the SNR is calibrated on it,
            # and the analysis window has to fit after the onset.
            end = (radius + reach) / Scenario.sound_speed + PingerSource.ping_duration
            if not end < self.repetition_interval:
                raise ConfigError(f"range {radius} m: the burst can end after the "
                                  f"{self.repetition_interval} s repetition interval")


@dataclass(frozen=True)
class MonteCarloSummary:
    trials: int
    success_count: int
    success_fraction: float
    az_err_p50: float
    az_err_p90: float
    az_err_max: float
    octant_accuracy: float
    cells: tuple[dict, ...]

    def to_json_dict(self) -> dict:
        return {**asdict(self), "cells": list(self.cells)}


def monte_carlo_config_from_dict(doc: dict) -> MonteCarloConfig:
    return config_from_dict(MonteCarloConfig, doc, "eval")


def _azimuth_error_deg(est: float, true: float) -> float:
    return abs((est - true + 180.0) % 360.0 - 180.0)


def _sample_position(rng: np.random.Generator, radius: float, clearance: float) -> Vec3:
    # Uniform direction, resampled until every component clears the octant
    # boundary planes.
    while True:
        v = rng.normal(size=3)
        n = np.linalg.norm(v)
        if n < 1e-12:
            continue
        pos = radius * v / n
        if np.all(np.abs(pos) >= clearance):
            return Vec3.from_array(pos)


def _trial_scenario(position: Vec3) -> Scenario:
    """The noiseless one-repetition scene a trial renders, its pinger at
    ``position``."""
    interval = MonteCarloConfig.repetition_interval
    return Scenario(pinger=PingerSource(position=position, repetition_interval=interval),
                    record_duration=interval, noise=NoiseSpec.silent())


def _localize_trial(clean: MultiChannelRecording, scenario: Scenario, trial: int,
                    radius: float, snr_db: float | None, noise_seed: int) -> PingOutcome:
    """The first ping of ``clean`` plus white noise calibrated to ``snr_db``
    (none for None) through the localizer's chain. One generator draws the
    noise of the rows up to the reference (first precise) channel first and
    then, only if the reference step (``dsp.scan_reference``, run once, on
    those rows) found a run, the noise of the other rows (so only then can
    their overflow fail the trial): ``add_noise`` draws the channels in
    order, so every row's noise is the whole recording's. With a run the
    two blocks, stacked (``clean`` itself without noise), go through
    ``dsp.filter_and_scan`` with that step's first run; without one, that
    reads no other channel."""
    fs = clean.sample_rate
    noise = NoiseSpec.silent()
    if snr_db is not None:
        fe = scenario.front_end
        sigma = white_sigma_for_snr(measure_burst_rms(clean, scenario), snr_db,
                                    fe.analog_band_low, fe.analog_band_high, fs)
        noise = NoiseSpec(white_sigma=sigma, interferer_amp=0.0, lowfreq_amp=0.0)
    rng = np.random.default_rng(noise_seed)

    def noisy(rows: np.ndarray) -> MultiChannelRecording:
        try:
            return simulator.add_noise(MultiChannelRecording(fs, rows), noise, rng)
        except ValueError as exc:
            raise ValueError(f"trial {trial} at {radius:g} m and {snr_db:g} dB SNR: "
                             f"{exc}") from None

    sos = _front_end_sos(scenario, fs)
    array, sound_speed = scenario.array, scenario.sound_speed
    ref = array.precise_channels[0]
    head = noisy(clean.channels[:ref + 1])
    row, cutoff, runs = dsp.scan_reference(head, sos, array, sound_speed)
    if runs:
        head = clean if noise.is_silent() else MultiChannelRecording(
            fs, np.vstack((head.channels, noisy(clean.channels[ref + 1:]).channels)))
    front = dsp.filter_and_scan(head, sos, array, sound_speed, (row, cutoff, runs[:1]))
    return next(localize_ping(front, scenario))


def _run_trial(config: MonteCarloConfig, cell_index: int, trial: int,
               radius: float, snr_db: float | None) -> dict:
    ss = np.random.SeedSequence(entropy=config.seed, spawn_key=(cell_index, trial))
    rng = np.random.default_rng(ss)
    position = _sample_position(rng, radius, config.clearance)
    scenario = _trial_scenario(position)
    clean = simulator.render_scene(scenario)
    outcome = _localize_trial(clean, scenario, trial, radius, snr_db,
                              int(ss.generate_state(1, dtype=np.uint32)[0]))

    pos, array = position.as_array(), scenario.array
    true_az, _ = true_azimuth_elevation(Vec3.from_array(pos - array.precise_centroid().as_array()))
    octant_true = octant_of(Vec3.from_array(pos - array.coarse_centroid().as_array()))

    result = outcome.result
    return {
        "trial": trial,
        "range_m": radius,
        "snr_db": snr_db,
        "true_az_deg": true_az,
        "est_az_deg": result.azimuth if result else None,
        "az_err_deg": (_azimuth_error_deg(result.azimuth, true_az) if result
                       else FAILED_TRIAL_AZ_ERROR),
        "octant_true": octant_true.as_string(),
        "octant_guess": outcome.octant_guess,
        "converged": outcome.converged,
        "objective": result.objective if result else None,
        "iters": result.iterations if result else 0,
        "failure": type(outcome.error).__name__ if outcome.error else None,
    }


def _aggregate(rows: list[dict], threshold: float) -> dict:
    """Trials, successes (converged, azimuth error under ``threshold``) as
    count and fraction, azimuth-error p50/p90/max and octant accuracy."""
    errors = np.array([r["az_err_deg"] for r in rows])
    p50, p90 = np.percentile(errors, [50, 90]).tolist()
    successes = sum(1 for r in rows if r["converged"] and r["az_err_deg"] < threshold)
    return {
        "trials": len(rows),
        "success_count": successes,
        "success_fraction": successes / len(rows),
        "az_err_p50": p50,
        "az_err_p90": p90,
        "az_err_max": float(errors.max()),
        "octant_accuracy": sum(r["octant_guess"] == r["octant_true"] for r in rows) / len(rows),
    }


def monte_carlo(config: MonteCarloConfig) -> tuple[MonteCarloSummary, list[dict]]:
    """Run the full grid. Returns (summary, trial rows); deterministic given
    config.seed."""
    rows: list[dict] = []
    cells: list[dict] = []
    for cell_index, (radius, snr_db) in enumerate(itertools.product(config.ranges,
                                                                    config.snr_db)):
        cell_rows = [_run_trial(config, cell_index, trial, radius, snr_db)
                     for trial in range(config.trials)]
        rows.extend(cell_rows)
        stats = _aggregate(cell_rows, config.success_threshold_deg)
        del stats["success_count"]
        cells.append({"range_m": radius, "snr_db": snr_db, **stats})
    return MonteCarloSummary(**_aggregate(rows, config.success_threshold_deg),
                             cells=tuple(cells)), rows


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def write_monte_carlo_csv(path: str | Path, summary: MonteCarloSummary, rows: list[dict]) -> None:
    """Trial rows in run order, then one summary row (trial='summary') with
    the overall p50 error, octant accuracy, and success fraction."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MC_CSV_COLUMNS)
        # The trial column numbers rows across cells; row["trial"] restarts
        # in every cell.
        for idx, row in enumerate(rows):
            writer.writerow([idx] + [_fmt(row[col]) for col in MC_CSV_COLUMNS[1:]])
        summary_row = {"trial": "summary", "az_err_deg": summary.az_err_p50,
                       "octant_guess": summary.octant_accuracy,
                       "converged": summary.success_fraction, "iters": summary.trials}
        writer.writerow([_fmt(summary_row.get(col)) for col in MC_CSV_COLUMNS])
