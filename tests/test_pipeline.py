import dataclasses
import gc
import itertools
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pingerloc import (
    ConfigError,
    DivergedError,
    HydrophoneArray,
    MonteCarloConfig,
    MultiChannelRecording,
    NoiseSpec,
    NoPingError,
    Vec3,
    design_bandpass,
    dsp,
    filter_signal,
    load_scenario,
    monte_carlo,
    render_scene,
    run_localization,
    true_azimuth_elevation,
    write_monte_carlo_csv,
    write_recording,
)
from pingerloc import pipeline, simulator, solver
from pingerloc.cli import EXIT_NO_PING, main
from pingerloc.pipeline import (
    FAILED_TRIAL_AZ_ERROR,
    _front_end_sos,
    _run_trial,
    _trial_scenario,
    localize_ping,
    measure_burst_rms,
    monte_carlo_config_from_dict,
    white_sigma_for_snr,
)
from conftest import FS, fast_scenario, full_record

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class TestRunLocalization:
    def test_single_ping_azimuth(self, std_scenario, std_recording):
        reports = list(run_localization(std_scenario, recording=std_recording))
        assert len(reports) == 1
        report = reports[0]
        assert report.converged
        # against the array-centroid-referenced truth
        centroid = std_scenario.array.precise_centroid().as_array()
        true_az, true_el = true_azimuth_elevation(
            Vec3.from_array(np.array([10.0, 5.0, -2.0]) - centroid))
        assert abs((report.azimuth - true_az + 180) % 360 - 180) < 0.05
        assert abs(report.result.elevation - true_el) < 0.1
        # and within the coarser origin-referenced figure
        assert abs((report.azimuth - 26.565 + 180) % 360 - 180) < 0.5
        assert report.octant_guess == "++-"
        assert report.result.objective >= 0.0
        assert 0.0 <= report.azimuth < 360.0
        assert set(report.timing) == {"render", "filter", "onset", "tdoa", "guess", "solve"}

    def test_non_default_sound_speed(self):
        # configs/scenario_quick.json, noise and all, with sound at 1500 m/s:
        # window search, guess and solve must each take the scenario's speed.
        scenario = dataclasses.replace(load_scenario(CONFIGS / "scenario_quick.json"),
                                       sound_speed=1500.0)
        [report] = run_localization(scenario)
        assert report.converged
        centroid = scenario.array.precise_centroid().as_array()
        true_az, _ = true_azimuth_elevation(
            Vec3.from_array(scenario.pinger.position.as_array() - centroid))
        assert abs((report.azimuth - true_az + 180) % 360 - 180) < 0.05
        max_delay_us = scenario.array.max_precise_spacing() / 1500.0 * 1e6
        delays_us = [delay * 1e6 for delay in report.tdoa.pair_delays]
        assert len(delays_us) == 6
        assert all(abs(d) <= max_delay_us for d in delays_us)

    def test_one_report_per_repetition_in_order(self):
        scenario = fast_scenario(Vec3(10.0, 5.0, -2.0), record_duration=0.125,
                                 repetition_interval=0.05)
        reports = list(run_localization(scenario))
        assert [r.ping_index for r in reports] == [0, 1, 2]
        starts = [r.tdoa.window[0] for r in reports]
        assert all(b > a for a, b in zip(starts, starts[1:]))
        azimuths = [r.azimuth for r in reports]
        assert max(azimuths) - min(azimuths) < 0.1
        # Render, filter, onset detection and the window search run once per
        # recording and are charged once, to the first report; every report
        # keeps the same keys.
        first, *rest = [r.timing for r in reports]
        assert min(first.values()) > 0.0
        for timing in rest:
            assert set(timing) == set(first)
            assert timing["render"] == timing["filter"] == timing["onset"] == 0.0
            assert timing["tdoa"] == 0.0
            assert min(timing["guess"], timing["solve"]) > 0.0

    def test_onsets_detected_once_per_recording(self, monkeypatch):
        # 16 repetitions of the quick scenario: one reference step, which
        # scans the full-length reference channel on its own, and one scan
        # of each coarse channel, over its 16 burst windows as rows, each
        # from its filter start only to the travel-time bound past its run's
        # first crossing, serve every ping.
        quick = load_scenario(CONFIGS / "scenario_quick.json")
        interval = quick.pinger.repetition_interval
        scenario = dataclasses.replace(quick, record_duration=16 * interval)
        calls, references = [], []
        detect_ping, scan_reference = dsp.detect_ping, dsp.scan_reference

        def counted(samples, *args, **kwargs):
            result = detect_ping(samples, *args, **kwargs)
            calls.append((np.shape(samples), result))
            return result

        def counted_reference(*args, **kwargs):
            references.append(scan_reference(*args, **kwargs))
            return references[-1]

        monkeypatch.setattr(dsp, "detect_ping", counted)
        monkeypatch.setattr(dsp, "scan_reference", counted_reference)
        reports = list(run_localization(scenario))
        assert [r.ping_index for r in reports] == list(range(16))
        n = int(round(16 * interval * scenario.sample_rate))
        [(row, cutoff, runs)] = references
        crossings, own_cutoff = detect_ping(row, FS)
        assert cutoff == own_cutoff and runs == reference_runs(scenario, FS, crossings)
        windows = burst_windows(scenario, FS, runs)
        before, _, prefix = coarse_margins(scenario, FS)
        lag = before - int(round(dsp.RMS_WINDOW * FS))
        assert row.shape == (n,) and len(windows) == 16 and 0 < windows[0][0] - prefix
        assert windows[-1][1] < n
        cols = {first + lag + 1 - (a - prefix) for (first, _), (a, _) in zip(runs, windows)}
        assert len(cols) == 1
        assert [shape for shape, _ in calls] == [(16, *cols)] * 4 and 16 * cols.pop() < n / 10
        assert all(coarse_cutoff == cutoff for _, (_, coarse_cutoff) in calls)

    def test_deterministic_given_seed(self, std_scenario):
        runs = []
        for _ in range(2):
            reports = list(run_localization(std_scenario))
            runs.append([json.dumps(r.to_json_dict()) for r in reports])
        assert runs[0] == runs[1]

    def test_json_dict_excludes_timing_by_default(self, std_scenario, std_recording):
        report = next(run_localization(std_scenario, recording=std_recording))
        doc = report.to_json_dict()
        assert "timing" not in doc
        assert set(doc) == {"ping_index", "azimuth", "elevation", "range",
                            "octant_guess", "objective", "converged", "window"}
        assert "timing" in report.to_json_dict(include_timing=True)

    def test_report_carries_window_search(self, std_scenario, std_recording):
        report = next(run_localization(std_scenario, recording=std_recording))
        search = report.window_search
        assert len(report.tdoa.pair_delays) == 6
        assert len(search["variance_scores"]) == len(search["candidate_starts"])
        chosen = search["candidate_starts"][search["chosen_candidate"]]
        assert chosen == report.tdoa.window[0]
        doc = report.to_json_dict(include_timing=True)
        assert not {"window_search", "pair_delays_us", "candidate_starts"} & set(doc)

    def test_stream_end_leaves_no_reference_cycle(self, std_scenario, std_recording):
        # The stream ends on a caught NoPingError. A cycle through its frames
        # would hold every filtered channel until the garbage collector runs.
        list(run_localization(std_scenario, recording=std_recording))
        gc.collect()
        gc.disable()
        try:
            list(run_localization(std_scenario, recording=std_recording))
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.fixture(scope="class")
    def quick_render(self):
        scenario = load_scenario(CONFIGS / "scenario_quick.json")
        return scenario, render_scene(scenario)

    @pytest.mark.parametrize("labels", [tuple(reversed(range(8))),
                                        tuple(int(k) for k in
                                              np.random.default_rng(5).permutation(8))],
                             ids=["reversed", "seeded-permutation"])
    def test_relabelled_recording_localizes_identically(self, quick_render, labels):
        # Row labels[k] of the relabelled recording holds the quick render's
        # row k, the channel its default labels give hydrophone k: the same
        # hydrophones heard through other channels must give the same stream,
        # the same pair delays in quad order and the same window search.
        scenario, recording = quick_render
        assert scenario.array.labels == tuple(range(8)) != labels
        channels = np.empty_like(recording.channels)
        channels[list(labels)] = recording.channels
        relabelled = dataclasses.replace(scenario, array=dataclasses.replace(scenario.array,
                                                                             labels=labels))
        base = list(run_localization(scenario, recording))
        moved = list(run_localization(relabelled, MultiChannelRecording(FS, channels)))
        assert base
        assert ([json.dumps(r.to_json_dict()) for r in moved]
                == [json.dumps(r.to_json_dict()) for r in base])
        for b, m in zip(base, moved):
            assert m.tdoa.pair_delays == b.tdoa.pair_delays
            assert m.window_search == b.window_search

    def test_solver_failure_is_recorded(self, std_scenario, std_recording, diverging_solver):
        # The failed ping's outcome keeps the stages before the solve.
        [outcome] = run_localization(std_scenario, recording=std_recording)
        assert isinstance(outcome.error, DivergedError) and outcome.result is None
        assert outcome.tdoa is not None and outcome.octant_guess == "++-"
        assert not outcome.converged and math.isnan(outcome.azimuth)
        assert outcome.to_json_dict() == {"ping_index": 0, "error": "DivergedError",
                                          "message": "diverged: forced"}

    @pytest.fixture(scope="class")
    def four_pings(self):
        quick = load_scenario(CONFIGS / "scenario_quick.json")
        scenario = dataclasses.replace(quick, record_duration=4 * quick.pinger.repetition_interval)
        return scenario, render_scene(scenario)

    def test_one_window_search_per_recording(self, four_pings, monkeypatch):
        # Every ping's sub-windows go through one correlation call and every
        # winning window through one more; one search per ping made 8.
        scenario, recording = four_pings
        calls = []
        delays = dsp._delays

        def counted(*args):
            calls.append(args[0].shape)
            return delays(*args)

        monkeypatch.setattr(dsp, "_delays", counted)
        reports = list(run_localization(scenario, recording))
        assert [r.ping_index for r in reports] == [0, 1, 2, 3]
        win_len = reports[0].tdoa.window[1]
        assert len(calls) == 2 and calls[1] == (len(dsp.PAIRS), 4, win_len)

    def test_stream_goes_on_after_a_failed_ping(self, four_pings, monkeypatch):
        # The second ping's solve diverges: its outcome carries the error,
        # and the pings after it are solved, each only when it is asked for.
        scenario, recording = four_pings
        solves = []
        gradient_descent = solver.gradient_descent

        def second_diverges(*args, **kwargs):
            solves.append(args[1].window)
            if len(solves) == 2:
                raise DivergedError("diverged: forced")
            return gradient_descent(*args, **kwargs)

        monkeypatch.setattr(solver, "gradient_descent", second_diverges)
        stream = run_localization(scenario, recording)
        assert next(stream).ping_index == 0 and len(solves) == 1
        failed = next(stream)
        assert (failed.ping_index, str(failed.error), len(solves)) == (1, "diverged: forced", 2)
        assert [outcome.ping_index for outcome in stream if outcome.converged] == [2, 3]
        assert len(solves) == 4

    def test_invalid_array_is_config_error(self, std_scenario):
        from pingerloc import HydrophoneArray, Scenario
        bad_coarse = (Vec3(0.3, 0.2, 0.1), Vec3(0.2, -0.2, 0.1),
                      Vec3(0.3, 0.2, -0.1), Vec3(0.2, -0.2, -0.1))
        with pytest.raises(ConfigError, match="validation"):
            Scenario(array=HydrophoneArray(precise=std_scenario.array.precise,
                                           coarse=bad_coarse),
                     pinger=std_scenario.pinger, sample_rate=FS,
                     record_duration=0.05, noise=NoiseSpec.silent(), seed=0)


def front_end(recording, scenario, timing=None):
    """The front-end record of ``recording``: the reference step, then
    ``dsp.filter_and_scan`` with its result, through the scenario's band."""
    sos = _front_end_sos(scenario, recording.sample_rate)
    array, sound_speed = scenario.array, scenario.sound_speed
    reference = dsp.scan_reference(recording, sos, array, sound_speed, timing)
    return dsp.filter_and_scan(recording, sos, array, sound_speed, reference, timing)


def precise_end(front):
    """Where the record's last burst window of the other precise channels
    ends, 0 without a run."""
    return front.offsets[-1] + front.windows.shape[-1] if front.runs else 0


def localize_first(scenario, recording, run=None):
    """The outcome of ``run``, the recording's first run by default."""
    front = front_end(recording, scenario)
    return next(localize_ping(dataclasses.replace(front, runs=(run or front.runs[0],)), scenario))


def full_length_onsets(scenario, recording):
    """(onsets, full filter): the reference channel's crossings and every
    coarse channel's crossings of the reference cutoff, all scanned over the
    full-length filter."""
    fs = recording.sample_rate
    fe = scenario.front_end
    sos = design_bandpass(fe.analog_order, fe.analog_band_low, fe.analog_band_high, fs)
    full = filter_signal(sos, recording.channels)
    ref = scenario.array.precise_channels[0]
    crossings, cutoff = dsp.detect_ping(full[ref], fs)
    onsets = {ref: crossings}
    for ch in scenario.array.coarse_channels:
        onsets[ch], _ = dsp.detect_ping(full[ch], fs, cutoff)
    return onsets, full


def search_span(fs):
    """Samples from a ping's onset to the end of its last candidate window."""
    win_len, sub_len = dsp._window_lengths(fs)
    return (dsp.NUM_WINDOWS - 1) * sub_len + win_len


def coarse_margins(scenario, fs):
    """(before, reach, prefix) in samples: how far a burst window reaches
    before and after a reference crossing, and how much earlier its filter
    starts, as ``filter_and_scan`` derives them."""
    array = scenario.array
    ref_pos = array.precise[0].as_array()
    lead = max(np.linalg.norm(p.as_array() - ref_pos) for p in array.coarse)
    lag = math.ceil(lead / scenario.sound_speed * fs) + 1
    w = int(round(dsp.RMS_WINDOW * fs))
    fe = scenario.front_end
    sos = design_bandpass(fe.analog_order, fe.analog_band_low, fe.analog_band_high, fs)
    return lag + w, max(search_span(fs), lag), dsp._settle_samples(sos) + w


def reference_runs(scenario, fs, crossings):
    """The pings the front end forms from the reference channel's
    crossings: the crossings past the settle prefix, split into runs
    [first, last] where the next crossing is at least before + reach
    later."""
    before, reach, prefix = coarse_margins(scenario, fs)
    runs = []
    for c in crossings[crossings >= prefix].tolist():
        if runs and c - runs[-1][1] < before + reach:
            runs[-1][1] = c
        else:
            runs.append([c, c])
    return [tuple(run) for run in runs]


def burst_windows(scenario, fs, runs):
    """The front end's coarse burst windows [a, b), unclipped: a run of
    reference crossings [first, last] covers [first - before, max(first +
    search, last + lag)), where search is the search span and lag = before
    - RMS_WINDOW the travel-time term."""
    before, _, _ = coarse_margins(scenario, fs)
    lag = before - int(round(dsp.RMS_WINDOW * fs))
    return [(first - before, max(first + search_span(fs), last + lag)) for first, last in runs]


def window_onsets(scenario, recording, runs, cutoff):
    """Each run's coarse onsets as its burst window's own full-width scan:
    per coarse channel, the window filtered alone from zero state from its
    prefix on (or from sample 0), scanned against ``cutoff`` with a running
    sum of its own; the first crossing past the prefix, or -1."""
    fs, n = recording.sample_rate, recording.samples_per_channel
    sos = _front_end_sos(scenario, fs)
    prefix = coarse_margins(scenario, fs)[2]
    onsets = {ch: [] for ch in scenario.array.coarse_channels}
    for a, b in burst_windows(scenario, fs, runs):
        a, b = max(0, a), min(n, b)
        start = max(0, a - prefix)
        for ch, found in onsets.items():
            crossings, _ = dsp.detect_ping(filter_signal(sos, recording.channels[ch, start:b]),
                                           fs, cutoff)
            crossings = crossings[crossings >= a - start]
            found.append(int(crossings[0]) + start if crossings.size else -1)
    return onsets


def first_inside(samples, windows):
    """Per window [a, b), the first of ``samples`` in it, or -1."""
    return [int(next(iter(samples[(samples >= a) & (samples < b)]), -1)) for a, b in windows]


@pytest.fixture(scope="module")
def three_pings():
    """The quick scenario recorded for three repetitions, and its render."""
    quick = load_scenario(CONFIGS / "scenario_quick.json")
    scenario = dataclasses.replace(quick, record_duration=3 * quick.pinger.repetition_interval)
    return scenario, render_scene(scenario)


class TestFilterAndScan:
    """The front end filters every channel but the reference only in burst
    windows around the reference crossings. The record's reference row must
    be the full-length filter's, byte for byte; every other precise channel's
    window must be it over each run's read span, and within rounding over
    the rest of its burst window; each run's coarse onset must be the first
    crossing of its burst window's own scan, and, where noise makes the
    full-length scan agree, its first full-length crossing there."""

    def check_rows(self, scenario, recording, silent_residue=False):
        """Compare the front end's record with the full filter; return
        (record, full filter). With ``silent_residue``, a read sample may
        differ where the full-length filter holds a subnormal: the channel
        has not yet heard the burst, the full-length filter still rings with
        the previous ping's tail, and the window, filtered from zero state,
        holds exactly 0.0; and a coarse onset is checked only against its
        window's own scan, since the full-length scan's running sum carries
        the earlier pings' energy."""
        timing = {}
        front = front_end(recording, scenario, timing)
        expected, full = full_length_onsets(scenario, recording)
        fs, n = recording.sample_rate, recording.samples_per_channel
        array = scenario.array
        runs = list(front.runs)
        assert front.sample_rate == fs and set(timing) == {"filter", "onset"}
        assert front.reference.tobytes() == full[array.precise_channels[0]].tobytes()
        assert runs == reference_runs(scenario, fs, expected[array.precise_channels[0]])
        reach = coarse_margins(scenario, fs)[1]
        windows = [(max(0, a), min(n, b)) for a, b in burst_windows(scenario, fs, runs)]
        width = front.windows.shape[-1]
        assert front.windows.shape == (3, len(runs), width)
        # Each window ends where its burst window does.
        assert [d + width for d in front.offsets] == [b for _, b in windows]
        scale = np.abs(full[list(array.precise_channels)]).max()
        for rows, ch in zip(front.windows, array.precise_channels[1:]):
            for row, d, (first, _), (a, b) in zip(rows, front.offsets, runs, windows):
                np.testing.assert_allclose(row[a - d:b - d], full[ch, a:b],
                                           rtol=0, atol=1e-13 * scale)
                stop = min(n, first + reach)
                read = row[first - d:stop - d]
                differ = read != full[ch, first:stop]
                if silent_residue:
                    assert (np.abs(full[ch, first:stop][differ]) < np.finfo(float).tiny).all()
                    assert not read[differ].any()
                else:
                    assert not differ.any(), (ch, first)
        assert list(front.onsets) == list(array.coarse_channels)
        own = window_onsets(scenario, recording, runs, front.cutoff)
        for ch in array.coarse_channels:
            assert front.onsets[ch] == own[ch], ch
            if not silent_residue:
                assert front.onsets[ch] == first_inside(expected[ch], windows), ch
        return front, full

    def check_searches(self, scenario, recording, silent_residue=False):
        """Every ping's window search reads the same from the front end's
        record as from the full-length filter; return (record, ping count)."""
        front, full = self.check_rows(scenario, recording, silent_residue)
        # Each ping's search starts at its onset, its run's first crossing.
        starts = [report.window_search["candidate_starts"][0]
                  for report in run_localization(scenario, recording=recording)]
        assert starts == [first for first, _ in front.runs]
        search = [dsp.tdoa_from_filtered(record, scenario.array, scenario.sound_speed)
                  for record in (front, full_record(full, scenario.array, front.onsets,
                                                    front.runs, recording.sample_rate))]
        assert search[0] == search[1]
        assert all(isinstance(tdoa, dsp.TdoaSet) for tdoa, _ in search[0])
        return front, len(front.runs)

    def test_record_keeps_only_the_reference_at_full_length(self):
        # Sixteen pings in 0.8 s: no array in the record but the reference
        # row is as long as the recording, in any of its dimensions.
        quick = load_scenario(CONFIGS / "scenario_quick.json")
        scenario = dataclasses.replace(quick, record_duration=0.8)
        recording = render_scene(scenario)
        front = front_end(recording, scenario)
        n = recording.samples_per_channel
        assert len(front.runs) == 16 and front.reference.shape == (n,)
        arrays = [value for value in vars(front).values()
                  if isinstance(value, np.ndarray) and value is not front.reference]
        assert arrays and all(max(value.shape) < n for value in arrays)
        assert all(len(value) < n for value in (front.runs, front.offsets,
                                                *front.onsets.values()))
        # The precise windows are a block of their own: the record keeps no
        # coarse row alive.
        windows = front.windows
        assert windows.shape[:2] == (3, 16)
        assert windows.base is None or windows.base.nbytes == windows.nbytes

    def test_sixteen_noisy_repetitions(self):
        quick = load_scenario(CONFIGS / "scenario_quick.json")
        scenario = dataclasses.replace(quick, record_duration=16 * quick.pinger.repetition_interval)
        _, pings = self.check_searches(scenario, render_scene(scenario))
        assert pings == 16

    def test_sixteen_noiseless_repetitions(self):
        # Every burst window starts in silence and is filtered from zero
        # state. Where a precise channel hears the burst a sample or two
        # after the reference onset, the search reads exactly 0.0 there, and
        # the full-length filter's subnormal ringing of the previous ping:
        # the two differ, the searches do not. Each window's coarse scan
        # keeps a running sum of its own: in the full-length scan, the sum
        # of the earlier pings' energy absorbs a ping's leading squares, and
        # every ping past the first crosses 3-4 samples later there.
        quick = load_scenario(CONFIGS / "scenario_quick.json")
        scenario = dataclasses.replace(quick, noise=NoiseSpec.silent(),
                                       record_duration=16 * quick.pinger.repetition_interval)
        recording = render_scene(scenario)
        front, pings = self.check_searches(scenario, recording, silent_residue=True)
        assert pings == 16
        expected, _ = full_length_onsets(scenario, recording)
        windows = burst_windows(scenario, FS, front.runs)
        for ch in scenario.array.coarse_channels:
            late = [b - a for a, b in zip(front.onsets[ch], first_inside(expected[ch], windows))]
            assert late[0] == 0 and all(3 <= d <= 4 for d in late[1:]), ch

    @pytest.mark.parametrize("seed", range(10))
    def test_noise_seeds_search_as_the_full_length_filter(self, seed):
        # Across noise draws, the window search reads the burst-window rows
        # as it reads the full-length filter: the same onsets, candidates
        # and windows, and the same pair delays to within 1e-12 s.
        quick = load_scenario(CONFIGS / "scenario_quick.json")
        scenario = dataclasses.replace(quick, seed=seed, record_duration=0.8)
        recording = render_scene(scenario)
        front = front_end(recording, scenario)
        expected, full = full_length_onsets(scenario, recording)
        windows = burst_windows(scenario, FS, front.runs)
        assert len(front.runs) == 16
        assert front.onsets == {ch: first_inside(expected[ch], windows)
                                for ch in scenario.array.coarse_channels}
        searches = [zip(*dsp.tdoa_from_filtered(record, scenario.array, scenario.sound_speed))
                    for record in (front, full_record(full, scenario.array, front.onsets,
                                                      front.runs))]
        (tdoas, diagnostics), (full_tdoas, full_diagnostics) = searches
        assert [d["chosen_candidate"] for d in diagnostics] == [
            d["chosen_candidate"] for d in full_diagnostics]
        for tdoa, full_tdoa in zip(tdoas, full_tdoas, strict=True):
            assert tdoa.window == full_tdoa.window
            assert tdoa.onset_time_abs == full_tdoa.onset_time_abs
            assert tdoa.coarse_arrivals == full_tdoa.coarse_arrivals
            np.testing.assert_allclose(tdoa.pair_delays, full_tdoa.pair_delays,
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("change", [
        {"front_end": {"analog_band_low": 36_000.0, "analog_band_high": 44_000.0}},
        {"sample_rate": 400_000.0},
    ], ids=["narrow-band", "400-kHz"])
    def test_settle_follows_the_filter(self, change, monkeypatch):
        # A narrower band settles more slowly, a lower sample rate in fewer
        # samples: the burst windows' prefixes follow the filter. Past its
        # prefix, each window of the coarse rows the front end scans matches
        # the full-length filter to within rounding.
        quick = load_scenario(CONFIGS / "scenario_quick.json")
        band = dataclasses.replace(quick.front_end, **change.get("front_end", {}))
        fs = change.get("sample_rate", FS)
        scenario = dataclasses.replace(quick, front_end=band, sample_rate=fs,
                                       record_duration=4 * quick.pinger.repetition_interval)
        assert coarse_margins(scenario, fs)[2] != coarse_margins(quick, FS)[2]
        recording = render_scene(scenario)
        _, pings = self.check_searches(scenario, recording)
        assert pings == 4

        scanned = []
        detect_ping = dsp.detect_ping

        def keep_rows(samples, *args):
            scanned.append(np.asarray(samples))
            return detect_ping(samples, *args)

        with monkeypatch.context() as patch:
            patch.setattr(dsp, "detect_ping", keep_rows)
            front_end(recording, scenario)
        coarse_rows = scanned
        expected, full = full_length_onsets(scenario, recording)
        coarse = scenario.array.coarse_channels
        scale = np.abs(full[list(coarse)]).max()
        n, (before, _, prefix) = recording.samples_per_channel, coarse_margins(scenario, fs)
        lag = before - int(round(dsp.RMS_WINDOW * fs))
        runs = reference_runs(scenario, fs, expected[scenario.array.precise_channels[0]])
        # Row k of each coarse scan is run k's window from its filter start
        # to the travel-time bound, from column 0.
        cols = 0
        for k, ((first, _), (a, b)) in enumerate(zip(runs, burst_windows(scenario, fs, runs))):
            a, b = max(0, a), min(n, b, first + lag + 1)
            start = max(0, a - prefix)
            for ch, rows in zip(coarse, coarse_rows):
                np.testing.assert_allclose(rows[k, a - start:b - start], full[ch, a:b],
                                           rtol=0, atol=1e-13 * scale)
            cols = max(cols, b - start)
        assert [rows.shape for rows in coarse_rows] == [(len(runs), cols)] * 4

    def test_coarse_crossing_outside_the_windows_is_dropped(self):
        # Loud noise on a coarse channel crosses the cutoff in the full-length
        # filter twice: inside the filter prefix just before the first burst
        # window, and far from any burst. The front end keeps neither, and
        # both pings localize as before.
        quick = load_scenario(CONFIGS / "scenario_quick.json")
        scenario = dataclasses.replace(quick, record_duration=2 * quick.pinger.repetition_interval)
        recording = render_scene(scenario)
        ref, coarse = scenario.array.precise_channels[0], scenario.array.coarse_channels[0]
        expected, _ = full_length_onsets(scenario, recording)
        (a, _), _ = burst_windows(scenario, FS, reference_runs(scenario, FS, expected[ref]))
        glitches = [(a - 1_100, a - 700), (15_000, 15_400)]
        channels = recording.channels.copy()
        rng = np.random.default_rng(7)
        for lo, hi in glitches:
            channels[coarse, lo:hi] += rng.normal(0.0, 0.5, hi - lo).astype(np.float32)
        glitched = MultiChannelRecording(sample_rate=FS, channels=channels)
        front, _ = self.check_rows(scenario, glitched)
        noisy, _ = full_length_onsets(scenario, glitched)
        found = np.array(front.onsets[coarse])
        for lo, hi in glitches:
            assert ((noisy[coarse] >= lo) & (noisy[coarse] < hi + 500)).any()
            assert not ((found >= lo) & (found < hi + 500)).any()
        reports = [[r.to_json_dict() for r in run_localization(scenario, rec)]
                   for rec in (recording, glitched)]
        assert len(reports[0]) == 2 and reports[1] == reports[0]

    def test_channel_silent_over_a_window_reads_zero(self):
        # Precise channel 2 zeroed over samples 25,000-50,000, which hold the
        # second of four bursts with its whole burst window and filter
        # prefix. Each window is filtered from zero state, so the row is
        # exactly 0.0 over that window, not what the window before it left
        # in the filter.
        quick = load_scenario(CONFIGS / "scenario_quick.json")
        scenario = dataclasses.replace(quick, record_duration=0.2)
        ch = scenario.array.precise_channels[2]
        channels = render_scene(scenario).channels.copy()
        channels[ch, 25_000:50_000] = 0.0
        front = front_end(MultiChannelRecording(sample_rate=FS, channels=channels), scenario)
        a, b = burst_windows(scenario, FS, front.runs)[1]
        assert 25_000 <= a - coarse_margins(scenario, FS)[2] and b <= 50_000
        d = front.offsets[1]
        assert not front.windows[1, 1, a - d:b - d].any()

    def test_huge_coarse_sample_loses_no_later_ping(self):
        # One sample of 1e9 on coarse channel 5, 50 samples after ping 2's
        # onset, crosses there and nowhere else: each burst window is
        # scanned with a running sum of its own, so the later windows of
        # that channel do not carry it. All 8 pings report, and only ping
        # 2's onset on that channel moves, to the sample.
        quick = load_scenario(CONFIGS / "scenario_quick.json")
        scenario = dataclasses.replace(quick, record_duration=0.4)
        recording = render_scene(scenario)
        front = front_end(recording, scenario)
        assert len(front.runs) == 8 and scenario.array.coarse_channels[1] == 5
        channels = recording.channels.copy()
        spike = front.runs[2][0] + 50
        channels[5, spike] = 1e9
        spiked = MultiChannelRecording(sample_rate=FS, channels=channels)
        moved = front_end(spiked, scenario).onsets
        assert moved[5][2] == spike
        moved[5][2] = front.onsets[5][2]
        assert moved == front.onsets
        reports = list(run_localization(scenario, recording=spiked))
        assert [r.ping_index for r in reports] == list(range(8))
        assert all(r.error is None for r in reports)

    def test_late_coarse_crossing_found_by_a_second_pass(self, three_pings, dsp_calls):
        # Coarse channel 5, the hydrophone farthest from the pinger, at 5% of
        # its level crosses about 400 samples after the reference onset:
        # past the travel-time bound, where the first pass stops. A second
        # filter call and one more scan, of that channel's windows only,
        # find it where the window's own full-width scan does, and every
        # ping localizes as at full level.
        scenario, recording = three_pings
        channels = recording.channels.copy()
        channels[5] *= np.float32(0.05)
        quiet = MultiChannelRecording(sample_rate=FS, channels=channels)
        dsp_calls.clear()
        front = front_end(quiet, scenario)
        assert dsp_calls == ["scan_reference", "filter_signal", "filter_signal",
                             *["detect_ping"] * 4, "filter_signal", "detect_ping"]
        lag = coarse_margins(scenario, FS)[0] - int(round(dsp.RMS_WINDOW * FS))
        assert len(front.runs) == 3
        assert all(onset > first + lag for onset, (first, _) in zip(front.onsets[5], front.runs))
        assert front.onsets == window_onsets(scenario, quiet, front.runs, front.cutoff)
        reports = [list(run_localization(scenario, recording=rec)) for rec in (recording, quiet)]
        assert all(r.error is None for r in reports[1]) and len(reports[1]) == 3
        assert [r.azimuth for r in reports[1]] == pytest.approx([r.azimuth for r in reports[0]],
                                                                abs=0.05)

    @given(gains=st.lists(st.one_of(st.just(0.0), st.floats(-3.0, 1.0).map(lambda u: 10.0 ** u)),
                          min_size=8, max_size=8),
           labels=st.permutations(range(8)))
    @settings(max_examples=30, deadline=None)
    def test_onsets_equal_each_windows_own_scan(self, three_pings, gains, labels):
        # Each hydrophone's channel scaled on its own, from silent to 10
        # times its level, and the channels relabelled: every coarse onset,
        # whichever pass finds it, is its burst window's own scan's.
        scenario, recording = three_pings
        array = HydrophoneArray(precise=scenario.array.precise, coarse=scenario.array.coarse,
                                labels=tuple(labels))
        scenario = dataclasses.replace(scenario, array=array)
        channels = np.empty_like(recording.channels)
        channels[list(labels)] = recording.channels * np.array(gains, dtype=np.float32)[:, None]
        scaled = MultiChannelRecording(sample_rate=FS, channels=channels)
        front = front_end(scaled, scenario)
        assert front.onsets == window_onsets(scenario, scaled, front.runs, front.cutoff)

    def test_noiseless_render(self, std_scenario, std_recording):
        front, pings = self.check_searches(std_scenario, std_recording)
        assert pings == 1
        # The search reads a few ms past the onset of a 50 ms recording.
        assert precise_end(front) < std_recording.samples_per_channel

    def test_search_past_the_end(self):
        scenario = load_scenario(CONFIGS / "scenario_quick.json")
        recording = render_scene(scenario)
        front, _ = self.check_rows(scenario, recording)
        onset = front.runs[0][0]
        cut = MultiChannelRecording(sample_rate=FS,
                                    channels=recording.channels[:, :onset + 1_500].copy())
        front, pings = self.check_searches(scenario, cut)
        assert pings == 1
        assert len(front.reference) == precise_end(front) == onset + 1_500

    def test_channel_resuming_past_the_search(self, std_scenario, std_recording):
        # A channel that is silent at the end of the last burst window and
        # resumes later, precise or coarse, is filtered only in its burst
        # window: the front end's precise rows end with that window.
        array = std_scenario.array
        for resumed in (array.precise_channels[2], array.coarse_channels[1]):
            channels = std_recording.channels.copy()
            channels[resumed, -1_000:] = channels[resumed, 3_000:4_000]
            front, _ = self.check_rows(
                std_scenario, MultiChannelRecording(sample_rate=FS, channels=channels))
            end = burst_windows(std_scenario, FS, front.runs)[-1][1]
            assert end < std_recording.samples_per_channel - 1_000
            assert precise_end(front) == end

    def test_silent_recording(self, std_scenario, tmp_path, capsys):
        silent = MultiChannelRecording(sample_rate=FS,
                                       channels=np.zeros((8, 30_000), dtype=np.float32))
        front, _ = self.check_rows(std_scenario, silent)
        assert front.windows.size == 0 and precise_end(front) == 0
        assert [len(found) for found in front.onsets.values()] == [0] * 4 and front.runs == ()
        with pytest.raises(NoPingError, match="reference"):
            next(run_localization(std_scenario, recording=silent))
        config, path = tmp_path / "scenario.json", tmp_path / "silent.oogw"
        config.write_text(json.dumps(dataclasses.asdict(std_scenario)))
        write_recording(silent, path)
        assert main(["localize", "--config", str(config), "--recording", str(path)]) == EXIT_NO_PING
        assert "no ping" in capsys.readouterr().err

    def test_permuted_labels(self, std_scenario):
        array = std_scenario.array
        labels = tuple(reversed(array.labels))
        scenario = dataclasses.replace(
            load_scenario(CONFIGS / "scenario_quick.json"),
            array=HydrophoneArray(precise=array.precise, coarse=array.coarse, labels=labels))
        front, pings = self.check_searches(scenario, render_scene(scenario))
        assert pings == 1
        assert precise_end(front) < scenario.record_duration * FS

    @pytest.mark.parametrize("labels", [tuple(range(8)), tuple(reversed(range(8)))],
                             ids=["default-labels", "reversed-labels"])
    @pytest.mark.parametrize("margin", [0.5e-3, 20e-3], ids=["at-the-end", "before-the-end"])
    def test_coarse_onsets_within_the_bound(self, labels, margin):
        self.check_wide_coarse_quad(labels, margin, coarse_first=False)

    @pytest.mark.parametrize("labels", [tuple(range(8)), tuple(reversed(range(8)))],
                             ids=["default-labels", "reversed-labels"])
    def test_coarse_hydrophone_hears_first(self, labels):
        self.check_wide_coarse_quad(labels, 0.5e-3, coarse_first=True)

    def check_wide_coarse_quad(self, labels, margin, coarse_first):
        # The quick scenario's coarse quad scaled 50 times puts its farthest
        # hydrophone about 20 m, over 13 ms, from the reference: further than
        # a search span from any reference crossing. The pinger sits 10 m out
        # on the line through the reference and that hydrophone: past the
        # reference, so that hydrophone hears every ping last, by that whole
        # distance, or past the hydrophone, so it hears every ping first and
        # crosses long before the reference does. Three pings; the recording
        # ends ``margin`` after the last one's burst has passed the
        # hydrophone farthest from the pinger.
        quick = load_scenario(CONFIGS / "scenario_quick.json")
        coarse = tuple(Vec3.from_array(50.0 * p.as_array()) for p in quick.array.coarse)
        array = HydrophoneArray(precise=quick.array.precise, coarse=coarse, labels=labels)
        ref_pos = array.precise[0].as_array()
        distances = [np.linalg.norm(p.as_array() - ref_pos) for p in coarse]
        farthest = int(np.argmax(distances))
        lead = distances[farthest]
        outward = (ref_pos - coarse[farthest].as_array()) / lead
        source = coarse[farthest].as_array() - 10.0 * outward if coarse_first else (
            ref_pos + 10.0 * outward)
        pinger = dataclasses.replace(quick.pinger, position=Vec3.from_array(source))
        interval = pinger.repetition_interval
        farthest_m = max(np.linalg.norm(source - array.channel_position(ch).as_array())
                         for ch in range(8))
        duration = 2 * interval + farthest_m / quick.sound_speed + pinger.ping_duration + margin
        scenario = dataclasses.replace(quick, array=array, pinger=pinger,
                                       record_duration=duration)
        recording = render_scene(scenario)
        front, _ = self.check_rows(scenario, recording)
        expected, _ = full_length_onsets(scenario, recording)
        tdoas = [tdoa for tdoa, _ in dsp.tdoa_from_filtered(front, array, scenario.sound_speed)]

        lag = int(round(lead / quick.sound_speed * FS))
        assert len(tdoas) == 3
        for ping, tdoa in enumerate(tdoas):
            # Each coarse onset is the channel's first full-length crossing
            # of this repetition.
            cursor = int(round(ping * interval * FS))
            ref_onset = round(tdoa.onset_time_abs * FS)
            assert cursor <= ref_onset < cursor + interval * FS
            arrivals = [round(arrival * FS) for arrival in tdoa.coarse_arrivals]
            for ch, onset in zip(array.coarse_channels, arrivals):
                assert onset == expected[ch][expected[ch] >= cursor][0], (ping, ch)
                assert onset < cursor + interval * FS, (ping, ch)
            # The farthest hydrophone's burst window reaches that far from
            # the reference onset, before it or after it.
            far_onset = arrivals[farthest]
            assert (ref_onset - far_onset if coarse_first else far_onset - ref_onset) > lag * 0.9
        if not coarse_first:
            # Only the distance term of reach takes the last burst window,
            # and with it the precise rows, to the farthest channel's last
            # onset.
            assert far_onset >= front.runs[-1][1] + search_span(FS)
            assert (precise_end(front) < recording.samples_per_channel) == (margin > 1e-3)

    def test_default_scenario_reads_a_prefix(self):
        scenario = load_scenario(CONFIGS / "scenario_default.json")
        recording = render_scene(scenario)
        front, pings = self.check_searches(scenario, recording)
        assert pings == 1
        assert precise_end(front) < recording.samples_per_channel / 50


class TestLocalizePing:
    def test_outcome_of_a_solved_ping(self, std_scenario, std_recording):
        outcome = localize_first(std_scenario, std_recording)
        assert outcome.error is None
        assert outcome.result.converged
        assert outcome.guess.octant.as_string() == "++-"
        assert outcome.tdoa.window[0] in outcome.window_search["candidate_starts"]
        assert set(outcome.timing) == {"tdoa", "guess", "solve"}

    def test_failed_stage_keeps_earlier_stages(self, std_scenario, std_recording,
                                               diverging_solver):
        outcome = localize_first(std_scenario, std_recording)
        assert isinstance(outcome.error, DivergedError)
        assert outcome.tdoa is not None and outcome.guess is not None
        assert outcome.result is None
        assert set(outcome.timing) == {"tdoa", "guess"}

    def test_no_ping_past_the_end(self, std_scenario, std_recording):
        # A run with no room for one analysis window is no ping: the
        # reference scan never makes one, and a record that holds one is
        # refused as input, not failed as a ping.
        n = std_recording.samples_per_channel
        with pytest.raises(ValueError, match=rf"run \({n}, {n}\) leaves no room"):
            localize_first(std_scenario, std_recording, (n, n))

    def test_outcomes_are_solved_as_they_are_consumed(self, std_scenario, std_recording,
                                                      monkeypatch):
        # One search for every run on the first next(); each guess and solve
        # only when its outcome is asked for. The search's time is the first
        # outcome's.
        front = front_end(std_recording, std_scenario)
        [run] = front.runs
        # The record of [run, run, run]: the third has no coarse onsets.
        front = dataclasses.replace(
            front, runs=(run, run, run), windows=front.windows[:, [0, 0, 0]],
            offsets=front.offsets * 3,
            onsets={ch: [onset, onset, -1] for ch, [onset] in front.onsets.items()})
        calls = []
        for module, name in ((dsp, "tdoa_from_filtered"), (solver, "gradient_descent")):
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        outcomes = localize_ping(front, std_scenario)
        assert calls == []
        first = next(outcomes)
        assert calls == ["tdoa_from_filtered", "gradient_descent"]
        second, last = outcomes
        assert calls == ["tdoa_from_filtered"] + ["gradient_descent"] * 2
        assert first.tdoa == second.tdoa and first.window_search == second.window_search
        assert first.timing["tdoa"] > 0.0 and second.timing["tdoa"] == 0.0
        assert isinstance(last.error, NoPingError) and last.timing == {"tdoa": 0.0}
        # A coarse channel's missing onset fails a ping that was searched.
        assert "coarse channel" in str(last.error) and last.tdoa is None
        assert last.window_search == first.window_search
        assert [outcome.ping_index for outcome in (first, second, last)] == [0, 1, 2]


class TestFrontEndTiming:
    def test_fresh_dict_gets_both_keys(self, std_scenario, std_recording):
        # filter_and_scan adds its milliseconds to a dict that
        # scan_reference did not fill, too.
        sos = _front_end_sos(std_scenario, FS)
        array, sound_speed = std_scenario.array, std_scenario.sound_speed
        reference = dsp.scan_reference(std_recording, sos, array, sound_speed)
        timing = {}
        front = dsp.filter_and_scan(std_recording, sos, array, sound_speed, reference, timing)
        assert front.runs and list(timing) == ["filter", "onset"]
        assert min(timing.values()) >= 0.0

    def test_localization_timing_keys_in_order(self, std_scenario, std_recording):
        [outcome] = run_localization(std_scenario, recording=std_recording)
        assert list(outcome.timing) == ["render", "filter", "onset", "tdoa", "guess", "solve"]


class TestSnrCalibration:
    def test_measured_snr_close_to_requested(self, std_scenario, std_recording):
        from pingerloc import add_noise, design_bandpass, filter_signal

        burst_rms = measure_burst_rms(std_recording, std_scenario)
        assert burst_rms > 0.0
        sigma = white_sigma_for_snr(burst_rms, 20.0, 30_000.0, 50_000.0, FS)
        noisy = add_noise(std_recording, NoiseSpec(white_sigma=sigma, interferer_amp=0.0,
                                                   lowfreq_amp=0.0), seed=5)
        # in-band noise RMS measured on the pre-burst stretch of a channel
        cascade = design_bandpass(4, 30_000.0, 50_000.0, FS)
        quiet = filter_signal(cascade, noisy.channels[0].astype(float))[2000:3000]
        inband_rms = float(np.sqrt(np.mean(np.square(quiet))))
        snr_db = 20.0 * np.log10(burst_rms / inband_rms)
        assert snr_db == pytest.approx(20.0, abs=1.5)


@pytest.fixture(scope="module")
def small_run():
    config = MonteCarloConfig(ranges=(10.0,), snr_db=(None,), trials=3, seed=11)
    return config, *monte_carlo(config)


class TestMonteCarlo:
    def test_zero_noise_cell_is_perfect(self, small_run):
        _, summary, rows = small_run
        assert summary.trials == 3
        assert summary.success_count == 3
        assert summary.octant_accuracy == 1.0
        assert summary.az_err_p50 <= summary.az_err_p90 <= summary.az_err_max
        assert summary.az_err_max < 0.5

    def test_rows_carry_cell_and_iters(self, small_run):
        _, _, rows = small_run
        assert len(rows) == 3
        for row in rows:
            assert row["range_m"] == 10.0
            assert row["snr_db"] is None
            assert row["converged"]
            assert row["iters"] > 0
            assert row["octant_guess"] == row["octant_true"]
            assert row["failure"] is None

    def test_csv_layout(self, small_run, tmp_path):
        _, summary, rows = small_run
        path = tmp_path / "mc.csv"
        write_monte_carlo_csv(path, summary, rows)
        lines = path.read_text().strip().splitlines()
        assert lines[0].split(",")[:3] == ["trial", "range_m", "snr_db"]
        assert lines[0].split(",")[-2:] == ["iters", "failure"]
        assert len(lines) == 1 + 3 + 1  # header, trials, summary
        # No trial failed, and the summary row leaves the column empty.
        assert all(line.endswith(",") for line in lines[1:])
        assert lines[-1].startswith("summary,")

    def test_deterministic(self):
        config = MonteCarloConfig(ranges=(8.0,), snr_db=(20.0,), trials=2, seed=7)
        s1, r1 = monte_carlo(config)
        s2, r2 = monte_carlo(config)
        assert r1 == r2
        assert s1 == s2

    def test_config_from_dict_validates(self):
        with pytest.raises(ConfigError, match="ranges"):
            monte_carlo_config_from_dict({"snr_db": [None], "trials": 2})
        cfg = monte_carlo_config_from_dict(
            {"ranges": [5, 10], "snr_db": [None, 20], "trials": 4, "seed": 3})
        assert cfg.ranges == (5.0, 10.0)
        assert cfg.snr_db == (None, 20.0)

    def test_trials_must_be_positive(self):
        with pytest.raises(ConfigError):
            MonteCarloConfig(ranges=(10.0,), snr_db=(None,), trials=0)

    @pytest.mark.parametrize("radius, match", [
        (-5.0, "> 0"),
        (0.0, "> 0"),
        # No direction at 1 m clears every octant plane by the 1 m clearance.
        (1.0, "clear"),
        (np.sqrt(3.0), "clear"),
        # Feasible, but the sampler would accept only ~1% of its draws.
        (1.9, "clear"),
        # The ping reaches the array after the 50 ms repetition interval.
        (80.0, "repetition interval"),
        # It arrives in time, but the 4 ms burst ends after the interval.
        (71.0, "repetition interval"),
        # NaN fails every comparison: it used to load, and the placement
        # sampler then never returned.
        (math.nan, "> 0, got nan"),
    ], ids=["negative", "zero", "below-clearance", "at-clearance", "below-twice-clearance",
            "arrives-late", "burst-ends-late", "nan"])
    def test_infeasible_range_rejected(self, radius, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=match):
                MonteCarloConfig(ranges=(10.0, radius), snr_db=(None,), trials=1)

    @pytest.mark.parametrize("key", ["sample_rate", "sound_speed", "carrier_freq",
                                     "ping_duration", "repetition_interval", "clearance"])
    def test_removed_scene_key_rejected(self, key):
        # Trials render the default scenario; an eval config is the grid only.
        doc = {"ranges": [10.0], "snr_db": [None], "trials": 1, key: 1.0}
        with pytest.raises(ConfigError, match=rf"^eval\.{key}: unknown field$"):
            monte_carlo_config_from_dict(doc)

    def test_scene_constants_are_not_fields(self):
        config = MonteCarloConfig(ranges=(10.0,), snr_db=(None,), trials=1)
        assert [f.name for f in dataclasses.fields(config)] == [
            "ranges", "snr_db", "trials", "seed", "success_threshold_deg"]
        assert (config.repetition_interval, config.clearance) == (0.05, 1.0)
        assert MonteCarloConfig.success_threshold_deg == 5.0

    def test_trial_scenario_is_quick_scenario_at_the_pinger(self):
        # The harness tests the scene the localizer is checked on: the quick
        # scenario, its pinger moved and its noise off.
        position = Vec3(-3.0, 4.0, 12.0)
        quick = load_scenario(CONFIGS / "scenario_quick.json")
        expected = dataclasses.replace(
            quick, pinger=dataclasses.replace(quick.pinger, position=position),
            noise=NoiseSpec.silent())
        assert _trial_scenario(position) == expected

    @pytest.mark.parametrize("field, value", [
        ("success_threshold_deg", 0.0), ("success_threshold_deg", -1.0),
        ("success_threshold_deg", math.nan),
    ])
    def test_non_positive_clearance_or_threshold_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be > 0"):
            MonteCarloConfig(ranges=(10.0,), snr_db=(None,), trials=1, **{field: value})

    def test_solver_failure_keeps_octant_guess(self, diverging_solver):
        config = MonteCarloConfig(ranges=(10.0,), snr_db=(None,), trials=2, seed=11)
        summary, rows = monte_carlo(config)
        for row in rows:
            assert row["octant_guess"] == row["octant_true"]
            assert row["converged"] is False
            assert row["az_err_deg"] == FAILED_TRIAL_AZ_ERROR
            assert row["iters"] == 0
            assert row["est_az_deg"] is None and row["objective"] is None
            assert row["failure"] == "DivergedError"
        assert summary.success_count == 0
        assert summary.octant_accuracy == 1.0


# Two ranges, three trials a cell: every 10 dB trial's reference channel
# hears no ping, every 20 dB trial's does.
NOISY_GRID = MonteCarloConfig(ranges=(5.0, 30.0), snr_db=(None, 20.0, 10.0), trials=3, seed=1)


def eight_channel_trial(clean, scenario, trial, radius, snr_db, noise_seed):
    """A trial as the whole recording's noise (none for snr_db None), then
    the front end and the chain: the flow that drew every channel before
    scanning any, and scanned the reference inside the front end."""
    recording = clean
    if snr_db is not None:
        fe = scenario.front_end
        sigma = white_sigma_for_snr(measure_burst_rms(clean, scenario), snr_db,
                                    fe.analog_band_low, fe.analog_band_high, clean.sample_rate)
        recording = simulator.add_noise(clean, NoiseSpec(white_sigma=sigma, interferer_amp=0.0,
                                                         lowfreq_amp=0.0), noise_seed)
    return next(localize_ping(front_end(recording, scenario), scenario))


@pytest.fixture()
def dsp_calls(monkeypatch):
    """The names of the dsp.scan_reference, dsp.filter_signal and
    dsp.detect_ping calls, in order; the render binds its own filter_signal
    and is not counted, and the reference step, which filters and scans the
    reference channel itself, counts as one call."""
    calls = []
    for name in ("scan_reference", "filter_signal", "detect_ping"):
        def counted(*args, _fn=getattr(dsp, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(dsp, name, counted)
    return calls


class TestNoisyTrial:
    def test_rows_equal_eight_channel_noise_flow(self, monkeypatch):
        summary, rows = monte_carlo(NOISY_GRID)
        monkeypatch.setattr(pipeline, "_localize_trial", eight_channel_trial)
        assert monte_carlo(NOISY_GRID) == (summary, rows)
        failed = [row for row in rows if row["snr_db"] == 10.0]
        assert len(failed) == 6
        assert all(row["octant_guess"] == "" and row["iters"] == 0 for row in failed)
        assert all(row["failure"] == "NoPingError" for row in failed)
        assert all(row["iters"] > 0 and row["failure"] is None
                   for row in rows if row["snr_db"] == 20.0)

    def test_other_channels_drawn_only_after_a_reference_ping(self, monkeypatch):
        noisy_rows = []
        add_noise = simulator.add_noise

        def spy(recording, noise, seed):
            if not noise.is_silent():
                noisy_rows.append(recording.channel_count)
            return add_noise(recording, noise, seed)

        monkeypatch.setattr(simulator, "add_noise", spy)
        outcomes = {None: [], 20.0: [1, 7], 10.0: [1]}
        cells = itertools.product(NOISY_GRID.ranges, NOISY_GRID.snr_db)
        for (cell_index, (radius, snr_db)), trial in itertools.product(
                enumerate(cells), range(NOISY_GRID.trials)):
            noisy_rows.clear()
            _run_trial(NOISY_GRID, cell_index, trial, radius, snr_db)
            assert noisy_rows == outcomes[snr_db], (radius, snr_db, trial)

    def test_reference_without_ping_is_one_filter_call_and_one_scan(self, dsp_calls):
        # The reference step alone, which filters and scans the reference
        # channel once, through neither public name.
        row = _run_trial(NOISY_GRID, 2, 0, 5.0, 10.0)
        assert dsp_calls == ["scan_reference"]
        assert row["az_err_deg"] == FAILED_TRIAL_AZ_ERROR and row["octant_guess"] == ""

    @pytest.mark.parametrize("cell_index, snr_db", [(0, None), (1, 20.0)],
                             ids=["noiseless", "20-dB"])
    def test_reference_is_filtered_and_scanned_once(self, dsp_calls, cell_index, snr_db):
        # The reference step (the reference channel filtered and scanned
        # once), then the burst windows of the other three precise channels
        # in one filter call, and the coarse channels' windows up to the
        # travel-time bound in another, each coarse channel's rows scanned
        # once: every onset is found by the bound. The reference row the
        # trial scanned is reused, noisy or not.
        row = _run_trial(NOISY_GRID, cell_index, 0, 5.0, snr_db)
        assert dsp_calls == ["scan_reference", "filter_signal", "filter_signal",
                             *["detect_ping"] * 4]
        assert row["iters"] > 0
