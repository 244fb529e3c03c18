import dataclasses
import gc
import itertools
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

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
    _filter_and_scan,
    _run_trial,
    _trial_scenario,
    localize_ping,
    measure_burst_rms,
    monte_carlo_config_from_dict,
    white_sigma_for_snr,
)
from conftest import FS, fast_scenario

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
        # 16 repetitions of the quick scenario: one full-length scan of the
        # reference channel and one scan of each coarse channel, over its 16
        # burst windows and their prefixes laid end to end, serve every ping.
        quick = load_scenario(CONFIGS / "scenario_quick.json")
        interval = quick.pinger.repetition_interval
        scenario = dataclasses.replace(quick, record_duration=16 * interval)
        calls = []
        detect_ping = dsp.detect_ping

        def counted(samples, *args, **kwargs):
            result = detect_ping(samples, *args, **kwargs)
            calls.append((np.size(samples), result))
            return result

        monkeypatch.setattr(dsp, "detect_ping", counted)
        reports = list(run_localization(scenario))
        assert [r.ping_index for r in reports] == list(range(16))
        n = int(round(16 * interval * scenario.sample_rate))
        (ref_size, (crossings, cutoff)), *coarse = calls
        windows = burst_windows(scenario, FS, reference_runs(scenario, FS, crossings))
        prefix = coarse_margins(scenario, FS)[2]
        assert ref_size == n and len(windows) == 16 and 0 < windows[0][0] - prefix
        assert windows[-1][1] < n
        width = sum(b - a + prefix for a, b in windows)
        assert [size for size, _ in coarse] == [width] * 4 and width < n / 3
        assert all(coarse_cutoff == cutoff for _, (_, coarse_cutoff) in coarse)

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


def localize_first(scenario, recording, run=None):
    """The outcome of ``run``, the recording's first run by default."""
    filtered, onsets, runs = _filter_and_scan(recording, scenario)
    return next(localize_ping(filtered, FS, scenario, onsets, [run or runs[0]]))


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
    reference crossings [first, last] covers [first - before, last + reach)."""
    before, reach, _ = coarse_margins(scenario, fs)
    return [(first - before, last + reach) for first, last in runs]


def first_inside(samples, windows):
    """Per window [a, b), the first of ``samples`` in it, or -1."""
    return [int(next(iter(samples[(samples >= a) & (samples < b)]), -1)) for a, b in windows]


class TestFilterAndScan:
    """The front end filters the three precise channels other than the
    reference only as far as the window search reads them, and the coarse
    channels only in burst windows around the reference crossings. Every row
    it returns must be the full-length filter's, byte for byte, and each
    run's coarse onset the first full-length crossing in its burst window."""

    def check_rows(self, scenario, recording):
        """Compare the front end's rows, onsets and runs with the full
        filter's; return (rows, onsets, runs, full filter)."""
        timing = {}
        rows, onsets, runs = _filter_and_scan(recording, scenario, timing)
        expected, full = full_length_onsets(scenario, recording)
        array = scenario.array
        ref = array.precise_channels[0]
        assert list(rows) == list(array.precise_channels) and set(timing) == {"filter", "onset"}
        for ch, row in rows.items():
            assert row.tobytes() == full[ch, :len(row)].tobytes(), ch
        assert len(rows[ref]) == recording.samples_per_channel
        assert list(onsets) == list(array.coarse_channels)
        assert runs == reference_runs(scenario, recording.sample_rate, expected[ref])
        windows = burst_windows(scenario, recording.sample_rate, runs)
        for ch in array.coarse_channels:
            assert onsets[ch] == first_inside(expected[ch], windows), ch
        return rows, onsets, runs, full

    def check_searches(self, scenario, recording):
        """Every ping's window search reads the same from the front end's
        rows as from the full-length filter; return (rows, ping count)."""
        rows, onsets, runs, full = self.check_rows(scenario, recording)
        # Each ping's search starts at its onset, its run's first crossing.
        starts = [report.window_search["candidate_starts"][0]
                  for report in run_localization(scenario, recording=recording)]
        assert starts == [first for first, _ in runs]
        search = []
        for filtered in (rows, full):
            diagnostics = []
            tdoas = dsp.tdoa_from_filtered(filtered, recording.sample_rate, scenario.array,
                                           scenario.sound_speed, onsets, runs, diagnostics)
            search.append((tdoas, diagnostics))
        assert search[0] == search[1]
        assert all(isinstance(tdoa, dsp.TdoaSet) for tdoa in search[0][0])
        return rows, len(runs)

    def test_sixteen_noisy_repetitions(self):
        quick = load_scenario(CONFIGS / "scenario_quick.json")
        scenario = dataclasses.replace(quick, record_duration=16 * quick.pinger.repetition_interval)
        rows, pings = self.check_searches(scenario, render_scene(scenario))
        assert pings == 16

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
        front_end = dataclasses.replace(quick.front_end, **change.get("front_end", {}))
        fs = change.get("sample_rate", FS)
        scenario = dataclasses.replace(quick, front_end=front_end, sample_rate=fs,
                                       record_duration=4 * quick.pinger.repetition_interval)
        assert coarse_margins(scenario, fs)[2] != coarse_margins(quick, FS)[2]
        recording = render_scene(scenario)
        rows, pings = self.check_searches(scenario, recording)
        assert pings == 4

        scanned = []
        detect_ping = dsp.detect_ping

        def keep_rows(samples, *args):
            scanned.append(np.asarray(samples))
            return detect_ping(samples, *args)

        with monkeypatch.context() as patch:
            patch.setattr(dsp, "detect_ping", keep_rows)
            _filter_and_scan(recording, scenario)
        _, *coarse_rows = scanned
        expected, full = full_length_onsets(scenario, recording)
        coarse = scenario.array.coarse_channels
        scale = np.abs(full[list(coarse)]).max()
        n, prefix = recording.samples_per_channel, coarse_margins(scenario, fs)[2]
        column = 0
        runs = reference_runs(scenario, fs, expected[scenario.array.precise_channels[0]])
        for a, b in burst_windows(scenario, fs, runs):
            a, b = max(0, a), min(n, b)
            column += a - max(0, a - prefix)
            for ch, row in zip(coarse, coarse_rows):
                np.testing.assert_allclose(row[column:column + b - a], full[ch, a:b],
                                           rtol=0, atol=1e-13 * scale)
            column += b - a
        assert [len(row) for row in coarse_rows] == [column] * 4

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
        _, onsets, _, _ = self.check_rows(scenario, glitched)
        noisy, _ = full_length_onsets(scenario, glitched)
        found = np.array(onsets[coarse])
        for lo, hi in glitches:
            assert ((noisy[coarse] >= lo) & (noisy[coarse] < hi + 500)).any()
            assert not ((found >= lo) & (found < hi + 500)).any()
        reports = [[r.to_json_dict() for r in run_localization(scenario, rec)]
                   for rec in (recording, glitched)]
        assert len(reports[0]) == 2 and reports[1] == reports[0]

    def test_noiseless_render(self, std_scenario, std_recording):
        rows, pings = self.check_searches(std_scenario, std_recording)
        assert pings == 1
        # The search reads a few ms past the onset of a 50 ms recording.
        assert len(rows[std_scenario.array.precise_channels[1]]) < std_recording.samples_per_channel

    def test_search_past_the_end(self):
        scenario = load_scenario(CONFIGS / "scenario_quick.json")
        recording = render_scene(scenario)
        _, _, runs, _ = self.check_rows(scenario, recording)
        onset = runs[0][0]
        cut = MultiChannelRecording(sample_rate=FS,
                                    channels=recording.channels[:, :onset + 1_500].copy())
        rows, pings = self.check_searches(scenario, cut)
        assert pings == 1
        assert all(len(row) == onset + 1_500 for row in rows.values())

    def test_channel_resuming_past_the_search(self, std_scenario, std_recording):
        # A precise channel that is silent at the bound and resumes later is
        # filtered to the end, as the full-length filter runs through the
        # gap. A coarse one is filtered only in its burst window.
        array = std_scenario.array
        for resumed in (array.precise_channels[2], array.coarse_channels[1]):
            channels = std_recording.channels.copy()
            channels[resumed, -1_000:] = channels[resumed, 3_000:4_000]
            rows, _, _, _ = self.check_rows(
                std_scenario, MultiChannelRecording(sample_rate=FS, channels=channels))
            assert (len(rows[array.precise_channels[2]]) == std_recording.samples_per_channel) == (
                resumed == array.precise_channels[2])

    def test_silent_recording(self, std_scenario, tmp_path, capsys):
        silent = MultiChannelRecording(sample_rate=FS,
                                       channels=np.zeros((8, 30_000), dtype=np.float32))
        rows, onsets, runs, _ = self.check_rows(std_scenario, silent)
        ref = std_scenario.array.precise_channels[0]
        assert [len(row) for ch, row in rows.items() if ch != ref] == [0] * 3
        assert [len(found) for found in onsets.values()] == [0] * 4 and runs == []
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
        rows, pings = self.check_searches(scenario, render_scene(scenario))
        assert pings == 1
        assert len(rows[labels[1]]) < scenario.record_duration * FS

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
        rows, onsets, runs, _ = self.check_rows(scenario, recording)
        expected, _ = full_length_onsets(scenario, recording)
        tdoas = dsp.tdoa_from_filtered(rows, FS, array, scenario.sound_speed, onsets, runs)

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
            # Only the distance term of the bound reaches the farthest
            # channel's last onset.
            assert far_onset >= runs[-1][1] + search_span(FS)
            assert (len(rows[array.precise_channels[1]]) < recording.samples_per_channel) == (
                margin > 1e-3)

    def test_default_scenario_reads_a_prefix(self):
        scenario = load_scenario(CONFIGS / "scenario_default.json")
        recording = render_scene(scenario)
        rows, pings = self.check_searches(scenario, recording)
        assert pings == 1
        n = recording.samples_per_channel
        ref = scenario.array.precise_channels[0]
        assert all(len(row) < n / 50 for ch, row in rows.items() if ch != ref)


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
        n = std_recording.samples_per_channel
        outcome = localize_first(std_scenario, std_recording, (n, n))
        assert isinstance(outcome.error, NoPingError)
        assert outcome.tdoa is None and outcome.guess is None and outcome.window_search == {}
        # The search's milliseconds are charged even to a ping it failed.
        assert set(outcome.timing) == {"tdoa"}

    def test_outcomes_are_solved_as_they_are_consumed(self, std_scenario, std_recording,
                                                      monkeypatch):
        # One search for every run on the first next(); each guess and solve
        # only when its outcome is asked for. The search's time is the first
        # outcome's.
        filtered, onsets, [run] = _filter_and_scan(std_recording, std_scenario)
        # The onsets of [run, run, (n, n)]: the third run has none.
        onsets = {ch: [onset, onset, -1] for ch, [onset] in onsets.items()}
        calls = []
        for module, name in ((dsp, "tdoa_from_filtered"), (solver, "gradient_descent")):
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        n = std_recording.samples_per_channel
        outcomes = localize_ping(filtered, FS, std_scenario, onsets, [run, run, (n, n)])
        assert calls == []
        first = next(outcomes)
        assert calls == ["tdoa_from_filtered", "gradient_descent"]
        second, last = outcomes
        assert calls == ["tdoa_from_filtered"] + ["gradient_descent"] * 2
        assert first.tdoa == second.tdoa and first.window_search == second.window_search
        assert first.timing["tdoa"] > 0.0 and second.timing["tdoa"] == 0.0
        assert isinstance(last.error, NoPingError) and last.timing == {"tdoa": 0.0}
        assert [outcome.ping_index for outcome in (first, second, last)] == [0, 1, 2]


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
    filtered, onsets, runs = _filter_and_scan(recording, scenario)
    return next(localize_ping(filtered, recording.sample_rate, scenario, onsets, runs[:1]))


@pytest.fixture()
def dsp_calls(monkeypatch):
    """The names of the dsp.filter_signal and dsp.detect_ping calls, in
    order; the render binds its own filter_signal and is not counted."""
    calls = []
    for name in ("filter_signal", "detect_ping"):
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
        outcomes = {None: [], 20.0: [1, 8], 10.0: [1]}
        cells = itertools.product(NOISY_GRID.ranges, NOISY_GRID.snr_db)
        for (cell_index, (radius, snr_db)), trial in itertools.product(
                enumerate(cells), range(NOISY_GRID.trials)):
            noisy_rows.clear()
            _run_trial(NOISY_GRID, cell_index, trial, radius, snr_db)
            assert noisy_rows == outcomes[snr_db], (radius, snr_db, trial)

    def test_reference_without_ping_is_one_filter_call_and_one_scan(self, dsp_calls):
        row = _run_trial(NOISY_GRID, 2, 0, 5.0, 10.0)
        assert dsp_calls == ["filter_signal", "detect_ping"]
        assert row["az_err_deg"] == FAILED_TRIAL_AZ_ERROR and row["octant_guess"] == ""

    @pytest.mark.parametrize("cell_index, snr_db", [(0, None), (1, 20.0)],
                             ids=["noiseless", "20-dB"])
    def test_reference_is_filtered_and_scanned_once(self, dsp_calls, cell_index, snr_db):
        # The reference step (one filter call, one scan), then the other
        # precise channels in one filter call and the coarse burst windows
        # in one more, each coarse row scanned once. The reference row the
        # trial scanned is reused, noisy or not.
        row = _run_trial(NOISY_GRID, cell_index, 0, 5.0, snr_db)
        assert dsp_calls == ["filter_signal", "detect_ping", "filter_signal", "filter_signal",
                             *["detect_ping"] * 4]
        assert row["iters"] > 0
