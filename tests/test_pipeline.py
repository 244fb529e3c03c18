import dataclasses
import gc
import json
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
    scenario_to_dict,
    true_azimuth_elevation,
    write_monte_carlo_csv,
    write_recording,
)
from pingerloc.cli import EXIT_NO_PING, main
from pingerloc.pipeline import (
    FAILED_TRIAL_AZ_ERROR,
    _filter_and_scan,
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
        assert abs(report.elevation - true_el) < 0.1
        # and within the coarser origin-referenced figure
        assert abs((report.azimuth - 26.565 + 180) % 360 - 180) < 0.5
        assert report.octant_guess == "++-"
        assert report.objective >= 0.0
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
        delays_us = report.diagnostics["pair_delays_us"].values()
        assert len(delays_us) == 6
        assert all(abs(d) <= max_delay_us for d in delays_us)

    def test_one_report_per_repetition_in_order(self):
        scenario = fast_scenario(Vec3(10.0, 5.0, -2.0), record_duration=0.125,
                                 repetition_interval=0.05)
        reports = list(run_localization(scenario))
        assert [r.ping_index for r in reports] == [0, 1, 2]
        starts = [r.window[0] for r in reports]
        assert all(b > a for a, b in zip(starts, starts[1:]))
        azimuths = [r.azimuth for r in reports]
        assert max(azimuths) - min(azimuths) < 0.1
        # Render, filter and onset detection run once per recording and are
        # charged once, to the first report; every report keeps the same keys.
        first, *rest = [r.timing for r in reports]
        assert first["render"] > 0.0 and first["filter"] > 0.0 and first["onset"] > 0.0
        for timing in rest:
            assert set(timing) == set(first)
            assert timing["render"] == timing["filter"] == timing["onset"] == 0.0
            assert min(timing["tdoa"], timing["guess"], timing["solve"]) > 0.0

    def test_onsets_detected_once_per_recording(self, monkeypatch):
        # 16 repetitions of the quick scenario: one scan of each of the five
        # onset channels serves every ping.
        quick = load_scenario(CONFIGS / "scenario_quick.json")
        interval = quick.pinger.repetition_interval
        scenario = dataclasses.replace(quick, record_duration=16 * interval)
        calls = []
        detect_ping = dsp.detect_ping

        def counted(samples, *args, **kwargs):
            calls.append(np.size(samples))
            return detect_ping(samples, *args, **kwargs)

        monkeypatch.setattr(dsp, "detect_ping", counted)
        reports = list(run_localization(scenario))
        assert [r.ping_index for r in reports] == list(range(16))
        assert calls == [int(round(16 * interval * scenario.sample_rate))] * 5

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
        diagnostics = report.diagnostics
        assert len(diagnostics["pair_delays_us"]) == 6
        assert len(diagnostics["variance_scores"]) == len(diagnostics["candidate_starts"])
        chosen = diagnostics["candidate_starts"][diagnostics["chosen_candidate"]]
        assert chosen == report.window[0]
        assert "diagnostics" not in report.to_json_dict(include_timing=True)

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

    def test_solver_failure_is_raised(self, std_scenario, std_recording, diverging_solver):
        with pytest.raises(DivergedError):
            next(run_localization(std_scenario, recording=std_recording))

    def test_invalid_array_is_config_error(self, std_scenario):
        from pingerloc import HydrophoneArray, Scenario
        bad_coarse = (Vec3(0.3, 0.2, 0.1), Vec3(0.2, -0.2, 0.1),
                      Vec3(0.3, 0.2, -0.1), Vec3(0.2, -0.2, -0.1))
        with pytest.raises(ConfigError, match="validation"):
            Scenario(array=HydrophoneArray(precise=std_scenario.array.precise,
                                           coarse=bad_coarse),
                     pinger=std_scenario.pinger, sample_rate=FS,
                     record_duration=0.05, noise=NoiseSpec.silent(), seed=0)


def localize_first(scenario, recording, start_sample=0):
    filtered, onsets = _filter_and_scan(recording, scenario)
    return localize_ping(filtered, FS, scenario, onsets, start_sample)


class TestFilterAndScan:
    """The front end filters the precise channels other than the reference
    only as far as the window search reads them; every row it returns must
    be the full-length filter's, byte for byte."""

    def check_rows(self, scenario, recording):
        """Compare the front end's rows and onsets with the full filter's;
        return (rows, onsets, full filter)."""
        fe = scenario.front_end
        sos = design_bandpass(fe.analog_order, fe.analog_band_low, fe.analog_band_high, FS)
        full = filter_signal(sos, recording.channels)
        timing = {}
        rows, onsets = _filter_and_scan(recording, scenario, timing)
        array = scenario.array
        assert sorted(rows) == list(range(8)) and set(timing) == {"filter", "onset"}
        for ch, row in rows.items():
            assert row.tobytes() == full[ch, :len(row)].tobytes(), ch
        for ch in (array.precise_channels[0], *array.coarse_channels):
            assert len(rows[ch]) == recording.samples_per_channel
        expected = dsp.channel_onsets(full, FS, array)
        assert onsets.keys() == expected.keys()
        assert all(np.array_equal(onsets[ch], expected[ch]) for ch in onsets)
        return rows, onsets, full

    def check_searches(self, scenario, recording):
        """Every ping's window search reads the same from the front end's
        rows as from the full-length filter; return (rows, ping count)."""
        rows, onsets, full = self.check_rows(scenario, recording)
        pings = 0
        for report in run_localization(scenario, recording=recording):
            # Each ping's search starts at its onset, the first candidate.
            onset = report.diagnostics["candidate_starts"][0]
            search = []
            for filtered in (rows, full):
                diagnostics = {}
                tdoa = dsp.tdoa_from_filtered(filtered, FS, scenario.array,
                                              scenario.sound_speed, onsets, onset, diagnostics)
                search.append((tdoa, diagnostics))
            assert search[0] == search[1]
            pings += 1
        return rows, pings

    def test_sixteen_noisy_repetitions(self):
        quick = load_scenario(CONFIGS / "scenario_quick.json")
        scenario = dataclasses.replace(quick, record_duration=16 * quick.pinger.repetition_interval)
        rows, pings = self.check_searches(scenario, render_scene(scenario))
        assert pings == 16

    def test_noiseless_render(self, std_scenario, std_recording):
        rows, pings = self.check_searches(std_scenario, std_recording)
        assert pings == 1
        # The search reads a few ms past the onset of a 50 ms recording.
        assert len(rows[std_scenario.array.precise_channels[1]]) < std_recording.samples_per_channel

    def test_search_past_the_end(self):
        scenario = load_scenario(CONFIGS / "scenario_quick.json")
        recording = render_scene(scenario)
        _, onsets, _ = self.check_rows(scenario, recording)
        onset = int(onsets[scenario.array.precise_channels[0]][0])
        cut = MultiChannelRecording(sample_rate=FS,
                                    channels=recording.channels[:, :onset + 1_500].copy())
        rows, pings = self.check_searches(scenario, cut)
        assert pings == 1
        assert all(len(row) == onset + 1_500 for row in rows.values())

    def test_channel_resuming_past_the_search(self, std_scenario, std_recording):
        # A precise channel that is silent at the bound and resumes later is
        # filtered to the end, as the full-length filter runs through the gap.
        channels = std_recording.channels.copy()
        resumed = std_scenario.array.precise_channels[2]
        channels[resumed, -1_000:] = channels[resumed, 3_000:4_000]
        rows, _, _ = self.check_rows(std_scenario,
                                     MultiChannelRecording(sample_rate=FS, channels=channels))
        assert len(rows[resumed]) == std_recording.samples_per_channel

    def test_silent_recording(self, std_scenario, tmp_path, capsys):
        silent = MultiChannelRecording(sample_rate=FS,
                                       channels=np.zeros((8, 30_000), dtype=np.float32))
        rows, _, _ = self.check_rows(std_scenario, silent)
        assert [len(rows[ch]) for ch in std_scenario.array.precise_channels[1:]] == [0, 0, 0]
        with pytest.raises(NoPingError, match="reference"):
            next(run_localization(std_scenario, recording=silent))
        config, path = tmp_path / "scenario.json", tmp_path / "silent.oogw"
        config.write_text(json.dumps(scenario_to_dict(std_scenario)))
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

    def test_default_scenario_reads_a_prefix(self):
        scenario = load_scenario(CONFIGS / "scenario_default.json")
        recording = render_scene(scenario)
        rows, pings = self.check_searches(scenario, recording)
        assert pings == 1
        n = recording.samples_per_channel
        assert all(len(rows[ch]) < n / 50 for ch in scenario.array.precise_channels[1:])


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
        outcome = localize_first(std_scenario, std_recording, std_recording.samples_per_channel)
        assert isinstance(outcome.error, NoPingError)
        assert outcome.tdoa is None and outcome.guess is None and outcome.window_search == {}


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

    def test_csv_layout(self, small_run, tmp_path):
        _, summary, rows = small_run
        path = tmp_path / "mc.csv"
        write_monte_carlo_csv(path, summary, rows)
        lines = path.read_text().strip().splitlines()
        assert lines[0].split(",")[:3] == ["trial", "range_m", "snr_db"]
        assert len(lines) == 1 + 3 + 1  # header, trials, summary
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

    @pytest.mark.parametrize("radius, sound_speed, match", [
        (-5.0, 1480.0, "> 0"),
        (0.0, 1480.0, "> 0"),
        # No direction at 1 m clears every octant plane by the default 1 m.
        (1.0, 1480.0, "clear"),
        (np.sqrt(3.0), 1480.0, "clear"),
        # Feasible, but the sampler would accept only ~1% of its draws.
        (1.9, 1480.0, "clear"),
        # The ping reaches the array after the 50 ms repetition interval.
        (80.0, 1480.0, "repetition interval"),
        # It arrives in time, but the 4 ms burst ends after the interval.
        (71.0, 1480.0, "repetition interval"),
        (10.0, 0.0, "sound_speed must be > 0"),
        (10.0, -1480.0, "sound_speed must be > 0"),
    ], ids=["negative", "zero", "below-clearance", "at-clearance", "below-twice-clearance",
            "arrives-late", "burst-ends-late", "sound-speed-zero", "sound-speed-negative"])
    def test_infeasible_range_rejected(self, radius, sound_speed, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=match):
                MonteCarloConfig(ranges=(10.0, radius), snr_db=(None,), trials=1,
                                 sound_speed=sound_speed)

    @pytest.mark.parametrize("extra, match", [
        ({"sample_rate": 60_000.0}, "Nyquist for carrier"),
        ({"sample_rate": 0.0}, "Nyquist for carrier"),
        ({"ping_duration": 0.0}, "ping_duration must satisfy"),
        ({"ping_duration": 0.06}, "ping_duration must satisfy"),
        # The 50 kHz front-end band edge sits at Nyquist.
        ({"carrier_freq": 45_000.0, "sample_rate": 100_000.0}, "band edge"),
    ], ids=["below-nyquist", "zero-rate", "zero-duration", "longer-than-interval",
            "band-edge-at-nyquist"])
    def test_unrenderable_trial_scenario_rejected(self, extra, match):
        doc = {"ranges": [10.0], "snr_db": [None], "trials": 1, **extra}
        with pytest.raises(ConfigError, match=match):
            monte_carlo_config_from_dict(doc)

    @pytest.mark.parametrize("field, value", [
        ("clearance", 0.0), ("clearance", -1.0),
        ("success_threshold_deg", 0.0), ("success_threshold_deg", -1.0),
    ])
    def test_non_positive_clearance_or_threshold_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be > 0"):
            MonteCarloConfig(ranges=(10.0,), snr_db=(None,), trials=1, **{field: value})

    def test_feasibility_follows_clearance_and_interval(self):
        MonteCarloConfig(ranges=(1.0,), snr_db=(None,), trials=1, clearance=0.5)
        MonteCarloConfig(ranges=(80.0,), snr_db=(None,), trials=1, repetition_interval=0.1)

    def test_solver_failure_keeps_octant_guess(self, diverging_solver):
        config = MonteCarloConfig(ranges=(10.0,), snr_db=(None,), trials=2, seed=11)
        summary, rows = monte_carlo(config)
        for row in rows:
            assert row["octant_guess"] == row["octant_true"]
            assert row["converged"] is False
            assert row["az_err_deg"] == FAILED_TRIAL_AZ_ERROR
            assert row["iters"] == 0
            assert row["est_az_deg"] is None and row["objective"] is None
        assert summary.success_count == 0
        assert summary.octant_accuracy == 1.0
