import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import pingerloc
from pingerloc import read_recording
from pingerloc import dsp, pipeline, recording, scene, simulator, solver
from pingerloc.cli import (EXIT_CONFIG, EXIT_NO_PING, EXIT_NOT_CONVERGED, EXIT_OK,
                           EXIT_PING_FAILED, main)
from conftest import fast_scenario
from pingerloc import MultiChannelRecording, Vec3, write_recording

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# The published sha256 values below hold for these versions only.
PUBLISHED_VERSIONS = pytest.mark.skipif(
    not (np.__version__.startswith("2.4.") and scipy.__version__.startswith("1.17.")),
    reason=f"the published sha256 values hold for numpy 2.4 and scipy 1.17, "
           f"not numpy {np.__version__} and scipy {scipy.__version__}")


@pytest.fixture()
def scenario_path(tmp_path):
    scenario = fast_scenario(Vec3(10.0, 5.0, -2.0))
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(dataclasses.asdict(scenario)))
    return path


def test_simulate_writes_readable_recording(scenario_path, tmp_path):
    out = tmp_path / "rec.oogw"
    assert main(["simulate", "--config", str(scenario_path), "--out", str(out)]) == EXIT_OK
    rec = read_recording(out)
    assert rec.channel_count == 8
    assert rec.sample_rate == 500_000.0


def test_localize_stream_and_determinism(scenario_path, tmp_path):
    out1, out2 = tmp_path / "r1.ndjson", tmp_path / "r2.ndjson"
    assert main(["localize", "--config", str(scenario_path), "--out", str(out1)]) == EXIT_OK
    assert main(["localize", "--config", str(scenario_path), "--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["converged"] is True
    assert 0.0 <= doc["azimuth"] < 360.0
    assert "timing" not in doc


def test_localize_from_recording_matches_render(scenario_path, tmp_path):
    rec_path = tmp_path / "rec.oogw"
    main(["simulate", "--config", str(scenario_path), "--out", str(rec_path)])
    from_render = tmp_path / "a.ndjson"
    from_file = tmp_path / "b.ndjson"
    main(["localize", "--config", str(scenario_path), "--out", str(from_render)])
    main(["localize", "--config", str(scenario_path), "--recording", str(rec_path),
          "--out", str(from_file)])
    assert from_render.read_bytes() == from_file.read_bytes()


def test_localize_timing_flag_adds_key(scenario_path, tmp_path, capsys):
    assert main(["localize", "--config", str(scenario_path), "--timing"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[0])
    assert "timing" in doc


def test_localize_debug_window(scenario_path, capsys):
    assert main(["localize", "--config", str(scenario_path), "--debug-window"]) == EXIT_OK
    err = capsys.readouterr().err
    assert "variance_scores" in err


@pytest.fixture()
def four_ping_path(tmp_path):
    """configs/scenario_quick.json recorded for 0.2 s: four pings."""
    doc = json.loads((CONFIGS / "scenario_quick.json").read_text())
    path = tmp_path / "four_pings.json"
    path.write_text(json.dumps({**doc, "record_duration": 0.2}))
    return path


@pytest.fixture(scope="module")
def four_ping_render():
    """configs/scenario_quick.json recorded for 0.2 s (four pings), and its
    channels."""
    scenario = quick_scenario(0.2)
    return scenario, simulator.render_scene(scenario).channels


def test_localize_timing_charges_each_recording_cost_once(four_ping_path, capsys):
    # One window search serves every ping: like the render, filter and
    # onset time, its milliseconds go to the first report only.
    assert main(["localize", "--config", str(four_ping_path), "--timing"]) == EXIT_OK
    first, *rest = [json.loads(line)["timing"] for line in capsys.readouterr().out.splitlines()]
    assert len(rest) == 3 and min(first.values()) > 0.0
    for timing in rest:
        assert timing["render"] == timing["filter"] == timing["onset"] == timing["tdoa"] == 0.0
        assert min(timing["guess"], timing["solve"]) > 0.0


# localize --debug-window on four_ping_path: its report stream and its
# window-search diagnostics.
FOUR_PING_SHA256 = {
    "stdout": "b358e08941e9e4626ead87d71687458fc1a7f1d2d5fa282285af94fa7f6923c4",
    "stderr": "900c9b180fcb47507cc4811bab6706e3e35bdc3d78521e125530a2326b01220b",
}


@PUBLISHED_VERSIONS
def test_four_ping_stream_matches_published_sha256(four_ping_path, capsys):
    assert main(["localize", "--config", str(four_ping_path), "--debug-window"]) == EXIT_OK
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == len(err.splitlines()) == 4
    assert {"stdout": hashlib.sha256(out.encode()).hexdigest(),
            "stderr": hashlib.sha256(err.encode()).hexdigest()} == FOUR_PING_SHA256


def test_debug_window_keys_pair_delays_by_channel_label(four_ping_render, tmp_path, capsys):
    # The same hydrophones heard through reversed channel labels: the same
    # window search and delays, keyed by the labels of each precise-quad pair.
    scenario, channels = four_ping_render
    labels = tuple(reversed(range(8)))
    relabelled = dataclasses.replace(
        scenario, array=dataclasses.replace(scenario.array, labels=labels))
    lines = []
    for scene_, rows in ((scenario, channels), (relabelled, channels[list(labels)])):
        config, path = tmp_path / "scenario.json", tmp_path / "recording.oogw"
        config.write_text(json.dumps(dataclasses.asdict(scene_)))
        write_recording(MultiChannelRecording(sample_rate=scenario.sample_rate, channels=rows),
                        path)
        assert main(["localize", "--config", str(config), "--recording", str(path),
                     "--debug-window"]) == EXIT_OK
        lines.append([json.loads(line) for line in capsys.readouterr().err.splitlines()])
    keys = [f"{labels[i]}-{labels[j]}" for i, j in dsp.PAIRS]
    assert len(lines[1]) == 4
    for base, moved in zip(*lines):
        delays = base.pop("pair_delays_us")
        assert list(delays) == [f"{i}-{j}" for i, j in dsp.PAIRS]
        assert moved.pop("pair_delays_us") == dict(zip(keys, delays.values()))
        assert moved == base


def test_missing_pinger_field_is_config_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"sound_speed": 1480.0}))
    assert main(["localize", "--config", str(path)]) == EXIT_CONFIG
    assert "pinger" in capsys.readouterr().err


@pytest.mark.parametrize("command, doc, field", [
    ("localize", {"pinger": {"position": {"x": 10.0, "y": 5.0, "z": -2.0}}, "noise": 5},
     "scenario.noise"),
    ("montecarlo", {"ranges": [10.0], "snr_db": [None], "trials": 1, "clearence": 3},
     "eval.clearence"),
], ids=["scenario-noise-number", "eval-unknown-key"])
def test_malformed_config_is_config_error(tmp_path, capsys, command, doc, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}: ")


@pytest.mark.parametrize("command", ["simulate", "localize", "montecarlo"])
def test_carrier_failing_validation_is_config_error(scenario_path, tmp_path, capsys, command):
    # At 100 kHz the 15 mm precise-quad spacing exceeds half a wavelength. An
    # eval config cannot set a carrier at all: every trial renders the default.
    if command == "montecarlo":
        doc = {"ranges": [10.0], "snr_db": [None], "trials": 1, "carrier_freq": 100_000.0}
        error = "config error: eval.carrier_freq: unknown field\n"
    else:
        doc = json.loads(scenario_path.read_text())
        doc["pinger"]["frequency"] = 100_000.0
        error = "config error: array fails validation: "
    path = tmp_path / "carrier.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    args = [command, "--config", str(path)] + ([] if command == "localize" else ["--out", str(out)])
    assert main(args) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(error)
    assert not out.exists()


def test_ping_failure_exit_code(scenario_path, capsys, diverging_solver):
    # The failed ping writes a failure record in place of its report.
    assert main(["localize", "--config", str(scenario_path)]) == EXIT_PING_FAILED
    captured = capsys.readouterr()
    assert [json.loads(line) for line in captured.out.splitlines()] == [
        {"ping_index": 0, "error": "DivergedError", "message": "diverged: forced"}]
    assert captured.err == "error: DivergedError: diverged: forced\n"


def test_ping_failure_keeps_earlier_reports(tmp_path, monkeypatch):
    scenario = fast_scenario(Vec3(10.0, 5.0, -2.0), record_duration=0.1,
                             repetition_interval=0.05)
    path = tmp_path / "two_pings.json"
    path.write_text(json.dumps(dataclasses.asdict(scenario)))
    real = solver.gradient_descent
    calls = []

    def second_diverges(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise solver.DivergedError("diverged: forced")
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "gradient_descent", second_diverges)
    out = tmp_path / "reports.ndjson"
    assert main(["localize", "--config", str(path), "--out", str(out)]) == EXIT_PING_FAILED
    first, second = [json.loads(line) for line in out.read_text().splitlines()]
    assert first["ping_index"] == 0 and first["converged"] is True
    assert second == {"ping_index": 1, "error": "DivergedError", "message": "diverged: forced"}


def test_failed_first_ping_carries_the_recording_costs(four_ping_path, capsys,
                                                       diverging_solver):
    # Every ping fails: the first failure record carries the render, filter,
    # onset and search time, and later records carry 0.0.
    assert main(["localize", "--config", str(four_ping_path), "--timing"]) == EXIT_PING_FAILED
    first, *rest = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert first["error"] == "DivergedError" and len(rest) == 3
    assert min(first["timing"][key] for key in ("render", "filter", "onset", "tdoa")) > 0.0
    for record in rest:
        assert record["error"] == "DivergedError"
        timing = record["timing"]
        assert timing["render"] == timing["filter"] == timing["onset"] == timing["tdoa"] == 0.0


def test_no_ping_exit_code(scenario_path, tmp_path, capsys):
    # a silent recording, and an empty one
    for n in (25_000, 0):
        silent = MultiChannelRecording(sample_rate=500_000.0,
                                       channels=np.zeros((8, n), dtype=np.float32))
        rec_path = tmp_path / f"silent{n}.oogw"
        write_recording(silent, rec_path)
        code = main(["localize", "--config", str(scenario_path),
                     "--recording", str(rec_path)])
        assert code == EXIT_NO_PING
        # Not a ping's failure: no line is written.
        assert capsys.readouterr() == ("", "error: no ping detected on reference channel 0\n")


def test_burst_cut_off_by_the_end_is_no_ping(tmp_path, capsys):
    # The quick scene recorded for 58.5 ms: its second burst's reference
    # onset leaves no room for one 2 ms analysis window before the end. The
    # reference scan drops that run, so the record holds one run, and one
    # report is written.
    scenario = quick_scenario(0.0585)
    recording = simulator.render_scene(scenario)
    array, fs = scenario.array, recording.sample_rate
    sos = pipeline._front_end_sos(scenario, fs)
    row, cutoff, runs = dsp.scan_reference(recording, sos, array, scenario.sound_speed)
    front = dsp.filter_and_scan(recording, sos, array, scenario.sound_speed, (row, cutoff, runs))
    [(first, last)] = front.runs
    gap = sum(dsp._burst_margins(array, scenario.sound_speed, fs))
    cut_off = dsp.detect_ping(row, fs)[0][-1]
    assert cut_off >= last + gap and front.windows.shape[1] == 1

    config = tmp_path / "short.json"
    config.write_text(json.dumps(dataclasses.asdict(scenario)))
    assert main(["localize", "--config", str(config)]) == EXIT_OK
    out, err = capsys.readouterr()
    assert [json.loads(line)["ping_index"] for line in out.splitlines()] == [0] and err == ""


def test_lone_burst_cut_off_by_the_end_is_no_ping(tmp_path, capsys):
    # A pinger 71.5 m out is heard 48.3 ms into the quick scene's 50 ms:
    # its only burst has no room for one analysis window, so the recording
    # holds no ping.
    doc = json.loads((CONFIGS / "scenario_quick.json").read_text())
    doc["pinger"]["position"] = {"x": 71.5, "y": 0.0, "z": 0.0}
    config = tmp_path / "far.json"
    config.write_text(json.dumps(doc))
    assert main(["localize", "--config", str(config)]) == EXIT_NO_PING
    assert capsys.readouterr() == ("", "error: no ping detected on reference channel 0\n")


def test_noise_cutoff_at_nyquist_is_config_error(tmp_path, capsys):
    # Low-passed noise needs a cutoff above 0 and below Nyquist (250 kHz).
    doc = json.loads((CONFIGS / "scenario_quick.json").read_text())
    doc["noise"]["lowfreq_cutoff"] = 250_000.0
    config = tmp_path / "cutoff.json"
    config.write_text(json.dumps(doc))
    assert main(["validate", "--config", str(config)]) == EXIT_CONFIG
    assert capsys.readouterr() == ("", "config error: noise.lowfreq_cutoff 250000.0 Hz must be "
                                       "above 0 and below Nyquist 250000.0 Hz\n")


def quick_scenario(duration, interval=None):
    """configs/scenario_quick.json recorded for ``duration`` s, its pinger
    repeating every ``interval`` s (the config's 50 ms by default)."""
    quick = scene.load_scenario(CONFIGS / "scenario_quick.json")
    pinger = dataclasses.replace(quick.pinger,
                                 repetition_interval=interval or quick.pinger.repetition_interval)
    return dataclasses.replace(quick, pinger=pinger, record_duration=duration)


def localize_recording(tmp_path, capsys, scenario, channels, *flags):
    """``localize --recording`` on ``channels`` under ``scenario``, with
    ``flags``: (exit code, reports, stderr)."""
    config, path = tmp_path / "scenario.json", tmp_path / "recording.oogw"
    config.write_text(json.dumps(dataclasses.asdict(scenario)))
    write_recording(MultiChannelRecording(sample_rate=scenario.sample_rate, channels=channels),
                    path)
    code = main(["localize", "--config", str(config), "--recording", str(path), *flags])
    out, err = capsys.readouterr()
    return code, [json.loads(line) for line in out.splitlines()], err


@pytest.mark.parametrize("rendered, claimed, pings", [(0.045, 0.05, 9), (0.05, 0.06, 8)],
                         ids=["45-ms-claimed-50", "50-ms-claimed-60"])
def test_pings_come_from_the_recording_not_the_claimed_interval(tmp_path, capsys, rendered,
                                                                claimed, pings):
    # The pinger repeats every ``rendered`` s over 0.4 s, but the scenario
    # claims ``claimed``. Each burst is one run of reference crossings, so
    # every burst is reported, each window within its own burst.
    recording = simulator.render_scene(quick_scenario(0.4, rendered))
    code, reports, err = localize_recording(tmp_path, capsys, quick_scenario(0.4, claimed),
                                            recording.channels)
    assert (code, err) == (EXIT_OK, "")
    assert [report["ping_index"] for report in reports] == list(range(pings))
    offsets = [report["window"][0] - k * rendered * recording.sample_rate
               for k, report in enumerate(reports)]
    assert 0 < min(offsets) and max(offsets) - min(offsets) < 1_000
    assert {report["octant_guess"] for report in reports} == {"++-"}


def test_coarse_channel_silent_over_a_burst_is_no_ping(tmp_path, capsys):
    # A coarse channel zeroed over the second of four bursts. Each ping
    # reads its coarse onsets in its own burst window, never the next
    # burst's: ping 1 is a NoPingError record, and the others are reported.
    scenario = quick_scenario(0.2)
    coarse = scenario.array.coarse_channels[0]
    channels = simulator.render_scene(scenario).channels.copy()
    channels[coarse, 25_000:40_000] = 0.0
    code, reports, err = localize_recording(tmp_path, capsys, scenario, channels)
    message = f"no ping detected on coarse channel {coarse}"
    assert code == EXIT_PING_FAILED and [report["ping_index"] for report in reports] == [0, 1, 2, 3]
    assert reports[1] == {"ping_index": 1, "error": "NoPingError", "message": message}
    assert all(reports[k]["octant_guess"] == "++-" for k in (0, 2, 3))
    assert err == f"error: NoPingError: {message}\n"


def test_coarse_crossing_later_than_the_travel_time_is_no_onset(tmp_path, capsys):
    # Coarse channel 4 is silent from ping 1's burst window start to 3,000
    # samples past its reference onset, and then holds a burst slice of its
    # own. That crossing comes later than the search span and than the last
    # reference crossing plus the travel time from the reference, so it is
    # not ping 1's onset: ping 1 is a NoPingError record.
    scenario = quick_scenario(0.2)
    array, fs = scenario.array, scenario.sample_rate
    recording = simulator.render_scene(scenario)
    fe = scenario.front_end
    sos = dsp.design_bandpass(fe.analog_order, fe.analog_band_low, fe.analog_band_high, fs)
    _, cutoff, runs = dsp.scan_reference(recording, sos, array, scenario.sound_speed)
    (head, _), (first, last), *_ = runs
    before, reach = dsp._burst_margins(array, scenario.sound_speed, fs)
    coarse = array.coarse_channels[0]
    channels = recording.channels.copy()
    channels[coarse, first - before:first + 3_000] = 0.0
    channels[coarse, first + 3_000:first + 4_500] = channels[coarse, head:head + 1_500]
    full = dsp.filter_signal(sos, channels[coarse])
    found = dsp.detect_ping(full, fs, cutoff)[0]
    onset = found[found >= first - before][0]
    lag = before - dsp._rms_window(fs)
    assert max(first + reach, last + lag) <= onset < last + reach
    code, reports, err = localize_recording(tmp_path, capsys, scenario, channels)
    message = f"no ping detected on coarse channel {coarse}"
    assert code == EXIT_PING_FAILED and [report["ping_index"] for report in reports] == [0, 1, 2, 3]
    assert reports[1] == {"ping_index": 1, "error": "NoPingError", "message": message}
    assert all(reports[k]["octant_guess"] == "++-" for k in (0, 2, 3))


@pytest.mark.parametrize("silent, unusable", [((25_000, 50_000), [1]), ((0, 50_000), [0, 1])],
                         ids=["second-burst", "first-two-bursts"])
def test_debug_window_is_strict_json(four_ping_render, tmp_path, capsys, silent, unusable):
    # Precise channel 2 zeroed over ``silent``. Candidate windows with a
    # sub-window without energy score inf, which every candidate of the
    # ``unusable`` pings does: each burst window is filtered from zero state,
    # so a channel silent over it reads exactly 0.0 there. Every
    # --debug-window line is still RFC 8259 JSON, with null for such a score.
    scenario, channels = four_ping_render
    channels = channels.copy()
    channels[scenario.array.precise_channels[2], slice(*silent)] = 0.0
    _, reports, err = localize_recording(tmp_path, capsys, scenario, channels,
                                         "--debug-window")

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    lines = [json.loads(line, parse_constant=refuse)
             for line in err.splitlines() if not line.startswith("error: ")]
    assert [line["ping_index"] for line in lines] == [report["ping_index"] for report in reports]
    assert [k for k, line in enumerate(lines) if None in line["variance_scores"]] == unusable
    assert all(lines[k]["variance_scores"] == [None] * 8 for k in unusable)
    assert reports[1]["error"] == "UnstableWindowError"


def test_failed_ping_does_not_end_the_stream(tmp_path, capsys):
    # Eight pings over 0.4 s. Precise channel 1's samples 51,000-66,000 are
    # overwritten by its own samples 7,500-22,500, so ping 2's burst does not
    # line up across the precise channels and its window is unstable. It
    # writes one failure record, and pings 3-7 are reported after it.
    scenario = quick_scenario(0.4)
    channels = simulator.render_scene(scenario).channels.copy()
    ch = scenario.array.precise_channels[1]
    channels[ch, 51_000:66_000] = channels[ch, 7_500:22_500]
    code, reports, err = localize_recording(tmp_path, capsys, scenario, channels)
    assert code == EXIT_PING_FAILED
    assert [report["ping_index"] for report in reports] == list(range(8))
    failed = reports.pop(2)
    assert set(failed) == {"ping_index", "error", "message"}
    assert failed["error"] == "UnstableWindowError"
    assert all(report["converged"] and report["octant_guess"] == "++-" for report in reports)
    assert err == f"error: UnstableWindowError: {failed['message']}\n"


@pytest.mark.parametrize("offset", [0.3, 1.0, 5.0])
def test_dc_offset_keeps_every_ping(tmp_path, capsys, offset):
    # A constant on every channel is a step into the zero-state bandpass at
    # sample 0, and its ringing crosses the cutoff in the first samples. The
    # reference crossings before the filter has settled are dropped, so the
    # four pings are reported in the same windows as without the offset.
    scenario = quick_scenario(0.2)
    channels = simulator.render_scene(scenario).channels
    clean = localize_recording(tmp_path, capsys, scenario, channels)
    code, reports, err = localize_recording(tmp_path, capsys, scenario,
                                            channels + np.float32(offset))
    assert (code, err) == (EXIT_OK, "") and len(reports) == 4
    assert [report["window"] for report in reports] == [report["window"] for report in clean[1]]


@pytest.mark.parametrize("command, flag, name", [
    ("localize", "--recording", "rec.oogw"),
    ("localize", "--out", "reports.ndjson"),
    ("simulate", "--out", "rec.oogw"),
    ("montecarlo", "--out", "mc.csv"),
], ids=["localize-missing-recording", "localize-out", "simulate-out", "montecarlo-out"])
def test_file_error_exits_1_without_traceback(scenario_path, tmp_path, capsys, monkeypatch,
                                              command, flag, name):
    config = scenario_path
    if command == "montecarlo":
        config = tmp_path / "eval.json"
        config.write_text(json.dumps({"ranges": [10.0], "snr_db": [None], "trials": 1}))

    # An unwritable --out fails before anything is rendered or run.
    def must_not_run(*args):
        raise AssertionError(f"{command} ran before {flag} was checked")

    monkeypatch.setattr(pipeline, "monte_carlo", must_not_run)
    monkeypatch.setattr(simulator, "render_scene", must_not_run)
    missing = tmp_path / "no_such_dir" / name
    assert main([command, "--config", str(config), flag, str(missing)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("rate", [4_294_967_296.0, 500_000.5], ids=["above-u32", "fractional"])
def test_simulate_unwritable_sample_rate_exits_1_before_rendering(tmp_path, capsys, monkeypatch,
                                                                  rate):
    # The file header stores the rate as a u32 count of Hz: a rate past 2^32 - 1
    # or a fractional one is refused before the render, and no file is left.
    doc = json.loads(QUICK_CONFIG.read_text())
    doc.update(sample_rate=rate, record_duration=5e-4)
    doc["pinger"].update(repetition_interval=5e-4, ping_duration=2e-4,
                         position={"x": 0.0, "y": 0.0, "z": 0.0})
    path = tmp_path / "rate.json"
    path.write_text(json.dumps(doc))

    def must_not_run(*args):
        raise AssertionError("rendered before the sample rate was checked")

    monkeypatch.setattr(simulator, "render_scene", must_not_run)
    out = tmp_path / "rec.oogw"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and repr(rate) in err
    assert "Traceback" not in err
    assert not out.exists()


ALLOCATION_FAILURE = ("Unable to allocate 12.8 GiB for an array with shape (8, 214748365) "
                      "and data type float64")


@pytest.mark.parametrize("message, shown", [(ALLOCATION_FAILURE, ALLOCATION_FAILURE),
                                            ("", "MemoryError")], ids=["numpy", "bare"])
@pytest.mark.parametrize("command", ["simulate", "localize"])
def test_render_out_of_memory_exits_1(scenario_path, tmp_path, capsys, monkeypatch, command,
                                      message, shown):
    # A recording that does not fit in memory (the quick scenario at
    # 4294967295 Hz asks np.zeros for 12.8 GiB) ends in one error line, not
    # a traceback. The allocation failure is raised, not provoked.
    def out_of_memory(*args):
        raise MemoryError(message)

    monkeypatch.setattr(simulator, "render_scene", out_of_memory)
    out = tmp_path / "rec.oogw"
    args = ["--out", str(out)] if command == "simulate" else []
    assert main([command, "--config", str(scenario_path), *args]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: out of memory: {shown}\n"
    # simulate checks --out by writing an empty recording; it must not stay.
    assert not out.exists()


def test_simulate_failed_write_leaves_no_recording(scenario_path, tmp_path, capsys,
                                                    monkeypatch):
    # The render succeeds and writing its samples fails.
    real = recording.write_recording
    calls = []

    def second_write_fails(rec, path):
        calls.append(rec.samples_per_channel)
        if len(calls) == 2:
            raise OSError(28, "No space left on device")
        real(rec, path)

    monkeypatch.setattr(recording, "write_recording", second_write_fails)
    out = tmp_path / "rec.oogw"
    assert main(["simulate", "--config", str(scenario_path), "--out", str(out)]) == EXIT_CONFIG
    assert calls[0] == 0 and calls[1] > 0
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("where", [("pinger", "position"), ("array", "coarse", 1)],
                         ids=["pinger", "coarse-hydrophone"])
def test_huge_coordinate_is_config_error_without_warning(tmp_path, capsys, where):
    # Distances at 1e200 m stay finite: no overflow warning, one error line.
    doc = json.loads(QUICK_CONFIG.read_text())
    point = doc
    for key in where:
        point = point[key]
    point["x"] = 1e200
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: pinger out of recording window: ")
    assert len(captured.err.splitlines()) == 1


def test_validate_ok_and_violations(scenario_path, tmp_path, capsys):
    assert main(["validate", "--config", str(scenario_path)]) == EXIT_OK
    assert "array ok" in capsys.readouterr().out

    # A bad array is a config error at load, as under every other command.
    doc = json.loads(scenario_path.read_text())
    for point in doc["array"]["coarse"]:
        point["x"] = abs(point["x"]) + 0.1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", "--config", str(bad)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: array fails validation: ")
    assert "does not span x-axis" in captured.err


@pytest.mark.parametrize("command", ["validate", "localize"])
def test_narrow_coarse_axis_is_config_error(scenario_path, tmp_path, capsys, command):
    # A coarse quad straddling x by 0.4 mm each side has the right signs but
    # too little spread for the octant guess to order arrivals: refused at
    # load, before any ping is searched.
    doc = json.loads(scenario_path.read_text())
    for point in doc["array"]["coarse"]:
        point["x"] = math.copysign(0.0004, point["x"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main([command, "--config", str(bad)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: array fails validation: ")
    assert "coarse quad spans x-axis by 8.000e-04 m" in captured.err


@pytest.mark.parametrize("position", [{"x": 100.0, "y": 0.0, "z": 0.0},
                                      {"x": 0.3, "y": 0.2, "z": 0.15}],
                         ids=["out-of-window", "on-hydrophone"])
def test_unhearable_pinger_is_config_error(scenario_path, position, tmp_path, capsys):
    doc = json.loads(scenario_path.read_text())
    doc["pinger"]["position"] = position
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", "--config", str(bad)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "array ok" not in captured.out
    assert captured.err.startswith("config error: pinger ")
    assert "Traceback" not in captured.err


def test_montecarlo_csv_and_summary(tmp_path, capsys):
    cfg = tmp_path / "eval.json"
    cfg.write_text(json.dumps({"ranges": [10.0], "snr_db": [None], "trials": 2, "seed": 5}))
    out = tmp_path / "mc.csv"
    assert main(["montecarlo", "--config", str(cfg), "--out", str(out), "--json"]) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["trials"] == 2
    assert summary["success_fraction"] == 1.0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + 2 + 1


def test_montecarlo_overflowing_snr_is_config_error(tmp_path, capsys):
    # 10^(7000/20) overflows a float: the noise sigma of a -7000 dB trial
    # cannot be computed, so the config is refused at load.
    cfg = tmp_path / "eval.json"
    cfg.write_text(json.dumps({"ranges": [5.0], "snr_db": [-7000.0], "trials": 1}))
    assert main(["montecarlo", "--config", str(cfg)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: snr_db -7000.0 dB")
    assert len(captured.err.splitlines()) == 1
    assert "Traceback" not in captured.err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_montecarlo_float32_overflowing_noise_exits_1(tmp_path, capsys):
    # At -800 dB the noise sigma is a finite float whose samples overflow
    # float32: the cast to the recording gives inf without a warning, the
    # recording refuses it, and the one error line names the trial.
    cfg = tmp_path / "eval.json"
    cfg.write_text(json.dumps({"ranges": [5.0], "snr_db": [-800.0], "trials": 1}))
    assert main(["montecarlo", "--config", str(cfg)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: trial 0 at 5 m and -800 dB SNR: "
                            "recording contains non-finite samples\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_montecarlo_noise_overflowing_an_undrawn_channel_fails_the_trial(tmp_path, capsys,
                                                                          monkeypatch):
    # At -743.5 dB, trial 0 at 5 m draws reference-channel noise that float32
    # holds, and no ping stands out of it. The other channels' noise, never
    # drawn, would overflow: the trial is a failed row, not exit 1.
    drawn = []
    add_noise = simulator.add_noise

    def spy(recording, noise, seed):
        if not noise.is_silent():
            drawn.append((recording.channels.shape, noise, seed))
        return add_noise(recording, noise, seed)

    monkeypatch.setattr(simulator, "add_noise", spy)
    cfg = tmp_path / "eval.json"
    cfg.write_text(json.dumps({"ranges": [5.0], "snr_db": [-743.5], "trials": 1}))
    out = tmp_path / "mc.csv"
    assert main(["montecarlo", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    row = dict(zip(pipeline.MC_CSV_COLUMNS, out.read_text().splitlines()[1].split(",")))
    assert (row["az_err_deg"], row["octant_guess"], row["converged"], row["failure"]) == (
        "180", "", "false", "NoPingError")

    [((rows, n), noise, seed)] = drawn
    assert rows == 1
    with pytest.raises(ValueError, match="non-finite"):
        add_noise(MultiChannelRecording(sample_rate=500_000.0,
                                        channels=np.zeros((8, n), np.float32)), noise, seed)


def test_montecarlo_failed_grid_leaves_no_csv(tmp_path, capsys):
    # montecarlo checks --out by creating it before the grid runs; a grid
    # that fails must not leave that empty CSV behind.
    cfg = tmp_path / "eval.json"
    cfg.write_text(json.dumps({"ranges": [5.0], "snr_db": [-800.0], "trials": 1}))
    out = tmp_path / "neg.csv"
    assert main(["montecarlo", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert not out.exists()


def test_montecarlo_determinism(tmp_path):
    cfg = tmp_path / "eval.json"
    cfg.write_text(json.dumps({"ranges": [8.0], "snr_db": [15.0], "trials": 2, "seed": 9}))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["montecarlo", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
    assert main(["montecarlo", "--config", str(cfg), "--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


# The eval_small outputs the README publishes, on the numpy and scipy it names.
EVAL_SMALL_SHA256 = {
    "csv": "a4a5e1ba46c0ab572fea887dc07fb0e79bf6e58e93a9de49cce457a11621c667",
    "json": "e862dc2d63209502b531298188742b86b8d67441ff185d45a64db43764f02e7f",
}


@PUBLISHED_VERSIONS
def test_eval_small_outputs_match_published_sha256(tmp_path, capsys):
    config = CONFIGS / "eval_small.json"
    out = tmp_path / "mc.csv"
    assert main(["montecarlo", "--config", str(config), "--out", str(out), "--json"]) == EXIT_OK
    summary = capsys.readouterr().out
    assert {"csv": hashlib.sha256(out.read_bytes()).hexdigest(),
            "json": hashlib.sha256(summary.encode()).hexdigest()} == EVAL_SMALL_SHA256


# The report stream (stdout) and --debug-window diagnostics (stderr) of
# localize, and the recording simulate writes, for both scenario configs.
SCENARIO_SHA256 = {
    "scenario_quick.json": {
        "stdout": "b3b19cb452309c9d1c589b895e9197e4faa7ad204391a39067aa8d623adfc976",
        "stderr": "d22fa40cd8a45133cd0ec610fabe6451179e8cdb7a7aac00022b01b2630062b7",
        "recording": "83b63852117d1d7e891102dffcc9e7590a444cd5e091eb12cf69a45add256db8",
    },
    "scenario_default.json": {
        "stdout": "eb2e2b838bfaa99b3efc97295e4f78275a0ad3921448a6ded7c656823f464714",
        "stderr": "99e9041468be4033c71626a00f531487e31bfb276ebe43902a94a376ae99e18e",
        "recording": "c1aa11a8a403ff8b1076e3d05f9f05d655f6eb738cc19b01bf290e195690f058",
    },
}


@PUBLISHED_VERSIONS
@pytest.mark.parametrize("name", list(SCENARIO_SHA256))
def test_scenario_outputs_match_published_sha256(tmp_path, capsys, name):
    config = str(CONFIGS / name)
    assert main(["localize", "--config", config, "--debug-window"]) == EXIT_OK
    out, err = capsys.readouterr()
    recording = tmp_path / "recording.oogw"
    assert main(["simulate", "--config", config, "--out", str(recording)]) == EXIT_OK
    assert {"stdout": hashlib.sha256(out.encode()).hexdigest(),
            "stderr": hashlib.sha256(err.encode()).hexdigest(),
            "recording": hashlib.sha256(recording.read_bytes()).hexdigest()
            } == SCENARIO_SHA256[name]


def test_seed_override_changes_output(scenario_path, tmp_path):
    noisy = json.loads(scenario_path.read_text())
    noisy["noise"] = {"white_sigma": 0.02}
    noisy_path = tmp_path / "noisy.json"
    noisy_path.write_text(json.dumps(noisy))
    a, b = tmp_path / "sa.oogw", tmp_path / "sb.oogw"
    main(["simulate", "--config", str(noisy_path), "--out", str(a), "--seed", "1"])
    main(["simulate", "--config", str(noisy_path), "--out", str(b), "--seed", "2"])
    assert a.read_bytes() != b.read_bytes()


def test_negative_seed_override_is_config_error(scenario_path, capsys):
    assert main(["localize", "--config", str(scenario_path), "--seed", "-1"]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


# At 71 m the ping arrives inside the 50 ms repetition interval, but the burst
# does not end inside it.
@pytest.mark.parametrize("extra", [{"ranges": [1.0]}, {"ranges": [80.0]}, {"ranges": [71.0]},
                                   {"ranges": [-5.0]}],
                         ids=["below-clearance", "arrives-late", "burst-ends-late", "negative"])
def test_infeasible_montecarlo_grid_fails_at_load(tmp_path, extra):
    # Run in a child process so that a grid which hangs fails on the timeout
    # instead of stalling the suite.
    cfg = tmp_path / "eval.json"
    cfg.write_text(json.dumps({"ranges": [10.0], "snr_db": [None], "trials": 1, **extra}))
    src = str(Path(pingerloc.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "pingerloc.cli", "montecarlo",
                           "--config", str(cfg), "--out", str(tmp_path / "mc.csv")],
                          capture_output=True, text=True, timeout=20,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == EXIT_CONFIG
    assert "config error" in proc.stderr
    assert not (tmp_path / "mc.csv").exists()


# --- Every run ends in a documented exit code ---------------------------------
#
# Whatever the input, localize returns one of the documented exit codes 0-4
# within a bounded time, never an exception or a traceback.

QUICK_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "scenario_quick.json"
HEADER_SIZE = 28  # magic, version, channel count, sample rate, samples per channel
EXIT_CODES = {EXIT_OK, EXIT_CONFIG, EXIT_NO_PING, EXIT_NOT_CONVERGED, EXIT_PING_FAILED}
PER_EXAMPLE = timedelta(seconds=10)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def quick_recording_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("quick") / "quick.oogw"
    assert main(["simulate", "--config", str(QUICK_CONFIG), "--out", str(path)]) == EXIT_OK
    return path.read_bytes()


def corrupt(data, op, region, offsets, extra):
    """``data`` with bytes flipped at, cut at, or ``extra`` inserted at
    positions inside the header or the payload."""
    start, stop = (0, HEADER_SIZE) if region == "header" else (HEADER_SIZE, len(data))
    at = [start + k % (stop - start) for k, _ in offsets]
    if op == "truncate":
        return data[:at[0]]
    if op == "extend":
        return data[:at[0]] + extra + data[at[0]:]
    flipped = bytearray(data)
    for pos, (_, mask) in zip(at, offsets):
        flipped[pos] ^= mask
    return bytes(flipped)


@given(op=st.sampled_from(["flip", "truncate", "extend"]),
       region=st.sampled_from(["header", "payload"]),
       offsets=st.lists(st.tuples(st.integers(min_value=0, max_value=2**32),
                                  st.integers(min_value=1, max_value=255)),
                        min_size=1, max_size=8),
       extra=st.binary(min_size=1, max_size=64))
@settings(max_examples=40, deadline=PER_EXAMPLE,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_corrupted_recording_ends_in_exit_code(quick_recording_bytes, tmp_path, op, region,
                                               offsets, extra):
    path = tmp_path / "corrupt.oogw"
    path.write_bytes(corrupt(quick_recording_bytes, op, region, offsets, extra))
    code, err = run_cli(["localize", "--config", str(QUICK_CONFIG), "--recording", str(path)])
    assert code in EXIT_CODES
    assert "Traceback" not in err


coordinate = st.floats(min_value=-30.0, max_value=30.0)


@st.composite
def valid_scenarios(draw):
    record_duration = draw(st.floats(min_value=0.02, max_value=0.1))
    doc = {
        "pinger": {
            "position": {"x": draw(coordinate), "y": draw(coordinate), "z": draw(coordinate)},
            "frequency": draw(st.floats(min_value=25_000.0, max_value=45_000.0)),
            "ping_duration": draw(st.floats(min_value=1e-3, max_value=8e-3)),
            "repetition_interval": draw(st.floats(min_value=0.01, max_value=record_duration)),
            "amplitude": draw(st.floats(min_value=1e-3, max_value=10.0)),
        },
        "sound_speed": draw(st.floats(min_value=1400.0, max_value=1550.0)),
        "sample_rate": float(draw(st.integers(min_value=200_000, max_value=1_000_000))),
        "record_duration": record_duration,
        "noise": {"white_sigma": draw(st.floats(min_value=0.0, max_value=0.1)),
                  "interferer_amp": draw(st.floats(min_value=0.0, max_value=0.1)),
                  "lowfreq_amp": draw(st.floats(min_value=0.0, max_value=0.1))},
        "seed": draw(st.integers(min_value=0, max_value=2**32 - 1)),
    }
    try:
        scene.config_from_dict(scene.Scenario, doc, "scenario")
    except scene.ConfigError:
        assume(False)
    return doc


@given(doc=valid_scenarios())
@settings(max_examples=25, deadline=PER_EXAMPLE,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_random_valid_scenario_ends_in_exit_code(tmp_path, doc):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    code, err = run_cli(["localize", "--config", str(path)])
    assert code in EXIT_CODES
    assert "Traceback" not in err


REPORT_KEYS = {"ping_index", "azimuth", "elevation", "range", "octant_guess", "objective",
               "converged", "window"}
FAILURE_KEYS = {"ping_index", "error", "message"}
PING_ERROR_NAMES = {error.__name__ for error in pipeline.PING_ERRORS}
SAMPLES = 100_000  # in 0.2 s at 500 kHz
REPETITION = 25_000  # samples from one ping to the next
# A damaged span, 500 to 20,000 samples long, starts anywhere, or in the
# first 8,000 samples of a repetition, where its burst reaches the array.
anywhere = st.integers(min_value=0, max_value=SAMPLES - 1)
near_a_burst = st.builds(lambda k, offset: REPETITION * k + offset,
                         st.integers(min_value=0, max_value=3),
                         st.integers(min_value=0, max_value=8_000))
damage = st.tuples(st.sampled_from(["zero", "splice"]), st.integers(min_value=0, max_value=7),
                   anywhere | near_a_burst, st.integers(min_value=500, max_value=20_000),
                   anywhere)


@given(damages=st.lists(damage, min_size=1, max_size=3))
@settings(max_examples=20, deadline=PER_EXAMPLE,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_damaged_recording_gives_one_line_per_ping(four_ping_render, tmp_path, damages):
    # Spans zeroed, or overwritten with the same channel's samples from
    # elsewhere: every ping writes one report or one failure record, in
    # order, and the exit code says which.
    scenario, clean = four_ping_render
    channels = clean.copy()
    for op, ch, at, length, source in damages:
        length = min(length, SAMPLES - at, SAMPLES - source)
        channels[ch, at:at + length] = 0.0 if op == "zero" else clean[ch, source:source + length]
    config, path = tmp_path / "scenario.json", tmp_path / "damaged.oogw"
    config.write_text(json.dumps(dataclasses.asdict(scenario)))
    write_recording(MultiChannelRecording(sample_rate=scenario.sample_rate, channels=channels),
                    path)
    runs = []
    for k in range(2):
        out = tmp_path / f"run{k}.ndjson"
        code, err = run_cli(["localize", "--config", str(config), "--recording", str(path),
                             "--out", str(out)])
        runs.append((code, out.read_bytes(), err))
    assert runs[0] == runs[1]

    code, out, err = runs[0]
    assert code in {EXIT_OK, EXIT_NO_PING, EXIT_NOT_CONVERGED, EXIT_PING_FAILED}
    assert "Traceback" not in err
    lines = [json.loads(line) for line in out.splitlines()]
    assert [line["ping_index"] for line in lines] == list(range(len(lines)))
    failures = [line for line in lines if "error" in line]
    assert all(set(line) == FAILURE_KEYS and line["error"] in PING_ERROR_NAMES
               for line in failures)
    assert all(set(line) == REPORT_KEYS for line in lines if "error" not in line)
    if code == EXIT_NO_PING:
        assert lines == [] and err.startswith("error: no ping")
    else:
        assert lines
        assert code == (EXIT_PING_FAILED if failures else
                        EXIT_OK if all(line["converged"] for line in lines) else
                        EXIT_NOT_CONVERGED)
        assert err == "".join(f"error: {line['error']}: {line['message']}\n"
                              for line in failures)


# ROADMAP item 3's two reproductions on the four-ping render. Zero padding
# drops the reference cutoff to 0 once most mean squares are exactly 0, so
# the four bursts merge into one run; after one huge sample the running sum
# cannot resolve the later squares, and pings 0 and 1 merge.
@pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
@pytest.mark.parametrize("damage", ["zeros-appended", "huge-sample"])
def test_damage_keeps_every_ping_apart(four_ping_render, damage):
    # Every real ping gets its own report or failure record, its search
    # starting in its own repetition, or the run ends in one named error.
    scenario, clean = four_ping_render
    if damage == "zeros-appended":
        channels = np.concatenate(
            [clean, np.zeros((8, int(0.3 * scenario.sample_rate)), dtype=np.float32)], axis=1)
    else:
        channels = clean.copy()
        channels[:, 30_000] = 1e7
    recording = MultiChannelRecording(sample_rate=scenario.sample_rate, channels=channels)
    try:
        outcomes = list(pipeline.run_localization(scenario, recording))
    except pipeline.PING_ERRORS:
        return
    assert [outcome.window_search.get("candidate_starts", [-REPETITION])[0] // REPETITION
            for outcome in outcomes] == [0, 1, 2, 3]


# Whatever the grid, montecarlo either runs (exit 0) or refuses the config
# (exit 1): ranges on both sides of the feasible band, and SNRs down to where
# the noise sigma overflows.
@st.composite
def tiny_eval_configs(draw):
    return {
        "ranges": [draw(st.floats(min_value=1.0, max_value=80.0))],
        "snr_db": [draw(st.none() | st.floats(min_value=-1e4, max_value=1e4))],
        "trials": 1,
        "seed": draw(st.integers(min_value=0, max_value=2**32 - 1)),
    }


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(doc=tiny_eval_configs())
@settings(max_examples=60, deadline=PER_EXAMPLE,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_random_eval_config_ends_in_exit_code(tmp_path, doc):
    path = tmp_path / "eval.json"
    path.write_text(json.dumps(doc))
    code, err = run_cli(["montecarlo", "--config", str(path)])
    assert code in {EXIT_OK, EXIT_CONFIG}
    assert "Traceback" not in err
