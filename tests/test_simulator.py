import dataclasses
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import signal as sps

from pingerloc import (
    ConfigError,
    MultiChannelRecording,
    HydrophoneArray,
    MonteCarloConfig,
    NoiseSpec,
    PingerSource,
    Scenario,
    Vec3,
    add_noise,
    default_array,
    design_bandpass,
    estimate_delay,
    load_scenario,
    monte_carlo,
    ping_waveform,
    render_scene,
)
from pingerloc import simulator
from conftest import FS, SOUND_SPEED, fast_scenario, travel_time

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def std_pinger(**kwargs):
    kwargs.setdefault("position", Vec3(10.0, 0.0, 0.0))
    return PingerSource(**kwargs)


def sampled_ping(pinger, duration):
    """The source signal on the regular grid t = n / FS."""
    return ping_waveform(np.arange(int(round(duration * FS))) / FS, pinger)


class TestSynthesizePing:
    def test_sample_count_and_peak(self):
        pinger = std_pinger(amplitude=2.5)
        x = sampled_ping(pinger, 4e-3)
        assert len(x) == 2000
        assert np.max(np.abs(x)) <= 2.5 + 1e-12
        assert np.max(np.abs(x)) >= 0.95 * 2.5

    def test_zero_crossings_about_320(self):
        # 2 * 40 kHz * 4 ms carrier crossings, give or take the ramps
        x = sampled_ping(std_pinger(), 4e-3)
        s = np.sign(x)
        s = s[s != 0]
        crossings = int(np.sum(s[1:] != s[:-1]))
        assert 318 <= crossings <= 322

    def test_burst_onsets_every_repetition(self):
        pinger = std_pinger(repetition_interval=2.0)
        x = sampled_ping(pinger, 4.004)
        assert len(x) == int(round(4.004 * FS))
        for k in (0, 1, 2):
            onset = int(k * 2.0 * FS)
            if onset > 10:
                assert np.all(x[onset - 10:onset + 1] == 0.0)
            assert np.any(x[onset:onset + 100] != 0.0)
        # silence between bursts
        assert np.all(x[int(0.5 * FS):int(1.5 * FS)] == 0.0)

    def test_waveform_silent_before_zero(self):
        t = np.linspace(-1e-3, 1e-3, 1001)
        x = ping_waveform(t, std_pinger())
        assert np.all(x[t < 0] == 0.0)


def two_distance_array(c1, c2):
    """Coarse quad whose first two hydrophones sit at chosen spots; the rest
    keep the quad spanning all axes."""
    coarse = (c1, c2, Vec3(0.1, 0.21, -0.3), Vec3(-0.1, -0.21, 0.3))
    return HydrophoneArray(precise=default_array().precise, coarse=coarse)


class TestRenderScene:
    def test_delay_between_channels_matches_geometry(self):
        # coarse pair roughly 1.48 m apart along the propagation path
        array = two_distance_array(Vec3(0.74, 0.1, 0.1), Vec3(-0.74, -0.1, -0.1))
        pinger = std_pinger(position=Vec3(10.74, 0.0, 0.0), repetition_interval=0.05)
        scenario = Scenario(array=array, pinger=pinger, sample_rate=FS,
                            record_duration=0.05, noise=NoiseSpec.silent(), seed=0)
        rec = render_scene(scenario)
        cha, chb = array.coarse_channels[0], array.coarse_channels[1]
        geo = (travel_time(pinger.position, array.channel_position(cha), SOUND_SPEED)
               - travel_time(pinger.position, array.channel_position(chb), SOUND_SPEED))
        assert geo == pytest.approx(-1.0e-3, abs=2e-5)
        max_lag = int(abs(geo) * FS) + 40
        delay, _ = estimate_delay(rec.channels[cha].astype(float),
                                  rec.channels[chb].astype(float), FS, max_lag)
        assert abs(delay - geo) <= 1.0 / FS

    def test_amplitude_follows_inverse_range(self):
        array = two_distance_array(Vec3(5.0, 0.05, 0.05), Vec3(0.0, -0.05, -0.05))
        pinger = std_pinger(position=Vec3(10.0, 0.0, 0.0), repetition_interval=0.05)
        scenario = Scenario(array=array, pinger=pinger, sample_rate=FS,
                            record_duration=0.05, noise=NoiseSpec.silent(), seed=0)
        rec = render_scene(scenario)
        near = np.max(np.abs(rec.channels[array.coarse_channels[0]]))
        far = np.max(np.abs(rec.channels[array.coarse_channels[1]]))
        assert far / near == pytest.approx(0.5, rel=0.05)

    def test_deterministic_given_seed(self):
        scenario = fast_scenario(Vec3(8.0, -3.0, 2.0),
                                 noise=NoiseSpec(white_sigma=0.05), seed=42)
        a = render_scene(scenario)
        b = render_scene(scenario)
        assert np.array_equal(a.channels, b.channels)

    def test_linear_in_source_amplitude(self):
        base = fast_scenario(Vec3(8.0, -3.0, 2.0))
        doubled = fast_scenario(Vec3(8.0, -3.0, 2.0),
                                amplitude=2.0 * base.pinger.amplitude)
        a = render_scene(base).channels.astype(float)
        b = render_scene(doubled).channels.astype(float)
        assert np.allclose(b, 2.0 * a, rtol=1e-6, atol=1e-6 * np.max(np.abs(a)))

    def test_pinger_out_of_window(self):
        # A scenario that cannot be heard within its recording is a config
        # error when it is built, before any render.
        with pytest.raises(ConfigError, match="out of recording window"):
            fast_scenario(Vec3(100.0, 0.0, 0.0))  # 67 ms flight > 50 ms record

    def test_pinger_on_hydrophone(self):
        hydrophone = default_array().channel_position(2)
        with pytest.raises(ConfigError, match="coincides with hydrophone on channel 2"):
            fast_scenario(Vec3(hydrophone.x + 1e-7, hydrophone.y, hydrophone.z))

    def test_invalid_array_rejected(self):
        bad_coarse = (Vec3(0.3, 0.2, 0.1), Vec3(0.2, -0.2, 0.1),
                      Vec3(0.3, 0.2, -0.1), Vec3(0.2, -0.2, -0.1))
        scenario = fast_scenario(Vec3(10.0, 0.0, 0.0))
        with pytest.raises(ConfigError, match="span"):
            Scenario(array=HydrophoneArray(precise=scenario.array.precise,
                                           coarse=bad_coarse),
                     pinger=scenario.pinger, sample_rate=FS,
                     record_duration=0.05, noise=NoiseSpec.silent(), seed=0)

    def test_out_of_band_energy_suppressed(self, std_recording, std_scenario):
        # 18 kHz content sits at least 20 dB under the 40 kHz carrier
        ch = std_recording.channels[0].astype(float)
        arrival = travel_time(std_scenario.pinger.position,
                              std_scenario.array.channel_position(0), SOUND_SPEED)
        start = int(arrival * FS)
        burst = ch[start:start + 2000] * np.hanning(2000)
        spectrum = np.abs(np.fft.rfft(burst))
        freqs = np.fft.rfftfreq(2000, 1.0 / FS)
        p40 = spectrum[np.argmin(np.abs(freqs - 40_000.0))] ** 2
        p18 = spectrum[np.argmin(np.abs(freqs - 18_000.0))] ** 2
        assert p40 / p18 >= 100.0


def full_filter_render(scenario):
    """Noiseless render with a full-length ``sps.sosfilt`` per channel: the
    reference the tail cut must match."""
    fs = scenario.sample_rate
    n = int(round(scenario.record_duration * fs))
    t = np.arange(n) / fs
    fe = scenario.front_end
    sos = design_bandpass(fe.analog_order, fe.analog_band_low, fe.analog_band_high, fs)
    source = scenario.pinger.position.as_array()
    out = np.empty((8, n), dtype=np.float32)
    for ch in range(8):
        r = float(np.linalg.norm(source - scenario.array.channel_position(ch).as_array()))
        pressure = ping_waveform(t - r / scenario.sound_speed, scenario.pinger) / r
        out[ch] = (fe.gain * sps.sosfilt(sos, pressure)).astype(np.float32)
    return out


def assert_renders_full_filter(scenario):
    """The noiseless render equals ``full_filter_render``; only the sign of
    some zeros may differ. Returns the render's channels."""
    ours = render_scene(scenario).channels
    reference = full_filter_render(scenario)
    assert np.array_equal(ours, reference)
    differs = ours.view(np.uint32) != reference.view(np.uint32)
    assert np.all(ours[differs] == 0.0)
    return ours


class TestRenderTailCut:
    def test_noiseless_renders_equal_full_filter(self, monkeypatch):
        silent = NoiseSpec.silent()
        default = load_scenario(CONFIGS / "scenario_default.json")
        scenes = [
            dataclasses.replace(load_scenario(CONFIGS / "scenario_quick.json"), noise=silent),
            # The default scenario's geometry over 0.2 s rather than 2 s.
            dataclasses.replace(default, noise=silent, record_duration=0.2,
                                pinger=dataclasses.replace(default.pinger,
                                                           repetition_interval=0.2)),
        ]
        original = simulator.render_scene

        def recorded(scenario):
            scenes.append(scenario)
            return original(scenario)

        monkeypatch.setattr(simulator, "render_scene", recorded)
        monte_carlo(MonteCarloConfig(ranges=(5.0, 30.0), snr_db=(None,), trials=3, seed=1))
        monkeypatch.undo()
        assert len(scenes) == 8
        for scenario in scenes:
            assert_renders_full_filter(scenario)

    def test_last_burst_cut_by_end_of_recording(self):
        # Three 50 ms repetitions from about 11.4 m (7.7 ms away): the third
        # burst starts near 107.7 ms and the recording ends 2.3 ms into it.
        quick = load_scenario(CONFIGS / "scenario_quick.json")
        scenario = dataclasses.replace(quick, noise=NoiseSpec.silent(), record_duration=0.11)
        arrival = travel_time(scenario.pinger.position,
                              scenario.array.channel_position(0), scenario.sound_speed)
        third = 2 * scenario.pinger.repetition_interval + arrival
        assert third < scenario.record_duration < third + scenario.pinger.ping_duration
        channels = assert_renders_full_filter(scenario)
        assert channels[0, -1] != 0.0

    def test_pinger_next_to_hydrophone(self):
        # 1 mm off channel 0 the burst arrives within a sample, so its span
        # clips at sample 0.
        hydrophone = default_array().channel_position(0)
        scenario = fast_scenario(Vec3(hydrophone.x + 1e-3, hydrophone.y, hydrophone.z),
                                 record_duration=0.02)
        channels = assert_renders_full_filter(scenario)
        assert channels[0, 1] != 0.0

    @given(x=st.floats(min_value=-30.0, max_value=30.0),
           y=st.floats(min_value=-30.0, max_value=30.0),
           z=st.floats(min_value=-30.0, max_value=30.0),
           record_duration=st.floats(min_value=0.01, max_value=0.1),
           repetition=st.floats(min_value=0.05, max_value=1.0),
           duty=st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=25, deadline=timedelta(seconds=5))
    def test_random_silent_scene_renders_full_filter(self, x, y, z, record_duration,
                                                    repetition, duty):
        # Repetition and ping duration as fractions of the recording, so
        # every draw is a valid pinger: one to twenty bursts, any of them
        # cut short by the end of the recording.
        interval = repetition * record_duration
        try:
            scenario = fast_scenario(Vec3(x, y, z), record_duration=record_duration,
                                     repetition_interval=interval,
                                     ping_duration=duty * interval)
        except ConfigError:
            assume(False)
        assert_renders_full_filter(scenario)


class TestAddNoise:
    def zero_recording(self, channels=2, n=100_000):
        return MultiChannelRecording(sample_rate=FS,
                                     channels=np.zeros((channels, n), dtype=np.float32))

    def test_silent_spec_is_identity(self, std_recording):
        out = add_noise(std_recording, NoiseSpec.silent(), seed=1)
        assert out is std_recording

    def test_white_sigma_estimate(self):
        rec = self.zero_recording(channels=2, n=1_000_000)
        out = add_noise(rec, NoiseSpec(white_sigma=0.1, interferer_amp=0.0,
                                       lowfreq_amp=0.0), seed=7)
        for ch in range(out.channel_count):
            # sd of the sample std is about sigma/sqrt(2N); 0.003 is generous
            assert np.std(out.channels[ch].astype(float)) == pytest.approx(0.1, abs=0.003)

    def test_interferer_dominates_its_bin(self):
        rec = self.zero_recording(channels=4, n=50_000)
        out = add_noise(rec, NoiseSpec(white_sigma=0.0, interferer_amp=1.0,
                                       interferer_freq=18_000.0, lowfreq_amp=0.0), seed=3)
        freqs = np.fft.rfftfreq(50_000, 1.0 / FS)
        expected_bin = int(np.argmin(np.abs(freqs - 18_000.0)))
        for ch in range(4):
            spectrum = np.abs(np.fft.rfft(out.channels[ch].astype(float)))
            assert int(np.argmax(spectrum)) == expected_bin

    def test_lowfreq_scaled_to_requested_rms(self):
        rec = self.zero_recording(channels=1, n=200_000)
        out = add_noise(rec, NoiseSpec(white_sigma=0.0, interferer_amp=0.0,
                                       lowfreq_amp=0.05, lowfreq_cutoff=8_000.0), seed=9)
        rms = float(np.sqrt(np.mean(np.square(out.channels[0].astype(float)))))
        assert rms == pytest.approx(0.05, rel=1e-3)

    def test_deterministic(self):
        rec = self.zero_recording()
        spec = NoiseSpec(white_sigma=0.02)
        a = add_noise(rec, spec, seed=11)
        b = add_noise(rec, spec, seed=11)
        assert np.array_equal(a.channels, b.channels)
        c = add_noise(rec, spec, seed=12)
        assert not np.array_equal(a.channels, c.channels)
