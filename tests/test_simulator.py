import dataclasses
import math
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
    filter_signal,
    load_scenario,
    monte_carlo,
    ping_waveform,
    render_scene,
)
from pingerloc import pipeline, simulator
from conftest import (FS, SOUND_SPEED, assert_equal_past_float32_cut, fast_scenario,
                      travel_time)

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

    def test_waveform_bit_equal_to_modulo_form(self):
        # ping_waveform takes np.mod only outside (0, period); the result
        # equals np.mod over every sample, bit for bit.
        pinger = std_pinger(repetition_interval=0.05)
        period = pinger.repetition_interval
        multiples = np.arange(-3, 8) * period
        t = np.concatenate([
            [-0.0, 0.0, -5e-324, 5e-324, -1e-9, 1e-9, -3.5 * period, 7.3 * period,
             1000 * period + 1e-3],
            multiples, np.nextafter(multiples, -np.inf), np.nextafter(multiples, np.inf),
            np.arange(-1_000, 60_000) / FS - 3e-4,
        ])
        assert ping_waveform(t, pinger).tobytes() == modulo_form_waveform(t, pinger).tobytes()
        for scalar in (-0.0, 0.0, 1e-3, period, 2.5 * period):
            assert (ping_waveform(scalar, pinger).tobytes()
                    == modulo_form_waveform(scalar, pinger).tobytes())


def modulo_form_waveform(t, pinger):
    """``ping_waveform`` with np.mod taken over every sample."""
    t = np.asarray(t, dtype=float)
    u = np.mod(t, pinger.repetition_interval)
    in_burst = (t >= 0.0) & (u < pinger.ping_duration)
    out = np.zeros_like(t)
    ub = u[in_burst]
    ramp = min(simulator.RAMP_DURATION, pinger.ping_duration / 2.0)
    env = np.ones_like(ub)
    rising = ub < ramp
    env[rising] = 0.5 * (1.0 - np.cos(np.pi * ub[rising] / ramp))
    falling = ub > pinger.ping_duration - ramp
    env[falling] = 0.5 * (1.0 - np.cos(np.pi * (pinger.ping_duration - ub[falling]) / ramp))
    out[in_burst] = pinger.amplitude * env * np.sin(2.0 * np.pi * pinger.frequency * ub)
    return out


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


def full_length_render(scenario):
    """The render with every channel's pressure in one (8, n) float64 array:
    each burst evaluated over its span, ``filter_signal`` over the whole
    array, then the gain product rounded into float32: the noiseless
    reference ``render_scene`` must equal byte for byte up to its float32
    tail cut."""
    fs = scenario.sample_rate
    n = int(round(scenario.record_duration * fs))
    t = np.arange(n) / fs
    pinger = scenario.pinger
    fe = scenario.front_end
    sos = design_bandpass(fe.analog_order, fe.analog_band_low, fe.analog_band_high, fs)
    source = pinger.position.as_array()
    pressure = np.zeros((8, n))
    for ch in range(8):
        r = float(np.linalg.norm(source - scenario.array.channel_position(ch).as_array()))
        delay = r / scenario.sound_speed
        for start in np.arange(delay, n / fs, pinger.repetition_interval):
            i0 = max(math.floor(start * fs) - 2, 0)
            i1 = min(math.ceil((start + pinger.ping_duration) * fs) + 2, n)
            pressure[ch, i0:i1] = ping_waveform(t[i0:i1] - delay, pinger) / r
    filtered = filter_signal(sos, pressure)
    return np.multiply(filtered, fe.gain, out=np.empty(filtered.shape, np.float32),
                       casting="same_kind")


def assert_renders_full_filter(scenario):
    """The noiseless render equals ``full_length_render`` and
    ``full_filter_render`` up to the sign of the zeros past each row's
    float32 cut. Returns the render's channels."""
    ours = render_scene(scenario).channels
    assert_equal_past_float32_cut(ours, full_length_render(scenario))
    assert_equal_past_float32_cut(ours, full_filter_render(scenario))
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

    @given(direction=st.tuples(*[st.floats(min_value=-1.0, max_value=1.0)] * 3),
           distance=st.floats(min_value=0.5, max_value=60.0))
    @settings(max_examples=25, deadline=timedelta(seconds=5))
    def test_random_trial_scene(self, direction, distance):
        v = np.array(direction)
        assume(np.linalg.norm(v) > 1e-3)
        x, y, z = v / np.linalg.norm(v) * distance
        try:
            scenario = pipeline._trial_scenario(Vec3(x, y, z))
        except ConfigError:
            assume(False)
        assert_renders_full_filter(scenario)

    @pytest.mark.parametrize("distance", [5.0, 30.0])
    def test_trial_render_filters_in_two_calls(self, distance, monkeypatch):
        # One call over the bursts and one zero-input tail chunk, after
        # which every row's state is below the float32 quiet level.
        scenario = pipeline._trial_scenario(Vec3(0.6 * distance, -0.64 * distance,
                                                 0.48 * distance))
        calls = []
        real = sps.sosfilt

        def counted(*args, **kwargs):
            calls.append(np.shape(args[1]))
            return real(*args, **kwargs)

        monkeypatch.setattr(sps, "sosfilt", counted)
        render_scene(scenario)
        assert len(calls) == 2

    def test_silent_row(self):
        # The recording ends within one sample after the farthest channel's
        # arrival: that channel's burst span holds only zeros, so its row
        # stays silent while the nearer channels hear the ping.
        position = Vec3(6.0, 2.0, 1.0)
        array = default_array()
        delays = [travel_time(position, array.channel_position(ch), SOUND_SPEED)
                  for ch in range(8)]
        far = int(np.argmax(delays))
        n = math.floor(delays[far] * FS) + 1
        assert (n - 1) / FS < delays[far] < n / FS
        scenario = fast_scenario(position, record_duration=n / FS)
        channels = assert_renders_full_filter(scenario)
        assert not channels[far].any()
        assert channels[int(np.argmin(delays))].any()

    def test_tail_reaches_end_before_quiet(self):
        # Every burst ends 100 samples before the recording does, so no
        # tail is quiet at the last sample.
        position = Vec3(6.0, 2.0, 1.0)
        array = default_array()
        last = max(travel_time(position, array.channel_position(ch), SOUND_SPEED)
                   for ch in range(8))
        scenario = fast_scenario(position, record_duration=last + 4e-3 + 100 / FS)
        channels = assert_renders_full_filter(scenario)
        assert np.all(channels[:, -1] != 0.0)


class TestAddNoise:
    def zero_recording(self, channels=2, n=100_000):
        return MultiChannelRecording(sample_rate=FS,
                                     channels=np.zeros((channels, n), dtype=np.float32))

    @pytest.mark.parametrize("cutoff", [0.0, FS / 2, 300_000.0])
    def test_out_of_band_lowpass_cutoff_raises(self, cutoff):
        # No unfiltered noise stands in for low-passed noise.
        spec = NoiseSpec(white_sigma=0.0, interferer_amp=0.0, lowfreq_amp=0.05,
                         lowfreq_cutoff=cutoff)
        with pytest.raises(ValueError, match=f"lowfreq_cutoff {cutoff} Hz"):
            add_noise(self.zero_recording(), spec, seed=1)

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

    # A noisy Monte Carlo trial draws its reference row's noise on that
    # prefix alone, before the other channels' (pipeline._localize_trial).
    @given(data=st.data(), rows=st.integers(1, 8), n=st.integers(1, 300),
           white=st.booleans(), interferer=st.booleans(), lowfreq=st.booleans(),
           cutoff=st.sampled_from([8_000.0, 120_000.0]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_noise_of_first_rows_is_prefix_of_whole(self, data, rows, n, white, interferer,
                                                     lowfreq, cutoff, seed):
        spec = NoiseSpec(white_sigma=0.3 * white, interferer_amp=0.2 * interferer,
                         lowfreq_amp=0.1 * lowfreq, lowfreq_cutoff=cutoff)
        k = data.draw(st.integers(1, rows), label="k")
        channels = np.random.default_rng(seed).normal(size=(rows, n)).astype(np.float32)
        whole = add_noise(MultiChannelRecording(sample_rate=FS, channels=channels), spec, seed)
        head = add_noise(MultiChannelRecording(sample_rate=FS, channels=channels[:k]), spec,
                         seed)
        assert head.channels.tobytes() == whole.channels[:k].tobytes()
