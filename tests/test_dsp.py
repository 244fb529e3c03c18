import dataclasses
import math
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sps

from pingerloc import (
    DegenerateSignalError,
    MultiChannelRecording,
    NoiseSpec,
    NoPingError,
    PingerSource,
    Vec3,
    add_noise,
    design_bandpass,
    detect_ping,
    estimate_delay,
    filter_signal,
    ping_waveform,
    load_scenario,
    render_scene,
    select_stable_window,
)
from pingerloc import dsp
from pingerloc.dsp import (
    NUM_SUBWINDOWS,
    NUM_WINDOWS,
    PAIRS,
    SEARCH_SPAN,
    WINDOW_DURATION,
    UnstableWindowError,
    _median_root,
    _moving_mean_square,
    _square_cutoff,
    filter_and_scan,
    tdoa_from_filtered,
)
from conftest import FS, SOUND_SPEED, assert_equal_past_float32_cut, travel_time

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="module")
def cascade():
    return design_bandpass(4, 30_000.0, 50_000.0, FS)


def search_one(filtered, array, onsets, run):
    """(result, diagnostics) of ``tdoa_from_filtered`` on one run of
    reference crossings: its TdoaSet or error, and its window-search
    diagnostics."""
    diagnostics = []
    [result] = tdoa_from_filtered(filtered, FS, array, SOUND_SPEED, onsets, [run], diagnostics)
    return result, diagnostics[0]


def response(sos, freqs):
    """Complex response of the SOS filter at the given frequencies (Hz)."""
    return sps.sosfreqz(sos, worN=np.asarray(freqs, dtype=float), fs=FS)[1]


class TestDesignBandpass:
    def test_band_edges_at_half_power(self, cascade):
        freqs = np.arange(1_000.0, 250_000.0, 25.0)
        mag = np.abs(response(cascade, freqs))
        peak = mag.max()
        h40 = abs(response(cascade, [40_000.0])[0])
        assert h40 >= 0.98 * peak
        for edge in (30_000.0, 50_000.0):
            h = abs(response(cascade, [edge])[0])
            assert h == pytest.approx(peak / np.sqrt(2.0), rel=0.02)

    def test_18khz_attenuated_10x(self, cascade):
        h18 = abs(response(cascade, [18_000.0])[0])
        h40 = abs(response(cascade, [40_000.0])[0])
        assert h18 <= 0.1 * h40

    def test_dc_and_nyquist_rejected(self, cascade):
        h = np.abs(response(cascade, [0.0, FS / 2.0]))
        assert np.all(h < 1e-3)

    def test_stable_and_sectioned(self, cascade):
        _, poles, _ = sps.sos2zpk(cascade)
        assert np.all(np.abs(poles) < 1.0)
        assert cascade.shape == (2, 6)

    def test_invalid_designs_raise(self):
        with pytest.raises(ValueError):
            design_bandpass(4, 50_000.0, 30_000.0, FS)
        with pytest.raises(ValueError):
            design_bandpass(4, 30_000.0, 300_000.0, FS)
        with pytest.raises(ValueError):
            design_bandpass(3, 30_000.0, 50_000.0, FS)
        with pytest.raises(ValueError):
            design_bandpass(0, 30_000.0, 50_000.0, FS)

    def test_each_call_returns_its_own_writable_design(self):
        first = design_bandpass(4, 30_000.0, 50_000.0, FS)
        expected = sps.butter(2, [30_000.0, 50_000.0], btype="bandpass", output="sos", fs=FS)
        assert np.array_equal(first, expected)
        first[:] = 0.0
        second = design_bandpass(4, 30_000.0, 50_000.0, FS)
        assert second.flags.writeable
        assert np.array_equal(second, expected)
        # sosfilt refuses a read-only SOS array.
        sps.sosfilt(second, np.ones(8))


class TestFilterSignal:
    def test_steady_tone_gain_matches_response(self, cascade):
        n = int(FS * 0.01)
        t = np.arange(n) / FS
        x = np.sin(2 * np.pi * 40_000.0 * t)
        y = filter_signal(cascade, x)
        settled = y[int(FS * 2e-3):]
        gain = (np.max(settled) - np.min(settled)) / 2.0
        h40 = abs(response(cascade, [40_000.0])[0])
        assert gain == pytest.approx(h40, rel=0.02)

    def test_dc_rejection(self, cascade):
        y = filter_signal(cascade, np.ones(20_000))
        tail = y[-2_000:]
        assert np.max(np.abs(tail)) < 1e-3

    def test_impulse_response_decays(self, cascade):
        x = np.zeros(100_000)
        x[0] = 1.0
        y = filter_signal(cascade, x)
        assert np.max(np.abs(y[-1000:])) < 1e-6 * np.max(np.abs(y))

    def test_length_preserved_and_causal(self, cascade):
        x = np.zeros(5_000)
        x[2_500] = 1.0
        y = filter_signal(cascade, x)
        assert len(y) == len(x)
        assert np.all(y[:2_500] == 0.0)

    def test_recording_filters_row_by_row(self, cascade, std_recording):
        # The noiseless rows end in silence, so each row's tail is cut where
        # that row's state is quiet; the noisy copy takes the one-call path.
        noisy = add_noise(std_recording, NoiseSpec(white_sigma=0.05, interferer_amp=0.0,
                                                   lowfreq_amp=0.0), seed=5)
        for rec in (std_recording, noisy):
            filtered = filter_signal(cascade, rec.channels)
            assert filtered.shape == rec.channels.shape
            for k in range(rec.channel_count):
                row = filter_signal(cascade, rec.channels[k].astype(float))
                assert filtered[k].tobytes() == row.tobytes()
        x = np.ones(1_000)
        assert filter_signal(cascade, x).shape == x.shape
        empty = filter_signal(cascade, np.zeros((8, 0), dtype=np.float32))
        assert empty.shape == (8, 0) and empty.dtype == np.float64

    @given(st.floats(min_value=-3, max_value=3), st.floats(min_value=-3, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_linearity(self, cascade, alpha, beta):
        rng = np.random.default_rng(17)
        x = rng.normal(size=4_000)
        y = rng.normal(size=4_000)
        lhs = filter_signal(cascade, alpha * x + beta * y)
        rhs = alpha * filter_signal(cascade, x) + beta * filter_signal(cascade, y)
        scale = max(np.max(np.abs(rhs)), 1.0)
        assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-9 * scale)


class TestTailCut:
    """A row that ends in silence is filtered only until its tail is quiet;
    plain full-length ``sps.sosfilt`` is the reference."""

    GAIN = 10.0

    @staticmethod
    def bursts(ends, n=60_000, seed=3):
        """One row per entry: a 1 ms noise burst ending just before sample
        ``end`` (silence for None), zeros after it."""
        rng = np.random.default_rng(seed)
        x = np.zeros((len(ends), n))
        for k, end in enumerate(ends):
            if end is not None:
                x[k, end - 500:end] = rng.normal(size=500)
        return x

    def check_row(self, cascade, x, y):
        ref = sps.sosfilt(cascade, x)
        nonzero = np.flatnonzero(x)
        stop = nonzero[-1] + 1 if nonzero.size else 0
        assert y[:stop].tobytes() == ref[:stop].tobytes()
        assert np.array_equal((self.GAIN * y).astype(np.float32),
                              (self.GAIN * ref).astype(np.float32))
        # Past the cut the reference is quiet and squares to exactly 0.0.
        differs = y != ref
        assert np.all(y[differs] == 0.0)
        assert np.all(np.abs(ref[differs]) < 1e-190)
        assert np.all(np.square(ref[differs]) == 0.0)
        assert np.all((y == 0.0) | (np.abs(y) >= np.finfo(float).tiny))
        return ref

    def test_burst_then_silence_1d(self, cascade):
        x = self.bursts([3_000])[0]
        y = filter_signal(cascade, x)
        ref = self.check_row(cascade, x, y)
        # The tail is cut well before the end, where the reference has
        # decayed into subnormal floats.
        assert np.all(y[20_000:] == 0.0)
        assert np.any((ref != 0.0) & (np.abs(ref) < np.finfo(float).tiny))

    def test_rows_cut_independently(self, cascade):
        # Bursts ending at different samples, one never quiet before the end
        # of the row, and an all-zero row.
        ends = [2_000, 2_150, 9_000, 30_000, 59_900, None]
        x = self.bursts(ends)
        y = filter_signal(cascade, x)
        assert y.shape == x.shape and y.dtype == np.float64
        for k in range(len(ends)):
            self.check_row(cascade, x[k], y[k])
            assert y[k].tobytes() == filter_signal(cascade, x[k]).tobytes()
        assert np.all(y[-1] == 0.0)
        # Rows as the localizer sees a noiseless render: float32 bursts whose
        # last nonzero sample is near 1e-45, so the sections enter the tail
        # at very different sizes.
        rendered = (self.GAIN * sps.sosfilt(cascade, x)).astype(np.float32)
        y32 = filter_signal(cascade, rendered)
        for k in range(len(ends)):
            self.check_row(cascade, rendered[k].astype(float), y32[k])

    def test_silent_rows_filtered_in_one_batch(self, cascade, std_recording, monkeypatch):
        # A noiseless render: eight rows whose bursts end at different
        # samples. Together they take one call up to their last nonzero
        # samples and one per tail chunk of the slowest row, not one series
        # of calls per row.
        rendered = std_recording.channels
        calls = []
        real = sps.sosfilt

        def counted(*args, **kwargs):
            calls.append(np.shape(args[1]))
            return real(*args, **kwargs)

        monkeypatch.setattr(sps, "sosfilt", counted)
        per_row = []
        for row in rendered:
            calls.clear()
            filter_signal(cascade, row)
            per_row.append(len(calls))
        calls.clear()
        batched = filter_signal(cascade, rendered)
        assert min(per_row) > 1
        assert len(calls) <= max(per_row) < sum(per_row)
        assert calls[0] == (len(rendered), calls[0][1])
        for k, row in enumerate(rendered):
            assert batched[k].tobytes() == filter_signal(cascade, row).tobytes()

    def test_noisy_rows_equal_sosfilt(self, cascade):
        rng = np.random.default_rng(4)
        noisy = rng.normal(size=(3, 20_000))
        noisy[:, -1] = 0.5
        assert filter_signal(cascade, noisy).tobytes() == sps.sosfilt(cascade, noisy).tobytes()
        assert filter_signal(cascade, noisy[0]).tobytes() == sps.sosfilt(cascade, noisy[0]).tobytes()
        scaled = filter_signal(cascade, noisy, gain=self.GAIN)
        assert scaled.tobytes() == (self.GAIN * sps.sosfilt(cascade, noisy)).tobytes()
        # A noisy row next to silent ones keeps its full-length filter.
        mixed = np.vstack([noisy[:1], self.bursts([5_000], n=20_000)])
        y = filter_signal(cascade, mixed)
        assert y[0].tobytes() == sps.sosfilt(cascade, noisy[0]).tobytes()
        self.check_row(cascade, mixed[1], y[1])

    def test_out_longer_than_input(self, cascade):
        # The input counts as zero past its end: a short block filtered into
        # a longer ``out`` equals the zero-padded block filtered, times the
        # gain, and a float32 ``out`` gets that float64 product rounded once
        # up to its tail cut, which comes where the product rounds to zero.
        # One row ends in a nonzero sample at the block's end, so its tail
        # runs on into ``out``.
        x = self.bursts([2_000, 2_150, 2_600, None], n=2_600)
        padded = np.pad(x, ((0, 0), (0, 57_400)))
        unit = filter_signal(cascade, padded)
        for k in range(len(x)):
            self.check_row(cascade, padded[k], unit[k])
        expected = filter_signal(cascade, padded, gain=self.GAIN)
        assert expected.tobytes() == (self.GAIN * unit).tobytes()
        out = np.zeros(padded.shape)
        assert filter_signal(cascade, x, out=out, gain=self.GAIN) is out
        assert out.tobytes() == expected.tobytes()
        out32 = np.zeros(padded.shape, np.float32)
        filter_signal(cascade, x, out=out32, gain=self.GAIN)
        assert_equal_past_float32_cut(out32, expected.astype(np.float32))
        row = np.zeros(padded.shape[1], np.float32)
        filter_signal(cascade, x[2], out=row, gain=self.GAIN)
        assert row.tobytes() == out32[2].tobytes()

    @given(order=st.sampled_from([2, 4, 6, 8]),
           fs=st.floats(min_value=200e3, max_value=1000e3),
           width=st.floats(min_value=1e3, max_value=50e3),
           place=st.floats(min_value=0.0, max_value=1.0),
           gain_exponent=st.floats(min_value=-3.0, max_value=6.0),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50, deadline=timedelta(seconds=5))
    def test_float32_quiet_level_rounds_tail_to_zero(self, order, fs, width, place,
                                                     gain_exponent, seed):
        # A float32 tail is cut once every section state is below
        # _quiet_level: from any such state, gain times the whole zero-input
        # response rounds to zero in float32. Past twice the settle samples
        # it is some 40 decades below its peak.
        low = 2e3 + place * (fs / 2 - 3e3 - width)
        sos = design_bandpass(order, low, low + width, fs)
        gain = 10.0 ** gain_exponent
        level = dsp._quiet_level(np.dtype(np.float32), gain)
        assert level > dsp._QUIET_STATE
        state = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(len(sos), 2))
        state *= 0.999 * level / np.abs(state).max()
        tail, _ = sps.sosfilt(sos, np.zeros(2 * dsp._settle_samples(sos)), zi=state)
        assert np.abs(tail).max() > 0.0
        rounded = np.multiply(tail, gain, out=np.empty(tail.shape, np.float32),
                              casting="same_kind")
        assert not rounded.any()


class TestSettleSamples:
    """A coarse burst window is kept once the filter's start transient, the
    zero-input response to a state other than the full-length filter's, has
    decayed below _SETTLE_DECAY 1e-20 of its size."""

    @pytest.mark.parametrize("design", [(4, 30e3, 50e3, FS), (4, 36e3, 44e3, FS),
                                        (8, 30e3, 50e3, FS), (4, 30e3, 50e3, 250e3)],
                             ids=["front-end", "narrow-band", "order-8", "250-kHz"])
    def test_transient_decays_by_then(self, design):
        sos = design_bandpass(*design)
        settle = dsp._settle_samples(sos)
        noise = np.random.default_rng(3).normal(size=5_000)
        _, state = sps.sosfilt(sos, noise, zi=np.zeros((len(sos), 2)))
        transient = sps.sosfilt(sos, np.zeros(settle + 2_000), zi=state)[0]
        peak = np.abs(transient).max()
        assert np.abs(transient[settle:]).max() < 2 * dsp._SETTLE_DECAY * peak
        # Not much later than needed either.
        assert np.abs(transient[settle * 9 // 10:]).max() > dsp._SETTLE_DECAY * peak

    def test_front_end_band(self, cascade):
        assert 600 <= dsp._settle_samples(cascade) <= 1_000

    def test_pole_on_the_circle_never_settles(self):
        ringing = np.array([[1.0, 0.0, 0.0, 1.0, 0.0, 1.0]])
        assert dsp._settle_samples(ringing) == math.inf


def crossings(samples, fs):
    """``detect_ping``'s crossings against the channel's own cutoff."""
    return detect_ping(samples, fs)[0]


class TestDetectPing:
    def burst_in_noise(self, onset_time, total, snr_db, seed=0, fs=FS):
        rng = np.random.default_rng(seed)
        pinger = PingerSource(position=Vec3(10, 0, 0), repetition_interval=total + 1.0,
                              ping_duration=4e-3)
        n = int(total * fs)
        t = np.arange(n) / fs
        x = ping_waveform(t - onset_time, pinger)
        burst_rms = 1.0 / np.sqrt(2.0)
        sigma = burst_rms / 10 ** (snr_db / 20.0)
        return x + rng.normal(0.0, sigma, n)

    def test_onset_within_half_ms(self, cascade):
        x = self.burst_in_noise(onset_time=0.5, total=1.0, snr_db=20.0)
        onset = crossings(filter_signal(cascade, x), FS)[0]
        assert abs(onset / FS - 0.5) <= 0.5e-3

    def test_pure_noise_raises(self, cascade, std_scenario):
        rng = np.random.default_rng(3)
        x = rng.normal(0.0, 0.1, 200_000)
        assert crossings(filter_signal(cascade, x), FS).size == 0
        channels = np.zeros((8, x.size), dtype=np.float32)
        channels[std_scenario.array.precise_channels[0]] = x
        with pytest.raises(NoPingError, match="reference channel"):
            select_stable_window(MultiChannelRecording(sample_rate=FS, channels=channels),
                                 cascade, std_scenario.array, SOUND_SPEED)

    def test_first_of_two_bursts(self, cascade):
        x = (self.burst_in_noise(onset_time=0.5, total=3.0, snr_db=30.0)
             + self.burst_in_noise(onset_time=2.5, total=3.0, snr_db=30.0, seed=1))
        onsets = crossings(filter_signal(cascade, x), FS)
        assert abs(onsets[0] / FS - 0.5) <= 1e-3
        # The same scan serves the later burst.
        assert np.all(np.diff(onsets) > 0)
        assert abs(onsets[onsets >= int(1.5 * FS)][0] / FS - 2.5) <= 1e-3

    def test_own_and_given_cutoff(self, cascade):
        x = filter_signal(cascade, self.burst_in_noise(0.1, 0.3, 20.0))
        ms = _moving_mean_square(x, int(round(dsp.RMS_WINDOW * FS)))
        onsets, cutoff = detect_ping(x, FS)
        assert cutoff == _square_cutoff(dsp.ONSET_THRESHOLD * _median_root(ms))
        assert np.array_equal(onsets, np.flatnonzero(ms > cutoff))
        # A given cutoff replaces the channel's own and comes back unchanged.
        for given in (cutoff / 4, cutoff, 4 * cutoff):
            found, used = detect_ping(x, FS, given)
            assert used == given and np.array_equal(found, np.flatnonzero(ms > given))
        # The mean square is trailing: a prefix crosses where the whole row
        # does, up to the prefix's end.
        for end in (0, 1, 499, 500, 60_000, len(x)):
            assert np.array_equal(detect_ping(x[:end], FS, cutoff)[0],
                                  onsets[onsets < end]), end
        empty = detect_ping(np.zeros(0), FS)
        assert empty[0].dtype.kind == "i" and empty[0].size == 0 and math.isnan(empty[1])
        assert detect_ping(np.zeros(0), FS, cutoff)[1] == cutoff


class TestScanReference:
    def test_runs_split_where_burst_windows_stop_overlapping(self, cascade, std_scenario,
                                                            monkeypatch):
        # The reference crossings past the settle prefix split into runs
        # where two are before + reach apart or more; a crossing inside the
        # prefix, where a DC offset's step still rings, is dropped.
        array = std_scenario.array
        before, reach = dsp._burst_margins(array, SOUND_SPEED, FS)
        gap = before + reach
        prefix = dsp._settle_samples(cascade) + int(round(dsp.RMS_WINDOW * FS))
        first = prefix
        second = first + 1 + 2 * gap
        found = np.array([0, prefix - 1, first, first + 2, first + 1 + gap, second, second + 1])
        monkeypatch.setattr(dsp, "detect_ping", lambda row, fs: (found, 0.5))
        recording = MultiChannelRecording(sample_rate=FS,
                                          channels=np.zeros((8, second + 10), dtype=np.float32))
        timing = {}
        row, cutoff, runs = dsp.scan_reference(recording, cascade, array, SOUND_SPEED, timing)
        assert runs == [(first, first + 1 + gap), (second, second + 1)]
        assert cutoff == 0.5 and len(row) == second + 10 and set(timing) == {"filter", "onset"}


def index_array_moving_rms(samples, window):
    """The moving RMS as first written, with three n-length index arrays."""
    x2 = np.square(np.asarray(samples, dtype=float))
    csum = np.concatenate(([0.0], np.cumsum(x2)))
    n = len(x2)
    idx = np.arange(n)
    lo = np.maximum(idx - window + 1, 0)
    counts = idx - lo + 1
    sums = csum[idx + 1] - csum[lo]
    return np.sqrt(np.maximum(sums, 0.0) / counts)


class TestMovingRms:
    W = 500

    @pytest.mark.parametrize("n", [1, W - 1, W, W + 1, 25_000, 1_000_000])
    def test_equals_index_array_formula(self, cascade, n):
        x = filter_signal(cascade, np.random.default_rng(n).normal(size=n))
        assert np.array_equal(np.sqrt(_moving_mean_square(x, self.W)),
                              index_array_moving_rms(x, self.W))

    @given(segments=st.lists(st.tuples(st.booleans(), st.integers(1, 400),
                                       st.integers(-160, 100)), min_size=1, max_size=8),
           window=st.integers(1, 600), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_never_negative(self, segments, window, seed):
        # The squares are >= 0 and fl(a + b) >= a for b >= 0, so the
        # cumulative sum never decreases and no window difference needs a
        # clamp at 0. Rows mix exact-zero stretches with noise from 1e-160
        # (squares in the subnormals or 0) to 1e100.
        rng = np.random.default_rng(seed)
        x = np.concatenate([np.zeros(length) if silent else rng.normal(size=length) * 10.0**e
                            for silent, length, e in segments])
        ms = _moving_mean_square(x, window)
        n, ramp = len(x), min(window, len(x))
        csum = np.concatenate(([0.0], np.cumsum(np.square(x))))
        clamped = np.concatenate((
            csum[1:ramp + 1] / np.arange(1, ramp + 1),
            np.maximum(csum[ramp + 1:] - csum[1:n - ramp + 1], 0.0) / window))
        assert np.all(ms >= 0.0) and not np.signbit(ms).any()
        assert ms.tobytes() == clamped.tobytes()


def reference_detect_ping(samples, fs):
    """The moving-RMS onset test detect_ping must reproduce: a square root
    per sample, np.median of the roots for the floor, and the comparison on
    the roots."""
    if np.size(samples) == 0:
        return np.empty(0, dtype=np.intp)
    w = max(1, int(round(dsp.RMS_WINDOW * fs)))
    rms = np.sqrt(_moving_mean_square(samples, w))
    return np.flatnonzero(rms > dsp.ONSET_THRESHOLD * float(np.median(rms)))


class TestDetectPingOnMeanSquares:
    """detect_ping thresholds mean squares; it must cross exactly where the
    RMS test crosses."""

    def row(self, cascade, n, leading_zeros=0, seed=0):
        """Filtered noise whose first ``leading_zeros`` mean squares are
        exactly 0."""
        x = filter_signal(cascade, np.random.default_rng(seed).normal(size=n))
        x[:leading_zeros] = 0.0
        return x

    @pytest.mark.parametrize("fs", [48_000.0, 96_000.0, FS, 1_000_000.0])
    def test_lengths_around_the_window(self, cascade, fs):
        w = max(1, int(round(dsp.RMS_WINDOW * fs)))
        for n in sorted({1, 2, 3, w - 1, w, w + 1, 2 * w + 1, 2 * w + 2, 10_001, 10_000}):
            if n < 1:
                continue
            for seed in range(3):
                x = self.row(cascade, n, seed=seed)
                assert np.array_equal(crossings(x, fs), reference_detect_ping(x, fs)), (fs, n)

    @pytest.mark.parametrize("n", [10_000, 10_001])
    @pytest.mark.parametrize("zeros", [0, 1_000, 4_900, *range(4_997, 5_004), 5_100, 9_000,
                                       9_999, 10_001])
    def test_exact_zero_fractions(self, cascade, n, zeros):
        # From none to all of the mean squares exactly 0, densest around the
        # middle rank(s), where the floor moves from a positive value to 0.
        zeros = min(zeros, n)
        x = self.row(cascade, n, zeros, seed=zeros)
        ms = _moving_mean_square(x, int(round(dsp.RMS_WINDOW * FS)))
        assert np.count_nonzero(ms == 0.0) == zeros
        assert _median_root(ms) == float(np.median(np.sqrt(ms)))
        assert np.array_equal(crossings(x, FS), reference_detect_ping(x, FS))

    def test_silent_and_noiseless_rows(self, cascade, std_recording):
        assert crossings(np.zeros(30_000), FS).size == 0
        assert reference_detect_ping(np.zeros(30_000), FS).size == 0
        for row in filter_signal(cascade, std_recording.channels):
            assert np.array_equal(crossings(row, FS), reference_detect_ping(row, FS))

    def test_noise_with_a_burst(self, cascade):
        x = filter_signal(cascade, TestDetectPing().burst_in_noise(0.1, 0.3, 20.0))
        onsets = crossings(x, FS)
        assert onsets.size and np.array_equal(onsets, reference_detect_ping(x, FS))

    def test_non_finite_samples(self):
        # Recordings refuse them, but the scan still agrees: a NaN floor
        # crosses nowhere, an inf mean square crosses a finite floor.
        x = np.ones(3_000)
        for where, value in [(10, np.nan), (2_990, np.nan), (10, np.inf), (2_990, np.inf)]:
            y = x.copy()
            y[where] = value
            with np.errstate(invalid="ignore"):
                assert np.array_equal(crossings(y, FS), reference_detect_ping(y, FS))

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 3_000), fs=st.sampled_from([1_000.0, 48_000.0, FS]),
           lead=st.floats(0.0, 1.0), tail=st.floats(0.0, 1.0),
           scale=st.sampled_from([1e-300, 1e-160, 1e-20, 1.0, 1e20, 1e150]),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_rms_test(self, n, fs, lead, tail, scale, seed):
        x = np.random.default_rng(seed).normal(size=n) * scale
        x[:int(lead * n)] = 0.0
        x[n - int(tail * n):] = 0.0
        assert np.array_equal(crossings(x, fs), reference_detect_ping(x, fs))


class TestSquareCutoff:
    @pytest.mark.parametrize("v", [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300,
                                   1e-30, 0.5, 1.0, 2.0, 3.0, 123.456, 1e300,
                                   np.finfo(float).max])
    def test_cutoff_at_a_root_and_its_neighbours(self, v):
        root = math.sqrt(v)
        for threshold in (math.nextafter(root, 0.0), root, math.nextafter(root, math.inf)):
            c = _square_cutoff(threshold)
            assert math.sqrt(c) <= threshold
            assert c == math.inf or math.sqrt(math.nextafter(c, math.inf)) > threshold
            # The cutoff splits the doubles around it as the roots do.
            xs = np.array([c, v, math.nextafter(c, 0.0), math.nextafter(v, 0.0),
                           math.nextafter(v, math.inf)] +
                          ([math.nextafter(c, math.inf)] if c < math.inf else []))
            assert np.array_equal(xs > c, np.sqrt(xs) > threshold)
        assert v <= _square_cutoff(root)

    def test_infinite_and_nan_thresholds(self):
        assert _square_cutoff(math.inf) == math.inf
        assert math.isnan(_square_cutoff(math.nan))
        # A threshold whose square overflows still maps to the largest double.
        assert _square_cutoff(1e200) == np.finfo(float).max


def multitone(offset_samples=0.0, n=2_000, seed=5, m=60, fs=FS):
    """Broadband continuous-time waveform evaluated at shifted sample times.

    Sub-sample refinement needs a broadband signal: a narrowband burst's
    correlation repeats every carrier period, so an exactly-half-sample peak
    samples lower than the neighboring period and the fractional oracle would
    test the ambiguity, not the refinement. In the pipeline the lag bound
    plays that role.
    """
    rng = np.random.default_rng(seed)
    freqs = rng.uniform(10e3, 200e3, m)
    phases = rng.uniform(0, 2 * np.pi, m)
    t = (np.arange(n) - offset_samples) / fs
    return np.sum(np.cos(2 * np.pi * freqs[:, None] * t[None, :] + phases[:, None]), axis=0)


class TestEstimateDelay:
    def reference_burst(self, n=3_000, offset_samples=0.0, fs=FS):
        pinger = PingerSource(position=Vec3(10, 0, 0), repetition_interval=1.0,
                              ping_duration=3e-3)
        t = (np.arange(n) - offset_samples) / fs
        return ping_waveform(t, pinger)

    def test_identical_inputs(self):
        a = self.reference_burst()
        delay, peak = estimate_delay(a, a, FS, 100)
        assert delay == 0.0
        assert peak == pytest.approx(1.0, abs=1e-12)

    def test_integer_shift_25_samples(self):
        a = self.reference_burst()
        b = np.concatenate([np.zeros(25), a[:-25]])
        delay, _ = estimate_delay(a, b, FS, 100)
        assert delay * FS == pytest.approx(-25.0, abs=1e-6)
        assert delay == pytest.approx(-50e-6, abs=1e-11)

    @pytest.mark.parametrize("shift", [10.5, 3.25])
    def test_fractional_shift(self, shift):
        a = multitone()
        b = multitone(offset_samples=shift)
        delay, _ = estimate_delay(a, b, FS, 110)
        assert abs(delay * FS + shift) <= 0.2

    def test_antisymmetry_exact(self):
        rng = np.random.default_rng(23)
        a = rng.normal(size=2_000)
        b = rng.normal(size=2_000)
        assert estimate_delay(a, b, FS, 50)[0] == -estimate_delay(b, a, FS, 50)[0]

    @given(st.integers(min_value=1, max_value=50))
    @settings(max_examples=25, deadline=None)
    def test_shift_theorem_integer_resolution(self, k):
        rng = np.random.default_rng(29)
        a = rng.normal(size=1_500)
        b = np.concatenate([np.zeros(k), a[:-k]])
        delay, _ = estimate_delay(a, b, FS, 60)
        assert round(delay * FS) == -k
        assert abs(delay * FS + k) < 0.5

    def test_zero_energy_raises(self):
        with pytest.raises(DegenerateSignalError):
            estimate_delay(np.zeros(100), np.ones(100), FS, 10)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            estimate_delay(np.ones(100), np.ones(99), FS, 10)

    def test_lag_bound_respected(self):
        rng = np.random.default_rng(31)
        a = rng.normal(size=500)
        b = rng.normal(size=500)
        delay, _ = estimate_delay(a, b, FS, 20)
        assert abs(delay) <= 20.0 / FS


def full_correlation_delay(a, b, fs, max_lag):
    """estimate_delay's result computed from a full-mode np.correlate over
    all 2n - 1 lags: the reference its lag-limited sums must reproduce."""
    corr = np.correlate(a, b, mode="full")
    center = len(b) - 1
    window = corr[center - max_lag : center + max_lag + 1]
    k = int(np.argmax(window))
    lag = float(k - max_lag)
    j = center + int(lag)
    if 0 < j < len(corr) - 1:
        y_m, y_0, y_p = corr[j - 1], corr[j], corr[j + 1]
        denom = y_m - 2.0 * y_0 + y_p
        if denom < 0.0:
            lag += float(np.clip(0.5 * (y_m - y_p) / denom, -1.0, 1.0))
    lag = float(np.clip(lag, -max_lag, max_lag))
    norm = float(np.linalg.norm(a) * np.linalg.norm(b))
    peak = float(np.clip(window[k] / norm, -1.0, 1.0))
    return lag / fs, peak


def correlation_cases(n, count, seed):
    """Seeded (a, b, max_lag) cases of length n: half with b a noisy shifted
    copy of a, so the peak falls anywhere in or at the edge of the search,
    half independent noise; max_lag is drawn from 0 .. min(n - 1, 120), and
    every fifth case takes the largest."""
    rng = np.random.default_rng(seed)
    top = min(n - 1, 120)
    for c in range(count):
        a = rng.normal(size=n)
        if c % 2:
            b = np.roll(a, int(rng.integers(-top, top + 1))) + 0.3 * rng.normal(size=n)
        else:
            b = rng.normal(size=n)
        yield a, b, top if c % 5 == 0 else int(rng.integers(0, top + 1))


class TestEstimateDelayReference:
    @pytest.mark.parametrize("n", [12, 13, 16, 40, 121, 166, 250, 1_000, 3_000])
    def test_bit_equal_to_full_correlation(self, n):
        count = 20 if n == 3_000 else 200
        for a, b, max_lag in correlation_cases(n, count, seed=n):
            assert estimate_delay(a, b, FS, max_lag) == full_correlation_delay(a, b, FS, max_lag)

    @pytest.mark.parametrize("n", range(2, 12))
    def test_short_windows_within_roundoff(self, n):
        # Below 12 samples numpy's full-mode correlate takes another kernel,
        # so the last bits may differ from the dot products.
        for a, b, max_lag in correlation_cases(n, 300, seed=n):
            delay, peak = estimate_delay(a, b, FS, max_lag)
            ref_delay, ref_peak = full_correlation_delay(a, b, FS, max_lag)
            assert abs(delay - ref_delay) * FS <= 1e-12
            assert abs(peak - ref_peak) <= 1e-12

    @pytest.mark.parametrize("n", [2, 12, 40])
    def test_peak_at_full_overlap_lag_has_no_neighbour(self, n):
        # max_lag = n - 1 and the peak at lag n - 1: its outer neighbour lies
        # past the overlap, so no parabola is fitted.
        a = np.zeros(n)
        a[-1] = 1.0
        b = np.zeros(n)
        b[0] = 1.0
        b[-1] = 0.25
        delay, peak = estimate_delay(a, b, FS, n - 1)
        assert (delay, peak) == full_correlation_delay(a, b, FS, n - 1)
        assert delay * FS == n - 1
        assert peak == pytest.approx(1.0 / math.hypot(1.0, 0.25))

    def test_tie_takes_the_first_lag(self):
        # b holds a's impulse at two delays: lags -7 and -2 correlate equally,
        # and the search, ascending in lag, keeps -7.
        a = np.zeros(40)
        a[10] = 1.0
        b = np.zeros(40)
        b[12] = b[17] = 1.0
        delay, peak = estimate_delay(a, b, FS, 9)
        assert (delay, peak) == full_correlation_delay(a, b, FS, 9)
        assert delay * FS == -7.0


class TestSelectStableWindow:
    def test_clean_ping(self, std_recording, std_scenario):
        array = std_scenario.array
        cascade = design_bandpass(4, 30_000.0, 50_000.0, FS)
        rows, onsets, runs = filter_and_scan(std_recording, cascade, array, SOUND_SPEED)
        tdoa, diagnostics = search_one(rows, array, onsets, runs[0])

        assert len(tdoa.pair_delays) == len(tdoa.peak_correlations) == 6
        max_delay = array.max_precise_spacing() / SOUND_SPEED
        for delay in tdoa.pair_delays:
            assert abs(delay) <= max_delay
            # half-wavelength spacing keeps every delay under half a period
            assert abs(delay) < 0.5 / 40_000.0
        chosen = diagnostics["chosen_candidate"]
        assert diagnostics["variance_scores"][chosen] < (0.1 / FS) ** 2

        # chosen window overlaps the burst
        arrival = travel_time(std_scenario.pinger.position,
                              array.channel_position(array.precise_channels[0]), SOUND_SPEED)
        start, length = tdoa.window
        assert start / FS >= arrival - 1e-3
        assert start / FS <= arrival + std_scenario.pinger.ping_duration

        # delays agree with geometry to sub-sample accuracy
        for (i, j), delay in zip(PAIRS, tdoa.pair_delays):
            geo = (travel_time(std_scenario.pinger.position, array.precise[i], SOUND_SPEED)
                   - travel_time(std_scenario.pinger.position, array.precise[j], SOUND_SPEED))
            assert abs(delay - geo) <= 0.3 / FS

    def test_pairwise_consistency(self, std_recording, std_scenario):
        cascade = design_bandpass(4, 30_000.0, 50_000.0, FS)
        tdoa = select_stable_window(std_recording, cascade, std_scenario.array, SOUND_SPEED)
        delays = dict(zip(PAIRS, tdoa.pair_delays))
        for i in range(4):
            for j in range(i + 1, 4):
                for k in range(j + 1, 4):
                    closure = delays[(i, j)] + delays[(j, k)] - delays[(i, k)]
                    assert abs(closure) <= 0.3 / FS

    def test_glitch_excluded_by_variance(self, std_recording, std_scenario):
        array = std_scenario.array
        cascade = design_bandpass(4, 30_000.0, 50_000.0, FS)
        ref_filtered = filter_signal(cascade, std_recording.channels[array.precise_channels[0]])
        onset = crossings(ref_filtered, FS)[0]

        rng = np.random.default_rng(13)
        glitch_start = onset + int(3e-3 * FS)
        glitch_len = int(1e-3 * FS)
        channels = std_recording.channels.copy()
        amp = 10.0 * np.max(np.abs(channels))
        for ch in range(8):
            channels[ch, glitch_start:glitch_start + glitch_len] += rng.normal(
                0.0, amp, glitch_len).astype(np.float32)
        glitched = MultiChannelRecording(sample_rate=FS, channels=channels)

        rows, onsets, runs = filter_and_scan(glitched, cascade, array, SOUND_SPEED)
        tdoa, _ = search_one(rows, array, onsets, runs[0])
        # winning window must end before the glitch
        start, length = tdoa.window
        assert start + length <= glitch_start

    def test_recording_too_short(self, std_recording, std_scenario):
        cascade = design_bandpass(4, 30_000.0, 50_000.0, FS)
        ref = filter_signal(cascade, std_recording.channels[0])
        onset = crossings(ref, FS)[0]
        short = MultiChannelRecording(
            sample_rate=FS, channels=std_recording.channels[:, :onset + 300].copy())
        with pytest.raises(NoPingError):
            select_stable_window(short, cascade, std_scenario.array, SOUND_SPEED)

    def test_no_ping_at_all(self, std_scenario):
        cascade = design_bandpass(4, 30_000.0, 50_000.0, FS)
        silent = MultiChannelRecording(sample_rate=FS,
                                       channels=np.zeros((8, 30_000), dtype=np.float32))
        with pytest.raises(NoPingError):
            select_stable_window(silent, cascade, std_scenario.array, SOUND_SPEED)

    def test_wrong_channel_count(self, std_scenario):
        cascade = design_bandpass(4, 30_000.0, 50_000.0, FS)
        rec = MultiChannelRecording(sample_rate=FS,
                                    channels=np.zeros((4, 10_000), dtype=np.float32))
        with pytest.raises(ValueError, match="8 channels"):
            select_stable_window(rec, cascade, std_scenario.array, SOUND_SPEED)


def per_candidate_search(filtered, fs, array, sound_speed, onset):
    """The window search's diagnostics as it scored candidates before each
    sub-window was measured once: every candidate correlates each pair of
    its own NUM_SUBWINDOWS sub-windows with ``estimate_delay``, and a
    candidate with a degenerate sub-window scores inf. Candidates hop by one
    sub-window, which is the old 0.5 ms hop at 500 kHz."""
    win_len = int(round(WINDOW_DURATION * fs))
    sub_len = win_len // NUM_SUBWINDOWS
    sub_max_lag = min(int(math.ceil(array.max_precise_spacing() / sound_speed * fs)),
                      sub_len - 1)
    precise = [filtered[ch] for ch in array.precise_channels]
    starts = [onset + k * sub_len for k in range(NUM_WINDOWS)
              if onset + k * sub_len + win_len <= filtered.shape[1]]
    scores = []
    for start in starts:
        try:
            sub_delays = []
            for s in range(NUM_SUBWINDOWS):
                slices = [ch[start + s * sub_len:start + (s + 1) * sub_len] for ch in precise]
                sub_delays.append([estimate_delay(slices[i], slices[j], fs, sub_max_lag)[0]
                                   for i, j in PAIRS])
        except DegenerateSignalError:
            scores.append(math.inf)
            continue
        scores.append(float(np.var(sub_delays, axis=0, ddof=1).sum()))
    return {"candidate_starts": starts, "variance_scores": scores,
            "chosen_candidate": int(np.argmin(scores))}


class TestSubWindowTable:
    """Each sub-window is measured once; candidates read runs of them."""

    SUB_LEN = int(round(WINDOW_DURATION * FS)) // NUM_SUBWINDOWS

    @pytest.fixture(scope="class")
    def quick(self, cascade):
        scenario = load_scenario(CONFIGS / "scenario_quick.json")
        return self.front_end(scenario, render_scene(scenario), cascade)

    @pytest.fixture(scope="class")
    def noiseless(self, cascade, std_scenario, std_recording):
        return self.front_end(std_scenario, std_recording, cascade)

    @staticmethod
    def front_end(scenario, recording, cascade):
        """(scenario, the full-length filter's rows, the coarse onsets and
        the first run ``filter_and_scan`` finds in them)."""
        _, onsets, runs = filter_and_scan(recording, cascade, scenario.array, SOUND_SPEED)
        return scenario, filter_signal(cascade, recording.channels), onsets, runs[0]

    def onset(self, filtered, array):
        return crossings(filtered[array.precise_channels[0]], FS)[0]

    def zero_precise(self, filtered, array, offset, length):
        """A copy with the second precise channel zeroed over ``length``
        samples from ``offset`` past the reference onset."""
        out = filtered.copy()
        start = self.onset(filtered, array) + offset
        out[array.precise_channels[1], start:start + length] = 0.0
        return out

    def cut_to_three_candidates(self, filtered, array):
        onset = self.onset(filtered, array)
        return filtered[:, :onset + 2 * self.SUB_LEN + int(round(WINDOW_DURATION * FS))].copy()

    def glitch(self, filtered, array):
        out = filtered.copy()
        start = self.onset(filtered, array) + 3 * self.SUB_LEN + 40
        rng = np.random.default_rng(5)
        out[:, start:start + 100] += rng.normal(0.0, 10.0 * np.max(np.abs(filtered)), (8, 100))
        return out

    def case(self, quick, noiseless, name):
        """(scenario, filtered channels, coarse onsets, run) of one named
        case; all but the noiseless ping edit the filtered quick-scenario
        ping and keep its onsets and run."""
        if name == "noiseless":
            return noiseless
        scenario, filtered, onsets, run = quick
        array = scenario.array
        edit = {
            "quick": lambda: filtered,
            "zeroed-sub-window": lambda: self.zero_precise(filtered, array, 2 * self.SUB_LEN,
                                                           self.SUB_LEN),
            "zeroed-search": lambda: self.zero_precise(filtered, array, 0,
                                                       int(round(SEARCH_SPAN * FS))),
            "three-candidates": lambda: self.cut_to_three_candidates(filtered, array),
            "glitch": lambda: self.glitch(filtered, array),
        }[name]
        return scenario, edit(), onsets, run

    @pytest.mark.parametrize("name", ["quick", "zeroed-sub-window", "zeroed-search",
                                      "three-candidates", "glitch", "noiseless"])
    def test_diagnostics_equal_per_candidate_scoring(self, quick, noiseless, name):
        scenario, filtered, onsets, run = self.case(quick, noiseless, name)
        array = scenario.array
        expected = per_candidate_search(filtered, FS, array, SOUND_SPEED, run[0])
        tdoa, diagnostics = search_one(filtered, array, onsets, run)
        assert diagnostics == expected
        scores = expected["variance_scores"]
        if name == "zeroed-search":
            assert isinstance(tdoa, UnstableWindowError) and scores == [math.inf] * NUM_WINDOWS
            return
        assert tdoa.window == (expected["candidate_starts"][expected["chosen_candidate"]],
                               int(round(WINDOW_DURATION * FS)))
        if name == "zeroed-sub-window":
            # Sub-window 2 is degenerate: candidates 0-2 hold it, 3-7 do not.
            assert scores[:3] == [math.inf] * 3
            assert np.all(np.isfinite(scores[3:]))
        if name == "three-candidates":
            assert len(scores) == 3

    @pytest.mark.parametrize("name, candidates", [("quick", NUM_WINDOWS),
                                                  ("three-candidates", 3),
                                                  ("zeroed-sub-window", NUM_WINDOWS)])
    def test_table_rows_equal_full_correlation(self, quick, noiseless, monkeypatch,
                                               name, candidates):
        # The search makes two batched correlations: every pair of every
        # sub-window, then every pair of every winning window (here one).
        # Each delay and peak equals the full-mode np.correlate reference on
        # that pair's slices, bit for bit; a pair with a zeroed slice is NaN.
        scenario, filtered, onsets, run = self.case(quick, noiseless, name)
        array = scenario.array
        calls = []
        real = dsp._delays

        def recorded(a, b, fs, max_lag):
            calls.append((a.shape, max_lag, *real(a, b, fs, max_lag)))
            return calls[-1][2:]

        monkeypatch.setattr(dsp, "_delays", recorded)
        tdoa, diagnostics = search_one(filtered, array, onsets, run)
        assert len(diagnostics["candidate_starts"]) == candidates
        sub_windows = candidates + NUM_SUBWINDOWS - 1
        win_len = int(round(WINDOW_DURATION * FS))
        max_lag = int(math.ceil(array.max_precise_spacing() / SOUND_SPEED * FS))
        [(table_shape, sub_max_lag, table, sub_peaks),
         (win_shape, win_max_lag, delays, peaks)] = calls
        assert table_shape == (len(PAIRS), sub_windows, self.SUB_LEN)
        assert sub_max_lag == min(max_lag, self.SUB_LEN - 1)
        assert win_shape == (len(PAIRS), 1, win_len)
        assert win_max_lag == min(max_lag, win_len - 1)

        precise = [filtered[ch] for ch in array.precise_channels]
        onset = diagnostics["candidate_starts"][0]
        for s in range(sub_windows):
            start = onset + s * self.SUB_LEN
            slices = [ch[start:start + self.SUB_LEN] for ch in precise]
            for p, (i, j) in enumerate(PAIRS):
                if not (slices[i].any() and slices[j].any()):
                    assert np.isnan(table[p, s]) and np.isnan(sub_peaks[p, s])
                    continue
                expected = full_correlation_delay(slices[i], slices[j], FS, sub_max_lag)
                assert (table[p, s], sub_peaks[p, s]) == expected
        nan_sub_windows = [s for s in range(sub_windows) if np.isnan(table[:, s]).any()]
        if name == "zeroed-sub-window":
            # Quad hydrophone 1 is silent in sub-window 2: its three pairs.
            assert nan_sub_windows == [2]
            assert [pair for p, pair in enumerate(PAIRS) if np.isnan(table[p, 2])] == [
                pair for pair in PAIRS if 1 in pair]
        else:
            assert nan_sub_windows == []

        start = tdoa.window[0]
        slices = [ch[start:start + win_len] for ch in precise]
        expected = [full_correlation_delay(slices[i], slices[j], FS, win_max_lag)
                    for i, j in PAIRS]
        assert peaks[:, 0].tolist() == [peak for _, peak in expected]
        assert delays[:, 0].tolist() == [delay for delay, _ in expected]
        assert tdoa.peak_correlations == tuple(peak for _, peak in expected)
        max_delay = array.max_precise_spacing() / SOUND_SPEED
        assert tdoa.pair_delays == tuple(float(np.clip(delay, -max_delay, max_delay))
                                         for delay, _ in expected)


class TestBatchedSearch:
    """One tdoa_from_filtered call over many runs gives each of them what
    the call with that run alone gives, bit for bit."""

    SUB_LEN = int(round(WINDOW_DURATION * FS)) // NUM_SUBWINDOWS

    @settings(max_examples=12, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**16), pings=st.integers(2, 4),
           position=st.sampled_from([(10.0, 5.0, -2.0), (-6.0, 8.0, 3.0), (4.0, -12.0, -5.0)]))
    def test_each_result_equals_its_search_alone(self, cascade, data, seed, pings, position):
        quick = load_scenario(CONFIGS / "scenario_quick.json")
        interval = quick.pinger.repetition_interval
        pinger = dataclasses.replace(quick.pinger, position=Vec3(*position))
        scenario = dataclasses.replace(quick, pinger=pinger, seed=seed,
                                       record_duration=pings * interval)
        recording = render_scene(scenario)
        array = scenario.array
        ref = array.precise_channels[0]
        filtered = filter_signal(cascade, recording.channels)
        _, onsets, runs = filter_and_scan(recording, cascade, array, SOUND_SPEED)
        assert len(runs) == pings

        # The row ends inside the final ping's search: it keeps 1 to
        # NUM_WINDOWS - 1 candidates. Crossings past the end are dropped.
        win_len = int(round(WINDOW_DURATION * FS))
        kept = data.draw(st.integers(1, NUM_WINDOWS - 1), label="kept")
        end = (runs[-1][0] + (kept - 1) * self.SUB_LEN + win_len
               + data.draw(st.integers(0, self.SUB_LEN - 1), label="slack"))
        filtered = filtered[:, :end].copy()
        onsets = {ch: found[found < end] for ch, found in onsets.items()}
        # Loud noise over an earlier ping's whole search leaves it no stable
        # window.
        glitched = data.draw(st.integers(0, pings - 2), label="glitched")
        span = int(round(SEARCH_SPAN * FS))
        rng = np.random.default_rng(seed)
        onset = runs[glitched][0]
        filtered[:, onset:onset + span] += rng.normal(
            0.0, 10.0 * np.max(np.abs(filtered)), (8, span))

        # A run with no room for one window, and runs anywhere else, whose
        # burst windows may miss every coarse onset.
        after = data.draw(st.integers(end - win_len + 1, end + 2_000), label="after")
        anywhere = st.tuples(st.integers(0, end + 2_000), st.integers(0, 3_000)).map(
            lambda run: (run[0], run[0] + run[1]))
        others = data.draw(st.lists(st.sampled_from(runs) | anywhere, max_size=6),
                           label="others")
        batch = data.draw(st.permutations([(after, after), runs[glitched], runs[-1], *others]),
                          label="batch")
        diagnostics = []
        batched = tdoa_from_filtered(filtered, FS, array, SOUND_SPEED, onsets, batch,
                                     diagnostics)
        assert len(batched) == len(diagnostics) == len(batch)
        for run, result, found in zip(batch, batched, diagnostics):
            alone, alone_found = search_one(filtered, array, onsets, run)
            # repr tells every float apart, -0.0 from 0.0 too, and an error's
            # class and message.
            assert type(result) is type(alone) and repr(result) == repr(alone), run
            assert repr(found) == repr(alone_found), run

        results = dict(zip(batch, zip(batched, diagnostics)))
        result, found = results[(after, after)]
        assert isinstance(result, NoPingError) and found == {}
        assert str(result).startswith("no ping: recording too short")
        result, found = results[runs[glitched]]
        assert isinstance(result, UnstableWindowError)
        assert len(found["candidate_starts"]) == NUM_WINDOWS
        assert len(results[runs[-1]][1]["candidate_starts"]) == kept
        # Without a run the recording is one ping that failed.
        diagnostics = []
        [result] = tdoa_from_filtered(filtered, FS, array, SOUND_SPEED, onsets, [], diagnostics)
        assert str(result) == f"no ping detected on reference channel {ref}"
        assert isinstance(result, NoPingError) and diagnostics == [{}]


class TestVecdotKernel:
    """The batched correlation's speed rests on np.vecdot summing each row
    with the same dot kernel as ndarray.dot: a row is bit-equal to the dot of
    the same slices, at any length, offset into its row, and scale."""

    @pytest.mark.parametrize("lengths", [range(1, 101), range(101, 201), range(201, 301),
                                         (1_000, 4_097)], ids=str)
    def test_rows_bit_equal_to_dot(self, lengths):
        rng = np.random.default_rng(len(lengths) + lengths[0])
        for n in lengths:
            rows = 3
            a = rng.normal(size=(rows, n + 16)) * 10.0 ** rng.uniform(-8, 8, size=(rows, 1))
            b = rng.normal(size=(rows, n + 16)) * 10.0 ** rng.uniform(-8, 8, size=(rows, 1))
            for _ in range(2):
                off_a, off_b = rng.integers(0, 17, size=2)
                x, y = a[:, off_a:off_a + n], b[:, off_b:off_b + n]
                batched = np.vecdot(x, y)
                assert batched.tolist() == [x[r].dot(y[r]) for r in range(rows)]
                assert np.vecdot(x[:, None], y[:, None])[:, 0].tolist() == batched.tolist()

