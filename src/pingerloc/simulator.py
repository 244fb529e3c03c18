"""Acoustic test rig: synthesize pinger bursts, propagate them spherically to
each hydrophone, emulate the analog front end, and add artificial noise.

Propagation is exact in time: each channel evaluates the continuous-time
burst expression at t - r/c per sample, so true inter-channel delays are not
quantized to the sample grid. Spreading is 1/r. Every stochastic step is a
pure function of its inputs and the seed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import signal as sps

from .dsp import design_bandpass, filter_signal
from .recording import MultiChannelRecording
from .scene import NoiseSpec, PingerSource, Scenario

__all__ = ["ping_waveform", "render_scene", "add_noise"]

RAMP_DURATION = 0.5e-3  # raised-cosine on/off ramp; a hard-keyed burst
                        # splatters energy across the band


def ping_waveform(t: np.ndarray, pinger: PingerSource) -> np.ndarray:
    """Continuous-time source signal sampled at arbitrary times ``t``
    (seconds): a raised-cosine-ramped sinusoidal burst at the carrier,
    repeating every repetition_interval, silent before t = 0."""
    t = np.asarray(t, dtype=float)
    period = pinger.repetition_interval
    # np.mod(t, period) is t itself on the open interval (0, period); only
    # the other samples take the call (at -0.0 it gives +0.0).
    u = t.copy()
    wrap = ~((t > 0.0) & (t < period))
    u[wrap] = np.mod(t[wrap], period)
    in_burst = (t >= 0.0) & (u < pinger.ping_duration)
    out = np.zeros_like(t)
    if not in_burst.any():
        return out

    ub = u[in_burst]
    ramp = min(RAMP_DURATION, pinger.ping_duration / 2.0)
    env = np.ones_like(ub)
    rising = ub < ramp
    env[rising] = 0.5 * (1.0 - np.cos(np.pi * ub[rising] / ramp))
    falling = ub > pinger.ping_duration - ramp
    env[falling] = 0.5 * (1.0 - np.cos(np.pi * (pinger.ping_duration - ub[falling]) / ramp))
    out[in_burst] = pinger.amplitude * env * np.sin(2.0 * np.pi * pinger.frequency * ub)
    return out


def render_scene(scenario: Scenario) -> MultiChannelRecording:
    """Simulate one capture: per channel, gain * bandpass(source(t - r/c) / r)
    plus noise drawn from the scenario seed. Deterministic given the seed.

    The source is evaluated only on each burst's samples, from two samples
    before its arrival to two after its end (the margin covers rounding in
    ``ping_waveform``'s modulo), into one float64 block that spans every
    channel's bursts; every other pressure sample is exactly 0, as the
    full-grid evaluation gives there. Each sample goes through the same
    elementwise arithmetic either way, so the pressure is the same. The block
    is filtered straight into the float32 channels, which hold exactly +0.0
    wherever no burst or filter tail reaches (the gain is positive, so that
    is 0.0 * gain)."""
    fs = scenario.sample_rate
    n = int(round(scenario.record_duration * fs))
    pinger = scenario.pinger
    source = pinger.position.as_array()
    fe = scenario.front_end
    sos = design_bandpass(fe.analog_order, fe.analog_band_low, fe.analog_band_high, fs)

    bursts = []
    for ch in range(8):
        r = float(np.linalg.norm(source - scenario.array.channel_position(ch).as_array()))
        delay = r / scenario.sound_speed
        for start in np.arange(delay, n / fs, pinger.repetition_interval):
            i0 = max(math.floor(start * fs) - 2, 0)
            i1 = min(math.ceil((start + pinger.ping_duration) * fs) + 2, n)
            bursts.append((ch, i0, i1, delay, r))
    lo = min((i0 for _, i0, _, _, _ in bursts), default=n)
    hi = max((i1 for _, _, i1, _, _ in bursts), default=n)
    block = np.zeros((8, hi - lo))
    for ch, i0, i1, delay, r in bursts:
        block[ch, i0 - lo:i1 - lo] = ping_waveform(np.arange(i0, i1) / fs - delay, pinger) / r
    channels = np.zeros((8, n), np.float32)
    filter_signal(sos, block, out=channels[:, lo:], gain=fe.gain)

    clean = MultiChannelRecording(sample_rate=fs, channels=channels)
    return add_noise(clean, scenario.noise, scenario.seed)


def add_noise(recording: MultiChannelRecording, noise: NoiseSpec, seed: int) -> MultiChannelRecording:
    """New recording with per-channel noise added: white Gaussian, a
    narrowband interferer with a per-channel random phase, and low-passed
    white noise rescaled to RMS lowfreq_amp. Deterministic given the seed.
    A silent spec returns ``recording`` itself, which is read-only.

    One generator draws each channel's noise in turn, so the noise of a
    recording's first k rows is the first k rows of its whole noise:
    ``add_noise`` on those rows alone gives the same samples."""
    if noise.is_silent():
        return recording

    rng = np.random.default_rng(seed)
    fs = recording.sample_rate
    n = recording.samples_per_channel
    if noise.interferer_amp > 0:
        t = np.arange(n) / fs

    lp_sos = None
    if noise.lowfreq_amp > 0 and 0 < noise.lowfreq_cutoff < fs / 2:
        lp_sos = sps.butter(2, noise.lowfreq_cutoff, btype="lowpass", output="sos", fs=fs)

    out = np.empty_like(recording.channels, dtype=np.float32)
    for ch in range(recording.channel_count):
        total = recording.channels[ch].astype(float)
        if noise.white_sigma > 0:
            total = total + rng.normal(0.0, noise.white_sigma, n)
        if noise.interferer_amp > 0:
            phase = rng.uniform(0.0, 2.0 * np.pi)
            total = total + noise.interferer_amp * np.sin(
                2.0 * np.pi * noise.interferer_freq * t + phase
            )
        if noise.lowfreq_amp > 0:
            raw = rng.normal(0.0, 1.0, n)
            if lp_sos is not None:
                raw = sps.sosfilt(lp_sos, raw)
            rms = float(np.sqrt(np.mean(np.square(raw))))
            if rms > 0:
                total = total + noise.lowfreq_amp / rms * raw
        # Noise beyond float32's range becomes inf, which the recording
        # refuses as non-finite samples.
        with np.errstate(over="ignore"):
            out[ch] = total.astype(np.float32)

    return MultiChannelRecording(sample_rate=fs, channels=out)
