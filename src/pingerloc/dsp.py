"""Software front-end: Butterworth bandpass filtering, ping onset detection,
cross-correlation delay estimation, and variance-based selection of a stable
analysis window.

Filtering is causal (forward only). The group delay is then identical on
every channel and cancels in every time difference between two channels,
which is what the delay estimates feed on.

Onsets are thresholded against one noise floor, the reference (first
precise) channel's: the reference scan sets the cutoff and every coarse
channel is scanned against it. A hydrophone much noisier than the reference
therefore crosses early.

Channel labels are read only in the front end: a ``TdoaSet`` is in quad
order, its six precise-quad pairs in ``PAIRS`` order.
"""

from __future__ import annotations

import functools
import math
import time
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np
from scipy import signal as sps

from .recording import MultiChannelRecording
from .scene import HydrophoneArray

__all__ = [
    "PAIRS",
    "TdoaSet",
    "NoPingError",
    "UnstableWindowError",
    "DegenerateSignalError",
    "design_bandpass",
    "filter_signal",
    "detect_ping",
    "first_onset",
    "filter_and_scan",
    "estimate_delay",
    "select_stable_window",
]

# Onset detection: a sample is in a ping where the trailing moving RMS over
# RMS_WINDOW exceeds ONSET_THRESHOLD times the reference channel's median
# moving RMS.
ONSET_THRESHOLD = 5.0
RMS_WINDOW = 1e-3  # s

# Stable-window search. A candidate window is NUM_SUBWINDOWS consecutive
# sub-windows of WINDOW_DURATION / NUM_SUBWINDOWS; candidates start every
# sub-window from the onset. The summed variance of the six pair delays
# across a candidate's sub-windows scores it. A winning score above
# (MAX_DELAY_SPREAD_SAMPLES / fs)^2 marks the ping as unstable.
WINDOW_DURATION = 2e-3  # s
NUM_WINDOWS = 8
NUM_SUBWINDOWS = 4
MAX_DELAY_SPREAD_SAMPLES = 0.5
# Seconds from the onset to the end of the last candidate window.
SEARCH_SPAN = (NUM_WINDOWS - 1) * WINDOW_DURATION / NUM_SUBWINDOWS + WINDOW_DURATION

# The one definition of pair order: the six precise-quad pairs as (i, j) quad indices, i < j.
PAIRS = tuple((i, j) for i in range(4) for j in range(i + 1, 4))


class NoPingError(RuntimeError):
    """No ping onset was found."""


class UnstableWindowError(RuntimeError):
    """Every candidate window shows too much delay variance."""


class DegenerateSignalError(ValueError):
    """Correlation input has no energy."""


@dataclass(frozen=True)
class TdoaSet:
    """Everything the position solver consumes, in quad order: the reference
    channel's absolute onset (s); the six precise-quad pair delays (s)
    measured in the chosen window, in ``PAIRS`` order, positive for (i, j)
    when quad hydrophone i hears later than j, with their peak normalized
    correlations; the coarse quad's absolute onsets (s); and the window's
    (start sample, length)."""

    onset_time_abs: float
    pair_delays: tuple[float, ...]
    peak_correlations: tuple[float, ...]
    coarse_arrivals: tuple[float, ...]
    window: tuple[int, int]


def design_bandpass(order: int, f_lo: float, f_hi: float, fs: float) -> np.ndarray:
    """Butterworth bandpass of the given total order (even, >= 2): analog
    prototype, band transform, bilinear transform with prewarped edges,
    factored into order/2 second-order sections. Returns scipy's
    (order/2, 6) SOS array, rows [b0, b1, b2, 1, a1, a2]. Band edges land at
    1/sqrt(2) of the passband peak."""
    if not (0 < f_lo < f_hi < fs / 2):
        raise ValueError(f"band must satisfy 0 < f_lo < f_hi < fs/2, got {f_lo}/{f_hi} at fs={fs}")
    if order < 2 or order % 2 != 0:
        raise ValueError(f"order must be even and >= 2, got {order}")
    # A fresh copy each call: sosfilt refuses a read-only SOS array.
    return _butter_bandpass(order, f_lo, f_hi, fs).copy()


@functools.lru_cache(maxsize=16)
def _butter_bandpass(order: int, f_lo: float, f_hi: float, fs: float) -> np.ndarray:
    """scipy's design for one band, made once: a Monte Carlo trial renders
    and localizes through the same front-end band. Read-only, since every
    caller shares it."""
    sos = sps.butter(order // 2, [f_lo, f_hi], btype="bandpass", output="sos", fs=fs)
    sos.flags.writeable = False
    return sos


def filter_signal(sos: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """Causal forward filtering with zero initial state along the last axis,
    so an (8, n) recording filters row by row in one call. Returns a float64
    array of the input's shape (empty for an empty last axis, which sosfilt
    rejects). Rows that end in a nonzero sample (every noisy recording) take
    one full-length sosfilt call. Rows whose last sample is 0 are filtered
    together, each only until its tail is quiet, and hold zeros after that
    (``_filter_to_silence``)."""
    samples = np.asarray(samples)
    n = samples.shape[-1]
    if n == 0:
        return np.zeros(samples.shape)
    silent_end = samples[..., -1] == 0
    if not silent_end.any():
        return sps.sosfilt(sos, samples)
    rows = samples.reshape(-1, n)
    silent_end = silent_end.reshape(-1)
    # Zeroed pages that a cut tail never writes take no memory.
    out = np.zeros(rows.shape)
    if not silent_end.all():
        out[~silent_end] = sps.sosfilt(sos, rows[~silent_end])
    _filter_to_silence(sos, rows, np.flatnonzero(silent_end), out)
    return out.reshape(samples.shape)


# A zero-input tail is cut once every section state is below _QUIET_STATE.
# That is still a normal float64 (>= 2.2e-308), so the output is cut before
# it decays into subnormals, whose arithmetic runs some 40x slower. Every
# output the full filter would give after the cut is near 1e-200 or below:
# its square and its product with a neighbouring channel's tail sample
# (whose burst ends within the array's aperture / c, so it is tiny too)
# underflow to exactly 0.0, and times any front-end gain below 1e150 it
# rounds to 0 in float32 (smallest subnormal 1.4e-45). Writing 0.0 there
# changes no energy, correlation or float32 recording, only the sign of
# some zeros.
_QUIET_STATE = 1e-200
# Samples per zero-input tail call. The front end's bandpass (order 4,
# 30-50 kHz at 500 kHz) decays about 32 decades per 1000 samples, so the
# output at the cut is at most some 65 decades below _QUIET_STATE, still
# normal. A faster-decaying section's state may go subnormal in the last
# chunk; that costs at most one chunk of slow arithmetic per row.
_TAIL_CHUNK = 2048


def _filter_to_silence(sos: np.ndarray, rows: np.ndarray, keep: np.ndarray,
                       out: np.ndarray) -> None:
    """Filter ``rows[keep]`` into ``out[keep]``, which holds zeros,
    byte-identical to a full-length filter up to each row's cut. One call
    filters every row's span (first to last nonzero sample) right-aligned in
    one buffer; the zero state stays exactly zero through the padding, as
    through a row's own leading zeros. Then zero-input chunks, counted from
    each row's own last nonzero sample, run over the rows whose state is not
    yet quiet, so no row decays into subnormal floats."""
    n = rows.shape[1]
    # A bool mask, an eighth of a float64 copy of the rows.
    nonzero = (rows != 0)[keep]
    heard = nonzero.any(axis=1)
    keep, nonzero = keep[heard], nonzero[heard]
    if not keep.size:
        return
    start = np.argmax(nonzero, axis=1)
    stop = n - np.argmax(nonzero[:, ::-1], axis=1)
    head = int(np.max(stop - start))
    pad = head - (stop - start)
    spans = np.zeros((keep.size, head))
    for j, k in enumerate(keep):
        spans[j, pad[j]:] = rows[k, start[j]:stop[j]]
    spans, zi = sps.sosfilt(sos, spans, zi=np.zeros((len(sos), keep.size, 2)))
    for j, k in enumerate(keep):
        out[k, start[j]:stop[j]] = spans[j, pad[j]:]

    silence = np.zeros((keep.size, _TAIL_CHUNK))
    while True:
        live = (stop < n) & (np.abs(zi).max(axis=(0, 2)) >= _QUIET_STATE)
        if not live.any():
            return
        keep, stop, zi = keep[live], stop[live], zi[:, live]
        tail, zi = sps.sosfilt(sos, silence[:keep.size], zi=zi)
        for j, k in enumerate(keep):
            step = min(_TAIL_CHUNK, n - stop[j])
            out[k, stop[j]:stop[j] + step] = tail[j, :step]
        stop = stop + _TAIL_CHUNK


def _moving_mean_square(samples: np.ndarray, window: int) -> np.ndarray:
    """Trailing mean square over the last ``window`` samples (shorter at the
    start)."""
    ms = np.square(np.asarray(samples, dtype=float))
    n = len(ms)
    csum = np.empty(n + 1)
    csum[0] = 0.0
    np.cumsum(ms, out=csum[1:])
    # The mean square overwrites the squares: over the first ``window``
    # samples the count ramps up, after them it is ``window``.
    ramp = min(window, n)
    np.divide(csum[1:ramp + 1], np.arange(1, ramp + 1), out=ms[:ramp])
    steady = np.subtract(csum[ramp + 1:], csum[1:n - ramp + 1], out=ms[ramp:])
    np.maximum(steady, 0.0, out=steady)
    steady /= window
    return ms


def _median_root(ms: np.ndarray) -> float:
    """``np.median(np.sqrt(ms))`` of non-negative mean squares, without the
    square-root pass. sqrt is correctly rounded, hence monotone, so the middle
    order statistics of sqrt(ms) are the square roots of those of ms, and
    np.median averages the two of an even count as (lo + hi) / 2. Only the
    positive values are partitioned: numpy's selection stalls when a block of
    equal values, the exact zeros of a silent stretch, sits at the rank."""
    # A NaN anywhere reaches the last mean square: the cumulative sum carries
    # it, and an inf ahead of the last window leaves inf - inf there.
    if math.isnan(ms[-1]):
        return math.nan
    n = ms.size
    # A noisy row has no exact zero, and a copy is cheaper than the selection.
    pos = ms.copy() if ms.min() > 0 else ms[ms > 0]
    # Rank of the upper (or only) middle value among the positives.
    k = n // 2 - (n - pos.size)
    if k < 0:
        return 0.0
    pos.partition(k)
    hi = math.sqrt(pos[k])
    if n % 2:
        return hi
    lo = math.sqrt(pos[:k].max()) if k else 0.0
    return (lo + hi) / 2


def _square_cutoff(threshold: float) -> float:
    """The largest double c with sqrt(c) <= ``threshold`` (>= 0): for x >= 0,
    sqrt(x) > threshold exactly when x > c. c starts at threshold² and moves
    at most a few ulps. A NaN threshold gives NaN, which no x exceeds."""
    c = threshold * threshold
    while math.sqrt(c) > threshold:
        c = math.nextafter(c, 0.0)
    while c < math.inf and math.sqrt(math.nextafter(c, math.inf)) <= threshold:
        c = math.nextafter(c, math.inf)
    return c


def detect_ping(samples: np.ndarray, fs: float,
                cutoff: float | None = None) -> tuple[np.ndarray, float]:
    """(crossings, cutoff): the ascending indices of one channel's samples
    whose trailing mean square over RMS_WINDOW exceeds ``cutoff``, and that
    cutoff. With ``cutoff`` None it is the channel's own: the largest mean
    square whose root is at most ONSET_THRESHOLD times the noise floor, the
    median moving RMS of the whole channel (``_median_root``,
    ``_square_cutoff``, so no square root is taken per sample). Meant to run
    once per channel and recording; ``first_onset`` then reads each ping's
    onset off the crossings. The mean square is trailing, so the crossings of
    a row's prefix are the whole row's, cut at its length."""
    if np.size(samples) == 0:
        return np.empty(0, dtype=np.intp), math.nan if cutoff is None else cutoff
    w = max(1, int(round(RMS_WINDOW * fs)))
    ms = _moving_mean_square(samples, w)
    if cutoff is None:
        cutoff = _square_cutoff(ONSET_THRESHOLD * _median_root(ms))
    return np.flatnonzero(ms > cutoff), cutoff


def first_onset(onsets: np.ndarray, start: int) -> int:
    """The first of ``detect_ping``'s crossings at or after ``start``. Raises
    NoPingError when there is none."""
    k = int(np.searchsorted(onsets, start))
    if k == len(onsets):
        raise NoPingError("no ping detected")
    return int(onsets[k])


def estimate_delay(a: np.ndarray, b: np.ndarray, fs: float,
                   max_lag_samples: int) -> tuple[float, float]:
    """(delay_s, peak_correlation): the normalized cross-correlation delay
    between two equal-length windows, positive when ``a`` hears later than
    ``b``, searched over lags within +/- max_lag_samples and refined to
    sub-sample precision with a three-point parabolic fit of the correlation
    peak, and the normalized correlation at the peak lag.

    Only the lags it reads are summed: the 2 * max_lag_samples + 1 searched
    lags and the two beyond them that the fit may need, each as one dot
    product over the overlap, so 2 * max_lag_samples + 3 lag sums. From 12
    samples up each sum is bit-equal to the same lag of a full-mode
    ``np.correlate``; below that numpy's correlate takes another kernel and
    the two agree to within a few ulps."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"inputs must be equal-length 1-D arrays, got {a.shape} and {b.shape}")
    norm = math.sqrt(a.dot(a)) * math.sqrt(b.dot(b))
    if norm == 0.0:
        raise DegenerateSignalError("degenerate signal: zero energy")
    n = len(a)
    max_lag = int(max_lag_samples)
    if max_lag < 0 or max_lag > n - 1:
        raise ValueError(f"max_lag_samples must be in [0, {n - 1}], got {max_lag}")

    # corr[max_lag + 1 + lag] = sum_n a[n] b[n - lag]; a copy of a delayed by
    # d in b peaks at lag -d. A neighbour lag past the overlap (|lag| = n) is
    # None.
    corr = [None if abs(lag) >= n
            else a[lag:].dot(b[:n - lag]) if lag >= 0
            else a[:n + lag].dot(b[-lag:])
            for lag in range(-max_lag - 1, max_lag + 2)]
    # The first of equal maxima, as np.argmax takes it.
    k = max(range(1, 2 * max_lag + 2), key=corr.__getitem__)
    lag = float(k - max_lag - 1)

    # Parabolic vertex through the peak and its immediate neighbors.
    y_m, y_0, y_p = corr[k - 1], corr[k], corr[k + 1]
    if y_m is not None and y_p is not None:
        denom = y_m - 2.0 * y_0 + y_p
        if denom < 0.0:
            offset = float(0.5 * (y_m - y_p) / denom)
            lag += min(max(offset, -1.0), 1.0)
    lag = min(max(lag, -float(max_lag)), float(max_lag))

    peak = min(max(float(y_0 / norm), -1.0), 1.0)
    return lag / fs, peak


def _pair_delays(precise: list[np.ndarray], start: int, length: int, fs: float,
                 max_lag: int) -> list[tuple[float, float]]:
    """estimate_delay over one slice of the precise quad, for each pair in
    PAIRS order. Raises DegenerateSignalError if a slice has no energy."""
    slices = [ch[start : start + length] for ch in precise]
    return [estimate_delay(slices[i], slices[j], fs, max_lag) for i, j in PAIRS]


def _window_lengths(fs: float) -> tuple[int, int]:
    """(window, sub-window) length in samples at ``fs``."""
    win_len = int(round(WINDOW_DURATION * fs))
    return win_len, win_len // NUM_SUBWINDOWS


def filter_and_scan(recording: MultiChannelRecording, sos: np.ndarray, array: HydrophoneArray,
                    sound_speed: float, timing: dict | None = None
                    ) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
    """The localizer's front end. Filters and scans the reference (first
    precise) channel over the whole recording; its scan sets the mean-square
    cutoff. Then it filters the other seven channels in one
    ``filter_signal`` call over ``[0, end)`` and scans the coarse ones
    against that cutoff. ``end`` covers, after the reference channel's last
    crossing, both the end of the last candidate window and the widest
    coarse-to-reference distance over ``sound_speed`` (m/s), the most by
    which a coarse channel can hear a ping after the reference.

    Returns (rows, onsets): channel -> filtered row and channel -> onset
    indices (reference and coarse channels). Every row is byte-equal to the
    same span of ``filter_signal`` over the whole recording, so a coarse
    channel's onsets are the whole row's crossings of the reference cutoff
    below ``end``; the reference row is full length. If ``timing`` is a dict
    it gets the milliseconds spent filtering ("filter", both calls) and
    scanning ("onset")."""
    channels = recording.channels
    fs = recording.sample_rate
    n = channels.shape[1]
    ref = array.precise_channels[0]
    rest = [*array.precise_channels[1:], *array.coarse_channels]

    t_start = time.perf_counter()
    rows = {ref: filter_signal(sos, channels[ref])}
    t_scan = time.perf_counter()
    crossings, cutoff = detect_ping(rows[ref], fs)
    t_rest = time.perf_counter()

    end = 0
    if crossings.size:
        win_len, sub_len = _window_lengths(fs)
        lead = np.linalg.norm(array.coarse_positions_array() - array.precise[0].as_array(),
                              axis=1).max()
        reach = max((NUM_WINDOWS - 1) * sub_len + win_len,
                    math.ceil(lead / sound_speed * fs) + 1)
        end = min(n, int(crossings[-1]) + reach)
    # filter_signal stops a row that ends in 0 once its tail is quiet; a
    # channel that resumes after the bound runs on in the full-length filter,
    # so such rows are filtered to the end.
    if 0 < end < n and any(channels[ch, end - 1] == 0 and channels[ch, end:].any()
                           for ch in rest):
        end = n
    rows.update(zip(rest, filter_signal(sos, channels[rest, :end])))
    t_coarse = time.perf_counter()
    onsets = {ref: crossings}
    onsets.update((ch, detect_ping(rows[ch], fs, cutoff)[0]) for ch in array.coarse_channels)
    t_end = time.perf_counter()

    if timing is not None:
        timing["filter"] = (t_scan - t_start + t_coarse - t_rest) * 1e3
        timing["onset"] = (t_rest - t_scan + t_end - t_coarse) * 1e3
    return rows, onsets


def select_stable_window(recording: MultiChannelRecording, sos: np.ndarray,
                         array: HydrophoneArray, sound_speed: float,
                         start_sample: int = 0) -> TdoaSet:
    """``filter_and_scan``, then ``tdoa_from_filtered``."""
    if recording.channel_count != 8:
        raise ValueError(f"expected 8 channels, got {recording.channel_count}")
    rows, onsets = filter_and_scan(recording, sos, array, sound_speed)
    return tdoa_from_filtered(rows, recording.sample_rate, array, sound_speed, onsets,
                              start_sample)


def _onset_after(onsets: dict[int, np.ndarray], channel: int, start: int, kind: str) -> int:
    """first_onset on one channel, whose NoPingError names the channel."""
    try:
        return first_onset(onsets[channel], start)
    except NoPingError:
        raise NoPingError(f"no ping detected on {kind} channel {channel}") from None


def tdoa_from_filtered(filtered: Mapping[int, np.ndarray], fs: float, array: HydrophoneArray,
                       sound_speed: float, onsets: dict[int, np.ndarray],
                       start_sample: int = 0, diagnostics: dict | None = None) -> TdoaSet:
    """Stable-window search on already-filtered channels, given their
    onsets. ``filtered[k]`` is channel k's row, as the mapping
    ``filter_and_scan`` returns or an (8, n) array. The recording's length
    is the reference (first precise) row's; the other precise rows need only
    reach the end of the last candidate window, and the coarse rows are read
    only through ``onsets``. From the reference channel's
    first onset at or after ``start_sample``, candidate windows start every
    sub-window; the one whose six pair delays are most repeatable across
    its sub-windows wins. Returns the TdoaSet measured over the winning
    window, plus the coarse quad's onsets. ``sound_speed`` (m/s, the
    scenario's) bounds every delay by the widest precise spacing over it. If
    ``diagnostics`` is a dict it is filled with the candidate window starts,
    their variance scores, and the chosen index."""
    onset = _onset_after(onsets, array.precise_channels[0], start_sample, "reference")
    n_total = len(filtered[array.precise_channels[0]])

    win_len, sub_len = _window_lengths(fs)
    if sub_len < 2:
        raise ValueError(f"sample rate {fs} Hz too low for {NUM_SUBWINDOWS} sub-windows "
                         f"of a {WINDOW_DURATION} s window")

    # No true delay can exceed the widest spacing over c. The lag search stays
    # inside it: with sub-half-wavelength spacing that excludes the
    # correlation peaks one carrier cycle off.
    max_delay = array.max_precise_spacing() / sound_speed
    max_lag = int(math.ceil(max_delay * fs))

    precise = [filtered[ch] for ch in array.precise_channels]
    starts = [onset + k * sub_len for k in range(NUM_WINDOWS)
              if onset + k * sub_len + win_len <= n_total]
    if not starts:
        raise NoPingError("no ping: recording too short for one analysis window after onset")

    # Candidate w is sub-windows w .. w + NUM_SUBWINDOWS - 1, so each
    # sub-window's six pair delays are measured once, into one table row; a
    # sub-window without energy leaves its row NaN and scores its candidates
    # inf. A candidate scores the summed sample variance of its rows: one
    # overlapping a glitch or the burst's tail scores high and loses.
    sub_delays = np.full((len(starts) + NUM_SUBWINDOWS - 1, len(PAIRS)), np.nan)
    sub_max_lag = min(max_lag, sub_len - 1)
    for s, row in enumerate(sub_delays):
        try:
            row[:] = [delay for delay, _ in _pair_delays(precise, onset + s * sub_len,
                                                         sub_len, fs, sub_max_lag)]
        except DegenerateSignalError:
            pass
    scores = np.array([np.var(sub_delays[w:w + NUM_SUBWINDOWS], axis=0, ddof=1).sum()
                       for w in range(len(starts))])
    scores[np.isnan(scores)] = np.inf

    best = int(np.argmin(scores))
    best_var = float(scores[best])
    if diagnostics is not None:
        diagnostics["candidate_starts"] = list(starts)
        diagnostics["variance_scores"] = [float(s) for s in scores]
        diagnostics["chosen_candidate"] = best
    if not np.isfinite(best_var):
        raise UnstableWindowError("unstable window: no candidate produced usable delays")
    max_variance = (MAX_DELAY_SPREAD_SAMPLES / fs) ** 2
    if best_var > max_variance:
        raise UnstableWindowError(
            f"unstable window: best summed delay variance {best_var:.3e} s^2 "
            f"exceeds limit {max_variance:.3e} s^2"
        )

    # Noise-pushed estimates snap back to the feasible interval. The winning
    # window's sub-windows all had energy, so its own slices have too.
    chosen = starts[best]
    delays, peaks = zip(*_pair_delays(precise, chosen, win_len, fs, min(max_lag, win_len - 1)))
    return TdoaSet(
        onset_time_abs=onset / fs,
        pair_delays=tuple(float(np.clip(d, -max_delay, max_delay)) for d in delays),
        peak_correlations=peaks,
        coarse_arrivals=tuple(_onset_after(onsets, ch, start_sample, "coarse") / fs
                              for ch in array.coarse_channels),
        window=(chosen, win_len),
    )
