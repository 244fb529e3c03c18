"""Software front-end: Butterworth bandpass filtering, ping onset detection,
cross-correlation delay estimation, and variance-based selection of a stable
analysis window.

Filtering is causal (forward only). The group delay is then identical on
every channel and cancels in every time difference between two channels,
which is what the delay estimates feed on.

Onsets are thresholded against one noise floor, the reference (first
precise) channel's: the reference scan sets the cutoff and every coarse
channel is scanned against it. A hydrophone much noisier than the reference
therefore crosses early. A ping is a run of reference crossings, split
where two are far enough apart that the pings' burst windows do not overlap
(``scan_reference``). The coarse channels are filtered and scanned only in
those burst windows, and each ping reads its coarse onsets in its own
window, so a coarse crossing far from every reference burst is not seen.

Channel labels are read only in the front end: a ``TdoaSet`` is in quad
order, its six precise-quad pairs in ``PAIRS`` order.
"""

from __future__ import annotations

import cmath
import functools
import math
import time
from collections.abc import Mapping, Sequence
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
    "scan_reference",
    "filter_and_scan",
    "estimate_delay",
    "select_stable_window",
    "tdoa_from_filtered",
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


def filter_signal(sos: np.ndarray, samples: np.ndarray, out: np.ndarray | None = None,
                  gain: float = 1.0) -> np.ndarray:
    """Causal forward filtering with zero initial state along the last axis,
    so an (8, n) recording filters row by row in one call, times ``gain``.
    Returns a float64 array of the input's shape (empty for an empty last
    axis, which sosfilt rejects). Unscaled rows that all end in a nonzero
    sample (every noisy recording) take one full-length sosfilt call.
    Otherwise each row is filtered only from its first to its last nonzero
    sample and on until its tail is quiet, and holds zeros elsewhere
    (``_filter_to_silence``).

    With ``out`` (1-D or 2-D, zeros, a last axis at least as long as the
    input's), the result is written there instead, each product rounded
    once to out's dtype, and ``out`` is returned. The input counts as zero
    past its end, so a short block of bursts filters into a long float32
    recording without a float64 copy of it."""
    samples = np.asarray(samples)
    if out is None:
        if gain == 1.0 and samples.shape[-1] and (samples[..., -1] != 0).all():
            return sps.sosfilt(sos, samples)
        # Zeroed pages that a cut tail never writes take no memory.
        out = np.zeros(samples.shape)
    rows = samples.reshape(math.prod(samples.shape[:-1]), samples.shape[-1])
    _filter_to_silence(sos, rows, out.reshape(len(rows), out.shape[-1]), gain)
    return out


# A zero-input tail is cut once every section state is below a quiet level
# set by out's dtype: _QUIET_STATE, or for a coarser dtype the larger
# smallest_subnormal / (gain * _QUIET_MARGIN) (``_quiet_level``).
#
# _QUIET_STATE is still a normal float64 (>= 2.2e-308), so the output is cut
# before it decays into subnormals, whose arithmetic runs some 40x slower.
# Every output the full filter would give after the cut is near 1e-200 or
# below: its square and its product with a neighbouring channel's tail
# sample (whose burst ends within the array's aperture / c, so it is tiny
# too) underflow to exactly 0.0. A float64 ``out`` with any gain above about
# 5e-134 keeps this level.
#
# A float32 ``out`` holds nothing below its smallest subnormal, 1.4e-45, so
# its tail is cut far sooner: at 1.4e-56 for the front end's gain of 10.
# From a state below that level the whole zero-input response of the
# Butterworth bandpasses this package designs (orders 2-8, bands down to
# 1 kHz wide, 200 kHz to 1 MHz sampling) stays below 2e7 times the
# largest state, so gain times every output past the cut is below 1e-2 of
# the smallest subnormal and rounds to zero in float32, as writing 0.0
# there does. Either way, the cut changes no energy, correlation or float32
# recording, only the sign of some zeros.
_QUIET_STATE = 1e-200
_QUIET_MARGIN = 1e10
# Samples per zero-input tail call. The front end's bandpass (order 4,
# 30-50 kHz at 500 kHz) decays about 32 decades per 1000 samples, so the
# output at the cut is at most some 65 decades below _QUIET_STATE, still
# normal. A faster-decaying section's state may go subnormal in the last
# chunk; that costs at most one chunk of slow arithmetic per row.
_TAIL_CHUNK = 2048


def _filter_to_silence(sos: np.ndarray, rows: np.ndarray, out: np.ndarray,
                       gain: float) -> None:
    """Write ``gain`` times the filtered ``rows`` into ``out``, which holds
    zeros and may be longer (the input is zero past its end), byte-identical
    to a full-length filter up to each row's cut. One call filters every
    row's span (first to last nonzero sample) right-aligned in one buffer;
    the zero state stays exactly zero through the padding, as through a
    row's own leading zeros. Then zero-input chunks, counted from each row's
    own last nonzero sample, run over the rows whose state is not yet quiet,
    so no row decays into subnormal floats."""
    n = out.shape[1]
    nonzero = rows != 0
    keep = np.flatnonzero(nonzero.any(axis=1))
    if not keep.size:
        return
    nonzero = nonzero[keep]
    start = np.argmax(nonzero, axis=1)
    stop = rows.shape[1] - np.argmax(nonzero[:, ::-1], axis=1)
    head = int(np.max(stop - start))
    pad = head - (stop - start)
    spans = np.zeros((keep.size, head))
    for j, k in enumerate(keep):
        spans[j, pad[j]:] = rows[k, start[j]:stop[j]]
    spans, zi = sps.sosfilt(sos, spans, zi=np.zeros((len(sos), keep.size, 2)))
    for j, k in enumerate(keep):
        np.multiply(spans[j, pad[j]:], gain, out=out[k, start[j]:stop[j]], casting="same_kind")

    quiet = _quiet_level(out.dtype, gain)
    silence = np.zeros((keep.size, _TAIL_CHUNK))
    while True:
        live = (stop < n) & (np.abs(zi).max(axis=(0, 2)) >= quiet)
        if not live.any():
            return
        keep, stop, zi = keep[live], stop[live], zi[:, live]
        tail, zi = sps.sosfilt(sos, silence[:keep.size], zi=zi)
        for j, k in enumerate(keep):
            step = min(_TAIL_CHUNK, n - stop[j])
            np.multiply(tail[j, :step], gain, out=out[k, stop[j]:stop[j] + step],
                        casting="same_kind")
        stop = stop + _TAIL_CHUNK


def _quiet_level(dtype: np.dtype, gain: float) -> float:
    """The section state below which a zero-input tail written into ``dtype``
    at ``gain`` is cut: _QUIET_STATE, or higher where gain times the tail
    rounds to zero in ``dtype`` sooner."""
    if not gain:
        return _QUIET_STATE
    smallest = float(np.finfo(dtype).smallest_subnormal)
    return max(_QUIET_STATE, smallest / (abs(gain) * _QUIET_MARGIN))


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
    # The squares are >= 0, so the cumulative sum never decreases (fl(a + b)
    # >= a for b >= 0) and no window difference is negative.
    steady = np.subtract(csum[ramp + 1:], csum[1:n - ramp + 1], out=ms[ramp:])
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
    once per channel and recording. The mean square is trailing, so the
    crossings of a row's prefix are the whole row's, cut at its length."""
    if np.size(samples) == 0:
        return np.empty(0, dtype=np.intp), math.nan if cutoff is None else cutoff
    ms = _moving_mean_square(samples, _rms_window(fs))
    if cutoff is None:
        cutoff = _square_cutoff(ONSET_THRESHOLD * _median_root(ms))
    return np.flatnonzero(ms > cutoff), cutoff


def _rms_window(fs: float) -> int:
    """RMS_WINDOW in samples at ``fs``."""
    return max(1, int(round(RMS_WINDOW * fs)))


def estimate_delay(a: np.ndarray, b: np.ndarray, fs: float,
                   max_lag_samples: int) -> tuple[float, float]:
    """(delay_s, peak_correlation) of two equal-length windows by ``_delays``:
    the normalized cross-correlation delay, positive when ``a`` hears later
    than ``b``, searched within +/- max_lag_samples and refined by a
    three-point parabolic fit, and the normalized correlation at the peak
    lag. Raises DegenerateSignalError when a window has no energy."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"inputs must be equal-length 1-D arrays, got {a.shape} and {b.shape}")
    if math.sqrt(a.dot(a)) * math.sqrt(b.dot(b)) == 0.0:
        raise DegenerateSignalError("degenerate signal: zero energy")
    n = len(a)
    max_lag = int(max_lag_samples)
    if max_lag < 0 or max_lag > n - 1:
        raise ValueError(f"max_lag_samples must be in [0, {n - 1}], got {max_lag}")
    delay, peak = _delays(a, b, fs, max_lag)
    return float(delay), float(peak)


def _delays(a: np.ndarray, b: np.ndarray, fs: float,
            max_lag: int) -> tuple[np.ndarray, np.ndarray]:
    """(delays, peaks): ``estimate_delay`` element by element over stacks of
    windows ``a`` and ``b`` of shape (..., n), 0 <= max_lag < n; NaN where a
    window has no energy. Only the lags read are summed: the 2 * max_lag + 1
    searched and the two beyond them that the fit may need, each one
    ``np.vecdot`` over every window's overlap. np.vecdot sums each row with
    ndarray.dot's kernel, bit-equal to one pair's dot, and from 12 samples up
    to the same lag of a full-mode ``np.correlate`` (below that, within a few
    ulps: numpy's correlate takes another kernel)."""
    n = a.shape[-1]
    # corr[..., max_lag + 1 + lag] = sum_n a[n] b[n - lag]; a copy of a
    # delayed by d in b peaks at lag -d. A neighbour lag past the overlap
    # (|lag| = n) is NaN, so no parabola is fitted through it.
    corr = np.stack([np.full(a.shape[:-1], np.nan) if abs(lag) >= n
                     else np.vecdot(a[..., lag:], b[..., :n - lag]) if lag >= 0
                     else np.vecdot(a[..., :n + lag], b[..., -lag:])
                     for lag in range(-max_lag - 1, max_lag + 2)], axis=-1)
    # The first of equal maxima over the searched lags.
    k = np.argmax(corr[..., 1:-1], axis=-1, keepdims=True) + 1
    y_m, y_0, y_p = (np.take_along_axis(corr, k + d, axis=-1)[..., 0] for d in (-1, 0, 1))
    lag = (k[..., 0] - max_lag - 1).astype(float)

    with np.errstate(divide="ignore", invalid="ignore"):
        # Parabolic vertex through the peak and its immediate neighbours.
        denom = y_m - 2.0 * y_0 + y_p
        lag += np.where(denom < 0.0, np.clip(0.5 * (y_m - y_p) / denom, -1.0, 1.0), 0.0)
        lag = np.clip(lag, -float(max_lag), float(max_lag))
        norm = np.sqrt(np.vecdot(a, a)) * np.sqrt(np.vecdot(b, b))
        peak = np.clip(y_0 / norm, -1.0, 1.0)
    degenerate = norm == 0.0
    return np.where(degenerate, np.nan, lag / fs), np.where(degenerate, np.nan, peak)


def _window_lengths(fs: float) -> tuple[int, int]:
    """(window, sub-window) length in samples at ``fs``."""
    win_len = int(round(WINDOW_DURATION * fs))
    return win_len, win_len // NUM_SUBWINDOWS


# A coarse burst window's filter starts from a state other than the
# full-length filter's; it is kept once that start transient has decayed
# below _SETTLE_DECAY of its size, four decades under float64 rounding.
_SETTLE_DECAY = 1e-20


def _settle_samples(sos: np.ndarray) -> float:
    """Samples over which a start transient of ``sos`` decays below
    _SETTLE_DECAY of its size: log(_SETTLE_DECAY) / log(r), rounded up, for
    the slowest pole's radius r; inf for a pole that rounds onto the unit
    circle (a band a few ulps wide), which never settles. The front end's
    bandpass (order 4, 30-50 kHz at 500 kHz) settles in 624 samples."""
    # Each section's poles are the roots of z^2 + a1 z + a2.
    radius = max(abs(-a1 + sign * cmath.sqrt(a1 * a1 - 4.0 * a2)) / 2.0
                 for a1, a2 in sos[:, 4:].tolist() for sign in (1.0, -1.0))
    return math.ceil(math.log(_SETTLE_DECAY) / math.log(radius)) if radius < 1.0 else math.inf


def _burst_margins(array: HydrophoneArray, sound_speed: float, fs: float) -> tuple[int, int]:
    """(before, reach) in samples: a ping's burst window runs from ``before``
    ahead of its first reference crossing to ``reach`` past its last. reach
    covers the end of the last candidate window and the widest
    coarse-to-reference distance over ``sound_speed`` (m/s); before is that
    distance plus RMS_WINDOW, for a coarse hydrophone nearer the pinger."""
    win_len, sub_len = _window_lengths(fs)
    lead = np.linalg.norm(array.coarse_positions_array() - array.precise[0].as_array(),
                          axis=1).max()
    lag = math.ceil(lead / sound_speed * fs) + 1
    return lag + _rms_window(fs), max((NUM_WINDOWS - 1) * sub_len + win_len, lag)


def scan_reference(recording: MultiChannelRecording, sos: np.ndarray, array: HydrophoneArray,
                   sound_speed: float, timing: dict | None = None
                   ) -> tuple[np.ndarray, float, list[tuple[int, int]]]:
    """The front end's reference step: filters the reference (first precise)
    channel over the whole recording and scans it, which sets the mean-square
    cutoff. Returns (row, cutoff, runs): the filtered row, that cutoff, and
    its crossings split into runs [first, last], one per ping, where two are
    at least before + reach apart (``_burst_margins``), so that two pings'
    burst windows never overlap. A crossing in the first
    ``_settle_samples(sos)`` plus RMS_WINDOW samples is dropped: the filter
    starts from zero state, and a DC offset's step rings there. If
    ``timing`` is a dict it gets the milliseconds spent filtering ("filter")
    and scanning ("onset")."""
    fs = recording.sample_rate
    t_start = time.perf_counter()
    row = filter_signal(sos, recording.channels[array.precise_channels[0]])
    t_scan = time.perf_counter()
    crossings, cutoff = detect_ping(row, fs)
    crossings = crossings[np.searchsorted(crossings, _settle_samples(sos) + _rms_window(fs)):]
    gap = sum(_burst_margins(array, sound_speed, fs))
    runs = [(int(run[0]), int(run[-1]))
            for run in np.split(crossings, np.flatnonzero(np.diff(crossings) >= gap) + 1)
            if run.size]
    if timing is not None:
        timing["filter"] = (t_scan - t_start) * 1e3
        timing["onset"] = (time.perf_counter() - t_scan) * 1e3
    return row, cutoff, runs


def filter_and_scan(recording: MultiChannelRecording, sos: np.ndarray, array: HydrophoneArray,
                    sound_speed: float, timing: dict | None = None
                    ) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray],
                               list[tuple[int, int]]]:
    """The localizer's front end. ``scan_reference`` filters and scans the
    reference (first precise) channel and forms its runs, the pings. Then
    the other three precise channels are filtered in one ``filter_signal``
    call up to the end of the last run's burst window.

    The coarse channels are filtered and scanned against the reference
    cutoff only in the burst windows [first - before, last + reach)
    (``_burst_margins``), clipped to the recording. Each window is filtered
    from a prefix of ``_settle_samples(sos)`` plus RMS_WINDOW samples
    earlier (or from sample 0), so that its start transient has decayed and
    every kept mean square has a full window of its own. All windows of a
    channel lie end to end in one row; one more ``filter_signal`` call
    filters the four rows and one ``detect_ping`` per row scans them. A
    crossing in a window's prefix is dropped.

    Returns (rows, onsets, runs): precise channel -> filtered row, coarse
    channel -> onset indices, and the reference runs. Every row is
    byte-equal to the same span of ``filter_signal`` over the whole
    recording; the reference row is full length. A coarse channel's onsets
    are the full-length row's crossings inside the burst windows: a window's
    filter matches the full-length one to within rounding, so a crossing
    moves only where a mean square lies within rounding of the cutoff. If
    ``timing`` is a dict it gets the milliseconds spent filtering ("filter",
    all three calls) and scanning ("onset")."""
    channels = recording.channels
    fs = recording.sample_rate
    n = channels.shape[1]
    others = list(array.precise_channels[1:])
    coarse = list(array.coarse_channels)

    row, cutoff, runs = scan_reference(recording, sos, array, sound_speed, timing)
    t_rest = time.perf_counter()
    before, reach = _burst_margins(array, sound_speed, fs)
    end = min(n, runs[-1][1] + reach) if runs else 0
    # filter_signal stops a row that ends in 0 once its tail is quiet; a
    # channel that resumes after the bound runs on in the full-length filter,
    # so such rows are filtered to the end.
    if 0 < end < n and any(channels[ch, end - 1] == 0 and channels[ch, end:].any()
                           for ch in others):
        end = n
    rows = {array.precise_channels[0]: row}
    rows.update(zip(others, filter_signal(sos, channels[others, :end])))

    # Burst windows [first, stop), each filtered from start. A run starts
    # past the prefix and before + reach after the last, so only the first
    # window can start at sample 0, where the zero state and the mean
    # square's ramp are the full-length filter's own. Window j keeps gathered
    # columns [kept[2j], kept[2j + 1]); column + shift[j] is its sample.
    prefix = min(n, _settle_samples(sos) + _rms_window(fs))
    spans, kept, shift, column = [], [], [], 0
    for head, tail in runs:
        first = max(0, head - before)
        start, stop = max(0, first - prefix), min(n, tail + reach)
        spans.append(channels[coarse, start:stop])
        kept += [column + first - start, column + stop - start]
        shift.append(start - column)
        column += stop - start
    gathered = filter_signal(sos, np.concatenate(spans or [channels[coarse, :0]], axis=1))
    t_coarse = time.perf_counter()
    onsets = {}
    for ch, row in zip(coarse, gathered):
        found = detect_ping(row, fs, cutoff)[0]
        bounds = np.searchsorted(found, kept).tolist()
        onsets[ch] = np.concatenate([found[lo:hi] + d for lo, hi, d in
                                     zip(bounds[::2], bounds[1::2], shift)] or [found])
    t_end = time.perf_counter()

    if timing is not None:
        timing["filter"] += (t_coarse - t_rest) * 1e3
        timing["onset"] += (t_end - t_coarse) * 1e3
    return rows, onsets, runs


def select_stable_window(recording: MultiChannelRecording, sos: np.ndarray,
                         array: HydrophoneArray, sound_speed: float) -> TdoaSet:
    """``filter_and_scan``, then ``tdoa_from_filtered`` for the recording's
    first ping; raises the error that ends its search."""
    if recording.channel_count != 8:
        raise ValueError(f"expected 8 channels, got {recording.channel_count}")
    rows, onsets, runs = filter_and_scan(recording, sos, array, sound_speed)
    [tdoa] = tdoa_from_filtered(rows, recording.sample_rate, array, sound_speed, onsets,
                                runs[:1])
    if isinstance(tdoa, Exception):
        raise tdoa
    return tdoa


def tdoa_from_filtered(filtered: Mapping[int, np.ndarray], fs: float, array: HydrophoneArray,
                       sound_speed: float, onsets: Mapping[int, np.ndarray],
                       runs: Sequence[tuple[int, int]], diagnostics: list | None = None
                       ) -> list[TdoaSet | NoPingError | UnstableWindowError]:
    """Stable-window search of every ping of a recording at once, on
    already-filtered channels given the coarse channels' onsets and the
    reference runs, as ``filter_and_scan`` returns them (``filtered`` may
    also be an (8, n) array). The recording's length is the reference (first
    precise) row's; the other precise rows need only reach the end of each
    ping's last candidate window.

    A ping is a run [first, last] of reference crossings; its onset is
    ``first``. From it, candidate windows start every sub-window; the one
    whose six pair delays are most repeatable across its sub-windows wins.
    Returns one result per run, in order: the TdoaSet measured over the
    winning window, with each coarse channel's first onset in the ping's
    burst window (``_burst_margins``), or the error that ends that ping's
    search. The checks run in this order: room for one analysis window after
    the onset (NoPingError; only the last run can lack it), a stable window
    (UnstableWindowError), an onset on every coarse channel (NoPingError).
    Without a run the result is one NoPingError on the reference channel.
    One ``_delays`` call measures every ping's sub-windows and one more
    every winning window, so each result equals that of the same call with
    its run alone, bit for bit. ``sound_speed`` (m/s, the scenario's) bounds
    every delay by the widest precise spacing over it. If ``diagnostics`` is
    a list, it gets one dict per result: the candidate window starts, their
    variance scores and the chosen index, or nothing where the search
    stopped before scoring."""
    ref = array.precise_channels[0]
    results: list = ([None] * len(runs) if runs else
                     [NoPingError(f"no ping detected on reference channel {ref}")])
    # Filled in place below.
    searches: list[dict] = [{} for _ in results]
    if diagnostics is not None:
        diagnostics.extend(searches)
    if not runs:
        return results

    win_len, sub_len = _window_lengths(fs)
    if sub_len < 2:
        raise ValueError(f"sample rate {fs} Hz too low for {NUM_SUBWINDOWS} sub-windows "
                         f"of a {WINDOW_DURATION} s window")
    n_total = len(filtered[ref])
    # Each ping with room for a window: (its index, its candidate starts).
    searched = []
    for p, (onset, _) in enumerate(runs):
        candidates = [onset + k * sub_len for k in range(NUM_WINDOWS)
                      if onset + k * sub_len + win_len <= n_total]
        if candidates:
            searched.append((p, candidates))
        else:
            results[p] = NoPingError("no ping: recording too short for one analysis window "
                                     "after onset")
    if not searched:
        return results

    # No true delay can exceed the widest spacing over c. The lag search stays
    # inside it: with sub-half-wavelength spacing that excludes the
    # correlation peaks one carrier cycle off.
    max_delay = array.max_precise_spacing() / sound_speed
    max_lag = int(math.ceil(max_delay * fs))

    # A ping's candidate w is its sub-windows w .. w + NUM_SUBWINDOWS - 1.
    # Every ping's sub-windows, from its onset through its last candidate,
    # lie end to end in one table, and one ``_delays`` call measures each
    # sub-window's six pair delays, one table column each; a sub-window
    # without energy leaves NaN in its column and scores its candidates inf.
    # A candidate scores the summed sample variance of its sub-windows'
    # delays: one overlapping a glitch or the burst's tail scores high and
    # loses. Every run of NUM_SUBWINDOWS columns is scored; those that
    # straddle two pings are never read.
    rows = [filtered[ch] for ch in array.precise_channels]

    def gather(spans: list[tuple[int, int]], length: int) -> np.ndarray:
        """(4, -1, length): each precise row's samples [a, b) of every span,
        end to end, cut into runs of ``length``."""
        return np.stack([np.concatenate([row[a:b] for a, b in spans]) for row in rows],
                        dtype=float).reshape(4, -1, length)

    table = gather([(c[0], c[-1] + NUM_SUBWINDOWS * sub_len) for _, c in searched], sub_len)
    i, j = np.array(PAIRS).T
    sub_delays, _ = _delays(table[i], table[j], fs, min(max_lag, sub_len - 1))
    windows = np.lib.stride_tricks.sliding_window_view(sub_delays, NUM_SUBWINDOWS, axis=1)
    scores = np.var(windows, axis=-1, ddof=1).sum(axis=0)
    scores[np.isnan(scores)] = np.inf
    scores = scores.tolist()

    max_variance = (MAX_DELAY_SPREAD_SAMPLES / fs) ** 2
    winners = []
    first = 0
    for p, candidates in searched:
        ping_scores = scores[first:first + len(candidates)]
        first += len(candidates) + NUM_SUBWINDOWS - 1
        best_var = min(ping_scores)
        best = ping_scores.index(best_var)
        searches[p].update(candidate_starts=candidates, variance_scores=ping_scores,
                           chosen_candidate=best)
        if best_var == math.inf:
            results[p] = UnstableWindowError("unstable window: no candidate produced usable "
                                             "delays")
        elif best_var > max_variance:
            results[p] = UnstableWindowError(
                f"unstable window: best summed delay variance {best_var:.3e} s^2 "
                f"exceeds limit {max_variance:.3e} s^2"
            )
        else:
            winners.append((p, candidates[best]))
    if not winners:
        return results

    # Noise-pushed estimates snap back to the feasible interval. A winning
    # window's sub-windows all had energy, so its own slices have too.
    quad = gather([(start, start + win_len) for _, start in winners], win_len)
    delays, peaks = _delays(quad[i], quad[j], fs, min(max_lag, win_len - 1))
    delays = np.clip(delays, -max_delay, max_delay)
    before, reach = _burst_margins(array, sound_speed, fs)

    def coarse_onset(found: np.ndarray, first: int, last: int) -> int:
        # The first of ``found`` in run [first, last]'s burst window, or -1.
        k = int(np.searchsorted(found, first - before))
        return int(found[k]) if k < len(found) and found[k] < last + reach else -1

    for w, (p, start) in enumerate(winners):
        arrivals = [coarse_onset(onsets[ch], *runs[p]) for ch in array.coarse_channels]
        if -1 in arrivals:
            results[p] = NoPingError(f"no ping detected on coarse channel "
                                     f"{array.coarse_channels[arrivals.index(-1)]}")
            continue
        results[p] = TdoaSet(
            onset_time_abs=runs[p][0] / fs,
            pair_delays=tuple(delays[:, w].tolist()),
            peak_correlations=tuple(peaks[:, w].tolist()),
            coarse_arrivals=tuple(arrival / fs for arrival in arrivals),
            window=(start, win_len),
        )
    return results
