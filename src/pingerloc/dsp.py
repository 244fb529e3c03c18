"""Software front-end: Butterworth bandpass filtering, ping onset detection,
cross-correlation delay estimation, and variance-based selection of a stable
analysis window.

Filtering is causal (forward only). The group delay is then identical on
every channel and cancels in every time difference between two channels,
which is what the delay estimates feed on.

Onsets are thresholded against one noise floor, the reference (first
precise) channel's: the reference scan sets the cutoff and every coarse
channel is scanned against it. A hydrophone much noisier than the reference
therefore crosses early. A ping is a run of reference crossings with room
for one analysis window after its first; runs split where two are far
enough apart that the pings' burst windows do not overlap. That scan alone
decides what a ping is, runs once per recording (``scan_reference``), and
is passed to the rest of the front end (``filter_and_scan``). It filters
the reference channel in chunks on a helper thread while the caller carries
the running sum over each finished chunk, bit for bit the one-pass filter
and scan (``filter_signal``, ``detect_ping``); on one usable CPU, or for a
row of one chunk, it starts no thread. Every other channel is filtered,
each window from zero state, and the coarse ones scanned, only in the burst
windows, each window with a running sum of its own. Each ping's coarse
onsets are picked there once, the first crossing in its own window, so a
coarse crossing far from every reference burst, or later than the array's
travel time allows, is not seen. A coarse window is read first only up to
that travel time past the ping's first reference crossing, where its onset
lies unless the channel hears the burst faintly; only a window without a
crossing by then is read again to its end. The window search reads the one
record of all this in place (``FrontEnd``), which keeps only the reference
channel at full length.

Channel labels are read only in the front end: a ``TdoaSet`` is in quad
order, its six precise-quad pairs in ``PAIRS`` order.
"""

from __future__ import annotations

import cmath
import contextlib
import functools
import itertools
import math
import os
import queue
import threading
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
    "FrontEnd",
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


@dataclass(frozen=True, eq=False)
class FrontEnd:
    """A recording through the front end (``filter_and_scan``), all that the
    window search reads: ``reference``, the reference (first precise)
    channel filtered over the whole recording, the ``cutoff`` its scan set
    and its crossings split into pings [first, last] (``runs``). The other
    precise channels are kept only as their filtered burst windows: quad
    channel k + 1's over run p is ``windows[k, p]``, column c sample
    ``offsets[p] + c``, a block of their own. Per coarse channel,
    ``onsets`` has each run's onset, -1 for none; the coarse windows
    themselves are not kept."""

    sample_rate: float
    reference: np.ndarray
    cutoff: float
    runs: tuple[tuple[int, int], ...]
    windows: np.ndarray
    offsets: tuple[int, ...]
    onsets: Mapping[int, list[int]]


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
    own last nonzero sample, run over the rows whose state is not yet quiet
    (``_quiet_tail``)."""
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

    _quiet_tail(sos, out, keep, stop, zi, gain)


def _quiet_tail(sos: np.ndarray, out: np.ndarray, rows: np.ndarray, stop: np.ndarray,
                zi: np.ndarray, gain: float) -> None:
    """Write ``gain`` times the zero-input response of ``sos`` from section
    state ``zi`` (sections, len(rows), 2) into each of ``out``'s ``rows``
    from its ``stop`` on, in _TAIL_CHUNK steps, until the row's end or until
    its state is below the quiet level (``_quiet_level``), so no row decays
    into subnormal floats. ``out`` holds zeros past each cut."""
    n = out.shape[1]
    quiet = _quiet_level(out.dtype, gain)
    silence = np.zeros((rows.size, _TAIL_CHUNK))
    while True:
        live = (stop < n) & (np.abs(zi).max(axis=(0, 2)) >= quiet)
        if not live.any():
            return
        rows, stop, zi = rows[live], stop[live], zi[:, live]
        tail, zi = sps.sosfilt(sos, silence[:rows.size], zi=zi)
        for j, k in enumerate(rows):
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
    """Trailing mean square over the last ``window`` samples along the last
    axis (shorter at the start), each row with its own cumulative sum:
    ``_extend_mean_square`` over the whole row."""
    samples = np.asarray(samples)
    n = samples.shape[-1]
    csum = np.zeros(samples.shape[:-1] + (n + 1,))
    ms = np.empty(samples.shape[:-1] + (n,))
    _extend_mean_square(samples, csum, ms, 0, n, window)
    return ms


def _extend_mean_square(samples: np.ndarray, csum: np.ndarray, ms: np.ndarray, lo: int, hi: int,
                        window: int) -> None:
    """Carry the running sum over columns [lo, hi) of ``samples``: csum[...,
    i] is the sum of the first i squares along the last axis, known up to
    lo, and ms[..., i] the trailing mean square over the last ``window``
    samples up to i. The squares go into csum, the sum so far is added to
    the first, and one in-place np.cumsum, whose additions run in order,
    finishes them: the same additions in the same order as one cumulative
    sum over the whole row, so the spans a row is carried over in leave no
    trace."""
    if hi <= lo:
        return
    run = csum[..., lo + 1:hi + 1]
    np.square(samples[..., lo:hi], out=run, dtype=float)
    run[..., 0] += csum[..., lo]
    np.cumsum(run, axis=-1, out=run)
    # Over the first ``window`` samples of a row the count ramps up, after
    # them it is ``window``.
    ramp = min(max(window, lo), hi)
    np.divide(csum[..., lo + 1:ramp + 1], np.arange(lo + 1, ramp + 1), out=ms[..., lo:ramp])
    # The squares are >= 0, so the cumulative sum never decreases (fl(a + b)
    # >= a for b >= 0) and no window difference is negative.
    steady = np.subtract(csum[..., ramp + 1:hi + 1], csum[..., ramp + 1 - window:hi + 1 - window],
                         out=ms[..., ramp:hi])
    steady /= window


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
    """(crossings, cutoff): the ascending flat indices of the samples whose
    trailing mean square over RMS_WINDOW exceeds ``cutoff``, and that
    cutoff. ``samples`` is one channel, or rows of windows scanned along the
    last axis, each with its own running sum (``_moving_mean_square``).
    With ``cutoff`` None it is the one channel's own (``_crossings``). The
    front end runs it once per coarse channel and pass over that channel's
    burst windows; the reference channel's scan is ``scan_reference``'s own,
    by the same rules. The mean square is trailing, so the crossings of a
    row's prefix are the whole row's, cut at its length."""
    return _crossings(_moving_mean_square(samples, _rms_window(fs)), cutoff)


def _crossings(ms: np.ndarray, cutoff: float | None) -> tuple[np.ndarray, float]:
    """(crossings, cutoff) of the mean squares ``ms`` as ``detect_ping``
    returns them. A cutoff of None is the largest mean square whose root is
    at most ONSET_THRESHOLD times the noise floor, the median moving RMS of
    the whole channel (``_median_root``, ``_square_cutoff``, so no square
    root is taken per sample); NaN without samples."""
    if ms.size == 0:
        return np.empty(0, dtype=np.intp), math.nan if cutoff is None else cutoff
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
    ahead of its first reference crossing to ``reach`` past it, or to lag
    past its last, whichever is later. lag is the widest coarse-to-reference
    distance over ``sound_speed`` (m/s), so no coarse hydrophone hears the
    burst later; reach is the larger of lag and the end of the last candidate
    window; before is lag plus RMS_WINDOW, for a coarse hydrophone nearer the
    pinger."""
    win_len, sub_len = _window_lengths(fs)
    lead = np.linalg.norm(array.coarse_positions_array() - array.precise[0].as_array(),
                          axis=1).max()
    lag = math.ceil(lead / sound_speed * fs) + 1
    return lag + _rms_window(fs), max((NUM_WINDOWS - 1) * sub_len + win_len, lag)


def scan_reference(recording: MultiChannelRecording, sos: np.ndarray, array: HydrophoneArray,
                   sound_speed: float, timing: dict | None = None
                   ) -> tuple[np.ndarray, float, list[tuple[int, int]]]:
    """The front end's reference step, run once per recording and passed to
    ``filter_and_scan``: filters the reference (first precise) channel over
    the whole recording and scans it, which sets the mean-square cutoff.
    Returns (row, cutoff, runs): the filtered row, byte for byte
    ``filter_signal``'s, that cutoff and the crossings, both exactly
    ``detect_ping``'s of the row, and the crossings split into runs [first,
    last], one per ping, where two are at least before + reach apart
    (``_burst_margins``), so that two pings' burst windows never overlap.
    The filter and the running sum overlap (``_reference_mean_square``).

    A crossing in the first ``_settle_samples(sos)`` plus RMS_WINDOW samples
    is dropped: the filter starts from zero state, and a DC offset's step
    rings there. So is a run cut off by the end, with no room for one
    analysis window (first + window > samples); only the last can be one, as
    reach spans a window. If ``timing`` is a dict it gets the milliseconds
    until the last filtered chunk was in hand ("filter") and the rest
    ("onset")."""
    fs = recording.sample_rate
    t_start = time.perf_counter()
    row, ms, t_scan = _reference_mean_square(sos, recording.channels[array.precise_channels[0]],
                                             _rms_window(fs))
    crossings, cutoff = _crossings(ms, None)
    crossings = crossings[np.searchsorted(crossings, _settle_samples(sos) + _rms_window(fs)):]
    gap = sum(_burst_margins(array, sound_speed, fs))
    runs = [(int(run[0]), int(run[-1]))
            for run in np.split(crossings, np.flatnonzero(np.diff(crossings) >= gap) + 1)
            if run.size and run[0] + _window_lengths(fs)[0] <= len(row)]
    if timing is not None:
        timing["filter"] = (t_scan - t_start) * 1e3
        timing["onset"] = (time.perf_counter() - t_scan) * 1e3
    return row, cutoff, runs


# The reference row is filtered in chunks of this many samples on a helper
# thread while the caller carries the running sum over each finished one.
_REFERENCE_CHUNK = 65_536


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _reference_mean_square(sos: np.ndarray, samples: np.ndarray, window: int
                           ) -> tuple[np.ndarray, np.ndarray, float]:
    """(row, ms, t): ``filter_signal(sos, samples)`` of one channel, its
    ``_moving_mean_square`` over ``window``, both bit for bit, and the
    ``time.perf_counter()`` at which the last filtered chunk was in hand.
    A two-stage pipeline over _REFERENCE_CHUNK-sample chunks: a helper
    thread filters (``_filter_chunks``) while the caller carries the running
    sum over each chunk it has finished (``_extend_mean_square``). A row of
    one chunk, and on one usable CPU every row, is one chunk, filtered and
    summed in the caller alone."""
    n = samples.shape[-1]
    chunk = _REFERENCE_CHUNK if _usable_cpus() > 1 else max(n, 1)
    span = _filter_span(samples)
    # The caller makes every full-length buffer: one made on the helper
    # thread would stay resident in that thread's malloc arena. A channel
    # filtered whole in one chunk is sosfilt's output itself.
    row = None if span == (0, n) and 0 < n <= chunk else np.zeros(n)
    csum = np.zeros(n + 1)
    ms = np.empty(n)
    chunks = _filter_chunks(sos, samples, span, chunk, row)
    done = 0
    with contextlib.nullcontext(chunks) if n <= chunk else _on_helper_thread(chunks) as ends:
        for end, row in ends:
            t_filtered = time.perf_counter()
            _extend_mean_square(row, csum, ms, done, end, window)
            done = end
    return row, ms, t_filtered


def _filter_span(samples: np.ndarray) -> tuple[int, int]:
    """[lo, hi): the samples of one channel that ``filter_signal`` filters,
    all of a channel that ends in a nonzero sample, else its first to last
    nonzero sample ((n, n) for none)."""
    n = samples.shape[-1]
    if n and samples[-1] != 0:
        return 0, n
    nonzero = samples != 0
    if not nonzero.any():
        return n, n
    return int(np.argmax(nonzero)), n - int(np.argmax(nonzero[::-1]))


def _filter_chunks(sos: np.ndarray, samples: np.ndarray, span: tuple[int, int], chunk: int,
                   row: np.ndarray | None):
    """``filter_signal(sos, samples)`` of one channel, byte for byte, by its
    rules: its ``span`` (``_filter_span``) is filtered from zero state in
    ``chunk``-sample pieces, each carrying the section state on, and a span
    that ends before the channel goes on over its quiet tail
    (``_quiet_tail``), with zeros elsewhere. The pieces are written into
    ``row`` (zeros, float64); None stands for a channel filtered whole in
    one piece, which is the row. Yields (end, row) after each piece, the row
    final up to ``end``, last its length. It may run on a helper thread, so
    it calls no public name of this module: a tracer that wraps those takes
    their calls to nest on one thread."""
    n = samples.shape[-1]
    lo, hi = span
    zi = np.zeros((len(sos), 2))
    for a in range(lo, hi, chunk):
        b = min(a + chunk, hi)
        piece, zi = sps.sosfilt(sos, samples[a:b], zi=zi)
        if row is None:
            row = piece
        else:
            row[a:b] = piece
        yield b, row
    if hi < n:
        _quiet_tail(sos, row[None], np.zeros(1, dtype=np.intp), np.array([hi]), zi[:, None], 1.0)
    yield n, row


@contextlib.contextmanager
def _on_helper_thread(items):
    """Run the iterator ``items`` on a helper thread; the block gets an
    iterator over what it yields, in order, which raises what it raises.
    The helper is joined on leaving the block, so it never outlives the
    block, even when the block fails."""
    queue_ = queue.SimpleQueue()

    def produce():
        try:
            for item in items:
                queue_.put(item)
        except BaseException as exc:  # re-raised in the block by consume()
            queue_.put(exc)
        queue_.put(None)

    def consume():
        for item in iter(queue_.get, None):
            if isinstance(item, BaseException):
                raise item
            yield item

    helper = threading.Thread(target=produce, name="pingerloc-reference-filter", daemon=True)
    helper.start()
    try:
        yield consume()
    finally:
        helper.join()


def filter_and_scan(recording: MultiChannelRecording, sos: np.ndarray, array: HydrophoneArray,
                    sound_speed: float, reference: tuple[np.ndarray, float, list[tuple[int, int]]],
                    timing: dict | None = None) -> FrontEnd:
    """The localizer's front end past its reference step: ``reference`` is
    the (row, cutoff, runs) that ``scan_reference`` returned for the
    recording's reference channel, and its row is kept as it is.

    The other seven channels are filtered only in the burst windows
    [first - before, max(first + reach, last + lag)) (``_burst_margins``),
    clipped to the recording, each from zero state from
    ``_settle_samples(sos)`` plus RMS_WINDOW samples earlier (or from sample
    0), so that its start transient has decayed and every kept mean square
    has a full window of its own; a crossing in that prefix is dropped. The
    other precise channels' windows are one block, filtered in one
    ``filter_signal`` call. The coarse windows take at most two passes of
    one loop, each one ``filter_signal`` call and one ``detect_ping`` per
    coarse channel over its rows, every row one window scanned against the
    reference cutoff with a running sum of its own. The first pass reads
    each window only to first + lag + 1, as a coarse onset lies within lag
    of the reference onset unless the channel hears the burst faintly; the
    second re-reads the whole window of each (channel, run) pair with no
    crossing by then. Its prefix is the first pass's row bit for bit, so a
    run's coarse onset is its window's first crossing, whichever pass finds
    it. Without a run, no other channel is read, filtered or scanned.

    Returns the ``FrontEnd`` record. Only this function knows the burst
    windows; runs lie at least before + reach apart, so no two overlap. A
    window matches the full-length filter to within rounding: the search
    reads a ping or noise bit for bit alike, and a channel silent over a
    window reads exactly 0.0 there. A coarse crossing moves only where a
    mean square lies within rounding of the cutoff, or where the
    full-length scan's one running sum, carrying the earlier pings' energy,
    rounds a window's leading squares away (silent input). If ``timing`` is
    a dict, the milliseconds spent filtering ("filter") and scanning
    ("onset") here are added to those already there, such as
    ``scan_reference``'s (to 0.0 if absent)."""
    channels = recording.channels
    fs = recording.sample_rate
    n = channels.shape[1]
    others = list(array.precise_channels[1:])
    coarse = list(array.coarse_channels)
    reference_row, cutoff, runs = reference
    if not runs:
        return FrontEnd(fs, reference_row, cutoff, (), np.zeros((len(others), 0, 0)), (),
                        {ch: [] for ch in coarse})

    t_start = time.perf_counter()
    before, reach = _burst_margins(array, sound_speed, fs)
    lag = before - _rms_window(fs)
    prefix = _settle_samples(sos) + _rms_window(fs)
    # Run p's burst window keeps [first, stop) and is filtered from start.
    kept = [(max(0, head - before), min(n, max(head + reach, tail + lag))) for head, tail in runs]
    starts = [max(0, first - prefix) for first, _ in kept]
    stops = [stop for _, stop in kept]
    # The other precise channels' windows, each right-aligned in row p of a
    # zero block, where the zero state stays zero up to it: column c of row
    # p is sample offsets[p] + c.
    width = max(stop - start for start, stop in zip(starts, stops))
    offsets = [stop - width for stop in stops]
    windows = np.zeros((len(others), len(runs), width))
    for p, (start, stop) in enumerate(zip(starts, stops)):
        windows[:, p, width - stop + start:] = channels[others, start:stop]
    windows = filter_signal(sos, windows)
    filter_s, onset_s = time.perf_counter() - t_start, 0.0

    # A coarse onset lies within lag of its run's first reference crossing,
    # so each coarse window is filtered and scanned first only up to that
    # bound; a (channel, run) pair with no crossing there is filtered and
    # scanned again to its stop. Each window is a row from column 0.
    onsets = {ch: [-1] * len(runs) for ch in coarse}
    bound = [min(stop, head + lag + 1) for (head, _), stop in zip(runs, stops)]
    todo = [(ch, p) for ch in coarse for p in range(len(runs))]
    for ends in (bound, stops):
        if not todo:
            break
        t_filter = time.perf_counter()
        cols = max(ends[p] - starts[p] for _, p in todo)
        block = np.zeros((len(todo), cols))
        for row, (ch, p) in zip(block, todo):
            row[:ends[p] - starts[p]] = channels[ch, starts[p]:ends[p]]
        block = filter_signal(sos, block)
        t_scan = time.perf_counter()
        r = 0
        for ch, pairs in itertools.groupby(todo, key=lambda pair: pair[0]):
            scanned = [p for _, p in pairs]
            found = detect_ping(block[r:r + len(scanned)], fs, cutoff)[0]
            # Row k's kept columns, as flat indices of the scanned rows.
            spans = [(k * cols + kept[p][0] - starts[p], k * cols + ends[p] - starts[p])
                     for k, p in enumerate(scanned)]
            for k, (p, (lo, hi)) in enumerate(zip(scanned, np.searchsorted(found, spans).tolist())):
                if lo < hi:
                    onsets[ch][p] = int(found[lo]) - k * cols + starts[p]
            r += len(scanned)
        filter_s += t_scan - t_filter
        onset_s += time.perf_counter() - t_scan
        todo = [(ch, p) for ch, p in todo if onsets[ch][p] < 0 and ends[p] < stops[p]]

    if timing is not None:
        timing["filter"] = timing.get("filter", 0.0) + filter_s * 1e3
        timing["onset"] = timing.get("onset", 0.0) + onset_s * 1e3
    return FrontEnd(fs, reference_row, cutoff, tuple(runs), windows, tuple(offsets), onsets)


def select_stable_window(recording: MultiChannelRecording, sos: np.ndarray,
                         array: HydrophoneArray, sound_speed: float) -> TdoaSet:
    """``scan_reference`` and ``filter_and_scan``, then
    ``tdoa_from_filtered`` for the recording's first ping; raises the error
    that ends its search."""
    if recording.channel_count != 8:
        raise ValueError(f"expected 8 channels, got {recording.channel_count}")
    row, cutoff, runs = scan_reference(recording, sos, array, sound_speed)
    front = filter_and_scan(recording, sos, array, sound_speed, (row, cutoff, runs[:1]))
    [(tdoa, _)] = tdoa_from_filtered(front, array, sound_speed)
    if isinstance(tdoa, Exception):
        raise tdoa
    return tdoa


def tdoa_from_filtered(front: FrontEnd, array: HydrophoneArray, sound_speed: float
                       ) -> list[tuple[TdoaSet | NoPingError | UnstableWindowError, dict]]:
    """Stable-window search of every ping of a recording at once, reading
    its ``FrontEnd`` record in place: the recording's length is the
    reference row's, and of each ping's precise samples only those from its
    onset to the end of its last candidate window are read.

    A ping is a run [first, last] of reference crossings with room for one
    analysis window after its onset, ``first``: ``scan_reference`` keeps
    only such runs, and a record with a run that has no room is refused
    (ValueError). From the onset, candidate windows start every sub-window,
    as many as fit; the one whose six pair delays are most repeatable across
    its sub-windows wins. Returns one (result, search) pair per run, in
    order: the TdoaSet measured over the winning window, or the error that
    ends the search: UnstableWindowError, or past a stable window an onset
    of -1 on some coarse channel (NoPingError). The search is a dict
    of the candidate window starts, their variance scores and the chosen
    index. Without a run the result is one NoPingError on the reference
    channel, with an empty search. One ``_delays`` call measures every
    ping's sub-windows and one more every winning window, so each result
    equals that of the same call with its run alone, bit for bit.
    ``sound_speed`` (m/s) bounds every delay by the widest precise spacing
    over it."""
    fs, runs, offsets = front.sample_rate, front.runs, front.offsets
    if not runs:
        return [(NoPingError(f"no ping detected on reference channel "
                             f"{array.precise_channels[0]}"), {})]

    win_len, sub_len = _window_lengths(fs)
    if sub_len < 2:
        raise ValueError(f"sample rate {fs} Hz too low for {NUM_SUBWINDOWS} sub-windows "
                         f"of a {WINDOW_DURATION} s window")
    n_total = len(front.reference)
    # Each ping's candidate window starts.
    starts = [[onset + k * sub_len for k in range(NUM_WINDOWS)
               if onset + k * sub_len + win_len <= n_total] for onset, _ in runs]
    if not all(starts):
        raise ValueError(f"run {runs[starts.index([])]} leaves no room for a "
                         f"{win_len}-sample analysis window in {n_total} samples")
    results, searches = [None] * len(runs), []

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
    def gather(spans: list[tuple[int, int, int]], length: int) -> np.ndarray:
        """(4, -1, length): the precise quad's samples [a, b) of every span
        (p, a, b), run p's, end to end, cut into runs of ``length``."""
        return np.concatenate([np.vstack((front.reference[a:b],
                                          front.windows[:, p, a - offsets[p]:b - offsets[p]]))
                               for p, a, b in spans], axis=1, dtype=float).reshape(4, -1, length)

    table = gather([(p, c[0], c[-1] + NUM_SUBWINDOWS * sub_len) for p, c in enumerate(starts)],
                   sub_len)
    i, j = np.array(PAIRS).T
    sub_delays, _ = _delays(table[i], table[j], fs, min(max_lag, sub_len - 1))
    windows = np.lib.stride_tricks.sliding_window_view(sub_delays, NUM_SUBWINDOWS, axis=1)
    scores = np.var(windows, axis=-1, ddof=1).sum(axis=0)
    scores[np.isnan(scores)] = np.inf
    scores = scores.tolist()

    max_variance = (MAX_DELAY_SPREAD_SAMPLES / fs) ** 2
    winners = []
    first = 0
    for p, candidates in enumerate(starts):
        ping_scores = scores[first:first + len(candidates)]
        first += len(candidates) + NUM_SUBWINDOWS - 1
        best_var = min(ping_scores)
        best = ping_scores.index(best_var)
        searches.append({"candidate_starts": candidates, "variance_scores": ping_scores,
                         "chosen_candidate": best})
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
        return list(zip(results, searches))

    # Noise-pushed estimates snap back to the feasible interval. A winning
    # window's sub-windows all had energy, so its own slices have too.
    quad = gather([(p, start, start + win_len) for p, start in winners], win_len)
    delays, peaks = _delays(quad[i], quad[j], fs, min(max_lag, win_len - 1))
    delays = np.clip(delays, -max_delay, max_delay)
    for w, (p, start) in enumerate(winners):
        arrivals = [front.onsets[ch][p] for ch in array.coarse_channels]
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
    return list(zip(results, searches))
