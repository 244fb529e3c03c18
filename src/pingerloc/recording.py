"""Synchronized multichannel sample buffers and their on-disk format.

File layout (little-endian):

    magic   "OOGW"  4 bytes
    version u32     currently 1
    channel_count   u32
    sample_rate_hz  u32
    samples_per_channel u64
    samples         float32, channel-interleaved frame by frame

Samples are stored and kept in memory as float32 so a write/read round trip
is bit-exact.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "MultiChannelRecording",
    "RecordingFormatError",
    "write_recording",
    "read_recording",
]

MAGIC = b"OOGW"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIIIQ")
MAX_SAMPLE_RATE = 2**32 - 1  # Hz, the most the header's u32 holds


class RecordingFormatError(ValueError):
    """A malformed recording file: a short header, a bad magic, another
    format version, or a payload shorter or longer than the header claims.
    The message says which."""


@dataclass(frozen=True)
class MultiChannelRecording:
    """Equal-length per-channel sample buffers with a shared sample rate.

    ``channels`` is a (channel_count, n_samples) float32 array; buffers are
    never mutated after construction.
    """

    sample_rate: float
    channels: np.ndarray

    def __post_init__(self):
        ch = np.asarray(self.channels, dtype=np.float32)
        if ch.ndim != 2:
            raise ValueError(f"channels must be 2-D (channels, samples), got shape {ch.shape}")
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be > 0, got {self.sample_rate}")
        if not np.all(np.isfinite(ch)):
            raise ValueError("recording contains non-finite samples")
        ch.setflags(write=False)
        object.__setattr__(self, "channels", ch)
        object.__setattr__(self, "sample_rate", float(self.sample_rate))

    @property
    def channel_count(self) -> int:
        return self.channels.shape[0]

    @property
    def samples_per_channel(self) -> int:
        return self.channels.shape[1]

    @property
    def duration(self) -> float:
        return self.samples_per_channel / self.sample_rate


def write_recording(recording: MultiChannelRecording, path: str | Path) -> None:
    """Raises ValueError, before opening ``path``, unless the sample rate is
    an integer from 1 to MAX_SAMPLE_RATE Hz, as the header stores it."""
    rate = recording.sample_rate
    if not (rate.is_integer() and rate <= MAX_SAMPLE_RATE):
        raise ValueError(f"the file format stores the sample rate as an integer from 1 to "
                         f"{MAX_SAMPLE_RATE} Hz; {rate!r} Hz cannot be written")
    header = _HEADER.pack(
        MAGIC,
        FORMAT_VERSION,
        recording.channel_count,
        int(recording.sample_rate),
        recording.samples_per_channel,
    )
    # Interleave frame by frame: sample 0 of every channel, then sample 1, ...
    frames = np.ascontiguousarray(recording.channels.T, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(frames.tobytes())


def read_recording(path: str | Path) -> MultiChannelRecording:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise RecordingFormatError(f"{path}: file shorter than header")
        magic, version, channel_count, sample_rate, n_samples = _HEADER.unpack(header)
        if magic != MAGIC:
            raise RecordingFormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        if version != FORMAT_VERSION:
            raise RecordingFormatError(
                f"{path}: format version {version}, this reader supports {FORMAT_VERSION}"
            )
        payload = fh.read()
    expected = channel_count * n_samples * 4
    if len(payload) < expected:
        raise RecordingFormatError(
            f"{path}: header claims {n_samples} samples x {channel_count} channels "
            f"({expected} bytes), payload holds {len(payload)}"
        )
    if len(payload) > expected:
        raise RecordingFormatError(f"{path}: {len(payload) - expected} bytes past the "
                                   f"{expected}-byte payload the header claims")
    frames = np.frombuffer(payload, dtype="<f4").reshape(n_samples, channel_count)
    return MultiChannelRecording(sample_rate=float(sample_rate), channels=frames.T.copy())
