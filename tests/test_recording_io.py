import struct

import numpy as np
import pytest

from pingerloc import (
    MultiChannelRecording,
    RecordingFormatError,
    read_recording,
    write_recording,
)


def random_recording(channels=3, n=1000, seed=0):
    rng = np.random.default_rng(seed)
    return MultiChannelRecording(sample_rate=500_000.0,
                                 channels=rng.normal(size=(channels, n)).astype(np.float32))


def test_round_trip_bit_exact(tmp_path):
    rec = random_recording()
    path = tmp_path / "r.oogw"
    write_recording(rec, path)
    back = read_recording(path)
    assert back.sample_rate == rec.sample_rate
    assert back.channel_count == rec.channel_count
    assert back.samples_per_channel == rec.samples_per_channel
    assert np.array_equal(back.channels, rec.channels)
    assert back.channels.dtype == np.float32


def test_header_layout(tmp_path):
    rec = random_recording(channels=2, n=5)
    path = tmp_path / "r.oogw"
    write_recording(rec, path)
    raw = path.read_bytes()
    magic, version, channels, rate, samples = struct.unpack_from("<4sIIIQ", raw)
    assert magic == b"OOGW"
    assert version == 1
    assert channels == 2
    assert rate == 500_000
    assert samples == 5
    assert len(raw) == 24 + 2 * 5 * 4


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.oogw"
    rec = random_recording()
    write_recording(rec, path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(RecordingFormatError, match="bad magic b'XXXX', expected b'OOGW'"):
        read_recording(path)


def test_version_mismatch(tmp_path):
    path = tmp_path / "v2.oogw"
    rec = random_recording()
    write_recording(rec, path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<I", raw, 4, 2)
    path.write_bytes(bytes(raw))
    with pytest.raises(RecordingFormatError, match="format version 2, this reader supports 1"):
        read_recording(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "trunc.oogw"
    header = struct.pack("<4sIIIQ", b"OOGW", 1, 1, 500_000, 1_000_000)
    payload = np.zeros(1000, dtype="<f4").tobytes()
    path.write_bytes(header + payload)
    with pytest.raises(RecordingFormatError, match=r"header claims 1000000 samples x 1 "
                                                   r"channels \(4000000 bytes\), payload holds 4000"):
        read_recording(path)


def test_trailing_payload_bytes(tmp_path):
    path = tmp_path / "long.oogw"
    write_recording(random_recording(), path)
    with open(path, "ab") as fh:
        fh.write(b"\0" * 4)
    with pytest.raises(RecordingFormatError, match="past"):
        read_recording(path)


def test_non_integer_sample_rate_not_written(tmp_path):
    rec = MultiChannelRecording(sample_rate=44_100.5, channels=np.zeros((2, 4), dtype=np.float32))
    path = tmp_path / "r.oogw"
    with pytest.raises(ValueError, match="integer"):
        write_recording(rec, path)
    assert not path.exists()


def test_file_shorter_than_header(tmp_path):
    path = tmp_path / "stub.oogw"
    path.write_bytes(b"OOG")
    with pytest.raises(RecordingFormatError, match="file shorter than header"):
        read_recording(path)


def test_recording_invariants():
    with pytest.raises(ValueError):
        MultiChannelRecording(sample_rate=0.0, channels=np.zeros((2, 4), dtype=np.float32))
    with pytest.raises(ValueError):
        MultiChannelRecording(sample_rate=1.0, channels=np.zeros(4, dtype=np.float32))
    with pytest.raises(ValueError):
        MultiChannelRecording(sample_rate=1.0,
                              channels=np.full((1, 4), np.nan, dtype=np.float32))


def test_channels_are_immutable():
    rec = random_recording()
    with pytest.raises(ValueError):
        rec.channels[0, 0] = 1.0
