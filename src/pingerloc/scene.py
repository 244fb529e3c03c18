"""Scene description: coordinate frame, hydrophone array geometry, pinger and
recording configuration, plus the exact geometric helpers (bearing angles,
octant classification).

Body frame convention used throughout this package: +x forward, +y left,
+z up, positions in meters. Azimuth is measured counterclockwise from +x,
reported in degrees [0, 360); elevation is the angle above the horizontal
plane, in degrees [-90, 90].
"""

from __future__ import annotations

import dataclasses
import json
import math
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

__all__ = [
    "ConfigError",
    "Vec3",
    "OctantId",
    "HydrophoneArray",
    "PingerSource",
    "NoiseSpec",
    "ChannelModel",
    "Scenario",
    "check_array",
    "true_azimuth_elevation",
    "octant_of",
    "default_array",
    "config_from_dict",
    "load_config",
    "scenario_from_dict",
    "scenario_to_dict",
    "load_scenario",
]

DEFAULT_SOUND_SPEED = 1480.0  # m/s, freshwater pool around 20 C
DEFAULT_SAMPLE_RATE = 500_000.0  # Hz, 12.5 samples per 40 kHz carrier cycle

# Hydrophones closer than this are considered coincident.
MIN_HYDROPHONE_SEPARATION = 1e-6
# An axis whose widest coarse pair is separated by less than this cannot
# order arrivals.
MIN_AXIS_SEPARATION = 1e-3


class ConfigError(ValueError):
    """Invalid or incomplete scene/scenario configuration."""


@dataclass(frozen=True)
class Vec3:
    """Point or direction in the body frame, meters."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for name in ("x", "y", "z"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ConfigError(f"Vec3.{name} must be finite, got {v!r}")
            object.__setattr__(self, name, float(v))

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    @classmethod
    def from_array(cls, a: Iterable[float]) -> "Vec3":
        ax, ay, az = (float(v) for v in a)
        return cls(ax, ay, az)


@dataclass(frozen=True)
class OctantId:
    """Octant as three sign bits, one per body axis (True = positive side)."""

    sx: bool
    sy: bool
    sz: bool

    def as_string(self) -> str:
        return "".join("+" if s else "-" for s in (self.sx, self.sy, self.sz))

    def signs(self) -> np.ndarray:
        """Unit signs per axis as floats (+1.0 or -1.0)."""
        return np.array([1.0 if s else -1.0 for s in (self.sx, self.sy, self.sz)])

    def negated(self) -> "OctantId":
        return OctantId(not self.sx, not self.sy, not self.sz)


@dataclass(frozen=True)
class HydrophoneArray:
    """Eight hydrophones: a tight 4-element quad used for correlation delays
    and a widely separated 4-element quad used for coarse arrival-order
    guessing.

    ``labels`` maps hydrophones to recording channel indices: the first four
    entries label the precise quad, the last four the coarse quad.
    """

    precise: tuple[Vec3, ...]
    coarse: tuple[Vec3, ...]
    labels: tuple[int, ...] = (0, 1, 2, 3, 4, 5, 6, 7)

    def __post_init__(self):
        object.__setattr__(self, "precise", tuple(self.precise))
        object.__setattr__(self, "coarse", tuple(self.coarse))
        object.__setattr__(self, "labels", tuple(int(v) for v in self.labels))
        if len(self.precise) != 4:
            raise ConfigError(f"precise quad must have 4 hydrophones, got {len(self.precise)}")
        if len(self.coarse) != 4:
            raise ConfigError(f"coarse quad must have 4 hydrophones, got {len(self.coarse)}")
        if len(self.labels) != 8:
            raise ConfigError(f"labels must list 8 channel indices, got {len(self.labels)}")

    @property
    def precise_channels(self) -> tuple[int, ...]:
        return self.labels[:4]

    @property
    def coarse_channels(self) -> tuple[int, ...]:
        return self.labels[4:]

    def all_positions(self) -> tuple[Vec3, ...]:
        return self.precise + self.coarse

    def channel_position(self, channel: int) -> Vec3:
        try:
            idx = self.labels.index(channel)
        except ValueError:
            raise ConfigError(f"no hydrophone labeled channel {channel}") from None
        return self.all_positions()[idx]

    def precise_positions_array(self) -> np.ndarray:
        """Precise-quad positions as a (4, 3) array, quad order."""
        return np.array([p.as_array() for p in self.precise])

    def coarse_positions_array(self) -> np.ndarray:
        return np.array([p.as_array() for p in self.coarse])

    def precise_centroid(self) -> Vec3:
        return Vec3.from_array(self.precise_positions_array().mean(axis=0))

    def coarse_centroid(self) -> Vec3:
        return Vec3.from_array(self.coarse_positions_array().mean(axis=0))

    def max_precise_spacing(self) -> float:
        pos = self.precise_positions_array()
        dists = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
        return float(dists.max())


@dataclass(frozen=True)
class PingerSource:
    """Periodic sinusoidal-burst source. ``amplitude`` is the source strength
    referenced to 1 m (pressure at distance r falls off as amplitude/r)."""

    position: Vec3
    frequency: float = 40_000.0
    ping_duration: float = 4e-3
    repetition_interval: float = 2.0
    amplitude: float = 1.0

    def __post_init__(self):
        if self.frequency <= 0:
            raise ConfigError(f"pinger frequency must be > 0, got {self.frequency}")
        if not (0 < self.ping_duration < self.repetition_interval):
            raise ConfigError(
                "ping_duration must satisfy 0 < ping_duration < repetition_interval, "
                f"got {self.ping_duration} / {self.repetition_interval}"
            )
        if self.amplitude <= 0:
            raise ConfigError(f"pinger amplitude must be > 0, got {self.amplitude}")


@dataclass(frozen=True)
class NoiseSpec:
    """Additive noise: white Gaussian, a narrowband interferer, and
    low-passed broadband noise in the thruster band."""

    white_sigma: float = 0.01
    interferer_amp: float = 0.02
    interferer_freq: float = 18_000.0
    lowfreq_amp: float = 0.02
    lowfreq_cutoff: float = 8_000.0

    def __post_init__(self):
        for name in ("white_sigma", "interferer_amp", "interferer_freq",
                     "lowfreq_amp", "lowfreq_cutoff"):
            if getattr(self, name) < 0:
                raise ConfigError(f"NoiseSpec.{name} must be >= 0")

    def is_silent(self) -> bool:
        return self.white_sigma == 0 and self.interferer_amp == 0 and self.lowfreq_amp == 0

    @classmethod
    def silent(cls) -> "NoiseSpec":
        return cls(white_sigma=0.0, interferer_amp=0.0, lowfreq_amp=0.0)


@dataclass(frozen=True)
class ChannelModel:
    """Analog front-end per channel: fixed voltage gain followed by a
    Butterworth bandpass, emulated digitally at the recording rate."""

    gain: float = 10.0
    analog_band_low: float = 30_000.0
    analog_band_high: float = 50_000.0
    analog_order: int = 4

    def __post_init__(self):
        if self.gain <= 0:
            raise ConfigError(f"front-end gain must be > 0, got {self.gain}")
        if not (0 < self.analog_band_low < self.analog_band_high):
            raise ConfigError(
                f"analog band must satisfy 0 < low < high, got "
                f"{self.analog_band_low} / {self.analog_band_high}"
            )
        if self.analog_order < 2 or self.analog_order % 2 != 0:
            raise ConfigError(f"analog_order must be even and >= 2, got {self.analog_order}")


def default_array() -> HydrophoneArray:
    """Stand-in geometry: the precise quad is a regular tetrahedron of edge
    15 mm (all six pairs under the 40 kHz half-wavelength, and non-coplanar
    so a single bearing fits the pair delays), centered forward and below
    deck at (0.2, 0, -0.1). The coarse quad shares a corner and offsets one
    axis at a time, so the widest pair along each axis differs on that axis
    only and straddles the origin there.
    """
    s = 0.015 / (2.0 * math.sqrt(2.0))  # tetrahedron edge 15 mm
    center = np.array([0.2, 0.0, -0.1])
    tetra = np.array(
        [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
    ) * s + center
    precise = tuple(Vec3.from_array(row) for row in tetra)
    coarse = (
        Vec3(0.3, 0.2, 0.15),
        Vec3(-0.3, 0.2, 0.15),
        Vec3(0.3, -0.2, 0.15),
        Vec3(0.3, 0.2, -0.15),
    )
    return HydrophoneArray(precise=precise, coarse=coarse)


@dataclass(frozen=True)
class Scenario:
    """Full description of one simulated capture. ``array`` is keyword-only
    so that it can default while staying the first field (and first key of
    the JSON document)."""

    array: HydrophoneArray = field(default_factory=default_array, kw_only=True)
    pinger: PingerSource
    sound_speed: float = DEFAULT_SOUND_SPEED
    sample_rate: float = DEFAULT_SAMPLE_RATE
    record_duration: float = 2.0
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    front_end: ChannelModel = field(default_factory=ChannelModel)
    seed: int = 0

    def __post_init__(self):
        if self.sound_speed <= 0:
            raise ConfigError(f"sound_speed must be > 0, got {self.sound_speed}")
        if self.sample_rate <= 2 * self.pinger.frequency:
            raise ConfigError(
                f"sample_rate {self.sample_rate} violates Nyquist for carrier "
                f"{self.pinger.frequency}"
            )
        if self.record_duration < self.pinger.repetition_interval:
            raise ConfigError(
                f"record_duration {self.record_duration} shorter than repetition "
                f"interval {self.pinger.repetition_interval}"
            )
        if self.front_end.analog_band_high >= self.sample_rate / 2:
            raise ConfigError(
                f"front-end band edge {self.front_end.analog_band_high} must be "
                f"below Nyquist {self.sample_rate / 2}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")
        # The pinger must be heard on every channel, so off every hydrophone
        # and within the recording. math.dist does not overflow at 1e200 m.
        source = self.pinger.position.as_array()
        for ch, pos in zip(self.array.labels, self.array.all_positions()):
            r = math.dist(source, pos.as_array())
            if r < MIN_HYDROPHONE_SEPARATION:
                raise ConfigError(f"pinger coincides with hydrophone on channel {ch}")
            if r / self.sound_speed >= self.record_duration:
                raise ConfigError(
                    f"pinger out of recording window: arrival {r / self.sound_speed:.4g} s "
                    f"on channel {ch} is past record_duration {self.record_duration} s"
                )
        check_array(self.array, self.pinger.frequency, self.sound_speed)


def true_azimuth_elevation(direction: Vec3) -> tuple[float, float]:
    """Bearing of ``direction``: (azimuth degrees in [0, 360), elevation
    degrees in [-90, 90]). Raises on a zero-length direction."""
    d = direction.as_array()
    n = np.linalg.norm(d)
    if n == 0:
        raise ValueError("undefined bearing: direction has zero length")
    azimuth = math.degrees(math.atan2(d[1], d[0])) % 360.0
    elevation = math.degrees(math.atan2(d[2], math.hypot(d[0], d[1])))
    return azimuth, elevation


def octant_of(direction: Vec3) -> OctantId:
    """Sign pattern of the direction's components; exact zeros classify as
    positive so the result is a total function."""
    return OctantId(direction.x >= 0, direction.y >= 0, direction.z >= 0)


def check_array(array: HydrophoneArray, frequency: float, sound_speed: float) -> None:
    """Check array geometry against the carrier: every precise-quad pair
    spacing at most half a wavelength (keeps inter-channel delays within half
    a carrier period, so correlation peaks are unambiguous), coarse quad
    straddling the origin on every axis and spanning at least
    MIN_AXIS_SEPARATION along it (so the octant guess can order arrivals),
    channel labels a permutation of 0..7, and no two hydrophones coincident.
    Raises one ConfigError that lists every violation.
    """
    if frequency <= 0 or sound_speed <= 0:
        raise ConfigError("frequency and sound_speed must be > 0")

    violations: list[str] = []

    labels = array.labels
    if sorted(labels) != list(range(8)):
        violations.append(f"channel labels must be a permutation of 0..7, got {labels}")

    positions = np.array([p.as_array() for p in array.all_positions()])
    for i in range(8):
        for j in range(i + 1, 8):
            d = math.dist(positions[i], positions[j])
            if d <= MIN_HYDROPHONE_SEPARATION:
                violations.append(f"hydrophones {i} and {j} coincide (distance {d:.3e} m)")

    half_wavelength = sound_speed / (2.0 * frequency)
    precise = array.precise_positions_array()
    for i in range(4):
        for j in range(i + 1, 4):
            d = math.dist(precise[i], precise[j])
            if d > half_wavelength:
                violations.append(
                    f"precise pair ({i},{j}) spaced {d:.4f} m, exceeds "
                    f"half wavelength {half_wavelength:.4f} m"
                )

    coarse = array.coarse_positions_array()
    for axis, name in enumerate("xyz"):
        coords = coarse[:, axis]
        span = coords.max() - coords.min()
        if not (coords.min() < 0 < coords.max()):
            violations.append(f"coarse quad does not span {name}-axis")
        elif span < MIN_AXIS_SEPARATION:
            violations.append(
                f"coarse quad spans {name}-axis by {span:.3e} m, under {MIN_AXIS_SEPARATION} m"
            )

    if violations:
        raise ConfigError("array fails validation: " + "; ".join(violations))


# --- JSON configuration -----------------------------------------------------
#
# A config file is one JSON document whose keys mirror the dataclass fields.


def _decode(tp, value, path: str):
    if dataclasses.is_dataclass(tp):
        return config_from_dict(tp, value, path)
    args = typing.get_args(tp)
    if typing.get_origin(tp) in (typing.Union, types.UnionType):  # X | None
        if value is None:
            return None
        (inner,) = (a for a in args if a is not type(None))
        return _decode(inner, value, path)
    if typing.get_origin(tp) is tuple:  # tuple[X, ...]
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path}: expected a list, got {type(value).__name__}")
        return tuple(_decode(args[0], v, f"{path}[{i}]") for i, v in enumerate(value))
    if tp not in (int, float):
        raise TypeError(f"{path}: no config decoding for {tp!r}")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:
        raise ConfigError(f"{path}: number too large") from None
    if not math.isfinite(number):
        raise ConfigError(f"{path}: must be finite, got {number!r}")
    if tp is float:
        return number
    if not number.is_integer():
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return int(value)


def config_from_dict(cls, doc, context: str):
    """Build the config dataclass ``cls`` from a parsed JSON object, decoding
    each field by its type annotation. Bad input raises ``ConfigError`` naming
    the field's path under ``context``, e.g. ``scenario.array.precise[2].x``."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{context}: expected an object, got {type(doc).__name__}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    for key in doc:
        if key not in fields:
            raise ConfigError(f"{context}.{key}: unknown field")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for name, f in fields.items():
        if name in doc:
            kwargs[name] = _decode(hints[name], doc[name], f"{context}.{name}")
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"{context}.{name}: missing required field")
    return cls(**kwargs)


def load_config(cls, path: str | Path, context: str):
    """``config_from_dict`` on the JSON file at ``path``."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ConfigError(f"cannot read {context} file {path}: {exc}") from exc
    return config_from_dict(cls, doc, context)


def scenario_from_dict(d: dict) -> Scenario:
    return config_from_dict(Scenario, d, "scenario")


scenario_to_dict = dataclasses.asdict


def load_scenario(path: str | Path) -> Scenario:
    return load_config(Scenario, path, "scenario")
