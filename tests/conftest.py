import numpy as np
import pytest

from pingerloc import (
    DivergedError,
    NoiseSpec,
    PingerSource,
    Scenario,
    TdoaSet,
    Vec3,
    default_array,
    render_scene,
    solver,
)
from pingerloc.dsp import PAIRS

SOUND_SPEED = 1480.0
FS = 500_000.0


def fast_scenario(position, record_duration=0.05, noise=None, seed=0, **pinger_kwargs):
    """Scenario sized for quick tests: one 4 ms ping per 50 ms repetition."""
    pinger_kwargs.setdefault("repetition_interval", record_duration)
    pinger = PingerSource(position=position, **pinger_kwargs)
    return Scenario(
        array=default_array(),
        pinger=pinger,
        sound_speed=SOUND_SPEED,
        sample_rate=FS,
        record_duration=record_duration,
        noise=noise if noise is not None else NoiseSpec.silent(),
        seed=seed,
    )


def travel_time(source, hydrophone, sound_speed):
    """Straight-path travel time (s) from ``source`` to ``hydrophone``."""
    return float(np.linalg.norm(source.as_array() - hydrophone.as_array())) / sound_speed


def geometric_tdoa(array, position, sound_speed, t0=0.0):
    """Exact TdoaSet built from geometry alone; the independent construction
    solver tests measure against."""
    pos = position.as_array()

    def dist(ch):
        return float(np.linalg.norm(pos - array.channel_position(ch).as_array()))

    channels = array.precise_channels
    return TdoaSet(
        onset_time_abs=t0 + dist(channels[0]) / sound_speed,
        pair_delays=tuple((dist(channels[i]) - dist(channels[j])) / sound_speed
                          for i, j in PAIRS),
        peak_correlations=(1.0,) * len(PAIRS),
        coarse_arrivals=tuple(t0 + dist(ch) / sound_speed for ch in array.coarse_channels),
        window=(0, 1000),
    )


@pytest.fixture(scope="session")
def std_scenario():
    return fast_scenario(Vec3(10.0, 5.0, -2.0))


@pytest.fixture(scope="session")
def std_recording(std_scenario):
    return render_scene(std_scenario)


@pytest.fixture()
def diverging_solver(monkeypatch):
    def diverge(*args, **kwargs):
        raise DivergedError("diverged: forced")

    monkeypatch.setattr(solver, "gradient_descent", diverge)
