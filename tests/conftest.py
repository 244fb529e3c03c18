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
from pingerloc.dsp import PAIRS, FrontEnd

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


def assert_equal_past_float32_cut(ours, oracle):
    """``ours``, float32 samples whose silent tails were cut, against an
    ``oracle`` that ran them out: ``np.array_equal``, byte for byte wherever
    the oracle is nonzero, and each row byte-equal up to its cut and +0.0
    from there on, where the oracle holds zeros of either sign."""
    assert np.array_equal(ours, oracle)
    nonzero = oracle != 0
    assert ours[nonzero].tobytes() == oracle[nonzero].tobytes()
    for row, ref in zip(np.atleast_2d(ours), np.atleast_2d(oracle)):
        differs = np.flatnonzero(row.view(np.uint32) != ref.view(np.uint32))
        if differs.size:
            assert not row[differs[0]:].view(np.uint32).any()


def full_record(filtered, array, onsets, runs, fs=FS):
    """A front-end record over full-length filtered channels ``filtered``
    (8, n), so the window search can read edited or full-length rows: every
    run's window of the other precise channels is their whole row (a
    read-only view), at offset 0."""
    others = filtered[list(array.precise_channels[1:])]
    return FrontEnd(sample_rate=fs, reference=filtered[array.precise_channels[0]],
                    cutoff=np.nan, runs=tuple(runs),
                    windows=np.broadcast_to(others[:, None], (3, len(runs), filtered.shape[1])),
                    offsets=(0,) * len(runs), onsets=onsets)


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
