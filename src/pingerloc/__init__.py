"""Underwater acoustic pinger localization: an 8-hydrophone simulator, a
bandpass/cross-correlation DSP front-end, a coarse octant guess, and an
arrival-time gradient-descent solver that reports the pinger's azimuth."""

from .scene import (
    ChannelModel,
    ConfigError,
    HydrophoneArray,
    NoiseSpec,
    OctantId,
    PingerSource,
    Scenario,
    Vec3,
    default_array,
    load_scenario,
    octant_of,
    true_azimuth_elevation,
)
from .recording import (
    BadMagicError,
    MultiChannelRecording,
    RecordingFormatError,
    TruncatedPayloadError,
    VersionMismatchError,
    read_recording,
    write_recording,
)
from .simulator import add_noise, ping_waveform, render_scene
from .dsp import (
    DegenerateSignalError,
    NoPingError,
    TdoaSet,
    UnstableWindowError,
    design_bandpass,
    detect_ping,
    estimate_delay,
    filter_signal,
    select_stable_window,
)
from .solver import (
    DivergedError,
    SingularGeometryError,
    SolverResult,
    gradient_descent,
)
from .guess import OctantGuess, initial_point, octant_guess
from .pipeline import (
    AzimuthReport,
    MonteCarloConfig,
    MonteCarloSummary,
    monte_carlo,
    run_localization,
    write_monte_carlo_csv,
)

__version__ = "0.1.0"
