"""Four-dimensional arrival-time least squares: estimate pinger position and
emission time from the six pairwise delays of the precise quad plus the
reference channel's absolute onset, by gradient descent with Armijo
backtracking.

The unknowns are (x, y, z, t0). Internally the solver works in
meters-commensurate variables q = (x, y, z, c*t0) and minimizes the
range-residual objective

    F(q) = 1/2 * [ sum_pairs (d_i - d_j - c*dtau_ij)^2
                   + (d_ref + c*t0 - c*T_onset)^2 ]      [m^2]

which equals c^2 times the time-residual objective of
``objective_and_gradient``. Without the scaling the emission-time coordinate
dominates the curvature by a factor of c^2 and descent stalls.

Each iteration steps along the negative gradient. The trial step length is
the Barzilai-Borwein estimate from the last accepted step, backtracked until
the Armijo condition holds, so descent stays monotone. The anchor residual
curves a factor (range/aperture)^2, around 1e6, harder than the bearing
directions; a fixed-step or step-doubling search zigzags against the anchor
and makes no bearing progress, while the BB estimate alternates between the
curvature scales and converges in a few hundred iterations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dsp import TdoaSet
from .scene import HydrophoneArray, Vec3, true_azimuth_elevation

__all__ = [
    "Theta",
    "SolverParams",
    "SolverResult",
    "SingularGeometryError",
    "DivergedError",
    "residuals",
    "objective_and_gradient",
    "gradient_descent",
]

# No residual is differentiable at a hydrophone; keep iterates out of a small
# ball around each one.
SINGULAR_GUARD_RADIUS = 1e-3

# Line search: the first trial step, the backtracking factor, and the Armijo
# sufficient-decrease constant.
_INITIAL_STEP = 1.0
_BETA = 0.5
_ARMIJO_C1 = 1e-4
_ALPHA_MIN = 1e-20
_ALPHA_MAX = 1e12
# Per-iteration decrease of F (m^2) at or below which descent has converged.
_F_TOL = 1e-24
# Relative per-iteration decrease below which the step counts as stalled and
# the forward-tracking probe runs.
_REL_STALL = 1e-6


class SingularGeometryError(ValueError):
    """Candidate position (nearly) coincides with a hydrophone."""


class DivergedError(RuntimeError):
    """Objective became non-finite."""


@dataclass(frozen=True)
class Theta:
    """Solver unknowns: source position (m) and emission time t0 (s,
    relative to recording start)."""

    position: Vec3
    t0: float

    def __post_init__(self):
        if not math.isfinite(self.t0):
            raise ValueError(f"t0 must be finite, got {self.t0}")


@dataclass(frozen=True)
class SolverParams:
    """Gradient-descent budget and gradient tolerance. grad_tol applies to
    the gradient norm of the meters-scaled objective F."""

    max_iters: int = 5000
    grad_tol: float = 1e-10

    def __post_init__(self):
        if self.grad_tol <= 0:
            raise ValueError("grad_tol must be > 0")
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")


@dataclass(frozen=True)
class SolverResult:
    """Final iterate plus diagnostics. ``objective`` and ``grad_norm`` are in
    the meters-scaled domain (m^2 and its gradient); ``range`` is measured
    from the precise-quad centroid."""

    theta: Theta
    objective: float
    grad_norm: float
    iterations: int
    converged: bool
    stop_reason: str
    azimuth: float
    elevation: float
    range: float


class _Problem:
    """TdoaSet + geometry compiled to flat arrays for the inner loop.

    Measured delays and the onset are pre-scaled by the sound speed, so
    residuals come out in meters.
    """

    def __init__(self, tdoa: TdoaSet, array: HydrophoneArray, sound_speed: float):
        if sound_speed <= 0:
            raise ValueError(f"sound_speed must be > 0, got {sound_speed}")
        channels = array.precise_channels
        row_of = {ch: k for k, ch in enumerate(channels)}
        expected = {frozenset(p) for p in
                    [(channels[i], channels[j]) for i in range(4) for j in range(i + 1, 4)]}
        got = {frozenset(est.pair) for est in tdoa.pairwise}
        if got != expected:
            raise ValueError(
                f"tdoa must carry all 6 precise-quad pairs {sorted(map(tuple, expected))}, "
                f"got {sorted(map(tuple, got))}"
            )
        if tdoa.reference_channel not in row_of:
            raise ValueError(f"reference channel {tdoa.reference_channel} not in precise quad")

        self.c = float(sound_speed)
        self.positions = array.precise_positions_array()  # (4, 3)
        self.i_idx = np.array([row_of[est.pair[0]] for est in tdoa.pairwise])
        self.j_idx = np.array([row_of[est.pair[1]] for est in tdoa.pairwise])
        self.ctau = np.array([est.delta_t for est in tdoa.pairwise]) * self.c
        self.ref_row = row_of[tdoa.reference_channel]
        self.c_onset = tdoa.onset_time_abs * self.c

    def distances(self, p: np.ndarray) -> np.ndarray:
        diff = p - self.positions
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))

    def check_guard(self, p: np.ndarray):
        d = self.distances(p)
        if (d < SINGULAR_GUARD_RADIUS).any():
            raise SingularGeometryError(
                "singular geometry: position within "
                f"{SINGULAR_GUARD_RADIUS} m of a hydrophone"
            )

    def range_residuals(self, q: np.ndarray) -> np.ndarray:
        """Meters residuals at q = (x, y, z, c*t0); 6 pairwise then anchor."""
        d = self.distances(q[:3])
        pairs = d[self.i_idx] - d[self.j_idx] - self.ctau
        anchor = d[self.ref_row] + q[3] - self.c_onset
        return np.append(pairs, anchor)

    def objective(self, q: np.ndarray) -> float:
        """F(q), or +inf inside a hydrophone guard ball."""
        diff = q[:3] - self.positions
        d = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        if (d < SINGULAR_GUARD_RADIUS).any():
            return np.inf
        pairs = d[self.i_idx] - d[self.j_idx] - self.ctau
        anchor = d[self.ref_row] + q[3] - self.c_onset
        return 0.5 * (pairs @ pairs + anchor * anchor)

    def objective_and_grad(self, q: np.ndarray) -> tuple[float, np.ndarray]:
        diff = q[:3] - self.positions
        d = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        if (d < SINGULAR_GUARD_RADIUS).any():
            return np.inf, np.zeros(4)
        pairs = d[self.i_idx] - d[self.j_idx] - self.ctau
        anchor = d[self.ref_row] + q[3] - self.c_onset
        f = 0.5 * (pairs @ pairs + anchor * anchor)
        u = diff / d[:, None]
        grad = np.empty(4)
        grad[:3] = (u[self.i_idx] - u[self.j_idx]).T @ pairs + anchor * u[self.ref_row]
        grad[3] = anchor
        return f, grad


def _theta_to_q(theta: Theta, c: float) -> np.ndarray:
    return np.append(theta.position.as_array(), c * theta.t0)


def _q_to_theta(q: np.ndarray, c: float) -> Theta:
    return Theta(position=Vec3.from_array(q[:3]), t0=float(q[3] / c))


def residuals(theta: Theta, tdoa: TdoaSet, array: HydrophoneArray, sound_speed: float) -> np.ndarray:
    """Time residuals (seconds), length 7: for each precise pair (i, j),
    (||p-h_i|| - ||p-h_j||)/c - dtau_ij, then the anchor
    ||p-h_ref||/c + t0 - onset_time_abs."""
    prob = _Problem(tdoa, array, sound_speed)
    q = _theta_to_q(theta, prob.c)
    prob.check_guard(q[:3])
    return prob.range_residuals(q) / prob.c


def objective_and_gradient(theta: Theta, tdoa: TdoaSet, array: HydrophoneArray,
                           sound_speed: float) -> tuple[float, np.ndarray]:
    """Time-residual objective f = 1/2 sum r^2 (s^2) and its analytic
    gradient (df/dx, df/dy, df/dz, df/dt0), using
    d||p-h||/dp = (p-h)/||p-h||. df/dt0 equals the anchor residual."""
    prob = _Problem(tdoa, array, sound_speed)
    q = _theta_to_q(theta, prob.c)
    prob.check_guard(q[:3])
    F, gq = prob.objective_and_grad(q)
    c = prob.c
    # f = F / c^2; d/dp scales by 1/c^2, d/dt0 by 1/c (since q3 = c*t0).
    grad = np.empty(4)
    grad[:3] = gq[:3] / c**2
    grad[3] = gq[3] / c
    return F / c**2, grad


def gradient_descent(init: Theta, tdoa: TdoaSet, array: HydrophoneArray,
                     sound_speed: float, params: SolverParams | None = None) -> SolverResult:
    """Minimize F from ``init``. Stops on gradient norm, on objective
    decrease at or below _F_TOL, or on the iteration budget; ``converged`` is
    set only for the tolerance stops. Bearing angles are reported for
    (position - precise-quad centroid)."""
    params = params or SolverParams()
    prob = _Problem(tdoa, array, sound_speed)
    q = _theta_to_q(init, prob.c)
    prob.check_guard(q[:3])

    F, g = prob.objective_and_grad(q)
    if not np.isfinite(F):
        raise DivergedError("diverged: non-finite objective at initial point")

    alpha = _INITIAL_STEP
    q_prev: np.ndarray | None = None
    g_prev: np.ndarray | None = None
    iterations = 0
    converged = False
    stop_reason = "max_iters"

    while iterations < params.max_iters:
        gg = float(g @ g)
        grad_norm = math.sqrt(gg)
        if grad_norm <= params.grad_tol:
            converged = True
            stop_reason = "grad_tol"
            break

        # Barzilai-Borwein trial step from the last accepted move; falls back
        # to the previous accepted step when the curvature estimate is not
        # positive.
        if q_prev is not None:
            s = q - q_prev
            y = g - g_prev
            sy = float(s @ y)
            if sy > 0.0:
                alpha = float(s @ s) / sy
        alpha = float(np.clip(alpha, 1e-10, _ALPHA_MAX))

        accepted = False
        trial = alpha
        while trial >= _ALPHA_MIN:
            q_new = q - trial * g
            F_new = prob.objective(q_new)
            if np.isfinite(F_new) and F_new <= F - _ARMIJO_C1 * trial * gg:
                accepted = True
                break
            trial *= _BETA
        if not accepted:
            stop_reason = "line_search_failed"
            break

        if F - F_new <= max(_F_TOL, F * _REL_STALL):
            # Negligible progress at the BB step. Before settling for it,
            # forward track: grow the step while Armijo still holds. This
            # rides out the nearly flat range valley, where the BB estimate
            # keeps relearning the stiff curvature scales; when the gradient
            # is valley-dominated the growing probes chain far out, and when
            # it is not the first probe fails and costs one evaluation.
            probe = trial / _BETA
            while probe <= _ALPHA_MAX:
                F_probe = prob.objective(q - probe * g)
                if np.isfinite(F_probe) and F_probe <= F - _ARMIJO_C1 * probe * gg:
                    if F_probe < F_new:
                        trial, F_new = probe, F_probe
                        q_new = q - probe * g
                    probe /= _BETA
                else:
                    break
        alpha = trial

        decrease = F - F_new
        q_prev, g_prev = q, g
        q = q_new
        F, g = prob.objective_and_grad(q)
        iterations += 1
        if decrease <= _F_TOL:
            converged = True
            stop_reason = "f_tol"
            break

    grad_norm = float(np.linalg.norm(g))
    theta = _q_to_theta(q, prob.c)
    direction = theta.position.as_array() - array.precise_centroid().as_array()
    if np.linalg.norm(direction) > 1e-12:
        azimuth, elevation = true_azimuth_elevation(Vec3.from_array(direction))
        rng = float(np.linalg.norm(direction))
    else:
        azimuth, elevation, rng = 0.0, 0.0, 0.0

    return SolverResult(
        theta=theta,
        objective=float(F),
        grad_norm=grad_norm,
        iterations=iterations,
        converged=converged,
        stop_reason=stop_reason,
        azimuth=azimuth,
        elevation=elevation,
        range=rng,
    )
