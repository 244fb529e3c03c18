"""Arrival-time least squares: estimate the pinger position from the six
pair delays of the precise quad by gradient descent with Armijo
backtracking. The descent runs over the position p alone, minimizing

    G(p) = 1/2 * sum_pairs (d_i - d_j - c*dtau_ij)^2      [m^2]

from the octant guess. The sum runs over ``dsp.PAIRS``: d_i is the distance
from p to precise-quad hydrophone i, and dtau_ij the TdoaSet's delay for
(i, j). The solver reads quad positions only, never channel labels.

Each iteration steps along -grad G. The trial step length is the
Barzilai-Borwein estimate from the last accepted step, backtracked until the
Armijo condition holds, so descent stays monotone. Every trial point is
evaluated once, G and grad G together, and the accepted point keeps both, so
no point is evaluated twice. The 15 mm quad barely
observes range: G is nearly flat along the bearing ray, so the gradient stop
bounds only the part of grad G across that ray.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dsp import PAIRS, TdoaSet
from .scene import HydrophoneArray, Vec3, true_azimuth_elevation

__all__ = [
    "SolverResult",
    "SingularGeometryError",
    "DivergedError",
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
# Per-iteration decrease of G (m^2) at or below which descent has converged.
_F_TOL = 1e-24
# Iteration budget, and the part of grad G (m) across the bearing ray from
# the precise-quad centroid at or below which descent has converged.
MAX_ITERS = 5000
GRAD_TOL = 1e-10


class SingularGeometryError(ValueError):
    """Candidate position (nearly) coincides with a hydrophone."""


class DivergedError(RuntimeError):
    """Objective became non-finite."""


@dataclass(frozen=True)
class SolverResult:
    """Final position plus diagnostics. ``objective`` is G (m^2) at the
    final position; ``grad_norm`` is the part of grad G (m) across the
    bearing ray; ``evaluations`` counts the evaluations of G and grad G,
    one at the start and one per trial point; ``range`` is measured from the
    precise-quad centroid."""

    position: Vec3
    objective: float
    grad_norm: float
    iterations: int
    evaluations: int
    converged: bool
    stop_reason: str
    azimuth: float
    elevation: float
    range: float


class _Problem:
    """TdoaSet + geometry compiled to flat arrays for the inner loop.

    Measured delays are pre-scaled by the sound speed, so residuals come out
    in meters.
    """

    i_idx, j_idx = np.array(PAIRS).T

    def __init__(self, tdoa: TdoaSet, array: HydrophoneArray, sound_speed: float):
        if sound_speed <= 0:
            raise ValueError(f"sound_speed must be > 0, got {sound_speed}")
        if len(tdoa.pair_delays) != len(PAIRS):
            raise ValueError(f"tdoa must carry {len(PAIRS)} pair delays in dsp.PAIRS order, "
                             f"got {len(tdoa.pair_delays)}")
        self.positions = array.precise_positions_array()  # (4, 3)
        self.ctau = np.array(tdoa.pair_delays) * float(sound_speed)

    def check_guard(self, p: np.ndarray):
        diff = p - self.positions
        if (np.sqrt(np.einsum("ij,ij->i", diff, diff)) < SINGULAR_GUARD_RADIUS).any():
            raise SingularGeometryError(
                "singular geometry: position within "
                f"{SINGULAR_GUARD_RADIUS} m of a hydrophone"
            )

    def objective_and_grad(self, p: np.ndarray) -> tuple[float, np.ndarray]:
        """G(p) and its analytic gradient, the pair sum of
        (d_i - d_j - c*dtau_ij) * (u_i - u_j) with u = (p-h)/||p-h||; or
        (+inf, 0) inside a hydrophone guard ball."""
        diff = p - self.positions
        d = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        if (d < SINGULAR_GUARD_RADIUS).any():
            return np.inf, np.zeros(3)
        pairs = d[self.i_idx] - d[self.j_idx] - self.ctau
        u = diff / d[:, None]
        return 0.5 * (pairs @ pairs), (u[self.i_idx] - u[self.j_idx]).T @ pairs


def _cross_bearing_norm(g: np.ndarray, ray: np.ndarray) -> float:
    """Norm of the part of g orthogonal to ray (all of g for a zero ray)."""
    rr = float(ray @ ray)
    if rr > 0.0:
        g = g - (float(g @ ray) / rr) * ray
    return math.sqrt(float(g @ g))


def gradient_descent(init: Vec3, tdoa: TdoaSet, array: HydrophoneArray,
                     sound_speed: float) -> SolverResult:
    """Minimize G from the position ``init``. Stops on the gradient across
    the bearing ray at or below GRAD_TOL, on objective decrease at or below
    _F_TOL, or after MAX_ITERS iterations; ``converged`` is set only for the
    tolerance stops. Bearing angles are reported for (position - precise-quad
    centroid)."""
    prob = _Problem(tdoa, array, sound_speed)
    centroid = array.precise_centroid().as_array()
    p = init.as_array()
    prob.check_guard(p)

    G, g = prob.objective_and_grad(p)
    evaluations = 1
    if not math.isfinite(G):
        raise DivergedError("diverged: non-finite objective at initial point")

    alpha = _INITIAL_STEP
    p_prev: np.ndarray | None = None
    g_prev: np.ndarray | None = None
    iterations = 0
    converged = False
    stop_reason = "max_iters"

    while iterations < MAX_ITERS:
        gg = float(g @ g)
        if _cross_bearing_norm(g, p - centroid) <= GRAD_TOL:
            converged = True
            stop_reason = "grad_tol"
            break

        # Barzilai-Borwein trial step from the last accepted move; falls back
        # to the previous accepted step when the curvature estimate is not
        # positive.
        if p_prev is not None:
            s = p - p_prev
            y = g - g_prev
            sy = float(s @ y)
            if sy > 0.0:
                alpha = float(s @ s) / sy
        alpha = min(max(alpha, 1e-10), _ALPHA_MAX)

        accepted = False
        trial = alpha
        while trial >= _ALPHA_MIN:
            p_new = p - trial * g
            G_new, g_new = prob.objective_and_grad(p_new)
            evaluations += 1
            if math.isfinite(G_new) and G_new <= G - _ARMIJO_C1 * trial * gg:
                accepted = True
                break
            trial *= _BETA
        if not accepted:
            stop_reason = "line_search_failed"
            break
        alpha = trial

        decrease = G - G_new
        p_prev, g_prev = p, g
        p, G, g = p_new, G_new, g_new
        iterations += 1
        if decrease <= _F_TOL:
            converged = True
            stop_reason = "f_tol"
            break

    direction = p - centroid
    rng = float(np.linalg.norm(direction))
    if rng > 1e-12:
        azimuth, elevation = true_azimuth_elevation(Vec3.from_array(direction))
    else:
        azimuth, elevation, rng = 0.0, 0.0, 0.0

    return SolverResult(
        position=Vec3.from_array(p),
        objective=float(G),
        grad_norm=_cross_bearing_norm(g, direction),
        iterations=iterations,
        evaluations=evaluations,
        converged=converged,
        stop_reason=stop_reason,
        azimuth=azimuth,
        elevation=elevation,
        range=rng,
    )
