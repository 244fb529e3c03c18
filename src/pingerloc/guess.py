"""Cheap arrival-order guess from the widely separated coarse quad.

For each body axis the quad's widest pair decides a sign bit: the ping
reaches the hydrophone on the pinger's side first. The three bits name an
octant, which seeds gradient descent at a fixed range along the octant
diagonal. Only onset times are needed, no correlation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .scene import MIN_AXIS_SEPARATION, OctantId, Vec3

__all__ = ["OctantGuess", "octant_guess", "initial_point"]

DEFAULT_INIT_RANGE = 10.0  # m, between near-field and the far detection range


@dataclass(frozen=True)
class OctantGuess:
    octant: OctantId
    init: Vec3
    margin: float
    low_confidence: bool = False


def octant_guess(coarse_arrivals: Sequence[float], coarse_positions: Sequence[Vec3],
                 min_margin: float = 0.0) -> OctantGuess:
    """Classify the pinger's octant from the four coarse onsets.

    Per axis: take the pair with the largest separation along that axis
    (ties resolve to the first pair in index order) and set the sign bit to
    sign(arrival at the negative-side hydrophone - arrival at the
    positive-side hydrophone); an exactly zero difference counts as positive.
    ``margin`` is the smallest |arrival difference| used; a guess with margin
    below ``min_margin`` is flagged low-confidence. Raises ValueError when an
    axis's widest pair is under MIN_AXIS_SEPARATION apart.
    """
    arrivals = np.asarray(coarse_arrivals, dtype=float)
    if arrivals.shape != (4,):
        raise ValueError(f"expected 4 coarse arrivals, got shape {arrivals.shape}")
    if not np.all(np.isfinite(arrivals)):
        raise ValueError("coarse arrivals must be finite")
    positions = np.array([p.as_array() for p in coarse_positions])
    if positions.shape != (4, 3):
        raise ValueError(f"expected 4 coarse positions, got shape {positions.shape}")

    # Each axis's widest pair: its first maximum and first minimum, which are
    # the first widest pair in index order.
    hi, lo = positions.argmax(axis=0), positions.argmin(axis=0)
    for name, separation in zip("xyz", np.ptp(positions, axis=0)):
        if separation < MIN_AXIS_SEPARATION:
            raise ValueError(f"unresolvable axis {name}: coarse quad separation "
                             f"{separation:.3e} m")
    diff = arrivals[lo] - arrivals[hi]
    octant = OctantId(*(diff >= 0.0))
    margin = float(np.abs(diff).min())
    centroid = Vec3.from_array(positions.mean(axis=0))
    init = initial_point(octant, centroid)
    return OctantGuess(octant=octant, init=init, margin=margin,
                       low_confidence=margin < min_margin)


def initial_point(octant: OctantId, centroid: Vec3) -> Vec3:
    """Descent start: DEFAULT_INIT_RANGE meters from the coarse centroid
    along the octant diagonal."""
    direction = octant.signs() / np.sqrt(3.0)
    return Vec3.from_array(centroid.as_array() + DEFAULT_INIT_RANGE * direction)
