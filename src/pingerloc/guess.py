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

from .scene import OctantId, Vec3

__all__ = ["OctantGuess", "UnresolvableAxisError", "octant_guess", "initial_point"]

DEFAULT_INIT_RANGE = 10.0  # m, between near-field and the far detection range

# An axis whose widest coarse pair is separated by less than this cannot
# order arrivals.
MIN_AXIS_SEPARATION = 1e-3


class UnresolvableAxisError(ValueError):
    pass


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
    below ``min_margin`` is flagged low-confidence.
    """
    arrivals = np.asarray(coarse_arrivals, dtype=float)
    if arrivals.shape != (4,):
        raise ValueError(f"expected 4 coarse arrivals, got shape {arrivals.shape}")
    if not np.all(np.isfinite(arrivals)):
        raise ValueError("coarse arrivals must be finite")
    positions = np.array([p.as_array() for p in coarse_positions])
    if positions.shape != (4, 3):
        raise ValueError(f"expected 4 coarse positions, got shape {positions.shape}")

    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    bits = []
    margins = []
    for axis, name in enumerate("xyz"):
        separations = [abs(positions[i, axis] - positions[j, axis]) for i, j in pairs]
        best = int(np.argmax(separations))
        if separations[best] < MIN_AXIS_SEPARATION:
            raise UnresolvableAxisError(
                f"unresolvable axis {name}: coarse quad separation "
                f"{separations[best]:.3e} m"
            )
        i, j = pairs[best]
        if positions[i, axis] >= positions[j, axis]:
            pos_side, neg_side = i, j
        else:
            pos_side, neg_side = j, i
        diff = arrivals[neg_side] - arrivals[pos_side]
        bits.append(diff >= 0.0)
        margins.append(abs(diff))

    octant = OctantId(*bits)
    margin = float(min(margins))
    centroid = Vec3.from_array(positions.mean(axis=0))
    init = initial_point(octant, DEFAULT_INIT_RANGE, centroid)
    return OctantGuess(octant=octant, init=init, margin=margin,
                       low_confidence=margin < min_margin)


def initial_point(octant: OctantId, radius: float, centroid: Vec3) -> Vec3:
    """Descent start: ``radius`` meters from the coarse centroid along the
    octant diagonal."""
    if radius <= 0:
        raise ValueError(f"radius must be > 0, got {radius}")
    direction = octant.signs() / np.sqrt(3.0)
    return Vec3.from_array(centroid.as_array() + radius * direction)
