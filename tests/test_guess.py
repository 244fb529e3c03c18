import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pingerloc import (
    OctantGuess,
    Vec3,
    default_array,
    initial_point,
    octant_guess,
    octant_of,
)
from pingerloc.guess import DEFAULT_INIT_RANGE
from pingerloc.scene import MIN_AXIS_SEPARATION, OctantId
from conftest import travel_time

C = 1480.0
ARRAY = default_array()
COARSE = list(ARRAY.coarse)


def arrivals_for(position, t_emit=0.0):
    return [t_emit + travel_time(position, h, C) for h in COARSE]


class TestOctantGuess:
    def test_all_positive_position(self):
        g = octant_guess(arrivals_for(Vec3(12.0, 7.0, 3.0)), COARSE)
        assert g.octant.as_string() == "+++"
        assert g.margin > 0.0
        assert not g.low_confidence

    def test_negating_x_flips_only_x(self):
        base = octant_guess(arrivals_for(Vec3(12.0, 7.0, 3.0)), COARSE)
        mirrored = octant_guess(arrivals_for(Vec3(-12.0, 7.0, 3.0)), COARSE)
        assert mirrored.octant.sx != base.octant.sx
        assert mirrored.octant.sy == base.octant.sy
        assert mirrored.octant.sz == base.octant.sz

    def test_identical_arrivals_tie_break(self):
        g = octant_guess([0.01] * 4, COARSE, min_margin=2.0 / 500_000.0)
        assert g.octant.as_string() == "+++"
        assert g.margin == 0.0
        assert g.low_confidence

    def test_sign_consistency_strictly_interior(self):
        rng = np.random.default_rng(41)
        centroid = ARRAY.coarse_centroid().as_array()
        hits = 0
        for _ in range(200):
            radius = rng.uniform(5.0, 30.0)
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            pos = radius * v
            while np.any(np.abs(pos) < 1.0):
                v = rng.normal(size=3)
                v /= np.linalg.norm(v)
                pos = radius * v
            p = Vec3.from_array(pos)
            g = octant_guess(arrivals_for(p), COARSE)
            expected = octant_of(Vec3.from_array(pos - centroid))
            hits += g.octant == expected
        assert hits == 200

    def test_antisymmetry(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            pos = rng.uniform(1.5, 20.0, 3) * rng.choice([-1.0, 1.0], 3)
            p = Vec3.from_array(pos)
            n = Vec3.from_array(-pos)
            assert (octant_guess(arrivals_for(n), COARSE).octant
                    == octant_guess(arrivals_for(p), COARSE).octant.negated())

    def test_init_lies_in_guessed_octant(self):
        g = octant_guess(arrivals_for(Vec3(9.0, -6.0, 4.0)), COARSE)
        rel = g.init.as_array() - ARRAY.coarse_centroid().as_array()
        assert octant_of(Vec3.from_array(rel)) == g.octant

    def test_degenerate_axis(self):
        flat = [Vec3(0.3, 0.2, 0.0), Vec3(-0.3, 0.2, 0.0),
                Vec3(0.3, -0.2, 0.0), Vec3(-0.3, -0.2, 0.0)]
        with pytest.raises(ValueError, match="axis z"):
            octant_guess([0.01, 0.011, 0.012, 0.013], flat)

    def test_unresolvable_quad_raises_on_every_call(self):
        # The per-quad geometry is cached only once it is computed: a quad
        # that fails raises again, whatever the arrivals.
        flat = (Vec3(0.3, 0.2, 0.0), Vec3(-0.3, 0.2, 0.0),
                Vec3(0.3, -0.2, 0.0), Vec3(-0.3, -0.2, 0.0))
        for arrivals in ([0.01, 0.011, 0.012, 0.013], [0.01] * 4, [0.01, 0.011, 0.012, 0.013]):
            with pytest.raises(ValueError, match="unresolvable axis z"):
                octant_guess(arrivals, flat)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            octant_guess([0.01] * 3, COARSE)
        with pytest.raises(ValueError):
            octant_guess([0.01, 0.01, float("nan"), 0.01], COARSE)


def six_pair_guess(coarse_arrivals, coarse_positions, min_margin=0.0):
    """The octant guess as it enumerated all six coarse pairs on each axis and
    kept the first widest one: the reference ``octant_guess`` must equal."""
    arrivals = np.asarray(coarse_arrivals, dtype=float)
    positions = np.array([p.as_array() for p in coarse_positions])
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    bits = []
    margins = []
    for axis, name in enumerate("xyz"):
        separations = [abs(positions[i, axis] - positions[j, axis]) for i, j in pairs]
        best = int(np.argmax(separations))
        if separations[best] < MIN_AXIS_SEPARATION:
            raise ValueError(f"unresolvable axis {name}: coarse quad separation "
                             f"{separations[best]:.3e} m")
        i, j = pairs[best]
        pos_side, neg_side = (i, j) if positions[i, axis] >= positions[j, axis] else (j, i)
        diff = arrivals[neg_side] - arrivals[pos_side]
        bits.append(diff >= 0.0)
        margins.append(abs(diff))
    octant = OctantId(*bits)
    margin = float(min(margins))
    init = initial_point(octant, Vec3.from_array(positions.mean(axis=0)))
    return OctantGuess(octant=octant, init=init, margin=margin,
                       low_confidence=margin < min_margin)


def guess_or_error(fn, arrivals, quad, min_margin):
    try:
        return fn(arrivals, quad, min_margin)
    except ValueError as exc:
        return str(exc)


# A coarse 5-value grid makes tied coordinates, and so several widest pairs
# per axis, frequent; arrivals tie exactly as often.
grid_coordinate = st.sampled_from([-0.3, -0.1, 0.0, 0.1, 0.3])
grid_point = st.builds(Vec3, grid_coordinate, grid_coordinate, grid_coordinate)
arrival = st.sampled_from([0.01, 0.01 + 2e-6, 0.01 + 4e-6]) | st.floats(0.0, 0.05)


@given(quad=st.lists(grid_point, min_size=4, max_size=4),
       arrivals=st.lists(arrival, min_size=4, max_size=4),
       min_margin=st.sampled_from([0.0, 2e-6, 1e-3]))
@settings(max_examples=400, deadline=None)
def test_equals_six_pair_enumeration(quad, arrivals, min_margin):
    assert (guess_or_error(octant_guess, arrivals, quad, min_margin)
            == guess_or_error(six_pair_guess, arrivals, quad, min_margin))


class TestInitialPoint:
    def test_diagonal_all_positive(self):
        init = initial_point(OctantId(True, True, True), Vec3(0, 0, 0))
        assert np.allclose(init.as_array(), [5.7735] * 3, atol=1e-3)

    def test_signs_applied_componentwise(self):
        init = initial_point(OctantId(False, True, False), Vec3(0, 0, 0))
        assert init.x < 0 and init.y > 0 and init.z < 0

    def test_centroid_offset(self):
        init = initial_point(OctantId(True, False, True), Vec3(1.0, 2.0, 3.0))
        expected = (np.array([1.0, 2.0, 3.0])
                    + DEFAULT_INIT_RANGE * np.array([1, -1, 1]) / np.sqrt(3.0))
        assert np.allclose(init.as_array(), expected, atol=1e-12)
