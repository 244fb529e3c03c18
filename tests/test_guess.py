import numpy as np
import pytest

from pingerloc import (
    UnresolvableAxisError,
    Vec3,
    default_array,
    initial_point,
    octant_guess,
    octant_of,
    propagation_delay,
)
from pingerloc.scene import OctantId

C = 1480.0
ARRAY = default_array()
COARSE = list(ARRAY.coarse)


def arrivals_for(position, t_emit=0.0):
    return [t_emit + propagation_delay(position, h, C) for h in COARSE]


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
        with pytest.raises(UnresolvableAxisError, match="axis z"):
            octant_guess([0.01, 0.011, 0.012, 0.013], flat)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            octant_guess([0.01] * 3, COARSE)
        with pytest.raises(ValueError):
            octant_guess([0.01, 0.01, float("nan"), 0.01], COARSE)


class TestInitialPoint:
    def test_diagonal_all_positive(self):
        init = initial_point(OctantId(True, True, True), 10.0, Vec3(0, 0, 0))
        assert np.allclose(init.as_array(), [5.7735] * 3, atol=1e-3)

    def test_signs_applied_componentwise(self):
        init = initial_point(OctantId(False, True, False), 10.0, Vec3(0, 0, 0))
        assert init.x < 0 and init.y > 0 and init.z < 0

    def test_centroid_offset(self):
        init = initial_point(OctantId(True, False, True), 9.0, Vec3(1.0, 2.0, 3.0))
        expected = np.array([1.0, 2.0, 3.0]) + 9.0 * np.array([1, -1, 1]) / np.sqrt(3.0)
        assert np.allclose(init.as_array(), expected, atol=1e-12)

    def test_rejects_bad_inputs(self):
        for radius in (-1.0, 0.0):
            with pytest.raises(ValueError, match="radius"):
                initial_point(OctantId(True, True, True), radius, Vec3(0, 0, 0))
