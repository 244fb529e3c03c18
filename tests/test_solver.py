import dataclasses
import math

import numpy as np
import pytest

from pingerloc import (
    HydrophoneArray,
    OctantId,
    SingularGeometryError,
    Vec3,
    default_array,
    gradient_descent,
    initial_point,
    octant_guess,
    octant_of,
    true_azimuth_elevation,
)
from pingerloc import solver
from conftest import geometric_tdoa

C = 1480.0
ARRAY = default_array()


@pytest.fixture()
def objective_calls(monkeypatch):
    """Every point the descent passes to ``_Problem.objective_and_grad``, its
    one objective evaluator, in call order."""
    points = []
    original = solver._Problem.objective_and_grad

    def recorded(self, p):
        points.append(p.copy())
        return original(self, p)

    monkeypatch.setattr(solver._Problem, "objective_and_grad", recorded)
    return points


class TestResiduals:
    # The six pair residuals (m) as seen through the descent's objective:
    # G = 1/2 sum r^2.
    def test_zero_at_truth(self):
        truth = Vec3(8.0, 3.0, -4.0)
        tdoa = geometric_tdoa(ARRAY, truth, C, t0=0.0)
        f, g = solver._Problem(tdoa, ARRAY, C).objective_and_grad(truth.as_array())
        assert g.shape == (3,)
        assert math.sqrt(2.0 * f) <= 1e-12
        assert np.allclose(g, 0.0, atol=1e-12)

    def hand_array(self):
        precise = (Vec3(0.5, 0, 0), Vec3(-0.5, 0, 0), Vec3(0, 0.5, 0), Vec3(0, -0.5, 0))
        coarse = (Vec3(1, 1, 1), Vec3(-1, 1, 1), Vec3(1, -1, 1), Vec3(1, 1, -1))
        return HydrophoneArray(precise=precise, coarse=coarse)

    def test_hand_case_unit_sound_speed(self):
        # hydrophones /pm 0.5 on the axes, source at (2, 0, 0), c = 1:
        # distances 1.5, 2.5, sqrt(4.25), sqrt(4.25)
        array = self.hand_array()
        tdoa = geometric_tdoa(array, Vec3(2.0, 0.0, 0.0), 1.0)
        # The first pair in PAIRS order is quad hydrophones (0, 1).
        assert tdoa.pair_delays[0] == pytest.approx(1.5 - 2.5, abs=1e-15)
        f, _ = solver._Problem(tdoa, array, 1.0).objective_and_grad(np.array([2.0, 0.0, 0.0]))
        assert math.sqrt(2.0 * f) <= 1e-12

    def test_hand_case_perturbed_objective(self):
        array = self.hand_array()
        tdoa = geometric_tdoa(array, Vec3(2.0, 0.0, 0.0), 1.0)
        # by-hand distances from (2, 1, 0)
        d0 = math.sqrt(1.5**2 + 1.0)
        d1 = math.sqrt(2.5**2 + 1.0)
        d2 = math.sqrt(4.0 + 0.25)
        d3 = math.sqrt(4.0 + 2.25)
        dist_true = {0: 1.5, 1: 2.5, 2: math.sqrt(4.25), 3: math.sqrt(4.25)}
        dist_pert = {0: d0, 1: d1, 2: d2, 3: d3}
        expected = []
        for i in range(4):
            for j in range(i + 1, 4):
                expected.append((dist_pert[i] - dist_pert[j]) - (dist_true[i] - dist_true[j]))
        f_hand = 0.5 * sum(e * e for e in expected)
        f, _ = solver._Problem(tdoa, array, 1.0).objective_and_grad(np.array([2.0, 1.0, 0.0]))
        assert f == pytest.approx(f_hand, rel=1e-12)

    def test_requires_all_six_pairs(self):
        truth = Vec3(8.0, 3.0, -4.0)
        tdoa = geometric_tdoa(ARRAY, truth, C)
        for delays in (tdoa.pair_delays[:5], tdoa.pair_delays + (0.0,)):
            broken = dataclasses.replace(tdoa, pair_delays=delays)
            with pytest.raises(ValueError, match="6 pair delays"):
                solver._Problem(broken, ARRAY, C)

    def test_singular_geometry(self):
        tdoa = geometric_tdoa(ARRAY, Vec3(8.0, 3.0, -4.0), C)
        with pytest.raises(SingularGeometryError):
            solver._Problem(tdoa, ARRAY, C).check_guard(ARRAY.precise[0].as_array())


class TestObjectiveAndGradient:
    def test_zero_at_truth(self):
        truth = Vec3(8.0, 3.0, -4.0)
        tdoa = geometric_tdoa(ARRAY, truth, C)
        f, g = solver._Problem(tdoa, ARRAY, C).objective_and_grad(truth.as_array())
        assert f == pytest.approx(0.0, abs=1e-24)
        assert np.linalg.norm(g) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        truth = Vec3.from_array(rng.uniform(-15, 15, 3))
        tdoa = geometric_tdoa(ARRAY, truth, C)
        # jitter the measured delays so the residuals are nonzero
        noisy = dataclasses.replace(
            tdoa,
            onset_time_abs=tdoa.onset_time_abs + rng.uniform(-1e-4, 1e-4),
            pair_delays=tuple(d + rng.uniform(-5e-6, 5e-6) for d in tdoa.pair_delays))
        point = rng.uniform(-20, 20, 3)
        while min(np.linalg.norm(point - p.as_array()) for p in ARRAY.precise) < 0.5:
            point = rng.uniform(-20, 20, 3)
        problem = solver._Problem(noisy, ARRAY, C)
        _, g = problem.objective_and_grad(point)
        # A meter-scale step: at 1e-6 m the differences of G sit at float64
        # roundoff.
        h = 1e-3
        for comp in range(3):
            def f_at(offset):
                q = point.copy()
                q[comp] += offset
                return problem.objective_and_grad(q)[0]

            fd = (f_at(h) - f_at(-h)) / (2.0 * h)
            denom = max(abs(fd), abs(g[comp]), 1e-15)
            assert abs(g[comp] - fd) / denom < 1e-5


class TestGradientDescent:
    def test_converges_on_synthetic_instance(self):
        truth = Vec3(8.0, 3.0, -4.0)
        tdoa = geometric_tdoa(ARRAY, truth, C)
        init = initial_point(octant_of(truth), ARRAY.coarse_centroid())
        result = gradient_descent(init, tdoa, ARRAY, C)
        assert result.converged
        true_az, true_el = true_azimuth_elevation(
            Vec3.from_array(truth.as_array() - ARRAY.precise_centroid().as_array()))
        assert abs((result.azimuth - true_az + 180) % 360 - 180) < 0.05
        assert abs(result.elevation - true_el) < 0.1
        assert result.iterations <= 5000

    def test_equal_arrays_solve_identically(self):
        # The per-array geometry is cached by value: an array built anew that
        # compares equal solves to the same result.
        truth = Vec3(8.0, 3.0, -4.0)
        tdoa = geometric_tdoa(ARRAY, truth, C)
        init = initial_point(octant_of(truth), ARRAY.coarse_centroid())
        rebuilt = HydrophoneArray(precise=tuple(Vec3(p.x, p.y, p.z) for p in ARRAY.precise),
                                  coarse=tuple(Vec3(p.x, p.y, p.z) for p in ARRAY.coarse),
                                  labels=ARRAY.labels)
        assert rebuilt == ARRAY and rebuilt is not ARRAY
        assert gradient_descent(init, tdoa, rebuilt, C) == gradient_descent(init, tdoa, ARRAY, C)

    def test_cached_positions_are_read_only(self):
        # A caller cannot change the positions every later solve reads.
        truth = Vec3(8.0, 3.0, -4.0)
        tdoa = geometric_tdoa(ARRAY, truth, C)
        init = initial_point(octant_of(truth), ARRAY.coarse_centroid())
        before = gradient_descent(init, tdoa, ARRAY, C)
        for positions in (ARRAY.precise_positions_array(), ARRAY.coarse_positions_array()):
            with pytest.raises(ValueError, match="read-only"):
                positions[0, 0] = 1.0
        assert ARRAY.precise_positions_array()[0].tolist() == list(
            ARRAY.precise[0].as_array())
        assert gradient_descent(init, tdoa, ARRAY, C) == before

    def test_azimuth_matches_convention_exactly(self, monkeypatch):
        monkeypatch.setattr(solver, "MAX_ITERS", 50)
        tdoa = geometric_tdoa(ARRAY, Vec3(8.0, 3.0, -4.0), C)
        init = Vec3(6.0, 6.0, -6.0)
        result = gradient_descent(init, tdoa, ARRAY, C)
        direction = Vec3.from_array(result.position.as_array()
                                    - ARRAY.precise_centroid().as_array())
        az, el = true_azimuth_elevation(direction)
        assert result.azimuth == az
        assert result.elevation == el

    def test_monotone_descent(self, monkeypatch):
        truth = Vec3(8.0, 3.0, -4.0)
        tdoa = geometric_tdoa(ARRAY, truth, C)
        init = Vec3(5.0, 5.0, -5.0)
        objectives = []
        for iters in range(0, 14):
            monkeypatch.setattr(solver, "MAX_ITERS", iters)
            res = gradient_descent(init, tdoa, ARRAY, C)
            objectives.append(res.objective)
        assert all(b <= a + 1e-18 for a, b in zip(objectives, objectives[1:]))

    def test_zero_iteration_budget(self, monkeypatch):
        monkeypatch.setattr(solver, "MAX_ITERS", 0)
        truth = Vec3(8.0, 3.0, -4.0)
        tdoa = geometric_tdoa(ARRAY, truth, C)
        init = Vec3(5.0, 5.0, -5.0)
        result = gradient_descent(init, tdoa, ARRAY, C)
        assert result.iterations == 0
        assert not result.converged
        assert result.position == init

    def test_translation_covariance(self, monkeypatch):
        # Uses a meter-scale quad: with the default 15 mm quad the range
        # coordinate lies in a quasi-flat valley and no descent stop pins it
        # to micrometers, so the comparison would measure the valley, not the
        # solver's covariance.
        precise = (Vec3(0.5, 0.5, 0.3), Vec3(0.5, -0.5, -0.3),
                   Vec3(-0.5, 0.5, -0.3), Vec3(-0.5, -0.5, 0.3))
        coarse = (Vec3(1, 1, 1), Vec3(-1, 1, 1), Vec3(1, -1, 1), Vec3(1, 1, -1))
        array = HydrophoneArray(precise=precise, coarse=coarse)
        truth = Vec3(3.0, 2.0, -1.5)
        shift = np.array([2.5, -1.5, 4.0])
        tdoa = geometric_tdoa(array, truth, C)
        moved_array = HydrophoneArray(
            precise=tuple(Vec3.from_array(p.as_array() + shift) for p in precise),
            coarse=tuple(Vec3.from_array(p.as_array() + shift) for p in coarse),
        )
        tdoa_moved = geometric_tdoa(moved_array, Vec3.from_array(truth.as_array() + shift), C)
        assert np.allclose(tdoa.pair_delays, tdoa_moved.pair_delays, atol=1e-15)

        monkeypatch.setattr(solver, "MAX_ITERS", 20_000)
        monkeypatch.setattr(solver, "GRAD_TOL", 1e-13)
        init = Vec3(5.0, 5.0, -5.0)
        init_moved = Vec3.from_array(init.as_array() + shift)
        res_a = gradient_descent(init, tdoa, array, C)
        res_b = gradient_descent(init_moved, tdoa_moved, moved_array, C)
        assert res_a.converged and res_b.converged
        assert np.allclose(res_b.position.as_array(),
                           res_a.position.as_array() + shift, atol=1e-6)
        # and the bearing itself is unchanged by translation
        assert res_b.azimuth == pytest.approx(res_a.azimuth, abs=1e-5)

    def test_antipodal_init_lands_worse(self):
        # the documented local-basin case that motivates the octant guess
        truth = Vec3(9.0, 4.0, -3.0)
        tdoa = geometric_tdoa(ARRAY, truth, C)
        good = initial_point(octant_of(truth), ARRAY.coarse_centroid())
        bad = initial_point(octant_of(truth).negated(), ARRAY.coarse_centroid())
        res_good = gradient_descent(good, tdoa, ARRAY, C)
        res_bad = gradient_descent(bad, tdoa, ARRAY, C)
        assert res_good.objective < res_bad.objective

    def test_counted_objective_names(self, objective_calls):
        # perfbench/spans.py counts objective evaluations through this name;
        # monkeypatch.setattr raises if it is renamed away.
        truth = Vec3(8.0, 3.0, -4.0)
        tdoa = geometric_tdoa(ARRAY, truth, C)
        init = initial_point(octant_of(truth), ARRAY.coarse_centroid())
        result = gradient_descent(init, tdoa, ARRAY, C)
        assert result.iterations > 0
        assert len(objective_calls) >= result.iterations + 1

    @pytest.mark.parametrize("antipodal,max_iters", [(False, 5000), (True, 5000), (False, 2)])
    def test_evaluations_counts_objective_calls(self, objective_calls, monkeypatch,
                                                antipodal, max_iters):
        monkeypatch.setattr(solver, "MAX_ITERS", max_iters)
        truth = Vec3(9.0, 4.0, -3.0)
        tdoa = geometric_tdoa(ARRAY, truth, C)
        octant = octant_of(truth).negated() if antipodal else octant_of(truth)
        init = initial_point(octant, ARRAY.coarse_centroid())
        result = gradient_descent(init, tdoa, ARRAY, C)
        assert result.evaluations == len(objective_calls)
        assert result.evaluations > result.iterations > 0

    @pytest.mark.parametrize("antipodal", [False, True])
    def test_no_point_evaluated_twice(self, objective_calls, antipodal):
        # Every counted evaluation is one objective_and_grad call at a new
        # point: the accepted trial point keeps the G and grad G the line
        # search computed for it.
        truth = Vec3(9.0, 4.0, -3.0)
        tdoa = geometric_tdoa(ARRAY, truth, C)
        octant = octant_of(truth).negated() if antipodal else octant_of(truth)
        init = initial_point(octant, ARRAY.coarse_centroid())
        result = gradient_descent(init, tdoa, ARRAY, C)
        assert result.iterations > 0
        distinct = {p.tobytes() for p in objective_calls}
        assert len(distinct) == len(objective_calls) == result.evaluations

    def test_emission_time_shift_leaves_result_equal(self):
        # The pair delays carry no emission time: moving it shifts the
        # reference onset and every coarse arrival, and nothing else.
        truth = Vec3(8.0, 3.0, -4.0)
        results = []
        for t_emit in (0.0, 0.0123):
            tdoa = geometric_tdoa(ARRAY, truth, C, t0=t_emit)
            init = octant_guess(tdoa.coarse_arrivals, list(ARRAY.coarse)).init
            results.append(gradient_descent(init, tdoa, ARRAY, C))
        assert results[0].iterations > 0
        assert results[1] == results[0]

    def test_diverged_guard_on_singular_init(self):
        tdoa = geometric_tdoa(ARRAY, Vec3(8.0, 3.0, -4.0), C)
        with pytest.raises(SingularGeometryError):
            gradient_descent(ARRAY.precise[1], tdoa, ARRAY, C)


class TestInitialPointPlacement:
    # The descent start is a plain position on the octant diagonal.
    def test_diagonal_position(self):
        init = initial_point(OctantId(True, True, True), Vec3(0, 0, 0))
        assert np.allclose(init.as_array(), [5.7735, 5.7735, 5.7735], atol=1e-3)
        assert np.linalg.norm(init.as_array()) == pytest.approx(10.0)
