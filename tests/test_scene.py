import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pingerloc import (
    ConfigError,
    load_scenario,
    HydrophoneArray,
    NoiseSpec,
    PingerSource,
    Scenario,
    Vec3,
    default_array,
    octant_guess,
    octant_of,
    true_azimuth_elevation,
)
from pingerloc.pipeline import MonteCarloConfig, monte_carlo, monte_carlo_config_from_dict
from pingerloc.scene import check_array, config_from_dict


def decode_scenario(doc):
    """A parsed scenario document decoded as ``load_scenario`` decodes one."""
    return config_from_dict(Scenario, doc, "scenario")


def square_quad(side, z=0.0):
    h = side / 2.0
    return (Vec3(h, h, z), Vec3(h, -h, z), Vec3(-h, h, z), Vec3(-h, -h, z))


SPANNING_COARSE = (Vec3(0.3, 0.2, 0.1), Vec3(-0.3, 0.2, 0.1),
                   Vec3(0.3, -0.2, 0.1), Vec3(0.3, 0.2, -0.1))


class TestValidateArray:
    # scene.check_array: one ConfigError that lists every violation.
    def test_default_array_ok_at_40khz(self):
        check_array(default_array(), 40_000.0, 1480.0)

    def test_half_wavelength_limit_is_18_5mm(self):
        # c/(2 f) = 1480 / 80000
        assert 1480.0 / (2 * 40_000.0) == pytest.approx(0.0185)

    def test_pair_beyond_limit_reports_pair_and_distance(self):
        quad = (Vec3(0.0, 0.0, 0.0), Vec3(0.025, 0.0, 0.0),
                Vec3(0.01, 0.01, 0.0), Vec3(0.01, -0.01, 0.0))
        with pytest.raises(ConfigError, match=r"precise pair \(0,1\) spaced 0\.0250 m"):
            check_array(HydrophoneArray(precise=quad, coarse=SPANNING_COARSE),
                        40_000.0, 1480.0)

    def test_square_of_side_15mm_fails_on_diagonal(self):
        # Side 15 mm fits under 18.5 mm, the 21.2 mm diagonal does not; the
        # check is over all pairs because every pair feeds a delay estimate.
        with pytest.raises(ConfigError, match=r"\((0,3|1,2)\)"):
            check_array(HydrophoneArray(precise=square_quad(0.015), coarse=SPANNING_COARSE),
                        40_000.0, 1480.0)

    def test_coarse_all_positive_x_fails_span(self):
        coarse = (Vec3(0.3, 0.2, 0.1), Vec3(0.1, -0.2, 0.1),
                  Vec3(0.3, 0.2, -0.1), Vec3(0.1, -0.2, -0.1))
        with pytest.raises(ConfigError, match="does not span x-axis"):
            check_array(HydrophoneArray(precise=default_array().precise, coarse=coarse),
                        40_000.0, 1480.0)

    def test_coarse_axis_narrower_than_octant_guess_resolves(self):
        # Straddling x by 0.4 mm each side passes the sign check, but the
        # octant guess cannot order arrivals across a 0.8 mm spread.
        coarse = (Vec3(0.0004, 0.2, 0.1), Vec3(-0.0004, 0.2, 0.1),
                  Vec3(0.0004, -0.2, 0.1), Vec3(0.0004, 0.2, -0.1))
        array = HydrophoneArray(precise=default_array().precise, coarse=coarse)
        with pytest.raises(ConfigError, match="coarse quad spans x-axis by 8.000e-04 m"):
            check_array(array, 40_000.0, 1480.0)
        with pytest.raises(ValueError, match="unresolvable axis x"):
            octant_guess([0.0, 0.0, 0.0, 0.0], array.coarse)

    def test_duplicate_labels_and_coincident_hydrophones(self):
        arr = HydrophoneArray(precise=default_array().precise,
                              coarse=SPANNING_COARSE,
                              labels=(0, 1, 2, 3, 4, 5, 6, 6))
        with pytest.raises(ConfigError, match="permutation"):
            check_array(arr, 40_000.0, 1480.0)

        coincident = (Vec3(0.3, 0.2, 0.1), Vec3(0.3, 0.2, 0.1),
                      Vec3(-0.3, -0.2, -0.1), Vec3(0.3, -0.2, -0.1))
        with pytest.raises(ConfigError, match="coincide"):
            check_array(HydrophoneArray(precise=default_array().precise, coarse=coincident),
                        40_000.0, 1480.0)

    def test_shrinking_valid_quad_stays_valid(self):
        rng = np.random.default_rng(5)
        quad = default_array().precise_positions_array()
        for _ in range(20):
            centroid = quad.mean(axis=0)
            for scale in (0.75, 0.5, 0.2):
                shrunk = tuple(Vec3.from_array(centroid + scale * (p - centroid))
                               for p in quad)
                check_array(HydrophoneArray(precise=shrunk, coarse=SPANNING_COARSE),
                            40_000.0, 1480.0)
            # jitter the quad within the limit for the next round
            quad = quad + rng.normal(scale=1e-4, size=quad.shape)

    def test_bad_frequency_raises(self):
        with pytest.raises(ConfigError):
            check_array(default_array(), 0.0, 1480.0)

    def test_grid_validates_default_array_once(self):
        # check_array is memoized on (array, frequency, sound_speed): every
        # trial's Scenario holds the same default array.
        check_array.cache_clear()
        config = MonteCarloConfig(ranges=(5.0, 30.0), snr_db=(None,), trials=2, seed=1)
        monte_carlo(config)
        info = check_array.cache_info()
        assert info.misses == 1 and info.currsize == 1
        assert info.hits >= 3

    def test_invalid_array_raises_on_every_construction(self):
        # An exception is not cached: each Scenario re-checks the array and
        # raises the same error.
        bad = HydrophoneArray(precise=square_quad(0.015), coarse=SPANNING_COARSE)
        pinger = PingerSource(position=Vec3(10.0, 0.0, 0.0), repetition_interval=0.05)
        check_array.cache_clear()
        messages = []
        for _ in range(3):
            with pytest.raises(ConfigError, match="array fails validation") as exc:
                Scenario(array=bad, pinger=pinger, record_duration=0.05)
            messages.append(str(exc.value))
        assert len(set(messages)) == 1
        info = check_array.cache_info()
        assert info.misses == 3 and info.hits == 0 and info.currsize == 0


class TestAzimuthElevation:
    def test_convention_anchors(self):
        assert true_azimuth_elevation(Vec3(1, 0, 0)) == pytest.approx((0.0, 0.0))
        assert true_azimuth_elevation(Vec3(0, 1, 0)) == pytest.approx((90.0, 0.0))
        assert true_azimuth_elevation(Vec3(-1, 0, 1)) == pytest.approx((180.0, 45.0))

    def test_zero_direction_raises(self):
        with pytest.raises(ValueError, match="undefined bearing"):
            true_azimuth_elevation(Vec3(0, 0, 0))

    @given(st.floats(min_value=-100, max_value=100), st.floats(min_value=-100, max_value=100),
           st.floats(min_value=-100, max_value=100),
           st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=50, deadline=None)
    def test_scale_invariance(self, x, y, z, k):
        if math.hypot(x, y, z) < 1e-6:
            return
        # Scaling is exact in direction only while every nonzero component
        # stays a normal float: a subnormal loses relative precision, and
        # one that underflows to 0 turns the vector (see the anchor below).
        tiny = np.finfo(float).tiny
        assume(all(v == 0.0 or (abs(v) >= tiny and abs(k * v) >= tiny) for v in (x, y, z)))
        az1, el1 = true_azimuth_elevation(Vec3(x, y, z))
        az2, el2 = true_azimuth_elevation(Vec3(k * x, k * y, k * z))
        assert az1 == pytest.approx(az2, abs=1e-9)
        assert el1 == pytest.approx(el2, abs=1e-9)

    def test_subnormal_component_counts(self):
        # The smallest subnormal still sets the azimuth; halving it would
        # underflow to 0 and give azimuth 0.
        az, _ = true_azimuth_elevation(Vec3(0.0, 5e-324, 1.0))
        assert az == 90.0

    def test_azimuth_range(self):
        az, _ = true_azimuth_elevation(Vec3(1, -1e-9, 0))
        assert 0.0 <= az < 360.0


class TestOctant:
    def test_examples(self):
        assert octant_of(Vec3(3, 2, 1)).as_string() == "+++"
        assert octant_of(Vec3(-1, 5, -2)).as_string() == "-+-"
        assert octant_of(Vec3(0, -1, 0)).as_string() == "+-+"

    @given(st.floats(min_value=0.01, max_value=100), st.floats(min_value=0.01, max_value=100),
           st.floats(min_value=0.01, max_value=100),
           st.booleans(), st.booleans(), st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_negation_flips_all_bits(self, x, y, z, sx, sy, sz):
        v = Vec3(x if sx else -x, y if sy else -y, z if sz else -z)
        neg = Vec3(-v.x, -v.y, -v.z)
        assert octant_of(neg) == octant_of(v).negated()


class TestInvariants:
    def test_vec3_must_be_finite(self):
        with pytest.raises(ConfigError):
            Vec3(float("nan"), 0, 0)

    def test_pinger_invariants(self):
        with pytest.raises(ConfigError):
            PingerSource(position=Vec3(1, 1, 1), frequency=-1.0)
        with pytest.raises(ConfigError):
            PingerSource(position=Vec3(1, 1, 1), ping_duration=3.0, repetition_interval=2.0)
        with pytest.raises(ConfigError):
            PingerSource(position=Vec3(1, 1, 1), amplitude=0.0)

    def test_scenario_nyquist(self):
        with pytest.raises(ConfigError, match="Nyquist"):
            Scenario(array=default_array(),
                     pinger=PingerSource(position=Vec3(10, 0, 0)),
                     sample_rate=60_000.0)

    def test_scenario_record_shorter_than_repetition(self):
        with pytest.raises(ConfigError, match="record_duration"):
            Scenario(array=default_array(),
                     pinger=PingerSource(position=Vec3(10, 0, 0), repetition_interval=2.0),
                     record_duration=1.0)

    def test_noise_spec_negative(self):
        with pytest.raises(ConfigError):
            NoiseSpec(white_sigma=-0.1)

    @pytest.mark.parametrize("cutoff", [0.0, 250_000.0, 300_000.0])
    def test_lowpass_cutoff_outside_the_band(self, cutoff):
        # Low-passed noise at 500 kHz needs a cutoff in (0, 250 kHz); without
        # low-passed noise the cutoff is not read.
        noise = ("noise", "lowfreq_cutoff")
        with pytest.raises(ConfigError, match=f"noise.lowfreq_cutoff {cutoff} Hz"):
            decode_scenario(replaced(QUICK, noise, cutoff))
        doc = replaced(replaced(QUICK, noise, cutoff), ("noise", "lowfreq_amp"), 0.0)
        assert decode_scenario(doc).noise.lowfreq_cutoff == cutoff
        assert decode_scenario(replaced(QUICK, noise, 249_999.0)).noise.lowfreq_amp > 0

    def test_quad_counts(self):
        with pytest.raises(ConfigError):
            HydrophoneArray(precise=default_array().precise[:3], coarse=SPANNING_COARSE)


class TestJson:
    def test_round_trip(self, std_scenario):
        doc = dataclasses.asdict(std_scenario)
        assert decode_scenario(doc) == std_scenario

    def test_missing_pinger_names_field(self):
        with pytest.raises(ConfigError, match="pinger"):
            decode_scenario({"sound_speed": 1480.0})

    def test_missing_position_names_field(self):
        with pytest.raises(ConfigError, match="position"):
            decode_scenario({"pinger": {"frequency": 40000.0}})

    def test_defaults_fill_in(self):
        scenario = decode_scenario(
            {"pinger": {"position": {"x": 10.0, "y": 0.0, "z": 0.0}}})
        assert scenario.array == default_array()
        assert scenario.sample_rate == 500_000.0


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
QUICK = json.loads((CONFIGS / "scenario_quick.json").read_text())
EVAL = json.loads((CONFIGS / "eval_small.json").read_text())
DELETE = object()


def replaced(doc, path, value):
    """Deep copy of ``doc`` with the value at ``path`` (keys and list indices)
    replaced, or removed if ``value`` is DELETE."""
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def json_paths(doc, prefix=()):
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from json_paths(value, prefix + (key,))


MALFORMED = [
    ("noise-number", decode_scenario, QUICK, ("noise",), 5, r"scenario\.noise"),
    ("noise-string", decode_scenario, QUICK, ("noise",), "loud", r"scenario\.noise"),
    ("misspelled-key", decode_scenario, QUICK, ("nosie",), {}, r"scenario\.nosie"),
    ("null-number", decode_scenario, QUICK, ("sound_speed",), None, "sound_speed"),
    ("huge-int", decode_scenario, QUICK, ("sound_speed",), 10**400, "sound_speed"),
    ("nan", decode_scenario, QUICK, ("sound_speed",), float("nan"), "sound_speed"),
    ("bool-number", decode_scenario, QUICK, ("sound_speed",), True, "sound_speed"),
    ("fractional-seed", decode_scenario, QUICK, ("seed",), 2.7, "seed"),
    ("number-list", decode_scenario, QUICK, ("array", "precise"), 3, r"array\.precise"),
    ("nested-string", decode_scenario, QUICK, ("array", "precise", 2, "x"), "0.2",
     r"scenario\.array\.precise\[2\]\.x"),
    ("missing-nested", decode_scenario, QUICK, ("pinger", "position"), DELETE,
     r"pinger\.position"),
    ("eval-number-list", monte_carlo_config_from_dict, EVAL, ("ranges",), 5, "ranges"),
    ("eval-misspelled-key", monte_carlo_config_from_dict, EVAL, ("clearence",), 3, "clearence"),
    ("eval-fractional-trials", monte_carlo_config_from_dict, EVAL, ("trials",), 1.9, "trials"),
    ("eval-missing", monte_carlo_config_from_dict, EVAL, ("trials",), DELETE, "trials"),
    ("eval-negative-seed", monte_carlo_config_from_dict, EVAL, ("seed",), -1, "seed"),
    ("eval-bool-in-list", monte_carlo_config_from_dict, EVAL, ("snr_db", 1), True,
     r"snr_db\[1\]"),
    ("eval-inf-in-list", monte_carlo_config_from_dict, EVAL, ("ranges", 0), float("inf"),
     r"ranges\[0\]"),
]


class TestConfigCodec:
    @pytest.mark.parametrize("case, decode, base, path, value, match", MALFORMED,
                             ids=[m[0] for m in MALFORMED])
    def test_malformed_document_names_field(self, case, decode, base, path, value, match):
        with pytest.raises(ConfigError, match=match):
            decode(replaced(base, path, value))

    def test_integral_numbers_load_as_before(self):
        scenario = decode_scenario(replaced(QUICK, ("seed",), 3.0))
        assert scenario.seed == 3 and isinstance(scenario.seed, int)
        assert decode_scenario(replaced(QUICK, ("sound_speed",), 1500)).sound_speed == 1500.0

    @pytest.mark.parametrize("name", ["scenario_quick.json", "scenario_default.json"])
    def test_config_file_round_trips_byte_for_byte(self, name):
        text = (CONFIGS / name).read_text()
        scenario = load_scenario(CONFIGS / name)
        assert json.dumps(dataclasses.asdict(scenario), indent=2) + "\n" == text

    json_values = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner,
                                                                    max_size=4),
        max_leaves=8)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @given(st.sampled_from(list(json_paths(QUICK))), json_values)
    @settings(max_examples=300, deadline=None)
    def test_any_replaced_value_loads_or_is_config_error(self, path, value):
        try:
            assert isinstance(decode_scenario(replaced(QUICK, path, value)), Scenario)
        except ConfigError:
            pass
