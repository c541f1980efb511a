"""Unit and property tests for the energy distribution algebra."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distributions import (
    Discrete,
    Empirical,
    IndependentSum,
    Mixture,
    Normal,
    PointMass,
    Scaled,
    Uniform,
    as_distribution,
)
from repro.core.errors import ECVBindingError, EvaluationError
from repro.core.units import Energy

RNG = np.random.default_rng(42)

values = st.floats(min_value=0.0, max_value=1e6,
                   allow_nan=False, allow_infinity=False)


class TestPointMass:
    def test_moments(self):
        d = PointMass(3.0)
        assert d.mean() == 3.0
        assert d.variance() == 0.0
        assert d.std() == 0.0

    def test_bounds(self):
        d = PointMass(3.0)
        assert d.lower_bound() == d.upper_bound() == 3.0

    def test_accepts_energy(self):
        assert PointMass(Energy.millijoules(2)).mean() == pytest.approx(2e-3)

    def test_sampling_is_constant(self):
        assert (PointMass(1.5).sample(RNG, 10) == 1.5).all()

    def test_quantile(self):
        assert PointMass(2.0).quantile(0.99) == 2.0

    def test_quantile_validates_level(self):
        with pytest.raises(EvaluationError):
            PointMass(1.0).quantile(1.5)


class TestDiscrete:
    def test_moments(self):
        d = Discrete([1.0, 3.0], [0.5, 0.5])
        assert d.mean() == pytest.approx(2.0)
        assert d.variance() == pytest.approx(1.0)

    def test_bounds(self):
        d = Discrete([5.0, 1.0, 3.0], [0.2, 0.3, 0.5])
        assert d.lower_bound() == 1.0
        assert d.upper_bound() == 5.0

    def test_quantile_exact(self):
        d = Discrete([1.0, 2.0, 3.0], [0.2, 0.3, 0.5])
        assert d.quantile(0.1) == 1.0
        assert d.quantile(0.4) == 2.0
        assert d.quantile(0.99) == 3.0

    def test_support_sorted(self):
        d = Discrete([3.0, 1.0], [0.5, 0.5])
        assert [v for v, _ in d.support] == [1.0, 3.0]

    def test_sampling_within_support(self):
        d = Discrete([1.0, 2.0], [0.5, 0.5])
        draws = d.sample(RNG, 100)
        assert set(np.unique(draws)) <= {1.0, 2.0}

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ECVBindingError):
            Discrete([1.0, 2.0], [0.5, 0.6])

    def test_rejects_negative_probabilities(self):
        with pytest.raises(ECVBindingError):
            Discrete([1.0, 2.0], [-0.5, 1.5])

    def test_rejects_empty(self):
        with pytest.raises(ECVBindingError):
            Discrete([], [])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ECVBindingError):
            Discrete([1.0], [0.5, 0.5])


class TestUniform:
    def test_moments(self):
        d = Uniform(0.0, 12.0)
        assert d.mean() == pytest.approx(6.0)
        assert d.variance() == pytest.approx(12.0)

    def test_quantile(self):
        d = Uniform(10.0, 20.0)
        assert d.quantile(0.5) == pytest.approx(15.0)
        assert d.quantile(0.0) == 10.0
        assert d.quantile(1.0) == 20.0

    def test_sampling_in_bounds(self):
        d = Uniform(1.0, 2.0)
        draws = d.sample(RNG, 200)
        assert (draws >= 1.0).all() and (draws <= 2.0).all()

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ECVBindingError):
            Uniform(2.0, 1.0)


class TestNormal:
    def test_moments(self):
        d = Normal(10.0, 2.0)
        assert d.mean() == 10.0
        assert d.variance() == 4.0

    def test_clip_at_zero_bounds(self):
        d = Normal(1.0, 5.0, clip_at_zero=True)
        assert d.lower_bound() == 0.0
        draws = d.sample(RNG, 500)
        assert (draws >= 0.0).all()

    def test_unclipped_bounds(self):
        d = Normal(1.0, 5.0, clip_at_zero=False)
        assert d.lower_bound() == -math.inf

    def test_upper_bound_infinite(self):
        assert Normal(1.0, 1.0).upper_bound() == math.inf

    def test_degenerate_normal(self):
        d = Normal(3.0, 0.0)
        assert d.upper_bound() == 3.0

    def test_rejects_negative_std(self):
        with pytest.raises(ECVBindingError):
            Normal(1.0, -1.0)


class TestEmpirical:
    def test_moments_match_numpy(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        d = Empirical(samples)
        assert d.mean() == pytest.approx(np.mean(samples))
        assert d.variance() == pytest.approx(np.var(samples, ddof=1))

    def test_bounds(self):
        d = Empirical([3.0, 1.0, 2.0])
        assert d.lower_bound() == 1.0
        assert d.upper_bound() == 3.0

    def test_single_sample_variance_zero(self):
        assert Empirical([2.0]).variance() == 0.0

    def test_len(self):
        assert len(Empirical([1.0, 2.0])) == 2

    def test_quantile(self):
        d = Empirical(list(range(101)))
        assert d.quantile(0.5) == pytest.approx(50.0)

    def test_rejects_empty(self):
        with pytest.raises(ECVBindingError):
            Empirical([])


class TestMixture:
    def test_mean_total_expectation(self):
        m = Mixture([PointMass(0.0), PointMass(10.0)], [0.9, 0.1])
        assert m.mean() == pytest.approx(1.0)

    def test_variance_total_variance(self):
        m = Mixture([PointMass(0.0), PointMass(10.0)], [0.5, 0.5])
        assert m.variance() == pytest.approx(25.0)

    def test_variance_with_component_spread(self):
        m = Mixture([Uniform(0.0, 2.0), PointMass(5.0)], [0.5, 0.5])
        # E = .5*1 + .5*5 = 3; E[X^2] = .5*(4/3 + 1) + .5*25
        expected_second = 0.5 * (1.0 / 3.0 + 1.0) + 0.5 * 25.0
        assert m.variance() == pytest.approx(expected_second - 9.0)

    def test_bounds_ignore_zero_weight(self):
        m = Mixture([PointMass(1.0), PointMass(100.0)], [1.0, 0.0])
        assert m.upper_bound() == 1.0

    def test_collapse_single(self):
        d = Mixture.collapse([PointMass(2.0)], [1.0])
        assert isinstance(d, PointMass)

    def test_sampling_mixes(self):
        m = Mixture([PointMass(0.0), PointMass(1.0)], [0.5, 0.5])
        draws = m.sample(np.random.default_rng(0), 1000)
        assert 0.4 < draws.mean() < 0.6

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ECVBindingError):
            Mixture([PointMass(1.0)], [0.9])


class TestAlgebra:
    def test_point_sum_collapses(self):
        s = PointMass(1.0) + PointMass(2.0)
        assert isinstance(s, PointMass)
        assert s.mean() == 3.0

    def test_adding_zero_is_identity(self):
        u = Uniform(0.0, 1.0)
        assert (u + PointMass(0.0)) is u
        assert (PointMass(0.0) + u) is u

    def test_sum_moments_add(self):
        s = Uniform(0.0, 2.0) + Uniform(0.0, 2.0)
        assert s.mean() == pytest.approx(2.0)
        assert s.variance() == pytest.approx(2 * 4.0 / 12.0)

    def test_sum_accepts_scalars_and_energy(self):
        s = Uniform(0.0, 2.0) + 1.0 + Energy(2.0)
        assert s.mean() == pytest.approx(4.0)

    def test_sum_flattens(self):
        s = Uniform(0, 1) + Uniform(0, 1) + Uniform(0, 1)
        assert isinstance(s, IndependentSum)
        assert s.mean() == pytest.approx(1.5)

    def test_sum_bounds(self):
        s = Uniform(1.0, 2.0) + Uniform(3.0, 4.0)
        assert s.lower_bound() == pytest.approx(4.0)
        assert s.upper_bound() == pytest.approx(6.0)

    def test_scaling_moments(self):
        d = 3 * Uniform(0.0, 2.0)
        assert d.mean() == pytest.approx(3.0)
        assert d.variance() == pytest.approx(9 * 4.0 / 12.0)

    def test_scaling_point_mass_stays_point(self):
        assert isinstance(2 * PointMass(1.0), PointMass)

    def test_negative_scale_rejected(self):
        with pytest.raises(ECVBindingError):
            Scaled(Uniform(0, 1), -1.0)

    def test_scaled_quantile_delegates(self):
        d = 2 * Uniform(0.0, 1.0)
        assert d.quantile(0.5) == pytest.approx(1.0)

    def test_mean_energy_wrapper(self):
        assert PointMass(1.5).mean_energy() == Energy(1.5)

    @given(st.lists(values, min_size=1, max_size=5),
           st.lists(values, min_size=1, max_size=5))
    @settings(max_examples=50)
    def test_independent_sum_means_add(self, xs, ys):
        d1 = Empirical(xs)
        d2 = Empirical(ys)
        total = d1 + d2
        assert total.mean() == pytest.approx(d1.mean() + d2.mean(),
                                             rel=1e-9, abs=1e-9)

    @given(st.lists(values, min_size=2, max_size=6))
    @settings(max_examples=50)
    def test_bounds_always_bracket_mean(self, xs):
        d = Empirical(xs)
        slack = 1e-9 * max(abs(x) for x in xs) + 1e-12
        assert d.lower_bound() - slack <= d.mean() <= d.upper_bound() + slack

    @given(st.lists(values, min_size=2, max_size=6),
           st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
    @settings(max_examples=50)
    def test_samples_within_bounds(self, xs, scale):
        d = Scaled(Empirical(xs), scale)
        draws = d.sample(np.random.default_rng(1), 50)
        assert (draws >= d.lower_bound() - 1e-9).all()
        assert (draws <= d.upper_bound() + 1e-9).all()


class TestAsDistribution:
    def test_passthrough(self):
        d = Uniform(0, 1)
        assert as_distribution(d) is d

    def test_energy_becomes_point(self):
        d = as_distribution(Energy(2.0))
        assert isinstance(d, PointMass)
        assert d.mean() == 2.0

    def test_number_becomes_point(self):
        assert as_distribution(1.5).mean() == 1.5

    def test_rejects_junk(self):
        with pytest.raises(EvaluationError):
            as_distribution("a lot")


class TestEmpiricalConversion:
    """The ndarray fast path and the per-element path agree bit for bit."""

    @pytest.mark.parametrize("values", [
        np.array([3.5, -0.0, 0.0, 1e300, -2.25]),
        np.array([3.5, 1.25, -7.0], dtype=np.float32),
        np.array([5, -3, 2**53 + 1, 0], dtype=np.int64),
        np.array([True, False, True]),
        np.array([np.nan, 1.0, np.inf, -np.inf, -0.0]),
    ])
    def test_array_matches_list_path(self, values):
        fast = Empirical(values)._samples
        slow = Empirical(values.tolist())._samples
        by_element = Empirical([values[i] for i in range(len(values))])._samples
        assert fast.dtype == slow.dtype == np.float64
        assert fast.tobytes() == slow.tobytes() == by_element.tobytes()

    def test_lists_and_tuples(self):
        values = [2.0, -0.0, 1, True, float("nan")]
        assert (Empirical(values)._samples.tobytes()
                == Empirical(tuple(values))._samples.tobytes()
                == Empirical(np.array(values, dtype=float))._samples.tobytes())
