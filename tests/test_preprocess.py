"""Percentile stats, normalization endpoints, and augmentation behavior."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sleepstage.errors import DegenerateSignal, EmptySignal
from sleepstage.preprocess import (
    AugmentConfig,
    NormalizationStats,
    augment,
    compute_stats,
    normalize,
)

RNG = np.random.default_rng(11)


class TestComputeStats:
    def test_linear_interpolation_ranks(self):
        stats = compute_stats(np.arange(101, dtype=float))
        assert stats.s05 == pytest.approx(5.0)
        assert stats.s95 == pytest.approx(95.0)

    def test_two_point_distribution(self):
        stats = compute_stats(np.array([-1.0, 1.0] * 50))
        assert (stats.s05, stats.s95) == (-1.0, 1.0)

    def test_constant_signal(self):
        with pytest.raises(DegenerateSignal):
            compute_stats(np.full(100, 3.25))

    def test_empty_signal(self):
        with pytest.raises(EmptySignal):
            compute_stats(np.array([]))

    def test_non_finite(self):
        with pytest.raises(EmptySignal):
            compute_stats(np.array([1.0, np.nan]))

    def test_order(self):
        stats = compute_stats(RNG.normal(size=5000))
        assert stats.s05 < stats.s95


class TestNormalize:
    def test_endpoints(self):
        stats = NormalizationStats(s05=-50.0, s95=150.0)
        assert normalize(np.array([-50.0]), stats)[0] == pytest.approx(-1.0)
        assert normalize(np.array([150.0]), stats)[0] == pytest.approx(1.0)

    def test_midpoint(self):
        stats = NormalizationStats(s05=-50.0, s95=150.0)
        assert normalize(np.array([50.0]), stats)[0] == pytest.approx(0.0)

    def test_values_beyond_band_not_clipped(self):
        stats = NormalizationStats(s05=-50.0, s95=150.0)
        assert normalize(np.array([200.0]), stats)[0] == pytest.approx(1.5)

    def test_degenerate(self):
        with pytest.raises(DegenerateSignal):
            normalize(np.zeros(5), NormalizationStats(s05=1.0, s95=1.0))

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_strictly_monotone(self, xs):
        stats = NormalizationStats(s05=-10.0, s95=90.0)
        x = np.sort(np.asarray(xs))
        out = normalize(x, stats)
        assert np.all(np.diff(out) >= 0)
        # strictness is only observable for gaps the float grid can resolve
        distinct = np.diff(x) > 1e-6 * (1.0 + np.abs(x[:-1]))
        assert np.all(np.diff(out)[distinct] > 0)

    def test_randomized_endpoint_property(self):
        for _ in range(20):
            signal = RNG.normal(loc=RNG.uniform(-5, 5), scale=RNG.uniform(0.5, 4),
                                size=4000)
            stats = compute_stats(signal)
            out = normalize(signal, stats)
            assert normalize(np.array([stats.s05]), stats)[0] == pytest.approx(-1.0)
            assert normalize(np.array([stats.s95]), stats)[0] == pytest.approx(1.0)
            inside = (signal >= stats.s05) & (signal <= stats.s95)
            assert np.all(np.abs(out[inside]) <= 1.0 + 1e-12)


class TestAugment:
    def test_certain_flip_is_time_reversal(self):
        x = RNG.normal(size=100)
        out = augment(x, AugmentConfig(flip_probability=1.0, noise_fraction=0.0),
                      np.random.default_rng(0))
        np.testing.assert_array_equal(out, x[::-1])

    def test_no_flip_no_noise_is_identity(self):
        x = RNG.normal(size=100)
        out = augment(x, AugmentConfig(flip_probability=0.0, noise_fraction=0.0),
                      np.random.default_rng(0))
        np.testing.assert_array_equal(out, x)
        assert out is not x

    def test_double_flip_identity(self):
        x = RNG.normal(size=64)
        cfg = AugmentConfig(flip_probability=1.0, noise_fraction=0.0)
        twice = augment(augment(x, cfg, np.random.default_rng(0)), cfg,
                        np.random.default_rng(1))
        np.testing.assert_array_equal(twice, x)

    def test_noise_scale(self):
        x = RNG.normal(size=3000)
        cfg = AugmentConfig(flip_probability=0.0, noise_fraction=0.01)
        out = augment(x, cfg, np.random.default_rng(42))
        ratio = np.std(out - x) / (0.01 * np.std(x))
        assert 0.9 < ratio < 1.1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AugmentConfig(flip_probability=1.5)
        with pytest.raises(ValueError):
            AugmentConfig(noise_fraction=-0.1)
