"""Percentile stats, normalization endpoints, and augmentation behavior."""
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sleepstage.edf import SignalHeader, calibrate
from sleepstage.errors import DataError
from sleepstage.preprocess import (
    _CHUNK,
    AugmentConfig,
    NormalizationStats,
    augment,
    compute_stats,
    normalize,
)

from helpers import float64_normalize

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
        with pytest.raises(DataError, match="^5th and 95th percentiles coincide at 3.25$"):
            compute_stats(np.full(100, 3.25))

    def test_empty_signal(self):
        with pytest.raises(DataError, match="^cannot take percentiles of an empty signal$"):
            compute_stats(np.array([]))

    def test_non_finite(self):
        with pytest.raises(DataError, match="^signal contains non-finite samples$"):
            compute_stats(np.array([1.0, np.nan]))

    def test_order(self):
        stats = compute_stats(RNG.normal(size=5000))
        assert stats.s05 < stats.s95


def assert_numpy_percentiles(x: np.ndarray) -> None:
    """compute_stats(x) gives np.percentile(x, [5, 95], method="linear") as
    floats, or DataError where they are not finite or where they
    coincide, naming the value; it raises no RuntimeWarning, whatever
    numpy's own arithmetic warns of."""
    with np.errstate(all="ignore"):
        expected = np.percentile(x, [5.0, 95.0], method="linear")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if not np.all(np.isfinite(expected)):
            with pytest.raises(DataError, match="^5th and 95th percentiles .* are not finite$"):
                compute_stats(x)
        elif expected[0] == expected[1]:
            with pytest.raises(DataError, match="^5th and 95th percentiles coincide at ") as exc:
                compute_stats(x)
            assert float(str(exc.value).rsplit(" ", 1)[1]) == expected[0]
        else:
            stats = compute_stats(x)
            assert type(stats.s05) is float and type(stats.s95) is float
            np.testing.assert_array_equal([stats.s05, stats.s95], expected)


finite = st.floats(allow_nan=False, allow_infinity=False)
seeds = st.integers(0, 2**32 - 1)
# more than one 65,536-sample chunk at the top end
sizes = st.sampled_from([1, 2, 19, 20, 21, 100, 1001, 65_536, 65_537, 150_001])


class TestComputeStatsIsNumpyPercentile:
    @given(st.lists(finite, min_size=1, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_one_to_three_values(self, xs):
        assert_numpy_percentiles(np.asarray(xs))

    @given(st.lists(finite, min_size=1, max_size=4), sizes, seeds)
    @settings(max_examples=60, deadline=None)
    def test_heavy_duplicates(self, pool, n, seed):
        assert_numpy_percentiles(np.random.default_rng(seed).choice(pool, size=n))

    @given(st.sampled_from([12, 16]), st.floats(-1e4, -1e-3), st.floats(1e-3, 1e4),
           st.sampled_from([1.0, 30.0, 3000.0]), sizes, seeds)
    @settings(max_examples=60, deadline=None)
    def test_edf_calibrated_signals(self, bits, pmin, pmax, spread, n, seed):
        dmax = 2 ** (bits - 1) - 1
        sig = SignalHeader(label="x", physical_min=pmin, physical_max=pmax,
                           digital_min=-dmax - 1, digital_max=dmax)
        rng = np.random.default_rng(seed)
        digital = np.clip(np.round(spread * rng.standard_t(4, size=n)), -dmax - 1, dmax)
        assert_numpy_percentiles(calibrate(digital.astype(np.int16), sig))

    @given(st.lists(st.floats(1.6e308, 1.7976931348623157e308), min_size=1, max_size=40),
           st.lists(st.booleans(), min_size=40, max_size=40))
    @settings(max_examples=120, deadline=None)
    def test_values_near_the_float64_limits(self, magnitudes, negative):
        signs = np.where(negative[:len(magnitudes)], -1.0, 1.0)
        assert_numpy_percentiles(signs * np.asarray(magnitudes))

    @given(st.lists(st.sampled_from([-1.7e308, 1.7e308]), min_size=1, max_size=6),
           st.lists(finite, max_size=40), seeds)
    @settings(max_examples=120, deadline=None)
    def test_float64_limits_mixed_with_ordinary_values(self, extremes, ordinary, seed):
        x = np.asarray(extremes + ordinary, dtype=np.float64)
        assert_numpy_percentiles(np.random.default_rng(seed).permutation(x))

    def test_percentiles_past_the_float64_range_are_degenerate(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="^5th and 95th percentiles inf and -inf are not finite$"):
                compute_stats(np.array([-1.7e308, 1.7e308]))

    @given(sizes, seeds, st.sampled_from([0.0, 1.0, -3.5e-300, 2.2250738585072014e-308]))
    @settings(max_examples=40, deadline=None)
    def test_large_arrays_near_the_float64_limits(self, n, seed, offset):
        x = 1.7e308 * np.random.default_rng(seed).uniform(-1.0, 1.0, size=n)
        assert_numpy_percentiles(x)
        assert_numpy_percentiles(np.abs(x) + offset)

    @given(st.lists(st.integers(0, 2**20), min_size=1, max_size=200),
           st.sampled_from([0.0, 5e-324, -2.2250738585072014e-308, 1e-300]))
    @settings(max_examples=120, deadline=None)
    def test_subnormal_spans(self, steps, base):
        assert_numpy_percentiles(base + 5e-324 * np.asarray(steps, dtype=np.float64))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("n", [1, 70_000])
    def test_non_finite_sample_is_empty_signal(self, bad, n):
        x = RNG.normal(size=n)
        x[n // 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="^signal contains non-finite samples$"):
                compute_stats(x)

    def test_empty_signal_message(self):
        with pytest.raises(DataError, match="^cannot take percentiles of an empty signal$"):
            compute_stats(np.array([]))

    @pytest.mark.parametrize("value", [3.25, 0.0, -1e308, 5e-324])
    def test_constant_signal_message(self, value):
        with pytest.raises(DataError,
                           match=f"^5th and 95th percentiles coincide at {re.escape(str(value))}$"):
            compute_stats(np.full(70_000, value))


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
        with pytest.raises(DataError, match="^degenerate normalization stats$"):
            normalize(np.zeros(5), NormalizationStats(s05=1.0, s95=1.0))

    @pytest.mark.parametrize("extreme", [1e308, 1.7e308])
    def test_stats_past_the_float64_range_are_degenerate(self, extreme):
        x = np.array([-extreme] * 10 + [extreme] * 10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stats = compute_stats(x)  # finite percentiles, an infinite span
            with pytest.raises(DataError, match="span more than the float64 range$") as exc:
                normalize(x, stats)
        assert exc.value.exit_code == 3

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=50))
    @example(xs=[0.0, -2.0233690693739395e-06])  # both normalize to -0.8 in float32
    @settings(max_examples=60, deadline=None)
    def test_strictly_monotone(self, xs):
        stats = NormalizationStats(s05=-10.0, s95=90.0)
        x = np.sort(np.asarray(xs))
        out = normalize(x, stats)
        assert np.all(np.diff(out) >= 0)
        # strictness is only observable for gaps the float grid can resolve:
        # float64 outputs more than one float32 spacing apart, at the larger
        # magnitude, round to distinct float32 values
        exact = 2.0 * (x - stats.s05) / (stats.s95 - stats.s05) - 1.0
        larger = np.maximum(np.abs(exact[:-1]), np.abs(exact[1:])).astype(np.float32)
        distinct = np.diff(exact) > np.spacing(larger)
        assert np.all(np.diff(out)[distinct] > 0)

    @pytest.mark.parametrize("n", [0, 1, 2999, _CHUNK - 1, _CHUNK, 3 * _CHUNK + 1234])
    def test_rounds_the_float64_formula_once(self, n):
        """On calibrated signals with random calibrations and stats, at
        lengths of 0, below one block, one block and not a multiple of it,
        from float64, float32 and 16-bit input."""
        rng = np.random.default_rng(n)
        for _ in range(4):
            lo = rng.uniform(-1e4, 1e3)
            sig = SignalHeader(label="EEG", physical_min=lo, physical_max=lo + rng.uniform(1e-3, 1e4),
                               digital_min=int(rng.integers(-32768, 0)),
                               digital_max=int(rng.integers(1, 32768)))
            digital = rng.integers(sig.digital_min, sig.digital_max + 1, size=n)
            x = calibrate(digital, sig)
            s05, s95 = np.sort(rng.uniform(sig.physical_min, sig.physical_max, size=2))
            stats = NormalizationStats(s05=float(s05), s95=float(s95))
            for signal in (x, x.astype(np.float32), digital.astype(np.int16)):
                out = normalize(signal, stats)
                assert out.dtype == np.float32 and out.shape == (n,)
                assert out.tobytes() == float64_normalize(signal, stats).tobytes()

    def test_past_the_float32_range_rounds_to_inf_without_a_warning(self):
        stats = NormalizationStats(s05=0.0, s95=1.0)  # x -> 2x - 1
        x = np.array([1e300, -1e300, 0.25, 1e38, 2e38])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = normalize(x, stats)
        assert out.tobytes() == float64_normalize(x, stats).tobytes()
        assert out.tolist() == [np.inf, -np.inf, -0.5, float(np.float32(2e38)), np.inf]

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
