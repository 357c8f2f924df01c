"""Per-recording normalization and training-time augmentation.

Normalization rescales a recording's whole-night signal so the 5th percentile
maps to -1 and the 95th to +1; values outside the band land outside [-1, 1]
and are left unclipped. Augmentation flips an epoch in time with probability
0.5 and adds Gaussian noise with sigma = 1% of the epoch's sample std.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class NormalizationStats:
    """5th/95th percentile of one recording's full signal."""

    s05: float
    s95: float


@dataclass(frozen=True)
class AugmentConfig:
    flip_probability: float = 0.5
    noise_fraction: float = 0.01
    rng_seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.flip_probability <= 1.0:
            raise ValueError(f"flip_probability {self.flip_probability} outside [0, 1]")
        if not 0.0 <= self.noise_fraction < np.inf:  # NaN fails too
            raise ValueError(f"noise_fraction must be finite and >= 0, got {self.noise_fraction}")


_BINS = 1 << 16      # histogram bins of compute_stats, codes 0..65535
_CHUNK = 1 << 16     # samples binned at a time


def _linear_position(n: int, q: float) -> tuple[int, int, float]:
    """(lower rank, upper rank, weight) of quantile q of n sorted values, as
    numpy's method="linear" places it (Hyndman & Fan's definition 7): at
    (n - 1) * q, clamped to the last value, whose index numpy writes as -1."""
    virtual = (n - 1) * q
    if virtual >= n - 1:
        return n - 1, n - 1, virtual + 1.0
    lower = math.floor(virtual)
    return lower, lower + 1, virtual - lower


def _lerp(a: float, b: float, t: float) -> float:
    """numpy's quantile interpolation between neighbours a <= b, including
    its form for t >= 0.5."""
    diff = b - a
    return b - diff * (1.0 - t) if t >= 0.5 else a + diff * t


def compute_stats(samples: np.ndarray) -> NormalizationStats:
    """Empirical 5th/95th percentiles, linear interpolation between ranks;
    equal to np.percentile(samples, [5, 95], method="linear"). Percentiles
    that coincide, or that are not finite because two neighbouring ranks lie
    more than the float64 range apart, raise DataError, since
    normalize cannot map the signal onto [-1, 1] with them.

    Selection by histogram: each sample gets a uint16 code floor((x - lo) *
    scale), monotone in x, so the value of rank r lies in the code whose
    cumulative count first exceeds r, and is found by partitioning only that
    code's members. A span or scale that is not finite (overflow near the
    float64 limits, a zero or subnormal span) puts every sample in code 0,
    where the partition is over the whole signal.
    """
    x = np.asarray(samples, dtype=np.float64).ravel()
    if x.size == 0:
        raise DataError("cannot take percentiles of an empty signal")
    lo, hi = float(x.min()), float(x.max())  # NaN or +-inf lands in one of them
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DataError("signal contains non-finite samples")
    span = hi - lo  # Python floats: inf on overflow, no warning
    scale = (_BINS - 1) / span if 0.0 < span < math.inf else math.inf
    if not math.isfinite(scale):  # also inf for a subnormal span
        lo, scale = 0.0, 0.0

    codes = np.empty(x.size, dtype=np.uint16)
    counts = np.zeros(_BINS, dtype=np.int64)
    shifted = np.empty(min(x.size, _CHUNK))
    for start in range(0, x.size, _CHUNK):
        part = x[start:start + _CHUNK]
        d = np.subtract(part, lo, out=shifted[:part.size])
        code = np.multiply(d, scale, out=codes[start:start + part.size], casting="unsafe")
        counts += np.bincount(code, minlength=_BINS)

    positions = [_linear_position(x.size, q) for q in (0.05, 0.95)]
    ranks = sorted({r for lower, upper, _ in positions for r in (lower, upper)})
    ends = np.cumsum(counts)
    bins = np.searchsorted(ends, ranks, side="right")
    value: dict[int, float] = {}
    for b in np.unique(bins):
        first = int(ends[b] - counts[b])  # rank of the code's smallest member
        wanted = [r for r, rb in zip(ranks, bins) if rb == b]
        members = x[codes == b]
        members.partition([r - first for r in wanted])
        value.update((r, float(members[r - first])) for r in wanted)
    s05, s95 = (_lerp(value[lower], value[upper], t) for lower, upper, t in positions)
    if not (math.isfinite(s05) and math.isfinite(s95)):
        raise DataError(f"5th and 95th percentiles {s05} and {s95} are not finite")
    if s05 == s95:
        raise DataError(f"5th and 95th percentiles coincide at {s05}")
    return NormalizationStats(s05=s05, s95=s95)


def normalize(x: np.ndarray, stats: NormalizationStats) -> np.ndarray:
    """x_norm = 2*(x - s05)/(s95 - s05) - 1; strictly monotone, no clipping.
    Stats that coincide, or that lie more than the float64 range apart (so
    the samples between them would overflow to NaN), raise DataError
    before any sample is read."""
    if stats.s05 == stats.s95:
        raise DataError("degenerate normalization stats")
    if not math.isfinite(float(stats.s95) - float(stats.s05)):  # Python floats: no warning
        raise DataError(f"normalization stats {stats.s05} and {stats.s95} "
                        f"span more than the float64 range")
    return 2.0 * (np.asarray(x, dtype=np.float64) - stats.s05) / (stats.s95 - stats.s05) - 1.0


def augment(samples: np.ndarray, cfg: AugmentConfig,
            rng: np.random.Generator) -> np.ndarray:
    """Maybe time-reverse one float64 row, then add noise; the row comes back
    as a new array of the same length."""
    if cfg.flip_probability > 0 and rng.random() < cfg.flip_probability:
        samples = samples[::-1]
    if cfg.noise_fraction > 0:
        sigma = cfg.noise_fraction * float(np.std(samples))
        return samples + rng.normal(0.0, sigma, size=samples.shape)
    return samples.copy()
