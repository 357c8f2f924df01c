"""Per-subject normalization and training-time augmentation.

Normalization rescales a subject's whole-night signal so the 5th percentile
maps to -1 and the 95th to +1; values outside the band land outside [-1, 1]
and are left unclipped. Augmentation flips an epoch in time with probability
0.5 and adds Gaussian noise with sigma = 1% of the epoch's sample std.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSignal, EmptySignal


@dataclass(frozen=True)
class NormalizationStats:
    """5th/95th percentile of one subject's full signal."""

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


def compute_stats(samples: np.ndarray) -> NormalizationStats:
    """Empirical 5th/95th percentiles, linear interpolation between ranks."""
    x = np.asarray(samples, dtype=np.float64)
    if x.size == 0:
        raise EmptySignal("cannot take percentiles of an empty signal")
    if not np.all(np.isfinite(x)):
        raise EmptySignal("signal contains non-finite samples")
    s05, s95 = np.percentile(x, [5.0, 95.0], method="linear")
    if s05 == s95:
        raise DegenerateSignal(f"5th and 95th percentiles coincide at {s05}")
    return NormalizationStats(s05=float(s05), s95=float(s95))


def normalize(x: np.ndarray, stats: NormalizationStats) -> np.ndarray:
    """x_norm = 2*(x - s05)/(s95 - s05) - 1; strictly monotone, no clipping."""
    if stats.s05 == stats.s95:
        raise DegenerateSignal("degenerate normalization stats")
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
