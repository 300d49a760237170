"""Statistical utilities for simulation studies.

Single-seed simulation numbers are anecdotes; the E9-class studies report
means with confidence intervals across independent seeds.  This module
provides the small, dependency-light pieces: Student-t confidence
intervals, a replicated-run helper, and a significance check for
pairwise scheme comparisons.  The t quantile and Welch's test come from
scipy, a test-only dependency imported when first needed, so the rest of
the program runs without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from repro._validation import check_int, check_probability

__all__ = ["Estimate", "t_confidence_interval", "replicate", "welch_t_test"]


def _scipy_stats():
    """``scipy.stats``, or an ``ImportError`` that names the package."""
    try:
        from scipy import stats
    except ImportError as exc:
        raise ImportError(
            "repro.analysis.stats needs scipy for Student-t intervals and "
            "Welch's t-test: pip install scipy (it is in the 'test' "
            "extra)") from exc
    return stats


@dataclass(frozen=True)
class Estimate:
    """A replicated measurement: mean, half-width, and the raw samples."""

    mean: float
    half_width: float
    samples: tuple[float, ...]

    @property
    def low(self) -> float:
        """Lower end of the confidence interval."""
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        """Upper end of the confidence interval."""
        return self.mean + self.half_width

    def __str__(self) -> str:
        return f"{self.mean:.4g} ± {self.half_width:.2g}"


def t_confidence_interval(samples: Sequence[float], *,
                          confidence: float = 0.95) -> Estimate:
    """Student-t confidence interval for the mean of *samples*.

    Requires at least two samples; a zero-variance sample set yields a
    zero half-width.
    """
    confidence = check_probability(confidence, "confidence")
    xs = np.asarray(list(samples), dtype=np.float64)
    if xs.size < 2:
        raise ValueError(f"need >= 2 samples for an interval, got {xs.size}")
    mean = float(xs.mean())
    sem = float(xs.std(ddof=1)) / np.sqrt(xs.size)
    if sem == 0.0:
        return Estimate(mean, 0.0, tuple(float(x) for x in xs))
    t = float(_scipy_stats().t.ppf(0.5 + confidence / 2.0, df=xs.size - 1))
    return Estimate(mean, t * sem, tuple(float(x) for x in xs))


def replicate(run: Callable[[int], Mapping[str, float]], seeds: Sequence[int],
              *, confidence: float = 0.95) -> dict[str, Estimate]:
    """Run ``run(seed)`` for every seed and interval-estimate each metric.

    *run* returns a flat mapping of metric name to value; every seed must
    produce the same metric set.
    """
    if len(seeds) < 2:
        raise ValueError("need >= 2 seeds for interval estimates")
    collected: dict[str, list[float]] = {}
    expected: set[str] | None = None
    for seed in seeds:
        result = run(check_int(seed, "seed", minimum=0))
        keys = set(result)
        if expected is None:
            expected = keys
        elif keys != expected:
            raise ValueError(
                f"seed {seed} produced metrics {keys}, expected {expected}"
            )
        for key, value in result.items():
            collected.setdefault(key, []).append(float(value))
    return {
        key: t_confidence_interval(values, confidence=confidence)
        for key, values in collected.items()
    }


def welch_t_test(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sided Welch t-test p-value for mean(a) != mean(b).

    Used to state that a scheme comparison (e.g. energy per delivered
    packet, TT vs always-on) is not a seed artifact.
    """
    xa = np.asarray(list(a), dtype=np.float64)
    xb = np.asarray(list(b), dtype=np.float64)
    if xa.size < 2 or xb.size < 2:
        raise ValueError("need >= 2 samples on each side")
    result = _scipy_stats().ttest_ind(xa, xb, equal_var=False)
    return float(result.pvalue)
