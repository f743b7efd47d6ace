"""Summary statistics shared by every workload."""

from __future__ import annotations

import math
import statistics

import numpy as np

#: The tail percentile must leave at least this many samples beyond it.
MIN_BEYOND = 10
#: Integration steps per order statistic for the Harrell-Davis weights.
_FINE = 64


def rank(pct: float, n: int) -> int:
    """1-based nearest-rank position of the ``pct`` percentile."""
    return max(1, math.ceil(pct / 100.0 * n))


def beyond(pct: float, n: int) -> int:
    """Samples strictly ranked after the ``pct`` percentile."""
    return n - rank(pct, n)


def percentile(samples: list[float], pct: float) -> float:
    """Nearest-rank percentile of ``samples``."""
    ordered = sorted(samples)
    return ordered[rank(pct, len(ordered)) - 1]


def median(samples: list[float]) -> float:
    return statistics.median(samples)


def hd_quantile(samples: list[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile: a beta-weighted mean
    of all order statistics, heaviest around rank ``q * n``.

    A kNN statement's cost comes in clusters (how many times the search
    widened), and the middle of a 75-statement run sat on the gap
    between two: whether one or two statements landed below it moved
    the sample median by a fifth between runs of one seed.  The weighted
    estimate moves with the share of statements on each side instead of
    jumping; under 10% per-statement noise it halved the spread of
    those statements' median.  On a thousand samples it matches the
    nearest-rank value closely.  The weights integrate the beta density
    numerically (accurate to 1e-6 for 75 or more samples).
    """
    ordered = np.sort(np.asarray(samples, dtype=float))
    n = len(ordered)
    if n == 1:
        return float(ordered[0])
    a, b = q * (n + 1), (1 - q) * (n + 1)
    grid = np.linspace(0.0, 1.0, _FINE * n + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_pdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    log_pdf[~np.isfinite(log_pdf)] = -np.inf
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)))
    weights = np.diff(cdf[::_FINE] / cdf[-1])
    return float(weights @ ordered)


def p50(samples: list[float]) -> float:
    """The median every ``_p50_`` metric reports."""
    return hd_quantile(samples, 0.5)


def tail(samples: list[float], pct: float) -> float:
    """The workload's fixed tail percentile of ``samples``, estimated
    like the median (:func:`hd_quantile`).

    Raises when fewer than :data:`MIN_BEYOND` samples lie beyond its
    nearest rank: a lower percentile reported under the same metric name
    would not compare with other runs.
    """
    if beyond(pct, len(samples)) < MIN_BEYOND:
        raise ValueError(f"{len(samples)} samples leave fewer than "
                         f"{MIN_BEYOND} beyond p{pct:g}")
    return hd_quantile(samples, pct / 100.0)
