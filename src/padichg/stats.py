"""Sato-Tate statistics for the hypergeometric families.

Moment sums are exact integers; normalization divides by p^(m/2+1), whose
even-m limits are the Catalan numbers C_(m/2) (the semicircle moments).
Distribution reports histogram the normalized values value/sqrt(p) on
[-2, 2] and measure the exact Kolmogorov-Smirnov distance to the
semicircle CDF

    F(t) = 1/2 + t*sqrt(4-t^2)/(4*pi) + arcsin(t/2)/pi,

computed from the step CDF at the atoms, never from bins.

Every reduction reads a sweep through value_counts: its values are
integers in [-2 sqrt(p), 2 sqrt(p)], so O(sqrt(p)) (value, count) pairs
carry everything the moments, the K-S distance and the histogram need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PadicHGError
from .field import PrimeContext
from .hypergeo import family_sweep


@dataclass(frozen=True)
class MomentReport:
    p: int
    family: str
    m: int
    sum: int
    normalized: float
    expected: float


@dataclass(frozen=True)
class DistributionReport:
    p: int
    family: str
    # rows: (bin_left, bin_right, count, empirical_density, semicircle_density)
    rows: list[tuple[float, float, int, float, float]]
    ks_distance: float
    sample_size: int


def family_values(ctx: PrimeContext, family: str) -> np.ndarray:
    """Exact values over the family's lambda-domain.

    The G-families run over all of F_p (with structural zeros included);
    ap runs over lambda != 0, 1.
    """
    sweep = family_sweep(ctx, family)
    if family == "ap":
        return sweep[2:]
    return sweep


def value_counts(values: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of an integer array, ascending, and their counts.

    Every value must be >= -bound; one bincount over the shifted values
    replaces a sort.
    """
    counts = np.bincount(values + bound)
    nonzero = np.flatnonzero(counts)
    return nonzero - bound, counts[nonzero]


def power_sum(atoms: np.ndarray, counts: np.ndarray, m: int) -> int:
    """sum of v^m over a sample given by value_counts, as an exact integer."""
    return sum(c * v**m for v, c in zip(atoms.tolist(), counts.tolist()))


def catalan(n: int) -> int:
    """The n-th Catalan number (2n)! / (n! (n+1)!)."""
    return math.comb(2 * n, n) // (n + 1)


def moment_sum(ctx: PrimeContext, family: str, m: int) -> MomentReport:
    """Exact m-th moment sum of a family, with its semicircle target.

    normalized = sum / p^(m/2+1); expected is C_(m/2) for even m, 0 for
    odd m.  Accumulation is in unbounded integers: (2*sqrt(p))^m * p
    overflows 64 bits already around m = 8, p = 10^4.
    """
    if m < 1:
        raise ValueError("moment order m must be >= 1")
    vals = family_values(ctx, family)
    total = power_sum(*value_counts(vals, math.isqrt(4 * ctx.p)), m)
    normalized = total / ctx.p ** (m / 2 + 1)
    expected = float(catalan(m // 2)) if m % 2 == 0 else 0.0
    return MomentReport(ctx.p, family, m, total, normalized, expected)


def semicircle_cdf(t: float | np.ndarray) -> float | np.ndarray:
    """CDF of the semicircle law on [-2, 2], 0 below and 1 above.

    A float gives a float; a float array gives an array, entry by entry.
    """
    tc = np.clip(t, -2.0, 2.0)
    f = (
        0.5
        + tc * np.sqrt(4.0 - tc * tc) / (4.0 * np.pi)
        + np.arcsin(tc / 2.0) / np.pi
    )
    return f if np.ndim(t) else float(f)


def semicircle_density(t: float) -> float:
    """Density sqrt(4-t^2)/(2*pi) of the semicircle law at t."""
    if abs(t) >= 2.0:
        return 0.0
    return math.sqrt(4.0 - t * t) / (2.0 * math.pi)


def ks_statistic(atoms: np.ndarray, counts: np.ndarray) -> float:
    """Exact sup |empirical CDF - semicircle CDF| of a sample of atoms.

    atoms are the distinct sample points, ascending, and counts their
    multiplicities.  The step-function difference attains its supremum at
    an atom x: with lo and hi the numbers of samples below x and up to x,
    it is max(F(x) - lo/n, hi/n - F(x)).
    """
    hi = np.cumsum(counts)
    n = int(hi[-1]) if len(hi) else 0
    if n == 0:
        raise ValueError("empty sample")
    f = semicircle_cdf(np.asarray(atoms, dtype=np.float64))
    return float(max((f - (hi - counts) / n).max(), (hi / n - f).max()))


def distribution_report(
    ctx: PrimeContext, family: str, bins: int = 40
) -> DistributionReport:
    """Histogram of value/sqrt(p) on [-2, 2] plus the exact K-S distance.

    Every value is one of the 2 bound + 1 integers in [-bound, bound],
    bound = floor(2 sqrt p), so that many bins already give each value
    about a bin of its own; a larger count raises PadicHGError before any
    work is done.
    """
    bound = math.isqrt(4 * ctx.p)
    if bins < 1:
        raise ValueError("bins must be >= 1")
    if bins > 2 * bound + 1:
        raise PadicHGError(
            f"{bins} bins exceed the {2 * bound + 1} integer values a family "
            f"can take at p = {ctx.p}"
        )
    atoms, mult = value_counts(family_values(ctx, family), bound)
    points = atoms / math.sqrt(ctx.p)
    counts, edges = np.histogram(points, bins=bins, range=(-2.0, 2.0), weights=mult)
    n = int(mult.sum())
    rows = []
    for b in range(bins):
        left, right = float(edges[b]), float(edges[b + 1])
        count = int(counts[b])
        width = right - left
        rows.append(
            (
                left,
                right,
                count,
                count / (n * width),
                semicircle_density((left + right) / 2.0),
            )
        )
    return DistributionReport(
        ctx.p, family, rows, ks_statistic(points, mult), n
    )
