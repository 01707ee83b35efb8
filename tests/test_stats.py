"""Moment sums, semicircle law, K-S distance, distribution reports."""

import math

import numpy as np
import pytest

from padichg import (
    PadicHGError,
    catalan,
    distribution_report,
    ks_statistic,
    moment_sum,
    semicircle_cdf,
    semicircle_density,
)
from padichg.stats import family_values, value_counts

from oracles import (
    ap_point_count,
    ks_sorted_samples,
    semicircle_cdf_quadrature,
    small_primes,
)


def semicircle_cdf_list(xs):
    return semicircle_cdf(np.array(xs, dtype=np.float64)).tolist()


def test_catalan():
    assert [catalan(n) for n in (0, 1, 2, 3, 4)] == [1, 1, 2, 5, 14]


class TestMomentSum:
    def test_pinned_p7_2g2(self, ctx_of):
        ctx = ctx_of(7)
        m1 = moment_sum(ctx, "2g2", 1)
        assert m1.sum == -1
        assert m1.normalized == -1 / 7**1.5
        assert m1.expected == 0.0
        m2 = moment_sum(ctx, "2g2", 2)
        assert m2.sum == 33  # squares of (0, -1, 0, -4, 0, 4, 0)
        assert m2.normalized == 33 / 49
        assert m2.expected == 1.0
        assert moment_sum(ctx, "2g2", 4).expected == 2.0

    def test_pinned_p5_ap(self, ctx_of):
        rep = moment_sum(ctx_of(5), "ap", 2)
        assert rep.sum == sum(ap_point_count(5, lam) ** 2 for lam in (2, 3, 4))
        assert rep.sum == 12

    def test_normalizer(self, ctx_of):
        for m in (1, 2, 3, 4):
            rep = moment_sum(ctx_of(11), "6g6", m)
            assert rep.normalized == rep.sum / 11 ** (m / 2 + 1)

    def test_bad_order(self, ctx_of):
        with pytest.raises(ValueError):
            moment_sum(ctx_of(7), "2g2", 0)

    def test_matches_per_lambda_sum(self, ctx_of):
        for p in small_primes(5, 200) + [1009, 1013]:
            fams = ("ap", "2g2", "2g2t") if p % 3 == 1 else ("ap", "6g6", "6g6t")
            for fam in fams:
                vals = family_values(ctx_of(p), fam).tolist()
                for m in range(1, 7):
                    want = sum(int(v) ** m for v in vals)
                    assert moment_sum(ctx_of(p), fam, m).sum == want, (p, fam, m)


def test_value_counts():
    atoms, counts = value_counts(np.array([3, -2, 3, 0, -2, 3]))
    assert atoms.tolist() == [-2, 0, 3]
    assert counts.tolist() == [2, 1, 3]
    atoms, counts = value_counts(np.array([7, 5, 7], dtype=np.int32))
    assert (atoms.tolist(), counts.tolist()) == ([5, 7], [1, 2])


def test_family_values_domains(ctx_of):
    assert len(family_values(ctx_of(7), "2g2")) == 7
    assert len(family_values(ctx_of(7), "ap")) == 5


class TestSemicircle:
    def test_cdf_pinned(self):
        assert semicircle_cdf(0.0) == 0.5
        assert semicircle_cdf(-2.0) == 0.0
        assert semicircle_cdf(2.0) == 1.0
        assert semicircle_cdf(-3.0) == 0.0 and semicircle_cdf(3.0) == 1.0

    def test_cdf_float_and_array(self):
        ts = [-3.0, -2.0, -1.7, -0.4, 0.0, 0.3, 1.1, 1.9, 2.0, 3.0]
        assert all(type(semicircle_cdf(t)) is float for t in ts)
        got = semicircle_cdf(np.array(ts))
        assert isinstance(got, np.ndarray) and got.shape == (len(ts),)
        assert got.tolist() == [semicircle_cdf(t) for t in ts]

    def test_cdf_against_quadrature(self):
        for t in (-1.7, -0.4, 0.3, 1.1, 1.9):
            assert abs(semicircle_cdf(t) - semicircle_cdf_quadrature(t)) < 1e-6

    def test_density(self):
        assert semicircle_density(0.0) == 1.0 / math.pi
        assert semicircle_density(2.0) == 0.0
        assert semicircle_density(-2.5) == 0.0


class TestKSStatistic:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_statistic(np.array([]), np.array([], dtype=np.int64))

    def test_point_mass(self):
        # all mass at 0 vs F(0) = 1/2: the gap is exactly 1/2
        assert ks_statistic(np.zeros(1), np.array([50])) == pytest.approx(0.5)

    def test_quantile_sample_is_close(self):
        # x_i = F^{-1}((i + 1/2)/n) gives D_n = 1/(2n)
        n = 400
        targets = (np.arange(n) + 0.5) / n
        xs = []
        for q in targets:
            lo, hi = -2.0, 2.0
            for _ in range(60):
                mid = (lo + hi) / 2
                if semicircle_cdf(mid) < q:
                    lo = mid
                else:
                    hi = mid
            xs.append(lo)
        ks = ks_statistic(np.array(xs), np.ones(n, dtype=np.int64))
        assert ks == pytest.approx(1 / (2 * n), abs=1e-6)

    @pytest.mark.parametrize("seed", range(6))
    def test_ties_match_sorted_sample_formula(self, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, 3000))
        spread = int(rng.integers(1, 12))
        vals = rng.integers(-spread, spread + 1, size) + rng.binomial(spread, 0.3, size)
        scale = spread / 1.9
        atoms, counts = value_counts(vals)
        want = ks_sorted_samples((vals / scale).tolist(), semicircle_cdf_list)
        assert ks_statistic(atoms / scale, counts) == want

    def test_matches_sorted_sample_formula_at_10009(self, ctx_of):
        rep = distribution_report(ctx_of(10009), "2g2")
        samples = family_values(ctx_of(10009), "2g2") / math.sqrt(10009)
        want = ks_sorted_samples(samples.tolist(), semicircle_cdf_list)
        assert rep.ks_distance == want


class TestDistributionReport:
    def test_pinned_p7(self, ctx_of):
        rep = distribution_report(ctx_of(7), "2g2", bins=4)
        assert rep.sample_size == 7
        assert [row[2] for row in rep.rows] == [1, 1, 4, 1]
        assert sum(row[2] for row in rep.rows) == 7
        edges = [row[0] for row in rep.rows] + [rep.rows[-1][1]]
        assert edges == [-2.0, -1.0, 0.0, 1.0, 2.0]
        samples = family_values(ctx_of(7), "2g2") / math.sqrt(7)
        want = ks_sorted_samples(samples.tolist(), semicircle_cdf_list)
        assert rep.ks_distance == want

    def test_density_columns(self, ctx_of):
        rep = distribution_report(ctx_of(11), "6g6", bins=8)
        n = rep.sample_size
        for left, right, count, emp, semi in rep.rows:
            assert emp == pytest.approx(count / (n * (right - left)))
            assert semi == semicircle_density((left + right) / 2)

    def test_bad_bins(self, ctx_of):
        with pytest.raises(ValueError):
            distribution_report(ctx_of(7), "2g2", bins=0)

    def test_bins_past_value_count(self, ctx_of):
        # values at p = 7 are the 11 integers in [-5, 5]
        assert len(distribution_report(ctx_of(7), "2g2", bins=11).rows) == 11
        with pytest.raises(PadicHGError):
            distribution_report(ctx_of(7), "2g2", bins=12)

    def test_deterministic(self, ctx_of):
        a = distribution_report(ctx_of(13), "2g2", bins=6)
        b = distribution_report(ctx_of(13), "2g2", bins=6)
        assert a == b
