"""Distribution construction, moments by both routes, and sampling."""
import math
from fractions import Fraction

import numpy as np
import pytest

from zetadist import (
    DomainError,
    NotDistributionError,
    ResourceLimitError,
    build_distribution,
    moments_analytic,
    moments_direct,
    sample,
    von_mangoldt,
)
from zetadist.arith import ArithmeticFunction, GrowthBound
from zetadist.dist import RNG_ALGORITHM
from zetadist.series import tail_bound

from conftest import MEAN_ONES_S2, ZETA2, ZETA3, ZETA6, gen


class TestBuild:
    def test_two_point_law(self):
        q = gen("oneplusq:2", 16)
        d = build_distribution(q, 2.0, 1e-12)
        # masses 1/(1+1/4) and (1/4)/(1+1/4)
        assert abs(d.pmf[0] - 0.8) < 1e-15
        assert abs(d.pmf[1] - 0.2) < 1e-15
        assert d.tail_mass_bound == 0.0

    def test_all_ones_p_at_zero(self):
        ones = gen("ones", 10**6)
        d = build_distribution(ones, 2.0, 1e-5)
        assert abs(d.pmf[0] - 1.0 / ZETA2) < 1e-5

    def test_ezstar_p_at_zero(self):
        # P(X=0) = 1/Z(3) with Z(3) = (zeta(3)+zeta(6))/2 for this family
        # (half mass off squares, full mass on squares); series oracle below.
        n = np.arange(1.0, 10**6)
        sq = np.floor(np.sqrt(n)) ** 2 == n
        z3 = float((np.where(sq, 1.0, 0.5) / n**3).sum())
        assert abs(z3 - (ZETA3 + ZETA6) / 2.0) < 1e-12
        ez = gen("ezstar", 10**5)
        d = build_distribution(ez, 3.0, 1e-6)
        assert abs(d.pmf[0] - 1.0 / z3) < 1e-6

    def test_pmf_is_normalized(self):
        for name in ("ones", "pow:-1", "oneplusq:2", "absmu", "ezstar"):
            fn = gen(name, 10**5)
            for sigma in (1.5, 2.0, 3.0):
                d = build_distribution(fn, sigma, 0.05)
                total = float(d.pmf.sum())
                assert np.all(d.pmf >= 0.0)
                assert total <= 1.0 + 1e-12
                assert total + d.tail_mass_bound >= 1.0 - 1e-12

    def test_rejects_negative_coefficients(self):
        bad = ArithmeticFunction([1, -1, 0, 0])
        with pytest.raises(NotDistributionError):
            build_distribution(bad, 2.0, 1e-3)

    def test_smallest_n_when_the_a1_margin_is_thin(self):
        # tail(N)/a(1) <= tol first holds near N = 4e6, beyond the 10^6 stored
        # coefficients, so N comes from the normalizer at each truncation
        d = build_distribution(gen("ones", 10**6), 1.5, 1e-3)
        assert d.N == 587297
        assert d.tail_mass_bound <= 1e-3
        z = math.fsum(n**-1.5 for n in range(1, d.N))
        assert tail_bound(1.0, 0.0, 1.5, d.N - 1) / z > 1e-3

    def test_smallest_n_against_its_own_normalizer(self):
        # tail(N)/a(1) <= tol first holds at N = 10001, but the normalizer of
        # 6081 terms already brings the relative tail within tol
        ones = gen("ones", 10**5)
        d = build_distribution(ones, 2.0, 1e-4)
        assert d.N == 6081
        # the reported bound is the one the search tested
        assert d.tail_mass_bound == tail_bound(1.0, 0.0, 2.0, d.N) / d.Z_sigma.value.real <= 1e-4
        assert abs(d.Z_sigma.value.real - math.fsum(n**-2.0 for n in range(1, d.N + 1))) <= 1e-12
        assert tail_bound(1.0, 0.0, 2.0, d.N - 1) / math.fsum(n**-2.0 for n in range(1, d.N)) > 1e-4

    def test_underflowing_a1(self):
        # a(1) > 0 exactly, but float(a(1)) == 0.0
        a = ArithmeticFunction([Fraction(1, 10**400), 1, 1], growth=GrowthBound(1.0, 0.0), support_limit=3)
        d = build_distribution(a, 2.0, 1e-3)
        assert d.N == 3 and d.tail_mass_bound == 0.0
        assert d.pmf[0] == 0.0
        assert abs(float(d.pmf.sum()) - 1.0) < 1e-15

    def test_unreachable_tolerance_is_resource_error(self):
        ones = gen("ones", 10**4)
        with pytest.raises(ResourceLimitError):
            build_distribution(ones, 2.0, 1e-10)


class TestMoments:
    def test_oneplusq_closed_form(self):
        # mean = -log2 * sum_r (-1)^(r-1) 4^{-r} = -log(2)/5
        lam = von_mangoldt(gen("oneplusq:2", 1 << 20))
        mean, var = moments_analytic(lam, 2.0)
        assert abs(mean - (-math.log(2.0) / 5.0)) < 1e-12
        # direct route on the finite two-point law is exact to float precision
        d = build_distribution(gen("oneplusq:2", 16), 2.0, 1e-12)
        dmean, dvar = moments_direct(d)
        assert abs(dmean - (-math.log(2.0) / 5.0)) < 1e-14
        assert abs(dmean - mean) < 1e-12  # analytic truncation ~2e-13 at 2^20
        assert abs(dvar - var) < 1e-10

    def test_all_ones_mean_reference(self):
        # pattern sequence: A(p^r) = log p, lightweight at this depth
        lam = von_mangoldt(gen("ones", 4096))
        mean, _ = moments_analytic(lam, 2.0)
        assert abs(mean - MEAN_ONES_S2) < 1e-3  # truncation-limited

    def test_degenerate_point_mass(self):
        from zetadist import identity_function

        d = build_distribution(identity_function(16), 2.0, 1e-12)
        mean, var = moments_direct(d)
        assert mean == 0.0 and var == 0.0

    def test_mean_increases_variance_decreases_in_sigma(self):
        lam = von_mangoldt(gen("ones", 4096))
        means, variances = [], []
        for sigma in (1.5, 2.0, 3.0, 5.0, 10.0):
            m, v = moments_analytic(lam, sigma)
            means.append(m)
            variances.append(v)
        assert all(a < b for a, b in zip(means, means[1:]))
        assert all(a > b for a, b in zip(variances, variances[1:]))
        assert means[-1] > -1e-2 and variances[-1] < 1e-2

    def test_direct_vs_analytic_all_families(self):
        # agreement within 10x the certified tail contributions at sigma = 3
        from zetadist.dist import moments_tail_spread
        from zetadist.series import derivative_growth, tail_bound

        a_bounds = {"ones": (1.0, 0.0), "pow:-1": (1.0, 0.0), "dk:2": (2.0, 0.0),
                    "oneplusq:2": (1.0, 0.0), "absmu": (1.0, 0.0), "ezstar": (0.875, 0.0)}
        for name, a_growth in a_bounds.items():
            fn = gen(name, 1 << 14)
            lam = von_mangoldt(gen(name, 4096))
            mean_a, var_a = moments_analytic(lam, 3.0)
            d = build_distribution(fn, 3.0, 1e-6)
            mean_d, var_d = moments_direct(d)

            m_tail_a, v_tail_a = moments_tail_spread(lam, 3.0, a_growth)
            # direct-route truncation: |mean_d - mean| <= (T1 + |mean| T0)/Z
            # with T1, T2 the log-weighted coefficient tails at the built N
            C, eps = fn.growth.C, fn.growth.eps
            z = d.Z_sigma.value.real
            t0 = tail_bound(C, eps, 3.0, d.N) if d.tail_mass_bound else 0.0
            c1, e1 = derivative_growth(C, eps, 1)
            c2, e2 = derivative_growth(C, eps, 2)
            t1 = tail_bound(c1, e1, 3.0, d.N) if d.tail_mass_bound else 0.0
            t2 = tail_bound(c2, e2, 3.0, d.N) if d.tail_mass_bound else 0.0
            m_tail_d = (t1 + abs(mean_d) * t0) / z
            v_tail_d = (t2 + 2.0 * abs(mean_d) * t1 + (var_d + mean_d**2) * t0) / z

            assert abs(mean_a - mean_d) <= 10.0 * (m_tail_a + m_tail_d) + 1e-12, name
            assert abs(var_a - var_d) <= 10.0 * (v_tail_a + v_tail_d) + 1e-12, name


class TestSample:
    def test_deterministic_given_seed(self):
        d = build_distribution(gen("oneplusq:2", 16), 2.0, 1e-12)
        x1 = sample(d, 1000, seed=42)
        x2 = sample(d, 1000, seed=42)
        assert np.array_equal(x1, x2)
        assert not np.array_equal(x1, sample(d, 1000, seed=43))

    def test_worker_split_is_deterministic(self):
        d = build_distribution(gen("oneplusq:2", 16), 2.0, 1e-12)
        x1 = sample(d, 999, seed=7, workers=3)
        x2 = sample(d, 999, seed=7, workers=3)
        assert np.array_equal(x1, x2)
        assert len(x1) == 999

    def test_workers_beyond_count_draw_nothing(self):
        # streams i >= count draw nothing: 10^12 workers are 5 streams, built
        # without a list of 10^12 entries
        d = build_distribution(gen("oneplusq:2", 16), 2.0, 1e-12)
        assert np.array_equal(sample(d, 5, 1, workers=10**12), sample(d, 5, 1, workers=5))
        assert sample(d, 0, 1, workers=10**12).size == 0

    def test_two_point_frequencies(self):
        d = build_distribution(gen("oneplusq:2", 16), 2.0, 1e-12)
        n = 10**6
        x = sample(d, n, seed=2024)
        p_hat = float((x == 0.0).mean())
        assert abs(p_hat - 0.8) <= 3.0 * math.sqrt(0.8 * 0.2 / n)

    def test_refuses_fat_tail(self):
        ones = gen("ones", 10**5)
        d = build_distribution(ones, 2.0, 1e-4)
        with pytest.raises(DomainError):
            sample(d, 10, seed=1)  # default gate is 1e-12
        assert len(sample(d, 10, seed=1, max_tail_mass=1e-3)) == 10

    def test_rng_algorithm_is_documented(self):
        assert "PCG64" in RNG_ALGORITHM

    def test_empirical_cf_matches_quotient(self):
        # 1e6 draws at sigma=2: the empirical characteristic function agrees
        # with the quotient pointwise within 4/sqrt(n) (uniform concentration
        # at this scale); truncation gate relaxed to the built tail mass
        from zetadist import evaluate_cf

        ones = gen("ones", 10**6)
        d = build_distribution(ones, 2.0, 1e-6)
        x = sample(d, 10**6, seed=314159, max_tail_mass=1e-6)
        band = 4.0 / math.sqrt(x.size)
        for t in (1.0, -1.0, 2.0, -2.0, 5.0, -5.0):
            ecf = complex(np.exp(1j * t * x).mean())
            cf = evaluate_cf(ones, 2.0, t, N=10**6)
            assert abs(ecf - cf) < band, t
