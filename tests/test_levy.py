"""Quasi-Levy measures, the compound-Poisson identity, characteristic-function
validation, and the trichotomy classifier."""
from fractions import Fraction

import numpy as np
import pytest

from zetadist import (
    CharacteristicCheck,
    ContourError,
    DomainError,
    HypothesisViolationError,
    classify,
    compound_poisson_cf,
    evaluate_cf,
    observed_decay_abscissa,
    quasi_levy_measure,
    validate_characteristic,
    von_mangoldt,
)
from zetadist import levy
from zetadist.arith import ArithmeticFunction, GrowthBound, LogLinear, MangoldtSequence, identity_function

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

    @pytest.mark.parametrize("lam", [MangoldtSequence({}, 8), von_mangoldt(identity_function(16))],
                             ids=["empty", "identity"])
    def test_no_atoms(self, lam):
        # numpy's empty reductions give the empty measure's values directly
        m = quasi_levy_measure(lam, 2.0)
        assert m.atom_count() == 0
        assert m.tv_partial == 0.0
        cf = compound_poisson_cf(m, 1.5, Fraction(1))
        assert type(cf) is complex and cf == 1 + 0j
        assert observed_decay_abscissa(lam) is None

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

    def test_inconclusive_when_no_contour_certifies(self, monkeypatch):
        res = _classify_case("inconclusive", monkeypatch)
        assert res.verdict == "inconclusive"
        assert res.negative_witness == 4
        assert res.sigma0_bracket is None and res.certified_strip is None
        assert res.consequences == ()
        assert res.notes.startswith("zero scan failed on every attempted contour: ")

    def test_nonpositive_tol_is_a_domain_error(self):
        fn = gen("oneplusq:2:4", 16)
        with pytest.raises(DomainError, match=r"^tol=0.0 must be positive$"):
            classify(fn, von_mangoldt(fn), T=10.0, sigma_hi=4.0, tol=0.0)

    def test_case2_2_notes_mention_zero_values(self):
        fn = gen("ones", 300000)
        lam = von_mangoldt(gen("ones", 512))
        res = classify(fn, lam, T=10.0, sigma_hi=3.0)
        assert "A(6) = 0" in res.notes  # documents the >= 0 convention


class TestObservedAbscissa:
    def test_all_ones_near_one(self):
        # block sums of Lambda(n)/log n grow like 2^k (prime counting), so
        # the empirical convergence abscissa of the log series sits near 1
        theta = observed_decay_abscissa(von_mangoldt(gen("ones", 1 << 14)))
        assert theta is not None
        assert 0.7 < theta < 1.2

    def test_engineered_near_two(self):
        # |A(2^r)/log 2^r| = 4^r/r, so blocks grow like 4^k = 2^{2k}
        theta = observed_decay_abscissa(von_mangoldt(gen("oneplusq:2:4", 1 << 14)))
        assert theta is not None
        assert 1.6 < theta < 2.2

    def test_too_few_blocks_gives_none(self):
        assert observed_decay_abscissa(von_mangoldt(gen("ones", 8))) is None


def _fail_contour(*args, **kwargs):
    raise ContourError("no contour certified")


# (family, depth, T, sigma_hi); in the inconclusive case no contour certifies
VERDICT_CASES = {
    "case1": ("oneplusq:2:4", 4096, 10.0, 4.0),
    "case2_1": ("oneplusq:2", 4096, 30.0, 3.0),
    "case2_2": ("ones", 512, 10.0, 3.0),
    "inconclusive": ("oneplusq:2", 64, 5.0, 3.0),
}

# to_json_obj() of each verdict, read before the uncertified
# "observed_abscissa" key was removed and with that key popped
VERDICT_JSON = {
    "case1": {
        "certified_strip": [1.001, 4.0],
        "consequences": [
            "not infinitely divisible but pretended infinitely divisible for sigma > 2.00042",
            "quasi infinitely divisible with finite quasi-Levy measure for sigma > 3.00042",
            "not pretended infinitely divisible on the zero line (abscissa in [1.99969043, 2.00042261])",
        ],
        "height_T": 10.0,
        "negative_witness": 4,
        "notes": "certified zero in the strip; strip [1.99969043, 4] x [-10, 10] contains a zero; "
                 "zero-free on [2.00042261, 4] x [-10, 10] (up to height 10 only; N=4096)",
        "scan_depth": 4096,
        "sigma0_bracket": [1.9996904296874995, 2.0004226074218745],
        "verdict": "case1",
    },
    "case2_1": {
        "certified_strip": [1.001, 3.0],
        "consequences": [
            "zero-free certificate holds on [1.001, 3] x [-30, 30] only",
            "not infinitely divisible but pretended infinitely divisible for sigma > 1 "
            "(conditional on zero-freeness beyond the certified strip)",
            "quasi infinitely divisible with finite quasi-Levy measure for sigma > 2",
        ],
        "height_T": 30.0,
        "negative_witness": 4,
        "notes": "A(4) < 0 (exact); zero-free on [1.001, 3] x [-30, 30] (up to height 30 only; N=4096)",
        "scan_depth": 4096,
        "sigma0_bracket": None,
        "verdict": "case2_1",
    },
    "case2_2": {
        "certified_strip": [2.0, 3.0],
        "consequences": [
            "no negative A(n) up to N=512 (not a proof for all n)",
            "compound Poisson characteristic function with finite nonnegative Levy measure "
            "for all sigma > 1 (if the sign pattern persists)",
        ],
        "height_T": 10.0,
        "negative_witness": None,
        "notes": "all A(n) >= 0 for 2 <= n <= 512 (exact signs); zero-free on [2, 3] x [-10, 10] "
                 "(up to height 10 only; N=512). The nonnegative case is stated here with >= 0: "
                 "zero values occur (e.g. A(6) = 0 for the all-ones series) and do not obstruct "
                 "the compound-Poisson form.",
        "scan_depth": 512,
        "sigma0_bracket": None,
        "verdict": "case2_2",
    },
    "inconclusive": {
        "certified_strip": None,
        "consequences": [],
        "height_T": 5.0,
        "negative_witness": 4,
        "notes": "zero scan failed on every attempted contour: no contour certified",
        "scan_depth": 64,
        "sigma0_bracket": None,
        "verdict": "inconclusive",
    },
}


def _classify_case(verdict, monkeypatch):
    if verdict == "inconclusive":
        monkeypatch.setattr(levy, "estimate_sigma0", _fail_contour)
    name, depth, T, sigma_hi = VERDICT_CASES[verdict]
    fn = gen(name, depth)
    return classify(fn, von_mangoldt(fn), T=T, sigma_hi=sigma_hi)


def _at_12_digits(obj):
    # floats at 12 significant digits, as test_cli compares stdout
    if isinstance(obj, float):
        return float("%.12g" % obj)
    if isinstance(obj, list):
        return [_at_12_digits(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _at_12_digits(v) for k, v in obj.items()}
    return obj


@pytest.mark.parametrize("verdict", sorted(VERDICT_CASES))
def test_verdict_json_pinned(verdict, monkeypatch):
    # no verdict reads the uncertified abscissa
    def fail(lam):
        raise AssertionError("classify read observed_decay_abscissa")

    monkeypatch.setattr(levy, "observed_decay_abscissa", fail)
    obj = _classify_case(verdict, monkeypatch).to_json_obj()
    assert _at_12_digits(obj) == _at_12_digits(VERDICT_JSON[verdict])
