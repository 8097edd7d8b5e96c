"""The input rules, one table over the public entries: every real argument
refuses NaN and both infinities, and every tolerance also refuses 0 and -1.
The half-plane rule for a bare sigma or t is ``EvalPoint``'s, the tolerance
rule is ``series._require_tol``'s and the growth rule is ``GrowthBound``'s
(a ValueError, as for a malformed certificate)."""
import math

import pytest

from zetadist import (
    DomainError,
    EvalPoint,
    GrowthBound,
    Rectangle,
    build_distribution,
    classify,
    compound_poisson_cf,
    count_zeros,
    estimate_sigma0,
    evaluate_cf,
    evaluate_log_series,
    evaluate_series,
    localize_zeros,
    moments_analytic,
    quasi_levy_measure,
    sample,
    von_mangoldt,
    zeroscan,
)
from zetadist.dist import moments_tail_spread

from conftest import gen

NAN, INF = math.nan, math.inf
NON_FINITE = (NAN, INF, -INF)
TOLERANCE = NON_FINITE + (0.0, -1.0)

ONES = gen("ones", 64)
LAM = von_mangoldt(ONES)
LAW = build_distribution(gen("ones", 1000), 3.0, 1e-3)
MEASURE = quasi_levy_measure(LAM, 2.0)
SCAN = gen("oneplusq:2:4", 16)
SCAN_LAM = von_mangoldt(SCAN)

# (entry, argument, call with the argument set to v, values it must refuse)
RULES = [
    ("evaluate_series", "sigma", lambda v: evaluate_series(ONES, EvalPoint(v, 1.0)), NON_FINITE),
    ("evaluate_series", "t", lambda v: evaluate_series(ONES, EvalPoint(2.0, v)), NON_FINITE),
    ("evaluate_series", "tol", lambda v: evaluate_series(ONES, EvalPoint(2.0), tol=v), TOLERANCE),
    ("evaluate_cf", "sigma", lambda v: evaluate_cf(ONES, v, 1.0), NON_FINITE),
    ("evaluate_cf", "t", lambda v: evaluate_cf(ONES, 2.0, v), NON_FINITE),
    ("build_distribution", "sigma", lambda v: build_distribution(ONES, v, 1e-3), NON_FINITE),
    ("build_distribution", "tol", lambda v: build_distribution(ONES, 2.0, v), TOLERANCE),
    ("moments_analytic", "sigma", lambda v: moments_analytic(LAM, v), NON_FINITE),
    ("moments_tail_spread", "sigma", lambda v: moments_tail_spread(LAM, v, (1.0, 0.0)), NON_FINITE),
    ("quasi_levy_measure", "sigma", lambda v: quasi_levy_measure(LAM, v), NON_FINITE),
    ("compound_poisson_cf", "t", lambda v: compound_poisson_cf(MEASURE, v, 1), NON_FINITE),
    # 0 admits exact laws only and +inf switches the gate off: both stay valid
    ("sample", "max_tail_mass", lambda v: sample(LAW, 5, seed=1, max_tail_mass=v), (NAN, -INF, -1.0)),
    ("Rectangle", "sigma_min", lambda v: Rectangle(v, 2.0, 0.0, 1.0), NON_FINITE),
    ("Rectangle", "sigma_max", lambda v: Rectangle(1.5, v, 0.0, 1.0), NON_FINITE),
    ("Rectangle", "t_min", lambda v: Rectangle(1.5, 2.0, v, 1.0), NON_FINITE),
    ("Rectangle", "t_max", lambda v: Rectangle(1.5, 2.0, 0.0, v), NON_FINITE),
    ("count_zeros", "t_max", lambda v: count_zeros(ONES, Rectangle(1.5, 2.0, 0.0, v)), NON_FINITE),
    # +inf stops the subdivision at once and stays valid
    ("localize_zeros", "min_size", lambda v: localize_zeros(SCAN, Rectangle(1.5, 2.0, 0.0, 1.0), v),
     (NAN, -INF, 0.0, -1.0)),
    ("estimate_sigma0", "T", lambda v: estimate_sigma0(SCAN, T=v, sigma_hi=4.0, tol=1e-3), NON_FINITE),
    ("estimate_sigma0", "sigma_hi", lambda v: estimate_sigma0(SCAN, T=10.0, sigma_hi=v, tol=1e-3), NON_FINITE),
    ("estimate_sigma0", "sigma_lo",
     lambda v: estimate_sigma0(SCAN, T=10.0, sigma_hi=4.0, tol=1e-3, sigma_lo=v), NON_FINITE),
    ("estimate_sigma0", "tol", lambda v: estimate_sigma0(SCAN, T=10.0, sigma_hi=4.0, tol=v), TOLERANCE),
    ("classify", "T", lambda v: classify(SCAN, SCAN_LAM, T=v, sigma_hi=4.0), NON_FINITE),
    ("classify", "sigma_hi", lambda v: classify(SCAN, SCAN_LAM, T=10.0, sigma_hi=v), NON_FINITE),
    ("classify", "sigma_lo", lambda v: classify(SCAN, SCAN_LAM, T=10.0, sigma_hi=4.0, sigma_lo=v), NON_FINITE),
    ("classify", "tol", lambda v: classify(SCAN, SCAN_LAM, T=10.0, sigma_hi=4.0, tol=v), TOLERANCE),
    ("GrowthBound", "C", lambda v: GrowthBound(v, 0.0), NON_FINITE),
    ("GrowthBound", "eps", lambda v: GrowthBound(1.0, v), NON_FINITE),
    ("moments_tail_spread", "growth", lambda v: moments_tail_spread(LAM, 2.0, (v, 0.0)), NON_FINITE),
    ("evaluate_log_series", "growth",
     lambda v: evaluate_log_series(LAM, ONES(1), EvalPoint(3.0), growth=(1.0, v)), NON_FINITE),
]
CASES = [(entry, arg, call, v) for entry, arg, call, bad in RULES for v in bad]


@pytest.mark.parametrize("entry, arg, call, value", CASES,
                         ids=[f"{entry}-{arg}-{value}" for entry, arg, _, value in CASES])
def test_every_real_argument_is_checked(entry, arg, call, value):
    expected = ValueError if entry == "GrowthBound" or arg == "growth" else DomainError
    with pytest.raises(expected):
        call(value)


@pytest.mark.parametrize("call", [
    lambda: estimate_sigma0(SCAN, T=10.0, sigma_hi=INF, tol=1e-3),
    lambda: classify(SCAN, SCAN_LAM, T=10.0, sigma_hi=INF),
], ids=["estimate_sigma0", "classify"])
def test_infinite_sigma_hi_is_refused_before_any_count(call, monkeypatch):
    # the message names the argument passed, not a strip built from it
    def no_count(*args, **kwargs):
        raise AssertionError("a zero count ran")

    monkeypatch.setattr(zeroscan, "count_zeros", no_count)
    with pytest.raises(DomainError, match=r"sigma=inf and t=0.0 must be finite"):
        call()


def test_open_gates_stay_valid():
    assert sample(LAW, 5, seed=1, max_tail_mass=INF).size == 5
    assert localize_zeros(SCAN, Rectangle(3.0, 3.5, 0.0, 1.0), INF) == []
