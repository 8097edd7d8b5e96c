"""Float views: the closed-form views the generators build, the general
route of ``float_coeffs`` (the oracle), the ``float_view=`` certificate and
the sign test read off the view's sign bits."""
import hashlib
import warnings
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest

from zetadist import NotCharacteristicWarning, NotDistributionError
from zetadist.arith import ArithmeticFunction, GrowthBound
from zetadist.dist import build_distribution
from zetadist.levy import validate_characteristic
from zetadist.series import evaluate_cf

from conftest import gen

CLOSED_FORM = ("ones", "dk:2", "dk:3", "dk:5", "absmu", "ezstar",
               "oneplusq:2", "oneplusq:6", "oneplusq:2:4", "oneplusq:3:1/3")
SIZES = (1, 2, 3, 4, 5, 16, 17, 100, 4097, 65536)

# sha256 (first 16 hex digits) of "num/den,..." over a(1..4097), read from the
# generators before they built float views
COEFF_DIGESTS = {
    "ones": "f0fd65b264c056a2",
    "pow:-1": "227e38be24fd5929",
    "pow:-2": "3644c1b3ba385c5c",
    "dk:2": "a6e2233e8017e3da",
    "dk:3": "f5fe78ad85703ea3",
    "dk:5": "070f61c2dc753f3f",
    "absmu": "e18a17ffecbe5663",
    "ezstar": "0b8d42674f836585",
    "oneplusq:2": "641120a63703fa21",
    "oneplusq:6": "e1bfc3060cbee51f",
    "oneplusq:2:4": "775a3d7d9ac93a57",
    "oneplusq:3:1/3": "77be65bac754939d",
    "oneplusq:5000": "3ca9dfd89cc1655b",
}


def reference_view(values) -> np.ndarray:
    return np.fromiter(map(float, values), dtype=np.float64, count=len(values))


def assert_same_bits(view: np.ndarray, ref: np.ndarray) -> None:
    assert view.dtype == np.float64 and view.shape == ref.shape
    assert view.tobytes() == ref.tobytes()  # bit for bit, sign bit included


@pytest.mark.parametrize("N", SIZES)
@pytest.mark.parametrize("name", CLOSED_FORM)
def test_closed_form_view_equals_float_of_coeffs(name, N):
    fn = gen(name, N)
    assert fn._float_cache is not None  # built by the generator, not lazily
    assert_same_bits(fn.float_coeffs(), reference_view(fn.coeffs))


@pytest.mark.parametrize("N", SIZES)
def test_oneplusq_view_with_q_beyond_n(N):
    fn = gen(f"oneplusq:{N + 1}:5/2", N)
    assert_same_bits(fn.float_coeffs(), reference_view(fn.coeffs))
    assert fn.float_coeffs()[0] == 1.0 and not fn.float_coeffs()[1:].any()


@pytest.mark.parametrize("name", CLOSED_FORM + ("pow:-1", "pow:-2"))
def test_json_round_trip_gives_the_same_view(name):
    fn = gen(name, 4097)
    back = ArithmeticFunction.from_json(fn.to_json())
    assert back._float_cache is None  # the view is not serialised
    assert_same_bits(back.float_coeffs(), fn.float_coeffs())


@pytest.mark.parametrize("name", sorted(COEFF_DIGESTS))
def test_coeffs_unchanged(name):
    fn = gen(name, 4097)
    assert set(map(type, fn.coeffs)) == {Fraction}
    text = ",".join(f"{c.numerator}/{c.denominator}" for c in fn.coeffs)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == COEFF_DIGESTS[name]


def test_both_routes_are_read_only():
    closed = gen("absmu", 64)
    general = ArithmeticFunction.from_json(closed.to_json())
    hand = ArithmeticFunction([1, Fraction(1, 3), 2])
    for fn in (closed, general, hand):
        view = fn.float_coeffs()
        with pytest.raises(ValueError):
            view[0] = 2.0
        assert view[0] == 1.0


def test_float_view_certificate():
    view = np.array([1.0, 0.5, 0.25])
    fn = ArithmeticFunction([1, Fraction(1, 2), Fraction(1, 4)], float_view=view)
    assert fn.float_coeffs() is view and not view.flags.writeable
    with pytest.raises(ValueError):
        ArithmeticFunction([1, 1, 1], float_view=np.ones(2))
    with pytest.raises(ValueError):
        ArithmeticFunction([1, 1], float_view=np.ones((2, 1)))
    assert "float_view" not in fn.to_json()


def test_fraction_input_is_kept_and_other_input_converted():
    shared = Fraction(1, 3)
    fn = ArithmeticFunction((shared,) * 3)
    assert all(c is shared for c in fn.coeffs)
    mixed = ArithmeticFunction([1, "1/3", Fraction(2)])
    assert mixed.coeffs == (1, Fraction(1, 3), 2)
    assert set(map(type, mixed.coeffs)) == {Fraction}


@pytest.mark.parametrize("k", (1, 2, 3, 10, 64, 65, 1000))
def test_ezstar_at_squares_and_their_neighbours(k):
    for N in (k * k - 1, k * k, k * k + 1):
        if N < 1:
            continue
        fn = gen("ezstar", N)
        view = fn.float_coeffs()
        for n in range(max(1, N - 3), N + 1):
            want = 1 if isqrt(n) ** 2 == n else Fraction(1, 2)
            assert fn(n) == want and view[n - 1] == float(want), (N, n)


# -- the general route ------------------------------------------------------

HARD = (
    [Fraction(1, n) for n in range(1, 2000)]
    + [Fraction(-1, 10**400), Fraction(1, 10**400), Fraction(0), Fraction(-5, 7)]
    + [Fraction(10**400 + 1, 10**399), Fraction(-(3**700), 2**1100), Fraction(2**1023, 3)]
    + [Fraction(7**300 + k, 11**280) for k in range(-3, 4)]
    + [Fraction(1, 2**1074), Fraction(1, 2**1075), Fraction(3, 2**1076), Fraction(-1, 2**1080)]
    + [Fraction(2**53 + 1), Fraction(2**54 + 3, 2), Fraction(10**20 + 1, 10**20)]
)


def test_general_route_bit_identical_to_float():
    fn = ArithmeticFunction(HARD)
    view = fn.float_coeffs()
    assert_same_bits(view, reference_view(HARD))
    assert np.signbit(view[len(range(1, 2000))])  # -1/10^400 reads -0.0
    assert not view.flags.writeable


def test_general_route_overflow_raises():
    for big in (Fraction(10**400), Fraction(-(10**400), 3)):
        with pytest.raises(OverflowError):
            ArithmeticFunction([1, big]).float_coeffs()


# -- the sign test ------------------------------------------------------------

def test_negative_coefficient_rounding_to_minus_zero_is_seen():
    fn = ArithmeticFunction([1, Fraction(-1, 10**400), 1], growth=GrowthBound(1.0, 0.0))
    assert fn.float_coeffs()[1] == 0.0
    with pytest.warns(NotCharacteristicWarning):
        evaluate_cf(fn, 2.0, 1.0)
    with pytest.raises(NotDistributionError, match=r"a\(2\)"):
        build_distribution(fn, 2.0, 1e-3)


def test_nonnegative_coefficients_do_not_warn():
    fn = ArithmeticFunction([1, Fraction(1, 10**400), 0, 1], growth=GrowthBound(1.0, 0.0), support_limit=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error", NotCharacteristicWarning)
        evaluate_cf(fn, 2.0, 1.0)
    assert build_distribution(fn, 2.0, 1e-3).N == 4


# -- the exact sign test (first_negative_index) -------------------------------

def test_exact_sign_test_builds_no_float_view():
    # the float view of 10^400 overflows, so an exact-only caller must not build it
    huge = ArithmeticFunction([1, Fraction(10**400)], growth=GrowthBound(1.0, 0.0))
    assert huge.satisfies_assumption()
    assert validate_characteristic(huge).is_cf
    assert huge._float_cache is None
    fn = ArithmeticFunction([1, Fraction(-1, 10**400), 1])
    assert fn.first_negative_index() == 2
    assert fn._float_cache is None


@pytest.mark.parametrize("values", (HARD, HARD[::-1], [abs(v) for v in HARD]),
                         ids=("hard", "reversed", "nonnegative"))
def test_exact_and_sign_bit_tests_agree(values):
    fn = ArithmeticFunction(values)
    exact = fn.first_negative_index()
    assert fn._float_cache is None
    fn.float_coeffs()
    assert fn.first_negative_index() == exact
