"""Exact-layer unit tests: convolution, inverse, log twist, the A sequence,
signs, and serialization."""
import json
from fractions import Fraction

import pytest

from zetadist import (
    ArithmeticFunction,
    DomainError,
    GrowthBound,
    InvalidLengthError,
    LogLinear,
    NonInvertibleError,
    ResourceLimitError,
    dirichlet_convolve,
    dirichlet_inverse,
    generate,
    identity_function,
    log_twist,
    parse_spec,
    sign_of,
    von_mangoldt,
)
from zetadist.arith import MangoldtSequence, factorize, primes_up_to, smallest_factor_sieve

from conftest import gen, mobius, oracle_convolve, oracle_inverse, oracle_mangoldt


def F(x, y=None) -> Fraction:
    return Fraction(x) if y is None else Fraction(x, y)


class TestIdentity:
    def test_definition(self):
        ident = identity_function(5)
        assert list(ident.coeffs) == [F(1), F(0), F(0), F(0), F(0)]

    def test_degenerate_length(self):
        assert list(identity_function(1).coeffs) == [F(1)]

    def test_zero_length_rejected(self):
        with pytest.raises(InvalidLengthError):
            identity_function(0)

    def test_length_cap_is_checked_before_allocating(self):
        import tracemalloc

        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError):
                identity_function(2 * 10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_identity_law(self, ezstar64):
        ident = identity_function(64)
        assert dirichlet_convolve(ident, ezstar64).coeffs == ezstar64.coeffs
        assert dirichlet_convolve(ezstar64, ident).coeffs == ezstar64.coeffs


class TestConvolve:
    def test_divisor_count(self, ones64):
        c = dirichlet_convolve(ones64, ones64)
        assert c(6) == 4  # divisors 1, 2, 3, 6
        assert c(12) == 6

    def test_matches_oracle(self, ezstar64):
        got = dirichlet_convolve(ezstar64, ezstar64)
        want = oracle_convolve(list(ezstar64.coeffs), list(ezstar64.coeffs))
        assert list(got.coeffs) == want

    def test_mismatched_lengths_truncate(self):
        a = ArithmeticFunction([1, 2, 3, 4])
        b = ArithmeticFunction([1, 1])
        assert len(dirichlet_convolve(a, b)) == 2

    def test_inverse_law_on_worked_family(self, ezstar64):
        inv = dirichlet_inverse(ezstar64)
        assert dirichlet_convolve(ezstar64, inv).coeffs == identity_function(64).coeffs


class TestInverse:
    def test_worked_values(self, ezstar64):
        inv = dirichlet_inverse(ezstar64)
        assert inv(2) == F("-1/2")
        assert inv(3) == F("-1/2")
        assert inv(4) == F("-3/4")
        assert inv(6) == 0

    def test_identity_self_inverse(self):
        ident = identity_function(16)
        assert dirichlet_inverse(ident).coeffs == ident.coeffs

    def test_mobius(self, ):
        ones = gen("ones", 100)
        inv = dirichlet_inverse(ones)
        for n in range(1, 101):
            assert inv(n) == mobius(n), f"n={n}"

    def test_matches_recursion_oracle(self, ezstar64):
        got = dirichlet_inverse(ezstar64)
        assert list(got.coeffs) == oracle_inverse(list(ezstar64.coeffs))

    def test_noninvertible(self):
        with pytest.raises(NonInvertibleError):
            dirichlet_inverse(ArithmeticFunction([0, 1, 1]))


class TestLogTwist:
    def test_factorization_expansion(self):
        a = ArithmeticFunction([F(1)] * 11 + [F("1/2")])
        tw = log_twist(a)
        assert tw[12 - 1] == LogLinear({2: 1, 3: F("1/2")})

    def test_log1_is_zero(self, ones64):
        assert log_twist(ones64)[0].is_zero()

    def test_prime_power(self, ones64):
        assert log_twist(ones64)[8 - 1] == LogLinear({2: 3})


class TestMangoldt:
    def test_all_ones_pattern_small(self):
        lam = von_mangoldt(gen("ones", 16))
        assert lam[8] == LogLinear.log_of(2)          # 1/3 of log 8
        assert lam[9] == LogLinear.log_of(3)          # 1/2 of log 9
        assert lam[6].is_zero()

    def test_worked_family_values(self, ezstar64):
        lam = von_mangoldt(ezstar64)
        # Published table vs exact recursion: the table lists log n at
        # n = 2,3,5,7 and (1/8)log 8 at n = 8, but the recursion that the same
        # table's other entries follow gives (1/2)log n and (1/8)log 2.  The
        # recursion is authoritative; see also the paper-tables CLI output.
        assert lam[2] == LogLinear.log_of(2, F("1/2"))
        assert lam[3] == LogLinear.log_of(3, F("1/2"))
        assert lam[4] == LogLinear.log_of(4, F("7/8"))
        assert lam[5] == LogLinear.log_of(5, F("1/2"))
        assert lam[6] == LogLinear.log_of(6, F("1/4"))
        assert lam[7] == LogLinear.log_of(7, F("1/2"))
        assert lam[8] == LogLinear.log_of(2, F("1/8"))
        assert lam[12] == LogLinear.log_of(12, F("-1/8"))
        assert sign_of(lam[12]) < 0

    def test_matches_independent_recursion(self, ezstar64):
        lam = von_mangoldt(ezstar64)
        want = oracle_mangoldt(list(ezstar64.coeffs))
        for n in range(2, 65):
            assert lam[n] == want[n], f"n={n}"

    def test_a1_is_not_stored(self, ones64):
        lam = von_mangoldt(ones64)
        with pytest.raises(IndexError):
            lam[1]

    def test_propagates_noninvertible(self):
        with pytest.raises(NonInvertibleError):
            von_mangoldt(ArithmeticFunction([0, 1]))

    def test_scale_invariance(self, ezstar64):
        # A is unchanged under a -> c a (the inverse scales by 1/c).
        scaled = ArithmeticFunction([F(3, 7) * c for c in ezstar64.coeffs])
        lam1 = von_mangoldt(ezstar64)
        lam2 = von_mangoldt(scaled)
        for n in range(2, 65):
            assert lam1[n] == lam2[n]


class TestLogLinear:
    def test_zero_sign(self):
        assert sign_of(LogLinear()) == 0

    def test_all_negative(self):
        assert sign_of(LogLinear({2: F("-1/4"), 3: F("-1/8")})) == -1

    def test_mixed_needs_enclosure(self):
        # 2 log 2 - log 3 = log(4/3) > 0
        assert sign_of(LogLinear({2: 2, 3: -1})) == 1
        assert sign_of(LogLinear({2: -2, 3: 1})) == -1

    def test_mixed_tight(self):
        # 485 log 2 - 306 log 3 = log(2^485 / 3^306) with ratio very near 1
        assert sign_of(LogLinear({2: 485, 3: -306})) == (1 if 2**485 > 3**306 else -1)

    def test_equality_and_hash(self):
        x = LogLinear({2: F(1, 2)})
        y = LogLinear.log_of(2, F(1, 2))
        assert x == y and hash(x) == hash(y)
        assert LogLinear() == 0

    def test_arithmetic(self):
        x = LogLinear({2: 1, 3: 2})
        y = LogLinear({3: -2, 5: 1})
        assert (x + y) == LogLinear({2: 1, 5: 1})
        assert (x - x).is_zero()
        assert x.scale(0).is_zero()

    def test_evaluate(self):
        import math

        v = LogLinear({2: F(3, 2)}).evaluate()
        assert abs(v - 1.5 * math.log(2)) < 1e-15

    def test_rejects_composite_key(self):
        with pytest.raises(ValueError):
            LogLinear({4: 1})


class TestSerialization:
    def test_function_roundtrip(self, ezstar64):
        blob = ezstar64.to_json()
        back = ArithmeticFunction.from_json(blob)
        assert back.coeffs == ezstar64.coeffs
        assert back.name == ezstar64.name
        assert back.growth == ezstar64.growth
        assert back.to_json() == blob  # bit-identical on repeat

    def test_growth_and_support_fields(self):
        fn = ArithmeticFunction([1, F(1, 3)], growth=GrowthBound(2.0, 0.5), support_limit=2)
        back = ArithmeticFunction.from_json(fn.to_json())
        assert back.growth == GrowthBound(2.0, 0.5)
        assert back.support_limit == 2

    @pytest.mark.parametrize("limit", (0, -3, 2.5, "x", True))
    def test_finite_support_is_a_positive_int(self, limit):
        with pytest.raises(ValueError, match="finite support"):
            ArithmeticFunction([1, 0, 0], support_limit=limit)

    def test_finite_support_contradicted_by_the_data(self):
        with pytest.raises(ValueError, match=r"a\(3\) is nonzero beyond the finite support 2"):
            ArithmeticFunction([1, 1, 1, 1], growth=GrowthBound(1.0, 0.0), support_limit=2)
        with pytest.raises(ValueError, match=r"a\(2\)"):
            ArithmeticFunction.from_json_obj({"coeffs": [["1", "1"], ["1", "2"]], "finite_support": 1})
        # zeros beyond the limit, or a limit beyond the stored range, agree with the data
        assert ArithmeticFunction([1, 1, 0, 0], support_limit=2).support_limit == 2
        assert ArithmeticFunction([1, 1], support_limit=5).support_limit == 5

    def test_schema_shape(self, ones64):
        import json

        obj = json.loads(ones64.to_json())
        assert set(obj) == {"name", "coeffs", "growth"}
        assert obj["coeffs"][0] == ["1", "1"]
        assert obj["growth"] == {"C": 1.0, "eps": 0.0}

    def test_loglinear_roundtrip(self):
        x = LogLinear({2: F(-1, 4), 3: F(-1, 8)})
        obj = x.to_json_obj()
        assert list(obj) == ["2", "3"]  # increasing primes as string keys
        assert LogLinear.from_json_obj(obj) == x


class TestHelpers:
    def test_factorize(self):
        assert factorize(360) == {2: 3, 3: 2, 5: 1}
        assert factorize(1) == {}

    def test_primes(self):
        assert primes_up_to(20) == [2, 3, 5, 7, 11, 13, 17, 19]

    def test_spf(self):
        spf = smallest_factor_sieve(20)
        assert spf[12] == 2 and spf[15] == 3 and spf[17] == 17


class TestLengthCap:
    """ZETADIST_MAX_N caps every function's length where it is built."""

    @pytest.fixture(autouse=True)
    def cap_1000(self, monkeypatch):
        monkeypatch.setenv("ZETADIST_MAX_N", "1000")

    def test_generator_spec_above_cap(self):
        with pytest.raises(ResourceLimitError):
            parse_spec("ones", 1001)
        assert len(generate(parse_spec("ones", 1000))) == 1000

    def test_hand_built_above_cap(self):
        with pytest.raises(ResourceLimitError):
            ArithmeticFunction([1] * 1001)
        assert len(ArithmeticFunction([1] * 1000)) == 1000

    def test_identity_and_mangoldt_sequence_above_cap(self):
        # one length rule, _check_length, for every builder
        for build in (identity_function, lambda N: MangoldtSequence({}, N)):
            with pytest.raises(ResourceLimitError):
                build(1001)
            with pytest.raises(InvalidLengthError):
                build(0)
            build(1000)

    def test_cap_must_be_an_integer(self, monkeypatch):
        monkeypatch.setenv("ZETADIST_MAX_N", "abc")
        with pytest.raises(DomainError, match="ZETADIST_MAX_N"):
            parse_spec("ones", 4)

    def test_json_above_cap(self):
        def blob(n):
            return json.dumps({"coeffs": [["1", "1"]] * n, "growth": None})

        with pytest.raises(ResourceLimitError):
            ArithmeticFunction.from_json(blob(1001))
        assert len(ArithmeticFunction.from_json(blob(1000))) == 1000
