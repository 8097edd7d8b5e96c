"""The two A(n) routes: the prime-power route of multiplicative functions
against the dense route, both against the two oracles, which functions take
which route, the sparse Dirichlet inverse, and the Omega derivation behind
the dense route and the inverse in its integer and Fraction scalings."""
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zetadist import arith, dirichlet_inverse, identity_function, von_mangoldt
from zetadist.arith import ArithmeticFunction, LogLinear, MangoldtSequence, factorize

from conftest import gen, oracle_convolve, oracle_inverse, oracle_mangoldt, oracle_mangoldt_by_inverse

MARKED = ("ones", "pow:-1", "pow:-2", "dk:2", "dk:3", "dk:4", "absmu",
          "oneplusq:2", "oneplusq:4:3", "oneplusq:9")
UNMARKED = ("ezstar", "oneplusq:6", "oneplusq:12")


def dense_of(fn: ArithmeticFunction) -> MangoldtSequence:
    """The dense route on the same coefficients (the copy carries no mark)."""
    lam = von_mangoldt(ArithmeticFunction(fn.coeffs))
    assert lam.route == "dense"
    return lam


def marked(coeffs) -> ArithmeticFunction:
    """A hand-built function marked multiplicative, built as ``generate``
    builds one: the public constructor takes no mark."""
    return ArithmeticFunction._built([Fraction(c) for c in coeffs], np.arange(len(coeffs)), None, "",
                                     multiplicative=True)


def assert_same_table(lam: MangoldtSequence, want: dict, N: int) -> None:
    for n in range(2, N + 1):
        assert lam[n] == want.get(n, 0), f"n={n}"


def assert_store_scans(lam: MangoldtSequence) -> None:
    """The count, sign test and float view read off the one store agree
    with a plain scan of ``nonzeros()``, for lam and for the public
    constructor's copy of it."""
    items = list(lam.nonzeros())
    for seq in (lam, MangoldtSequence(dict(reversed(items)), lam.N, route=lam.route)):
        assert seq.nonzero_count() == len(items)
        assert seq.first_negative() == next((n for n, v in items if v.sign() < 0), None)
        ns, _, coef = seq.float_arrays()
        assert ns.tolist() == [n for n, _ in items] and len(coef) == len(items)


@pytest.mark.parametrize("name", MARKED)
def test_marked_family_equals_dense_and_oracle(name):
    fn = gen(name, 300)
    lam = von_mangoldt(fn)
    assert fn.multiplicative and lam.route == "prime-powers"
    assert_same_table(lam, dict(dense_of(fn).nonzeros()), 300)
    assert_same_table(lam, oracle_mangoldt(list(fn.coeffs)), 300)


@pytest.mark.parametrize("name", MARKED)
def test_marked_family_equals_dense_at_depth(name):
    fn = gen(name, 4096)
    lam = von_mangoldt(fn)
    assert dict(lam.nonzeros()) == dict(dense_of(fn).nonzeros())


@pytest.mark.parametrize("name", MARKED)
def test_marked_family_tiny_lengths(name):
    for N in (1, 2, 3, 4):
        fn = gen(name, N)
        assert dict(von_mangoldt(fn).nonzeros()) == dict(dense_of(fn).nonzeros())


@pytest.mark.parametrize("name", UNMARKED)
def test_unmarked_family_takes_dense_route(name):
    fn = gen(name, 64)
    assert not fn.multiplicative
    lam = von_mangoldt(fn)
    assert lam.route == "dense"
    assert_same_table(lam, oracle_mangoldt(list(fn.coeffs)), 64)


def test_json_input_takes_dense_route():
    ones = gen("ones", 64)
    back = ArithmeticFunction.from_json(ones.to_json())
    assert "multiplicative" not in json.loads(ones.to_json())
    assert von_mangoldt(back).route == "dense"
    assert dict(von_mangoldt(back).nonzeros()) == dict(von_mangoldt(ones).nonzeros())


def test_route_is_read_only():
    lam = von_mangoldt(gen("ones", 16))
    with pytest.raises(AttributeError):
        lam.route = "dense"
    with pytest.raises(ValueError):
        MangoldtSequence({}, 4, route="sparse")


@pytest.mark.parametrize("name", ("ones", "absmu", "oneplusq:6", "ezstar"))
def test_built_tables_are_ordered_and_equal_the_public_constructor(name):
    # both routes hand their tables to MangoldtSequence without its checks;
    # the public constructor, which filters and range-checks, must give the
    # same ordered table
    fn = gen(name, 1000)
    lam = von_mangoldt(fn)
    items = list(lam.nonzeros())
    assert [n for n, _ in items] == sorted(n for n, _ in items)
    assert all(2 <= n <= 1000 and not v.is_zero() for n, v in items)
    shuffled = dict(reversed(items))
    assert list(MangoldtSequence(shuffled, 1000, route=lam.route).nonzeros()) == items
    assert_same_table(lam, oracle_mangoldt(list(fn.coeffs)), 1000)


@pytest.mark.parametrize("N", (1, 2, 64))
def test_empty_store(N):
    lam = MangoldtSequence({}, N)
    assert lam.nonzero_count() == 0 and lam.first_negative() is None and list(lam.nonzeros()) == []
    assert [x.size for x in lam.float_arrays()] == [0, 0, 0]


def test_public_constructor_checks_its_input():
    two = LogLinear.log_of(2)
    lam = MangoldtSequence({4: two, 3: LogLinear(), 2: two}, 4)
    assert list(lam.nonzeros()) == [(2, two), (4, two)]
    for bad in (1, 5):
        with pytest.raises(ValueError):
            MangoldtSequence({bad: two}, 4)


def test_public_constructor_refuses_a_value_off_log_n():
    # the table holds l(n) = A(n)/log n; a value that is no rational multiple
    # of log n is no coefficient of log Z
    for n, bad in ((6, LogLinear.log_of(2)), (4, LogLinear.log_of(3)), (12, LogLinear({2: 1, 3: 1}))):
        with pytest.raises(ValueError, match="rational multiple"):
            MangoldtSequence({n: bad}, 12)
    lam = MangoldtSequence({12: LogLinear({2: Fraction(-2, 3), 3: Fraction(-1, 3)})}, 12)
    assert lam[12] == LogLinear.log_of(12, Fraction(-1, 3)) and lam.first_negative() == 12


def test_prime_power_route_needs_invertible_a1():
    from zetadist import NonInvertibleError

    with pytest.raises(NonInvertibleError):
        von_mangoldt(marked([0, 1, 1]))


@st.composite
def multiplicative_functions(draw):
    """a = a(1) b with b multiplicative: random nonnegative rationals on the
    prime powers up to N (zero included), a(1) positive and not 1."""
    N = draw(st.integers(min_value=1, max_value=160))
    values = st.fractions(min_value=Fraction(0), max_value=Fraction(3), max_denominator=6)
    on_prime_powers = {n: draw(values) for n in range(2, N + 1) if len(factorize(n)) == 1}
    a1 = draw(st.fractions(min_value=Fraction(1, 8), max_value=Fraction(4), max_denominator=8)
              .filter(lambda x: x != 1))
    coeffs = []
    for n in range(1, N + 1):
        b = Fraction(1)
        for p, e in factorize(n).items():
            b *= on_prime_powers[p**e]
        coeffs.append(a1 * b)
    return marked(coeffs)


@given(multiplicative_functions())
@settings(max_examples=60, deadline=None)
def test_random_multiplicative_equals_dense_and_oracle(fn):
    lam = von_mangoldt(fn)
    assert lam.route == "prime-powers"
    N = len(fn)
    assert_same_table(lam, dict(dense_of(fn).nonzeros()), N)
    assert_same_table(lam, oracle_mangoldt(list(fn.coeffs)), N)
    assert_store_scans(lam)


def test_sparse_inverse_matches_oracle():
    # one-plus-q with composite q and a sparse function with a(1) != 1: most
    # accumulators stay zero and are skipped
    sparse = ArithmeticFunction(
        [Fraction(3, 2)] + [Fraction(0)] * 4 + [Fraction(-2, 3)] + [Fraction(0)] * 3
        + [Fraction(5)] + [Fraction(0)] * 190
    )
    for fn in (gen("oneplusq:6", 300), sparse):
        inv = dirichlet_inverse(fn)
        assert list(inv.coeffs) == oracle_inverse(list(fn.coeffs))
        assert oracle_convolve(list(inv.coeffs), list(fn.coeffs)) == list(identity_function(len(fn)).coeffs)


@st.composite
def unmarked_functions(draw):
    """Functions without a mark, so they take the dense route: signed
    rationals with zeros, on every index or only on multiples of a stride,
    and a(1) of either sign and not 1."""
    N = draw(st.integers(min_value=1, max_value=120))
    stride = draw(st.integers(min_value=1, max_value=6))
    entries = st.one_of(st.just(Fraction(0)),
                        st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=6))
    rest = draw(st.lists(entries, min_size=N - 1, max_size=N - 1))
    a1 = draw(st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=8)
              .filter(lambda x: x not in (0, 1)))
    return ArithmeticFunction([a1] + [c if n % stride == 0 else 0 for n, c in enumerate(rest, 2)])


@given(unmarked_functions())
@settings(max_examples=60, deadline=None)
def test_random_inverse_matches_oracle(fn):
    # the inverse is the same elimination as the dense route, with the
    # right-hand side delta; sparse signed input exercises the skip of an
    # index with nothing pending
    assert list(dirichlet_inverse(fn).coeffs) == oracle_inverse(list(fn.coeffs))


def test_a_wrong_mark_cannot_be_set_by_hand():
    # (1, 1, 1, 1, 1, 2) is not multiplicative (a(6) != a(2) a(3)); a mark
    # would send it to the prime-power route and lose A(6) = log 2 + log 3
    with pytest.raises(TypeError):
        ArithmeticFunction([1, 1, 1, 1, 1, 2], multiplicative=True)
    lam = von_mangoldt(ArithmeticFunction([1, 1, 1, 1, 1, 2]))
    assert lam.route == "dense" and lam[6] == LogLinear({2: 1, 3: 1})


@given(unmarked_functions())
@settings(max_examples=60, deadline=None)
def test_random_unmarked_equals_both_oracles(fn):
    lam = von_mangoldt(fn)
    assert lam.route == "dense"
    N = len(fn)
    assert_same_table(lam, oracle_mangoldt(list(fn.coeffs)), N)
    assert_same_table(lam, oracle_mangoldt_by_inverse(list(fn.coeffs)), N)
    assert_store_scans(lam)


def test_dense_route_builds_neither_inverse_nor_twist(monkeypatch):
    fn = gen("ezstar", 64)

    def refuse(a):
        raise AssertionError("the dense route solves A * a = a log in one pass")

    monkeypatch.setattr(arith, "dirichlet_inverse", refuse)
    monkeypatch.setattr(arith, "log_twist", refuse)
    lam = von_mangoldt(fn)
    assert lam.route == "dense"
    assert_same_table(lam, oracle_mangoldt(list(fn.coeffs)), 64)


def test_ezstar_at_depth_equals_inverse_oracle():
    fn = gen("ezstar", 4096)
    assert dict(von_mangoldt(fn).nonzeros()) == {
        n: v for n, v in oracle_mangoldt_by_inverse(list(fn.coeffs)).items() if v}


def log_coefficients(lam: MangoldtSequence, N: int) -> list[Fraction]:
    """l(1..N), l(n) = A(n)/log n, read off each A(n)'s coefficient of the
    least prime of n."""
    out = [Fraction(0)] * N
    for n, v in lam.nonzeros():
        p, e = next(iter(factorize(n).items()))
        out[n - 1] = v.terms[p] / e
    return out


def big_omega(n: int) -> int:
    return sum(factorize(n).values())


@given(unmarked_functions())
@settings(max_examples=40, deadline=None)
def test_omega_derivation_identity(fn):
    # Omega is completely additive, so f -> f Omega is a derivation; on
    # Z = a(1) exp(L) it gives a Omega = a * (l Omega), checked by divisor sums
    a, N = list(fn.coeffs), len(fn)
    l_omega = [x * big_omega(n) for n, x in enumerate(log_coefficients(von_mangoldt(fn), N), 1)]
    assert oracle_convolve(a, l_omega) == [x * big_omega(n) for n, x in enumerate(a, 1)]


@pytest.mark.parametrize("a1, D, u", [(Fraction(-1), 6, -6), (Fraction(3, 2), 6, 9)])
def test_integer_scaling_carries_the_sign_and_powers_of_u(a1, D, u):
    # denominators 1..3 give D = 6 and u = D a(1); Y(n) carries u^Omega(n)
    fn = ArithmeticFunction([a1] + [Fraction((-1) ** n * (n % 5), 1 + n % 3) for n in range(2, 97)])
    scale, upow, *_ = arith._omega_weights(fn)
    assert (scale, upow[1]) == (D, u)
    coeffs = list(fn.coeffs)
    assert_same_table(von_mangoldt(fn), oracle_mangoldt(coeffs), len(fn))
    assert list(dirichlet_inverse(fn).coeffs) == oracle_inverse(coeffs)


def test_wide_denominators_take_the_fraction_scaling():
    # a JSON copy of n^-1 has D = lcm(1..64) > 2^64: the same loop runs with
    # D = 1 and Fraction weights
    fn = ArithmeticFunction.from_json(gen("pow:-1", 64).to_json())
    assert math.lcm(*range(1, 65)) >= 2**64
    scale, upow, _, ws, _ = arith._omega_weights(fn)
    assert scale == 1 and upow[1] == 1 and all(type(w) is Fraction for w in ws)
    lam, coeffs = von_mangoldt(fn), list(fn.coeffs)
    assert lam.route == "dense"
    assert dict(lam.nonzeros()) == dict(von_mangoldt(gen("pow:-1", 64)).nonzeros())
    assert_same_table(lam, oracle_mangoldt(coeffs), 64)
    assert_same_table(lam, oracle_mangoldt_by_inverse(coeffs), 64)
    assert list(dirichlet_inverse(fn).coeffs) == oracle_inverse(coeffs)


@pytest.mark.parametrize("max_bits", [0, arith._MAX_SCALE_BITS], ids=["fraction", "integer"])
@given(fn=unmarked_functions())
@settings(max_examples=30, deadline=None)
def test_both_scalings_equal_the_oracles(max_bits, fn):
    # max_bits 0 sends every input to the Fraction scaling
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arith, "_MAX_SCALE_BITS", max_bits)
        lam, inv = von_mangoldt(fn), dirichlet_inverse(fn)
    coeffs, N = list(fn.coeffs), len(fn)
    assert_same_table(lam, oracle_mangoldt(coeffs), N)
    assert_same_table(lam, oracle_mangoldt_by_inverse(coeffs), N)
    assert list(inv.coeffs) == oracle_inverse(coeffs)
