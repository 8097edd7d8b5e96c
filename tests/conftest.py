"""Shared fixtures and independent oracles.

The oracles here deliberately use different algorithms from the library
(divisor enumeration instead of sieves and pushes to multiples) so agreement
is meaningful.  A(n) has two: ``oracle_mangoldt`` solves A * a = a-log by
summing over the divisors of each n, where the library's dense route solves
a Omega = a * (l Omega) for l(n) = A(n)/log n in scaled integers and pushes
each value onto the multiples of its index; ``oracle_mangoldt_by_inverse``
takes the other route, the a-log sequence convolved with ``oracle_inverse``.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from zetadist import ArithmeticFunction, GeneratorSpec, LogLinear, generate

# Reference constants, frozen from high-precision evaluation and re-checked
# against direct summation in the tests that use them.
ZETA2 = 1.6449340668482264
ZETA3 = 1.2020569031595943
ZETA6 = 1.0173430619844492
ZETA2_POINT = 0.69933240878100365 - 0.26598687129018993j  # zeta(2+i)/zeta(2)
MEAN_ONES_S2 = -0.5699609930945328   # zeta'(2)/zeta(2)
VAR_ONES_S2 = 0.8844818339635239     # d/ds zeta'/zeta at 2


def divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d * d != n:
                out.append(n // d)
        d += 1
    return sorted(out)


def oracle_convolve(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """(a*b)(n) by direct divisor enumeration; lists are 1-indexed via [n-1]."""
    N = min(len(a), len(b))
    out = []
    for n in range(1, N + 1):
        out.append(sum((a[d - 1] * b[n // d - 1] for d in divisors(n)), Fraction(0)))
    return out


def oracle_inverse(a: list[Fraction]) -> list[Fraction]:
    """Inverse by the textbook recursion with explicit divisor enumeration."""
    N = len(a)
    inv = [Fraction(0)] * N
    inv[0] = 1 / a[0]
    for n in range(2, N + 1):
        s = sum((inv[d - 1] * a[n // d - 1] for d in divisors(n) if d < n), Fraction(0))
        inv[n - 1] = -s / a[0]
    return inv


def oracle_mangoldt(a: list[Fraction]) -> dict[int, LogLinear]:
    """A(n) from the identity A * a = a-log, i.e.
    A(n) = (a(n) log n - sum_{1<d<n, d|n} A(d) a(n/d)) / a(1).

    The library's dense route solves a Omega = a * (l Omega), the Omega
    derivation of the same series, instead, so the two share neither log n
    nor the order of the sums.
    """
    N = len(a)
    A: dict[int, LogLinear] = {}
    for n in range(2, N + 1):
        acc = LogLinear.log_of(n, a[n - 1])
        for d in divisors(n):
            if 1 < d < n:
                acc = acc - A[d].scale(a[n // d - 1])
        A[n] = acc.scale(1 / a[0])
    return A


def oracle_mangoldt_by_inverse(a: list[Fraction]) -> dict[int, LogLinear]:
    """A = (a-log) * a^-1: the a-log sequence (``LogLinear.log_of``)
    convolved with ``oracle_inverse`` by divisor enumeration.  The library's
    dense route and its inverse share one elimination, so this oracle uses
    neither."""
    inv = oracle_inverse(a)
    A: dict[int, LogLinear] = {}
    for n in range(2, len(a) + 1):
        acc = LogLinear()
        for d in divisors(n)[1:]:  # the a-log sequence vanishes at 1
            acc = acc + LogLinear.log_of(d, a[d - 1] * inv[n // d - 1])
        A[n] = acc
    return A


def mobius(n: int) -> int:
    out, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    if m > 1:
        out = -out
    return out


def direct_zeta(sigma: float, t: float = 0.0, N: int = 10**7) -> complex:
    """Plain chunked summation of sum n^{-sigma-it}; independent oracle."""
    total = 0.0 + 0.0j
    s = complex(sigma, t)
    for start in range(1, N + 1, 1 << 20):
        stop = min(start + (1 << 20) - 1, N)
        n = np.arange(start, stop + 1, dtype=np.float64)
        total += complex(np.exp(-s * np.log(n)).sum())
    return total


@pytest.fixture(scope="session")
def ones64():
    return generate(GeneratorSpec("ones", 64))


@pytest.fixture(scope="session")
def ezstar64():
    return generate(GeneratorSpec("euler-zagier-star", 64))


def gen(kind_text: str, N: int) -> ArithmeticFunction:
    from zetadist import parse_spec

    return generate(parse_spec(kind_text, N))
