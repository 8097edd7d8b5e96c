"""Builders for the coefficient families used throughout the package.

Every generated function satisfies a(1) > 0, a(n) >= 0 and carries a growth
certificate |a(n)| <= C n^eps valid for the whole infinite sequence, so tail
bounds downstream are rigorous.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, isqrt
from typing import Optional

import numpy as np

from .arith import (
    ArithmeticFunction,
    GrowthBound,
    Rational,
    _arange_index,
    _check_length,
    factorize,
    primes_up_to,
)
from .errors import (
    DomainError,
    ResourceLimitError,
    UnsupportedExactnessError,
)

KINDS = ("ones", "power", "divisor", "one-plus-q", "abs-moebius", "euler-zagier-star")

DIVISOR_GROWTH_EPS = 0.25


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for one coefficient family, plus the truncation length."""

    kind: str
    length: int
    alpha: Optional[Rational] = None  # power
    k: Optional[int] = None           # divisor
    q: Optional[int] = None           # one-plus-q
    c: Optional[Rational] = None      # one-plus-q mass at q (default 1)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise DomainError(f"unknown generator kind {self.kind!r}")
        _check_length(self.length)
        if self.kind == "power":
            if self.alpha is None or self.alpha > 0:
                raise DomainError("power generator needs alpha <= 0")
        if self.kind == "divisor":
            if self.k is None or self.k < 2:
                raise DomainError("divisor generator needs k >= 2")
        if self.kind == "one-plus-q":
            if self.q is None or self.q < 2:
                raise DomainError("one-plus-q generator needs q >= 2")
            if self.c is not None and self.c <= 0:
                raise DomainError("one-plus-q mass must be positive")

    def cli_name(self) -> str:
        if self.kind == "ones":
            return "ones"
        if self.kind == "power":
            return f"pow:{self.alpha}"
        if self.kind == "divisor":
            return f"dk:{self.k}"
        if self.kind == "one-plus-q":
            if self.c is None or self.c == 1:
                return f"oneplusq:{self.q}"
            return f"oneplusq:{self.q}:{self.c}"
        if self.kind == "abs-moebius":
            return "absmu"
        return "ezstar"


def parse_spec(text: str, length: int) -> GeneratorSpec:
    """Parse the CLI grammar: ones | pow:<a> | dk:<k> | oneplusq:<q>[:<c>] | absmu | ezstar."""
    parts = text.split(":")
    head = parts[0]
    try:
        if head == "ones" and len(parts) == 1:
            return GeneratorSpec("ones", length)
        if head == "pow" and len(parts) == 2:
            return GeneratorSpec("power", length, alpha=Fraction(parts[1]))
        if head == "dk" and len(parts) == 2:
            return GeneratorSpec("divisor", length, k=int(parts[1]))
        if head == "oneplusq" and len(parts) in (2, 3):
            c = Fraction(parts[2]) if len(parts) == 3 else None
            return GeneratorSpec("one-plus-q", length, q=int(parts[1]), c=c)
        if head == "absmu" and len(parts) == 1:
            return GeneratorSpec("abs-moebius", length)
        if head == "ezstar" and len(parts) == 1:
            return GeneratorSpec("euler-zagier-star", length)
    except ValueError as exc:
        raise DomainError(f"bad generator spec {text!r}: {exc}") from None
    raise DomainError(f"bad generator spec {text!r}")


def divisor_growth_constant(k: int) -> float:
    """Smallest C (up to the enumeration grid) with d_k(n) <= C n^eps for all
    n, where eps = DIVISOR_GROWTH_EPS.

    d_k is multiplicative with d_k(p^e) = C(e+k-1, k-1).  A prime factor
    contributes max_e C(e+k-1,k-1)/p^(e*eps), which is 1 once
    p^eps >= 2^(k-1) (then p^(e*eps) >= 2^(e(k-1)) >= (e+1)^(k-1)), so the
    supremum over n is a finite product over p < 2^((k-1)/eps).  The factor
    ratio in e is monotone decreasing, so each per-prime max is found by
    scanning to the peak.
    """
    eps = DIVISOR_GROWTH_EPS
    bound = 2 ** ((k - 1) / eps)
    if bound > (1 << 22):
        raise ResourceLimitError(
            f"divisor-family growth constant for k={k} needs a prime product up "
            f"to {bound:.3g}; choose a smaller k"
        )
    C = 1.0
    for p in primes_up_to(int(bound)):
        if p >= bound:
            break
        best, prev, e = 1.0, 1.0, 1
        while True:
            f = comb(e + k - 1, k - 1) / p ** (e * eps)
            if f > best:
                best = f
            if f < prev and f < 1.0:
                break
            prev, e = f, e + 1
        C *= best
    return C


def _divisor_table(N: int, k: int) -> np.ndarray:
    """d_k(1..N) by a sieve: d_k(p^e) = C(e+k-1, k-1) for the primes p <=
    sqrt(N), times k for the one prime, if any, left of n after them.  Float64
    products are exact below 2^53 and never wrap round, so a table below 2^53
    is exact."""
    f = np.array([comb(e + k - 1, k - 1) for e in range(N.bit_length() + 1)], dtype=np.float64)
    vals = np.ones(N + 1)
    rest = np.arange(N + 1)
    for p in primes_up_to(isqrt(N)):
        e = np.ones(N // p, dtype=np.intp)  # the exponent of p in p j, for j = 1..N // p
        powers = [1, p]
        while powers[-1] <= N // p:
            e[powers[-1] - 1 :: powers[-1]] += 1
            powers.append(powers[-1] * p)
        vals[p::p] *= f[e]
        rest[p::p] //= np.array(powers)[e]
    vals[rest > 1] *= f[1]
    return vals[1:]


def generate(spec: GeneratorSpec) -> ArithmeticFunction:
    """Materialize the coefficient family described by ``spec``.

    Every family except ezstar, and one-plus-q when q is not a prime power,
    is multiplicative and comes back marked so.  Every family except power
    is built as a short table of its distinct values and an index array,
    a(n) = values[index[n-1]]; power keeps one value per n.
    """
    N = spec.length
    name = spec.cli_name()
    one = Fraction(1)
    zero = Fraction(0)
    unit = GrowthBound(1.0, 0.0)

    if spec.kind == "ones":
        return ArithmeticFunction._built((one,), np.zeros(N, dtype=np.uint8), unit, name, multiplicative=True)

    if spec.kind == "power":
        alpha = spec.alpha
        if alpha.denominator != 1:
            raise UnsupportedExactnessError(
                f"n^({alpha}) has irrational coefficients; only integer exponents are exact"
            )
        e = -int(alpha)
        coeffs = tuple(Fraction(1, n**e) for n in range(1, N + 1))
        return ArithmeticFunction._built(coeffs, _arange_index(N), unit, name, multiplicative=True)

    if spec.kind == "divisor":
        C = divisor_growth_constant(spec.k)
        table = _divisor_table(N, spec.k)
        values = np.unique(table)  # a sort and a binary search: return_inverse's argsort is slow on repeats
        assert values[-1] < 2**53, f"d_{spec.k}(n) reaches {values[-1]:.3g}, beyond exact float64 integers"
        return ArithmeticFunction._built([Fraction(int(v)) for v in values], np.searchsorted(values, table),
                                         GrowthBound(C, DIVISOR_GROWTH_EPS), name, multiplicative=True)

    if spec.kind == "one-plus-q":
        q, c = spec.q, spec.c if spec.c is not None else one
        index = np.zeros(N, dtype=np.uint8)
        index[0] = 1
        if q <= N:
            index[q - 1] = 2
        return ArithmeticFunction._built(
            (zero, one, c),
            index,
            GrowthBound(max(1.0, float(c)), 0.0),
            name,
            support_limit=q,
            multiplicative=len(factorize(q)) == 1,  # q a prime power
        )

    if spec.kind == "abs-moebius":
        # squarefree sieve: a(n) = 0 iff p^2 | n for some prime p
        squarefree = np.ones(N + 1, dtype=bool)
        for p in primes_up_to(isqrt(N)):
            squarefree[p * p :: p * p] = False
        return ArithmeticFunction._built((zero, one), squarefree[1:].view(np.uint8), unit, name, multiplicative=True)

    # euler-zagier-star: 1 on perfect squares, 1/2 otherwise
    index = np.zeros(N, dtype=np.uint8)
    roots = np.arange(1, isqrt(N) + 1)
    index[roots * roots - 1] = 1
    return ArithmeticFunction._built((Fraction(1, 2), one), index, unit, name)
