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
    factorize,
    n_cap,
    primes_up_to,
    smallest_factor_sieve,
)
from .errors import (
    DomainError,
    InvalidLengthError,
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
        if self.length < 1:
            raise InvalidLengthError(f"invalid length {self.length}")
        if self.length > n_cap():
            raise ResourceLimitError(f"length {self.length} exceeds the cap {n_cap()}")
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


def _from_exponents(N: int, f) -> list[int]:
    """a(1..N) of the integer-valued multiplicative a with a(p^e) = f(e) for
    every prime p.

    One pass over the smallest-factor sieve: n = p^e m with p = spf(n) and
    p not dividing m, so a(n) = a(m) f(e).
    """
    spf = smallest_factor_sieve(N)
    table = [f(e) for e in range(N.bit_length())]
    vals = [0] * (N + 1)
    vals[1] = 1
    for n in range(2, N + 1):
        p = spf[n]
        m, e = n // p, 1
        while m % p == 0:
            m //= p
            e += 1
        vals[n] = vals[m] * table[e]
    del vals[0]
    return vals


def _exact(N: int, default: Fraction, other: Fraction, where: np.ndarray) -> tuple[Fraction, ...]:
    """a(1..N) equal to ``other`` at the 0-based indices ``where`` and to
    ``default`` elsewhere, as a tuple that shares these two objects."""
    coeffs = [default] * N
    for i in where.tolist():
        coeffs[i] = other
    return tuple(coeffs)


def generate(spec: GeneratorSpec) -> ArithmeticFunction:
    """Materialize the coefficient family described by ``spec``.

    Every family except ezstar, and one-plus-q when q is not a prime power,
    is multiplicative and comes back marked so.  Every family except power
    builds its float view with numpy from the same data as its exact values
    (small integers, 1/2 or the one-plus-q mass), and the exact values share
    one ``Fraction`` object per distinct value.
    """
    N = spec.length
    name = spec.cli_name()
    one = Fraction(1)
    zero = Fraction(0)

    if spec.kind == "ones":
        return ArithmeticFunction(
            (one,) * N, growth=GrowthBound(1.0, 0.0), name=name, multiplicative=True, float_view=np.ones(N)
        )

    if spec.kind == "power":
        alpha = spec.alpha
        if alpha.denominator != 1:
            raise UnsupportedExactnessError(
                f"n^({alpha}) has irrational coefficients; only integer exponents are exact"
            )
        e = -int(alpha)
        coeffs = tuple(Fraction(1, n**e) for n in range(1, N + 1))
        return ArithmeticFunction(coeffs, growth=GrowthBound(1.0, 0.0), name=name, multiplicative=True)

    if spec.kind == "divisor":
        k = spec.k
        vals = _from_exponents(N, lambda e: comb(e + k - 1, k - 1))
        C = divisor_growth_constant(k)
        shared = {v: Fraction(v) for v in set(vals)}
        return ArithmeticFunction(
            tuple(map(shared.__getitem__, vals)),
            growth=GrowthBound(C, DIVISOR_GROWTH_EPS),
            name=name,
            multiplicative=True,
            float_view=np.array(vals, dtype=np.float64),  # d_k(n) < 2^53: exact
        )

    if spec.kind == "one-plus-q":
        q, c = spec.q, spec.c if spec.c is not None else one
        coeffs = [zero] * N
        coeffs[0] = one
        view = np.zeros(N)
        view[0] = 1.0
        if q <= N:
            coeffs[q - 1] = c
            view[q - 1] = float(c)
        return ArithmeticFunction(
            coeffs,
            growth=GrowthBound(max(1.0, float(c)), 0.0),
            name=name,
            support_limit=q,
            multiplicative=len(factorize(q)) == 1,  # q a prime power
            float_view=view,
        )

    if spec.kind == "abs-moebius":
        # squarefree sieve: a(n) = 0 iff p^2 | n for some prime p
        squarefree = np.ones(N + 1, dtype=bool)
        for p in primes_up_to(isqrt(N)):
            squarefree[p * p :: p * p] = False
        flags = squarefree[1:]
        return ArithmeticFunction(
            _exact(N, one, zero, np.flatnonzero(~flags)),
            growth=GrowthBound(1.0, 0.0),
            name=name,
            multiplicative=True,
            float_view=flags.astype(np.float64),
        )

    # euler-zagier-star: 1 on perfect squares, 1/2 otherwise
    roots = np.arange(1, isqrt(N) + 1)
    squares = roots * roots - 1
    view = np.full(N, 0.5)
    view[squares] = 1.0
    return ArithmeticFunction(
        _exact(N, Fraction(1, 2), one, squares),
        growth=GrowthBound(1.0, 0.0),
        name=name,
        float_view=view,
    )
