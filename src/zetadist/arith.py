"""Exact algebra of arithmetical functions under Dirichlet convolution.

Coefficients are arbitrary-precision rationals (``fractions.Fraction``) and
values built from logarithms of integers are kept symbolically as linear
combinations of log p over primes, so equality and sign questions have exact
answers.  Floating point enters only the read-only float views that the
numerical modules use.
"""
from __future__ import annotations

import json
import math
import os
from bisect import bisect_right
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import compress
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from .errors import DomainError, InvalidLengthError, NonInvertibleError, ResourceLimitError

Rational = Fraction

DEFAULT_N_CAP = 10**7

RationalLike = Union[Fraction, int, str]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _as_fraction(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def _float_or_nan(x: Fraction) -> float:
    try:
        return x.numerator / x.denominator  # correctly rounded, as float(x)
    except OverflowError:
        return math.nan


# ---------------------------------------------------------------------------
# Prime factorization (trial division; desk scale n <= 10^6 or so)
# ---------------------------------------------------------------------------

def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {p: exponent}."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    out: dict[int, int] = {}
    while n % 2 == 0:
        out[2] = out.get(2, 0) + 1
        n //= 2
    p = 3
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def smallest_factor_sieve(limit: int) -> list[int]:
    """spf[n] = smallest prime factor of n for 0 <= n <= limit (spf[0]=spf[1]=0)."""
    spf = list(range(limit + 1))
    if limit >= 1:
        spf[1] = 0
    i = 2
    while i * i <= limit:
        if spf[i] == i:
            for j in range(i * i, limit + 1, i):
                if spf[j] == j:
                    spf[j] = i
        i += 1
    return spf


def primes_up_to(limit: int) -> list[int]:
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    p = 2
    while p * p <= limit:
        if sieve[p]:
            sieve[p * p :: p] = b"\x00" * len(range(p * p, limit + 1, p))
        p += 1
    return list(compress(range(limit + 1), sieve))


# ---------------------------------------------------------------------------
# LogLinear: exact values sum_p c_p log p
# ---------------------------------------------------------------------------

def _log_enclosure(p: int, prec: int) -> tuple[Fraction, Fraction]:
    # Decimal.ln is correctly rounded (half-even) at the context precision,
    # so value +- 1 ulp is a rigorous enclosure of log p.
    with localcontext() as ctx:
        ctx.prec = prec
        approx = Decimal(p).ln()
    ulp = Decimal(1).scaleb(approx.adjusted() - prec + 1)
    center = Fraction(approx)
    width = Fraction(ulp)
    return center - width, center + width


class LogLinear:
    """An exact real number of the form sum_p c_p * log p (rational c_p).

    Since {log p} is linearly independent over the rationals, two values are
    equal iff their coefficient maps are equal, and the number is zero iff the
    map is empty.  Instances are immutable and hashable.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Union[Mapping[int, RationalLike], Iterable[tuple[int, RationalLike]]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[int, Fraction] = {}
        for p, c in items:
            c = _as_fraction(c)
            if c == 0:
                continue
            cur = acc.get(p, _ZERO) + c
            if cur == 0:
                acc.pop(p, None)
            else:
                acc[p] = cur
        for p in acc:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
        object.__setattr__(self, "_terms", tuple(sorted(acc.items())))

    @classmethod
    def _raw(cls, sorted_items: tuple[tuple[int, Fraction], ...]) -> "LogLinear":
        obj = object.__new__(cls)
        object.__setattr__(obj, "_terms", sorted_items)
        return obj

    @classmethod
    def log_of(cls, n: int, coefficient: RationalLike = _ONE) -> "LogLinear":
        """coefficient * log n, expanded over the prime factorization of n."""
        c = _as_fraction(coefficient)
        if n == 1 or c == 0:
            return _ZERO_LOGLINEAR
        return cls._raw(tuple(sorted((p, c * e) for p, e in factorize(n).items())))

    @property
    def terms(self) -> dict[int, Fraction]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LogLinear):
            return self._terms == other._terms
        if other == 0:
            return not self._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._terms)

    def __add__(self, other: "LogLinear") -> "LogLinear":
        if not isinstance(other, LogLinear):
            return NotImplemented
        if not self._terms:
            return other
        if not other._terms:
            return self
        acc = dict(self._terms)
        for p, c in other._terms:
            cur = acc.get(p, _ZERO) + c
            if cur == 0:
                acc.pop(p, None)
            else:
                acc[p] = cur
        return LogLinear._raw(tuple(sorted(acc.items())))

    def __neg__(self) -> "LogLinear":
        return LogLinear._raw(tuple((p, -c) for p, c in self._terms))

    def __sub__(self, other: "LogLinear") -> "LogLinear":
        return self + (-other)

    def scale(self, c: RationalLike) -> "LogLinear":
        c = _as_fraction(c)
        if c == 0 or not self._terms:
            return _ZERO_LOGLINEAR
        return LogLinear._raw(tuple((p, c * cp) for p, cp in self._terms))

    def __mul__(self, c: RationalLike) -> "LogLinear":
        return self.scale(c)

    __rmul__ = __mul__

    def evaluate(self) -> float:
        """Double-precision value of the number."""
        return math.fsum(float(c) * math.log(p) for p, c in self._terms)

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}.

        Free when the coefficients share a sign; otherwise decided by interval
        evaluation with log p enclosures tightened until 0 is excluded (always
        terminates: a nonempty combination is a nonzero real).
        """
        if not self._terms:
            return 0
        if all(c > 0 for _, c in self._terms):
            return 1
        if all(c < 0 for _, c in self._terms):
            return -1
        prec = 30
        while True:
            lo = _ZERO
            hi = _ZERO
            for p, c in self._terms:
                l, h = _log_enclosure(p, prec)
                if c > 0:
                    lo += c * l
                    hi += c * h
                else:
                    lo += c * h
                    hi += c * l
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            prec *= 2

    def to_json_obj(self) -> dict[str, list[str]]:
        return {str(p): [str(c.numerator), str(c.denominator)] for p, c in self._terms}

    @classmethod
    def from_json_obj(cls, obj: Mapping[str, Sequence[str]]) -> "LogLinear":
        return cls({int(p): Fraction(int(nd[0]), int(nd[1])) for p, nd in obj.items()})

    def __repr__(self) -> str:
        if not self._terms:
            return "LogLinear(0)"
        parts = [f"{c}*log{p}" for p, c in self._terms]
        return "LogLinear(" + " + ".join(parts) + ")"


_ZERO_LOGLINEAR = LogLinear._raw(())


def sign_of(x: LogLinear) -> int:
    """Sign of a LogLinear value: -1, 0 or +1 (exact)."""
    return x.sign()


# ---------------------------------------------------------------------------
# Arithmetical functions
# ---------------------------------------------------------------------------

def n_cap() -> int:
    """Most coefficients a function may hold; override with the
    ZETADIST_MAX_N env var."""
    raw = os.environ.get("ZETADIST_MAX_N")
    if not raw:
        return DEFAULT_N_CAP
    try:
        return int(raw)
    except ValueError:
        raise DomainError(f"ZETADIST_MAX_N={raw!r} is not an integer") from None


def _check_length(N: int) -> None:
    if N < 1:
        raise InvalidLengthError("need at least a(1)")
    if N > n_cap():
        raise ResourceLimitError(f"{N} coefficients exceed the cap {n_cap()}")


@dataclass(frozen=True)
class GrowthBound:
    """Certificate |a(n)| <= C * n^eps valid for every n >= 1."""

    C: float
    eps: float

    def __post_init__(self) -> None:
        if not 0 < self.C < math.inf:
            raise ValueError(f"growth constant C={self.C} must be positive and finite")
        if not 0 <= self.eps < math.inf:
            raise ValueError(f"growth exponent eps={self.eps} must be >= 0 and finite")


class ArithmeticFunction:
    """Truncated arithmetical function: exact rationals a(1..N), with N at
    most ``n_cap()`` (a longer input raises ResourceLimitError).

    ``growth`` certifies |a(n)| <= C n^eps for the *entire* (infinite)
    sequence, which is what makes truncation-tail bounds possible downstream.
    ``support_limit`` marks sequences known to vanish beyond that index, in
    which case tails are exactly zero; it must be a positive int that no
    stored nonzero a(n) contradicts.  ``multiplicative`` certifies that
    a(n)/a(1) is multiplicative, so ``von_mangoldt`` may work on prime powers
    alone; only ``generate`` sets it (``_built``), and it is not serialised.
    The store is a(n) = values[index[n-1]]: built from ``coeffs``, the table
    is ``coeffs`` and the index ``_arange_index(N)``; a generator stores each
    distinct value once.  A float or sign is computed once per table value
    and gathered through the index.  Instances are immutable; the lazy caches
    are idempotent, so a concurrent first use is benign.
    """

    __slots__ = ("_values", "_index", "growth", "name", "support_limit", "multiplicative",
                 "_coeffs_cache", "_sign_cache", "_float_cache", "_logn_cache")

    def __init__(
        self,
        coeffs: Sequence[RationalLike],
        growth: Optional[GrowthBound] = None,
        name: str = "",
        support_limit: Optional[int] = None,
    ):
        vals = tuple(coeffs)
        _check_length(len(vals))
        if not set(map(type, vals)) <= {Fraction}:
            vals = tuple(map(_as_fraction, vals))
        self._fill(vals, _arange_index(len(vals)), growth, name, support_limit, False)
        object.__setattr__(self, "_coeffs_cache", vals)

    @classmethod
    def _built(cls, values: Sequence[Fraction], index: np.ndarray, growth: Optional[GrowthBound], name: str,
               support_limit: Optional[int] = None, multiplicative: bool = False) -> "ArithmeticFunction":
        """a(n) = values[index[n-1]] for a table of Fractions a generator
        built; the index must be a 1-D integer array inside the table.  The
        one constructor that takes the ``multiplicative`` mark."""
        index = np.asarray(index)
        if index.ndim != 1 or not np.issubdtype(index.dtype, np.integer):
            raise ValueError(f"index of shape {index.shape} and dtype {index.dtype}: need 1-D integers")
        _check_length(len(index))
        if index.min() < 0 or index.max() >= len(values):
            raise ValueError(f"index outside the table of {len(values)} values")
        obj = object.__new__(cls)
        obj._fill(tuple(values), index, growth, name, support_limit, multiplicative)
        return obj

    def _fill(self, values, index, growth, name, support_limit, multiplicative) -> None:
        index.flags.writeable = False
        for slot, value in (("_values", values), ("_index", index), ("growth", growth), ("name", name),
                            ("multiplicative", multiplicative), ("support_limit", None),
                            ("_coeffs_cache", None), ("_sign_cache", None), ("_float_cache", None),
                            ("_logn_cache", None)):
            object.__setattr__(self, slot, value)
        if support_limit is not None:
            if type(support_limit) is not int or support_limit < 1:
                raise ValueError(f"finite support {support_limit!r} is not a positive integer")
            if support_limit < len(index):
                beyond = np.flatnonzero(self._signs()[index[support_limit:]])
                if beyond.size:
                    n = support_limit + 1 + int(beyond[0])
                    raise ValueError(f"a({n}) is nonzero beyond the finite support {support_limit}")
            object.__setattr__(self, "support_limit", support_limit)

    def __setattr__(self, key, value):  # immutability outside the caches
        raise AttributeError("ArithmeticFunction is immutable")

    def __len__(self) -> int:
        return len(self._index)

    def __call__(self, n: int) -> Fraction:
        if not 1 <= n <= len(self._index):
            raise IndexError(f"n={n} outside stored range 1..{len(self._index)}")
        return self._values[self._index[n - 1]]

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """(a(1), ..., a(N)), built from the table on first use."""
        cached = self._coeffs_cache
        if cached is None:
            cached = tuple(map(self._values.__getitem__, self._index.tolist()))
            object.__setattr__(self, "_coeffs_cache", cached)
        return cached

    def _signs(self) -> np.ndarray:
        """The sign of each table value: its numerator's, as the denominator is positive."""
        cached = self._sign_cache
        if cached is None:
            nums = [v.numerator for v in self._values]
            cached = np.array([(x > 0) - (x < 0) for x in nums], dtype=np.int8)
            object.__setattr__(self, "_sign_cache", cached)
        return cached

    def first_negative_index(self) -> Optional[int]:
        """Least n with a(n) < 0, or None: the package's one sign test
        (exact, read off the table's values)."""
        negative = (self._signs() < 0)[self._index]
        n = int(negative.argmax())
        return n + 1 if negative[n] else None

    def nonzero_indices(self) -> list[int]:
        """The n with a(n) != 0, ascending."""
        return (np.flatnonzero(self._signs()[self._index]) + 1).tolist()

    def satisfies_assumption(self) -> bool:
        """a(1) > 0 and a(n) >= 0 for every stored n (exact check)."""
        return self(1) > 0 and self.first_negative_index() is None

    def is_identically_zero(self) -> bool:
        return not self._signs()[self._index].any()

    # -- float views (cached; shared by the numerical modules) --------------

    def float_coeffs(self):
        """float(a(n)) for n = 1..N as a read-only float64 array.

        Each table value is converted once, by the correctly rounded division
        of its numerator by its denominator that ``float`` performs (so a
        tiny negative gives -0.0), and gathered through the index.  A value
        beyond the float range raises OverflowError naming the first n that
        uses it; a table value that no a(n) uses is never an error.
        """
        cached = self._float_cache
        if cached is None:
            # no Fraction is NaN, so NaN marks a value beyond the float range
            cached = np.fromiter(map(_float_or_nan, self._values), dtype=np.float64, count=len(self._values))
            cached = cached[self._index]
            beyond = np.isnan(cached)
            if beyond.any():
                raise OverflowError(f"a({int(beyond.argmax()) + 1}) lies beyond the float range")
            cached.flags.writeable = False
            object.__setattr__(self, "_float_cache", cached)
        return cached

    def log_n(self):
        cached = self._logn_cache
        if cached is None:
            cached = np.log(np.arange(1, len(self) + 1, dtype=np.float64))
            object.__setattr__(self, "_logn_cache", cached)
        return cached

    # -- serialization -------------------------------------------------------

    def to_json_obj(self) -> dict:
        obj: dict = {
            "name": self.name,
            "coeffs": [[str(c.numerator), str(c.denominator)] for c in self.coeffs],
            "growth": None if self.growth is None else {"C": self.growth.C, "eps": self.growth.eps},
        }
        if self.support_limit is not None:
            obj["finite_support"] = self.support_limit
        return obj

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "ArithmeticFunction":
        growth = obj.get("growth")
        return cls(
            [Fraction(int(nd[0]), int(nd[1])) for nd in obj["coeffs"]],
            growth=None if growth is None else GrowthBound(float(growth["C"]), float(growth["eps"])),
            name=obj.get("name", ""),
            support_limit=obj.get("finite_support"),
        )

    @classmethod
    def from_json(cls, text: str) -> "ArithmeticFunction":
        return cls.from_json_obj(json.loads(text))

    def __repr__(self) -> str:
        label = self.name or "arithmetic function"
        return f"ArithmeticFunction({label!r}, N={len(self)})"


def _arange_index(N: int) -> np.ndarray:
    """0..N-1 in the narrowest unsigned dtype that holds N-1."""
    return np.arange(N, dtype=np.min_scalar_type(N - 1))


def identity_function(N: int) -> ArithmeticFunction:
    """The convolution identity: 1 at n=1, 0 elsewhere."""
    _check_length(N)  # before anything of length N is allocated
    index = np.zeros(N, dtype=np.uint8)
    index[0] = 1
    return ArithmeticFunction._built((_ZERO, _ONE), index, GrowthBound(1.0, 0.0), "identity", support_limit=1)


def dirichlet_convolve(a: ArithmeticFunction, b: ArithmeticFunction) -> ArithmeticFunction:
    """c(n) = sum_{d|n} a(d) b(n/d), exact, truncated to min(len(a), len(b))."""
    N = min(len(a), len(b))
    out = [_ZERO] * (N + 1)
    anz, bnz = a.nonzero_indices(), b.nonzero_indices()
    ac, bc = a.coeffs, b.coeffs
    for i in anz[: bisect_right(anz, N)]:
        ai = ac[i - 1]
        for j in bnz[: bisect_right(bnz, N // i)]:
            out[i * j] += ai * bc[j - 1]
    support = None
    if a.support_limit is not None and b.support_limit is not None:
        prod = a.support_limit * b.support_limit
        if prod <= N:
            support = prod
    return ArithmeticFunction(out[1:], name=f"({a.name}*{b.name})", support_limit=support)


def _eliminate(a: ArithmeticFunction, rhs: Iterator[tuple[int, Sequence[tuple[int, Fraction]]]]
               ) -> Iterator[tuple[int, tuple[tuple[int, Fraction], ...]]]:
    """Solve X * a = r by forward elimination, X(n) = (r(n) - sum_{d|n, d<n}
    X(d) a(n/d)) / a(1), given a(1) != 0.  r(n) and X(n) are sparse maps
    {key: Fraction} as sorted pairs: ``rhs`` gives (n, r(n)) for each nonzero
    r(n), n ascending, and (n, X(n)) is yielded for each nonzero X(n).  Each
    X(n) a(m), m >= 2, is pushed onto the pending sum of n m, freed once
    consumed; an index with nothing pending and r(n) = 0 costs nothing."""
    N, coeffs = len(a), a.coeffs
    minus_inv_a1 = -1 / coeffs[0]
    anz = [m for m in a.nonzero_indices() if m >= 2]
    pending: dict[int, dict[int, Fraction]] = {}  # n -> sum_{d|n, d<n} X(d) a(n/d)
    n_r, r = next(rhs, (0, ()))
    for n in range(1, N + 1):
        acc = pending.pop(n, None)
        if n == n_r:
            acc = acc or {}
            for k, v in r:
                acc[k] = acc.get(k, _ZERO) - v
            n_r, r = next(rhs, (0, ()))
        elif acc is None:
            continue
        terms = tuple((k, v * minus_inv_a1) for k, v in sorted(acc.items()) if v)
        if not terms:
            continue
        yield n, terms
        for m in anz[: bisect_right(anz, N // n)]:
            target = pending.setdefault(n * m, {})
            for k, v in terms:
                target[k] = target.get(k, _ZERO) + v * coeffs[m - 1]


def dirichlet_inverse(a: ArithmeticFunction) -> ArithmeticFunction:
    """The convolution inverse, the solution of inv * a = delta by ``_eliminate``."""
    if a(1) == 0:
        raise NonInvertibleError("a(1) = 0: no Dirichlet inverse exists")
    inv = [_ZERO] * len(a)
    for n, ((_, v),) in _eliminate(a, iter([(1, ((1, _ONE),))])):
        inv[n - 1] = v
    return ArithmeticFunction(inv, name=f"({a.name})^-1")


def _prime_exponents(n: int, spf: list[int]) -> Iterator[tuple[int, int]]:
    """(p, e) for each p^e exactly dividing n, smallest p first, off a sieve."""
    while n > 1:
        p, e = spf[n], 0
        while n % p == 0:
            n //= p
            e += 1
        yield p, e


def _twist_terms(a: ArithmeticFunction) -> Iterator[tuple[int, tuple[tuple[int, Fraction], ...]]]:
    """(n, ((p, a(n) e), ...)) for each n >= 2 with a(n) != 0: a(n) log n
    over the p^e exactly dividing n, smallest p first, n ascending."""
    spf, coeffs = smallest_factor_sieve(len(a)), a.coeffs
    for n in a.nonzero_indices():
        if n > 1:
            yield n, tuple((p, coeffs[n - 1] * e) for p, e in _prime_exponents(n, spf))


def log_twist(a: ArithmeticFunction) -> list[LogLinear]:
    """The sequence a(n) * log n as exact LogLinear values, indexed 1..N (entry
    1 is zero), log n expanded over the prime factorization of n."""
    out: list[LogLinear] = [_ZERO_LOGLINEAR] * len(a)
    for n, terms in _twist_terms(a):
        out[n - 1] = LogLinear._raw(terms)
    return out


class MangoldtSequence:
    """The exact sequence A(n) = ((a log) * a^{-1})(n) for 2 <= n <= N.

    These are the generalized von Mangoldt values: A(n)/log n are the
    Dirichlet coefficients of log Z for the series Z with coefficients a.
    Stored sparsely; absent indices are exactly zero.  ``route`` names the
    algorithm that built the table: ``"prime-powers"`` or ``"dense"``.
    """

    __slots__ = ("_nonzero", "N", "route", "_array_cache")

    def __init__(self, nonzero: Mapping[int, LogLinear], N: int, route: str = "dense"):
        _check_length(N)
        if route not in ("prime-powers", "dense"):
            raise ValueError(f"unknown route {route!r}")
        clean = {n: v for n, v in nonzero.items() if not v.is_zero()}
        for n in clean:
            if not 2 <= n <= N:
                raise ValueError(f"index {n} outside 2..{N}")
        self._fill(clean.items(), N, route)

    @classmethod
    def _built(cls, items: Iterable[tuple[int, LogLinear]], N: int, route: str) -> "MangoldtSequence":
        """A table ``von_mangoldt`` built: no zero value, every index in 2..N."""
        obj = object.__new__(cls)
        obj._fill(items, N, route)
        return obj

    def _fill(self, items, N, route) -> None:
        object.__setattr__(self, "_nonzero", dict(sorted(items)))
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "route", route)
        object.__setattr__(self, "_array_cache", None)

    def __setattr__(self, key, value):
        raise AttributeError("MangoldtSequence is immutable")

    def __getitem__(self, n: int) -> LogLinear:
        if not 2 <= n <= self.N:
            raise IndexError(f"n={n} outside stored range 2..{self.N}")
        return self._nonzero.get(n, _ZERO_LOGLINEAR)

    def nonzeros(self) -> Iterator[tuple[int, LogLinear]]:
        return iter(self._nonzero.items())

    def nonzero_count(self) -> int:
        return len(self._nonzero)

    def float_arrays(self):
        """(n, log n, A(n)/log n) over the nonzero A(n) as numpy arrays, the
        last two in double precision: the Dirichlet coefficients of log Z and
        the logarithms the series kernel needs beside them."""
        cached = self._array_cache
        if cached is None:
            ns = np.fromiter(self._nonzero.keys(), dtype=np.int64, count=len(self._nonzero))
            coef = np.fromiter((v.evaluate() for v in self._nonzero.values()), dtype=np.float64, count=len(self._nonzero))
            logn = np.log(ns.astype(np.float64))
            coef /= logn
            cached = (ns, logn, coef)
            object.__setattr__(self, "_array_cache", cached)
        return cached

    def first_negative(self) -> Optional[int]:
        """Least n with A(n) < 0 (exact sign test), or None."""
        for n, v in self._nonzero.items():
            if v.sign() < 0:
                return n
        return None

    def __repr__(self) -> str:
        return f"MangoldtSequence(N={self.N}, nonzeros={len(self._nonzero)}, route={self.route!r})"


def von_mangoldt(a: ArithmeticFunction) -> MangoldtSequence:
    """A(n) for 2 <= n <= len(a), exact: the solution of A * a = a log.

    A function that ``generate`` marked multiplicative takes the prime-power
    route; every other one the dense route, ``_eliminate`` with the
    right-hand side a log, as ``dirichlet_inverse`` with delta.  Both routes
    give the same table.
    """
    if a(1) == 0:
        raise NonInvertibleError("a(1) = 0: no Dirichlet inverse exists")
    if a.multiplicative:
        return _mangoldt_prime_powers(a)
    nonzero = ((n, LogLinear._raw(terms)) for n, terms in _eliminate(a, _twist_terms(a)))
    return MangoldtSequence._built(nonzero, len(a), "dense")


def _mangoldt_prime_powers(a: ArithmeticFunction) -> MangoldtSequence:
    """A(n) for a multiplicative b = a/a(1), on prime powers only.

    log Z is a sum over primes of the logs of the Euler factors, so A vanishes
    off prime powers, and A(p^r) = c_r log p with
    c_r = r b(p^r) - sum_{0<j<r} c_j b(p^(r-j)) (Apostol, ch. 2).  Primes on
    whose powers a vanishes contribute nothing and are skipped.
    """
    N = len(a)
    a1 = a(1)
    primes = primes_up_to(N)
    powers: list[int] = []  # p, p^2, ... <= N for each prime in turn, from its start
    starts = []
    for p in primes:
        starts.append(len(powers))
        q = p
        while q <= N:
            powers.append(q)
            q *= p
    # every a(p^r) in one gather through the index
    values = list(map(a._values.__getitem__, a._index[np.array(powers, dtype=np.intp) - 1].tolist()))
    nonzero: list[tuple[int, LogLinear]] = []
    for p, lo, hi in zip(primes, starts, starts[1:] + [len(powers)]):
        b = values[lo:hi]
        if not any(b):
            continue
        if a1 != 1:
            b = [x / a1 for x in b]
        c = [b[0]]  # c_1 = b(p)
        for r in range(2, len(b) + 1):
            cr = b[r - 1] * r
            for j in range(1, r):
                cr -= c[j - 1] * b[r - j - 1]
            c.append(cr)
        for q, cr in zip(powers[lo:hi], c):
            if cr:
                nonzero.append((q, LogLinear._raw(((p, cr),))))
    return MangoldtSequence._built(nonzero, N, "prime-powers")
