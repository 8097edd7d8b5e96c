"""Exact algebra of arithmetical functions under Dirichlet convolution.

Coefficients are arbitrary-precision rationals (``fractions.Fraction``) and
values built from logarithms of integers are kept symbolically as linear
combinations of log p over primes, so equality and sign questions have exact
answers.  The coefficients l(n) = A(n)/log n of log(Z/a(1)) are rationals
too: ``von_mangoldt`` finds them, and ``dirichlet_inverse`` the inverse, by
one scalar elimination over integers (``_eliminate``).  Floating point enters
only the read-only float views that the numerical modules use.
"""
from __future__ import annotations

import json
import math
import os
from bisect import bisect_right
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
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
# Primes and factorization (trial division; desk scale n <= 10^6 or so)
# ---------------------------------------------------------------------------

def factorize(n: int, spf: Optional[np.ndarray] = None) -> dict[int, int]:
    """Prime factorization of n >= 1 as {p: exponent}, smallest p first: by
    trial division, or read off ``spf``, a ``smallest_factor_sieve`` that
    covers n."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    out: dict[int, int] = {}
    if spf is not None:
        while n > 1:
            p, e = spf.item(n), 0
            while n % p == 0:
                n //= p
                e += 1
            out[p] = e
        return out
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


def smallest_factor_sieve(limit: int) -> np.ndarray:
    """spf[n] = smallest prime factor of n for 0 <= n <= limit (spf[0] = spf[1] = 0),
    an array of the narrowest unsigned dtype that holds limit."""
    spf = np.zeros(limit + 1, dtype=np.min_scalar_type(limit))
    for p in primes_up_to(math.isqrt(limit)):
        multiples = spf[p * p :: p]
        multiples[multiples == 0] = p
    primes = np.flatnonzero(spf == 0)
    spf[primes] = primes
    spf[:2] = 0
    return spf


def _prime_factor_counts(spf: np.ndarray) -> np.ndarray:
    """Omega(n), the prime factors of n counted with multiplicity, for each n
    that ``spf`` covers (0 at n = 0 and n = 1), as int8."""
    omega = np.zeros(len(spf), dtype=np.int8)
    rest = np.arange(len(spf))
    live = np.arange(2, len(spf))
    while live.size:
        omega[live] += 1
        rest[live] //= spf[rest[live]]
        live = live[rest[live] > 1]
    return omega


def _prime_flags(limit: int) -> np.ndarray:
    """flags[n] is True iff n is prime, for 0 <= n <= limit: the package's
    one prime sieve."""
    limit = max(limit, 1)
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


def primes_up_to(limit: int) -> list[int]:
    return np.flatnonzero(_prime_flags(limit)).tolist()


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
            if not (p > 1 and factorize(p) == {p: 1}):
                raise ValueError(f"{p} is not prime")
        object.__setattr__(self, "_terms", tuple(sorted(acc.items())))

    @classmethod
    def _raw(cls, sorted_items: tuple[tuple[int, Fraction], ...]) -> "LogLinear":
        obj = object.__new__(cls)
        object.__setattr__(obj, "_terms", sorted_items)
        return obj

    @classmethod
    def log_of(cls, n: int, coefficient: RationalLike = _ONE, spf: Optional[np.ndarray] = None) -> "LogLinear":
        """coefficient * log n, expanded over the prime factorization of n
        (read off ``spf``, a ``smallest_factor_sieve`` covering n, if given)."""
        c = _as_fraction(coefficient)
        if n == 1 or c == 0:
            return _ZERO_LOGLINEAR
        return cls._raw(tuple((p, c * e if e > 1 else c) for p, e in factorize(n, spf).items()))

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
        """Double-precision value of the number: the float of each c_p (the
        correctly rounded division that ``float`` performs) times log p,
        summed exactly and rounded once."""
        return math.fsum(c.numerator / c.denominator * math.log(p) for p, c in self._terms)

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
        negative = self._signs() < 0
        if not negative.any():
            return None
        negative = negative[self._index]
        return int(negative.argmax()) + 1

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
        """float(a(n)) for n = 1..N as a read-only float64 array (``_floats_at``)."""
        cached = self._float_cache
        if cached is None:
            cached = self._floats_at(None, "a")
            object.__setattr__(self, "_float_cache", cached)
        return cached

    def _floats_at(self, ns: Optional[np.ndarray], symbol: str) -> np.ndarray:
        """float(f(n)) for the n in ``ns`` (every n if None), read-only.

        Each table value is converted once, by the correctly rounded division
        of its numerator by its denominator that ``float`` performs (so a
        tiny negative gives -0.0), and gathered through the index.  A value
        beyond the float range raises OverflowError naming ``symbol`` at the
        first n that uses it; a value no gathered n uses is never an error.
        """
        # no Fraction is NaN, so NaN marks a value beyond the float range
        floats = np.fromiter(map(_float_or_nan, self._values), dtype=np.float64, count=len(self._values))
        out = floats[self._index if ns is None else self._index[ns - 1]]
        beyond = np.isnan(out)
        if beyond.any():
            k = int(beyond.argmax())
            raise OverflowError(f"{symbol}({k + 1 if ns is None else int(ns[k])}) lies beyond the float range")
        out.flags.writeable = False
        return out

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


# The integer scaling's D, the lcm of the table's denominators, must fit in
# this many bits; a larger D (lcm(1..N) for a JSON copy of n^-1) makes the
# integers slower than the rationals they stand for.
_MAX_SCALE_BITS = 64


def _omega_weights(a: ArithmeticFunction) -> tuple[int, list, list[int], list, np.ndarray]:
    """The scaled weights of ``_eliminate`` for a, given a(1) != 0:
    (D, upow, ms, ws, omega).

    a' = D a with D the lcm of the table's denominators, so a' is integral,
    u = a'(1), upow[k] = u^k for k <= max Omega + 1, ms the m >= 2 with
    a(m) != 0, ascending, ws their weights w(m) = a'(m) u^(Omega(m)-1), and
    omega = Omega(0..N).  When D does not fit in ``_MAX_SCALE_BITS`` bits the
    same weights come with D = 1 and ``Fraction`` entries.
    """
    D = 1
    for v in a._values:
        D = math.lcm(D, v.denominator)
        if D.bit_length() > _MAX_SCALE_BITS:
            D = 1
            table: Sequence = a._values
            break
    else:
        table = [v.numerator * (D // v.denominator) for v in a._values]
    omega = _prime_factor_counts(smallest_factor_sieve(len(a)))
    u = table[a._index[0]]
    upow = [1]
    for _ in range(int(omega.max()) + 1):
        upow.append(upow[-1] * u)
    ms = a.nonzero_indices()[1:]
    at = np.asarray(ms, dtype=np.intp)
    ws = [table[i] * upow[k - 1] for i, k in zip(a._index[at - 1].tolist(), omega[at].tolist())]
    return D, upow, ms, ws, omega


def _eliminate(Y: list, ms: list[int], ws: list) -> None:
    """Solve Y(n) = r(n) - sum_{d|n, d<n} Y(d) w(n/d) for n = 1..N in place:
    Y holds r(0..N) on entry (entry 0 unused) and Y(0..N) on return.  ms are
    the m >= 2 with w(m) != 0, ascending, and ws their w(m).  Each nonzero
    Y(n) is pushed, times w(m), onto Y(n m) before that entry is read, so the
    pending sums are the list itself; an n with Y(n) = 0 costs nothing."""
    N = len(Y) - 1
    if not ms:
        return
    for n in range(1, N // ms[0] + 1):
        y = Y[n]
        if y:
            k = bisect_right(ms, N // n)
            for m, w in zip(ms[:k], ws[:k]):
                Y[n * m] -= y * w


def dirichlet_inverse(a: ArithmeticFunction) -> ArithmeticFunction:
    """The convolution inverse, the solution of inv * a = delta.

    With the scaling of ``_omega_weights``, Y(n) = D^-1 inv(n) u^(Omega(n)+1)
    solves ``_eliminate`` with r = delta, so inv(n) = D Y(n) / u^(Omega(n)+1).
    """
    if a(1) == 0:
        raise NonInvertibleError("a(1) = 0: no Dirichlet inverse exists")
    D, upow, ms, ws, omega = _omega_weights(a)
    Y = [0] * (len(a) + 1)
    Y[1] = 1
    _eliminate(Y, ms, ws)
    inv = [Fraction(D * y, upow[k + 1]) if y else _ZERO for y, k in zip(Y[1:], omega[1:].tolist())]
    return ArithmeticFunction(inv, name=f"({a.name})^-1")


def log_twist(a: ArithmeticFunction) -> list[LogLinear]:
    """The sequence a(n) * log n as exact LogLinear values, indexed 1..N (entry
    1 is zero), log n expanded over the prime factorization of n."""
    return [LogLinear.log_of(n, c) for n, c in enumerate(a.coeffs, 1)]


class MangoldtSequence:
    """The exact sequence A(n) = ((a log) * a^{-1})(n) for 2 <= n <= N.

    These are the generalized von Mangoldt values.  l(n) = A(n)/log n, the
    Dirichlet coefficients of log(Z/a(1)), rational when a is, live in an
    ``ArithmeticFunction`` (table (0, l(n), ...), index[n-1] at n's entry),
    whose sign test, nonzero scan and float view serve A.  ``A(n)`` itself,
    l(n) log n expanded over the primes of n as a ``LogLinear``, is built on
    access.  ``route`` names the algorithm that built the table:
    ``"prime-powers"`` or ``"dense"``.
    """

    __slots__ = ("_l", "N", "route", "_array_cache")

    def __init__(self, nonzero: Mapping[int, LogLinear], N: int, route: str = "dense"):
        _check_length(N)
        if route not in ("prime-powers", "dense"):
            raise ValueError(f"unknown route {route!r}")
        ratios = []
        for n, v in nonzero.items():
            if v.is_zero():
                continue
            if not 2 <= n <= N:
                raise ValueError(f"index {n} outside 2..{N}")
            p, e = next(iter(factorize(n).items()))
            ratio = v.terms.get(p, _ZERO) / e
            if v != LogLinear.log_of(n, ratio):
                raise ValueError(f"A({n}) = {v!r} is not a rational multiple of log {n}")
            ratios.append((n, ratio))
        self._fill(ratios, N, route)

    @classmethod
    def _built(cls, ratios: Sequence[tuple[int, Fraction]], N: int, route: str) -> "MangoldtSequence":
        """The (n, l(n)) pairs that ``von_mangoldt`` built: no zero value,
        every n in 2..N once, in any order."""
        obj = object.__new__(cls)
        obj._fill(ratios, N, route)
        return obj

    def _fill(self, ratios, N, route) -> None:
        ns, values = zip(*ratios) if ratios else ((), ())
        index = np.zeros(N, dtype=np.min_scalar_type(len(ns)))
        index[np.array(ns, dtype=np.intp) - 1] = np.arange(1, len(ns) + 1)
        object.__setattr__(self, "_l", ArithmeticFunction._built((_ZERO, *values), index, None, "l"))
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "route", route)
        object.__setattr__(self, "_array_cache", None)

    def __setattr__(self, key, value):
        raise AttributeError("MangoldtSequence is immutable")

    def __getitem__(self, n: int) -> LogLinear:
        if not 2 <= n <= self.N:
            raise IndexError(f"n={n} outside stored range 2..{self.N}")
        return LogLinear.log_of(n, self._l._values[self._l._index.item(n - 1)])

    def nonzeros(self) -> Iterator[tuple[int, LogLinear]]:
        """(n, A(n)) for each nonzero A(n), n ascending, each A(n) built from
        l(n) and the factorization of n read off one sieve."""
        values, index, ns = self._l._values, self._l._index, self._l.nonzero_indices()
        spf = smallest_factor_sieve(ns[-1] if ns else 1)
        for n in ns:
            yield n, LogLinear.log_of(n, values[index.item(n - 1)], spf)

    def nonzero_count(self) -> int:
        # one table entry per nonzero n, after the leading zero entry
        return len(self._l._values) - 1

    def float_arrays(self):
        """(n, log n, l(n)) over the nonzero A(n) as numpy arrays, the last
        two in double precision: the Dirichlet coefficients of log Z and the
        logarithms the series kernel needs beside them.  l(n) is the store's
        float(l(n)), the correctly rounded exact A(n)/log n, gathered at the
        nonzero n only; OverflowError names an l(n) beyond the float range."""
        cached = self._array_cache
        if cached is None:
            ns = np.array(self._l.nonzero_indices(), dtype=np.int64)
            cached = (ns, np.log(ns.astype(np.float64)), self._l._floats_at(ns, "l"))
            object.__setattr__(self, "_array_cache", cached)
        return cached

    def first_negative(self) -> Optional[int]:
        """Least n with A(n) < 0, or None: the store's sign test, as
        sign A(n) = sign l(n)."""
        return self._l.first_negative_index()

    def __repr__(self) -> str:
        return f"MangoldtSequence(N={self.N}, nonzeros={self.nonzero_count()}, route={self.route!r})"


def von_mangoldt(a: ArithmeticFunction) -> MangoldtSequence:
    """A(n) for 2 <= n <= len(a), exact, stored as l(n) = A(n)/log n.

    A function that ``generate`` marked multiplicative takes the prime-power
    route; every other one the dense route.  Omega(n), the number of prime
    factors of n with multiplicity, is completely additive, so f -> f Omega is
    a derivation of the Dirichlet ring; applied to Z = a(1) exp(L), with L
    the series of l, it gives a Omega = a * (l Omega).  With the scaling of
    ``_omega_weights``, Y(n) = l(n) Omega(n) u^Omega(n) solves
    ``_eliminate`` with r(n) = w(n) Omega(n), as ``dirichlet_inverse`` with
    delta, and l(n) = Y(n) / (Omega(n) u^Omega(n)).  Both routes give the
    same table.
    """
    if a(1) == 0:
        raise NonInvertibleError("a(1) = 0: no Dirichlet inverse exists")
    if a.multiplicative:
        return _mangoldt_prime_powers(a)
    _, upow, ms, ws, omega = _omega_weights(a)
    Y = [0] * (len(a) + 1)
    for m, w, k in zip(ms, ws, omega[ms].tolist()):
        Y[m] = w * k
    _eliminate(Y, ms, ws)
    ratios = [(n, Fraction(y, k * upow[k])) for n, (y, k) in enumerate(zip(Y, omega.tolist())) if y]
    return MangoldtSequence._built(ratios, len(a), "dense")


def _mangoldt_prime_powers(a: ArithmeticFunction) -> MangoldtSequence:
    """l(n) = A(n)/log n for a multiplicative b = a/a(1), on prime powers only.

    log Z is a sum over primes of the logs of the Euler factors, so A vanishes
    off prime powers, and A(p^r) = c_r log p, l(p^r) = c_r / r, with
    c_r = r b(p^r) - sum_{0<j<r} c_j b(p^(r-j)) (Apostol, ch. 2).  Primes on
    whose powers a vanishes contribute nothing and are skipped; a prime above
    sqrt(N) stores only its first power, so it is visited only when a(p) != 0.
    """
    N = len(a)
    a1 = a(1)
    root = math.isqrt(N)
    flags = _prime_flags(N)
    flags[root + 1:] &= a._signs()[a._index[root:]] != 0  # above sqrt(N), only p with a(p) != 0
    primes = np.flatnonzero(flags).tolist()
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
    ratios: list[tuple[int, Fraction]] = []
    for lo, hi in zip(starts, starts[1:] + [len(powers)]):
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
        for r, (q, cr) in enumerate(zip(powers[lo:hi], c), 1):
            if cr:
                ratios.append((q, cr / r if r > 1 else cr))
    return MangoldtSequence._built(ratios, N, "prime-powers")
