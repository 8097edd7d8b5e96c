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
from operator import attrgetter, truediv
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .errors import DomainError, InvalidLengthError, NonInvertibleError, ResourceLimitError

Rational = Fraction

DEFAULT_N_CAP = 10**7

RationalLike = Union[Fraction, int, str]

_ZERO = Fraction(0)
_ONE = Fraction(1)

_NUMERATOR = attrgetter("numerator")
_DENOMINATOR = attrgetter("denominator")


def _as_fraction(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


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
    which case tails are exactly zero.  ``multiplicative`` certifies that
    a(n)/a(1) is multiplicative, so ``von_mangoldt`` may work on prime powers
    alone.  ``float_view`` certifies that a float64 array equals
    ``float(a(n))`` for every n, bit for bit (sign bit included); it is then
    the float view itself, made read-only, instead of one converted lazily.
    Like ``growth``, both certificates are vouched for by the caller, not
    checked (only the view's length is), and neither is serialised.
    Instances are immutable; the lazy float views are idempotent, so a
    concurrent first use is benign.
    """

    __slots__ = ("coeffs", "growth", "name", "support_limit", "multiplicative", "_float_cache", "_logn_cache")

    def __init__(
        self,
        coeffs: Sequence[RationalLike],
        growth: Optional[GrowthBound] = None,
        name: str = "",
        support_limit: Optional[int] = None,
        multiplicative: bool = False,
        *,
        float_view=None,
    ):
        vals = tuple(coeffs)
        if len(vals) < 1:
            raise InvalidLengthError("need at least a(1)")
        if len(vals) > n_cap():
            raise ResourceLimitError(f"{len(vals)} coefficients exceed the cap {n_cap()}")
        if not set(map(type, vals)) <= {Fraction}:
            vals = tuple(map(_as_fraction, vals))
        if float_view is not None:
            import numpy as np

            float_view = np.asarray(float_view, dtype=np.float64)
            if float_view.shape != (len(vals),):
                raise ValueError(f"float view of shape {float_view.shape} for {len(vals)} coefficients")
            float_view.flags.writeable = False
        object.__setattr__(self, "coeffs", vals)
        object.__setattr__(self, "growth", growth)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "support_limit", support_limit)
        object.__setattr__(self, "multiplicative", multiplicative)
        object.__setattr__(self, "_float_cache", float_view)
        object.__setattr__(self, "_logn_cache", None)

    def __setattr__(self, key, value):  # immutability outside the caches
        raise AttributeError("ArithmeticFunction is immutable")

    def __len__(self) -> int:
        return len(self.coeffs)

    def __call__(self, n: int) -> Fraction:
        if not 1 <= n <= len(self.coeffs):
            raise IndexError(f"n={n} outside stored range 1..{len(self.coeffs)}")
        return self.coeffs[n - 1]

    def first_negative_index(self) -> Optional[int]:
        """Least n with a(n) < 0, or None: the package's one sign test.
        A float view already held is read by its sign bits, which it keeps
        (a negative a(n) too small for a float reads -0.0); otherwise the
        Fractions are scanned and no view is built, which would cost an O(N)
        conversion and raises OverflowError beyond the float range."""
        view = self._float_cache
        if view is not None:
            import numpy as np

            negative = np.signbit(view)
            n = int(negative.argmax())
            return n + 1 if negative[n] else None
        for i, c in enumerate(self.coeffs):
            if c < 0:
                return i + 1
        return None

    def satisfies_assumption(self) -> bool:
        """a(1) > 0 and a(n) >= 0 for every stored n (exact check)."""
        return self.coeffs[0] > 0 and self.first_negative_index() is None

    def is_identically_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    # -- float views (cached; shared by the numerical modules) --------------

    def float_coeffs(self):
        """float(a(n)) for n = 1..N as a read-only float64 array.

        Without a ``float_view`` certificate each entry is numerator /
        denominator, the correctly rounded int/int division that
        ``Fraction.__float__`` performs (so a tiny negative gives -0.0 and an
        entry beyond the float range raises OverflowError).
        """
        import numpy as np

        cached = self._float_cache
        if cached is None:
            c = self.coeffs
            cached = np.fromiter(
                map(truediv, map(_NUMERATOR, c), map(_DENOMINATOR, c)), dtype=np.float64, count=len(c)
            )
            cached.flags.writeable = False
            object.__setattr__(self, "_float_cache", cached)
        return cached

    def log_n(self):
        import numpy as np

        cached = self._logn_cache
        if cached is None:
            cached = np.log(np.arange(1, len(self.coeffs) + 1, dtype=np.float64))
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
        return f"ArithmeticFunction({label!r}, N={len(self.coeffs)})"


def identity_function(N: int) -> ArithmeticFunction:
    """The convolution identity: 1 at n=1, 0 elsewhere."""
    if N < 1:
        raise InvalidLengthError(f"invalid length {N}")
    coeffs = [_ONE] + [_ZERO] * (N - 1)
    return ArithmeticFunction(coeffs, growth=GrowthBound(1.0, 0.0), name="identity", support_limit=1)


def _nonzero_indices(coeffs: Sequence[Fraction]) -> list[int]:
    return [i + 1 for i, c in enumerate(coeffs) if c != 0]


def dirichlet_convolve(a: ArithmeticFunction, b: ArithmeticFunction) -> ArithmeticFunction:
    """c(n) = sum_{d|n} a(d) b(n/d), exact, truncated to min(len(a), len(b))."""
    N = min(len(a), len(b))
    out = [_ZERO] * (N + 1)
    bnz = _nonzero_indices(b.coeffs[:N])
    for i in _nonzero_indices(a.coeffs[:N]):
        ai = a.coeffs[i - 1]
        limit = N // i
        for j in bnz[: bisect_right(bnz, limit)]:
            out[i * j] += ai * b.coeffs[j - 1]
    support = None
    if a.support_limit is not None and b.support_limit is not None:
        prod = a.support_limit * b.support_limit
        if prod <= N:
            support = prod
    return ArithmeticFunction(out[1:], name=f"({a.name}*{b.name})", support_limit=support)


def dirichlet_inverse(a: ArithmeticFunction) -> ArithmeticFunction:
    """The convolution inverse, by forward elimination.

    inv(1) = 1/a(1) and inv(n) = -(1/a(1)) sum_{d|n, d<n} inv(d) a(n/d); the
    sieve pushes each finished inv(d) onto its multiples, and an index whose
    accumulator stayed zero is skipped, so sparse inputs cost only what their
    support demands.
    """
    N = len(a)
    a1 = a.coeffs[0]
    if a1 == 0:
        raise NonInvertibleError("a(1) = 0: no Dirichlet inverse exists")
    inv = [_ZERO] * (N + 1)
    acc = [_ZERO] * (N + 1)
    anz = [m for m in _nonzero_indices(a.coeffs) if m >= 2]
    inv_a1 = inv[1] = 1 / a1
    for n in range(1, N + 1):
        if n > 1:
            if not acc[n]:
                continue  # inv(n) = 0: nothing to compute or push
            inv[n] = -acc[n] * inv_a1
        v = inv[n]
        limit = N // n
        for m in anz[: bisect_right(anz, limit)]:
            acc[n * m] += v * a.coeffs[m - 1]
    return ArithmeticFunction(inv[1:], name=f"({a.name})^-1")


def _prime_exponents(n: int, spf: list[int]) -> Iterator[tuple[int, int]]:
    """(p, e) for each p^e exactly dividing n, smallest p first, off a sieve."""
    while n > 1:
        p, e = spf[n], 0
        while n % p == 0:
            n //= p
            e += 1
        yield p, e


def log_twist(a: ArithmeticFunction) -> list[LogLinear]:
    """The sequence a(n) * log n as exact LogLinear values, indexed 1..N (entry
    1 is zero), log n expanded over the prime factorization of n."""
    spf = smallest_factor_sieve(len(a))
    out: list[LogLinear] = [_ZERO_LOGLINEAR] * len(a)
    for n, c in enumerate(a.coeffs[1:], 2):
        if c:
            out[n - 1] = LogLinear._raw(tuple((p, c * e) for p, e in _prime_exponents(n, spf)))
    return out


class MangoldtSequence:
    """The exact sequence A(n) = ((a log) * a^{-1})(n) for 2 <= n <= N.

    These are the generalized von Mangoldt values: A(n)/log n are the
    Dirichlet coefficients of log Z for the series Z with coefficients a.
    Stored sparsely; absent indices are exactly zero.  ``route`` names the
    algorithm that built the table: ``"prime-powers"`` or ``"dense"``.
    """

    __slots__ = ("_nonzero", "N", "source", "route", "_array_cache")

    def __init__(
        self,
        nonzero: Mapping[int, LogLinear],
        N: int,
        source: Optional[ArithmeticFunction] = None,
        route: str = "dense",
    ):
        if N < 1:
            raise InvalidLengthError(f"invalid length {N}")
        if route not in ("prime-powers", "dense"):
            raise ValueError(f"unknown route {route!r}")
        clean = {n: v for n, v in nonzero.items() if not v.is_zero()}
        for n in clean:
            if not 2 <= n <= N:
                raise ValueError(f"index {n} outside 2..{N}")
        self._fill(clean.items(), N, source, route)

    @classmethod
    def _built(
        cls, items: Iterable[tuple[int, LogLinear]], N: int, source: ArithmeticFunction, route: str
    ) -> "MangoldtSequence":
        """A table ``von_mangoldt`` built: no zero value, every index in 2..N."""
        obj = object.__new__(cls)
        obj._fill(items, N, source, route)
        return obj

    def _fill(self, items, N, source, route) -> None:
        object.__setattr__(self, "_nonzero", dict(sorted(items)))
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "source", source)
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
        """(indices, values) as numpy arrays, values in double precision."""
        import numpy as np

        cached = self._array_cache
        if cached is None:
            ns = np.fromiter(self._nonzero.keys(), dtype=np.int64, count=len(self._nonzero))
            vals = np.fromiter((v.evaluate() for v in self._nonzero.values()), dtype=np.float64, count=len(self._nonzero))
            cached = (ns, vals)
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

    A function marked ``multiplicative`` takes the prime-power route; every
    other one the dense route, one forward elimination over n = 2..N that
    pushes each A(n) a(m) onto the pending sum of n m and frees that sum once
    consumed.  Both give the same table.
    """
    N, coeffs = len(a), a.coeffs
    if coeffs[0] == 0:
        raise NonInvertibleError("a(1) = 0: no Dirichlet inverse exists")
    if a.multiplicative:
        return _mangoldt_prime_powers(a)
    minus_inv_a1 = -1 / coeffs[0]
    spf = smallest_factor_sieve(N)
    anz = [m for m in _nonzero_indices(coeffs) if m >= 2]
    pending: dict[int, dict[int, Fraction]] = {}  # n -> sum_{1<d<n, d|n} A(d) a(n/d)
    nonzero: list[tuple[int, LogLinear]] = []
    for n in range(2, N + 1):
        acc = pending.pop(n, {})
        if c := coeffs[n - 1]:
            for p, e in _prime_exponents(n, spf):
                acc[p] = acc.get(p, _ZERO) - c * e
        terms = tuple((p, v * minus_inv_a1) for p, v in sorted(acc.items()) if v)
        if not terms:
            continue
        nonzero.append((n, LogLinear._raw(terms)))
        for m in anz[: bisect_right(anz, N // n)]:
            target = pending.setdefault(n * m, {})
            for p, v in terms:
                target[p] = target.get(p, _ZERO) + v * coeffs[m - 1]
    return MangoldtSequence._built(nonzero, N, a, "dense")


def _mangoldt_prime_powers(a: ArithmeticFunction) -> MangoldtSequence:
    """A(n) for a multiplicative b = a/a(1), on prime powers only.

    log Z is a sum over primes of the logs of the Euler factors, so A vanishes
    off prime powers, and A(p^r) = c_r log p with
    c_r = r b(p^r) - sum_{0<j<r} c_j b(p^(r-j)) (Apostol, ch. 2).  Primes on
    whose powers a vanishes contribute nothing and are skipped.
    """
    N = len(a)
    coeffs = a.coeffs
    a1 = coeffs[0]
    nonzero: list[tuple[int, LogLinear]] = []
    for p in primes_up_to(N):
        powers = []
        q = p
        while q <= N:
            powers.append(q)
            q *= p
        b = [coeffs[q - 1] for q in powers]
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
        for q, cr in zip(powers, c):
            if cr:
                nonzero.append((q, LogLinear._raw(((p, cr),))))
    return MangoldtSequence._built(nonzero, N, a, "prime-powers")
