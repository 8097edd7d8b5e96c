"""Numerical evaluation of the Dirichlet series, its derivatives, the
normalized characteristic function, and the logarithm series, with rigorous
truncation-tail bounds derived from growth certificates.

All floating point lives here (and downstream); values are complex doubles.
Every sum of n^{-s} goes through ``_partial_sum``, which splits
n^{-s} = n^{-sigma} n^{-it}: one real row c(n) n^{-sigma} (-log n)^k per
distinct sigma of a batch, one pair of rows cos(t log n), sin(t log n) per
distinct t, and a matrix product of the two, with the platform exp, log,
cos and sin; ``_rounding_bound`` bounds its float error.  Every real
per-term weight c(n) n^{-sigma} (the kernel's rows, the law's masses, the
quasi-Levy masses, the zero scan's curvature bound) comes from ``_weights``.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .arith import ArithmeticFunction, GrowthBound, MangoldtSequence
from .errors import DomainError, OutOfDomainError, ResourceLimitError

DEFAULT_N = 10**5
DERIVATIVE_EPS_BUMP = 0.1
_CHUNK = 1 << 20
# points per block of the series kernel: a block's (sigma, t) grid has at
# most _BLOCK^2 entries per order, so points that share no sigma and no t
# cost about what a per-point sum costs
_BLOCK = 32
_UNIT_ROUNDOFF = 2.0 ** -53


class NotCharacteristicWarning(UserWarning):
    """The normalized quotient is not a characteristic function
    (some coefficient is negative)."""


@dataclass(frozen=True)
class EvalPoint:
    """A point sigma + i t in the half-plane of absolute convergence."""

    sigma: float
    t: float = 0.0

    def __post_init__(self) -> None:
        if not self.sigma > 1.0:
            raise OutOfDomainError(f"sigma={self.sigma} must exceed 1")
        if not math.isfinite(self.sigma) or not math.isfinite(self.t):
            raise DomainError(f"sigma={self.sigma} and t={self.t} must be finite")

    @property
    def s(self) -> complex:
        return complex(self.sigma, self.t)


@dataclass(frozen=True)
class EvalResult:
    """Truncated value plus an absolute bound on the discarded tail.

    ``tail_bound`` is +inf when no growth certificate makes a bound possible;
    it is exactly 0 for series known to be finitely supported within the
    truncation.
    """

    value: complex
    tail_bound: float
    N_used: int

    @property
    def certified(self) -> bool:
        return math.isfinite(self.tail_bound)


def tail_bound(C: float, eps: float, sigma: float, N: int) -> float:
    """Bound on |sum_{n>N} a(n) n^{-s}| when |a(n)| <= C n^eps and Re s = sigma.

    Integral comparison of the decreasing summand:
    C * (N^{1+eps-sigma}/(sigma-eps-1) + N^{eps-sigma}).
    """
    if N < 1:
        raise DomainError(f"N={N} must be >= 1")
    if not sigma > 1.0 + eps:
        raise OutOfDomainError(f"sigma={sigma} must exceed 1+eps={1.0 + eps}")
    return C * (N ** (1.0 + eps - sigma) / (sigma - eps - 1.0) + N ** (eps - sigma))


def derivative_growth(C: float, eps: float, order: int) -> tuple[float, float]:
    """Growth certificate for a(n) log^order(n) given one for a(n).

    log^k(n) <= (k/(delta e))^k * n^delta for every n >= 1 (the maximum of
    log^k(x)/x^delta over x >= 1), so with delta = DERIVATIVE_EPS_BUMP, C
    picks up that factor and eps gains delta.
    """
    if order == 0:
        return C, eps
    return C * (order / (DERIVATIVE_EPS_BUMP * math.e)) ** order, eps + DERIVATIVE_EPS_BUMP


def _tail_for(a: ArithmeticFunction, sigma: float, N: int, order: int) -> float:
    if a.support_limit is not None and N >= a.support_limit:
        return 0.0
    if a.growth is None:
        return math.inf
    C, eps = derivative_growth(a.growth.C, a.growth.eps, order)
    return tail_bound(C, eps, sigma, N)


def _require_domain(a: ArithmeticFunction, sigma: float, order: int) -> None:
    """The half-plane rule of evaluate_series, evaluate_cf,
    build_distribution and count_zeros: a finite sigma > 1 (``EvalPoint``),
    and with a growth certificate sigma > 1+eps (eps bumped for derivative
    orders)."""
    EvalPoint(sigma)
    if a.growth is not None:
        _, eps = derivative_growth(a.growth.C, a.growth.eps, order)
        if not sigma > 1.0 + eps:
            raise OutOfDomainError(
                f"sigma={sigma} not above 1+eps={1.0 + eps} required by the growth certificate"
                + (f" (eps bumped by {DERIVATIVE_EPS_BUMP} for order {order})" if order else "")
            )


def _require_tol(tol: float) -> None:
    """The one tolerance rule: positive (NaN is not) and finite."""
    if not tol > 0:
        raise DomainError(f"tol={tol} must be positive")
    if tol == math.inf:
        raise DomainError(f"tol={tol} must be finite")


def _resolve_n(a: ArithmeticFunction, sigma: float, N: Optional[int], tol: Optional[float], order: int) -> int:
    if N is not None:
        if N < 1:
            raise DomainError(f"N={N} must be >= 1")
        return min(N, len(a))
    if tol is None:
        return min(DEFAULT_N, len(a))
    _require_tol(tol)
    # auto mode: smallest N with tail <= tol (monotone in N)
    if a.support_limit is not None and a.support_limit <= len(a):
        return max(a.support_limit, 1)
    if a.growth is None:
        raise OutOfDomainError("tolerance-driven truncation needs a growth certificate")
    found = smallest_n(lambda n: _tail_for(a, sigma, n, order) <= tol, 1, len(a))
    if found is None:
        raise ResourceLimitError(f"tolerance {tol} needs more than the {len(a)} stored coefficients")
    return found


def smallest_n(ok: Callable[[int], bool], lo: int, hi: int) -> Optional[int]:
    """Smallest N in [lo, hi] with ok(N), by bisection.

    ``ok`` must be monotone in N (false up to some N, true from there on);
    returns None when ok(hi) fails.
    """
    if not ok(hi):
        return None
    while lo < hi:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _weights(c: np.ndarray, logn: np.ndarray, sigma) -> np.ndarray:
    """The per-term weights c(n) n^{-sigma} as a new array, one row per sigma
    when ``sigma`` is an array: the one place a real n^{-sigma} is formed."""
    w = np.multiply.outer(-sigma, logn)
    np.exp(w, out=w)
    w *= c
    return w


def _partial_sum(coeffs: np.ndarray, logn: np.ndarray, points, order: int) -> np.ndarray:
    """sum_n coeffs[n] (-logn[n])^k n^{-s} for k = 0..order at every point s,
    as an array of shape (order+1, len(points)); empty arrays sum to 0.

    The only code that sums n^{-s}.  It works in real arithmetic on
    n^{-s} = n^{-sigma} (cos(t log n) - i sin(t log n)).  The points are
    taken in (sigma, t) order, in blocks of at most _BLOCK.  Let a block have
    U distinct real parts sigma_j and V distinct imaginary parts t_l.  Each
    chunk of terms builds the weight rows W[k U + j] = c(n) n^{-sigma_j}
    (-log n)^k, one exp per sigma_j (``_weights``), and the rotation rows
    C[l] = cos(t_l log n) and S[l] = sin(t_l log n), one pair per t_l.  Two
    matrix products, Re += W C^T and Im -= W S^T, cover every (sigma_j, t_l)
    pair, and each point reads the entry of its own pair.  A chunk holds at
    most _CHUNK floats across W, C and S.
    """
    pts = np.asarray(points, dtype=np.complex128).ravel()
    out = np.zeros((order + 1, pts.size), dtype=np.complex128)
    ks = np.arange(order + 1)[:, None]
    by_sigma_t = np.lexsort((pts.imag, pts.real))
    for b in range(0, pts.size, _BLOCK):
        idx = by_sigma_t[b:b + _BLOCK]
        sig, si = np.unique(pts.real[idx], return_inverse=True)
        ts, ti = np.unique(pts.imag[idx], return_inverse=True)
        rows = (order + 1) * sig.size
        re = np.zeros((rows, ts.size))
        im = np.zeros((rows, ts.size))
        step = max(1, _CHUNK // (rows + 2 * ts.size))
        for start in range(0, logn.size, step):
            ln = logn[start:start + step]
            c = coeffs[start:start + step]
            w = _weights(c, ln, sig)
            if order:
                w = (w * (-ln) ** ks[:, None]).reshape(rows, ln.size)
            phase = np.multiply.outer(ts, ln)
            cos = np.cos(phase)
            sin = np.sin(phase, out=phase)
            re += w @ cos.T
            im -= w @ sin.T
            # free this chunk's arrays before the next chunk allocates its own
            del w, phase, cos, sin
        # the inverses are flattened: numpy 1.24 and 2.x shape them alike
        pair = ks * sig.size + si.ravel(), ti.ravel()
        out.real[:, idx] = re[pair]
        out.imag[:, idx] = im[pair]
    return out


def _rounding_bound(N: int, sigma_max: float, t_abs: float, abs_sum: float) -> float:
    """Bound on the float error of one ``_partial_sum`` value over N terms at
    Re s <= sigma_max and |Im s| <= t_abs, given abs_sum >= sum |c(n)| n^{-Re s}:
    (N + 8 + 4 (sigma_max + t_abs) log N) 2^-53 abs_sum.

    Each term c(n) n^{-sigma} (-log n)^k cos(t log n) (and its sin twin) is
    formed from the rounded arguments sigma log n and t log n, whose errors
    of at most (sigma_max + t_abs) log N 2^-53 carry through exp, cos and
    sin; those calls, the products that build the weight row and the one
    product with the rotation row add a few roundings per term (the 8).  The
    N-term accumulation, inside the matrix products and across chunks, is a
    sum of N terms in some order, within N 2^-53 of sum |term|."""
    return (N + 8 + 4 * (sigma_max + t_abs) * math.log(N)) * _UNIT_ROUNDOFF * abs_sum


def evaluate_series(
    a: ArithmeticFunction,
    s: EvalPoint,
    order: int = 0,
    N: Optional[int] = None,
    tol: Optional[float] = None,
) -> EvalResult:
    """sum_{n<=N} a(n) (-log n)^order n^{-s} with a tail bound.

    order 0/1/2 give the series, its first and its second derivative.  With a
    growth certificate present, sigma must exceed 1+eps (1+eps+0.1 for
    derivative orders, which absorb the log factor into the exponent); without
    one the value is returned with tail_bound=+inf and a warning.
    """
    values, tb, N_used = _series_grid(a, s.sigma, [s.t], order, N, tol)
    return EvalResult(value=complex(values[0]), tail_bound=tb, N_used=N_used)


def _series_grid(a: ArithmeticFunction, sigma: float, ts, order: int, N: Optional[int], tol: Optional[float]):
    """``evaluate_series`` at sigma + i t for every t of ``ts`` in one kernel
    call: (values, tail bound, N used), the tail and N shared by every t."""
    for t in ts:
        EvalPoint(sigma, t)
    if order not in (0, 1, 2):
        raise DomainError(f"order={order} not in (0, 1, 2)")
    _require_domain(a, sigma, order)
    N_used = _resolve_n(a, sigma, N, tol, order)
    values = evaluate_series_batch(a, sigma + 1j * np.asarray(ts, dtype=np.float64), order, N_used)[order]
    tb = _tail_for(a, sigma, N_used, order)
    if math.isinf(tb):
        warnings.warn("no growth certificate: tail bound is +inf", stacklevel=3)
    return values, tb, N_used


def evaluate_series_batch(a: ArithmeticFunction, points: np.ndarray, order: int, N: int):
    """Values of the series truncated at N and of its derivative orders up to
    ``order`` at a batch of complex points.

    Returns an array of shape (order+1, len(points)).  No tail bookkeeping:
    callers bound the tail with the truncation they pass.
    """
    N = min(N, len(a))
    return _partial_sum(a.float_coeffs()[:N], a.log_n()[:N], points, order)


def evaluate_cf(
    a: ArithmeticFunction,
    sigma: float,
    t: float,
    N: Optional[int] = None,
) -> complex:
    """The normalized value Z(sigma+it)/Z(sigma), both at the same truncation.

    This is a characteristic function exactly when all coefficients are
    nonnegative; a negative coefficient triggers NotCharacteristicWarning but
    the quotient is still returned.
    """
    return complex(_cf_grid(a, sigma, [t], N)[0])


def _cf_grid(a: ArithmeticFunction, sigma: float, ts, N: Optional[int]) -> np.ndarray:
    """``evaluate_cf`` at every t of ``ts``: Z(sigma + i t) for all t and
    Z(sigma) in one kernel call."""
    for t in ts:
        EvalPoint(sigma, t)
    _require_domain(a, sigma, 0)
    if a.first_negative_index() is not None:
        warnings.warn(
            "negative coefficient present: quotient is not a characteristic function",
            NotCharacteristicWarning,
            stacklevel=3,
        )
    N_used = _resolve_n(a, sigma, N, None, 0)
    points = np.append(sigma + 1j * np.asarray(ts, dtype=np.float64), sigma)
    values = evaluate_series_batch(a, points, 0, N_used)[0]
    den = complex(values[-1])
    if den == 0:
        raise DomainError("normalizer Z(sigma) vanished at this truncation")
    return values[:-1] / den


def evaluate_log_series(
    lam: MangoldtSequence,
    a1: Fraction,
    s: EvalPoint,
    growth: Optional[tuple[float, float]] = None,
) -> EvalResult:
    """log a(1) + sum_{2<=n<=N} (A(n)/log n) n^{-s}: the series whose
    exponential reproduces the Dirichlet series.

    The tail is certified only when the caller supplies ``growth`` = (C, eps)
    with |A(n)/log n| <= C n^eps; the convergence abscissa of this series is
    not derivable from stored data, so absent a certificate the result is
    heuristic (tail_bound=+inf).
    """
    if a1 <= 0:
        raise DomainError(f"a(1)={a1} must be positive for the logarithm")
    g = None if growth is None else GrowthBound(*growth)
    _, logn, coef = lam.float_arrays()
    value = complex(_partial_sum(coef, logn, [s.s], 0)[0, 0]) + math.log(float(a1))
    tb = math.inf if g is None else tail_bound(g.C, g.eps, s.sigma, lam.N)
    return EvalResult(value=value, tail_bound=tb, N_used=lam.N)
