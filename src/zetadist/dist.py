"""The discrete law P(X = -log n) = a(n) n^{-sigma} / Z(sigma): construction,
moments by two independent routes, and reproducible Monte Carlo sampling.

The stored PMF is the truncated, renormalized law; ``tail_mass_bound`` bounds
the relative mass of the discarded tail, so sampling bias is controlled
explicitly rather than hidden.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .arith import ArithmeticFunction, GrowthBound, MangoldtSequence
from .errors import DomainError, NotDistributionError, OutOfDomainError, ResourceLimitError
from .series import (
    EvalPoint,
    EvalResult,
    _partial_sum,
    _require_domain,
    _require_tol,
    _tail_for,
    derivative_growth,
    smallest_n,
    tail_bound,
)

RNG_ALGORITHM = "numpy-PCG64"
SAMPLE_TAIL_GATE = 1e-12


def _check_assumption(a: ArithmeticFunction) -> None:
    """a(1) > 0 and a(n) >= 0 (``ArithmeticFunction.first_negative_index``)."""
    if a.coeffs[0] <= 0:
        raise NotDistributionError("a(1) must be positive to define a distribution")
    n = a.first_negative_index()
    if n is not None:
        raise NotDistributionError(f"a({n}) < 0: not a characteristic function")


@dataclass(frozen=True)
class ZetaDistribution:
    """Truncated zeta distribution at a fixed sigma.

    pmf[i] is the renormalized mass at the point -log(i+1); the masses sum to
    1 (up to float roundoff) by construction.
    """

    a: ArithmeticFunction
    sigma: float
    Z_sigma: EvalResult
    N: int
    tail_mass_bound: float
    pmf: np.ndarray = field(repr=False)

    def positions(self) -> np.ndarray:
        return -self.a.log_n()[:self.N]


def build_distribution(
    a: ArithmeticFunction,
    sigma: float,
    tol: float,
) -> ZetaDistribution:
    """Build the PMF at the smallest truncation with relative tail mass <= tol.

    Needs a growth certificate (or finite support) to bound the tail; raises
    ResourceLimitError when no truncation within the stored coefficients
    meets the tolerance.
    """
    _check_assumption(a)
    if a.growth is None and a.support_limit is None:
        raise OutOfDomainError("needs a growth certificate or finite support to bound the tail mass")
    _require_domain(a, sigma, 0)
    _require_tol(tol)

    # every weight is nonnegative, so Z_n >= a(1) for every n: an N whose
    # tail is within tol of a(1) is sound, and it needs no weights
    a1 = float(a.coeffs[0])
    N = smallest_n(lambda n: _tail_for(a, sigma, n, 0) / a1 <= tol, 1, len(a)) if a1 > 0.0 else None
    if N is not None:
        weights = a.float_coeffs()[:N] * np.exp(-sigma * a.log_n()[:N])
        Z = float(weights.sum())
    else:
        # the margin over a(1) is too thin (or a(1) underflows): test every
        # n against its own normalizer z[n-1]; tail/z falls as n grows
        weights = np.exp(-sigma * a.log_n())
        weights *= a.float_coeffs()
        z = np.cumsum(weights)
        N = smallest_n(lambda n: z[n - 1] > 0.0 and _tail_for(a, sigma, n, 0) / z[n - 1] <= tol, 1, len(a))
        if N is None:
            raise ResourceLimitError(
                f"tail mass {_tail_for(a, sigma, len(a), 0) / max(float(z[-1]), 1e-300):.3g} "
                f"at the stored length N={len(a)} exceeds tol={tol}"
            )
        weights, Z = weights[:N], float(z[N - 1])
        del z  # free the running sums before the PMF is allocated
    tail = _tail_for(a, sigma, N, 0)
    return ZetaDistribution(
        a=a,
        sigma=sigma,
        Z_sigma=EvalResult(value=complex(Z), tail_bound=tail, N_used=N),
        N=N,
        tail_mass_bound=tail / Z,
        pmf=weights / Z,
    )


def moments_analytic(lam: MangoldtSequence, sigma: float) -> tuple[float, float]:
    """(mean, variance) from the truncated series
    mean = -sum A(n)/n^sigma, variance = sum A(n) log(n)/n^sigma.

    Valid whenever sigma lies in the convergence region of the logarithm
    series, which the caller attests (always true for the nonnegative families
    here at sigma > 1; in general it holds right of the zero-free abscissa).
    """
    EvalPoint(sigma)
    ns, vals = lam.float_arrays()
    ln = np.log(ns.astype(np.float64))
    _, mean, variance = _partial_sum(vals / ln, ln, [sigma], 2)[:, 0].real
    return float(mean), float(variance)


def moments_direct(d: ZetaDistribution) -> tuple[float, float]:
    """(mean, variance) of the stored truncated law:
    mean = sum pmf(n) (-log n), variance = E[X^2] - (E[X])^2."""
    logn = d.a.log_n()[:d.N]
    mean = -float((d.pmf * logn).sum())
    second = float((d.pmf * logn * logn).sum())
    return mean, second - mean * mean


def moments_tail_spread(lam: MangoldtSequence, sigma: float, growth: tuple[float, float]) -> tuple[float, float]:
    """Bounds on the truncation error of moments_analytic given
    |A(n)/log n| <= C n^eps (the same certificate convention the logarithm
    series uses): (mean tail, variance tail).

    The mean sums A(n) n^{-sigma} and the variance A(n) log(n) n^{-sigma}, so
    the certificate picks up one or two log factors.
    """
    EvalPoint(sigma)
    g = GrowthBound(*growth)
    C1, e1 = derivative_growth(g.C, g.eps, 1)
    C2, e2 = derivative_growth(g.C, g.eps, 2)
    m = tail_bound(C1, e1, sigma, lam.N) if sigma > 1.0 + e1 else math.inf
    v = tail_bound(C2, e2, sigma, lam.N) if sigma > 1.0 + e2 else math.inf
    return m, v


def sample(
    d: ZetaDistribution,
    count: int,
    seed: int,
    workers: int = 1,
    max_tail_mass: float = SAMPLE_TAIL_GATE,
) -> np.ndarray:
    """``count`` i.i.d. draws of -log n from the truncated law.

    Refuses when the distribution's tail-mass bound exceeds ``max_tail_mass``
    (sampling would be visibly biased against the untruncated law).  The draw
    is inverse-CDF search with numpy PCG64 streams; worker i uses seed XOR i
    and the output is ordered by worker then draw, so results are fully
    reproducible given (seed, workers).
    """
    if count < 0:
        raise DomainError("count must be nonnegative")
    if workers < 1:
        raise DomainError("workers must be >= 1")
    if not max_tail_mass >= 0:
        raise DomainError(f"max_tail_mass={max_tail_mass} must be >= 0")
    if d.tail_mass_bound > max_tail_mass:
        raise DomainError(
            f"tail mass bound {d.tail_mass_bound:.3g} exceeds the gate {max_tail_mass:.3g}; "
            "rebuild the distribution with a tighter tolerance or raise max_tail_mass"
        )
    cdf = np.cumsum(d.pmf)
    cdf /= cdf[-1]
    logn = d.a.log_n()[:d.N]
    per = [count // workers + (1 if i < count % workers else 0) for i in range(workers)]
    parts = []
    for i, c in enumerate(per):
        if c == 0:
            continue
        rng = np.random.Generator(np.random.PCG64((seed ^ i) & 0xFFFFFFFFFFFFFFFF))
        u = rng.random(c)
        idx = np.searchsorted(cdf, u, side="left")
        parts.append(-logn[idx])
    if not parts:
        return np.empty(0, dtype=np.float64)
    return np.concatenate(parts)
