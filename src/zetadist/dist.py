"""The discrete law P(X = -log n) = a(n) n^{-sigma} / Z(sigma): construction,
moments by two independent routes, and reproducible Monte Carlo sampling.

The stored PMF is the truncated, renormalized law; ``tail_mass_bound`` bounds
the relative mass of the discarded tail, so sampling bias is controlled
explicitly rather than hidden.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .arith import ArithmeticFunction, MangoldtSequence
from .errors import DomainError, NotDistributionError, OutOfDomainError, ResourceLimitError
from .series import (
    EvalResult,
    _first_negative,
    _partial_sum,
    _require_domain,
    _tail_for,
    derivative_growth,
    n_cap,
    smallest_n,
    tail_bound,
)

RNG_ALGORITHM = "numpy-PCG64"
SAMPLE_TAIL_GATE = 1e-12


def _check_assumption(a: ArithmeticFunction) -> None:
    """a(1) > 0 (exact) and a(n) >= 0 (from the float view's sign bits)."""
    if a.coeffs[0] <= 0:
        raise NotDistributionError("a(1) must be positive to define a distribution")
    n = _first_negative(a)
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
    N: Optional[int] = None,
) -> ZetaDistribution:
    """Choose a truncation with relative tail mass <= tol and build the PMF.

    Needs a growth certificate (or finite support) to bound the tail; raises
    ResourceLimitError when the tolerance is unreachable within the stored
    coefficients and the global N cap.
    """
    _check_assumption(a)
    if a.growth is None and a.support_limit is None:
        raise OutOfDomainError("needs a growth certificate or finite support to bound the tail mass")
    _require_domain(a, sigma, 0)

    cap = min(len(a), n_cap())

    def rel_tail(n: int, z_lower: float) -> float:
        return _tail_for(a, sigma, n, 0) / z_lower

    def weights_at(n: int) -> np.ndarray:
        return a.float_coeffs()[:n] * np.exp(-sigma * a.log_n()[:n])

    def choose_n(z_ref: float) -> Optional[int]:
        return smallest_n(lambda n: rel_tail(n, z_ref) <= tol, 1, cap)

    auto = N is None
    if auto:
        # a(1) is a sound normalizer lower bound; when the margin is that
        # thin, the actual normalizer at the cap decides feasibility
        N = choose_n(float(a.coeffs[0]))
        if N is None:
            z_cap = float(weights_at(cap).sum())
            if z_cap > 0.0:
                N = choose_n(z_cap)
            if N is None:
                raise ResourceLimitError(
                    f"tail mass {rel_tail(cap, max(z_cap, 1e-300)):.3g} at the cap "
                    f"N={cap} exceeds tol={tol}"
                )
    else:
        N = min(N, cap)

    weights = weights_at(N)
    Z = float(weights.sum())
    if not Z > 0.0:
        raise NotDistributionError("normalizer vanished; coefficients are degenerate")
    tmb = rel_tail(N, Z)
    while auto and tmb > tol and N < cap:
        # every weight is nonnegative, so Z >= a(1) and the a(1)-based
        # choice never lands short; only the choice made from the
        # normalizer at the cap can, so grow toward the cap rather than fail
        N = min(2 * N, cap)
        weights = weights_at(N)
        Z = float(weights.sum())
        tmb = rel_tail(N, Z)
    if tmb > tol:
        raise ResourceLimitError(f"tail mass {tmb:.3g} at N={N} exceeds tol={tol}")
    pmf = weights / Z
    return ZetaDistribution(
        a=a,
        sigma=sigma,
        Z_sigma=EvalResult(value=complex(Z), tail_bound=_tail_for(a, sigma, N, 0), N_used=N),
        N=N,
        tail_mass_bound=tmb,
        pmf=pmf,
    )


def moments_analytic(lam: MangoldtSequence, sigma: float) -> tuple[float, float]:
    """(mean, variance) from the truncated series
    mean = -sum A(n)/n^sigma, variance = sum A(n) log(n)/n^sigma.

    Valid whenever sigma lies in the convergence region of the logarithm
    series, which the caller attests (always true for the nonnegative families
    here at sigma > 1; in general it holds right of the zero-free abscissa).
    """
    if not sigma > 1.0:
        raise OutOfDomainError(f"sigma={sigma} must exceed 1")
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
    C, eps = growth
    C1, e1 = derivative_growth(C, eps, 1)
    C2, e2 = derivative_growth(C, eps, 2)
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
