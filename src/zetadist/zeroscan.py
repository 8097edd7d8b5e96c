"""Certified zero counting in rectangles of the half-plane sigma > 1.

The winding number of the *truncated* series Z_N around a rectangle is
computed by adaptive Gauss-Kronrod quadrature of Z_N'/Z_N.  Z_N is an entire
function, so that integral is an exact integer up to quadrature error; the
count transfers to the full series whenever the truncation tail stays well
below the minimum of |Z_N| on the contour (Rouche).  A report is "certified"
only when min |Z| on the contour exceeds 10x the combined tail bound and
quadrature error estimate and the integral lands within 0.1 of an integer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .arith import ArithmeticFunction
from .errors import ContourError, DomainError, OutOfDomainError
from .series import _tail_for, evaluate_series_batch, n_cap, smallest_n

STATUS_CERTIFIED = "certified"
STATUS_TOO_CLOSE = "contour-too-close"
STATUS_TAIL_DOMINATED = "tail-dominated"

DEFAULT_QUAD_TOL = 1e-3
_MARGIN = 10.0

# 15-point Kronrod extension of 7-point Gauss (standard constants).
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

_KNODES = np.concatenate([-_XGK, [0.0], _XGK[::-1]])
_KWEIGHTS = np.concatenate([_WGK[:-1], [_WGK[-1]], _WGK[:-1][::-1]])
_GWEIGHTS = np.concatenate([_WG[:-1], [_WG[-1]], _WG[:-1][::-1]])
_GIDX = np.arange(1, 15, 2)


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned rectangle in the half-plane sigma > 1."""

    sigma_min: float
    sigma_max: float
    t_min: float
    t_max: float

    def __post_init__(self) -> None:
        if not self.sigma_min > 1.0:
            raise OutOfDomainError(f"sigma_min={self.sigma_min} must exceed 1")
        if not self.sigma_min < self.sigma_max:
            raise DomainError("need sigma_min < sigma_max")
        if not self.t_min < self.t_max:
            raise DomainError("need t_min < t_max")


@dataclass(frozen=True)
class ZeroScanReport:
    """Outcome of one contour scan; winding counts zeros with multiplicity."""

    rectangle: Rectangle
    winding: int
    min_modulus_on_contour: float
    status: str
    winding_integral: complex
    quad_error: float
    tail_bound: float
    N_used: int

    @property
    def certified(self) -> bool:
        return self.status == STATUS_CERTIFIED

    def to_json_obj(self) -> dict:
        r = self.rectangle
        return {
            "rectangle": {"sigma_min": r.sigma_min, "sigma_max": r.sigma_max, "t_min": r.t_min, "t_max": r.t_max},
            "winding": self.winding,
            "min_modulus_on_contour": self.min_modulus_on_contour,
            "status": self.status,
            "winding_integral": [self.winding_integral.real, self.winding_integral.imag],
            "quad_error": self.quad_error,
            "tail_bound": self.tail_bound,
            "N": self.N_used,
        }


class _EdgeIntegrator:
    """Adaptive GK15 along one rectangle edge for Z'/Z, batched evaluation.

    Globally adaptive: the interval with the largest error estimate is split
    first, until the summed estimate meets the tolerance or the subdivision
    budget runs out (robust even with a pole on or near the contour, where
    per-interval tolerance halving would subdivide without bound).
    """

    def __init__(self, a: ArithmeticFunction, N: int, max_intervals: int = 4096):
        self.a = a
        self.N = N
        self.max_intervals = max_intervals
        self.min_modulus = math.inf
        self.evals = 0

    def _quad_interval(self, to_s, lo: float, hi: float) -> tuple[complex, float]:
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        xs = mid + half * _KNODES
        pts = to_s(xs)
        z, dz = evaluate_series_batch(self.a, pts, order=1, N=self.N)
        self.evals += pts.size
        m = float(np.abs(z).min())
        if m < self.min_modulus:
            self.min_modulus = m
        if m == 0.0:
            raise ZeroDivisionError("contour passes through a zero of the truncated series")
        vals = dz / z
        k = half * complex(np.dot(_KWEIGHTS, vals))
        g = half * complex(np.dot(_GWEIGHTS, vals[_GIDX]))
        return k, abs(k - g)

    def integrate(self, to_s, lo: float, hi: float, tol: float) -> tuple[complex, float]:
        import heapq

        span = hi - lo
        k, e = self._quad_interval(to_s, lo, hi)
        heap = [(-e, 0, lo, hi, k)]
        serial = 1
        err_total = e
        while len(heap) < self.max_intervals and err_total > tol:
            neg_e, _, a_, b_, _ = heap[0]
            if (b_ - a_) < 1e-12 * span:
                break  # worst piece too narrow to resolve further
            heapq.heappop(heap)
            m = 0.5 * (a_ + b_)
            k1, e1 = self._quad_interval(to_s, a_, m)
            k2, e2 = self._quad_interval(to_s, m, b_)
            heapq.heappush(heap, (-e1, serial, a_, m, k1))
            heapq.heappush(heap, (-e2, serial + 1, m, b_, k2))
            serial += 2
            err_total += neg_e + e1 + e2  # neg_e removes the parent estimate
        total = sum(item[4] for item in heap)
        err_total = -sum(item[0] for item in heap)
        return total, err_total


def _contour_pass(a: ArithmeticFunction, rect: Rectangle, N: int, quad_tol: float):
    """One full counterclockwise contour integration of Z'/Z ds."""
    edges = (
        (lambda x: x + 1j * rect.t_min, rect.sigma_min, rect.sigma_max, 1.0),   # bottom, ds = dx
        (lambda x: rect.sigma_max + 1j * x, rect.t_min, rect.t_max, 1.0j),      # right,  ds = i dx
        (lambda x: x + 1j * rect.t_max, rect.sigma_min, rect.sigma_max, -1.0),  # top (reversed)
        (lambda x: rect.sigma_min + 1j * x, rect.t_min, rect.t_max, -1.0j),     # left (reversed)
    )
    integ = _EdgeIntegrator(a, N)
    total = 0.0 + 0.0j
    err = 0.0
    for to_s, lo, hi, ds in edges:
        part, e = integ.integrate(to_s, lo, hi, quad_tol / 4.0)
        total += part * ds
        err += e
    winding_integral = total / (2.0j * math.pi)
    quad_error = err / (2.0 * math.pi)
    return winding_integral, quad_error, integ.min_modulus


def _scan_once(a: ArithmeticFunction, rect: Rectangle, N: int, quad_tol: float) -> ZeroScanReport:
    tail = _tail_for(a, rect.sigma_min, N, 0)
    try:
        w, qerr, minmod = _contour_pass(a, rect, N, quad_tol)
        # refine when quadrature (not the tail) is what blocks certification
        if minmod > _MARGIN * tail and minmod <= _MARGIN * (tail + qerr):
            w, qerr, minmod = _contour_pass(a, rect, N, minmod / (4.0 * _MARGIN))
    except ZeroDivisionError:
        return ZeroScanReport(rect, 0, 0.0, STATUS_TOO_CLOSE, 0j, math.inf, tail, N)

    nearest = round(w.real)
    integer_gap = abs(w - nearest)
    if minmod <= _MARGIN * tail:
        status = STATUS_TAIL_DOMINATED
    elif minmod <= _MARGIN * (tail + qerr) or integer_gap > 0.1 or nearest < 0:
        status = STATUS_TOO_CLOSE
    else:
        status = STATUS_CERTIFIED
    return ZeroScanReport(
        rectangle=rect,
        winding=max(int(nearest), 0),
        min_modulus_on_contour=minmod,
        status=status,
        winding_integral=w,
        quad_error=qerr,
        tail_bound=tail,
        N_used=N,
    )


_COARSE_N = 4096


def count_zeros(
    a: ArithmeticFunction,
    rect: Rectangle,
    N: Optional[int] = None,
    quad_tol: float = DEFAULT_QUAD_TOL,
) -> ZeroScanReport:
    """Number of zeros (with multiplicity) of the series inside ``rect``.

    Needs a growth certificate with rect.sigma_min > 1+eps so that the
    truncation tail on the contour is bounded.  With N unset, a coarse
    truncation is tried first and escalated only as far as the observed
    minimum modulus requires (|Z_M| >= |Z_N| - tail(N) pointwise, so the
    coarse pass yields a sound lower bound for the escalation target).
    """
    if a.growth is None:
        raise DomainError("zero scanning needs a growth certificate")
    if not rect.sigma_min > 1.0 + a.growth.eps:
        raise OutOfDomainError(
            f"rectangle sigma_min={rect.sigma_min} must exceed 1+eps={1.0 + a.growth.eps}"
        )
    limit = min(len(a), n_cap())
    if N is not None:
        return _scan_once(a, rect, min(N, limit), quad_tol)

    coarse = _scan_once(a, rect, min(_COARSE_N, limit), quad_tol)
    if coarse.certified or coarse.N_used == limit:
        return coarse
    floor = coarse.min_modulus_on_contour - coarse.tail_bound
    if floor <= 0.0:
        return _scan_once(a, rect, limit, quad_tol)
    target = floor / (2.0 * _MARGIN)
    n = smallest_n(lambda m: _tail_for(a, rect.sigma_min, m, 0) <= target, coarse.N_used, limit)
    return _scan_once(a, rect, limit if n is None else n, quad_tol)


def localize_zeros(
    a: ArithmeticFunction,
    rect: Rectangle,
    min_size: float,
    N: Optional[int] = None,
    quad_tol: float = DEFAULT_QUAD_TOL,
) -> list[ZeroScanReport]:
    """Recursively subdivide ``rect`` until every nonzero count sits in a box
    whose longer side is below ``min_size``.

    Returns the certified leaf reports with winding >= 1 (multiplicity stays
    aggregated per box).  Boxes whose contour cannot be certified are split
    once more on the off chance the split moves the edge off a zero; if they
    still fail at the size floor they are returned as-is so the caller sees
    the uncertified remainder.
    """
    if min_size <= 0:
        raise DomainError("min_size must be positive")
    # split off-center: an exact-midpoint split can park the new edge on a
    # zero (both children then stay uncertifiable all the way down)
    frac = 0.53125
    out: list[ZeroScanReport] = []
    stack = [rect]
    while stack:
        box = stack.pop()
        rep = count_zeros(a, box, N=N, quad_tol=quad_tol)
        width = box.sigma_max - box.sigma_min
        height = box.t_max - box.t_min
        small = max(width, height) <= min_size
        if rep.certified and rep.winding == 0:
            continue
        if small:
            out.append(rep)
            continue
        if width >= height:
            mid = box.sigma_min + frac * width
            stack.append(Rectangle(box.sigma_min, mid, box.t_min, box.t_max))
            stack.append(Rectangle(mid, box.sigma_max, box.t_min, box.t_max))
        else:
            mid = box.t_min + frac * height
            stack.append(Rectangle(box.sigma_min, box.sigma_max, box.t_min, mid))
            stack.append(Rectangle(box.sigma_min, box.sigma_max, mid, box.t_max))
    out.sort(key=lambda r: (r.rectangle.t_min, r.rectangle.sigma_min))
    return out


@dataclass(frozen=True)
class Sigma0Estimate:
    """Bounded-height bracket for the zero-free abscissa.

    ``certificate`` always names the strip actually examined; nothing here
    claims anything about |t| > height.
    """

    bracket: tuple[float, float]
    certificate: str
    degenerate: bool
    height: float
    sigma_lo: float
    sigma_hi: float


def _certified_count(a, sigma, sigma_hi, T, N, attempts=5) -> ZeroScanReport:
    """count_zeros on the strip [sigma, sigma_hi] x [-T, T], nudging the left
    edge when the contour lands too close to a zero."""
    width = sigma_hi - sigma
    for k in range(attempts):
        shift = 0.0 if k == 0 else ((-1) ** k) * (k // 2 + 1) * width * 1e-3
        s = sigma + shift
        if not 1.0 < s < sigma_hi:
            continue
        rep = count_zeros(a, Rectangle(s, sigma_hi, -T, T), N=N)
        if rep.certified:
            return rep
    raise ContourError(
        f"could not certify a zero count on [{sigma}, {sigma_hi}] x [-{T}, {T}] "
        f"after {attempts} perturbations"
    )


def estimate_sigma0(
    a: ArithmeticFunction,
    T: float,
    sigma_hi: float,
    tol: float,
    sigma_lo: Optional[float] = None,
    N: Optional[int] = None,
) -> Sigma0Estimate:
    """Bisection bracket for the rightmost zero abscissa, up to height T.

    Counts zeros on strips [sigma, sigma_hi] x [-T, T]; the returned bracket
    (width <= tol) separates a strip with winding >= 1 from a zero-free strip.
    When the whole examined strip is zero-free the bracket degenerates to its
    left edge.  sigma_lo defaults to the smallest of a few candidate abscissas
    at which the truncation tail is small enough to certify.
    """
    if T <= 0:
        raise DomainError("height T must be positive")
    if a.growth is None:
        raise DomainError("zero scanning needs a growth certificate")
    eps = a.growth.eps
    if not sigma_hi > 1.0 + eps + tol:
        raise OutOfDomainError(f"sigma_hi={sigma_hi} must exceed 1+eps+tol")
    limit = min(len(a), n_cap())

    if sigma_lo is None:
        floor = 1.0 + eps + tol
        for cand in (floor, *(1.0 + eps + d for d in (0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0))):
            if cand < sigma_hi and _tail_for(a, cand, limit, 0) <= 5e-3:
                sigma_lo = max(cand, floor)
                break
        else:
            sigma_lo = 1.0 + eps + 1.0
    if not 1.0 + eps < sigma_lo < sigma_hi:
        raise OutOfDomainError(f"sigma_lo={sigma_lo} outside (1+eps, sigma_hi)")

    base = _certified_count(a, sigma_lo, sigma_hi, T, N)
    N_used = base.N_used  # reuse the auto-resolved truncation on later strips
    if base.winding == 0:
        cert = (
            f"zero-free on [{sigma_lo:.6g}, {sigma_hi:.6g}] x [-{T:g}, {T:g}] "
            f"(up to height {T:g} only; N={N_used})"
        )
        return Sigma0Estimate((sigma_lo, sigma_lo), cert, True, T, sigma_lo, sigma_hi)

    lo, hi = sigma_lo, sigma_hi
    # rightmost zero is below sigma_hi - tol if the certificate holds at all:
    # a strip strictly right of every zero has winding 0; locate by bisection.
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        rep = _certified_count(a, mid, sigma_hi, T, N_used)
        if rep.winding >= 1:
            lo = mid
        else:
            hi = mid
    cert = (
        f"strip [{lo:.9g}, {sigma_hi:.6g}] x [-{T:g}, {T:g}] contains a zero; "
        f"zero-free on [{hi:.9g}, {sigma_hi:.6g}] x [-{T:g}, {T:g}] (up to height {T:g} only; N={N_used})"
    )
    return Sigma0Estimate((lo, hi), cert, False, T, sigma_lo, sigma_hi)
