"""Certified zero counting in rectangles of the half-plane sigma > 1.

The winding number of the *truncated* series Z_N around a rectangle is found
by tracking the argument of Z_N along the contour.  One pass over the
coefficients gives, with w(n) = |a(n)| n^{-sigma_min} for n <= N,

- L = sum w(n) log n, a bound on |Z_N'| on the whole rectangle, and
- rnd = (N + 8 + 4 (sigma_max + max|t|) log N) 2^-53 sum w(n), a bound on
  the floating-point error of each computed value of Z_N.

Starting from 8 points per edge (corners included), every segment of length
h with L h > kappa max(|z_i|, |z_{i+1}|), kappa = 1/2, is split into
ceil(L h / (kappa max)) pieces (at most 64), all new points of a round being
evaluated in one batch.  Once no segment needs splitting, the image of each
segment lies in a disc about its larger endpoint value that excludes 0, so
the winding number sum Arg(z_{i+1}/z_i) / 2pi is exact, and
lower = min_i (|z_i| + |z_{i+1}| - L h_i) / 2 bounds |Z_N| from below along
the whole contour.  The count transfers to the full series when the
truncation tail stays well below that bound (Rouche): a report is
"certified" only when lower exceeds 10x (tail + rnd), every term of which is
a bound.  A contour that needs more than 2^16 evaluations or a step below
1e-12 is reported "contour-too-close".

Report fields: ``winding_sum`` is the tracked sum, ``rounding_bound`` is
rnd, ``tail_bound`` the truncation tail alone and
``min_modulus_on_contour`` the smallest sampled |Z_N|.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .arith import ArithmeticFunction
from .errors import ContourError, DomainError, OutOfDomainError
from .series import _require_domain, _require_tol, _tail_for, evaluate_series_batch, smallest_n

STATUS_CERTIFIED = "certified"
STATUS_TOO_CLOSE = "contour-too-close"
STATUS_TAIL_DOMINATED = "tail-dominated"

_MARGIN = 10.0
_KAPPA = 0.5
_START_POINTS = 8      # per edge, corners included
_MAX_PIECES = 64
_MAX_EVALS = 1 << 16
_MIN_STEP = 1e-12
_UNIT_ROUNDOFF = 2.0 ** -53
_NUDGE_ATTEMPTS = 5    # left edges _certified_count tries per strip


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned rectangle in the half-plane sigma > 1."""

    sigma_min: float
    sigma_max: float
    t_min: float
    t_max: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.sigma_min, self.sigma_max, self.t_min, self.t_max))):
            raise DomainError(f"{self} must have finite bounds")
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
    winding_sum: float
    rounding_bound: float
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
            "winding_sum": self.winding_sum,
            "rounding_bound": self.rounding_bound,
            "tail_bound": self.tail_bound,
            "N": self.N_used,
        }


def _track_contour(a: ArithmeticFunction, rect: Rectangle, N: int, L: float):
    """Samples s and values z = Z_N(s) around the closed contour
    (counterclockwise, s[-1] == s[0]), refined until L h <= kappa max|z| on
    every segment.  Returns (s, z, resolved); resolved is False when the
    evaluation budget or the step floor stopped the refinement first."""
    corners = np.array([
        complex(rect.sigma_min, rect.t_min), complex(rect.sigma_max, rect.t_min),
        complex(rect.sigma_max, rect.t_max), complex(rect.sigma_min, rect.t_max),
    ])
    frac = np.arange(_START_POINTS - 1) / (_START_POINTS - 1)
    s = (corners[:, None] + (np.roll(corners, -1) - corners)[:, None] * frac).ravel()
    z = evaluate_series_batch(a, s, 0, N)[0]
    s, z = np.append(s, s[0]), np.append(z, z[0])
    evals = s.size - 1
    while True:
        h = np.abs(np.diff(s))
        m = np.maximum(np.abs(z[:-1]), np.abs(z[1:]))
        need = np.flatnonzero(L * h > _KAPPA * m)
        if need.size == 0:
            return s, z, True
        if h[need].min() < _MIN_STEP:
            return s, z, False
        with np.errstate(divide="ignore"):
            pieces = np.minimum(np.ceil(L * h[need] / (_KAPPA * m[need])), _MAX_PIECES).astype(np.int64)
        k = pieces - 1  # new points per split segment
        evals += int(k.sum())
        if evals > _MAX_EVALS:
            return s, z, False
        seg = np.repeat(need, k)
        j = np.arange(seg.size) - np.repeat(np.cumsum(k) - k, k) + 1
        new = s[seg] + (s[seg + 1] - s[seg]) * (j / np.repeat(pieces, k))
        z_new = evaluate_series_batch(a, new, 0, N)[0]
        s = np.insert(s, seg + 1, new)
        z = np.insert(z, seg + 1, z_new)


def _scan_once(a: ArithmeticFunction, rect: Rectangle, N: int) -> ZeroScanReport:
    tail = _tail_for(a, rect.sigma_min, N, 0)
    logn = a.log_n()[:N]
    w = np.exp(logn * -rect.sigma_min)
    w *= np.abs(a.float_coeffs()[:N])
    L = float(w @ logn)
    t_abs = max(abs(rect.t_min), abs(rect.t_max))
    rnd = (N + 8 + 4 * (rect.sigma_max + t_abs) * math.log(N)) * _UNIT_ROUNDOFF * float(w.sum())

    s, z, resolved = _track_contour(a, rect, N, L)
    mod = np.abs(z)
    minmod = float(mod.min())
    lower = float((mod[:-1] + mod[1:] - L * np.abs(np.diff(s))).min()) / 2.0
    winding = float(np.angle(z[1:] * np.conj(z[:-1])).sum()) / (2.0 * math.pi)
    if minmod <= _MARGIN * tail:
        status = STATUS_TAIL_DOMINATED
    elif not resolved or lower <= _MARGIN * (tail + rnd):
        status = STATUS_TOO_CLOSE
    else:
        status = STATUS_CERTIFIED
    return ZeroScanReport(
        rectangle=rect,
        winding=max(round(winding), 0),
        min_modulus_on_contour=minmod,
        status=status,
        winding_sum=winding,
        rounding_bound=rnd,
        tail_bound=tail,
        N_used=N,
    )


_COARSE_N = 4096


def count_zeros(
    a: ArithmeticFunction,
    rect: Rectangle,
    N: Optional[int] = None,
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
    _require_domain(a, rect.sigma_min, 0)
    limit = len(a)
    if N is not None:
        return _scan_once(a, rect, min(N, limit))

    coarse = _scan_once(a, rect, min(_COARSE_N, limit))
    if coarse.certified or coarse.N_used == limit:
        return coarse
    floor = coarse.min_modulus_on_contour - coarse.tail_bound
    if floor <= 0.0:
        return _scan_once(a, rect, limit)
    target = floor / (2.0 * _MARGIN)
    n = smallest_n(lambda m: _tail_for(a, rect.sigma_min, m, 0) <= target, coarse.N_used, limit)
    return _scan_once(a, rect, limit if n is None else n)


def localize_zeros(
    a: ArithmeticFunction,
    rect: Rectangle,
    min_size: float,
    N: Optional[int] = None,
) -> list[ZeroScanReport]:
    """Recursively subdivide ``rect`` until every nonzero count sits in a box
    whose longer side is below ``min_size``.

    Returns the certified leaf reports with winding >= 1 (multiplicity stays
    aggregated per box).  Boxes whose contour cannot be certified are split
    once more on the off chance the split moves the edge off a zero; if they
    still fail at the size floor they are returned as-is so the caller sees
    the uncertified remainder.
    """
    if not min_size > 0:
        raise DomainError("min_size must be positive")
    # split off-center: an exact-midpoint split can park the new edge on a
    # zero (both children then stay uncertifiable all the way down)
    frac = 0.53125
    out: list[ZeroScanReport] = []
    stack = [rect]
    while stack:
        box = stack.pop()
        rep = count_zeros(a, box, N=N)
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
    claims anything about |t| > height.  ``sigma_lo`` and both bracket ends
    are left edges of strips that were counted.  ``N_used`` is the
    truncation of every strip count.
    """

    bracket: tuple[float, float]
    certificate: str
    degenerate: bool
    height: float
    sigma_lo: float
    sigma_hi: float
    N_used: int


def _certified_count(a, sigma, sigma_hi, T, N, lo, hi) -> ZeroScanReport:
    """count_zeros on the strip [sigma, sigma_hi] x [-T, T], nudging the left
    edge when the contour lands too close to a zero.  The nudged edge stays
    inside (lo, hi) and moves at most a quarter of that interval, so callers
    read the edge counted from ``rectangle.sigma_min``, never from ``sigma``."""
    unit = min((sigma_hi - sigma) * 1e-3, (hi - lo) / 8)
    for k in range(_NUDGE_ATTEMPTS):
        s = sigma + ((-1) ** k) * (k // 2 + 1) * unit if k else sigma
        if not lo < s < hi:
            continue
        rep = count_zeros(a, Rectangle(s, sigma_hi, -T, T), N=N)
        if rep.certified:
            return rep
    raise ContourError(
        f"could not certify a zero count on [{sigma}, {sigma_hi}] x [-{T}, {T}] "
        f"after {_NUDGE_ATTEMPTS} perturbations"
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
    if not 0 < T < math.inf:
        raise DomainError(f"height T={T} must be positive and finite")
    _require_tol(tol)
    if a.growth is None:
        raise DomainError("zero scanning needs a growth certificate")
    eps = a.growth.eps
    if not sigma_hi > 1.0 + eps + tol:
        raise OutOfDomainError(f"sigma_hi={sigma_hi} must exceed 1+eps+tol")

    if sigma_lo is None:
        floor = 1.0 + eps + tol
        for cand in (floor, *(1.0 + eps + d for d in (0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0))):
            if cand < sigma_hi and _tail_for(a, cand, len(a), 0) <= 5e-3:
                sigma_lo = max(cand, floor)
                break
        else:
            sigma_lo = 1.0 + eps + 1.0
    if not 1.0 + eps < sigma_lo < sigma_hi:
        raise OutOfDomainError(f"sigma_lo={sigma_lo} outside (1+eps, sigma_hi)")

    base = _certified_count(a, sigma_lo, sigma_hi, T, N, 1.0 + eps, sigma_hi)
    sigma_lo = base.rectangle.sigma_min
    N_used = base.N_used  # reuse the auto-resolved truncation on later strips
    if base.winding == 0:
        cert = (
            f"zero-free on [{sigma_lo:.6g}, {sigma_hi:.6g}] x [-{T:g}, {T:g}] "
            f"(up to height {T:g} only; N={N_used})"
        )
        return Sigma0Estimate((sigma_lo, sigma_lo), cert, True, T, sigma_lo, sigma_hi, N_used)

    lo, hi = sigma_lo, sigma_hi
    # rightmost zero is below sigma_hi - tol if the certificate holds at all:
    # a strip strictly right of every zero has winding 0; locate by bisection.
    while hi - lo > tol:
        rep = _certified_count(a, 0.5 * (lo + hi), sigma_hi, T, N_used, lo, hi)
        if rep.winding >= 1:
            lo = rep.rectangle.sigma_min
        else:
            hi = rep.rectangle.sigma_min
    cert = (
        f"strip [{lo:.9g}, {sigma_hi:.6g}] x [-{T:g}, {T:g}] contains a zero; "
        f"zero-free on [{hi:.9g}, {sigma_hi:.6g}] x [-{T:g}, {T:g}] (up to height {T:g} only; N={N_used})"
    )
    return Sigma0Estimate((lo, hi), cert, False, T, sigma_lo, sigma_hi, N_used)
