"""Quasi-Levy measures, the compound-Poisson form of the characteristic
function, and the zero-freeness/sign trichotomy classifier.

The classifier's three verdicts mirror what finite evidence can support:
a certified zero (case 1), a certified zero-free strip plus a negative
Mangoldt value (case 2-1), or no negative values up to the scan depth
(case 2-2).  Verdict text always embeds the scan depth and height, because
none of these are theorem-strength statements about all of sigma > 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .arith import ArithmeticFunction, MangoldtSequence
from .dist import _check_assumption
from .errors import ContourError, DomainError, HypothesisViolationError
from .series import EvalPoint
from .zeroscan import Sigma0Estimate, estimate_sigma0

VERDICT_ZERO_LINE = "case1"
VERDICT_QUASI_ID = "case2_1"
VERDICT_COMPOUND_POISSON = "case2_2"
VERDICT_INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class QuasiLevyMeasure:
    """Finite signed atomic measure sum_n mass(n) * delta at -log n,
    with mass(n) = A(n) / (n^sigma log n); atoms exist exactly where A(n) != 0.

    tv_partial is the truncated total variation sum |mass(n)|.
    """

    ns: np.ndarray = field(repr=False)
    positions: np.ndarray = field(repr=False)
    masses: np.ndarray = field(repr=False)
    sigma: float
    N: int
    tv_partial: float

    def atom_count(self) -> int:
        return int(self.ns.size)

    def mass_at(self, n: int) -> float:
        idx = np.searchsorted(self.ns, n)
        if idx < self.ns.size and self.ns[idx] == n:
            return float(self.masses[idx])
        return 0.0


def quasi_levy_measure(lam: MangoldtSequence, sigma: float) -> QuasiLevyMeasure:
    """Atoms (n, -log n, A(n)/(n^sigma log n)) for the nonzero A(n)."""
    EvalPoint(sigma)
    ns, vals = lam.float_arrays()
    nf = ns.astype(np.float64)
    logn = np.log(nf)
    masses = vals / (np.exp(sigma * logn) * logn)
    return QuasiLevyMeasure(
        ns=ns,
        positions=-logn,
        masses=masses,
        sigma=sigma,
        N=lam.N,
        tv_partial=float(np.abs(masses).sum()),
    )


def compound_poisson_cf(m: QuasiLevyMeasure, t: float, a1: Fraction) -> complex:
    """exp(sum_atoms mass * (e^{i t x} - 1)) with x = -log n, i.e. the
    compound-Poisson characteristic function of the measure.

    The n=1 normalization requires a(1) > 0; a(1) itself cancels in the
    quotient and does not enter the value.
    """
    if a1 <= 0:
        raise DomainError(f"a(1)={a1} must be positive")
    EvalPoint(m.sigma, t)
    phase = np.exp(1j * t * m.positions) - 1.0
    return complex(np.exp((m.masses * phase).sum()))


@dataclass(frozen=True)
class CharacteristicCheck:
    is_cf: bool
    witness: Optional[int] = None  # least index with a negative coefficient


def validate_characteristic(a: ArithmeticFunction) -> CharacteristicCheck:
    """Is the normalized quotient a characteristic function?  Yes iff every
    coefficient is nonnegative; otherwise reports the least negative index.

    Requires a(1) >= 0, not all coefficients zero, and a growth certificate
    (the hypotheses under which the equivalence holds).
    """
    if a.growth is None:
        raise HypothesisViolationError("needs a growth certificate")
    if a.coeffs[0] < 0:
        raise HypothesisViolationError("needs a(1) >= 0")
    if a.is_identically_zero():
        raise HypothesisViolationError("all stored coefficients are zero")
    w = a.first_negative_index()
    return CharacteristicCheck(is_cf=w is None, witness=w)


def observed_decay_abscissa(lam: MangoldtSequence) -> Optional[float]:
    """Empirical abscissa of absolute convergence of the logarithm series,
    from the growth rate of dyadic block sums of |A(n)/log n|.

    If S_k = sum over 2^k <= n < 2^{k+1} of |A(n)/log n| grows like 2^{k theta},
    the series sum |A(n)/log n| n^{-sigma} converges for sigma > theta; the
    least-squares slope of log2 S_k is returned as that empirical theta.
    Purely observational (no certificate), so no verdict uses it; it stays
    public while the benchmark tracer wraps it.  None when fewer than four
    nonempty blocks exist.
    """
    ns, vals = lam.float_arrays()
    logn = np.log(ns.astype(np.float64))
    weights = np.abs(vals) / logn
    ks = np.floor(np.log2(ns.astype(np.float64))).astype(np.int64)
    sums: dict[int, float] = {}
    for k, w in zip(ks, weights):
        sums[int(k)] = sums.get(int(k), 0.0) + float(w)
    # only complete dyadic blocks: a block truncated by N is a biased sample
    pts = [
        (k, math.log2(s))
        for k, s in sorted(sums.items())
        if s > 0.0 and k >= 1 and (1 << (k + 1)) - 1 <= lam.N
    ]
    if len(pts) < 4:
        return None
    xs = np.array([p[0] for p in pts], dtype=np.float64)
    ys = np.array([p[1] for p in pts], dtype=np.float64)
    slope = float(np.polyfit(xs, ys, 1)[0])
    return slope


@dataclass(frozen=True)
class Classification:
    """Trichotomy verdict with the evidence that produced it."""

    verdict: str
    negative_witness: Optional[int]
    sigma0_bracket: Optional[tuple[float, float]]
    height: float
    scan_depth: int
    certified_strip: Optional[tuple[float, float]]
    notes: str
    consequences: tuple[str, ...]

    def to_json_obj(self) -> dict:
        return {
            "verdict": self.verdict,
            "negative_witness": self.negative_witness,
            "sigma0_bracket": list(self.sigma0_bracket) if self.sigma0_bracket else None,
            "height_T": self.height,
            "scan_depth": self.scan_depth,
            "certified_strip": list(self.certified_strip) if self.certified_strip else None,
            "notes": self.notes,
            "consequences": list(self.consequences),
        }


def classify(
    a: ArithmeticFunction,
    lam: MangoldtSequence,
    T: float,
    sigma_hi: float,
    sigma_lo: Optional[float] = None,
    tol: float = 1e-3,
    N: Optional[int] = None,
) -> Classification:
    """Run the exact sign scan on A(2..N) and a bounded-height zero scan, then
    report which of the three regimes the evidence supports.

    case1: a certified zero exists in the examined strip.  The law is then
    pretended infinitely divisible right of the zero-free abscissa, quasi
    infinitely divisible one unit further right, and not pretended infinitely
    divisible on the zero line itself.
    case2_1: zero-free strip certified and some A(n) < 0: quasi infinitely
    divisible for sigma > 2 with a finite signed measure.
    case2_2: zero-free strip certified and no negative A(n) up to the scan
    depth: compound Poisson with nonnegative finite measure for sigma > 1.
    """
    _check_assumption(a)
    witness = lam.first_negative()
    try:
        est: Sigma0Estimate = estimate_sigma0(a, T, sigma_hi, tol, sigma_lo=sigma_lo, N=N)
    except ContourError as exc:
        return Classification(
            verdict=VERDICT_INCONCLUSIVE, negative_witness=witness, sigma0_bracket=None,
            height=T, scan_depth=lam.N, certified_strip=None,
            notes=f"zero scan failed on every attempted contour: {exc}", consequences=(),
        )

    bracket = None
    if not est.degenerate:
        verdict, bracket = VERDICT_ZERO_LINE, est.bracket
        lo, hi = bracket
        notes = f"certified zero in the strip; {est.certificate}"
        cons = (
            f"not infinitely divisible but pretended infinitely divisible for sigma > {hi:.6g}",
            f"quasi infinitely divisible with finite quasi-Levy measure for sigma > {hi + 1.0:.6g}",
            f"not pretended infinitely divisible on the zero line (abscissa in [{lo:.9g}, {hi:.9g}])",
        )
    elif witness is not None:
        verdict = VERDICT_QUASI_ID
        notes = f"A({witness}) < 0 (exact); {est.certificate}"
        cons = (
            f"zero-free certificate holds on [{est.sigma_lo:.6g}, {est.sigma_hi:.6g}] x [-{T:g}, {T:g}] only",
            "not infinitely divisible but pretended infinitely divisible for sigma > 1 "
            "(conditional on zero-freeness beyond the certified strip)",
            "quasi infinitely divisible with finite quasi-Levy measure for sigma > 2",
        )
    else:
        verdict = VERDICT_COMPOUND_POISSON
        notes = (
            f"all A(n) >= 0 for 2 <= n <= {lam.N} (exact signs); {est.certificate}. "
            "The nonnegative case is stated here with >= 0: zero values occur "
            "(e.g. A(6) = 0 for the all-ones series) and do not obstruct the "
            "compound-Poisson form."
        )
        cons = (
            f"no negative A(n) up to N={lam.N} (not a proof for all n)",
            "compound Poisson characteristic function with finite nonnegative Levy measure "
            "for all sigma > 1 (if the sign pattern persists)",
        )
    return Classification(
        verdict=verdict, negative_witness=witness, sigma0_bracket=bracket,
        height=T, scan_depth=lam.N, certified_strip=(est.sigma_lo, est.sigma_hi),
        notes=notes, consequences=cons,
    )
