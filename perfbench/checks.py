"""Output checks for every task kind, and the output digests that the
determinism check compares.

Each check uses a closed form or an independent route, never the library
path it checks:

- ``A(p^r)`` closed forms for the multiplicative families, zero off prime
  powers;
- the identity ``sum_{d|n} A(d) a(n/d) = a(n) log n`` by divisor enumeration
  for ``ezstar``, which is not multiplicative;
- the engineered zeros of ``1 + 4*2^-s`` at ``2 + i(2k+1)pi/log 2``;
- zero-freeness for ``sigma >= 1.5``: an Euler product for ones and absmu, and
  for ezstar ``Re Z >= 2 - Z(sigma)`` with ``Z(1.5) = (zeta(1.5)+zeta(3))/2 < 2``;
- series values, ``Z'/Z`` and ``(log Z)''`` from ``mpmath``'s zeta, and the
  closed-form mean ``-log 2 * 2^-sigma / (1 + 2^-sigma)`` of 1 + 2^-s;
- sample means within four standard errors of the law's mean.

A check raises ``CheckFailed`` with the reason.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import asdict, is_dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np

from zetadist import arith, generators, levy, zeroscan

mp.mp.dps = 30


class CheckFailed(Exception):
    pass


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def _primes_up_to(N: int) -> list[int]:
    sieve = bytearray([1]) * (N + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(N) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, N + 1, p)))
    return [i for i in range(N + 1) if sieve[i]]


def prime_powers(N: int) -> dict[int, tuple[int, int]]:
    """{p^r: (p, r)} for every prime power p^r <= N."""
    out = {}
    for p in _primes_up_to(N):
        pk, r = p, 1
        while pk <= N:
            out[pk] = (p, r)
            pk *= p
            r += 1
    return out


# A(p^r) / log p for the multiplicative families (log Z of zeta(s)^k,
# zeta(s+1), zeta(s)/zeta(2s), 1 + 2^-s)
MANGOLDT_COEF = {
    "ones": lambda p, r: Fraction(1),
    "pow:-1": lambda p, r: Fraction(1, p**r),
    "dk:2": lambda p, r: Fraction(2),
    "dk:3": lambda p, r: Fraction(3),
    "absmu": lambda p, r: Fraction((-1) ** (r - 1)),
    "oneplusq:2": lambda p, r: Fraction((-1) ** (r - 1)) if p == 2 else Fraction(0),
}


def expected_mangoldt(family: str, N: int) -> dict[int, tuple[int, Fraction]]:
    coef = MANGOLDT_COEF[family]
    out = {}
    for n, (p, r) in prime_powers(N).items():
        c = coef(p, r)
        if c:
            out[n] = (p, c)
    return out


def ezstar_coeff(n: int) -> Fraction:
    return Fraction(1) if math.isqrt(n) ** 2 == n else Fraction(1, 2)


def _divisors(n: int) -> list[int]:
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def _factor(n: int) -> dict[int, int]:
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _mp_value(terms: dict[int, Fraction]):
    return mp.fsum(mp.mpf(c.numerator) / c.denominator * mp.log(p) for p, c in terms.items())


def _check_ezstar_identity(lam, ns) -> None:
    """sum_{d|n, d>1} A(d) a(n/d) == a(n) log n, with a(1) = 1."""
    for n in ns:
        acc: dict[int, Fraction] = {}
        for d in _divisors(n):
            if d > 1:
                w = ezstar_coeff(n // d)
                for p, c in lam[d].terms.items():
                    acc[p] = acc.get(p, 0) + c * w
        got = {p: c for p, c in acc.items() if c}
        want = {p: ezstar_coeff(n) * e for p, e in _factor(n).items()}
        expect(got == want, f"ezstar identity fails at n={n}")


# ---------------------------------------------------------------------------
# analytic values (mpmath)
# ---------------------------------------------------------------------------

def Z_value(family: str, s):
    if family == "ones":
        return mp.zeta(s)
    if family == "absmu":
        return mp.zeta(s) / mp.zeta(2 * s)
    if family == "ezstar":
        return (mp.zeta(s) + mp.zeta(2 * s)) / 2
    raise KeyError(family)


def law_mean_var(family: str, sigma: float) -> tuple[float, float]:
    """Mean Z'/Z(sigma) and variance (log Z)''(sigma) of X = -log n."""
    if family == "oneplusq:2":
        # X = -log 2 with probability q / (1 + q), q = 2^-sigma, else 0
        q = 2.0 ** -sigma
        return -math.log(2.0) * q / (1.0 + q), math.log(2.0) ** 2 * q / (1.0 + q) ** 2

    def parts(x):
        return [mp.zeta(x, derivative=k) for k in range(3)]

    a0, a1, a2 = parts(mp.mpf(sigma))
    if family == "ones":
        m = a1 / a0
        return float(m), float(a2 / a0 - m * m)
    b0, b1, b2 = parts(2 * mp.mpf(sigma))
    if family == "absmu":
        ma, mb = a1 / a0, b1 / b0
        return float(ma - 2 * mb), float((a2 / a0 - ma * ma) - 4 * (b2 / b0 - mb * mb))
    if family == "ezstar":
        z0, z1, z2 = (a0 + b0) / 2, (a1 + 2 * b1) / 2, (a2 + 4 * b2) / 2
        m = z1 / z0
        return float(m), float(z2 / z0 - m * m)
    raise KeyError(family)


def tail(N: int, sigma: float) -> float:
    """Bound on sum_{n>N} n^-sigma, valid for every family here (|a(n)| <= 1)."""
    return N ** (1.0 - sigma) / (sigma - 1.0) + N ** (-sigma)


def _rounding(N: int) -> float:
    return N * 1e-15 + 1e-12


def _check_series_points(family, sigma, ts, values, N, tails=None, stride=10) -> None:
    eps = tail(N, sigma)
    for i in range(0, len(ts), stride):
        exact = complex(Z_value(family, mp.mpc(sigma, ts[i])))
        bound = (eps if tails is None else tails[i]) + _rounding(N)
        expect(abs(values[i] - exact) <= bound,
               f"Z({sigma}+{ts[i]}i) off by {abs(values[i] - exact):.3g} > {bound:.3g}")


def _check_cf_points(family, sigma, ts, values, N, stride=10) -> None:
    eps = tail(N, sigma)
    z_sigma = float(Z_value(family, mp.mpf(sigma)))
    bound = 2 * eps / (z_sigma - eps) + _rounding(N)
    for i in range(0, len(ts), stride):
        exact = complex(Z_value(family, mp.mpc(sigma, ts[i]))) / z_sigma
        expect(abs(values[i] - exact) <= bound,
               f"cf({sigma},{ts[i]}) off by {abs(values[i] - exact):.3g} > {bound:.3g}")
        expect(abs(values[i]) <= 1.0 + 1e-12, f"|cf| > 1 at t={ts[i]}")


# ---------------------------------------------------------------------------
# per-kind checks
# ---------------------------------------------------------------------------

def check_mangoldt(p, out) -> None:
    lam, N = out["lam"], p["N"]
    expect(lam.N == N, f"A computed to {lam.N}, asked {N}")
    if p["family"] in MANGOLDT_COEF:
        want = expected_mangoldt(p["family"], N)
        got = {n: v.terms for n, v in lam.nonzeros()}
        expect(got.keys() == want.keys(), "A(n) nonzero off the prime powers or zero on one")
        bad = [n for n, (q, c) in want.items() if got[n] != {q: c}]
        expect(not bad, f"A(p^r) closed form fails at n={bad[:3]}")
        negatives = [n for n, (_, c) in want.items() if c < 0]
        expect(out["first_negative"] == (min(negatives) if negatives else None), "wrong first negative")
        return
    rng = random.Random(N)
    _check_ezstar_identity(lam, list(range(2, min(N, 64) + 1)) + rng.sample(range(65, N + 1), 64))
    w = out["first_negative"]
    expect(w is not None and _mp_value(lam[w].terms) < 0, "ezstar first negative is not negative")
    for n in range(2, w):
        expect(not lam[n] or _mp_value(lam[n].terms) > 0, f"A({n}) < 0 below the first negative")


def check_sign_sweep(p, out) -> None:
    lam, N, signs = out["lam"], p["N"], out["signs"]
    expect(len(signs) == N - 1, "sweep length")
    rng = random.Random(N)
    ns = list(range(2, 130)) + rng.sample(range(130, N + 1), 200)
    _check_ezstar_identity(lam, ns[:64])
    for n in ns:
        A = lam[n].terms
        for k, sgn in enumerate((1, -1)):
            comb = {q: Fraction(7, 8) * e for q, e in _factor(n).items()}
            for q, c in A.items():
                comb[q] = comb.get(q, 0) + sgn * c
            comb = {q: c for q, c in comb.items() if c}
            want = 0 if not comb else (1 if _mp_value(comb) > 0 else -1)
            expect(signs[n - 2][k] == want, f"sign of (7/8)log {n} {'+-'[k]} A({n})")


def _csv(out, header: str) -> list[list[str]]:
    expect(out["rc"] == 0, f"exit code {out['rc']}: {out['stderr'].strip()}")
    lines = out["stdout"].splitlines()
    expect(lines and lines[0] == header, "CSV header")
    return [line.split(",") for line in lines[1:]]


def _close(x: float, y: float, rel: float = 1e-12) -> bool:
    return abs(x - y) <= rel * max(1.0, abs(y))


def check_cli_acoeffs(p, out) -> None:
    rows = _csv(out, "n,A_exact,A_float")
    want = expected_mangoldt(p["family"], p["max"])
    expect([int(r[0]) for r in rows] == list(range(2, p["max"] + 1)), "acoeffs rows")
    for n_text, exact, flt in rows:
        n = int(n_text)
        if n in want:
            q, c = want[n]
            ok = exact == f"({c})*log({q})" and _close(float(flt), float(c) * math.log(q))
        else:
            ok = exact == "0" and float(flt) == 0.0
        expect(ok, f"acoeffs row {n}: {exact} {flt}")


def check_cli_levy(p, out) -> None:
    rows = _csv(out, "n,position,mass")
    want = expected_mangoldt(p["family"], p["max"])
    expect([int(r[0]) for r in rows] == sorted(want), "levy atoms off the prime powers")
    for n_text, pos, mass in rows:
        n = int(n_text)
        q, c = want[n]
        m = float(c) * math.log(q) / (n ** p["sigma"] * math.log(n))
        expect(_close(float(pos), -math.log(n)) and _close(float(mass), m, 1e-11), f"levy atom {n}")


def check_cli_paper_tables(p, out) -> None:
    expect(out["rc"] == 0, f"paper-tables exit code {out['rc']}")
    lines = out["stdout"].splitlines()
    expect(lines[-1] == "summary: 0 unexpected mismatches, 5 known discrepancies flagged", lines[-1])
    ok = sum(line.startswith("OK ") for line in lines)
    expect(ok == 6 * (p["max"] - 1) + 3, f"{ok} OK rows")


def check_zeros(p, out) -> None:
    rep = out["report"]
    expect(rep.certified, f"not certified: {rep.status}")
    expect(rep.winding == p["expect"], f"winding {rep.winding}, expected {p['expect']}")


def check_sigma0(p, out) -> None:
    est = out["estimate"]
    lo, hi = est.bracket
    expect(not est.degenerate and lo <= 2.0 <= hi and hi - lo <= p["tol"], f"bracket {est.bracket}")


def check_classify(p, out) -> None:
    res = out["result"]
    expect(res.verdict == p["expect"], f"verdict {res.verdict}")
    expect(res.scan_depth == p["depth"] and res.height == p["T"], "scan depth or height")
    if p["family"] == "ones":
        expect(res.negative_witness is None, "ones has no negative A(n)")
    elif p["family"] == "oneplusq:2":
        expect(res.negative_witness == 4, "A(4) = -log 2 is the first negative")
    else:
        lo, hi = res.sigma0_bracket
        expect(lo <= 2.0 <= hi, f"zero line bracket {res.sigma0_bracket}")


def check_adversarial(p, out) -> None:
    rep = out["report"]
    expect(not (rep.certified and rep.winding != p["expect"]), f"certified a wrong count {rep.winding}")


def _check_law_moments(family, sigma, mean, var, tail_mass, N_law) -> None:
    mu, v = law_mean_var(family, sigma)
    spread = math.log(N_law) + 2.0 / (sigma - 1.0) + abs(mu)
    expect(abs(mean - mu) <= 2 * tail_mass * spread + 1e-9, f"mean {mean} vs {mu}")
    expect(abs(var - v) <= 2 * tail_mass * spread**2 + 1e-9, f"variance {var} vs {v}")


def _check_draws(draws, count, mean, var, N_law) -> None:
    expect(draws.size == count, "draw count")
    n = np.rint(np.exp(-draws))
    expect(bool(np.all((n >= 1) & (n <= N_law))) and bool(np.allclose(draws, -np.log(n), atol=1e-9, rtol=0)),
           "draws are not at -log n")
    se = math.sqrt(var / count)
    expect(abs(float(draws.mean()) - mean) <= 4 * se, f"sample mean {draws.mean()} vs {mean} (se {se:.3g})")


def check_law(p, out) -> None:
    expect(out["tail_mass"] <= p["tol"] and out["N_law"] <= p["N"], "tail mass above tol")
    _check_law_moments(p["family"], p["sigma"], out["mean"], out["var"], out["tail_mass"], out["N_law"])
    _check_draws(out["draws"], p["count"], out["mean"], out["var"], out["N_law"])


def check_cf_grid(p, out) -> None:
    _check_cf_points(p["family"], p["sigma"], out["ts"], out["values"], p["N"])


def check_series_grid(p, out) -> None:
    expect(bool(np.all(out["tails"] >= 0)), "negative tail bound")
    _check_series_points(p["family"], p["sigma"], out["ts"], out["values"], p["N"], out["tails"], stride=1)


def _grid_rows(out, header: str, width: int) -> np.ndarray:
    rows = _csv(out, header)
    expect(len(rows) == 101 and all(len(r) == width for r in rows), "101 grid rows")
    arr = np.array(rows, dtype=np.float64)
    expect(bool(np.allclose(arr[:, 1], np.linspace(-10, 10, 101), rtol=0, atol=1e-12)), "t grid")
    return arr


def check_cli_eval(p, out) -> None:
    arr = _grid_rows(out, "sigma,t,re,im,tail_bound,N", 6)
    N = min(p["max"], 10**5)
    expect(bool(np.all(arr[:, 5] == N)), "N column")
    _check_series_points(p["family"], p["sigma"], arr[:, 1], arr[:, 2] + 1j * arr[:, 3], N, arr[:, 4])


def check_cli_cf(p, out) -> None:
    arr = _grid_rows(out, "sigma,t,re,im", 4)
    _check_cf_points(p["family"], p["sigma"], arr[:, 1], arr[:, 2] + 1j * arr[:, 3], min(p["max"], 10**5))


def check_cli_sample(p, out) -> None:
    expect(out["rc"] == 0, f"exit code {out['rc']}: {out['stderr'].strip()}")
    draws = np.array(out["stdout"].split(), dtype=np.float64)
    mu, v = law_mean_var(p["family"], p["sigma"])
    _check_draws(draws, p["count"], mu, v, p["max"])


CHECKS = {name[6:]: fn for name, fn in globals().items() if name.startswith("check_")}


# ---------------------------------------------------------------------------
# the known defects
# ---------------------------------------------------------------------------

# Two defects of the seed commit's contour quadrature, each probed on every
# run, outside the timed tasks and the failure count; the run reports whether
# each still reproduces.
#
# - estimate_sigma0 on 1 + 4*2^-s certifies, at some heights T, a bracket that
#   misses the zero line sigma = 2: a bisection edge passes close to the zeros
#   at 2 +- i pi/log 2, the Gauss-Kronrod nodes miss the small minimum of |Z|
#   on it, and count_zeros certifies a wrong winding.
# - classify on zeta returns "inconclusive" in narrow height windows (here
#   T in about [29.83504, 29.8357] at depth 3552): one Gauss-Kronrod panel
#   over a whole edge of length 2T passes its error test by chance, the
#   winding integral lands at -0.24 and no nudge of the left edge certifies.
#
# The seed picks one of a fixed set of cycles (tasks.POOL), each of which
# passes every check at the seed commit; see README.md.
KNOWN_DEFECTS = (
    ("estimate_sigma0(generate(parse_spec('oneplusq:2:4', 16)), T=6.8, sigma_hi=4.0, tol=1e-3)",
     "bracket misses sigma = 2"),
    ("classify(a, von_mangoldt(a), T=29.835077, sigma_hi=3.0), a = generate(parse_spec('ones', 3552))",
     "verdict inconclusive, not case2_2"),
)


def probe_known_defects() -> list[dict]:
    eng = generators.generate(generators.parse_spec("oneplusq:2:4", 16))
    lo, hi = zeroscan.estimate_sigma0(eng, T=6.8, sigma_hi=4.0, tol=1e-3).bracket
    ones = generators.generate(generators.parse_spec("ones", 3552))
    verdict = levy.classify(ones, arith.von_mangoldt(ones), T=29.835077, sigma_hi=3.0).verdict
    outcomes = ((f"bracket {(lo, hi)}", not lo <= 2.0 <= hi),
                (f"verdict {verdict}", verdict != levy.VERDICT_COMPOUND_POISSON))
    return [{"call": call, "defect": defect, "got": got, "reproduces": bad}
            for (call, defect), (got, bad) in zip(KNOWN_DEFECTS, outcomes)]


# ---------------------------------------------------------------------------
# digests
# ---------------------------------------------------------------------------

def _canon(x):
    if isinstance(x, np.ndarray):
        return hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest()
    if isinstance(x, (complex, np.complexfloating)):
        return [float(x.real), float(x.imag)]
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, dict):
        return {str(k): _canon(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_canon(v) for v in x]
    if hasattr(x, "nonzeros"):   # MangoldtSequence
        return [[n, v.to_json_obj()] for n, v in x.nonzeros()]
    if hasattr(x, "to_json_obj"):
        return x.to_json_obj()
    if is_dataclass(x):
        return _canon(asdict(x))
    return x


def digest(out: dict) -> str:
    """sha256 of the task's outputs in a canonical JSON form."""
    text = json.dumps(_canon(out), sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()
