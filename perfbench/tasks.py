"""Seeded task lists for the three workloads, and the program calls each task
makes.

A task is a kind plus JSON parameters.  ``build(workload, seed)``
draws the parameters from the seed; the program only ever sees the drawn
values.  Each ``run_<kind>`` makes the timed program calls and returns the raw
outputs that ``checks.CHECKS[kind]`` verifies.  Calls go through module
attributes (``arith.von_mangoldt``) so that the traced run sees them.

Where a seeded parameter would swing a round's cost or peak memory by more
than the run-to-run noise, tasks come in antithetic pairs (sizes ``x`` and
``lo + hi - x``) or the task that sets it sits at one end of its range; the
README states which.
"""
from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from zetadist import arith, cli, dist, generators, levy, series, zeroscan

LOG2 = math.log(2.0)


@dataclass(frozen=True)
class Task:
    kind: str
    params: dict

    @property
    def id(self) -> str:
        return self.kind + "(" + ",".join(f"{k}={v}" for k, v in sorted(self.params.items())) + ")"


def _gen(family: str, N: int):
    return generators.generate(generators.parse_spec(family, N))


def _cli(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    text = out.getvalue()
    return {"rc": rc, "stdout": text, "stderr": err.getvalue(), "bytes_out": len(text.encode())}


# ---------------------------------------------------------------------------
# program calls, one function per task kind
# ---------------------------------------------------------------------------

def run_mangoldt(family, N):
    a = _gen(family, N)
    lam = arith.von_mangoldt(a)
    return {"lam": lam, "first_negative": lam.first_negative()}


def run_sign_sweep(N):
    lam = arith.von_mangoldt(_gen("ezstar", N))
    seven_eighths = Fraction(7, 8)
    signs = []
    for n in range(2, N + 1):
        base = arith.LogLinear.log_of(n, seven_eighths)
        A = lam[n]
        signs.append(((base + A).sign(), (base - A).sign()))
    return {"lam": lam, "signs": signs}


def run_cli_acoeffs(family, max):
    return _cli(["acoeffs", "--gen", family, "--max", str(max)])


def run_cli_levy(family, max, sigma):
    return _cli(["levy", "--gen", family, "--max", str(max), "--sigma", repr(sigma)])


def run_cli_paper_tables(max):
    return _cli(["paper-tables", "--max", str(max)])


def run_zeros(family, length, rect, **expected):
    """count_zeros on one window; the other parameters are read by the check."""
    return {"report": zeroscan.count_zeros(_gen(family, length), zeroscan.Rectangle(*rect))}


def run_sigma0(family, length, T, sigma_hi, tol):
    return {"estimate": zeroscan.estimate_sigma0(_gen(family, length), T=T, sigma_hi=sigma_hi, tol=tol)}


def run_classify(family, depth, T, sigma_hi, expect):
    a = _gen(family, depth)
    return {"result": levy.classify(a, arith.von_mangoldt(a), T=T, sigma_hi=sigma_hi)}


def run_law(family, N, sigma, tol, count, seed):
    d = dist.build_distribution(_gen(family, N), sigma, tol)
    mean, var = dist.moments_direct(d)
    draws = dist.sample(d, count, seed, max_tail_mass=tol)
    return {"N_law": d.N, "tail_mass": d.tail_mass_bound, "mean": mean, "var": var, "draws": draws}


def run_cf_grid(family, N, sigma, t_max, points):
    a = _gen(family, N)
    ts = np.linspace(-t_max, t_max, points)
    return {"ts": ts, "values": np.array([series.evaluate_cf(a, sigma, float(t), N=N) for t in ts])}


def run_series_grid(family, N, sigma, t_max, points):
    a = _gen(family, N)
    ts = np.linspace(-t_max, t_max, points)
    results = [series.evaluate_series(a, series.EvalPoint(sigma, float(t)), N=N) for t in ts]
    return {"ts": ts, "values": np.array([r.value for r in results]),
            "tails": np.array([r.tail_bound for r in results])}


def run_cli_eval(family, max, sigma):
    # "--t=-10:10:101" keeps argparse from reading the grid as a flag
    return _cli(["eval", "--gen", family, "--max", str(max), "--sigma", repr(sigma), "--t=-10:10:101"])


def run_cli_cf(family, max, sigma):
    return _cli(["cf", "--gen", family, "--max", str(max), "--sigma", repr(sigma), "--t=-10:10:101"])


def run_cli_sample(family, max, sigma, count, seed, tol):
    return _cli(["sample", "--gen", family, "--max", str(max), "--sigma", repr(sigma),
                 "--count", str(count), "--seed", str(seed), "--tol", repr(tol),
                 "--max-tail-mass", repr(tol)])


RUN = {name[4:]: fn for name, fn in globals().items() if name.startswith("run_")}
RUN["adversarial"] = run_zeros


def run(task: Task) -> dict:
    return RUN[task.kind](**task.params)


# ---------------------------------------------------------------------------
# seeded task lists
# ---------------------------------------------------------------------------

class Draws:
    """Parameter draws for round ``r`` of a seeded cycle of ``rounds`` rounds.

    The i-th draw of every round starts from the same seeded offset u_i and
    is shifted by r / rounds (mod 1), so that one cycle covers each
    parameter's range evenly (stratified) and the cycle's total work barely
    moves with the seed.
    """

    def __init__(self, key: str, r: int, rounds: int):
        self._rng = random.Random(key)
        self._shift = r / rounds

    def u(self) -> float:
        return (self._rng.random() + self._shift) % 1.0

    def uniform(self, lo: float, hi: float) -> float:
        return round(lo + (hi - lo) * self.u(), 6)

    def randint(self, lo: int, hi: int) -> int:
        return lo + min(int(self.u() * (hi - lo + 1)), hi - lo)

    def choice(self, options):
        return options[min(int(self.u() * len(options)), len(options) - 1)]


def _exact_tables(d: Draws) -> list[Task]:
    tasks = []
    # antithetic sizes: each pair's summed cost barely moves with the draw
    for fa, fb in (("ones", "pow:-1"), ("dk:2", "dk:3"), ("absmu", "ezstar")):
        n = d.randint(2048, 8192)
        tasks.append(Task("mangoldt", {"family": fa, "N": n}))
        tasks.append(Task("mangoldt", {"family": fb, "N": 10240 - n}))
    # the sparse dense-loop case; its size sets the workload's peak memory,
    # so it stays at the bottom of the 2^18..2^19 range
    tasks.append(Task("mangoldt", {"family": "oneplusq:2", "N": 1 << 18}))
    tasks.append(Task("sign_sweep", {"N": d.randint(2048, 4096)}))
    m = d.randint(1024, 2048)
    tasks.append(Task("cli_acoeffs", {"family": "ones", "max": m}))
    tasks.append(Task("cli_acoeffs", {"family": "dk:3", "max": 3072 - m}))
    m = d.randint(1024, 2048)
    tasks.append(Task("cli_levy", {"family": "absmu", "max": m, "sigma": d.uniform(1.5, 3.0)}))
    tasks.append(Task("cli_levy", {"family": "dk:2", "max": 3072 - m, "sigma": d.uniform(1.5, 3.0)}))
    tasks.append(Task("cli_paper_tables", {"max": 512}))
    return tasks


# Heights T of the engineered bisections (estimate_sigma0, and classify, which
# calls it).  At some heights the bisection certifies a bracket that misses
# the zero line (checks.probe_known_defects, probed on every run), so the seed
# draws from heights at which it holds.  Below T = 8 classify's bisection
# takes 3 to 5 times as long, which would swing the round's cost.
SIGMA0_HEIGHTS = (5.0, 8.0, 11.0, 14.0, 17.0, 20.0, 24.0, 28.0)
CLASSIFY_HEIGHTS = (8.0, 8.25, 8.5, 8.75, 9.25, 9.5, 9.75, 10.0)


def _zero_scan(d: Draws) -> list[Task]:
    tasks = []
    # coarse windows, zero-free because sigma_min >= 1.5 (see checks.py);
    # the two windows per family have antithetic widths and heights
    for family in ("ones", "absmu", "ezstar"):
        w, h = d.uniform(0.5, 1.5), d.uniform(10.0, 30.0)
        for width, height in ((w, h), (2.0 - w, 40.0 - h)):
            s1, t1 = d.uniform(1.5, 2.0), d.uniform(-10.0, 60.0 - height)
            rect = [s1, round(s1 + width, 6), t1, round(t1 + height, 6)]
            tasks.append(Task("zeros", {"family": family, "length": 1 << 13, "rect": rect, "expect": 0}))
    # escalation ladder: the left edge crosses the minimum of |zeta| near
    # t = 14.1, so the escalated N is set by sigma_min alone; sigma_min is a
    # fixed ladder because N grows exponentially as it drops
    for sigma in (1.42, 1.43, 1.44, 1.45, 1.46, 1.47, 1.48):
        t1 = d.uniform(12.5, 13.8)
        rect = [sigma, round(sigma + d.uniform(0.2, 0.5), 6), t1, round(t1 + d.uniform(1.8, 3.0), 6)]
        tasks.append(Task("zeros", {"family": "ones", "length": 1 << 17, "rect": rect, "expect": 0}))
    # engineered zeros of 1 + 4*2^-s sit at 2 + i(2j+1)pi/log 2; the windows'
    # horizontal edges stay at least pi/(2 log 2) from them
    k = d.randint(1, 7)
    for count in (k, 8 - k):
        j0 = d.randint(-3, 3)
        t_lo = 2 * j0 * math.pi / LOG2 + d.uniform(-2.0, 2.0)
        t_hi = 2 * (j0 + count) * math.pi / LOG2 + d.uniform(-2.0, 2.0)
        rect = [d.uniform(1.6, 1.9), d.uniform(2.1, 2.5), round(t_lo, 6), round(t_hi, 6)]
        tasks.append(Task("zeros", {"family": "oneplusq:2:4", "length": 4096, "rect": rect, "expect": count}))
    tasks.append(Task("sigma0", {"family": "oneplusq:2:4", "length": 16, "T": d.choice(SIGMA0_HEIGHTS),
                                 "sigma_hi": 4.0, "tol": 1e-3}))
    tasks.append(Task("classify", {"family": "ones", "depth": d.randint(2048, 4096), "T": d.uniform(20.0, 30.0),
                                   "sigma_hi": 3.0, "expect": "case2_2"}))
    tasks.append(Task("classify", {"family": "oneplusq:2", "depth": d.randint(2048, 4096),
                                   "T": d.uniform(10.0, 30.0), "sigma_hi": 3.0, "expect": "case2_1"}))
    # the engineered case's bisection cost grows with depth, so it stays at 2048
    tasks.append(Task("classify", {"family": "oneplusq:2:4", "depth": 2048, "T": d.choice(CLASSIFY_HEIGHTS),
                                   "sigma_hi": 4.0, "expect": "case1"}))
    # one contour edge passes delta from the zero at 2 + i pi/log 2
    delta = 10.0 ** (-8.0 + 2.0 * d.u())
    inside = d.u() < 0.5
    t0 = math.pi / LOG2
    rect = [d.uniform(1.7, 1.9), d.uniform(2.1, 2.3), t0 - delta if inside else t0 + delta, t0 + d.uniform(0.5, 1.5)]
    tasks.append(Task("adversarial", {"family": "oneplusq:2:4", "length": 16, "rect": rect,
                                      "expect": int(inside), "delta": delta}))
    return tasks


def _law_tol(N: int, sigma: float) -> float:
    """1e-6, or the next decade the stored table can certify: the relative
    tail mass is at most tail(N)/a(1) with a(1) = 1 and |a(n)| <= 1."""
    tail = N ** (1.0 - sigma) / (sigma - 1.0) + N ** (-sigma)
    for tol in (1e-6, 1e-5, 1e-4, 1e-3):
        if tail < tol:
            return tol
    raise ValueError(f"no tolerance reachable at N={N}, sigma={sigma}")


FLOAT_FAMILIES = ("ones", "absmu", "ezstar")


def _law_moments(d: Draws) -> list[Task]:
    tasks = []
    # The law task that sets the workload's peak memory is pinned: ezstar at
    # the top of the 10^6..2*10^6 range with sigma = 1.96, the smallest sigma
    # at which 2*10^6 coefficients certify tol 1e-6 (its law keeps 1.85*10^6
    # atoms), and 10^6 draws.  absmu, whose sieve and exact zero checks cost
    # twice as much per coefficient, stays at the bottom; ones sits at the
    # top.  The three then cost about the same, so that the twelve laws of a
    # cycle are its slowest tasks and its tail latency (the 11th slowest)
    # falls among them rather than at the edge between them and the grids.
    laws = (("ones", 2 * 10**6, d.uniform(1.8, 2.5), d.randint(2 * 10**5, 10**6)),
            ("absmu", 10**6, d.uniform(1.8, 2.5), d.randint(2 * 10**5, 10**6)),
            ("ezstar", 2 * 10**6, 1.96, 10**6))
    for family, N, sigma, count in laws:
        tasks.append(Task("law", {"family": family, "N": N, "sigma": sigma, "tol": _law_tol(N, sigma),
                                  "count": count, "seed": d.randint(0, 2**32 - 1)}))
    # 1 + 2^-s: two atoms and the whole support stored, so its law is exact
    # and its mean has the closed form -log 2 * 2^-sigma / (1 + 2^-sigma)
    tasks.append(Task("law", {"family": "oneplusq:2", "N": 4096, "sigma": d.uniform(1.8, 2.5), "tol": 1e-6,
                              "count": d.randint(2 * 10**5, 10**6), "seed": d.randint(0, 2**32 - 1)}))
    tasks.append(Task("cf_grid", {"family": d.choice(FLOAT_FAMILIES), "N": 65536,
                                  "sigma": d.uniform(1.5, 3.0), "t_max": d.uniform(5.0, 20.0), "points": 101}))
    # The middle of the cycle's latencies (task_p50_s) is kept to tasks of
    # graded sizes: an antithetic pair and a free draw of series grids, and
    # CLI grids with antithetic --max.  A block of equal tasks there would
    # make the median jump with the machine's speed on that one kernel.
    y = d.randint(0, 9 * 10**5)
    for N in (10**5 + y, 11 * 10**5 - y, d.randint(10**5, 10**6)):
        tasks.append(Task("series_grid", {"family": "ones", "N": N, "sigma": d.uniform(1.5, 3.0),
                                          "t_max": d.uniform(5.0, 20.0), "points": 5}))
    m = d.randint(16384, 65536)
    tasks.append(Task("cli_eval", {"family": d.choice(FLOAT_FAMILIES), "max": m,
                                   "sigma": d.uniform(1.5, 3.0)}))
    tasks.append(Task("cli_cf", {"family": d.choice(FLOAT_FAMILIES), "max": 81920 - m,
                                 "sigma": d.uniform(1.5, 3.0)}))
    tasks.append(Task("cli_sample", {"family": d.choice(FLOAT_FAMILIES), "max": 100000,
                                     "sigma": d.uniform(2.2, 2.5), "count": d.randint(5 * 10**4, 10**5),
                                     "seed": d.randint(0, 2**32 - 1), "tol": 1e-6}))
    return tasks


BUILDERS = {"exact-tables": _exact_tables, "zero-scan": _zero_scan, "law-moments": _law_moments}
WORKLOADS = tuple(BUILDERS)
# rounds per cycle: one cycle takes about 30 s on a shared 2-core x86_64
# machine, and a run measures whole cycles
CYCLE_ROUNDS = {"exact-tables": 5, "zero-scan": 6, "law-moments": 4}


# The seed picks one of POOL fixed cycles per workload (seed mod POOL).  Free
# draws would now and then land on a rare failure of the program (a chance
# false convergence of the contour quadrature, checks.KNOWN_DEFECTS) or of a
# statistical check (a sample mean beyond four standard errors, about 6e-5 per
# check); a finite pool, each cycle of which passes every check at the seed
# commit, keeps the runs' outcome a function of the code alone.
POOL = 10


def build(workload: str, seed: int) -> list[list[Task]]:
    """One cycle of the workload's task list, ``CYCLE_ROUNDS`` rounds; the
    same seed always gives the same list, and consecutive seeds different
    lists."""
    rounds = CYCLE_ROUNDS[workload]
    key = seed % POOL
    return [BUILDERS[workload](Draws(f"{workload}:{key}", r, rounds)) for r in range(rounds)]
