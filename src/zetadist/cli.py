"""Command-line front end: generators -> computations -> CSV/JSON outputs,
with a reproducibility manifest beside every file written.

Each subcommand returns an ``Output``: its file name, its lines and a
manifest of the values it used.  ``main`` alone writes them, to stdout or to
``--out DIR``, and stamps the manifest with the argv it parsed and its own
wall time.

Exit codes: 0 success, 1 domain error (a coefficient beyond the float range
included), 2 resource error, 3 I/O error.
Errors are emitted as one JSON object on stderr.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from . import __version__
from .arith import ArithmeticFunction, LogLinear, von_mangoldt
from .dist import RNG_ALGORITHM, _check_assumption, build_distribution, moments_analytic, moments_direct, sample
from .errors import DomainError, ResourceLimitError, ZetadistError
from .generators import generate, parse_spec
from .levy import classify, quasi_levy_measure
from .series import _cf_grid, _resolve_n, _series_grid
from .zeroscan import Rectangle, count_zeros, estimate_sigma0

FLOAT_FMT = "%.17g"
T_HELP = "t or start:stop:steps, as in --t -10:10:101"


def _fmt(x: float) -> str:
    return FLOAT_FMT % x


@dataclass
class RunManifest:
    """Everything needed to reproduce one output file byte-for-byte
    (exact outputs) or bit-for-bit on the same binary (float outputs).

    A subcommand fills in the values it used (``N`` is the length or
    truncation actually used); ``main`` fills in ``command`` and
    ``wall_time_s``."""

    source: str
    N: Optional[int] = None
    seed: Optional[int] = None
    tolerances: dict = field(default_factory=dict)
    tool_version: str = __version__
    rng_algorithm: Optional[str] = None
    command: list[str] = field(default_factory=list)
    wall_time_s: float = 0.0

    def write(self, out_path: Path) -> None:
        payload = asdict(self)
        payload["wall_time_s"] = round(self.wall_time_s, 6)
        manifest_path = out_path.with_name(out_path.name + ".manifest.json")
        manifest_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _resolve_function(text: str, length: int) -> tuple[ArithmeticFunction, str]:
    """Generator spec or a JSON file path; returns (function, source label).
    Text that parses as a spec is a generator even when a file of that name
    exists (``./ones`` names the file).  ``length`` sizes generators only: a
    JSON file is used at its own length."""
    path = Path(text)
    try:
        spec = parse_spec(text, length)
    except DomainError:
        if path.suffix != ".json" and not path.exists():
            raise
    else:
        return generate(spec), f"gen:{spec.cli_name()}:N={length}"
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise IOError(f"cannot read {text}: {exc}") from exc
    try:
        fn = ArithmeticFunction.from_json(raw.decode("utf-8"))
    except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
        raise DomainError(f"malformed function file {text}: {exc}") from exc
    return fn, f"file:{text}:sha256:{hashlib.sha256(raw).hexdigest()}"


class Output(NamedTuple):
    """What a subcommand produced: the file name it takes under --out, its
    lines, the manifest of the values it used, and the exit code."""

    filename: str
    lines: list[str]
    manifest: RunManifest
    exit_code: int = 0


def _t_values(arg: str) -> list[float]:
    """Parse --t: single value or start:stop:steps with steps >= 1."""
    parts = arg.split(":")
    try:
        if len(parts) == 1:
            return [float(parts[0])]
        if len(parts) == 3:
            start, stop, steps = float(parts[0]), float(parts[1]), int(parts[2])
            if steps >= 1:
                return list(np.linspace(start, stop, steps))
    except ValueError:
        pass
    raise DomainError(f"bad --t value {arg!r}: expected t or start:stop:steps with steps >= 1")


def _loglinear_str(v: LogLinear) -> str:
    if v.is_zero():
        return "0"
    return " + ".join(f"({c})*log({p})" for p, c in sorted(v.terms.items()))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen(args) -> Output:
    fn, source = _resolve_function(args.gen, args.max)
    return Output("function.json", [fn.to_json()], RunManifest(source, N=len(fn)))


def cmd_convolve(args) -> Output:
    from .arith import dirichlet_convolve

    fa, sa = _resolve_function(args.a, args.max)
    fb, sb = _resolve_function(args.b, args.max)
    c = dirichlet_convolve(fa, fb)
    return Output("convolution.json", [c.to_json()], RunManifest(f"{sa};{sb}", N=len(c)))


def cmd_inverse(args) -> Output:
    from .arith import dirichlet_inverse

    fn, source = _resolve_function(args.a, args.max)
    return Output("inverse.json", [dirichlet_inverse(fn).to_json()], RunManifest(source, N=len(fn)))


def cmd_acoeffs(args) -> Output:
    fn, source = _resolve_function(args.gen, args.max)
    lam = von_mangoldt(fn)
    nonzero, zero = dict(lam.nonzeros()), LogLinear()
    lines = ["n,A_exact,A_float"]
    for n in range(2, lam.N + 1):
        v = nonzero.get(n, zero)
        try:
            value = v.evaluate()
        except OverflowError:
            raise OverflowError(f"A({n}) lies beyond the float range") from None
        lines.append(f"{n},{_loglinear_str(v)},{_fmt(value)}")
    return Output("acoeffs.csv", lines, RunManifest(source, N=lam.N))


def cmd_eval(args) -> Output:
    fn, source = _resolve_function(args.gen, args.max)
    ts = _t_values(args.t)
    values, tb, N_used = _series_grid(fn, args.sigma, ts, args.order, args.N, args.tol)
    lines = ["sigma,t,re,im,tail_bound,N"]
    for t, v in zip(ts, values):
        lines.append(f"{_fmt(args.sigma)},{_fmt(t)},{_fmt(v.real)},{_fmt(v.imag)},{_fmt(tb)},{N_used}")
    used = {"tol": args.tol} if args.N is None and args.tol is not None else {}
    return Output("eval.csv", lines, RunManifest(source, N=N_used, tolerances=used))


def cmd_cf(args) -> Output:
    fn, source = _resolve_function(args.gen, args.max)
    N = _resolve_n(fn, args.sigma, args.N, None, 0)
    ts = _t_values(args.t)
    lines = ["sigma,t,re,im"]
    for t, v in zip(ts, _cf_grid(fn, args.sigma, ts, N)):
        lines.append(f"{_fmt(args.sigma)},{_fmt(t)},{_fmt(v.real)},{_fmt(v.imag)}")
    return Output("cf.csv", lines, RunManifest(source, N=N))


def _parse_rect(arg: str) -> Rectangle:
    try:
        s1, s2, t1, t2 = (float(x) for x in arg.split(","))
    except ValueError as exc:
        raise DomainError(f"bad --rect value {arg!r}: expected sigma1,sigma2,t1,t2") from exc
    return Rectangle(s1, s2, t1, t2)


def cmd_zeros(args) -> Output:
    fn, source = _resolve_function(args.gen, args.max)
    report = count_zeros(fn, _parse_rect(args.rect), N=args.N)
    return Output("zeros.json", [json.dumps(report.to_json_obj(), sort_keys=True)],
                  RunManifest(source, N=report.N_used))


def cmd_sigma0(args) -> Output:
    fn, source = _resolve_function(args.gen, args.max)
    est = estimate_sigma0(fn, T=args.height, sigma_hi=args.sigma_hi, tol=args.tol,
                          sigma_lo=args.sigma_lo, N=args.N)
    line = json.dumps({
        "bracket": list(est.bracket),
        "certificate": est.certificate,
        "degenerate": est.degenerate,
        "height_T": est.height,
        "strip": [est.sigma_lo, est.sigma_hi],
    }, sort_keys=True)
    return Output("sigma0.json", [line], RunManifest(source, N=est.N_used, tolerances={"tol": args.tol}))


def cmd_dist(args) -> Output:
    fn, source = _resolve_function(args.gen, args.max)
    d = build_distribution(fn, args.sigma, args.tol)
    x = d.positions()
    lines = ["n,x,pmf"]
    for n in range(1, min(args.head, d.N) + 1):
        lines.append(f"{n},{_fmt(float(x[n - 1]))},{_fmt(float(d.pmf[n - 1]))}")
    return Output("dist.csv", lines, RunManifest(source, N=d.N, tolerances={"tol": args.tol}))


def cmd_moments(args) -> Output:
    fn, source = _resolve_function(args.gen, args.max)
    _check_assumption(fn)  # both methods describe the law, which needs a(1) > 0 and a(n) >= 0
    if args.method == "analytic":
        lam = von_mangoldt(fn)
        mean, var = moments_analytic(lam, args.sigma)
        n_used, used = lam.N, {}
    else:
        d = build_distribution(fn, args.sigma, args.tol)
        mean, var = moments_direct(d)
        n_used, used = d.N, {"tol": args.tol}
    line = json.dumps({"mean": mean, "variance": var, "method": args.method}, sort_keys=True)
    return Output("moments.json", [line], RunManifest(source, N=n_used, tolerances=used))


def cmd_sample(args) -> Output:
    fn, source = _resolve_function(args.gen, args.max)
    d = build_distribution(fn, args.sigma, args.tol)
    draws = sample(d, args.count, args.seed, workers=args.threads, max_tail_mass=args.max_tail_mass)
    return Output("samples.txt", [_fmt(float(x)) for x in draws],
                  RunManifest(source, N=d.N, seed=args.seed,
                              tolerances={"tol": args.tol, "max_tail_mass": args.max_tail_mass},
                              rng_algorithm=RNG_ALGORITHM))


def cmd_levy(args) -> Output:
    fn, source = _resolve_function(args.gen, args.max)
    lam = von_mangoldt(fn)
    m = quasi_levy_measure(lam, args.sigma)
    lines = ["n,position,mass"]
    for n, pos, mass in zip(m.ns, m.positions, m.masses):
        lines.append(f"{int(n)},{_fmt(float(pos))},{_fmt(float(mass))}")
    return Output("levy.csv", lines, RunManifest(source, N=lam.N))


def cmd_classify(args) -> Output:
    fn, source = _resolve_function(args.gen, args.max)
    lam = von_mangoldt(fn)
    result = classify(fn, lam, T=args.height, sigma_hi=args.sigma_hi,
                      sigma_lo=args.sigma_lo, tol=args.tol, N=args.N)
    return Output("classification.json", [json.dumps(result.to_json_obj(), sort_keys=True)],
                  RunManifest(source, N=lam.N, tolerances={"tol": args.tol}))


# -- paper-tables: recompute the published worked values ---------------------

def _pattern_rows(name: str, maxn: int, expected_ratio) -> list[tuple[str, str, str, bool]]:
    """Rows (label, published, computed, match) for one family's
    A(n)/log n pattern at prime powers."""
    from .arith import factorize

    fn, _ = _resolve_function(name, maxn)
    lam = von_mangoldt(fn)
    rows = []
    for n in range(2, maxn + 1):
        fac = factorize(n)
        if len(fac) == 1:
            p, r = next(iter(fac.items()))
            want = expected_ratio(p, r)
            want_ll = LogLinear.log_of(n, want)
        else:
            want_ll = LogLinear()
        got = lam[n]
        rows.append((f"{name} A({n})", _loglinear_str(want_ll), _loglinear_str(got), got == want_ll))
    return rows


def cmd_paper_tables(args) -> Output:
    maxn = args.max
    lines = [f"reference tables: recomputed worked values up to n={maxn}"]
    failures = 0
    known_flags = 0

    def emit(label: str, published: str, computed: str, match: bool, known: bool = False):
        nonlocal failures, known_flags
        if match and not known:
            status = "OK"
        elif match and known:
            # a documented discrepancy that suddenly matches means the
            # recursion itself changed: that is a failure, not a pass
            status = "UNEXPECTED-MATCH"
            failures += 1
        elif known:
            status = "KNOWN-DISCREPANCY"
            known_flags += 1
        else:
            status = "MISMATCH"
            failures += 1
        lines.append(f"{status:18} {label:24} published={published:24} computed={computed}")

    patterns = [
        ("ones", lambda p, r: Fraction(1, r)),
        ("pow:-1", lambda p, r: Fraction(1, p**r) / r),
        ("dk:2", lambda p, r: Fraction(2, r)),
        ("dk:3", lambda p, r: Fraction(3, r)),
        ("oneplusq:2", lambda p, r: Fraction((-1) ** (r - 1), r) if p == 2 else Fraction(0)),
        ("absmu", lambda p, r: Fraction((-1) ** (r - 1), r)),
    ]
    for name, ratio in patterns:
        for label, published, computed, match in _pattern_rows(name, maxn, ratio):
            emit(label, published, computed, match)

    # The square/half family: published table vs the exact recursion.
    # The published list shows A(n) = log n at n = 2,3,5,7 and (1/8)log 8 at
    # n = 8, but the same source's own displayed recursion steps give
    # (1/2)log n and (1/8)log 2; the recursion is authoritative here and the
    # disagreements are flagged as known.
    ez, _ = _resolve_function("ezstar", max(maxn, 12))
    lam = von_mangoldt(ez)
    h_published = {
        2: (LogLinear.log_of(2), True),
        3: (LogLinear.log_of(3), True),
        4: (LogLinear.log_of(4, Fraction(7, 8)), False),
        5: (LogLinear.log_of(5), True),
        6: (LogLinear.log_of(6, Fraction(1, 4)), False),
        7: (LogLinear.log_of(7), True),
        8: (LogLinear.log_of(8, Fraction(1, 8)), True),
        12: (LogLinear.log_of(12, Fraction(-1, 8)), False),
    }
    for n, (published, known) in h_published.items():
        got = lam[n]
        emit(f"ezstar A({n})", _loglinear_str(published), _loglinear_str(got), got == published, known=known)

    lines.append(f"summary: {failures} unexpected mismatches, {known_flags} known discrepancies flagged")
    return Output("paper-tables.txt", lines, RunManifest("paper-tables", N=maxn), 0 if failures == 0 else 1)


# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it unchanged,
    and each build leaves reference cycles for the cyclic collector."""
    ap = argparse.ArgumentParser(
        prog="zetadist",
        description="Dirichlet-series zeta distributions: exact coefficients, "
        "series evaluation, zero scanning, sampling and classification.",
        epilog="A function holds at most 10^7 coefficients; set ZETADIST_MAX_N to change the cap.",
    )
    ap.add_argument("--out", help="write outputs (plus manifests) into this directory")
    ap.add_argument("--threads", type=int, default=1,
                    help="number of PCG64 sampling streams; they run one after another "
                    "(no threads start) and the draws are defined by (seed, threads)")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p, gen_flag="--gen"):
        p.add_argument(gen_flag, required=True,
                       help="generator spec (ones, pow:<a>, dk:<k>, oneplusq:<q>[:<c>], absmu, ezstar) or JSON file")
        p.add_argument("--max", type=int, default=10**5, help="generated coefficient length")

    p = sub.add_parser("gen", help="emit a coefficient family as JSON")
    common(p)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("convolve", help="Dirichlet convolution of two functions")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--max", type=int, default=10**4)
    p.set_defaults(fn=cmd_convolve)

    p = sub.add_parser("inverse", help="Dirichlet inverse")
    p.add_argument("--a", required=True)
    p.add_argument("--max", type=int, default=10**4)
    p.set_defaults(fn=cmd_inverse)

    p = sub.add_parser("acoeffs", help="exact A(n) table")
    common(p)
    p.set_defaults(fn=cmd_acoeffs)

    p = sub.add_parser("eval", help="evaluate the series (CSV)")
    common(p)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--t", default="0", help=T_HELP)
    p.add_argument("--order", type=int, default=0, choices=(0, 1, 2))
    p.add_argument("--N", type=int)
    p.add_argument("--tol", type=float)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("cf", help="normalized characteristic function values (CSV)")
    common(p)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--t", default="0", help=T_HELP)
    p.add_argument("--N", type=int)
    p.set_defaults(fn=cmd_cf)

    p = sub.add_parser("zeros", help="certified zero count in a rectangle (JSON)")
    common(p)
    p.add_argument("--rect", required=True, help="sigma1,sigma2,t1,t2")
    p.add_argument("--N", type=int)
    p.set_defaults(fn=cmd_zeros)

    p = sub.add_parser("sigma0", help="bounded-height zero-free abscissa bracket (JSON)")
    common(p)
    p.add_argument("--height", type=float, required=True)
    p.add_argument("--sigma-hi", type=float, default=4.0)
    p.add_argument("--sigma-lo", type=float)
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--N", type=int)
    p.set_defaults(fn=cmd_sigma0)

    p = sub.add_parser("dist", help="PMF head of the zeta distribution (CSV)")
    common(p)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--head", type=int, default=20)
    p.set_defaults(fn=cmd_dist)

    p = sub.add_parser("moments", help="mean and variance (JSON)")
    common(p)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--method", choices=("analytic", "direct"), default="analytic")
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(fn=cmd_moments)

    p = sub.add_parser("sample", help="reproducible draws, one per line")
    common(p)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-12,
                   help="relative tail-mass tolerance for the truncation")
    p.add_argument("--max-tail-mass", type=float, default=1e-12,
                   help="refuse to sample when the tail mass exceeds this gate")
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("levy", help="quasi-Levy measure atoms (CSV)")
    common(p)
    p.add_argument("--sigma", type=float, required=True)
    p.set_defaults(fn=cmd_levy)

    p = sub.add_parser("classify", help="divisibility trichotomy verdict (JSON)")
    common(p)
    p.add_argument("--height", type=float, required=True)
    p.add_argument("--sigma-hi", type=float, default=4.0)
    p.add_argument("--sigma-lo", type=float)
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--N", type=int)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("paper-tables", help="recompute the published worked values and flag discrepancies")
    p.add_argument("--max", type=int, default=64)
    p.set_defaults(fn=cmd_paper_tables)

    return ap


def _join_t_values(argv: list[str]) -> list[str]:
    """Glue a --t value that starts with '-' to its flag: argparse reads
    '--t -10:10:101' as two options, but '--t=-10:10:101' as one."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] == "--t" and tok[:1] == "-" and (tok[1:2].isdigit() or tok[1:2] == "."):
            out[-1] = "--t=" + tok
        else:
            out.append(tok)
    return out


def main(argv: Optional[list[str]] = None) -> int:
    """Run one subcommand and write what it returns: to stdout, or with
    --out DIR to DIR/<file> plus a manifest stamped with ``argv`` and the
    wall time of this call.  The only code in the CLI that writes output."""
    start = time.monotonic()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_join_t_values(argv))
    try:
        out = args.fn(args)
        text = "\n".join(out.lines) + ("\n" if out.lines else "")
        if args.out is None:
            sys.stdout.write(text)
        else:
            path = Path(args.out) / out.filename
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(text, encoding="utf-8")
            except OSError as exc:
                raise IOError(str(exc)) from exc
            replace(out.manifest, command=argv, wall_time_s=time.monotonic() - start).write(path)
        return out.exit_code
    except (OSError, OverflowError, ZetadistError) as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 2 if isinstance(exc, ResourceLimitError) else 3 if isinstance(exc, OSError) else 1


if __name__ == "__main__":
    sys.exit(main())
