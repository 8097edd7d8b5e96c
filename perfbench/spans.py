"""Span tracing for the benchmark's traced runs.

The tracer replaces the public functions of each zetadist module with thin
wrappers at every name their callers bind (``zetadist.cli.von_mangoldt``,
``zetadist.zeroscan.evaluate_series_batch``, ``LogLinear.sign`` ...), records
one in-memory span per call and puts the originals back afterwards.  Nothing
under ``src/`` changes.  A span is ``[name, start, end, parent, task, work]``;
``work`` is a per-function count (coefficients generated, terms summed ...).
Calls made outside a benchmark task (the output checks) are not recorded.
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

from zetadist import arith, cli, dist, generators, levy, series, zeroscan

LAYERS = ("generators", "arith", "series", "zeroscan", "dist", "levy", "cli", "bench")

NAME, START, END, PARENT, TASK, WORK = range(6)


def _batch_work(args, kwargs, out):
    """(points, terms) of one batch evaluation; terms = points x N used."""
    a, points = args[0], args[1]
    N = kwargs.get("N", args[3] if len(args) > 3 else None)
    return len(points), len(points) * min(N if N is not None else series.DEFAULT_N, len(a))


# (module, attribute, span name, work counter); the span's layer is the
# name's prefix.
FUNCTIONS = (
    (generators, "generate", "generators.generate", lambda a, k, out: len(out)),
    (arith, "dirichlet_convolve", "arith.convolve", None),
    (arith, "dirichlet_inverse", "arith.inverse", None),
    (arith, "log_twist", "arith.log_twist", None),
    (arith, "von_mangoldt", "arith.von_mangoldt", lambda a, k, out: out.nonzero_count()),
    (series, "evaluate_series", "series.evaluate_series", None),
    (series, "evaluate_cf", "series.evaluate_cf", None),
    (series, "evaluate_log_series", "series.evaluate_log_series", None),
    (series, "_partial_sum", "series.kernel_point", lambda a, k, out: a[3]),
    (series, "evaluate_series_batch", "series.kernel_batch", _batch_work),
    (zeroscan, "count_zeros", "zeroscan.count_zeros", lambda a, k, out: (out.N_used, out.certified)),
    (zeroscan, "estimate_sigma0", "zeroscan.estimate_sigma0", None),
    (zeroscan, "localize_zeros", "zeroscan.localize_zeros", None),
    (dist, "build_distribution", "dist.build", lambda a, k, out: out.N),
    (dist, "moments_direct", "dist.moments", None),
    (dist, "moments_analytic", "dist.moments", None),
    (dist, "sample", "dist.sample", lambda a, k, out: out.size),
    (levy, "classify", "levy.classify", None),
    (levy, "quasi_levy_measure", "levy.measure", None),
    (levy, "observed_decay_abscissa", "levy.observed_abscissa", None),
    (levy, "compound_poisson_cf", "levy.compound_poisson_cf", None),
    (levy, "validate_characteristic", "levy.validate_characteristic", None),
    (cli, "main", "cli.main", None),
)

# (class, method, span name, cache slot): with a cache slot only the call
# that fills the cache is a span; later calls are plain attribute reads.
METHODS = (
    (arith.LogLinear, "sign", "arith.sign", None),
    (arith.MangoldtSequence, "first_negative", "arith.first_negative", None),
    (arith.MangoldtSequence, "float_arrays", "arith.mangoldt_floats", "_array_cache"),
    (arith.ArithmeticFunction, "float_coeffs", "arith.float_view", "_float_cache"),
    (arith.ArithmeticFunction, "log_n", "arith.log_n", "_logn_cache"),
)


class Tracer:
    """Collects spans while installed.  ``begin_task``/``end_task``
    bracket one benchmark task; calls outside a task are not recorded."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, work, cache_slot=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if not stack or (cache_slot is not None and getattr(args[0], cache_slot) is not None):
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1], spans[stack[0]][TASK], None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if work is not None:
                rec[WORK] = work(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        wrappers = {}
        for module, attr, name, work in FUNCTIONS:
            fn = getattr(module, attr)
            wrappers[id(fn)] = self._wrap(fn, name, work)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "zetadist" and not mod_name.startswith("zetadist."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)
        for cls, attr, name, slot in METHODS:
            fn = cls.__dict__[attr]
            self._restore.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(fn, name, None, slot))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def begin_task(self, task_id: str) -> None:
        self._stack.append(len(self.spans))
        self.spans.append(["bench.task", time.perf_counter(), 0.0, -1, task_id, None])

    def end_task(self) -> None:
        self.spans[self._stack.pop()][END] = time.perf_counter()
        self._stack.clear()


def write_spans(path, spans) -> None:
    """One JSON line per span; a span's parent is the id of another line, or -1."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, s in enumerate(spans):
            fh.write(json.dumps({
                "id": i, "name": s[NAME], "start": s[START], "end": s[END],
                "parent": s[PARENT], "task": s[TASK], "work": s[WORK],
            }) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover (children
    run one after another inside their parent, so their durations add)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def layer_metrics(spans: list[list], bytes_out: int) -> dict[str, float]:
    """Per-layer metrics of a traced run, summed over its traced rounds."""
    own = self_times(spans)
    total = defaultdict(float)      # inclusive time per span name
    calls = defaultdict(int)
    work = defaultdict(float)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    self_by_name = defaultdict(float)
    cz_certified = n_max = evals = 0
    for s, t in zip(spans, own):
        name = s[NAME]
        total[name] += s[END] - s[START]
        self_by_name[name] += t
        calls[name] += 1
        layer_self[name.split(".", 1)[0]] += t
        if s[WORK] is None:
            continue
        if name == "zeroscan.count_zeros":
            n_used, certified = s[WORK]
            cz_certified += certified
            n_max = max(n_max, n_used)
        elif name == "series.kernel_batch":
            evals += s[WORK][0]
            work[name] += s[WORK][1]
        else:
            work[name] += s[WORK]

    kernel_s = self_by_name["series.kernel_point"] + self_by_name["series.kernel_batch"]
    terms = work["series.kernel_point"] + work["series.kernel_batch"]
    cz_calls = calls["zeroscan.count_zeros"]
    sample_s = total["dist.sample"]
    out = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    out.update({
        "generators.generate_s": total["generators.generate"],
        "generators.coeffs": work["generators.generate"],
        "arith.convolve_s": total["arith.convolve"],
        "arith.von_mangoldt_s": total["arith.von_mangoldt"],
        "arith.mangoldt_nonzeros": work["arith.von_mangoldt"],
        "arith.float_view_s": total["arith.float_view"],
        "arith.sign_calls": calls["arith.sign"],
        "arith.sign_s": total["arith.sign"],
        "series.eval_calls": calls["series.kernel_point"] + calls["series.kernel_batch"],
        "series.terms": terms,
        "series.kernel_s": kernel_s,
        "series.terms_per_s": terms / kernel_s if kernel_s > 0 else 0.0,
        "zeroscan.count_zeros_calls": cz_calls,
        "zeroscan.contour_evals": evals,
        "zeroscan.uncertified": cz_calls - cz_certified,
        "zeroscan.certified_ratio": cz_certified / cz_calls if cz_calls else 0.0,
        "zeroscan.N_used_max": n_max,
        "dist.build_s": total["dist.build"],
        "dist.law_N": work["dist.build"],
        "dist.moments_s": total["dist.moments"],
        "dist.sample_s": sample_s,
        "dist.draws_per_s": work["dist.sample"] / sample_s if sample_s > 0 else 0.0,
        "levy.classify_self_s": self_by_name["levy.classify"],
        "levy.measure_s": total["levy.measure"],
        "levy.observed_abscissa_s": total["levy.observed_abscissa"],
        "cli.bytes_out": bytes_out,
    })
    return out


def unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "cli.bytes_out":
        return "B"
    return "count"
