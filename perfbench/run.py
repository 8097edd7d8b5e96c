"""zetadist benchmark: one closed-loop client runs a seeded task list of
library and in-process CLI calls, checks every output, and prints the metrics.

    python3 perfbench/run.py --workload exact-tables --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (spans recorded by wrapping the program's public
functions; see spans.py).  The seed draws one cycle of rounds, each round
with fresh parameters.  An untraced run measures whole cycles until the next
would overrun ``--seconds``, at least one; a traced run runs the cycle's
rounds each untraced and then traced, until the next would overrun.  The
last line of standard output is one JSON object; the lines before it say the
same for a person, with the environment.  Results and spans go to
``.bench_out/`` in the checkout.
"""
from __future__ import annotations

import os

# A recorded benchmark setting, the same on every commit: the BLAS pool is
# pinned to one thread so that the client uses at most one core for numpy.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 7
PROBE_TIMEOUT_S = 60


def parse_args(workloads, argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="import and build the task list, print 'ready', exit (set-up timing)")
    return ap.parse_args(argv)


def import_program():
    """Import the program from the checkout's src/; exit 2 when it is absent."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import tasks  # noqa: F401  (imports zetadist)
    except ImportError as exc:
        print(f"cannot import the program from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if src not in Path(tasks.arith.__file__).resolve().parents:
        print(f"zetadist was imported from {tasks.arith.__file__}, not from {src}", file=sys.stderr)
        sys.exit(2)
    return tasks


def measure_setup(args) -> list[float]:
    """Seconds from process start until the task list is ready, in fresh
    processes: interpreter start, imports and building the task list."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                t1 = time.perf_counter()
                _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise RuntimeError("set-up probe timed out") from None
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err.strip()}")
        samples.append(t1 - t0)
    return samples


def environment(args) -> dict:
    import numpy as np

    blas = None
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        pass
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
    }


def run_pass(round_tasks, tasks, checks, digests, tracer=None) -> dict:
    """One pass over one round of tasks.  Only the program calls are timed.
    Each output is checked, or, when ``digests`` already holds the task (the
    traced repeat of a round), must reproduce the recorded digest."""
    records, bytes_out = [], 0
    for task in round_tasks:
        rec = {"id": task.id, "ok": True}
        if tracer is not None:
            tracer.begin_task(task.id)
        t0 = time.perf_counter()
        try:
            out = tasks.run(task)
        except Exception:
            out = None
            rec.update(ok=False, error=traceback.format_exc(limit=3))
        finally:
            rec["latency_s"] = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_task()
        if out is not None:
            bytes_out += out.get("bytes_out", 0)
            try:
                d = checks.digest(out)
                if task.id not in digests:
                    checks.CHECKS[task.kind](task.params, out)
                    digests[task.id] = d
                elif digests[task.id] != d:
                    raise checks.CheckFailed("output differs from the untraced run")
            except Exception as exc:
                rec.update(ok=False, error=f"{type(exc).__name__}: {exc}")
        records.append(rec)
    return {"records": records, "job_s": sum(r["latency_s"] for r in records), "bytes_out": bytes_out}


def hd_quantile(xs: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the order statistics weighted
    by a Beta(p(n+1), (1-p)(n+1)) distribution over their ranks.  The tasks
    around a rank differ in kind, and the machine's speed changes unlike for
    each kind, so a weighted average of neighbouring order statistics varies
    less from run to run than any single one."""
    import mpmath  # as the checks; not imported before the set-up probe

    xs = sorted(xs)
    n = len(xs)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    return sum(float(mpmath.betainc(a, b, i / n, (i + 1) / n, regularized=True)) * x for i, x in enumerate(xs))


def tail_latency(latencies: list[float], n_min: int) -> tuple[float, float]:
    """(latency, percentile) at the highest percentile that leaves ten task
    runs beyond it in one cycle (``n_min`` task runs), so that the percentile
    does not move with the number of cycles a run makes."""
    q = max(n_min - 10, 1) / n_min
    return hd_quantile(latencies, q), 100.0 * q


def main(argv=None) -> int:
    tasks = import_program()
    args = parse_args(tasks.WORKLOADS, argv)
    if args.setup_probe:
        tasks.build(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    import checks
    import spans

    setup = measure_setup(args)
    cycle = tasks.build(args.workload, args.seed)
    env = environment(args)

    # An untraced run measures whole cycles, as many as fit in --seconds and
    # at least one, so that every run covers each parameter range evenly.  A
    # traced run takes the cycle's rounds in order, each once untraced and
    # once traced (the same work both ways), as many as fit and at least one.
    passes, digests = [], {}
    tracer = spans.Tracer()
    start = time.perf_counter()
    if args.trace:
        longest = 0.0
        for round_tasks in cycle:
            t0 = time.perf_counter()
            passes.append(run_pass(round_tasks, tasks, checks, digests) | {"kind": "untraced", "cycle": 0})
            tracer.install()
            try:
                passes.append(run_pass(round_tasks, tasks, checks, digests, tracer) | {"kind": "traced"})
            finally:
                tracer.uninstall()
            longest = max(longest, time.perf_counter() - t0)
            if time.perf_counter() - start + longest > args.seconds:
                break
    else:
        for c in itertools.count():
            t0 = time.perf_counter()
            for round_tasks in cycle:
                passes.append(run_pass(round_tasks, tasks, checks, digests) | {"kind": "untraced", "cycle": c})
            now = time.perf_counter()
            if now - start + (now - t0) > args.seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    defects = checks.probe_known_defects()

    records = [r for p in passes for r in p["records"]]
    failures = [r for r in records if not r["ok"]]
    untraced = [p for p in passes if p["kind"] == "untraced"]
    lat = [r["latency_s"] for p in untraced for r in p["records"]]
    tail, tail_pct = tail_latency(lat, sum(len(round_tasks) for round_tasks in cycle))
    # job_s: the summed task latencies of one pass over the whole task list
    # (one cycle; in a traced run, the untraced rounds it made)
    cycle_s = defaultdict(float)
    for p in untraced:
        cycle_s[p["cycle"]] += p["job_s"]
    e2e = {
        "setup_s": (median(setup), "s"),
        "job_s": (median(cycle_s.values()), "s"),
        "task_p50_s": (hd_quantile(lat, 0.5), "s"),
        "task_tail_s": (tail, "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh processes",
        "job_s": f"median of {len(cycle_s)} passes over {len(untraced) // len(cycle_s)} rounds",
        "task_p50_s": f"Harrell-Davis median of {len(lat)} task runs",
        "task_tail_s": f"Harrell-Davis p{tail_pct:.1f} of {len(lat)} task runs",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    correct = not failures
    layer = {}
    if args.trace:
        traced = [p for p in passes if p["kind"] == "traced"]
        layer = spans.layer_metrics(tracer.spans, sum(p["bytes_out"] for p in traced))
        traced_s = sum(p["job_s"] for p in traced)
        layer["trace.traced_job_s"] = traced_s
        layer["trace.untraced_job_s"] = e2e["job_s"][0]
        layer["trace.overhead_ratio"] = traced_s / e2e["job_s"][0]
        # the layers' self times plus the benchmark's own must add up to the
        # traced job time; anything else means a span was lost or overlapped
        layer["trace.accounted_ratio"] = sum(layer[f"{name}.self_s"] for name in spans.LAYERS) / traced_s
        if abs(layer["trace.accounted_ratio"] - 1.0) > 0.01:
            print(f"span accounting off: self times cover {layer['trace.accounted_ratio']:.4f} of the traced job",
                  file=sys.stderr)
            correct = False

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer.spans:
        spans.write_spans(OUT_DIR / f"{stem}.spans.jsonl", tracer.spans)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({
        "env": env,
        "rounds": [[{"kind": t.kind, "params": t.params} for t in round_tasks]
                   for round_tasks in cycle],
        "setup_samples_s": setup,
        "passes": [{k: p[k] for k in ("kind", "job_s", "records")} for p in passes],
        "digests": digests,
        "end_to_end": {k: v[0] for k, v in e2e.items()},
        "per_layer": layer,
        "known_defects": defects,
    }, indent=1, default=str) + "\n")

    print(f"env {json.dumps(env, sort_keys=True)}")
    for r in failures[:5]:
        print(f"FAILED {r['id']}: {r['error'].strip().splitlines()[-1]}")
    for name, (value, unit) in e2e.items():
        print(f"{name:14} {value:12.6g} {unit:6} {notes[name]}")
    print(f"{'fail_ratio':14} {len(failures) / len(records):12.6g} {'ratio':6} "
          f"{len(failures)} of {len(records)} task runs")
    for d in defects:
        print(f"known defect {'reproduces' if d['reproduces'] else 'no longer reproduces'} "
              f"({d['defect']}): {d['call']} -> {d['got']}")
    if args.trace:
        job = layer["trace.traced_job_s"]
        print(f"per-layer totals over {len(traced)} traced rounds")
        for name in spans.LAYERS:
            print(f"self {name:11} {layer[name + '.self_s']:10.4f} s  {100 * layer[name + '.self_s'] / job:5.1f}%")
        for name, value in layer.items():
            print(f"{name:28} {value:.6g}")
        metrics = {name: {"value": value, "unit": spans.unit(name)} for name, value in layer.items()}
    else:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in e2e.items()}
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
