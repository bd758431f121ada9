"""One benchmark run: set-up, the timed closed loop, and its metrics.

The metric names and units come from BENCHMARK.json (``spec``).
With tracing off the run reports the end-to-end metrics; with tracing on it
reports the per-layer metrics. A per-layer metric of a layer the workload
never calls reads 0.
"""
from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np
import scipy

import lindblad_ode
import tracing
import workloads

# Set-ups per run behind the median setup_s: this process and SETUP_RUNS - 1
# fresh processes that stop after set-up.
SETUP_RUNS = 3
# Modules whose busy share the traced run reports.
LAYER_MODULES = ("basis", "forward", "cp", "odesolve", "inverse", "superop")
# Failure messages kept in the run record.
MAX_MESSAGES = 10


class Tally:
    """Ops attempted and failed, warm-up and set-up included."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def fail(self, what: str, reasons: list[str]) -> None:
        self.failed += 1
        if len(self.messages) < MAX_MESSAGES:
            self.messages.append(f"{what}: {'; '.join(reasons)}")


def run_one(workload, item, tr, tally: Tally) -> float:
    """Run and check one op; return its latency in seconds.

    A raised exception or a failed check is counted and never stops the run.
    The checks run after the clock stops.
    """
    tally.attempted += 1
    start = time.perf_counter()
    try:
        with tr.op():
            out = workload.run(item, tr)
        latency = time.perf_counter() - start
        bad = workload.check(item, out, tr)
    except Exception:  # the benchmark keeps going and reports the failure
        latency = time.perf_counter() - start
        bad = [traceback.format_exc(limit=3)]
    if bad:
        tally.fail(repr(item)[:120], bad)
    return latency


def measure(workload, seconds: float, tracer, tally: Tally) -> dict:
    """Run whole rounds until ``seconds`` have passed.

    With a tracer, rounds alternate between traced and untraced (at least
    one of each), so the tracing overhead is the difference in their rates.
    """
    null = tracing.NullTracer()
    latencies: list[float] = []
    samples = 0
    walls = {True: [0.0, 0], False: [0.0, 0]}  # traced? -> [seconds, ops]
    begin = time.perf_counter()
    k = 0
    while True:
        tr = tracer if tracer is not None and k % 2 == 0 else null
        round_start = time.perf_counter()
        items = workload.round(k)
        for item in items:
            latencies.append(run_one(workload, item, tr, tally))
            samples += workload.samples(item)
        walls[tr.enabled][0] += time.perf_counter() - round_start
        walls[tr.enabled][1] += len(items)
        k += 1
        elapsed = time.perf_counter() - begin
        if elapsed >= seconds and (tracer is None or k >= 2):
            break
    return {"latencies": latencies, "elapsed": elapsed, "samples": samples, "walls": walls, "rounds": k}


def setup_probe(args, root: str, tally: Tally) -> float | None:
    """Set-up time of a fresh benchmark process that stops after set-up."""
    argv = [
        sys.executable, os.path.join(root, "bench", "run.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0", "--setup-only",
    ]
    tally.attempted += 1
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=root, timeout=150)
        if proc.returncode == 0:
            return float(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
        reason = f"exit {proc.returncode}: {proc.stderr[-300:]}"
    except (subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
        reason = repr(exc)
    tally.fail("set-up probe", [reason])
    return None


def _openblas_version() -> str | None:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return f"{blas.get('name')} {blas.get('version')}"


def _commit(root: str) -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest(root: str) -> str:
    """sha256 over the library's sources, which identifies the code when git is absent."""
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "lindblad_ode")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def environment(root: str, seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_version(),
        "lindblad_ode": lindblad_ode.__version__,
        "commit": _commit(root),
        "source_sha256": _source_digest(root),
        "platform": platform.platform(),
        "seed": seed,
    }


def end_to_end(workload, loop: dict, setup_samples: list[float], tally: Tally) -> tuple[dict, dict]:
    """End-to-end metrics, and the extras behind them (counts, error rate)."""
    lat_ms = np.array(loop["latencies"]) * 1e3
    p50, p90 = np.percentile(lat_ms, [50, 90])
    n = len(lat_ms)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": n / loop["elapsed"],
        "latency_p50_ms": float(p50),
        "latency_p90_ms": float(p90),
        "peak_rss_mb": workload.peak_rss_kb() / 1024,
    }
    extras = {
        "error_rate": tally.failed / tally.attempted,
        "mc_samples_per_s": loop["samples"] / loop["elapsed"] if loop["samples"] else None,
        "ops": n,
        "rounds": loop["rounds"],
        "ops_beyond_p90": int(np.sum(lat_ms > p90)),
        "timed_s": loop["elapsed"],
        "setup_samples_s": setup_samples,
    }
    return metrics, extras


def per_layer(workload, loop: dict, tracer: tracing.Tracer) -> dict:
    extra = workload.layer_metrics(tracer)  # may add spans, so summarise after it
    summary = tracing.span_summary(tracer)
    metrics = {
        (f"{name}.{tag}.p50_ms" if tag else f"{name}.p50_ms"): v for (name, tag), v in summary["p50_ms"].items()
    }
    metrics.update(extra)
    op_total = summary["op_total"] or 1.0
    for module in LAYER_MODULES:
        metrics[f"{module}.busy_share"] = summary["busy"].get(module, 0.0) / op_total
    metrics["trace.uncovered_share"] = summary["uncovered"] / op_total
    c = tracer.counters
    metrics["cp.lindblad_ratio"] = c["cp.lindblad"] / c["cp.checks"] if c["cp.checks"] else 0.0
    metrics["odesolve.spectral_ratio"] = c["odesolve.spectral"] / c["odesolve.solves"] if c["odesolve.solves"] else 0.0
    metrics["inverse.roundtrip_err_max"] = tracer.gauges.get("inverse.roundtrip_err", 0.0)
    (t_on, n_on), (t_off, n_off) = loop["walls"][True], loop["walls"][False]
    metrics["trace.overhead_share"] = 1.0 - (n_on / t_on) / (n_off / t_off)
    return metrics


def run(args, spec: dict, root: str, process_age) -> int:
    """One run of ``args.workload``; prints the result line and returns the exit code."""
    tally = Tally()
    workload = workloads.make(args.workload, args.seed, root)
    try:
        for message in workload.setup_failures:
            tally.attempted += 1
            tally.fail("set-up", [message])
        null = tracing.NullTracer()
        for item in workload.warmup:
            run_one(workload, item, null, tally)
        setup_here = process_age()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_here, "failed": tally.failed}))
            return 0 if tally.failed == 0 else 1
        setup_samples = [setup_here]
        for _ in range(0 if args.trace else SETUP_RUNS - 1):
            s = setup_probe(args, root, tally)
            if s is not None:
                setup_samples.append(s)
        tracer = tracing.Tracer() if args.trace else None
        loop = measure(workload, args.seconds, tracer, tally)
        e2e, extras = end_to_end(workload, loop, setup_samples, tally)
        if tracer is None:
            layer = {}
            reported = {m["name"]: {"value": float(e2e[m["name"]]), "unit": m["unit"]} for m in spec["end_to_end"]}
        else:
            layer = per_layer(workload, loop, tracer)
            reported = {  # a layer the workload never calls reads 0
                m["name"]: {"value": float(layer.get(m["name"], 0.0)), "unit": m["unit"]} for m in spec["per_layer"]
            }
    finally:
        workload.close()

    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(root, args.seed),
        "end_to_end": e2e,
        "extras": extras,
        "per_layer": layer,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.messages,
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        tracer.dump(stem + "-spans.json")
    _summary(record, reported)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": reported,
    }))
    return 0


def _summary(record: dict, reported: dict) -> None:
    """Human-readable summary on stderr: every metric with its unit, and the environment."""
    err = sys.stderr
    x = record["extras"]
    print(f"workload {record['workload']}  trace {record['trace']}  "
          f"ops {x['ops']} in {x['rounds']} rounds, {x['timed_s']:.2f} s", file=err)
    for name, m in reported.items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}", file=err)
    print(f"  {'latency_p50_ms':<40} {record['end_to_end']['latency_p50_ms']:>14.6g} ms (not gated)", file=err)
    print(f"  {'error_rate':<40} {x['error_rate']:>14.6g} share "
          f"({record['failed']} of {record['attempted']} failed)", file=err)
    if x["mc_samples_per_s"] is not None:
        print(f"  {'mc_samples_per_s':<40} {x['mc_samples_per_s']:>14.6g} 1/s", file=err)
    print(f"  p50/p90 over {x['ops']} ops, {x['ops_beyond_p90']} beyond p90", file=err)
    for message in record["failures"]:
        print(f"  FAILED {message}", file=err)
    print(f"  environment {json.dumps(record['environment'])}", file=err)
