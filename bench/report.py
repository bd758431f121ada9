#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise every metric.

    python3 bench/report.py [--workloads convert,cli] [--seeds 1-10]
                            [--seconds 30] [--write-baseline bench/baseline.json]

Run from the root of a source checkout. Each run is a separate
``bench/run.py`` process, run one after another: every seed untraced, then
one traced run on the first seed. For every workload and end-to-end metric
the table gives the median over the seeds, the quartiles, and the spread
(q3 - q1) / median next to the metric's bound in BENCHMARK.json. Median latency,
error rate and Monte Carlo samples per second are read from the run records in
.bench_out/; the per-layer figures come from the traced run.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _stats(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


# Units of the figures that the run records add to BENCHMARK.json's metrics.
EXTRA_UNITS = {"latency_p50_ms": "ms", "error_rate": "share", "mc_samples_per_s": "1/s", "ops": "count"}


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--write-baseline", default=None, help="write the summary to this JSON file")
    args = parser.parse_args()

    summary = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        walls = []
        for seed in _seeds(args.seeds):
            start = time.perf_counter()
            result = _run(workload, seed, args.seconds, 0)
            walls.append(time.perf_counter() - start)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            with open(f".bench_out/{workload}-seed{seed}-trace0.json", encoding="utf-8") as fh:
                record = json.load(fh)
            extras = record["extras"]
            values.setdefault("latency_p50_ms", []).append(record["end_to_end"]["latency_p50_ms"])
            values.setdefault("error_rate", []).append(result["failed"] / result["attempted"])
            if extras["mc_samples_per_s"] is not None:
                values.setdefault("mc_samples_per_s", []).append(extras["mc_samples_per_s"])
            values.setdefault("ops", []).append(extras["ops"])
            print(f"{workload} seed {seed}: {walls[-1]:.1f} s wall", file=sys.stderr)
        traced = _run(workload, _seeds(args.seeds)[0], args.seconds, 1)["metrics"]
        summary[workload] = {
            "end_to_end": {name: _stats(v) for name, v in values.items()},
            "per_layer": {name: m["value"] for name, m in traced.items() if m["value"]},
            "run_wall_s": _stats(walls),
            "seeds": _seeds(args.seeds),
        }

    bounds = {m["name"]: (m["bound"], m["unit"]) for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload, s in summary.items():
        print(f"{workload}  (wall per run {s['run_wall_s']['median']:.1f} s)")
        for name, st in s["end_to_end"].items():
            bound, unit = bounds.get(name, (None, EXTRA_UNITS.get(name, "")))
            flag = "" if bound is None else ("ok" if st["spread"] < bound / 3 else "WIDE")
            print(f"  {name:<18} {st['median']:>12.6g} {unit:<5} q1 {st['q1']:<12.6g} q3 {st['q3']:<12.6g}"
                  f" spread {st['spread']:.4f}" + ("" if bound is None else f" / bound {bound} {flag}"))
        for name, value in s["per_layer"].items():
            print(f"    {name:<38} {value:>12.6g} {units[name]}")
    if args.write_baseline:
        with open(args.write_baseline, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
