#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

Run from the root of a source checkout; takes about a minute. Every
workload runs one round on a fresh seed, untraced and traced, and each
metric named in BENCHMARK.json must come back with its unit, with no op
failed. Then corrupted results are fed to the checks, and a round with a
corrupted and a raising op is fed to the timed loop: each must be counted
as a failure without stopping the run. Exits 0 when everything holds.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
import random
import subprocess
import sys

ROOT = os.getcwd()
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.dirname(os.path.abspath(__file__))]

import harness  # noqa: E402
import lindblad_ode as lo  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

problems: list[str] = []


def expect(ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)
        print(f"FAIL {message}", file=sys.stderr)


def check_runs(spec: dict, seed: int) -> None:
    """Every workload, untraced then traced: all metrics present, nothing failed."""
    nonzero_layers: set[str] = set()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", "0", "--trace", str(trace)],
                capture_output=True, text=True, timeout=170,
            )
            what = f"{workload} trace {trace}"
            expect(proc.returncode == 0, f"{what}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            if proc.returncode != 0:
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{what}: result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0, f"{what}: {result['failed']} of {result['attempted']} failed")
            wanted = {m["name"]: m["unit"] for m in spec[section]}
            got = result["metrics"]
            expect(set(got) == set(wanted), f"{what}: metrics {sorted(set(got) ^ set(wanted))} missing or extra")
            for name, unit in wanted.items():
                m = got.get(name, {})
                expect(m.get("unit") == unit, f"{what}: {name} unit {m.get('unit')!r}, expected {unit!r}")
                value = m.get("value")
                expect(isinstance(value, float) and math.isfinite(value), f"{what}: {name} = {value!r}")
                if trace == 0:
                    expect(isinstance(value, float) and value > 0, f"{what}: {name} = {value!r} is not positive")
                elif value:
                    nonzero_layers.add(name)
            print(f"ok   {what}: {len(got)} metrics, {result['attempted']} ops", file=sys.stderr)
    never = sorted({m["name"] for m in spec["per_layer"]} - nonzero_layers)
    # A round-trip error of exactly 0 is possible; every other layer metric must be measured somewhere.
    expect(set(never) <= {"inverse.roundtrip_err_max"}, f"per-layer metrics no workload reported: {never}")


def check_corruption(seed: int) -> None:
    """Corrupted results fail their checks; the loop counts them and keeps going."""
    null = tracing.NullTracer()
    convert = workloads.ConvertWorkload({2: 1}, seed, pool_rounds=1)
    item = next(i for i in convert.round(0) if i.kind == "cp")
    out = convert.run(item, null)
    expect(convert.check(item, out, null) == [], "an uncorrupted convert op fails its checks")
    g = out.pair.G.copy()
    g[0, 1] += 1e-3
    corrupted = {
        "perturbed G": dataclasses.replace(out, pair=lo.OdePair(G=g, c=out.pair.c)),
        "perturbed a": dataclasses.replace(
            out, recovered=lo.MasterEqParams(out.recovered.hamiltonian, out.recovered.rates * (1 + 1e-6))
        ),
        "flipped CP verdict": dataclasses.replace(out, report=dataclasses.replace(out.report, is_lindblad=False)),
        "shifted trajectory": dataclasses.replace(out, trajectory=out.trajectory + 1e-6),
    }
    for what, bad in corrupted.items():
        expect(convert.check(item, bad, null) != [], f"convert check missed a {what}")

    rarity = workloads.RarityWorkload(seed)
    item = workloads.RarityItem("ginoe", 2, 64, seed)
    est = rarity.run(item, null)
    expect(rarity.check(item, est, null) == [], "an uncorrupted rarity op fails its checks")
    bad = dataclasses.replace(est, n_positive=est.n_spectrum_stable + 1)
    expect(rarity.check(item, bad, null) != [], "rarity check missed n_positive > n_spectrum_stable")
    pinned = rarity.warmup[0]
    expect(rarity.check(pinned, dataclasses.replace(est, n_samples=pinned.samples), null) != [],
           "rarity check missed counts that differ from the pinned ones")

    cli = workloads.CliWorkload(seed, ROOT)
    try:
        call = cli.calls[0]
        same = call.expected_stdout
        expect(cli.check(call, (0, same, b""), null) == [], "an identical CLI output fails its check")
        expect(cli.check(call, (0, same.replace(b"1", b"2"), b""), null) != [], "CLI check missed a changed stdout")
        expect(cli.check(call, (1, same, b"error: x"), null) != [], "CLI check missed a wrong exit code")
    finally:
        cli.close()

    class Sabotaged(workloads.ConvertWorkload):
        """Corrupts the first op's G and raises in the second."""

        def run(self, item, tr):
            position = next(i for i, x in enumerate(self.round(0)) if x is item)
            if position == 1:
                raise RuntimeError("deliberate failure")
            out = super().run(item, tr)
            if position == 0:
                out = dataclasses.replace(out, pair=lo.OdePair(G=out.pair.G + 1e-3, c=out.pair.c))
            return out

    sabotaged = Sabotaged({2: 1}, seed, pool_rounds=1)
    tally = harness.Tally()
    loop = harness.measure(sabotaged, 0, None, tally)
    n = len(sabotaged.round(0))
    expect(len(loop["latencies"]) == n and tally.attempted == n, "the loop stopped at a failed op")
    expect(tally.failed == 2, f"the loop counted {tally.failed} failures, expected 2")
    print(f"ok   corrupted results counted as failures ({tally.failed} of {tally.attempted})", file=sys.stderr)


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    seed = random.SystemRandom().randrange(1, 2**31)
    print(f"smoke test, seed {seed}", file=sys.stderr)
    check_corruption(seed)
    check_runs(spec, seed)
    print("smoke test " + ("FAILED" if problems else "passed"), file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
