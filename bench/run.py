#!/usr/bin/env python3
"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the library is imported from
./src, never from an installed copy. The last line of standard output is
the JSON result; a summary with every metric and its unit goes to standard
error, and the full record of the run to .bench_out/. Workloads, metrics and
predictions are described in bench/README.md.
"""
import time

_T_TOP = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def _age_at_top() -> float:
    """Seconds from process start to the top of this script, read from /proc (0 where unavailable)."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            start_ticks = float(fh.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime", encoding="ascii") as fh:
            uptime = float(fh.read().split()[0])
        return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError):
        return 0.0


_AGE_AT_TOP = _age_at_top()


def process_age() -> float:
    """Seconds since this process started."""
    return _AGE_AT_TOP + time.perf_counter() - _T_TOP


def _cap_blas_threads() -> None:
    """At most one BLAS thread per available core, here and in every child."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(nproc, wanted)))


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "lindblad_ode", "__init__.py")):
        print(f"error: no library sources at {src}/lindblad_ode; run from a checkout root", file=sys.stderr)
        return 2
    _cap_blas_threads()
    sys.path.insert(0, src)
    import harness  # noqa: E402  (imports numpy, so only after the thread cap)
    import lindblad_ode  # noqa: E402

    if os.path.commonpath([os.path.realpath(lindblad_ode.__file__), os.path.realpath(src)]) != os.path.realpath(src):
        print(f"error: lindblad_ode imported from {lindblad_ode.__file__}, not from {src}", file=sys.stderr)
        return 2
    return harness.run(args, spec, root, process_age)


if __name__ == "__main__":
    sys.exit(main())
