"""Monte Carlo sweep: how rare is complete positivity among random generators?

Estimates the probability that a randomly drawn coherence-vector ODE
(G, c) with i.i.d. Gaussian entries corresponds to a completely positive
master equation, for a range of Hilbert space dimensions, and the analogous
probability that a GUE-distributed Hermitian matrix is positive semidefinite.

Usage:
    python3 scripts/rarity_sweep.py --samples 100000 --seed 7 --out results/rarity.json
"""

import argparse
import json
import pathlib
import time

from lindblad_ode import (
    estimate_p_gue,
    estimate_p_lindblad_ginoe,
    gue_p_analytic,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--samples", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--dims", type=int, nargs="+", default=[2, 3, 4])
    ap.add_argument("--gue-sizes", type=int, nargs="+", default=[1, 2, 3, 4])
    ap.add_argument("--out", default="results/rarity.json")
    args = ap.parse_args()

    results = {"samples": args.samples, "seed": args.seed, "ginoe": [], "gue": []}

    for d in args.dims:
        t0 = time.perf_counter()
        est = estimate_p_lindblad_ginoe(d, n_samples=args.samples, seed=args.seed)
        dt = time.perf_counter() - t0
        results["ginoe"].append(
            {
                "d": d,
                "p_hat": est.p_hat,
                "ci": [est.ci_low, est.ci_high],
                "n_positive": est.n_positive,
                "n_spectrum_stable": est.n_spectrum_stable,
                "seconds": round(dt, 2),
            }
        )
        print(
            f"GinOE d={d}: p_hat={est.p_hat:.3e} "
            f"[{est.ci_low:.3e}, {est.ci_high:.3e}]  "
            f"stable spectra: {est.n_spectrum_stable}/{est.n_samples}  ({dt:.1f}s)"
        )

    for j in args.gue_sizes:
        est = estimate_p_gue(j, n_samples=args.samples, seed=args.seed)
        row = {"J": j, "p_hat": est.p_hat, "ci": [est.ci_low, est.ci_high]}
        try:
            row["analytic"] = gue_p_analytic(j)
        except ValueError:
            row["analytic"] = None
        results["gue"].append(row)
        extra = "" if row["analytic"] is None else f"  analytic={row['analytic']:.6g}"
        print(f"GUE   J={j}: p_hat={est.p_hat:.4f} [{est.ci_low:.4f}, {est.ci_high:.4f}]{extra}")

    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=2))
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
