#!/usr/bin/env python3
"""Trade-off between disturbance attenuation and exact realizability for the
two-input cavity.

For each coupling ratio kappa = kappa1/kappa2 the synthesis certifies any
gamma > sqrt(kappa), but the controller is realizable without extra vacuum
channels only at the roots of a quadratic in gamma^2: one root below the
branch point kappa = sqrt(5) - 2 and two above it.  This script tabulates
sqrt(kappa), the gamma returned by cavity_pr_gamma (above the branch point
the larger root; the smaller one realizes too, nearer sqrt(kappa)) and the
gap between them.

Usage: python3 scripts/cavity_tradeoff.py [out.csv]
"""

import sys

import numpy as np

from qhinf.devices import SQRT5_M2, CavitySpec, build_cavity, cavity_pr_gamma
from qhinf.docio import write_csv
from qhinf.synth import synthesize, threshold
from qhinf.verify import close_loop


def main(out: str | None) -> None:
    rows = []
    for kappa in np.linspace(0.02, 0.98, 49):
        g_pr = cavity_pr_gamma(kappa)
        g_min = float(np.sqrt(kappa))
        spec = CavitySpec(kappa1=kappa, kappa2=1.0, gamma=g_pr)
        plant = build_cavity(spec)
        thr = threshold(plant)
        res = synthesize(plant)
        hinf = close_loop(plant, res.controller).hinf if res.certified else float("nan")
        rows.append([float(kappa), g_min, thr.gamma_star, g_pr, g_pr - g_min,
                     float(res.controller.pr_residual), hinf])
    header = ["kappa_ratio", "sqrt_kappa", "gamma_star", "gamma_pr",
              "attenuation_cost", "pr_residual_at_root", "closed_loop_hinf"]
    if out:
        write_csv(out, header, rows)
        print(f"wrote {len(rows)} rows to {out}")
    else:
        print(",".join(header))
        for r in rows:
            print(",".join(f"{v:.6g}" for v in r))
    print(f"# branch point at kappa = sqrt(5)-2 = {SQRT5_M2:.6f}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else None)
