#!/usr/bin/env python3
"""Random-ensemble comparison of the Lyapunov-pipeline synthesis against a
direct Riccati solver.

Draws random physically realizable plants with a symmetric drift profile,
runs both solution paths, and tabulates certification agreement plus the
worst-case relative difference in the stabilizing solutions.

Usage: python3 scripts/oracle_agreement.py [trials]
"""

import sys

import numpy as np

from qhinf.plant import build_plant
from qhinf.synth import synthesize
from qhinf.verify import are_oracle, attenuation_certificate, close_loop


def random_sym_plant(rng: np.random.Generator, n_modes: int = 2,
                     gamma: float = 1.5):
    while True:
        c1 = rng.uniform(0.3, 1.5, size=n_modes)
        c2 = rng.uniform(0.3, 1.5, size=n_modes)
        if abs(np.min(np.abs(c1**2 - c2**2))) >= 0.1:
            break
    n = 2 * n_modes
    Cd1 = np.kron(np.eye(2), np.diag(c1))
    Cd2 = np.kron(np.eye(2), np.diag(c2))
    q, r = np.linalg.qr(rng.normal(size=(n_modes, n_modes))
                        + 1j * rng.normal(size=(n_modes, n_modes)))
    q = q @ np.diag(np.sign(np.diag(r)))
    R = np.block([[q.real, -q.imag], [q.imag, q.real]])
    return build_plant(np.zeros((n, n)), Cd1 @ R.T, Cd2 @ R.T,
                       np.eye(n), np.eye(n), gamma)


def main() -> None:
    trials = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    rng = np.random.default_rng(7)
    certified = 0
    mismatches = 0
    worst_dx = 0.0
    worst_dy = 0.0
    atten_fail = 0
    for _ in range(trials):
        plant = random_sym_plant(rng, gamma=float(rng.uniform(1.1, 2.5)))
        res = synthesize(plant)
        orc = are_oracle(plant)
        if res.certified != orc.certified:
            mismatches += 1
            continue
        if not res.certified:
            continue
        certified += 1
        sx = 1.0 + np.linalg.norm(orc.X)
        sy = 1.0 + np.linalg.norm(orc.Y)
        worst_dx = max(worst_dx, float(np.linalg.norm(res.X - orc.X) / sx))
        worst_dy = max(worst_dy, float(np.linalg.norm(res.Y - orc.Y) / sy))
        cl = close_loop(plant, res.controller)
        if not attenuation_certificate(cl).passed:
            atten_fail += 1
            print(f"  attenuation failure: gamma={plant.gamma} hinf={cl.hinf}")
    print(f"trials                    : {trials}")
    print(f"certified (both paths)    : {certified}")
    print(f"certification mismatches  : {mismatches}")
    print(f"attenuation failures      : {atten_fail}")
    print(f"max relative dX           : {worst_dx:.3e}")
    print(f"max relative dY           : {worst_dy:.3e}")


if __name__ == "__main__":
    main()
