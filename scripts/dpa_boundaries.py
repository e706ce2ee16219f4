#!/usr/bin/env python3
"""Certification boundaries for the parametric-amplifier example.

Strong-control regime (kappa_u > epsilon + kappa_w): only the anti-stable
Lyapunov pair is active, Y = 0, and the controller is realizable exactly at
two isolated gamma values.  Weak-control regime: both pairs are active and
the binding constraint is the spectral-radius coupling rho(XY) < 1.  The
script compares the closed-form boundaries against bisection over the
generic certification and against the gamma* that one Hermitian
eigenvalue problem predicts, and prints the condition synth.threshold finds
binding there: "performance" in the strong-control regime, "coupling" in
the weak one.

Usage: python3 scripts/dpa_boundaries.py
"""

from dataclasses import replace

import numpy as np

from qhinf.devices import (DpaSpec, _dpa_case1_pr_residual, build_dpa,
                           dpa_case2_rho_gamma, dpa_case2_thresholds,
                           dpa_pr_gamma_case1, dpa_pr_gamma_case2)
from qhinf.synth import min_certified_gamma, synthesize, threshold
from qhinf.verify import close_loop


def case1_study() -> None:
    spec = DpaSpec(kappa_w=1.0, kappa_u=4.0, epsilon=1.0, gamma=0.9)
    plant = build_dpa(spec)
    gm, gp = dpa_pr_gamma_case1(spec)
    boundary = min_certified_gamma(plant, 0.3, 2.0, tol=1e-9)
    thr = threshold(plant)
    print("strong-control regime (1, 4, 1):")
    print(f"  certification boundary (bisection) : {boundary:.9f}")
    print(f"  predicted gamma* (eigenproblem)    : {thr.gamma_star:.9f}")
    print(f"  binding condition at gamma*        : {thr.binding}")
    print(f"  realizable-as-is gamma roots       : {gm:.9f}, {gp:.9f}")
    for g in (gm, gp, 0.9):
        res = synthesize(plant.with_gamma(g))
        cl = close_loop(plant.with_gamma(g), res.controller)
        ref_res = _dpa_case1_pr_residual(replace(spec, gamma=g))
        print(f"  gamma={g:.4f}: certified={res.certified} "
              f"reference pr_residual={ref_res:.3e} "
              f"pipeline pr_residual={res.controller.pr_residual:.3e} "
              f"hinf={cl.hinf:.6f}")


def case2_study() -> None:
    spec = DpaSpec(kappa_w=2.0, kappa_u=2.5, epsilon=1.0, gamma=1.4)
    plant = build_dpa(spec)
    t_lo, t_hi = dpa_case2_thresholds(spec)
    rho_g = dpa_case2_rho_gamma(spec)
    boundary = min_certified_gamma(plant, 1.0, 2.0, tol=1e-10)
    thr = threshold(plant)
    predicted = thr.gamma_star
    print("\nweak-control regime (2, 2.5, 1):")
    print(f"  positivity thresholds              : {t_lo:.9f}, {t_hi:.9f}")
    print(f"  spectral-radius boundary (closed)  : {rho_g:.9f}")
    print(f"  certification boundary (bisection) : {boundary:.9f}")
    print(f"  predicted gamma* (eigenproblem)    : {predicted:.9f}")
    print(f"  binding condition at gamma*        : {thr.binding}")
    print(f"  predicted - spectral-radius bound  : {predicted - rho_g:.2e}")
    print(f"  agreement                          : {abs(boundary - max(t_hi, rho_g)):.2e}")
    roots = dpa_pr_gamma_case2(spec)
    print(f"  admissible realizability roots     : {[f'{g:.6f}' for g in roots]}")
    for g in roots:
        res = synthesize(plant.with_gamma(g))
        print(f"  gamma={g:.6f}: certified={res.certified} "
              f"pr_residual={res.controller.pr_residual:.3e}")


def sweep() -> None:
    spec = DpaSpec(kappa_w=2.0, kappa_u=2.5, epsilon=1.0)
    plant = build_dpa(spec)
    print("\ngamma sweep (2, 2.5, 1):")
    for g in np.linspace(1.0, 1.6, 13):
        res = synthesize(plant.with_gamma(float(g)))
        hinf = (close_loop(plant.with_gamma(float(g)), res.controller).hinf
                if res.certified else float("nan"))
        print(f"  gamma={g:.3f} certified={int(res.certified)} "
              f"rho_xy={res.rho_xy if res.rho_xy is not None else float('nan'):.4f} "
              f"hinf={hinf:.4f}")


if __name__ == "__main__":
    case1_study()
    case2_study()
    sweep()
