"""End-to-end acceptance suite.

Each criterion prints a `[criterion N] PASS/FAIL` line (run with -s or -v to
see them); assertions pin the tolerances.  Two sub-assertions covering
tabulated closed forms that are inconsistent with their own defining
equations are marked strict-xfail; the corrected forms are asserted instead
and the discrepancies are documented in the device-module docstrings.
"""

from dataclasses import replace

import numpy as np
import pytest

from conftest import random_passive_plant, random_slh_model, random_sym_plant
from qhinf.devices import (SQRT5_M2, CavitySpec, DpaSpec, build_cavity,
                           build_dpa, cavity_pr_gamma, cavity_reference,
                           dpa_case1_reference, dpa_case2_rho_gamma,
                           dpa_case2_rho_gamma_reference,
                           dpa_case2_thresholds, dpa_pr_gamma_case1,
                           _cavity_pr_residual, _dpa_case1_pr_residual)
from qhinf.qls import (build_complex_system, build_passive_system,
                       check_physical_realizability, flat_adjoint,
                       stability_and_minimality, to_quadrature,
                       transfer_matrix)
from qhinf.synth import min_certified_gamma, synthesize, threshold
from qhinf.verify import are_oracle, attenuation_certificate, close_loop


def report(n: int, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"[criterion {n}] {tag}" + (f" ({detail})" if detail else ""))


# ---------------------------------------------------------------------------
# 1. cavity golden suite
# ---------------------------------------------------------------------------

def test_criterion_1_cavity_golden():
    spec = CavitySpec(kappa1=1.0, kappa2=4.0, gamma=0.6)
    plant = build_cavity(spec)
    res = synthesize(plant)
    ref = cavity_reference(spec)

    ok_st = (abs(res.quad.S[0, 0].real - 4 / 3) < 1e-12
             and abs(res.quad.T[0, 0].real - 1 / 3) < 1e-12)

    lo, hi = 0.1, 1.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if synthesize(plant.with_gamma(mid)).certified:
            hi = mid
        else:
            lo = mid
    gamma_star = hi
    ok_gs = abs(gamma_star - 0.5) < 1e-6

    ctl = res.controller
    def rel(a, b): return abs(a - b) / max(1.0, abs(b))
    ok_ctl = (res.certified
              and rel(ctl.AK[0, 0].real, ref["AK"]) < 1e-10
              and rel(ctl.BK[0, 0].real, ref["BK"]) < 1e-10
              and rel(ctl.CK[0, 0].real, ref["CK"]) < 1e-10)

    ok = ok_st and ok_gs and ok_ctl
    report(1, ok, f"gamma* = {gamma_star:.8f}")
    assert ok_st, "Lyapunov scalars S, T deviate from closed form"
    assert ok_gs, f"certification threshold {gamma_star} != 0.5"
    assert ok_ctl, "controller matrices deviate from closed form"


# ---------------------------------------------------------------------------
# 2. cavity realizability gamma
# ---------------------------------------------------------------------------

def test_criterion_2_cavity_pr_gamma():
    g_branch = cavity_pr_gamma(SQRT5_M2)
    ok_branch = abs(g_branch - 0.555893) < 5e-6

    rng = np.random.default_rng(2024)
    kappas = rng.uniform(0.02, 0.98, size=20)
    ok_samples = True
    for kappa in kappas:
        g = cavity_pr_gamma(float(kappa))
        if not (g > np.sqrt(kappa) and _cavity_pr_residual(float(kappa), g) < 1e-9):
            ok_samples = False
    ok = ok_branch and ok_samples
    report(2, ok, f"branch-point gamma = {g_branch:.6f}")
    assert ok_branch, f"branch-point value {g_branch} != 0.555893 +/- 5e-6"
    assert ok_samples, "a sampled kappa violates residual < 1e-9 or gamma > sqrt(kappa)"


# ---------------------------------------------------------------------------
# 3. DPA strong-control golden suite
# ---------------------------------------------------------------------------

def test_criterion_3_dpa_case1_golden():
    spec = DpaSpec(kappa_w=1.0, kappa_u=4.0, epsilon=1.0, gamma=0.9)
    res = synthesize(build_dpa(spec))
    ref = dpa_case1_reference(spec)

    ok_y = bool(np.all(res.Y == 0.0)) or np.linalg.norm(res.Y) == 0.0
    ok_x = np.linalg.norm(res.X - ref["x_stabilizing"]) < 1e-10

    gm, gp = dpa_pr_gamma_case1(spec)
    ok_roots = (gp >= gm
                and _dpa_case1_pr_residual(replace(spec, gamma=gm)) < 1e-9
                and _dpa_case1_pr_residual(replace(spec, gamma=gp)) < 1e-9)

    ok = res.certified and ok_y and ok_x and ok_roots
    report(3, ok, f"realizable at gamma = {gm:.6f}, {gp:.6f}")
    assert res.certified
    assert ok_y, "Y is not exactly zero"
    assert ok_x, "X deviates from the stabilizing diagonal closed form"
    assert ok_roots, "realizability roots fail the residual check"


@pytest.mark.xfail(strict=True, reason=(
    "the tabulated diagonal state-feedback solution does not satisfy its own "
    "Riccati equation; the pipeline returns the stabilizing solution, which "
    "differs (companion assertion in test_criterion_3_dpa_case1_golden)"))
def test_criterion_3_tabulated_x_form():
    spec = DpaSpec(kappa_w=1.0, kappa_u=4.0, epsilon=1.0, gamma=0.9)
    res = synthesize(build_dpa(spec))
    ref = dpa_case1_reference(spec)
    assert np.linalg.norm(res.X - ref["X"]) < 1e-10
    ok_ctl = (np.linalg.norm(res.controller.AK - ref["AK"]) < 1e-10
              and np.linalg.norm(res.controller.BK - ref["BK"]) < 1e-10
              and np.linalg.norm(res.controller.CK - ref["CK"]) < 1e-10)
    assert ok_ctl


# ---------------------------------------------------------------------------
# 4. DPA weak-control conditions
# ---------------------------------------------------------------------------

def test_criterion_4_dpa_case2_conditions():
    spec = DpaSpec(kappa_w=2.0, kappa_u=2.5, epsilon=1.0, gamma=1.4)
    plant = build_dpa(spec)

    lo, hi = dpa_case2_thresholds(spec)
    ok_thr = (abs(lo - np.sqrt(2.0 / 2.5)) < 1e-8
              and abs(hi - np.sqrt(2.5 / 2.0)) < 1e-8)

    boundary = min_certified_gamma(plant, 1.0, 2.0, tol=1e-10)
    rho_g = dpa_case2_rho_gamma(spec)
    ok_rho = abs(rho_g - boundary) < 1e-8

    ok = ok_thr and ok_rho
    report(4, ok, f"boundary = {boundary:.9f}")
    assert ok_thr, "positivity thresholds deviate from sqrt(kw/ku), sqrt(ku/kw)"
    assert ok_rho, (f"spectral-radius boundary {rho_g} vs bisection {boundary}")


@pytest.mark.xfail(strict=True, reason=(
    "the tabulated spectral-radius lower bound omits a gamma^2 factor inside "
    "its radical and does not match the bisection boundary; the corrected "
    "closed form is asserted in test_criterion_4_dpa_case2_conditions"))
def test_criterion_4_tabulated_rho_bound():
    spec = DpaSpec(kappa_w=2.0, kappa_u=2.5, epsilon=1.0, gamma=1.4)
    boundary = min_certified_gamma(build_dpa(spec), 1.0, 2.0, tol=1e-10)
    assert abs(dpa_case2_rho_gamma_reference(spec) - boundary) < 1e-8


# ---------------------------------------------------------------------------
# 5. oracle equivalence on random plants
# ---------------------------------------------------------------------------

def test_criterion_5_oracle_equivalence():
    rng = np.random.default_rng(5)
    mismatches = 0
    worst = 0.0
    n_certified = 0
    for _ in range(100):
        n_modes = int(rng.integers(1, 3))       # state dimension <= 4
        gamma = float(rng.uniform(1.1, 2.5))
        plant = random_sym_plant(rng, n_modes=n_modes, gamma=gamma)
        res = synthesize(plant)
        orc = are_oracle(plant)
        if res.certified != orc.certified:
            mismatches += 1
            continue
        if res.certified:
            n_certified += 1
            sx = max(1.0, float(np.linalg.norm(orc.X)))
            sy = max(1.0, float(np.linalg.norm(orc.Y)))
            worst = max(worst,
                        float(np.linalg.norm(res.X - orc.X)) / sx,
                        float(np.linalg.norm(res.Y - orc.Y)) / sy)
    ok = mismatches == 0 and worst < 1e-6 and n_certified > 0
    report(5, ok, f"{n_certified}/100 certified, max rel diff {worst:.2e}")
    assert mismatches == 0, f"{mismatches} certification verdict disagreements"
    assert worst < 1e-6, f"max relative (X, Y) difference {worst}"


# ---------------------------------------------------------------------------
# 6. end-to-end attenuation for every certified synthesis above
# ---------------------------------------------------------------------------

def certified_cases():
    yield build_cavity(CavitySpec(1.0, 4.0, gamma=0.6)), synthesize
    yield build_dpa(DpaSpec(1.0, 4.0, 1.0, gamma=0.9)), synthesize
    yield build_dpa(DpaSpec(2.0, 2.5, 1.0, gamma=1.4)), synthesize
    rng = np.random.default_rng(6)
    for _ in range(10):
        plant = random_sym_plant(rng, gamma=2.2)
        yield plant, synthesize


def test_criterion_6_end_to_end_attenuation():
    failures = []
    checked = 0
    for plant, route in certified_cases():
        res = route(plant)
        if not res.certified:
            continue
        checked += 1
        cl = close_loop(plant, res.controller)
        rep = attenuation_certificate(cl)
        if not (rep.internally_stable and rep.hinf < plant.gamma
                and rep.grid_agreement < 1e-4):
            failures.append((plant.gamma, rep.hinf, rep.grid_agreement))
    ok = not failures and checked >= 3
    report(6, ok, f"{checked} certified loops checked")
    assert not failures, f"attenuation failures: {failures}"
    assert checked >= 3


# ---------------------------------------------------------------------------
# 7. physics property suite
# ---------------------------------------------------------------------------

def test_criterion_7_physics_properties():
    rng = np.random.default_rng(7)

    # realizability of every constructed system, both representations
    ok_pr = True
    for _ in range(50):
        ss = build_complex_system(random_slh_model(rng))
        r = check_physical_realizability(ss)
        rq = check_physical_realizability(to_quadrature(ss))
        scale = 1 + np.linalg.norm(ss.A)
        if max(r.residual_dynamics, r.residual_coupling,
               rq.residual_dynamics, rq.residual_coupling) > 1e-10 * scale:
            ok_pr = False

    # passive systems are all-pass
    ok_allpass = True
    for _ in range(50):
        p = random_passive_plant(rng)
        n = p.n_modes
        A = p.A
        B = np.hstack([p.B1, p.B2])
        C = np.vstack([p.C1, p.C2])
        D = np.block([[np.zeros((n, n)), p.D12],
                      [p.D21, np.zeros((n, n))]])
        for w in rng.uniform(-10, 10, size=1):
            G = C @ np.linalg.solve(1j * w * np.eye(n) - A, B) + D
            sv = np.linalg.svd(G)[1]
            if np.max(np.abs(sv - 1.0)) > 1e-8:
                ok_allpass = False

    # stabilizable iff detectable on passive models
    ok_prop1 = True
    for _ in range(200):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        from conftest import random_passive_model
        ss = build_passive_system(random_passive_model(rng, n=n, m=m))
        repc = stability_and_minimality(ss)
        if repc.stabilizable != repc.detectable:
            ok_prop1 = False

    # symplectic transfer identity at random s
    ok_symp = True
    for _ in range(50):
        ss = build_complex_system(random_slh_model(rng))
        s = complex(rng.normal(), rng.normal())
        try:
            G = transfer_matrix(ss, s)
            Gm = transfer_matrix(ss, -np.conj(s))
        except ValueError:
            continue
        if np.linalg.norm(flat_adjoint(Gm) @ G - np.eye(G.shape[0])) > 1e-7:
            ok_symp = False

    ok = ok_pr and ok_allpass and ok_prop1 and ok_symp
    report(7, ok)
    assert ok_pr, "a constructed system violates realizability at 1e-10"
    assert ok_allpass, "a passive model is not all-pass at 1e-8"
    assert ok_prop1, "stabilizable <=> detectable violated on a passive model"
    assert ok_symp, "symplectic transfer identity violated"


# ---------------------------------------------------------------------------
# 8. passive threshold two-sidedness
# ---------------------------------------------------------------------------

def test_criterion_8_passive_threshold_two_sided():
    rng = np.random.default_rng(8)
    bad = 0
    for _ in range(50):
        plant = random_passive_plant(rng, n=int(rng.integers(1, 4)))
        gs = float(threshold(plant))
        below = synthesize(plant.with_gamma(0.999 * gs))
        above = synthesize(plant.with_gamma(1.001 * gs))
        if below.certified or not above.certified:
            bad += 1
    ok = bad == 0
    report(8, ok)
    assert ok, f"{bad}/50 plants violate two-sidedness at gamma*"
