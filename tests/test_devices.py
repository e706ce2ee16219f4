from dataclasses import replace

import numpy as np
import pytest

from qhinf.devices import (SQRT5_M2, CavitySpec, DpaSpec, build_cavity,
                           build_dpa, cavity_pr_gamma, cavity_reference,
                           dpa_case1_reference, dpa_case2_rho_gamma,
                           dpa_case2_rho_gamma_reference, dpa_case2_stuv,
                           dpa_case2_thresholds, dpa_pr_gamma_case1,
                           dpa_pr_gamma_case2, _cavity_pr_residual,
                           _dpa_case1_pr_residual)
from qhinf.errors import StructureError
from qhinf.synth import min_certified_gamma, synthesize, threshold
from qhinf.verify import are_oracle


class TestCavity:
    def test_reference_chain(self):
        spec = CavitySpec(1.0, 4.0)
        ref = cavity_reference(spec)
        assert ref["S"] == pytest.approx(4 / 3)
        assert ref["T"] == pytest.approx(1 / 3)
        assert ref["gamma_star"] == pytest.approx(0.5)

    def test_pipeline_matches_reference(self):
        spec = CavitySpec(1.0, 4.0, gamma=0.6)
        res = synthesize(build_cavity(spec))
        ref = cavity_reference(spec)
        assert res.certified
        assert res.quad.S[0, 0].real == pytest.approx(ref["S"], rel=1e-12)
        assert res.quad.T[0, 0].real == pytest.approx(ref["T"], rel=1e-12)
        assert res.X[0, 0].real == pytest.approx(ref["X"], rel=1e-12)
        assert res.controller.AK[0, 0].real == pytest.approx(ref["AK"], rel=1e-12)
        assert res.controller.BK[0, 0].real == pytest.approx(ref["BK"], rel=1e-12)
        assert res.controller.CK[0, 0].real == pytest.approx(ref["CK"], rel=1e-12)

    def test_threshold(self):
        thr = threshold(build_cavity(CavitySpec(1.0, 4.0)))
        assert float(thr) == pytest.approx(0.5, abs=1e-12)

    def test_pr_gamma_branch_point(self):
        g = cavity_pr_gamma(SQRT5_M2)
        assert g == pytest.approx(0.5 * np.sqrt(np.sqrt(5.0) - 1.0), abs=1e-12)
        assert _cavity_pr_residual(SQRT5_M2, g) < 1e-10

    def test_pr_gamma_both_branches(self):
        for kappa in (0.1, 0.2, SQRT5_M2, 0.3, 0.6, 0.9):
            g = cavity_pr_gamma(kappa)
            assert g > np.sqrt(kappa)
            assert _cavity_pr_residual(kappa, g) < 1e-9

    def test_rejects_bad_ordering(self):
        with pytest.raises(StructureError):
            CavitySpec(4.0, 1.0)


class TestDpaCase1:
    spec = DpaSpec(kappa_w=1.0, kappa_u=4.0, epsilon=1.0, gamma=0.9)

    def test_case_detection(self):
        assert self.spec.case == "case1"
        assert DpaSpec(2.0, 2.5, 1.0).case == "case2"

    def test_y_zero_and_x_closed_form(self):
        res = synthesize(build_dpa(self.spec))
        ref = dpa_case1_reference(self.spec)
        assert res.certified
        assert np.allclose(res.Y, 0, atol=1e-12)
        assert np.allclose(res.X, ref["x_stabilizing"], atol=1e-10)

    @pytest.mark.xfail(strict=True, reason=(
        "the tabulated diagonal state-feedback solution is inconsistent with "
        "its own Riccati equation; the stabilizing solution differs (see the "
        "x_stabilizing entry)"))
    def test_tabulated_x_matches_pipeline(self):
        res = synthesize(build_dpa(self.spec))
        ref = dpa_case1_reference(self.spec)
        assert np.allclose(res.X, ref["X"], atol=1e-10)

    def test_tabulated_x_fails_riccati(self):
        plant = build_dpa(self.spec)
        g2 = plant.gamma ** 2
        M = plant.B1 @ plant.B1.T / g2 - plant.B2 @ plant.B2.T
        X = dpa_case1_reference(self.spec)["X"]
        resid = np.linalg.norm(plant.Ax.T @ X + X @ plant.Ax + X @ M @ X)
        assert resid > 1e-2  # genuinely inconsistent, not a rounding artifact

    def test_pr_gamma_roots(self):
        gm, gp = dpa_pr_gamma_case1(replace(self.spec, gamma=1.0))
        assert gp >= gm > 0
        for g in (gm, gp):
            assert _dpa_case1_pr_residual(replace(self.spec, gamma=g)) < 1e-9
        # away from the roots the reference controller is not realizable
        assert _dpa_case1_pr_residual(replace(self.spec, gamma=0.9)) > 1e-2

    def test_oracle_agreement(self):
        plant = build_dpa(self.spec)
        res = synthesize(plant)
        orc = are_oracle(plant)
        assert res.certified == orc.certified
        assert np.allclose(res.X, orc.X, atol=1e-10)
        assert np.allclose(res.Y, orc.Y, atol=1e-10)


class TestDpaCase2:
    spec = DpaSpec(kappa_w=2.0, kappa_u=2.5, epsilon=1.0, gamma=1.4)

    def test_scalar_lyapunov_values(self):
        S, T, U, V = dpa_case2_stuv(self.spec)
        res = synthesize(build_dpa(self.spec))
        assert res.quad.S[0, 0] == pytest.approx(S, rel=1e-12)
        assert res.quad.T[0, 0] == pytest.approx(T, rel=1e-12)
        assert res.quad.U[0, 0] == pytest.approx(U, rel=1e-12)
        assert res.quad.V[0, 0] == pytest.approx(V, rel=1e-12)

    def test_thresholds(self):
        lo, hi = dpa_case2_thresholds(self.spec)
        assert lo == pytest.approx(np.sqrt(2.0 / 2.5), rel=1e-12)
        assert hi == pytest.approx(np.sqrt(2.5 / 2.0), rel=1e-12)

    def test_rho_boundary_vs_bisection(self):
        boundary = min_certified_gamma(build_dpa(self.spec), 1.0, 2.0, tol=1e-10)
        assert dpa_case2_rho_gamma(self.spec) == pytest.approx(boundary, abs=1e-8)

    @pytest.mark.xfail(strict=True, reason=(
        "the tabulated spectral-radius bound omits a gamma^2 factor inside "
        "the radical; the corrected boundary is the bisection value"))
    def test_tabulated_rho_bound_matches_bisection(self):
        boundary = min_certified_gamma(build_dpa(self.spec), 1.0, 2.0, tol=1e-10)
        assert dpa_case2_rho_gamma_reference(self.spec) == pytest.approx(
            boundary, abs=1e-8)

    def test_pr_gamma_roots(self):
        roots = dpa_pr_gamma_case2(self.spec)
        assert roots  # at least one admissible root
        plant = build_dpa(self.spec)
        for g in roots:
            res = synthesize(plant.with_gamma(g))
            assert res.certified
            assert res.controller.pr_residual < 1e-9

    def test_rejects_case_mismatch(self):
        with pytest.raises(StructureError):
            dpa_pr_gamma_case1(self.spec)
        with pytest.raises(StructureError):
            dpa_case2_stuv(DpaSpec(1.0, 4.0, 1.0))


class TestDpaValidation:
    def test_rejects_unstable(self):
        with pytest.raises(StructureError):
            DpaSpec(kappa_w=1.0, kappa_u=2.0, epsilon=4.0)

    def test_rejects_degenerate(self):
        with pytest.raises(StructureError):
            DpaSpec(kappa_w=1.0, kappa_u=2.0, epsilon=1.0)
