import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_passive_plant
from qhinf.errors import StructureError
from qhinf.linalg import is_hurwitz
from qhinf.passive import PassivePlant, build_passive_plant
from qhinf.plant import build_plant
from qhinf.synth import synthesize, threshold
from qhinf.verify import attenuation_certificate, close_loop


class TestConstruction:
    def test_derived_matrices(self, rng):
        p = random_passive_plant(rng)
        assert np.allclose(p.A, -0.5 * (p.C1.conj().T @ p.C1
                                        + p.C2.conj().T @ p.C2))
        assert np.allclose(p.B1, -p.C2.conj().T @ p.D21)
        assert np.allclose(p.B2, -p.C1.conj().T @ p.D12)
        assert np.allclose(p.Ax, p.Ax.conj().T)

    def test_rejects_nonunitary_feedthrough(self):
        with pytest.raises(StructureError):
            PassivePlant(np.eye(2), np.eye(2), 2 * np.eye(2), np.eye(2), 1.0)

    def test_default_feedthrough_identity(self):
        p = build_passive_plant(np.eye(2), 0.5 * np.eye(2))
        assert np.allclose(p.D12, np.eye(2))
        assert np.allclose(p.D21, np.eye(2))


class TestSynthesis:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_complementary_supports(self, seed):
        rng = np.random.default_rng(seed)
        plant = random_passive_plant(rng)
        thr = threshold(plant)
        res = synthesize(plant.with_gamma(1.05 * float(thr)))
        assert res.certified
        # X lives on the anti-stable eigenspace, Y on the stable one
        assert res.rho_xy == pytest.approx(0.0, abs=1e-10)
        assert np.linalg.norm(res.X @ res.Y) < 1e-10 * (
            1 + np.linalg.norm(res.X) * np.linalg.norm(res.Y))
        assert res.diagnostics["are_residual_x"] < 1e-8
        assert res.diagnostics["are_residual_y"] < 1e-8

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_threshold_two_sided(self, seed):
        rng = np.random.default_rng(seed)
        plant = random_passive_plant(rng)
        gs = float(threshold(plant))
        assert not synthesize(plant.with_gamma(0.999 * gs)).certified
        assert synthesize(plant.with_gamma(1.001 * gs)).certified

    def test_failure_names_condition(self, rng):
        plant = random_passive_plant(rng)
        gs = float(threshold(plant))
        res = synthesize(plant.with_gamma(0.5 * gs))
        assert not res.certified
        assert "not positive definite" in res.failure
        assert res.controller is None

    def test_controller_closed_loop(self, rng):
        plant = random_passive_plant(rng)
        gs = float(threshold(plant))
        p = plant.with_gamma(1.1 * gs)
        res = synthesize(p)
        ctl = res.controller
        assert np.allclose(ctl.BKtilde, -ctl.CK.conj().T)
        assert np.allclose(ctl.CKtilde, -ctl.BK.conj().T)
        cl = close_loop(p, ctl)
        assert cl.internally_stable
        assert cl.hinf < p.gamma
        assert attenuation_certificate(cl).passed
        assert is_hurwitz(cl.A)


class TestSharedPath:
    def test_result_fields_certified_and_refused(self):
        # synth's one path labels a passive result "passive" and leaves out
        # the complex split and Z (the benchmark's split check assumes a
        # real orthogonal W); rho(XY) = 0 and the sigma short-cut hold
        # whatever the verdict: refused by positivity (0.5, 0.999), by a
        # loop Hurwitz gate just above gamma* (1 + 1e-10), or certified
        rng = np.random.default_rng(5)
        seen = set()
        for _ in range(4):
            plant = random_passive_plant(rng, int(rng.integers(1, 4)))
            gs = threshold(plant).gamma_star
            for f in (0.5, 0.999, 1 + 1e-10, 1.001, 2.0):
                res = synthesize(plant.with_gamma(f * gs))
                seen.add((res.certified, res.X is None))
                assert (res.schur, res.Z, res.regime) == (None, None, "passive")
                assert res.sigma_condition is True and res.rho_xy == 0.0
        assert seen == {(True, False), (False, True), (False, False)}


class TestAgainstQuadraturePipeline:
    def test_real_passive_plant_matches_general_route(self, rng):
        # a real passive plant can also be fed to the generic quadrature
        # pipeline as a doubled real model; thresholds must agree
        c1, c2 = 2.0, 1.0
        p = build_passive_plant([[np.sqrt(c1)]], [[np.sqrt(c2)]], gamma=0.9)
        gs = float(threshold(p))
        quad = build_plant(np.zeros((2, 2)), np.sqrt(c1) * np.eye(2),
                           np.sqrt(c2) * np.eye(2), np.eye(2), np.eye(2), 0.9)
        for g, expect in [(0.99 * gs, False), (1.01 * gs, True)]:
            assert synthesize(quad.with_gamma(g)).certified is expect
            assert synthesize(p.with_gamma(g)).certified is expect
