import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_sym_plant
from qhinf.errors import DimensionError, OracleError
from qhinf.linalg import is_hurwitz
from qhinf.plant import build_plant
from qhinf.synth import synthesize
from qhinf.verify import (are_oracle, attenuation_certificate, close_loop,
                          _stabilizing_riccati)


class TestRiccatiOracle:
    def test_scalar_closed_form(self):
        # scalar 2 a x + m x^2 = 0: for an unstable drift the stabilizing
        # branch is x = -2a/m, giving a + m x = -a < 0
        a, m = 1.0, -2.0
        X = _stabilizing_riccati(np.array([[a]]), np.array([[m]]))
        assert X[0, 0] == pytest.approx(-2 * a / m)
        assert is_hurwitz(np.array([[a]]) + np.array([[m]]) @ X)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_residual_and_stabilizing(self, seed):
        rng = np.random.default_rng(seed)
        plant = random_sym_plant(rng, gamma=2.0)
        orc = are_oracle(plant)
        if not orc.certified:
            return
        g2 = plant.gamma ** 2
        M = plant.B1 @ plant.B1.T / g2 - plant.B2 @ plant.B2.T
        N = plant.C1.T @ plant.C1 - g2 * plant.C2.T @ plant.C2
        assert np.linalg.norm(plant.Ax.T @ orc.X + orc.X @ plant.Ax
                              + orc.X @ M @ orc.X) < 1e-8
        assert np.linalg.norm(plant.Ay @ orc.Y + orc.Y @ plant.Ay.T
                              + orc.Y @ N @ orc.Y) < 1e-8
        assert is_hurwitz(plant.Ax + M @ orc.X)
        assert is_hurwitz(plant.Ay + orc.Y @ N)

    def test_axis_eigenvalue_raises(self):
        # zero drift, zero forcing: Hamiltonian spectrum sits on the axis
        with pytest.raises(OracleError):
            _stabilizing_riccati(np.zeros((1, 1)), np.zeros((1, 1)))


class TestClosedLoop:
    def test_dimensions_and_zero_feedthrough(self, rng):
        plant = random_sym_plant(rng, gamma=2.0)
        res = synthesize(plant)
        cl = close_loop(plant, res.controller)
        n = plant.A.shape[0]
        assert cl.A.shape == (2 * n, 2 * n)
        assert np.allclose(cl.D, 0)

    def test_dimension_mismatch_raises(self, rng):
        plant = random_sym_plant(rng, n_modes=2)
        other = build_plant(np.zeros((2, 2)), np.sqrt(2.5) * np.eye(2),
                            np.sqrt(2.0) * np.eye(2), np.eye(2), np.eye(2), 1.5)
        ctl = synthesize(other).controller
        with pytest.raises(DimensionError):
            close_loop(plant, ctl)

    def test_certificate_margin(self, rng):
        plant = random_sym_plant(rng, gamma=2.0)
        cl = close_loop(plant, synthesize(plant).controller)
        rep = attenuation_certificate(cl)
        assert rep.passed
        assert rep.margin == pytest.approx(plant.gamma - rep.hinf)
        assert rep.grid_agreement < 1e-4

    def test_unstable_loop_fails(self, rng):
        plant = random_sym_plant(rng, gamma=2.0)
        ctl = synthesize(plant).controller
        # destabilize the controller drift
        ctl.AK = ctl.AK + 10.0 * np.eye(ctl.AK.shape[0])
        cl = close_loop(plant, ctl)
        if cl.internally_stable:
            pytest.skip("perturbation did not destabilize this draw")
        rep = attenuation_certificate(cl)
        assert not rep.passed
        assert rep.hinf == float("inf")
