import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import block_diag
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_passive_plant, random_sym_plant
from qhinf.errors import DimensionError, OracleError
from qhinf.linalg import Response, is_hurwitz
from qhinf.plant import build_plant
from qhinf.synth import min_certified_gamma, synthesize, threshold
from qhinf.verify import (are_oracle, attenuation_certificate,
                          bounded_real_witness, close_loop,
                          _stabilizing_riccati)
from test_acceptance import certified_cases

NEAR_AXIS = re.escape(
    "Hamiltonian matrix has an (almost) imaginary-axis eigenvalue; "
    "no stabilizing solution exists at this attenuation level")


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

    def test_constant_term_and_complex_data(self, rng):
        # the control Riccati A^H X + X A - X G G^H X + Q = 0 (Q > 0) on
        # complex data: the stabilizing X is Hermitian, A + M X is Hurwitz
        n = 3
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        G = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
        M, Q = -G @ G.conj().T, np.eye(n)
        X = _stabilizing_riccati(A, M, Q=Q)
        assert np.linalg.norm(A.conj().T @ X + X @ A + X @ M @ X + Q) < 1e-10
        assert np.allclose(X, X.conj().T)
        assert is_hurwitz(A + M @ X)

    def test_axis_eigenvalue_raises(self):
        # zero drift, zero forcing: Hamiltonian spectrum sits on the axis
        with pytest.raises(OracleError, match=NEAR_AXIS):
            _stabilizing_riccati(np.zeros((1, 1)), np.zeros((1, 1)))

    def test_failed_reordering_is_the_axis_refusal(self):
        # an undamped drift in generic coordinates: every Hamiltonian
        # eigenvalue is on the axis, and rounding gives their real parts
        # either sign, so the sorted Schur form's reordering itself fails
        # (LAPACK reports the sort condition broken); the refusal is the same
        rng = np.random.default_rng(13)
        Q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        A = Q @ block_diag(*(np.array([[0.0, w], [-w, 0.0]])
                             for w in (0.7, 1.3, 1.9))) @ Q.T
        with pytest.raises(OracleError, match=NEAR_AXIS):
            _stabilizing_riccati(A, np.zeros((6, 6)))


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
        assert np.isnan(rep.witness_margin) and np.isnan(rep.witness_p_min)
        # no witness even when the loop is claimed stable with a small norm
        assert bounded_real_witness(
            replace(cl, internally_stable=True, hinf=1.0)) is None


def synthesized_loops(maker, seed, factors, draws=40):
    """Closed loops of the central controller at gamma* times each factor,
    on sym or passive draws of 1-4 modes.  gamma* is the passive plant's
    closed form, or a bisection to 1e-10."""
    rng = np.random.default_rng(seed)
    for i in range(draws):
        plant = maker(rng, 1 + i % 4)
        if maker is random_passive_plant:
            g = threshold(plant).gamma_star
        else:
            g = min_certified_gamma(plant, 1e-3, 50.0, tol=1e-10)
        for f in factors:
            at = plant.with_gamma(g * f)
            res = synthesize(at)
            assert res.certified
            yield close_loop(at, res.controller)


def assert_bounded_real(cl, P):
    """Recompute the strict bounded real lemma for P: P > 0 and
    [[A^H P + P A + C^H C, P B], [B^H P, -gamma^2 I]] < 0."""
    A, B, C = cl.A, cl.B, cl.C
    assert np.allclose(P, P.conj().T, rtol=0.0, atol=1e-12 * np.abs(P).max())
    PB = P @ B
    L = np.block([[A.conj().T @ P + P @ A + C.conj().T @ C, PB],
                  [PB.conj().T, -cl.gamma ** 2 * np.eye(B.shape[1])]])
    assert np.linalg.eigvalsh(0.5 * (P + P.conj().T))[0] > 0.0
    assert np.linalg.eigvalsh(0.5 * (L + L.conj().T))[-1] < 0.0


class TestBoundedRealWitness:
    def test_witness_for_every_passing_loop(self):
        # a witness exists for every passing loop of the sym ensemble (80 of
        # 80, margins down to 4.95e-5 gamma at 1.01 gamma*), and for every
        # one of the devices and the passive ensemble with a relative margin
        # of at least 1e-4
        sym = list(synthesized_loops(random_sym_plant, 3, (1.01, 1.5)))
        others = [close_loop(p, route(p).controller)
                  for p, route in certified_cases()]
        others += synthesized_loops(random_passive_plant, 4, (1.05, 1.5),
                                    draws=20)
        assert all(attenuation_certificate(cl).passed for cl in sym + others)
        loops = sym + [cl for cl in others
                       if cl.gamma - cl.hinf >= 1e-4 * cl.gamma]
        assert len(sym) == 80 and len(loops) == 133
        for cl in loops:
            witness = bounded_real_witness(cl)
            assert witness is not None
            P, margin, p_min = witness
            assert_bounded_real(cl, P)
            rep = attenuation_certificate(cl)
            assert (rep.witness_margin, rep.witness_p_min) == (margin, p_min)
            assert margin > 1.0 and p_min > 0.0

    def test_gamma_below_norm_has_none(self, rng):
        plant = random_sym_plant(rng, gamma=2.0)
        ctl = synthesize(plant).controller
        norm = close_loop(plant, ctl).hinf
        cl = close_loop(plant.with_gamma(0.9 * norm), ctl)
        rep = attenuation_certificate(cl)
        assert not rep.passed
        assert np.isnan(rep.witness_margin) and np.isnan(rep.witness_p_min)
        # a wrong norm below gamma cannot buy a witness: no P proves a bound
        # the loop does not meet
        assert bounded_real_witness(replace(cl, hinf=0.5 * cl.gamma)) is None

    def test_near_threshold_passes_without_witness(self):
        # at gamma* (1 + 1e-4) the central loop's norm sits 3e-9 gamma below
        # gamma (1.5 bracket widths of 2 hinf_tol), under the Riccati's
        # perturbation eps = hinf_tol |C^H C|: the loop passes on the
        # Hamiltonian test alone, which is why the witness does not gate it
        for cl in synthesized_loops(random_sym_plant, 3, (1.0 + 1e-4,),
                                    draws=8):
            rep = attenuation_certificate(cl)
            assert rep.passed
            assert rep.margin < 4.0 * cl.opts.hinf_tol * cl.gamma
            assert bounded_real_witness(cl) is None
            assert np.isnan(rep.witness_margin)


class TestReportFields:
    def test_fields_come_from_the_bracket(self):
        # grid_value is a gain attained at worst_frequency, so it falls short
        # of the proven bound hinf by at most the bracket's width
        loops = [close_loop(p, route(p).controller)
                 for p, route in certified_cases()]
        loops += synthesized_loops(random_passive_plant, 4, (1.5,), draws=8)
        for cl in loops:
            rep = attenuation_certificate(cl)
            gain = Response(cl.A, cl.B, cl.C, cl.D).gains([rep.worst_frequency])
            assert rep.grid_value == pytest.approx(gain[0], rel=1e-12)
            assert rep.grid_value <= rep.hinf
            assert rep.grid_agreement == pytest.approx(
                (rep.hinf - rep.grid_value) / rep.hinf)
            assert rep.grid_agreement < 1e-4


# The loop below, at 80 digits: its matrices converted exactly from double,
# sigma_max G(i w) peaks at w = 1.52785 at gamma (1 + 2.607e-12), a gain
# above gamma (computed once with mpmath; pinned so that the test needs no
# high-precision library)
HIGH_GAIN_LOOP_PEAK = 1.0 + 2.607e-12


@pytest.mark.xfail(strict=True, reason=(
    "the level-set bound under-reports on high-gain loops: ||AK|| ~ 4e6 "
    "puts the Hamiltonian at ~1.5e12, and the crossing test goes blind"))
def test_high_gain_loop_is_not_certified():
    # the central controller at gamma* (1 + 1e-6) of a 3-mode passive plant
    # misses gamma, yet the certificate proves upper = gamma (1 - 4.68e-11)
    rng = np.random.default_rng(5)
    plant = random_passive_plant(rng, int(rng.integers(1, 4)))
    at = plant.with_gamma(threshold(plant).gamma_star
                          * (1 + 1e-6))
    res = synthesize(at)
    assert res.certified
    rep = attenuation_certificate(close_loop(at, res.controller))
    assert rep.hinf >= HIGH_GAIN_LOOP_PEAK * at.gamma
    assert not rep.passed
