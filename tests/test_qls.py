import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_passive_model, random_slh_model
from qhinf.errors import StructureError
from qhinf.qls import (SlhModel, StateSpace, build_complex_system,
                       build_passive_system, check_physical_realizability,
                       doubled_up, flat_adjoint, is_passive, j_signature,
                       j_symplectic, quadrature_map, rotate_out_detuning,
                       sharp_adjoint, stability_and_minimality,
                       to_complex_doubled, to_quadrature, transfer_matrix)


class TestDoubledAlgebra:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3))
    def test_closure_under_product(self, seed, n):
        rng = np.random.default_rng(seed)
        def rand(): return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        M1 = doubled_up(rand(), rand())
        M2 = doubled_up(rand(), rand())
        P = M1 @ M2
        # product stays doubled-up: lower blocks are conjugates of upper ones
        assert np.allclose(P[n:, n:], P[:n, :n].conj())
        assert np.allclose(P[n:, :n], P[:n, n:].conj())

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 3))
    def test_flat_involution_and_antihomomorphism(self, seed, r, k):
        rng = np.random.default_rng(seed)
        def rand(a, b):
            return doubled_up(rng.normal(size=(a, b)) + 1j * rng.normal(size=(a, b)),
                              rng.normal(size=(a, b)) + 1j * rng.normal(size=(a, b)))
        X = rand(r, k)
        Y = rand(k, r)
        assert np.allclose(flat_adjoint(flat_adjoint(X)), X)
        assert np.allclose(flat_adjoint(X @ Y), flat_adjoint(Y) @ flat_adjoint(X))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 3))
    def test_sharp_matches_j_form(self, seed, r, k):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(2 * r, 2 * k)) + 1j * rng.normal(size=(2 * r, 2 * k))
        want = j_symplectic(k).T @ X.conj().T @ j_symplectic(r)
        assert np.array_equal(sharp_adjoint(X), want)

    def test_sharp_involution(self, rng):
        X = rng.normal(size=(4, 6))
        assert np.allclose(sharp_adjoint(sharp_adjoint(X)), X)
        Y = rng.normal(size=(6, 4))
        assert np.allclose(sharp_adjoint(X @ Y), sharp_adjoint(Y) @ sharp_adjoint(X))

    @given(st.integers(1, 4))
    def test_quadrature_map_unitary_and_signature(self, k):
        V = quadrature_map(k)
        assert np.allclose(V @ V.conj().T, np.eye(2 * k))
        # V J V^H = i * Jsymp links the two adjoints
        assert np.allclose(V @ j_signature(k) @ V.conj().T, 1j * j_symplectic(k))

    def test_adjoints_intertwine(self, rng):
        k, r = 2, 3
        X = doubled_up(rng.normal(size=(r, k)) + 1j * rng.normal(size=(r, k)),
                       rng.normal(size=(r, k)) + 1j * rng.normal(size=(r, k)))
        Vk, Vr = quadrature_map(k), quadrature_map(r)
        Xq = Vr @ X @ Vk.conj().T
        assert np.allclose(Vk @ flat_adjoint(X) @ Vr.conj().T, sharp_adjoint(Xq))


class TestModelValidation:
    def test_rejects_nonunitary_s(self):
        with pytest.raises(StructureError):
            SlhModel(S=2 * np.eye(1), Omega_minus=np.zeros((1, 1)),
                     Omega_plus=np.zeros((1, 1)), C_minus=np.ones((1, 1)),
                     C_plus=np.zeros((1, 1)))

    def test_rejects_nonhermitian_detuning(self):
        with pytest.raises(StructureError):
            SlhModel(S=np.eye(1), Omega_minus=np.array([[1j]]),
                     Omega_plus=np.zeros((1, 1)), C_minus=np.ones((1, 1)),
                     C_plus=np.zeros((1, 1)))


class TestRealizability:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_constructed_systems_realizable(self, seed):
        rng = np.random.default_rng(seed)
        model = random_slh_model(rng)
        ss = build_complex_system(model)
        rep = check_physical_realizability(ss)
        assert rep.passed
        assert rep.residual_dynamics < 1e-10
        assert rep.residual_coupling < 1e-10

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_pr_preserved_across_representations(self, seed):
        rng = np.random.default_rng(seed)
        ss = build_complex_system(random_slh_model(rng))
        q = to_quadrature(ss)
        rc = check_physical_realizability(ss)
        rq = check_physical_realizability(q)
        assert rq.passed
        # unitary change of representation preserves the defect norms
        assert rq.residual_dynamics == pytest.approx(rc.residual_dynamics, abs=1e-10)
        back = to_complex_doubled(q)
        assert np.allclose(back.A, ss.A)
        assert check_physical_realizability(back).passed

    def test_perturbed_system_fails(self, rng):
        ss = build_complex_system(random_slh_model(rng))
        bad = StateSpace(ss.A + 0.1 * np.eye(ss.A.shape[0]), ss.B, ss.C, ss.D,
                         rep=ss.rep)
        assert not check_physical_realizability(bad).passed


class TestPassive:
    def test_is_passive(self, rng):
        assert is_passive(random_passive_model(rng))
        assert not is_passive(random_slh_model(rng))

    def test_rotate_out_detuning(self, rng):
        model = random_passive_model(rng, detuned=True)
        rotated = rotate_out_detuning(model)
        assert np.linalg.norm(rotated.Omega_minus) < 1e-12
        # rotation preserves the all-pass transfer magnitude
        s = 1j * 0.7
        g0 = np.linalg.svd(transfer_matrix(build_passive_system(model), s))[1]
        g1 = np.linalg.svd(transfer_matrix(build_passive_system(rotated), s))[1]
        assert np.allclose(g0, g1, atol=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_all_pass(self, seed):
        rng = np.random.default_rng(seed)
        ss = build_passive_system(random_passive_model(rng, detuned=False))
        for w in rng.uniform(-5, 5, size=4):
            sv = np.linalg.svd(transfer_matrix(ss, 1j * w))[1]
            assert np.allclose(sv, 1.0, atol=1e-8)


class TestTransferIdentities:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_symplectic_identity_complex(self, seed):
        rng = np.random.default_rng(seed)
        ss = build_complex_system(random_slh_model(rng))
        s = complex(rng.normal(), rng.normal())
        G = transfer_matrix(ss, s)
        Gm = transfer_matrix(ss, -np.conj(s))
        assert np.allclose(flat_adjoint(Gm) @ G, np.eye(G.shape[0]), atol=1e-8)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_symplectic_identity_quadrature(self, seed):
        rng = np.random.default_rng(seed)
        ss = to_quadrature(build_complex_system(random_slh_model(rng)))
        s = complex(rng.normal(), rng.normal())
        G = transfer_matrix(ss, s)
        Gm = transfer_matrix(ss, -np.conj(s))
        assert np.allclose(sharp_adjoint(Gm) @ G, np.eye(G.shape[0]), atol=1e-8)

    def test_refuses_a_pole(self, rng):
        ss = build_complex_system(random_slh_model(rng))
        with pytest.raises(ValueError, match="pole"):
            transfer_matrix(ss, np.linalg.eigvals(ss.A)[0])


class TestStabilityMinimality:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_stabilizable_iff_detectable(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        ss = build_passive_system(random_passive_model(rng, n=n, m=m))
        rep = stability_and_minimality(ss)
        assert rep.stabilizable == rep.detectable
        if rep.stabilizable:
            assert rep.hurwitz

    def test_deficient_coupling(self, rng):
        # more modes than fields with a rank-deficient coupling row space:
        # the unreachable mode is marginal, so neither property holds
        model = SlhModel(S=np.eye(1), Omega_minus=np.zeros((2, 2)),
                         Omega_plus=np.zeros((2, 2)),
                         C_minus=np.array([[1.0, 0.0]]),
                         C_plus=np.zeros((1, 2)))
        rep = stability_and_minimality(build_passive_system(model))
        assert not rep.hurwitz
        assert rep.stabilizable == rep.detectable == False  # noqa: E712
