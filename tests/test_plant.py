import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (count_calls, on_axis_plants, random_general_plant,
                      random_mixed_plant, random_passive_plant,
                      random_sym_plant)
from qhinf import plant as plant_module
from qhinf.devices import DpaSpec, build_dpa
from qhinf.errors import (AssumptionError, DimensionError, StructureError,
                          SynthesisError)
from qhinf.linalg import ordered_schur_split
from qhinf.passive import PassivePlant
from qhinf.plant import Plant, build_plant
from qhinf.qls import j_symplectic, sharp_adjoint
from qhinf.synth import min_certified_gamma, synthesize, threshold


def simple_plant(gamma=1.5):
    return build_plant(np.zeros((2, 2)), np.sqrt(2.5) * np.eye(2),
                       np.sqrt(2.0) * np.eye(2), np.eye(2), np.eye(2), gamma)


class TestConstruction:
    def test_derived_matrices(self):
        p = simple_plant()
        n = 2
        H = np.zeros((n, n))
        expected_A = (j_symplectic(1) @ H
                      - 0.5 * sharp_adjoint(p.C1) @ p.C1
                      - 0.5 * sharp_adjoint(p.C2) @ p.C2)
        assert np.allclose(p.A, expected_A)
        assert np.allclose(p.B1, -sharp_adjoint(p.C2) @ p.D21)
        assert np.allclose(p.B2, -sharp_adjoint(p.C1) @ p.D12)

    def test_gamma_free_input_matrices(self):
        # B1 carries no attenuation scaling: changing gamma leaves it fixed
        p = simple_plant(1.5)
        q = p.with_gamma(2.5)
        assert np.allclose(p.B1, q.B1)
        assert np.allclose(p.B2, q.B2)
        assert q.gamma == 2.5

    def test_with_gamma_shares_derived_matrices(self, rng):
        sym = random_sym_plant(rng, n_modes=2, gamma=1.5)
        pas = random_passive_plant(rng, gamma=1.5)
        cases = [(sym, build_plant(sym.Hmat, sym.C1, sym.C2, sym.D12,
                                   sym.D21, 2.5), synthesize),
                 (pas, PassivePlant(pas.C1, pas.C2, pas.D12, pas.D21, 2.5),
                  synthesize)]
        for p, fresh, synth in cases:
            q = p.with_gamma(2.5)
            assert q.A is p.A and q.Ax is p.Ax and q.Ay is p.Ay
            assert p.gamma == 1.5 and q.gamma == 2.5
            res = synth(q)
            assert res.certified
            assert np.array_equal(res.X, synth(fresh).X)
            for bad in (0.0, -1.0):
                with pytest.raises(ValueError):
                    p.with_gamma(bad)

    def test_one_base_for_both_kinds(self, rng):
        # both representations share Plant's construction and with_gamma;
        # each keeps its own dtype and adjoint
        sym = random_sym_plant(rng)
        pas = random_passive_plant(rng)
        for p, dtype in ((sym, float), (pas, complex)):
            assert isinstance(p, Plant)
            assert type(p).with_gamma is Plant.with_gamma
            assert all(getattr(p, k).dtype == dtype
                       for k in ("C1", "C2", "D12", "D21", "A", "B1", "B2"))
            mirror = np.linalg.norm(p.Ay + p.adjoint(p.Ax))
            assert mirror <= 1e-15 * np.linalg.norm(p.Ax)
        with pytest.raises(DimensionError):   # quadrature channels come in pairs
            build_plant(np.zeros((2, 2)), np.ones((1, 2)), np.eye(2),
                        np.eye(1), np.eye(2), 1.0)
        with pytest.raises(DimensionError, match="C2 must have 2 columns"):
            PassivePlant(np.eye(2), np.ones((2, 3)), np.eye(2), np.eye(2), 1.0)

    def test_rejects_nonsymmetric_hamiltonian(self):
        with pytest.raises(StructureError):
            build_plant(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2),
                        np.eye(2), np.eye(2), np.eye(2), 1.0)

    def test_accepts_hamiltonian_asymmetric_within_struct_tol(self):
        # the symmetry check admits a 1e-11 relative asymmetry; the stored
        # Hmat is symmetrized, so the derived generators still mirror exactly
        rng = np.random.default_rng(2)
        for _ in range(20):
            H = rng.normal(size=(4, 4))
            E = rng.normal(size=(4, 4))
            H, E = H + H.T, E - E.T
            H = H + 1e-11 * np.linalg.norm(H) * E / np.linalg.norm(E)
            p = build_plant(H, rng.normal(size=(4, 4)), rng.normal(size=(4, 4)),
                            np.eye(4), np.eye(4), 1.0)
            assert np.array_equal(p.Hmat, p.Hmat.T)
            mirror = np.linalg.norm(p.Ay + sharp_adjoint(p.Ax))
            assert mirror <= 1e-15 * np.linalg.norm(p.Ax)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            build_plant(np.zeros((2, 2)), np.eye(2), np.ones((1, 4)),
                        np.eye(2), np.eye(1), 1.0)

    def test_joint_pr_residuals_small(self):
        assert simple_plant().pr_residual() < 1e-12


class TestAxAy:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_ay_is_minus_sharp_of_ax(self, seed):
        rng = np.random.default_rng(seed)
        plant = random_sym_plant(rng)
        assert np.allclose(plant.Ay, -sharp_adjoint(plant.Ax), atol=1e-12)

    def test_shifted_generator_values(self):
        p = simple_plant()
        # Ax = JH + (1/2) C1# C1 - (1/2) C2# C2 = (kappa_u - kappa_w)/2 * I
        assert np.allclose(p.Ax, 0.25 * np.eye(2))


class TestAssumptions:
    def test_split_holds_generic(self, rng):
        plant = random_sym_plant(rng)
        split = plant.split()
        assert split.min_abs_real > 0
        assert split.n_stable + split.n_anti == plant.Ax.shape[0]

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_margin_matches_eigenvalues(self, seed):
        plant = random_sym_plant(np.random.default_rng(seed))
        want = np.min(np.abs(np.linalg.eigvals(plant.Ax).real))
        assert plant.split().min_abs_real == pytest.approx(want, rel=1e-12)

    def test_split_fails_on_axis(self):
        for p in on_axis_plants():
            assert np.array_equal(p.Ax, np.zeros_like(p.Ax))
            with pytest.raises(AssumptionError, match=r"min \|Re lambda\| = 0\.000e\+00"):
                p.split()

    def test_pipeline_refuses_on_axis(self):
        quad, pas = on_axis_plants()
        for call in (lambda: synthesize(quad), lambda: synthesize(pas),
                     lambda: threshold(pas)):
            with pytest.raises(AssumptionError, match=r"min \|Re lambda\| = "):
                call()
        with pytest.raises(SynthesisError, match="upper bracket"):
            min_certified_gamma(quad, 0.5, 5.0)


def _skew_ratio(Ax: np.ndarray) -> float:
    """||Ax - Ax^T||_F over HinfPlant.split's bound n eps ||Ax||_F."""
    n, eps = Ax.shape[0], np.finfo(float).eps
    return float(np.linalg.norm(Ax - Ax.T) / (n * eps * np.linalg.norm(Ax)))


class TestSplitSelection:
    """HinfPlant.split takes the Hermitian split exactly when Ax is
    symmetric to n eps ||Ax||_F, and the ordered Schur split otherwise."""

    def _split(self, monkeypatch, plant):
        calls = count_calls(monkeypatch, "hermitian_split", plant_module)
        schur = count_calls(monkeypatch, "ordered_schur_split", plant_module)
        split = plant.split()
        return split, bool(calls), bool(schur)

    def _assert_hermitian(self, monkeypatch, plant):
        split, hermitian, schur = self._split(monkeypatch, plant)
        assert hermitian and not schur
        Ax, n, eps = plant.Ax, plant.Ax.shape[0], np.finfo(float).eps
        W = split.W
        assert np.isrealobj(W)
        assert np.linalg.norm(W @ W.T - np.eye(n)) <= 10 * n * eps
        for block in (split.A11, split.A22):
            assert np.array_equal(block, np.diag(np.diag(block)))
        assert split.A12.shape == (split.n_stable, split.n_anti)
        assert not split.A12.any()
        lam = np.r_[np.diag(split.A11), np.diag(split.A22)]
        assert np.all(lam[:split.n_stable] < 0) and np.all(lam[split.n_stable:] > 0)
        assert (np.linalg.norm(W @ Ax @ W.T - np.diag(lam))
                <= n * eps * np.linalg.norm(Ax))

    def _assert_schur(self, monkeypatch, plant):
        split, hermitian, schur = self._split(monkeypatch, plant)
        assert schur and not hermitian
        want = ordered_schur_split(plant.Ax, plant.opts)
        for name in ("W", "A11", "A12", "A22"):
            assert np.array_equal(getattr(split, name), getattr(want, name))
        assert (split.n_stable, split.n_anti, split.min_abs_real) == (
            want.n_stable, want.n_anti, want.min_abs_real)

    def test_symmetric_plants_take_the_hermitian_split(self, monkeypatch):
        # an exactly symmetric Ax and one symmetric only to rounding (about
        # a third of the sym family's draws)
        rng = np.random.default_rng(4)
        draws = [random_sym_plant(rng, int(rng.integers(2, 12)))
                 for _ in range(12)]
        exact = next(p for p in draws if np.array_equal(p.Ax, p.Ax.T))
        rounded = next(p for p in draws if not np.array_equal(p.Ax, p.Ax.T))
        assert 0.0 < _skew_ratio(rounded.Ax) <= 1.0
        for plant in (exact, rounded, build_dpa(DpaSpec(2.0, 2.5, 1.0))):
            self._assert_hermitian(monkeypatch, plant)

    def test_other_plants_keep_the_schur_split(self, monkeypatch):
        rng = np.random.default_rng(6)
        for plant in (random_general_plant(rng, 3, 1),
                      random_general_plant(rng, 3, -1),
                      random_mixed_plant(rng, 3)):
            assert _skew_ratio(plant.Ax) > 1.0
            self._assert_schur(monkeypatch, plant)

    def test_skew_part_at_the_bound(self, monkeypatch):
        # a diagonal Ax plus an off-diagonal skew part, so that the sum is
        # exact and the skew part's size is set to either side of the bound
        rng = np.random.default_rng(9)
        base = copy.copy(random_sym_plant(rng, 2))
        n = base.Ax.shape[0]
        D = np.diag(rng.uniform(0.5, 1.5, n) * np.array([-1, 1, -1, 1]))
        K = np.triu(rng.normal(size=(n, n)), 1)
        K -= K.T
        unit = n * np.finfo(float).eps * np.linalg.norm(D) / np.linalg.norm(2 * K)
        for factor, hermitian in ((1.01, False), (0.99, True)):
            base.Ax = D + factor * unit * K
            assert (_skew_ratio(base.Ax) > 1.0) is not hermitian
            if hermitian:
                self._assert_hermitian(monkeypatch, base)
            else:
                self._assert_schur(monkeypatch, base)

    def test_regime_labels_are_kept(self):
        # the one-mode sym plant and both DPA cases are labeled
        # "symmetric-iff"; multi-mode sym plants stay "general"
        rng = np.random.default_rng(0)
        for plant in (random_sym_plant(rng, 1, gamma=3.0),
                      build_dpa(DpaSpec(1.0, 4.0, 1.0, gamma=0.9)),
                      build_dpa(DpaSpec(2.0, 2.5, 1.0, gamma=1.4))):
            assert synthesize(plant).regime == "symmetric-iff"
        assert synthesize(random_sym_plant(rng, 3, gamma=3.0)).regime == "general"
