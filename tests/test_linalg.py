import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (random_general_plant, random_mixed_plant,
                      random_passive_plant, random_sym_plant)
from qhinf import linalg
from qhinf.errors import ImaginaryAxisError
from qhinf.linalg import (hinf_bracket, hinf_norm,
                          is_hurwitz, is_positive_semidefinite,
                          max_singular_value,
                          min_singular_value, ordered_schur_split,
                          solve_lyapunov_schur, spectral_radius)
from qhinf.options import DEFAULT
from qhinf.synth import synthesize
from qhinf.verify import close_loop


def stable_matrix(rng, n, shift=0.5):
    A = rng.normal(size=(n, n))
    return A - (np.max(np.linalg.eigvals(A).real) + shift) * np.eye(n)


# log-spaced probe frequencies of the grid (w = 0 and |Im lambda| are added)
_N_GRID = 2000


def _probe_frequencies(poles: np.ndarray) -> np.ndarray:
    lam = poles if poles.size else np.array([1.0 + 0j])
    mags = np.abs(lam)
    lo = max(1e-8, 1e-3 * float(np.min(mags[mags > 0], initial=1.0)))
    hi = max(10.0, 1e3 * float(np.max(mags, initial=1.0)))
    grid = np.geomspace(lo, hi, _N_GRID)
    res = np.abs(lam.imag)
    return np.unique(np.concatenate([[0.0], grid, res[res > 0]]))


def hinf_norm_grid(A, B, C, D, opts=DEFAULT) -> tuple[float, float]:
    """Lower-bound the H-infinity norm on a dense log frequency grid.

    Returns (max gain, frequency achieving it).  An independent check of
    the level-set norm: the grid can only under-estimate.
    """
    A, B, C, D = map(np.asarray, (A, B, C, D))
    resp = linalg.Response(A, B, C, D, opts)
    w = _probe_frequencies(resp.poles)
    g = resp.gains(w)
    i = int(np.argmax(g))
    best = max_singular_value(D)
    if g[i] > best:
        return float(g[i]), float(w[i])
    return best, np.inf


def solve_lyapunov(A, Q, opts=DEFAULT) -> np.ndarray:
    """Solve A P + P A^H + Q = 0 for Hermitian P: the full Bartels-Stewart
    solver (CACM 15(9), 1972), a reference for solve_lyapunov_schur.

    With the Schur form A = Z T Z^H (real quasi-triangular for real data,
    complex triangular otherwise), solve_lyapunov_schur solves
    T Pt + Pt T^H + Z^H Q Z = 0 and P = Z Pt Z^H, symmetrized.
    """
    A, Q = np.asarray(A), np.asarray(Q)
    real = np.isrealobj(A) and np.isrealobj(Q)
    T, Z = sla.schur(A, output="real" if real else "complex")
    P = Z @ solve_lyapunov_schur(T, Z.conj().T @ Q @ Z, opts) @ Z.conj().T
    return 0.5 * (P + P.conj().T)


def crosses(A, B, C, gamma):
    """gamma is a singular value of C (i w - A)^-1 B for some real w: the
    Hamiltonian [[A, B B^H / gamma^2], [-C^H C, -A^H]] has an imaginary-axis
    eigenvalue."""
    H = np.block([[A, B @ B.conj().T / gamma**2],
                  [-C.conj().T @ C, -A.conj().T]])
    lam = np.linalg.eigvals(H)
    return bool(np.min(np.abs(lam.real)) <= 1e-8 * max(1.0, np.max(np.abs(lam))))


def _trsyl(T, Q):
    """LAPACK trsyl on T P + P T^H = -Q: (P unscaled, scale, info)."""
    real = np.isrealobj(T) and np.isrealobj(Q)
    trsyl, = sla.get_lapack_funcs(("trsyl",), (T, Q))
    return trsyl(T, T, -Q, tranb="T" if real else "C")


class TestBasics:
    def test_spectral_radius(self):
        assert spectral_radius(np.diag([1.0, -3.0])) == pytest.approx(3.0)

    def test_singular_values(self):
        M = np.diag([2.0, 0.5])
        assert max_singular_value(M) == pytest.approx(2.0)
        assert min_singular_value(M) == pytest.approx(0.5)

    def test_hurwitz(self):
        assert is_hurwitz(np.diag([-1.0, -2.0]))
        assert not is_hurwitz(np.diag([-1.0, 0.1]))

    def test_definiteness(self):
        assert is_positive_semidefinite(np.diag([1.0, 0.0]))
        assert not is_positive_semidefinite(np.diag([1.0, -1e-3]))


class TestLyapunov:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    def test_residual_random_stable(self, seed, n):
        rng = np.random.default_rng(seed)
        A = stable_matrix(rng, n)
        G = rng.normal(size=(n, n))
        Q = G @ G.T
        P = solve_lyapunov(A, Q)
        assert np.linalg.norm(A @ P + P @ A.T + Q) <= 1e-8 * (1 + np.linalg.norm(Q))
        assert np.allclose(P, P.T)

    def test_complex_pair(self, rng):
        n = 3
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        A = A - (np.max(np.linalg.eigvals(A).real) + 1.0) * np.eye(n)
        G = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        Q = G @ G.conj().T
        P = solve_lyapunov(A, Q)
        assert np.linalg.norm(A @ P + P @ A.conj().T + Q) < 1e-9 * np.linalg.norm(Q)

    def test_quasi_triangular_matches_scipy(self, rng):
        # real Schur-like A with two 2x2 complex-pair blocks and a 1x1 block
        A = np.triu(rng.normal(size=(5, 5)))
        A[[0, 1, 2], [0, 1, 2]] = [-1.0, -1.0, -0.3]
        A[[3, 4], [3, 4]] = -0.7
        A[1, 0], A[0, 1] = -2.0, 1.5
        A[4, 3], A[3, 4] = -0.5, 3.0
        G = rng.normal(size=(5, 3))
        Q = G @ G.T
        P = solve_lyapunov(A, Q)
        ref = sla.solve_continuous_lyapunov(A, -Q)
        assert np.isrealobj(P)
        assert np.linalg.norm(P - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_diagonal_with_complex_q_matches_scipy(self, rng):
        # the passive split's shape: real diagonal A, complex Hermitian Q
        A = np.diag([-0.4, -1.3, -2.2, -0.9])
        G = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
        Q = G @ G.conj().T
        P = solve_lyapunov(A, Q)
        ref = sla.solve_continuous_lyapunov(A, -Q)
        assert np.iscomplexobj(P)
        assert np.linalg.norm(P - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_memory_is_quadratic(self, rng):
        # an n^2 x n^2 Kronecker system at n = 60 would need ~100 MB
        A = stable_matrix(rng, 60)
        G = rng.normal(size=(60, 60))
        Q = G @ G.T
        tracemalloc.start()
        try:
            solve_lyapunov(A, Q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20

    def test_singular_operator_raises(self):
        # mirrored eigenvalue pair makes the Lyapunov operator singular; the
        # triangular half refuses it as the whole solver does, for real and
        # complex Schur forms
        for T in (np.diag([1.0, -1.0]), np.array([[1j, 1.0], [0.0, -1j]])):
            for solve in (solve_lyapunov, solve_lyapunov_schur):
                with pytest.raises(ImaginaryAxisError):
                    solve(T, np.eye(2))

    def test_schur_half_on_split_blocks(self):
        # the splits' blocks are already in LAPACK's Schur form: the full
        # solver's Schur step returns them unchanged, so skipping it gives
        # the same S, T, U, V bit for bit, real (quadrature) and complex
        # (passive)
        rng = np.random.default_rng(8)
        plants = [random_sym_plant(rng, 3), random_general_plant(rng, 3, 1),
                  random_general_plant(rng, 3, -1), random_mixed_plant(rng, 3),
                  random_passive_plant(rng, 4)]
        for plant in plants:
            split = plant.split()
            sd = split.n_stable
            B1x, B2x = split.W @ plant.B1, split.W @ plant.B2
            for A, B in ((-split.A22, B2x[sd:]), (-split.A22, B1x[sd:]),
                         (split.A11, B1x[:sd]), (split.A11, B2x[:sd])):
                Q = B @ B.conj().T
                P = solve_lyapunov_schur(A, Q)
                assert np.array_equal(P, solve_lyapunov(A, Q))
                assert P.dtype == np.result_type(A, Q)

    def test_diagonal_closed_form_matches_trsyl(self, monkeypatch):
        # a diagonal T (the Hermitian split's blocks) is solved in closed
        # form, without trsyl; P, and so the residual the gate reads, are
        # trsyl's to the bit, real and complex, n = 1...40
        rng = np.random.default_rng(3)
        cases = []
        for n in range(1, 41):
            for kind in ("real", "complex Q", "complex T"):
                lam = rng.uniform(0.1, 3.0, n) * rng.choice([-1.0, 1.0], n)
                G = rng.normal(size=(n, n))
                if kind != "real":
                    G = G + 1j * rng.normal(size=(n, n))
                if kind == "complex T":
                    lam = lam + 1j * rng.normal(size=n)
                T, Q = np.diag(lam), G @ G.conj().T
                Pt, scale, info = _trsyl(T, Q)
                assert info == 0
                want = Pt / scale
                cases.append((T, Q, 0.5 * (want + want.conj().T)))
        monkeypatch.setattr(linalg.sla, "get_lapack_funcs", None)
        for T, Q, want in cases:
            got = solve_lyapunov_schur(T, Q)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            resid = [np.linalg.norm(T @ P + P @ T.conj().T + Q)
                     for P in (got, want)]
            assert resid[0] == resid[1]

    def test_diagonal_refusal_matches_trsyl(self):
        # the closed form refuses where trsyl reports info = 1: some
        # |lambda_i + conj(lambda_j)| <= max(eps max|lambda|, n^2 tiny / eps)
        eps = np.finfo(float).eps
        seen = set()
        for a in (1.0, 3.7, 1e-300):
            for k in (0.5, 1.0, 2.0, 4.0):
                lam = np.array([a, -a + k * eps * a])
                for T in (np.diag(lam), np.diag(lam + 0.5j)):
                    refused = _trsyl(T, np.eye(2))[2] != 0
                    seen.add(refused)
                    if refused:
                        with pytest.raises(ImaginaryAxisError, match="singular"):
                            solve_lyapunov_schur(T, np.eye(2))
                    else:
                        solve_lyapunov_schur(T, np.eye(2))
        assert seen == {True, False}

    def test_schur_half_refuses_a_full_matrix(self):
        # trsyl reads only the upper (quasi-)triangle; the residual, taken
        # with the matrix given, refuses one that is not in Schur form
        A = stable_matrix(np.random.default_rng(2), 4)
        with pytest.raises(ImaginaryAxisError, match="residual"):
            solve_lyapunov_schur(A, np.eye(4))


class TestSchurSplit:
    def test_partition(self, rng):
        A = np.diag([-2.0, 1.0, -0.5, 3.0])
        Q = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        split = ordered_schur_split(Q @ A @ Q.T)
        assert split.n_stable == 2 and split.n_anti == 2
        assert split.min_abs_real == pytest.approx(0.5, rel=1e-12)
        assert np.all(np.linalg.eigvals(split.A11).real < 0)
        assert np.all(np.linalg.eigvals(split.A22).real > 0)
        # W A W^T reproduces the block upper-triangular form
        T = split.W @ (Q @ A @ Q.T) @ split.W.T
        assert np.linalg.norm(T[split.n_stable:, :split.n_stable]) < 1e-10

    def test_all_stable(self):
        split = ordered_schur_split(np.diag([-1.0, -2.0]))
        assert split.n_stable == 2 and split.n_anti == 0

    def test_imaginary_axis_raises(self, rng):
        with pytest.raises(ImaginaryAxisError, match=r"min \|Re lambda\| = "):
            ordered_schur_split(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        # a near-axis complex pair next to a stable mode, in rotated coordinates
        A = np.array([[1e-14, 2.0, 0.0], [-0.5, 1e-14, 0.0], [0.0, 0.0, -2.0]])
        Q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        with pytest.raises(ImaginaryAxisError):
            ordered_schur_split(Q @ A @ Q.T)


class TestHinfNorm:
    def test_first_order(self):
        # G(s) = b c / (s + a): peak |bc|/a at omega = 0
        A = np.array([[-2.0]])
        B = np.array([[3.0]])
        C = np.array([[1.5]])
        D = np.array([[0.0]])
        assert hinf_norm(A, B, C, D) == pytest.approx(2.25, abs=1e-7)
        gval, _ = hinf_norm_grid(A, B, C, D)
        assert gval == pytest.approx(2.25, rel=1e-4)

    def test_resonant_peak(self):
        # lightly damped oscillator: peak near omega0 = 1
        A = np.array([[0.0, 1.0], [-1.0, -0.1]])
        B = np.array([[0.0], [1.0]])
        C = np.array([[1.0, 0.0]])
        D = np.zeros((1, 1))
        ref = linalg.Response(A, B, C, D).gains(np.linspace(0.9, 1.1, 20001)).max()
        assert hinf_norm(A, B, C, D) == pytest.approx(ref, rel=1e-6)

    def test_feedthrough_floor(self):
        A = np.array([[-1.0]])
        Z = np.zeros((1, 1))
        D = np.array([[0.7]])
        assert hinf_norm(A, Z, Z, D) == pytest.approx(0.7, abs=1e-8)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_bisection_vs_grid(self, seed):
        rng = np.random.default_rng(seed)
        n = 3
        A = stable_matrix(rng, n, shift=0.8)
        B = rng.normal(size=(n, 2))
        C = rng.normal(size=(2, n))
        D = np.zeros((2, 2))
        val = hinf_norm(A, B, C, D)
        gval, _ = hinf_norm_grid(A, B, C, D)
        assert gval <= val * (1 + 1e-6)
        assert abs(val - gval) <= 1e-3 * max(1.0, val)
        # the bracket: a gain attained at w, no grid gain above it by more
        # than the bracket's width, and the proven bound on top
        upper, gain, w = hinf_bracket(A, B, C, D)
        assert upper == val
        assert gain == pytest.approx(
            linalg.Response(A, B, C, D).gains([w])[0], rel=1e-12)
        assert gval <= gain * (1 + 4 * DEFAULT.hinf_tol) and gain <= upper

    def test_no_under_report_non_normal(self):
        # strongly non-normal A puts narrow peaks between grid points, and
        # 2 |B| |C| / decay is no upper bound on the norm
        rng = np.random.default_rng(5)
        wrong = []
        for i in range(300):
            n = int(rng.integers(2, 7))
            T = (3.0 * np.triu(rng.normal(size=(n, n)), 1)
                 - np.diag(rng.uniform(0.05, 2.0, n)))
            Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
            A, B, C = Q @ T @ Q.T, rng.normal(size=(n, 1)), rng.normal(size=(1, n))
            D = np.zeros((1, 1))
            h = hinf_norm(A, B, C, D)
            if (crosses(A, B, C, h * (1 + 1e-6))
                    or not crosses(A, B, C, h * (1 - 1e-6))
                    or hinf_norm_grid(A, B, C, D)[0] > h):
                wrong.append((i, h))
        assert wrong == []

    def test_sharp_resonance(self):
        # peak 1 / (2 z sqrt(1 - z^2)) at damping z; at z = 1e-6 the
        # Hamiltonian's eigenvalues just above the peak lie within split_tol
        # of the axis, so the proven bound sits a little higher
        def oscillator(z):
            A = np.array([[0.0, 1.0], [-1.0, -2.0 * z]])
            return A, np.array([[0.0], [1.0]]), np.array([[1.0, 0.0]]), np.zeros((1, 1))

        for z, rel in ((1e-3, 1e-8), (1e-6, 1e-4)):
            peak = 1.0 / (2.0 * z * np.sqrt(1.0 - z * z))
            h = hinf_norm(*oscillator(z))
            assert peak <= h <= peak * (1.0 + rel)
        # a pole within split_tol of the axis: no level can be resolved
        with pytest.raises(ImaginaryAxisError):
            hinf_norm(*oscillator(1e-9))

    def test_lu_fallback_matches_eigen_route(self):
        # residual_tol = 0 rejects every eigenvector basis, forcing the
        # per-frequency LU route on the same grid
        rng = np.random.default_rng(7)
        plant = random_sym_plant(rng, 6, gamma=2.0)
        cl = close_loop(plant, synthesize(plant).controller)
        lu = DEFAULT.override(residual_tol=0.0)
        resp_lu = linalg.Response(cl.A, cl.B, cl.C, cl.D, lu)
        resp_eig = linalg.Response(cl.A, cl.B, cl.C, cl.D)
        assert resp_lu.CV is None
        assert resp_eig.CV is not None
        g_eig, w_eig = hinf_norm_grid(cl.A, cl.B, cl.C, cl.D)
        g_lu, w_lu = hinf_norm_grid(cl.A, cl.B, cl.C, cl.D, opts=lu)
        assert g_lu == pytest.approx(g_eig, rel=1e-12)
        ws = [0.0, 0.3, w_eig, w_lu, 40.0]
        assert resp_lu.gains(ws) == pytest.approx(resp_eig.gains(ws), rel=1e-12)

    def test_transfer_value(self):
        # G(s) = 0.5 + 2 / (s + 1) on both routes of the one evaluator, at
        # complex frequencies and on the axis
        A = np.array([[-1.0]])
        B = np.array([[2.0]])
        C = np.array([[1.0]])
        D = np.array([[0.5]])
        for opts in (DEFAULT, DEFAULT.override(residual_tol=0.0)):
            resp = linalg.Response(A, B, C, D, opts)
            for s in (3.0j, 0.5 - 2.0j):
                expected = 0.5 + 2.0 / (s + 1.0)
                assert resp.value(s)[0, 0] == pytest.approx(expected)
            assert resp.gains([3.0])[0] == pytest.approx(abs(0.5 + 2.0 / (1.0 + 3.0j)))
