"""Independent checker for the benchmark, built from numpy/scipy alone.

Nothing here imports qhinf.  The plant matrices are derived from the
physical data by the quantum-linear-system formulas, the Riccati solutions
come from the stable invariant subspace of a Hamiltonian matrix (ordered
Schur form), Lyapunov solutions from
scipy.linalg.solve_continuous_lyapunov, and H-infinity bounds from the
imaginary-axis eigenvalue test.  Quadrature data are real and use the
ordering x = (q_1..q_n, p_1..p_n); passive data are complex annihilation-
operator matrices, for which every adjoint is the conjugate transpose.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

# Verdicts at gamma within this relative distance of the checker's own
# threshold are not clear-cut; ensembles never place a target that close.
SKIP_REL = 0.02
# Relative tolerance when comparing a threshold qhinf returns with the
# checker's verdicts on either side of it.
THRESHOLD_REL = 1e-3
# Relative bracket for a reported H-infinity norm: the true norm must lie
# in [hinf (1 - HINF_REL), hinf (1 + HINF_REL)].
HINF_REL = 1e-6


def jj(k: int) -> np.ndarray:
    """Symplectic form [[0, I], [-I, 0]] of size 2k."""
    Z, I = np.zeros((k, k)), np.eye(k)
    return np.block([[Z, I], [-I, Z]])


def sharp(X: np.ndarray) -> np.ndarray:
    """Quadrature adjoint X# = JJ_k' X^H JJ_r of a (2r x 2k) matrix."""
    r, k = X.shape[0] // 2, X.shape[1] // 2
    return jj(k).T @ X.conj().T @ jj(r)


def realify(N: np.ndarray) -> np.ndarray:
    """Real (q, p) form of complex multiplication by N."""
    return np.block([[N.real, -N.imag], [N.imag, N.real]])


@dataclass
class Plant:
    """Two-channel plant dx = A x + B1 w + B2 u, z = C1 x + D12 u,
    y = C2 x + D21 w, with the adjoint that makes it physical."""
    A: np.ndarray
    B1: np.ndarray
    B2: np.ndarray
    C1: np.ndarray
    C2: np.ndarray
    D12: np.ndarray
    D21: np.ndarray
    quadrature: bool

    def adj(self, X: np.ndarray) -> np.ndarray:
        return sharp(X) if self.quadrature else X.conj().T


def quadrature_plant(Hmat, C1, C2, D12, D21) -> Plant:
    """Plant from a Hamiltonian matrix and two quadrature couplings."""
    Hmat, C1, C2, D12, D21 = (np.asarray(M, dtype=float)
                              for M in (Hmat, C1, C2, D12, D21))
    A = (jj(Hmat.shape[0] // 2) @ Hmat
         - 0.5 * sharp(C1) @ C1 - 0.5 * sharp(C2) @ C2)
    return Plant(A, -sharp(C2) @ D21, -sharp(C1) @ D12, C1, C2, D12, D21, True)


def passive_plant(C1, C2) -> Plant:
    """Passive plant from annihilation-operator couplings, unit feedthroughs."""
    C1, C2 = (np.atleast_2d(np.asarray(M, dtype=complex)) for M in (C1, C2))
    D12, D21 = np.eye(C1.shape[0]), np.eye(C2.shape[0])
    A = -0.5 * (C1.conj().T @ C1 + C2.conj().T @ C2)
    return Plant(A, -C2.conj().T @ D21, -C1.conj().T @ D12, C1, C2, D12, D21,
                 False)


def _herm(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.conj().T)


def stabilizing_riccati(A: np.ndarray, R: np.ndarray) -> np.ndarray | None:
    """Stabilizing solution of A^H X + X A + X R X = 0 (A + R X Hurwitz).

    The stable invariant subspace [U1; U2] of [[A, R], [0, -A^H]] comes from
    an ordered Schur form (real for real data) and X = U2 U1^-1.  Returns None when the
    Hamiltonian has eigenvalues on the imaginary axis or the subspace is not
    a graph, i.e. when no stabilizing solution exists.
    """
    n = A.shape[0]
    H = np.block([[A, R], [np.zeros((n, n)), -A.conj().T]])
    lam = np.linalg.eigvals(H)
    if np.min(np.abs(lam.real)) <= 1e-9 * max(1.0, np.max(np.abs(lam))):
        return None
    real = np.isrealobj(H)
    _, Z, sdim = sla.schur(H, output="real" if real else "complex", sort="lhp")
    if sdim != n:
        return None
    U1, U2 = Z[:n, :n], Z[n:, :n]
    if np.linalg.svd(U1, compute_uv=False)[-1] < 1e-12:
        return None
    return _herm(np.linalg.solve(U1.T, U2.T).T)


@dataclass
class Design:
    """The checker's own solution of the H-infinity problem at one gamma."""
    gamma: float
    X: np.ndarray | None
    Y: np.ndarray | None
    rho_xy: float
    certified: bool


def design(p: Plant, gamma: float) -> Design:
    """Solve the X and Y Riccati equations of the normalized H-infinity
    problem (D12, D21 unitary) and test X >= 0, Y >= 0, rho(XY) < 1.

    Y is scaled by 1/gamma^2, so the coupling test reads rho(XY) < 1.
    """
    g2 = gamma * gamma
    Ax = p.A - p.B2 @ p.D12.conj().T @ p.C1
    Ay = p.A - p.B1 @ p.D21.conj().T @ p.C2
    M = p.B1 @ p.B1.conj().T / g2 - p.B2 @ p.B2.conj().T
    N = p.C1.conj().T @ p.C1 - g2 * p.C2.conj().T @ p.C2
    X = stabilizing_riccati(Ax, M)
    Y = stabilizing_riccati(Ay.conj().T, N)
    if X is None or Y is None:
        return Design(gamma, X, Y, float("inf"), False)
    rho = float(np.max(np.abs(np.linalg.eigvals(X @ Y)))) if X.size else 0.0

    def psd(S):
        return np.min(np.linalg.eigvalsh(S)) >= -1e-8 * max(1.0, np.linalg.norm(S))

    return Design(gamma, X, Y, rho, bool(psd(X) and psd(Y) and rho < 1.0))


def certifiable(p: Plant, gamma: float) -> bool:
    return design(p, gamma).certified


def threshold(p: Plant, lo: float = 0.1, hi: float = 10.0,
              rel: float = 1e-2) -> float:
    """Smallest certifiable gamma in [lo, hi] to within rel, by geometric
    bisection on the checker's verdict.  Raises ValueError when lo passes or
    hi fails."""
    if certifiable(p, lo) or not certifiable(p, hi):
        raise ValueError("threshold is not bracketed by [lo, hi]")
    while hi / lo > 1.0 + rel:
        mid = np.sqrt(lo * hi)
        lo, hi = (lo, mid) if certifiable(p, mid) else (mid, hi)
    return float(hi)


def clear_cut(p: Plant, gamma: float, rel: float = SKIP_REL) -> bool:
    """True when the verdict is the same at gamma (1 - rel) and gamma (1 + rel),
    i.e. the checker's threshold is not within rel of gamma."""
    return certifiable(p, gamma * (1 - rel)) == certifiable(p, gamma * (1 + rel))


def central_controller(p: Plant, d: Design):
    """Central controller (AK, BK, CK) built from the checker's X and Y."""
    g2 = d.gamma ** 2
    n = p.A.shape[0]
    CK = -(p.B2.conj().T @ d.X + p.D12.conj().T @ p.C1)
    BK = np.linalg.solve(np.eye(n) - d.Y @ d.X,
                         g2 * d.Y @ p.C2.conj().T + p.B1 @ p.D21.conj().T)
    AK = (p.A + p.B2 @ CK - BK @ p.C2
          + (p.B1 - BK @ p.D21) @ p.B1.conj().T @ d.X / g2)
    return AK, BK, CK


def closed_loop(p: Plant, AK, BK, CK):
    """Disturbance-to-performance interconnection of plant and controller:
    u = CK xK and dxK = AK xK + BK y."""
    A = np.block([[p.A, p.B2 @ CK], [BK @ p.C2, AK]])
    B = np.vstack([p.B1, BK @ p.D21])
    C = np.hstack([p.C1, p.D12 @ CK])
    return A, B, C


def is_hurwitz(A: np.ndarray) -> bool:
    return bool(np.max(np.linalg.eigvals(A).real) < 0.0)


def norm_below(A, B, C, gamma: float) -> bool:
    """||C (sI - A)^-1 B||_inf < gamma for Hurwitz A (strictly proper).

    The Hamiltonian [[A, B B^H / g^2], [-C^H C, -A^H]] has an eigenvalue on
    the imaginary axis exactly when gamma is a singular value of G(iw) for
    some real w.
    """
    H = np.block([[A, B @ B.conj().T / gamma ** 2],
                  [-C.conj().T @ C, -A.conj().T]])
    lam = np.linalg.eigvals(H)
    return bool(np.min(np.abs(lam.real)) > 1e-8 * max(1.0, np.max(np.abs(lam))))


def hinf_norm(A, B, C, rel: float = 1e-9) -> float:
    """H-infinity norm of a stable strictly proper system, by bisection on
    norm_below from a bracket that is itself checked."""
    lo = max(np.linalg.svd(C @ np.linalg.solve(-A, B), compute_uv=False)[0], 1e-300)
    hi = 2.0 * lo
    while not norm_below(A, B, C, hi):
        lo, hi = hi, 2.0 * hi
    while hi - lo > rel * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if norm_below(A, B, C, mid) else (mid, hi)
    return 0.5 * (lo + hi)


def hinf_consistent(A, B, C, hinf: float, rel: float = HINF_REL) -> bool:
    """True when a reported norm is right to within rel: the true norm is
    below hinf (1 + rel) and not below hinf (1 - rel)."""
    return (norm_below(A, B, C, hinf * (1 + rel))
            and not norm_below(A, B, C, hinf * (1 - rel)))


def pr_residual(p: Plant, AK, BK, CK) -> float:
    """Physical-realizability defect of a controller, relative to |AK|:
    |AK + AK# + BK BK# + CK# CK| / (1 + |AK|)."""
    R = AK + p.adj(AK) + BK @ p.adj(BK) + p.adj(CK) @ CK
    return float(np.linalg.norm(R) / (1.0 + np.linalg.norm(AK)))


def lyapunov(A: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """P with A P + P A^H + Q = 0."""
    return sla.solve_continuous_lyapunov(A, -Q)


def rel_err(got, want) -> float:
    got, want = np.asarray(got), np.asarray(want)
    return float(np.linalg.norm(got - want) / (1.0 + np.linalg.norm(want)))


# closed forms ---------------------------------------------------------------

def cavity_gamma_star(kappa1: float, kappa2: float) -> float:
    return float(np.sqrt(kappa1 / kappa2))


def cavity_x(kappa1: float, kappa2: float, gamma: float) -> float:
    return (kappa2 - kappa1) / (kappa2 - kappa1 / gamma ** 2)
