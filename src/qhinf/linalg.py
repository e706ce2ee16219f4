"""Dense linear-algebra kernel used by the synthesis pipeline.

Thin, checked wrappers around numpy/scipy factorizations plus the two
solvers the pipeline is built on: a Bartels-Stewart Lyapunov solver (one
Schur form and LAPACK trsyl, O(n^3)) and a Hamiltonian-bisection H-infinity
norm.  Everything works on complex input; real input stays real where the
contract promises it.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import DimensionError, ImaginaryAxisError, NotHurwitzError
from .options import DEFAULT, NumericOptions


def _as_square(M: np.ndarray, name: str = "matrix") -> np.ndarray:
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {M.shape}")
    return M


def spectral_radius(A: np.ndarray) -> float:
    A = _as_square(A, "A")
    if A.shape[0] == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(A))))


def max_singular_value(M: np.ndarray) -> float:
    M = np.asarray(M)
    if M.size == 0:
        return 0.0
    return float(np.linalg.svd(M, compute_uv=False)[0])


def min_singular_value(M: np.ndarray) -> float:
    M = np.asarray(M)
    if M.size == 0:
        return 0.0
    return float(np.linalg.svd(M, compute_uv=False)[-1])


def is_hurwitz(A: np.ndarray) -> bool:
    """True iff every eigenvalue of A has negative real part."""
    A = _as_square(A, "A")
    if A.shape[0] == 0:
        return True
    return bool(np.max(np.linalg.eigvals(A).real) < 0.0)


def is_positive_definite(M: np.ndarray, opts: NumericOptions = DEFAULT) -> bool:
    """Hermitian positive definiteness via the eigenvalue spectrum.

    Non-Hermitian input (beyond struct_tol) is rejected as False rather than
    silently symmetrized.
    """
    M = _as_square(M, "M")
    if M.shape[0] == 0:
        return True
    scale = max(1.0, float(np.linalg.norm(M)))
    if np.linalg.norm(M - M.conj().T) > opts.struct_tol * scale:
        return False
    return bool(np.min(np.linalg.eigvalsh(M)) > opts.pd_tol * scale)


def is_positive_semidefinite(M: np.ndarray, opts: NumericOptions = DEFAULT) -> bool:
    M = _as_square(M, "M")
    if M.shape[0] == 0:
        return True
    scale = max(1.0, float(np.linalg.norm(M)))
    if np.linalg.norm(M - M.conj().T) > opts.struct_tol * scale:
        return False
    return bool(np.min(np.linalg.eigvalsh(M)) > -opts.psd_tol * scale)


def solve_lyapunov(A: np.ndarray, Q: np.ndarray,
                   opts: NumericOptions = DEFAULT) -> np.ndarray:
    """Solve A P + P A^H + Q = 0 for Hermitian P.

    Bartels-Stewart (CACM 15(9), 1972): with the Schur form A = Z T Z^H
    (real quasi-triangular for real data, complex triangular otherwise),
    LAPACK trsyl solves T Pt + Pt T^H = -Z^H Q Z by back substitution and
    P = Z Pt Z^H.  O(n^3) time and O(n^2) memory.  Solvable whenever no pair
    of eigenvalues satisfies lambda_i + conj(lambda_j) = 0; in the pipeline A
    is always Hurwitz (or -A is), which guarantees this.  Output is
    symmetrized and realified when the data are real.
    """
    A = _as_square(A, "A")
    Q = _as_square(Q, "Q")
    n = A.shape[0]
    if Q.shape[0] != n:
        raise DimensionError(f"A is {A.shape}, Q is {Q.shape}")
    if n == 0:
        return np.zeros((0, 0))
    scale = max(1.0, float(np.linalg.norm(Q)))
    if np.linalg.norm(Q - Q.conj().T) > opts.struct_tol * scale:
        raise ValueError("Q must be Hermitian")
    real = np.isrealobj(A) and np.isrealobj(Q)
    T, Z = sla.schur(A, output="real" if real else "complex")
    C = -(Z.conj().T @ Q @ Z)
    trsyl, = sla.get_lapack_funcs(("trsyl",), (T, C))
    Pt, trsyl_scale, info = trsyl(T, T, C, tranb="T" if real else "C")
    if info != 0:
        # info == 1: lambda_i + conj(lambda_j) (near) zero, trsyl perturbed
        raise ImaginaryAxisError(
            "Lyapunov operator is singular: eigenvalue pair with "
            "lambda_i + conj(lambda_j) = 0")
    P = Z @ (Pt / trsyl_scale) @ Z.conj().T
    P = 0.5 * (P + P.conj().T)
    if real:
        P = P.real
    resid = np.linalg.norm(A @ P + P @ A.conj().T + Q)
    if resid > opts.residual_tol * max(1.0, np.linalg.norm(Q), np.linalg.norm(P)):
        raise ImaginaryAxisError(
            f"Lyapunov solve residual {resid:.3e} too large; "
            "spectrum is too close to the imaginary axis")
    return P


@dataclass
class SchurSplit:
    """A shifted generator split into stable / anti-stable parts.

    W is unitary with W A W^H = [[A11, A12], [0, A22]], where A11 carries
    the open-left-half-plane eigenvalues and A22 the open-right-half-plane
    ones.  The general split is an ordered real Schur form (W real
    orthogonal, A11 and A22 quasi-triangular); the passive split is an
    eigendecomposition of a Hermitian generator (A11 and A22 diagonal, A12
    zero).  n_stable + n_anti = n; either block may be empty.  min_abs_real
    is the smallest |Re lambda| over the spectrum, the distance to the
    imaginary axis that the split tested (inf for an empty matrix).
    """
    W: np.ndarray
    A11: np.ndarray
    A12: np.ndarray
    A22: np.ndarray
    n_stable: int
    n_anti: int
    min_abs_real: float


def _quasi_triangular_eigenvalues(T: np.ndarray) -> np.ndarray:
    """Eigenvalues of a real quasi-triangular T from its 1x1 and 2x2
    diagonal blocks (a 2x2 block starts wherever the subdiagonal is
    nonzero)."""
    lam = np.diag(T).astype(complex)
    for i in np.flatnonzero(np.diag(T, -1)):
        mean = 0.5 * (T[i, i] + T[i + 1, i + 1])
        root = np.sqrt(complex((0.5 * (T[i, i] - T[i + 1, i + 1])) ** 2
                               + T[i, i + 1] * T[i + 1, i]))
        lam[i], lam[i + 1] = mean + root, mean - root
    return lam


def _near_axis(min_re: float) -> ImaginaryAxisError:
    return ImaginaryAxisError(
        f"eigenvalue on or near the imaginary axis (min |Re lambda| = "
        f"{min_re:.3e}); stable/anti-stable split is ill-defined "
        "(standing assumptions violated)")


def ordered_schur_split(A: np.ndarray, opts: NumericOptions = DEFAULT) -> SchurSplit:
    """Split a real matrix into stable and anti-stable invariant subspaces.

    Raises ImaginaryAxisError, naming min |Re lambda|, if any eigenvalue has
    |Re lambda| below split_tol relative to the spectral scale, since the
    split is then ill-defined.
    """
    A = _as_square(A, "A")
    if not np.isrealobj(A):
        if np.max(np.abs(A.imag)) > opts.imag_tol * max(1.0, np.linalg.norm(A)):
            raise ValueError("ordered_schur_split expects a real matrix")
        A = A.real
    n = A.shape[0]
    if n == 0:
        e = np.zeros((0, 0))
        return SchurSplit(e, e, e, e, 0, 0, np.inf)
    try:
        T, Z, sdim = sla.schur(A, output="real", sort=lambda re, im: re < 0.0)
    except np.linalg.LinAlgError as exc:
        # reordering fails when rounding flips the sign of a real part
        lam = _quasi_triangular_eigenvalues(sla.schur(A, output="real")[0])
        raise _near_axis(float(np.min(np.abs(lam.real)))) from exc
    lam = _quasi_triangular_eigenvalues(T)
    scale = max(1.0, float(np.max(np.abs(lam))))
    min_re = float(np.min(np.abs(lam.real)))
    if min_re <= opts.split_tol * scale:
        raise _near_axis(min_re)
    # T[sdim:, :sdim] is zero by construction: a sorted real Schur form
    # never splits a 2x2 block across sdim
    return SchurSplit(
        W=Z.T,
        A11=T[:sdim, :sdim],
        A12=T[:sdim, sdim:],
        A22=T[sdim:, sdim:],
        n_stable=int(sdim),
        n_anti=n - int(sdim),
        min_abs_real=min_re,
    )


# ---------------------------------------------------------------------------
# H-infinity norm
# ---------------------------------------------------------------------------

def transfer_value(A: np.ndarray, B: np.ndarray, C: np.ndarray, D: np.ndarray,
                   s: complex) -> np.ndarray:
    """Evaluate C (sI - A)^{-1} B + D at a single complex frequency."""
    n = A.shape[0]
    if n == 0:
        return np.asarray(D, dtype=complex)
    return C @ np.linalg.solve(s * np.eye(n) - A, B) + D


def gain_at(A, B, C, D, omega: float) -> float:
    """Largest singular value of the transfer matrix at s = i*omega."""
    return max_singular_value(transfer_value(A, B, C, D, 1j * omega))


def _probe_frequencies(A: np.ndarray, n_grid: int) -> np.ndarray:
    lam = np.linalg.eigvals(A) if A.shape[0] else np.array([1.0 + 0j])
    mags = np.abs(lam)
    lo = max(1e-8, 1e-3 * float(np.min(mags[mags > 0], initial=1.0)))
    hi = max(10.0, 1e3 * float(np.max(mags, initial=1.0)))
    grid = np.geomspace(lo, hi, n_grid)
    res = np.abs(lam.imag)
    return np.unique(np.concatenate([[0.0], grid, res[res > 0]]))


def hinf_norm_grid(A, B, C, D, n_grid: int = 2000) -> tuple[float, float]:
    """Lower-bound the H-infinity norm on a dense log frequency grid.

    Returns (max gain, frequency achieving it).  Used as an independent
    cross-check of the bisection; the grid can only under-estimate.
    """
    A, B, C, D = map(np.asarray, (A, B, C, D))
    best, wbest = max_singular_value(D), np.inf
    for w in _probe_frequencies(A, n_grid):
        g = gain_at(A, B, C, D, w)
        if g > best:
            best, wbest = g, w
    return best, wbest


def _has_imaginary_eigenvalue(A, B, C, D, gamma: float) -> bool:
    """Test gamma <= ||G||_inf via the Hamiltonian eigenvalue criterion."""
    n = A.shape[0]
    R = D.conj().T @ D - gamma**2 * np.eye(D.shape[1])
    S = D @ D.conj().T - gamma**2 * np.eye(D.shape[0])
    Rinv_DhC = np.linalg.solve(R, D.conj().T @ C)
    Abar = A - B @ Rinv_DhC
    M = np.block([
        [Abar, -gamma * B @ np.linalg.solve(R, B.conj().T)],
        [gamma * C.conj().T @ np.linalg.solve(S, C), -Abar.conj().T],
    ])
    lam = np.linalg.eigvals(M)
    tol = 1e-10 * np.maximum(1.0, np.abs(lam))
    return bool(np.any(np.abs(lam.real) <= tol))


def hinf_norm(A, B, C, D, opts: NumericOptions = DEFAULT) -> float:
    """H-infinity norm of the stable system (A, B, C, D) by bisection.

    Bracket from a frequency-grid lower bound (which also handles the
    all-pass case, where the norm equals the largest singular value of D)
    and a resolvent-based upper bound; refine with the standard Hamiltonian
    imaginary-axis-eigenvalue test.  Raises NotHurwitzError for unstable A.
    """
    A, B, C, D = map(lambda M: np.atleast_2d(np.asarray(M)), (A, B, C, D))
    A = _as_square(A, "A")
    n = A.shape[0]
    if n and not is_hurwitz(A):
        raise NotHurwitzError("H-infinity norm requires a Hurwitz A")
    if n == 0 or B.size == 0 or C.size == 0:
        return max_singular_value(D)

    lo = max(max_singular_value(D), hinf_norm_grid(A, B, C, D, n_grid=400)[0])
    decay = -float(np.max(np.linalg.eigvals(A).real))
    hi = max_singular_value(D) + 2.0 * np.linalg.norm(C, 2) * np.linalg.norm(B, 2) / decay
    hi = max(hi, lo * (1 + 1e-6) + opts.hinf_tol)
    while hi - lo > opts.hinf_tol * max(1.0, lo):
        mid = 0.5 * (lo + hi)
        if _has_imaginary_eigenvalue(A, B, C, D, mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
