"""Dense linear-algebra kernel used by the synthesis pipeline.

Thin, checked wrappers around numpy/scipy factorizations plus the solvers
the pipeline is built on: the stable/anti-stable splits (an ordered real
Schur form, or an eigendecomposition for a Hermitian matrix), the
triangular half of a Bartels-Stewart Lyapunov solver (solve_lyapunov_schur:
LAPACK trsyl, or a closed form for a diagonal T; the split's blocks are
already in Schur form, so no solve needs a Schur form of its own),
Response, the one evaluator of the frequency response G(s), and a
level-set H-infinity norm (a few Hamiltonian eigenvalue tests) that
brackets the norm between a gain it attains and a bound it proves.
Everything works on complex input; real input stays real where the
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


def is_positive_semidefinite(M: np.ndarray, opts: NumericOptions = DEFAULT) -> bool:
    M = _as_square(M, "M")
    if M.shape[0] == 0:
        return True
    scale = max(1.0, float(np.linalg.norm(M)))
    if np.linalg.norm(M - M.conj().T) > opts.struct_tol * scale:
        return False
    return bool(np.min(np.linalg.eigvalsh(M)) > -opts.psd_tol * scale)


# trsyl's machine constants: its precision eps and safe minimum
_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny


def _singular_operator() -> ImaginaryAxisError:
    return ImaginaryAxisError(
        "Lyapunov operator is singular: eigenvalue pair with "
        "lambda_i + conj(lambda_j) = 0")


def solve_lyapunov_schur(T: np.ndarray, Q: np.ndarray,
                         opts: NumericOptions = DEFAULT) -> np.ndarray:
    """Solve T P + P T^H + Q = 0 for Hermitian P when T is already in
    LAPACK's Schur form (upper triangular, or real quasi-triangular with
    standardized 2x2 blocks), as the blocks of both plants' splits are.

    The triangular half of Bartels-Stewart (CACM 15(9), 1972), without its
    Schur factorization: LAPACK trsyl by back substitution (O(n^3), a
    fraction of the Schur form's cost), the scale trsyl reports, and
    symmetrization.  A diagonal T (the Hermitian split's blocks) is solved
    in closed form, P_ij = -Q_ij / (lambda_i + conj(lambda_j)), which is
    what trsyl's back substitution computes there, to the bit.  Real data
    give a real P.
    Raises ImaginaryAxisError when the operator is singular in trsyl's test
    (the closed form applies the same one: |lambda_i + conj(lambda_j)|, as
    |Re| + |Im|, at most max(eps max|lambda|, n^2 tiny / eps)) or the
    residual exceeds residual_tol; the residual is taken with T itself, so
    it also refuses a T that is not in Schur form.
    """
    T = _as_square(T, "T")
    Q = _as_square(Q, "Q")
    n = T.shape[0]
    if Q.shape[0] != n:
        raise DimensionError(f"T is {T.shape}, Q is {Q.shape}")
    if n == 0:
        return np.zeros((0, 0))
    scale = max(1.0, float(np.linalg.norm(Q)))
    if np.linalg.norm(Q - Q.conj().T) > opts.struct_tol * scale:
        raise ValueError("Q must be Hermitian")
    lam = np.diag(T)
    if np.count_nonzero(T) == np.count_nonzero(lam):   # T is diagonal
        den = lam[:, None] + lam.conj()
        size = (np.abs(den.real) + np.abs(den.imag) if np.iscomplexobj(den)
                else np.abs(den))
        if size.min() <= max(_EPS * np.abs(lam).max(), _TINY * n * n / _EPS):
            raise _singular_operator()
        P = -Q / den
    else:
        real = np.isrealobj(T) and np.isrealobj(Q)
        trsyl, = sla.get_lapack_funcs(("trsyl",), (T, Q))
        Pt, trsyl_scale, info = trsyl(T, T, -Q, tranb="T" if real else "C")
        if info != 0:
            # info == 1: lambda_i + conj(lambda_j) (near) zero, trsyl perturbed
            raise _singular_operator()
        P = Pt / trsyl_scale
    P = 0.5 * (P + P.conj().T)
    resid = np.linalg.norm(T @ P + P @ T.conj().T + Q)
    if resid > opts.residual_tol * max(1.0, np.linalg.norm(Q), np.linalg.norm(P)):
        raise ImaginaryAxisError(
            f"Lyapunov solve residual {resid:.3e} too large; "
            "spectrum is too close to the imaginary axis")
    return P


@dataclass(frozen=True)
class SchurSplit:
    """A shifted generator split into stable / anti-stable parts.

    W is unitary with W A W^H = [[A11, A12], [0, A22]], where A11 carries
    the open-left-half-plane eigenvalues and A22 the open-right-half-plane
    ones.  The general split is an ordered real Schur form (W real
    orthogonal, A11 and A22 quasi-triangular); the Hermitian split, of a
    passive plant's Hermitian generator or of a symmetric quadrature one,
    is an eigendecomposition (A11 and A22 real diagonal, A12 zero, W
    unitary, real for real input).  n_stable + n_anti = n; either block
    may be empty.  min_abs_real is the smallest |Re lambda| over the
    spectrum, the distance to the imaginary axis that the split tested (inf
    for an empty matrix).  Frozen: synth.prepare shares one split between
    results.
    """
    W: np.ndarray
    A11: np.ndarray
    A12: np.ndarray
    A22: np.ndarray
    n_stable: int
    n_anti: int
    min_abs_real: float


def schur_eigenvalues(T: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Schur form T: the diagonal of a complex triangular
    T; for a real quasi-triangular T, its 1x1 and 2x2 diagonal blocks (a 2x2
    block starts wherever the subdiagonal is nonzero)."""
    lam = np.diag(T).astype(complex)
    if np.iscomplexobj(T):
        return lam
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


def axis_margin(lam: np.ndarray, opts: NumericOptions = DEFAULT) -> float:
    """min |Re lambda| of the spectrum lam (inf if empty), for both plants'
    splits.  Raises ImaginaryAxisError, naming it, when it is within
    split_tol of max(1, max |lambda|): the split is then ill-defined."""
    if not lam.size:
        return np.inf
    min_re = float(np.min(np.abs(lam.real)))
    if min_re <= opts.split_tol * max(1.0, float(np.max(np.abs(lam)))):
        raise _near_axis(min_re)
    return min_re


def ordered_schur_split(A: np.ndarray, opts: NumericOptions = DEFAULT) -> SchurSplit:
    """Split a real matrix into stable and anti-stable invariant subspaces.

    Raises ImaginaryAxisError, naming min |Re lambda|, when axis_margin
    refuses the spectrum or the reordering fails on it.
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
        lam = schur_eigenvalues(sla.schur(A, output="real")[0])
        raise _near_axis(float(np.min(np.abs(lam.real)))) from exc
    min_re = axis_margin(schur_eigenvalues(T), opts)
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


def hermitian_split(A: np.ndarray, opts: NumericOptions = DEFAULT) -> SchurSplit:
    """Split a Hermitian (real symmetric) matrix by its eigendecomposition,
    negative eigenvalues first: W A W^H = diag(lambda), with diagonal
    stable and anti-stable blocks and a zero coupling block A12.

    eigh reads A's lower triangle, so a matrix that is Hermitian only to
    rounding is split as the Hermitian matrix that triangle defines.
    Raises ImaginaryAxisError, naming min |Re lambda|, when axis_margin
    refuses the spectrum.
    """
    lam, Q = np.linalg.eigh(A)   # ascending: stable block first
    min_re = axis_margin(lam, opts)
    sd, n = int(np.sum(lam < 0)), lam.size
    return SchurSplit(W=Q.conj().T, A11=np.diag(lam[:sd]),
                      A12=np.zeros((sd, n - sd)), A22=np.diag(lam[sd:]),
                      n_stable=sd, n_anti=n - sd, min_abs_real=min_re)


# ---------------------------------------------------------------------------
# Frequency response and H-infinity norm
# ---------------------------------------------------------------------------

# byte size of the complex work array of one batch of frequencies; long
# frequency lists run in such batches so that they add no measurable memory
_BATCH_BYTES = 2**16
# the level-set iteration converges quadratically, in a handful of levels;
# the cap bounds a Hamiltonian that keeps an eigenvalue on the axis at every
# level (a pole within split_tol of it)
_MAX_LEVELS = 50


class Response:
    """Frequency response G(s) = C (sI - A)^{-1} B + D of one system, from
    one eigendecomposition A = V diag(poles) V^{-1}:

        G(s) = (C V) diag(1 / (s - poles)) (V^{-1} B) + D.

    That form is accurate to about cond(V) eps.  When this exceeds
    residual_tol (A defective or nearly so) each frequency is an LU solve of
    (sI - A) instead.  Frequencies run in batches of about _BATCH_BYTES of
    complex work array.  The norm, qls.transfer_matrix and `qhinf freqresp`
    all evaluate G here.
    """

    def __init__(self, A, B, C, D, opts: NumericOptions = DEFAULT):
        self.A, self.B, self.C, self.D = A, B, C, D
        self.poles, V = np.linalg.eig(A)
        self.CV = self.VB = None
        try:
            Vinv = np.linalg.inv(V)
        except np.linalg.LinAlgError:
            return
        cond = np.linalg.norm(V, 1) * np.linalg.norm(Vinv, 1)
        if cond * np.finfo(float).eps <= opts.residual_tol:
            self.CV, self.VB = C @ V, Vinv @ B

    def _batches(self, s: np.ndarray):
        """Yield (slice, G at the frequencies s[slice]) batch by batch."""
        n = self.A.shape[0]
        p, m = self.D.shape
        rows = n if self.CV is None else p
        step = max(1, _BATCH_BYTES // (16 * max(1, n * max(rows, m))))
        for k in range(0, s.size, step):
            sk = s[k:k + step]
            if self.CV is None:
                G = self.C @ np.linalg.solve(
                    sk[:, None, None] * np.eye(n) - self.A, self.B)
            else:
                resolvent = 1.0 / (sk[:, None] - self.poles)
                G = (self.CV * resolvent[:, None, :]) @ self.VB
            yield slice(k, k + step), G + self.D

    def value(self, s: complex) -> np.ndarray:
        """G(s) at one complex frequency."""
        return next(self._batches(np.array([s], dtype=complex)))[1][0]

    def singular_values(self, omegas) -> np.ndarray:
        """Singular values of G(i w), in descending order, one row per w."""
        s = 1j * np.atleast_1d(np.asarray(omegas, dtype=float))
        out = np.empty((s.size, min(self.D.shape)))
        for k, G in self._batches(s):
            out[k] = np.linalg.svd(G, compute_uv=False)
        return out

    def gains(self, omegas) -> np.ndarray:
        """sigma_max G(i w) for each w."""
        return np.max(self.singular_values(omegas), axis=1, initial=0.0)


def _crossing_frequencies(A, B, C, D, gamma: float,
                          opts: NumericOptions = DEFAULT) -> np.ndarray:
    """Sorted frequencies w at which gamma is a singular value of G(i w).

    They are the imaginary-axis eigenvalues i w of the Hamiltonian of level
    gamma; an eigenvalue within split_tol (relative to max(1, |lambda|)) of
    the axis counts as on it.  gamma must exceed sigma_max(D).
    """
    R = D.conj().T @ D - gamma**2 * np.eye(D.shape[1])
    S = D @ D.conj().T - gamma**2 * np.eye(D.shape[0])
    Abar = A - B @ np.linalg.solve(R, D.conj().T @ C)
    M = np.block([
        [Abar, -gamma * B @ np.linalg.solve(R, B.conj().T)],
        [gamma * C.conj().T @ np.linalg.solve(S, C), -Abar.conj().T],
    ])
    lam = np.linalg.eigvals(M)
    on_axis = np.abs(lam.real) <= opts.split_tol * np.maximum(1.0, np.abs(lam))
    return np.sort(lam.imag[on_axis])


def hinf_bracket(A, B, C, D, opts: NumericOptions = DEFAULT
                 ) -> tuple[float, float, float]:
    """H-infinity norm of the stable system (A, B, C, D), bracketed.

    Returns (upper, attained, frequency): upper is a bound on the norm that a
    Hamiltonian test proves, attained the largest gain sigma_max G(i w)
    actually evaluated, and frequency its w (inf when sigma_max(D) is the
    largest).  So attained <= norm <= upper, and (upper - attained) / upper is
    the bracket's width.

    Level-set iteration (Boyd-Balakrishnan, Systems & Control Letters 15,
    1990; Bruinsma-Steinbuch, Systems & Control Letters 14, 1990).  The lower
    bound lo starts as the largest gain at w = 0, at infinity (sigma_max(D))
    and at the distinct |Im lambda| and |lambda| of the poles.  Each step finds the
    frequencies where the gain crosses level = (1 + 2 hinf_tol) lo and raises
    lo to the largest gain at their midpoints.  When no crossing is left the
    norm is below the level, and the level is returned as upper: upper <
    gamma proves the attenuation.  A norm below hinf_tol is reported as about
    hinf_tol.

    Crossings that no midpoint gain confirms come from a peak too sharp for
    the on-axis tolerance split_tol: lo becomes the level, which the crossing
    says the norm reaches, and the margin above lo doubles until the test
    resolves.  Raises NotHurwitzError for unstable A and ImaginaryAxisError
    when crossings persist for _MAX_LEVELS levels.
    """
    A, B, C, D = map(lambda M: np.atleast_2d(np.asarray(M)), (A, B, C, D))
    A = _as_square(A, "A")
    resp = Response(A, B, C, D, opts)
    if A.shape[0] and np.max(resp.poles.real) >= 0.0:
        raise NotHurwitzError("H-infinity norm requires a Hurwitz A")
    best, w_best = max_singular_value(D), np.inf
    if A.shape[0] == 0 or B.size == 0 or C.size == 0:
        return best, best, w_best

    def attain(w: np.ndarray) -> float:
        """Largest gain over w; keeps the best gain seen and its w."""
        nonlocal best, w_best
        if not w.size:
            return 0.0
        g = resp.gains(w)
        i = int(np.argmax(g))
        if g[i] > best:
            best, w_best = float(g[i]), float(w[i])
        return float(g[i])

    lam = resp.poles
    # conjugate poles repeat every |Im lambda| and |lambda|: evaluate each once
    attain(np.unique(np.concatenate([[0.0], np.abs(lam.imag), np.abs(lam)])))
    lo = best
    margin = 2.0 * opts.hinf_tol
    for _ in range(_MAX_LEVELS):
        level = (1.0 + margin) * max(lo, opts.hinf_tol)
        w = _crossing_frequencies(A, B, C, D, level, opts)
        if w.size == 0:
            return level, best, w_best
        peak = attain(0.5 * (w[:-1] + w[1:]))
        if peak > level:
            lo, margin = peak, 2.0 * opts.hinf_tol
        else:
            lo, margin = level, 2.0 * margin
    raise ImaginaryAxisError(
        f"H-infinity level set still crosses the imaginary axis after "
        f"{_MAX_LEVELS} levels (at {lo:.6e}); the Hamiltonian keeps an "
        "eigenvalue within split_tol of the axis")


def hinf_norm(A, B, C, D, opts: NumericOptions = DEFAULT) -> float:
    """H-infinity norm of the stable system (A, B, C, D): the proven upper
    bound of hinf_bracket."""
    return hinf_bracket(A, B, C, D, opts)[0]
