"""Independent verification of synthesis results.

Two cross-checks with failure modes disjoint from the Lyapunov pipeline:

- a Riccati oracle that computes the stabilizing solutions from the stable
  invariant subspace of the associated Hamiltonian matrices (ordered Schur
  method), and
- closed-loop assembly with direct internal-stability and H-infinity-norm
  certification of the disturbance-to-performance map: the level-set norm
  brackets the norm between a gain it attains and a bound it proves, and a
  passing loop carries a bounded-real-lemma witness P where one can be
  found.  No frequency grid is evaluated.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from . import linalg
from .errors import (DimensionError, ImaginaryAxisError, NotHurwitzError,
                     OracleError)
from .options import DEFAULT, NumericOptions
from .plant import HinfPlant
from .synth import Controller


def _stabilizing_riccati(A: np.ndarray, M: np.ndarray,
                         opts: NumericOptions = DEFAULT,
                         Q: np.ndarray | None = None) -> np.ndarray:
    """Stabilizing solution of A^H X + X A + X M X + Q = 0 (Q = 0 when
    omitted) via the stable invariant subspace of
    H = [[A, M], [-Q, -A^H]]; complex data take the complex Schur form."""
    n = A.shape[0]
    real = np.isrealobj(A) and np.isrealobj(M) and np.isrealobj(Q)
    Ah = A.T if real else A.conj().T
    H = np.block([[A, M], [np.zeros((n, n)) if Q is None else -Q, -Ah]])
    try:
        T, Z, sdim = sla.schur(H, output="real" if real else "complex", sort="lhp")
        # the near-axis test reads the sorted form's eigenvalues; the
        # reordering fails when rounding flips the sign of a real part
        linalg.axis_margin(linalg.schur_eigenvalues(T), opts)
    except (np.linalg.LinAlgError, ImaginaryAxisError) as exc:
        raise OracleError(
            "Hamiltonian matrix has an (almost) imaginary-axis eigenvalue; "
            "no stabilizing solution exists at this attenuation level") from exc
    if sdim != n:
        raise OracleError("stable invariant subspace has wrong dimension")
    U1, U2 = Z[:n, :sdim], Z[n:, :sdim]
    if linalg.min_singular_value(U1) < 1e-12:
        raise OracleError("invariant subspace is not a graph; solution diverges")
    X = U2 @ np.linalg.inv(U1)
    X = 0.5 * (X + (X.T if real else X.conj().T))
    R, q = Ah @ X + X @ A + X @ M @ X, 0.0
    if Q is not None:
        R, q = R + Q, opts.residual_tol * np.linalg.norm(Q)
    resid = np.linalg.norm(R)
    if resid > opts.residual_tol * (1.0 + np.linalg.norm(X)) ** 2 * max(
            1.0, np.linalg.norm(A)) + q:
        raise OracleError(f"Riccati residual {resid:.3e} too large")
    return X


@dataclass
class OracleResult:
    """Stabilizing Riccati pair from the invariant-subspace route."""
    X: np.ndarray
    Y: np.ndarray
    rho_xy: float
    residual_x: float
    residual_y: float
    x_psd: bool
    y_psd: bool
    loop_x_hurwitz: bool
    loop_y_hurwitz: bool
    certified: bool


def are_oracle(plant: HinfPlant) -> OracleResult:
    """Solve the two coupled Riccati equations independently of the
    Lyapunov pipeline and evaluate the certification conditions."""
    g2, opts = plant.gamma ** 2, plant.opts
    M = plant.B1 @ plant.B1.T / g2 - plant.B2 @ plant.B2.T
    N = plant.C1.T @ plant.C1 - g2 * plant.C2.T @ plant.C2
    X = _stabilizing_riccati(plant.Ax, M, opts)
    # the Y equation has the mirrored form Ay Y + Y Ay' + Y N Y = 0, i.e. the
    # same problem in transposed variables
    Y = _stabilizing_riccati(plant.Ay.T, N, opts).T
    Y = 0.5 * (Y + Y.T)
    rx = float(np.linalg.norm(plant.Ax.T @ X + X @ plant.Ax + X @ M @ X))
    ry = float(np.linalg.norm(plant.Ay @ Y + Y @ plant.Ay.T + Y @ N @ Y))
    x_psd = linalg.is_positive_semidefinite(X, opts)
    y_psd = linalg.is_positive_semidefinite(Y, opts)
    hx = linalg.is_hurwitz(plant.Ax + M @ X)
    hy = linalg.is_hurwitz(plant.Ay + Y @ N)
    rho = linalg.spectral_radius(X @ Y)
    certified = bool(x_psd and y_psd and hx and hy and rho < 1.0)
    return OracleResult(X, Y, rho, rx, ry, x_psd, y_psd, hx, hy, certified)


@dataclass
class ClosedLoop:
    """Disturbance-to-performance closed loop of plant and controller,
    with the plant's attenuation target and tolerances.  hinf is the norm's
    proven upper bound and attained the largest gain its level-set iteration
    evaluated, at frequency worst_frequency (both nan when unstable)."""
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    internally_stable: bool
    hinf: float
    gamma: float
    opts: NumericOptions = field(repr=False, compare=False)
    attained: float
    worst_frequency: float


def close_loop(plant, controller: Controller) -> ClosedLoop:
    """Interconnect plant and controller (controller noise has zero mean and
    drops out of the mean dynamics, so the disturbance is the only input)."""
    A, B1, B2 = plant.A, plant.B1, plant.B2
    C1, C2 = plant.C1, plant.C2
    D12, D21 = plant.D12, plant.D21
    AK, BK, CK = controller.AK, controller.BK, controller.CK
    nk = AK.shape[0]
    if (AK.shape != (nk, nk) or BK.shape != (nk, C2.shape[0])
            or CK.shape != (B2.shape[1], nk)):
        raise DimensionError(f"controller shapes AK {AK.shape}, BK {BK.shape}, "
                             f"CK {CK.shape} do not fit the plant's channels")
    Acl = np.block([[A, B2 @ CK], [BK @ C2, AK]])
    Bcl = np.vstack([B1, BK @ D21])
    Ccl = np.hstack([C1, D12 @ CK])
    Dcl = np.zeros((Ccl.shape[0], Bcl.shape[1]))
    # internally stable iff max Re lambda(Acl) < 0: the norm's own pole test
    nan = float("nan")
    try:
        (hinf, attained, worst), stable = linalg.hinf_bracket(
            Acl, Bcl, Ccl, Dcl, plant.opts), True
    except NotHurwitzError:
        (hinf, attained, worst), stable = (float("inf"), nan, nan), False
    return ClosedLoop(Acl, Bcl, Ccl, Dcl, stable, hinf, plant.gamma, plant.opts,
                      attained, worst)


def bounded_real_witness(cl: ClosedLoop) -> tuple[np.ndarray, float, float] | None:
    """A P that proves cl internally stable with H-infinity norm below gamma,
    by the strict bounded real lemma (Zhou-Doyle-Glover, Robust and Optimal
    Control, 1996, Cor. 13.24): P > 0 and

        L = [[A^H P + P A + C^H C, P B], [B^H P, -gamma^2 I]] < 0.

    The closed loop has no feedthrough, so L carries no D terms.  P is the
    stabilizing solution of A^H P + P A + P B B^H P / g1^2 + C^H C + eps I = 0
    at g1 = (hinf + gamma) / 2 and eps = hinf_tol |C^H C|, from the oracle's
    Riccati solver; however it was found, P proves the bound once both
    eigenvalue tests clear the rounding bound
    tol = (n + m) eps_mach (|A| |P| + |C^H C| + |P B| + gamma^2).

    Returns (P, -lambda_max(L) / tol, lambda_min(P)), or None when the loop
    fails, the Riccati solve is refused, or a test does not clear tol.
    """
    if not (cl.internally_stable and cl.hinf < cl.gamma):
        return None
    A, B, C, g2 = cl.A, cl.B, cl.C, cl.gamma ** 2
    n, m = B.shape
    CtC = C.conj().T @ C
    g1 = 0.5 * (cl.hinf + cl.gamma)
    eps = cl.opts.hinf_tol * np.linalg.norm(CtC)
    try:
        P = _stabilizing_riccati(A, B @ B.conj().T / g1 ** 2, cl.opts,
                                 CtC + eps * np.eye(n))
    except OracleError:
        return None
    PB = P @ B
    L = np.block([[A.conj().T @ P + P @ A + CtC, PB],
                  [PB.conj().T, -g2 * np.eye(m)]])
    tol = (n + m) * np.finfo(float).eps * (
        np.linalg.norm(A) * np.linalg.norm(P) + np.linalg.norm(CtC)
        + np.linalg.norm(PB) + g2)
    p_min = float(np.linalg.eigvalsh(P)[0])
    l_max = float(np.linalg.eigvalsh(L)[-1])
    if p_min <= tol or l_max >= -tol:
        return None
    return P, -l_max / tol, p_min


@dataclass
class AttenuationReport:
    passed: bool
    internally_stable: bool
    hinf: float
    margin: float
    worst_frequency: float
    grid_value: float       # largest gain attained: a lower bound on hinf
    grid_agreement: float   # relative width of the norm's bracket
    witness_margin: float   # -lambda_max(LMI) / rounding bound; nan: none
    witness_p_min: float    # lambda_min of the witness P; nan: none


def attenuation_certificate(cl: ClosedLoop) -> AttenuationReport:
    """Pass iff the loop is internally stable with H-infinity norm below the
    plant's gamma.

    The norm is the level-set bracket's proven upper bound.  grid_value and
    worst_frequency are the largest gain the bracket attained and its
    frequency (a gain can only fall short of the norm), and grid_agreement
    is the bracket's relative width.  A passing loop also gets a
    bounded-real witness when one clears its rounding bound; it is reported
    as evidence (witness_margin, witness_p_min) and does not gate the
    verdict: at a margin of a few hinf_tol the Riccati perturbation eps
    leaves no witness, and the pass rests on the Hamiltonian test alone."""
    if cl.internally_stable:
        agreement = abs(cl.hinf - cl.attained) / max(1e-300, cl.hinf)
    else:
        agreement = float("nan")
    witness = bounded_real_witness(cl)
    w_margin, p_min = witness[1:] if witness else (float("nan"),) * 2
    passed = bool(cl.internally_stable and cl.hinf < cl.gamma)
    return AttenuationReport(passed, cl.internally_stable, cl.hinf,
                             cl.gamma - cl.hinf, cl.worst_frequency,
                             cl.attained, agreement, w_margin, p_min)
