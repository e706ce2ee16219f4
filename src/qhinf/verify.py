"""Independent verification of synthesis results.

Two cross-checks with failure modes disjoint from the Lyapunov pipeline:

- a Riccati oracle that computes the stabilizing solutions from the stable
  invariant subspace of the associated Hamiltonian matrices (ordered Schur
  method), and
- closed-loop assembly with direct internal-stability and H-infinity-norm
  certification of the disturbance-to-performance map.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from . import linalg
from .errors import DimensionError, NotHurwitzError, OracleError
from .options import DEFAULT, NumericOptions
from .plant import HinfPlant
from .synth import Controller


def _stabilizing_riccati(A: np.ndarray, M: np.ndarray,
                         opts: NumericOptions = DEFAULT) -> np.ndarray:
    """Stabilizing solution of A' X + X A + X M X = 0 via the stable
    invariant subspace of H = [[A, M], [0, -A']]."""
    n = A.shape[0]
    H = np.block([[A, M], [np.zeros((n, n)), -A.T]])
    lam = np.linalg.eigvals(H)
    scale = max(1.0, float(np.max(np.abs(lam))))
    if np.min(np.abs(lam.real)) <= opts.split_tol * scale:
        raise OracleError(
            "Hamiltonian matrix has an (almost) imaginary-axis eigenvalue; "
            "no stabilizing solution exists at this attenuation level")
    _, Z, sdim = sla.schur(H, output="real", sort="lhp")
    if sdim != n:
        raise OracleError("stable invariant subspace has wrong dimension")
    U1, U2 = Z[:n, :sdim], Z[n:, :sdim]
    if linalg.min_singular_value(U1) < 1e-12:
        raise OracleError("invariant subspace is not a graph; solution diverges")
    X = U2 @ np.linalg.inv(U1)
    X = 0.5 * (X + X.T)
    resid = np.linalg.norm(A.T @ X + X @ A + X @ M @ X)
    if resid > opts.residual_tol * (1.0 + np.linalg.norm(X)) ** 2 * max(
            1.0, np.linalg.norm(A)):
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
    with the plant's attenuation target and tolerances."""
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    internally_stable: bool
    hinf: float
    gamma: float
    opts: NumericOptions = field(repr=False, compare=False)


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
    try:
        hinf, stable = linalg.hinf_norm(Acl, Bcl, Ccl, Dcl, plant.opts), True
    except NotHurwitzError:
        hinf, stable = float("inf"), False
    return ClosedLoop(Acl, Bcl, Ccl, Dcl, stable, hinf, plant.gamma, plant.opts)


@dataclass
class AttenuationReport:
    passed: bool
    internally_stable: bool
    hinf: float
    margin: float
    worst_frequency: float
    grid_value: float
    grid_agreement: float   # relative gap between level-set and grid maxima


def attenuation_certificate(cl: ClosedLoop) -> AttenuationReport:
    """Pass iff the loop is internally stable with H-infinity norm below the
    plant's gamma.

    Also reports the dense-grid cross-check of the norm (the grid maximum can
    only fall short of the true norm; agreement validates the level-set
    norm)."""
    if cl.internally_stable:
        grid_val, worst = linalg.hinf_norm_grid(cl.A, cl.B, cl.C, cl.D, cl.opts)
        agreement = abs(cl.hinf - grid_val) / max(1e-300, cl.hinf)
    else:
        grid_val, worst, agreement = float("nan"), float("nan"), float("nan")
    passed = bool(cl.internally_stable and cl.hinf < cl.gamma)
    return AttenuationReport(passed, cl.internally_stable, cl.hinf,
                             cl.gamma - cl.hinf, worst, grid_val, agreement)
