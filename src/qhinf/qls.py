"""Quantum linear system models and their state-space realizations.

A model is specified by a scattering matrix S, a Hamiltonian pair
(Omega_minus, Omega_plus) and a coupling pair (C_minus, C_plus).  The
annihilation/creation description lives in a doubled-up complex space of
dimension 2n; the equivalent quadrature description is real.  Both carry the
same physical-realizability constraints, expressed through the flat (complex)
and sharp (real-symplectic) adjoints.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from . import linalg
from .errors import DimensionError, ParameterError, StructureError
from .options import DEFAULT, NumericOptions


# ---------------------------------------------------------------------------
# doubled-up algebra
# ---------------------------------------------------------------------------

def doubled_up(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Delta(U, V) = [[U, V], [conj(V), conj(U)]]."""
    U = np.atleast_2d(np.asarray(U, dtype=complex))
    V = np.atleast_2d(np.asarray(V, dtype=complex))
    if U.shape != V.shape:
        raise DimensionError(f"blocks must match: {U.shape} vs {V.shape}")
    return np.block([[U, V], [V.conj(), U.conj()]])


def j_signature(k: int) -> np.ndarray:
    """J_k = diag(I_k, -I_k)."""
    return np.diag(np.concatenate([np.ones(k), -np.ones(k)]))


def j_symplectic(k: int) -> np.ndarray:
    """JJ_k = [[0, I_k], [-I_k, 0]]."""
    Z, I = np.zeros((k, k)), np.eye(k)
    return np.block([[Z, I], [-I, Z]])


def flat_adjoint(X: np.ndarray) -> np.ndarray:
    """X^flat = J_k X^H J_r for X of shape (2r, 2k).  (X^flat)^flat = X."""
    X = np.atleast_2d(np.asarray(X))
    if X.shape[0] % 2 or X.shape[1] % 2:
        raise DimensionError(f"flat adjoint needs even dimensions, got {X.shape}")
    r, k = X.shape[0] // 2, X.shape[1] // 2
    return j_signature(k) @ X.conj().T @ j_signature(r)


def sharp_adjoint(X: np.ndarray) -> np.ndarray:
    """X^sharp = JJ_k^T X^H JJ_r for X of shape (2r, 2k).  (X^sharp)^sharp = X.
    With r x k blocks X = [[a, b], [c, d]] it is [[d^H, -b^H], [-c^H, a^H]]."""
    X = np.atleast_2d(np.asarray(X))
    if X.shape[0] % 2 or X.shape[1] % 2:
        raise DimensionError(f"sharp adjoint needs even dimensions, got {X.shape}")
    r, k = X.shape[0] // 2, X.shape[1] // 2
    Xh = X.conj().T
    out = np.empty(Xh.shape, dtype=np.result_type(X.dtype, float))
    out[:k, :r], out[:k, r:] = Xh[k:, r:], -Xh[k:, :r]
    out[k:, :r], out[k:, r:] = -Xh[:k, r:], Xh[:k, :r]
    return out


def quadrature_map(k: int) -> np.ndarray:
    """Unitary V_k mapping doubled-up (a, a*) coordinates to quadratures."""
    I = np.eye(k)
    return np.block([[I, I], [-1j * I, 1j * I]]) / np.sqrt(2.0)


# ---------------------------------------------------------------------------
# models and realizations
# ---------------------------------------------------------------------------

@dataclass
class SlhModel:
    """Scattering/coupling/Hamiltonian description of an n-mode, m-field
    quantum linear system.

    S must be unitary, Omega_minus Hermitian and Omega_plus symmetric (so the
    doubled-up Hamiltonian matrix is Hermitian).  Validated on construction.
    """
    S: np.ndarray
    Omega_minus: np.ndarray
    Omega_plus: np.ndarray
    C_minus: np.ndarray
    C_plus: np.ndarray
    opts: NumericOptions = field(default=DEFAULT, repr=False, compare=False)

    def __post_init__(self):
        self.S = np.atleast_2d(np.asarray(self.S, dtype=complex))
        self.Omega_minus = np.atleast_2d(np.asarray(self.Omega_minus, dtype=complex))
        self.Omega_plus = np.atleast_2d(np.asarray(self.Omega_plus, dtype=complex))
        self.C_minus = np.atleast_2d(np.asarray(self.C_minus, dtype=complex))
        self.C_plus = np.atleast_2d(np.asarray(self.C_plus, dtype=complex))
        n, m = self.n_modes, self.n_fields
        for name, M, shape in [("S", self.S, (m, m)),
                               ("Omega_minus", self.Omega_minus, (n, n)),
                               ("Omega_plus", self.Omega_plus, (n, n)),
                               ("C_plus", self.C_plus, (m, n))]:
            if M.shape != shape:
                raise DimensionError(f"{name} has shape {M.shape}, expected {shape}")
        tol = self.opts.struct_tol
        if np.linalg.norm(self.S @ self.S.conj().T - np.eye(m)) > tol * max(1, m):
            raise StructureError("S must be unitary")
        if np.linalg.norm(self.Omega_minus - self.Omega_minus.conj().T) > tol * (
                1 + np.linalg.norm(self.Omega_minus)):
            raise StructureError("Omega_minus must be Hermitian")
        if np.linalg.norm(self.Omega_plus - self.Omega_plus.T) > tol * (
                1 + np.linalg.norm(self.Omega_plus)):
            raise StructureError("Omega_plus must be symmetric")

    @property
    def n_modes(self) -> int:
        return self.C_minus.shape[1]

    @property
    def n_fields(self) -> int:
        return self.C_minus.shape[0]

    def hamiltonian(self) -> np.ndarray:
        """Doubled-up Hermitian Hamiltonian matrix Delta(Omega-, Omega+)."""
        return doubled_up(self.Omega_minus, self.Omega_plus)

    def coupling(self) -> np.ndarray:
        """Doubled-up coupling matrix Delta(C-, C+)."""
        return doubled_up(self.C_minus, self.C_plus)


@dataclass
class StateSpace:
    """State-space realization dx = Ax + Bw, y = Cx + Dw with a tag naming
    the coordinate convention:

    - "complex_doubled": 2n complex doubled-up coordinates (a, a*)
    - "real_quadrature": 2n real quadrature coordinates (q, p)
    - "passive_complex": n complex annihilation coordinates (passive systems)
    """
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    rep: str

    def __post_init__(self):
        self.A = np.atleast_2d(np.asarray(self.A))
        self.B = np.atleast_2d(np.asarray(self.B))
        self.C = np.atleast_2d(np.asarray(self.C))
        self.D = np.atleast_2d(np.asarray(self.D))
        n = self.A.shape[0]
        if self.A.shape[1] != n or self.B.shape[0] != n or self.C.shape[1] != n:
            raise DimensionError("inconsistent state dimensions")
        if self.D.shape != (self.C.shape[0], self.B.shape[1]):
            raise DimensionError("inconsistent input/output dimensions")
        if self.rep not in ("complex_doubled", "real_quadrature", "passive_complex"):
            raise ValueError(f"unknown representation tag {self.rep!r}")

    @property
    def n_modes(self) -> int:
        n = self.A.shape[0]
        return n if self.rep == "passive_complex" else n // 2

    @property
    def n_fields(self) -> int:
        m = self.B.shape[1]
        return m if self.rep == "passive_complex" else m // 2


def build_complex_system(model: SlhModel) -> StateSpace:
    """Doubled-up complex realization of an SLH model.

    D = Delta(S, 0), C = Delta(C-, C+), B = -C^flat D,
    A = -i J_n Delta(Omega-, Omega+) - (1/2) C^flat C.
    Physically realizable by construction.
    """
    n = model.n_modes
    Dm = doubled_up(model.S, np.zeros_like(model.S))
    Cm = model.coupling()
    Cflat = flat_adjoint(Cm)
    Bm = -Cflat @ Dm
    Am = -1j * j_signature(n) @ model.hamiltonian() - 0.5 * Cflat @ Cm
    return StateSpace(Am, Bm, Cm, Dm, rep="complex_doubled")


def _realify(M: np.ndarray, opts: NumericOptions, what: str) -> np.ndarray:
    scale = max(1.0, float(np.linalg.norm(M)))
    if np.max(np.abs(M.imag)) > opts.imag_tol * scale:
        raise StructureError(
            f"{what} has imaginary residue {np.max(np.abs(M.imag)):.3e}; "
            "input is not a valid doubled-up system")
    return np.ascontiguousarray(M.real)


def to_quadrature(ss: StateSpace, opts: NumericOptions = DEFAULT) -> StateSpace:
    """Transform a doubled-up complex realization to real quadratures."""
    if ss.rep != "complex_doubled":
        raise ValueError(f"expected complex_doubled, got {ss.rep!r}")
    Vn, Vm = quadrature_map(ss.n_modes), quadrature_map(ss.n_fields)
    Vp = quadrature_map(ss.C.shape[0] // 2)
    A = _realify(Vn @ ss.A @ Vn.conj().T, opts, "A")
    B = _realify(Vn @ ss.B @ Vm.conj().T, opts, "B")
    C = _realify(Vp @ ss.C @ Vn.conj().T, opts, "C")
    D = _realify(Vp @ ss.D @ Vm.conj().T, opts, "D")
    return StateSpace(A, B, C, D, rep="real_quadrature")


def to_complex_doubled(ss: StateSpace) -> StateSpace:
    """Inverse of to_quadrature."""
    if ss.rep != "real_quadrature":
        raise ValueError(f"expected real_quadrature, got {ss.rep!r}")
    Vn, Vm = quadrature_map(ss.n_modes), quadrature_map(ss.n_fields)
    Vp = quadrature_map(ss.C.shape[0] // 2)
    return StateSpace(Vn.conj().T @ ss.A @ Vn,
                      Vn.conj().T @ ss.B @ Vm,
                      Vp.conj().T @ ss.C @ Vn,
                      Vp.conj().T @ ss.D @ Vm,
                      rep="complex_doubled")


# ---------------------------------------------------------------------------
# physical realizability
# ---------------------------------------------------------------------------

@dataclass
class PrReport:
    """Residuals of the two physical-realizability identities."""
    residual_dynamics: float   # || A + A^adj + B B^adj ||_F
    residual_coupling: float   # || B + C^adj D ||_F
    passed: bool


def check_physical_realizability(ss: StateSpace,
                                 opts: NumericOptions = DEFAULT) -> PrReport:
    """Check the quantum commutation-preserving structure of a realization.

    complex_doubled:  A + A^flat + B B^flat = 0 and B = -C^flat D
    real_quadrature:  A + A^sharp + B B^sharp = 0 and B = -C^sharp D
    passive_complex:  A + A^H + B B^H = 0 and B = -C^H D
    """
    if ss.rep == "complex_doubled":
        adj = flat_adjoint
    elif ss.rep == "real_quadrature":
        adj = sharp_adjoint
    else:
        adj = lambda M: np.asarray(M).conj().T
    r1 = float(np.linalg.norm(ss.A + adj(ss.A) + ss.B @ adj(ss.B)))
    r2 = float(np.linalg.norm(ss.B + adj(ss.C) @ ss.D))
    scale = 1.0 + float(np.linalg.norm(ss.A))
    passed = r1 <= opts.pr_tol * scale and r2 <= opts.pr_tol * scale
    return PrReport(r1, r2, passed)


def refuse_poles(resp: linalg.Response, s) -> None:
    """Raise ParameterError naming the first complex frequency of s that is
    within 1e-12 max(1, |s|) of a pole of resp."""
    s = np.atleast_1d(s)
    gap = np.full(s.shape, np.inf)
    for pole in resp.poles:   # one pass per pole: memory O(len(s)), not O(len(s) n)
        gap = np.minimum(gap, np.abs(s - pole))
    hit = s[gap < 1e-12 * np.maximum(1.0, np.abs(s))]
    if hit.size:
        raise ParameterError(f"s = {hit[0]} is a pole of the system")


def transfer_matrix(ss: StateSpace, s: complex) -> np.ndarray:
    """Transfer matrix C (sI - A)^{-1} B + D at one complex frequency."""
    resp = linalg.Response(ss.A, ss.B, ss.C, ss.D)
    refuse_poles(resp, s)
    return resp.value(s)


# ---------------------------------------------------------------------------
# passivity
# ---------------------------------------------------------------------------

def is_passive(model: SlhModel) -> bool:
    """A model is passive when it has no active coupling or squeezing terms
    (C+ = 0 and Omega+ = 0, to the model's struct_tol)."""
    tol = model.opts.struct_tol
    return (np.linalg.norm(model.C_plus) < tol
            and np.linalg.norm(model.Omega_plus) < tol)


def rotate_out_detuning(model: SlhModel) -> SlhModel:
    """Frame rotation removing the detuning of a passive model.

    In a frame co-rotating with the free dynamics the Hamiltonian term
    vanishes while S and C- are unchanged, so the rotated generator is
    A = -(1/2) C^H C (negative semidefinite).  Only valid for passive models.
    """
    if not is_passive(model):
        raise StructureError("detuning rotation is only defined for passive models")
    return replace(model, Omega_minus=np.zeros_like(model.Omega_minus))


def build_passive_system(model: SlhModel) -> StateSpace:
    """Plain n-dimensional complex realization of a passive model:
    A = -i Omega - (1/2) C^H C, B = -C^H S, C, D = S."""
    if not is_passive(model):
        raise StructureError("passive realization requires a passive model")
    C = model.C_minus
    A = -1j * model.Omega_minus - 0.5 * C.conj().T @ C
    return StateSpace(A, -C.conj().T @ model.S, C, model.S, rep="passive_complex")


# ---------------------------------------------------------------------------
# stability and minimality
# ---------------------------------------------------------------------------

@dataclass
class SystemReport:
    hurwitz: bool
    controllable: bool
    observable: bool
    stabilizable: bool
    detectable: bool


def _pbh_rank_ok(A: np.ndarray, M: np.ndarray, lam: complex, stacked: bool,
                 tol: float) -> bool:
    n = A.shape[0]
    block = (np.vstack([lam * np.eye(n) - A, M]) if stacked
             else np.hstack([lam * np.eye(n) - A, M]))
    sv = np.linalg.svd(block, compute_uv=False)
    return bool(np.sum(sv > tol * max(1.0, sv[0])) == n)


def stability_and_minimality(ss: StateSpace,
                             opts: NumericOptions = DEFAULT) -> SystemReport:
    """Eigenvalue stability plus PBH controllability/observability tests."""
    A, B, C = ss.A, ss.B, ss.C
    lam = np.linalg.eigvals(A)
    hurwitz = bool(np.max(lam.real) < -opts.pd_tol) if lam.size else True
    tol = opts.pd_tol
    ctrl = all(_pbh_rank_ok(A, B, l, False, tol) for l in lam)
    obsv = all(_pbh_rank_ok(A, C, l, True, tol) for l in lam)
    unstable = [l for l in lam if l.real >= -tol]
    stab = all(_pbh_rank_ok(A, B, l, False, tol) for l in unstable)
    detc = all(_pbh_rank_ok(A, C, l, True, tol) for l in unstable)
    return SystemReport(hurwitz, ctrl, obsv, stab, detc)
