"""Partitioned disturbance-attenuation plant in real quadrature coordinates.

The plant has two input channels (disturbance w1, control u) and two output
channels (performance z, measurement y):

    dx = A x + B1 w1 + B2 u
    z  = C1 x + D12 u
    y  = C2 x + D21 w1

A, B1, B2 are derived from the physical data (H, C1, C2, D12, D21), so the
joint system is physically realizable by construction.  Synthesis solvability
hinges on the spectrum of the shifted generator Ax staying off the imaginary
axis.
"""

import copy
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, StructureError, positive_gamma
from .linalg import SchurSplit, ordered_schur_split
from .options import DEFAULT, NumericOptions
from .qls import j_symplectic, sharp_adjoint


@dataclass
class HinfPlant:
    """Physical data plus derived state-space matrices.

    Hmat is the 2n x 2n real symmetric Hamiltonian matrix; C1 (performance
    coupling) is 2k x 2n, C2 (measurement coupling) is 2l x 2n; D12, D21 are
    real orthogonal feedthroughs; gamma is the attenuation target.  The
    shifted generators Ax and Ay control solvability: Ax flips the sign of
    the performance-coupling damping, Ay the measurement one.  They mirror
    each other, Ay = -Ax#, so their spectra are negatives of each other.
    """
    Hmat: np.ndarray
    C1: np.ndarray
    C2: np.ndarray
    D12: np.ndarray
    D21: np.ndarray
    gamma: float
    opts: NumericOptions = field(default=DEFAULT, repr=False, compare=False)
    A: np.ndarray = field(init=False)
    B1: np.ndarray = field(init=False)
    B2: np.ndarray = field(init=False)
    Ax: np.ndarray = field(init=False)
    Ay: np.ndarray = field(init=False)

    @staticmethod
    def adjoint(M: np.ndarray) -> np.ndarray:
        """Adjoint of the quadrature representation: the sharp adjoint."""
        return sharp_adjoint(M)

    def split(self) -> SchurSplit:
        """Stable/anti-stable split of Ax by ordered real Schur form.

        This is the plant's one test of the spectral assumption (A3/A4): it
        raises ImaginaryAxisError, an AssumptionError, when Ax has an
        eigenvalue within split_tol of the imaginary axis.  Ay's spectrum is
        the mirror of Ax's, so the test covers both.  Stabilizability and
        detectability (A1/A2) hold structurally for plants built from
        physical data.
        """
        return ordered_schur_split(self.Ax, self.opts)

    def __post_init__(self):
        self.Hmat = np.atleast_2d(np.asarray(self.Hmat, dtype=float))
        self.C1 = np.atleast_2d(np.asarray(self.C1, dtype=float))
        self.C2 = np.atleast_2d(np.asarray(self.C2, dtype=float))
        self.D12 = np.atleast_2d(np.asarray(self.D12, dtype=float))
        self.D21 = np.atleast_2d(np.asarray(self.D21, dtype=float))
        nn = self.Hmat.shape[0]
        if nn % 2 or self.Hmat.shape != (nn, nn):
            raise DimensionError("Hmat must be 2n x 2n")
        for name, M in [("C1", self.C1), ("C2", self.C2)]:
            if M.shape[1] != nn or M.shape[0] % 2:
                raise DimensionError(f"{name} must be (even) x {nn}, got {M.shape}")
        if self.D12.shape != (self.C1.shape[0],) * 2:
            raise DimensionError("D12 must be square matching C1 rows")
        if self.D21.shape != (self.C2.shape[0],) * 2:
            raise DimensionError("D21 must be square matching C2 rows")
        tol = self.opts.struct_tol
        if np.linalg.norm(self.Hmat - self.Hmat.T) > tol * (1 + np.linalg.norm(self.Hmat)):
            raise StructureError("Hmat must be symmetric")
        # exactly symmetric from here on, so Ay = -Ax# holds to rounding
        self.Hmat = 0.5 * (self.Hmat + self.Hmat.T)
        for name, Dm in [("D12", self.D12), ("D21", self.D21)]:
            if np.linalg.norm(Dm.T @ Dm - np.eye(Dm.shape[0])) > tol * max(1, Dm.shape[0]):
                raise StructureError(f"{name} must be orthogonal")
        positive_gamma(self.gamma)
        JH = j_symplectic(nn // 2) @ self.Hmat
        half1 = 0.5 * sharp_adjoint(self.C1) @ self.C1
        half2 = 0.5 * sharp_adjoint(self.C2) @ self.C2
        self.A = JH - half1 - half2
        self.B1 = -sharp_adjoint(self.C2) @ self.D21
        self.B2 = -sharp_adjoint(self.C1) @ self.D12
        # shifted generators, computed once per plant
        self.Ax, self.Ay = JH + half1 - half2, JH - half1 + half2

    @property
    def n_modes(self) -> int:
        return self.Hmat.shape[0] // 2

    def with_gamma(self, gamma: float) -> "HinfPlant":
        """Same physical data at a different attenuation target."""
        return copy_with_gamma(self, gamma)

    def pr_residual(self) -> float:
        """Joint physical-realizability residual ||A + A# + B1 B1# + B2 B2#||
        (B1 = -C2# D21 and B2 = -C1# D12 hold exactly: they define B1, B2)."""
        return float(np.linalg.norm(
            self.A + sharp_adjoint(self.A)
            + self.B1 @ sharp_adjoint(self.B1)
            + self.B2 @ sharp_adjoint(self.B2)))


def copy_with_gamma(plant, gamma: float):
    """Shallow copy of a built plant with only gamma replaced.

    Nothing else depends on gamma, so the copy shares the derived matrices
    and skips their construction and checks; no code writes to a plant's
    arrays in place.
    """
    out = copy.copy(plant)
    out.gamma = positive_gamma(gamma)
    return out


def build_plant(Hmat, C1, C2, D12, D21, gamma: float,
                opts: NumericOptions = DEFAULT) -> HinfPlant:
    """Construct and sanity-check a plant from physical data."""
    plant = HinfPlant(Hmat, C1, C2, D12, D21, gamma, opts=opts)
    r = plant.pr_residual()
    if r > opts.pr_tol * (1.0 + float(np.linalg.norm(plant.A))):
        raise StructureError(
            f"derived plant is not physically realizable (residual {r:.2e})")
    return plant
