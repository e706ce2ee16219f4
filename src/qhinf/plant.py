"""Partitioned disturbance-attenuation plants.

The plant has two input channels (disturbance w1, control u) and two output
channels (performance z, measurement y):

    dx = A x + B1 w1 + B2 u
    z  = C1 x + D12 u
    y  = C2 x + D21 w1

A, B1, B2 are derived from the physical data (a free generator G, C1, C2,
D12, D21), so the joint system is physically realizable by construction.
Plant holds what both representations share; HinfPlant is the general plant
in real quadrature coordinates, passive.PassivePlant the passive one in
annihilation operators.  Synthesis solvability hinges on the spectrum of the
shifted generator Ax staying off the imaginary axis.
"""

import copy
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, StructureError, positive_gamma
from .linalg import SchurSplit, hermitian_split, ordered_schur_split
from .options import DEFAULT, NumericOptions
from .qls import j_symplectic, sharp_adjoint


@dataclass
class Plant:
    """Physical data plus derived state-space matrices.

    C1 (performance coupling) and C2 (measurement coupling) act on the
    state; D12, D21 are unitary feedthroughs; gamma is the attenuation
    target.  A subclass supplies the free generator G and its
    representation's adjoint #: A = G - C1# C1/2 - C2# C2/2, B1 = -C2# D21
    and B2 = -C1# D12.  The shifted generators Ax and Ay control
    solvability: Ax flips the sign of the performance-coupling damping, Ay
    the measurement one.  They mirror each other, Ay = -Ax#, so their
    spectra are negatives of each other.
    """
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
    # whether the adjoint couples the split's stable and anti-stable blocks
    couples_blocks = True

    def _build(self, G: np.ndarray) -> None:
        """Cast the channels to G's dtype, check them and gamma, and derive
        A, B1, B2, Ax and Ay from the free generator G."""
        for name in ("C1", "C2", "D12", "D21"):
            setattr(self, name, np.atleast_2d(
                np.asarray(getattr(self, name), dtype=G.dtype)))
        n = G.shape[0]
        for name, M in [("C1", self.C1), ("C2", self.C2)]:
            if M.shape[1] != n:
                raise DimensionError(f"{name} must have {n} columns, got {M.shape}")
        # the sharp adjoint refuses a channel count that is not even
        C1a, C2a = self.adjoint(self.C1), self.adjoint(self.C2)
        tol = self.opts.struct_tol
        for d, c in [("D12", "C1"), ("D21", "C2")]:
            Dm, k = getattr(self, d), getattr(self, c).shape[0]
            if Dm.shape != (k, k):
                raise DimensionError(f"{d} must be square matching {c} rows")
            if np.linalg.norm(Dm @ Dm.conj().T - np.eye(k)) > tol * max(1, k):
                raise StructureError(f"{d} must be unitary")
        positive_gamma(self.gamma)
        half1 = 0.5 * C1a @ self.C1
        half2 = 0.5 * C2a @ self.C2
        self.A = G - half1 - half2
        self.B1 = -C2a @ self.D21
        self.B2 = -C1a @ self.D12
        # shifted generators, computed once per plant
        self.Ax, self.Ay = G + half1 - half2, G - half1 + half2

    def with_gamma(self, gamma: float) -> "Plant":
        """Same physical data at a different attenuation target.

        Nothing else depends on gamma, so the shallow copy shares the
        derived matrices and skips their construction and checks; no code
        writes to a plant's arrays in place.
        """
        out = copy.copy(self)
        out.gamma = positive_gamma(gamma)
        return out


@dataclass
class HinfPlant(Plant):
    """General plant in real quadrature coordinates.

    Hmat is the 2n x 2n real symmetric Hamiltonian matrix and G = JJ Hmat;
    C1 is 2k x 2n, C2 is 2l x 2n, and D12, D21 are real orthogonal.
    """
    Hmat: np.ndarray = field(kw_only=True)

    @staticmethod
    def adjoint(M: np.ndarray) -> np.ndarray:
        """Adjoint of the quadrature representation: the sharp adjoint."""
        return sharp_adjoint(M)

    def split(self) -> SchurSplit:
        """Stable/anti-stable split of Ax: linalg.hermitian_split when Ax
        is symmetric, ||Ax - Ax^T||_F <= n eps ||Ax||_F (n = Ax.shape[0],
        the backward error the sorted Schur form itself commits), and an
        ordered real Schur form otherwise.  Plants with a symmetric Ax, such
        as the sym family and the DPA, so get diagonal blocks, which the
        four Lyapunov solves and rho(XY) exploit.

        This is the plant's one test of the spectral assumption (A3/A4): it
        raises ImaginaryAxisError, an AssumptionError, when Ax has an
        eigenvalue within split_tol of the imaginary axis.  Ay's spectrum is
        the mirror of Ax's, so the test covers both.  Stabilizability and
        detectability (A1/A2) hold structurally for plants built from
        physical data.
        """
        Ax = self.Ax
        if (np.linalg.norm(Ax - Ax.T)
                <= Ax.shape[0] * np.finfo(float).eps * np.linalg.norm(Ax)):
            return hermitian_split(Ax, self.opts)
        return ordered_schur_split(Ax, self.opts)

    def __post_init__(self):
        H = np.atleast_2d(np.asarray(self.Hmat, dtype=float))
        nn = H.shape[0]
        if nn % 2 or H.shape != (nn, nn):
            raise DimensionError("Hmat must be 2n x 2n")
        if np.linalg.norm(H - H.T) > self.opts.struct_tol * (1 + np.linalg.norm(H)):
            raise StructureError("Hmat must be symmetric")
        # exactly symmetric from here on, so Ay = -Ax# holds to rounding
        self.Hmat = 0.5 * (H + H.T)
        self._build(j_symplectic(nn // 2) @ self.Hmat)

    @property
    def n_modes(self) -> int:
        return self.Hmat.shape[0] // 2

    def pr_residual(self) -> float:
        """Joint physical-realizability residual ||A + A# + B1 B1# + B2 B2#||
        (B1 = -C2# D21 and B2 = -C1# D12 hold exactly: they define B1, B2)."""
        return float(np.linalg.norm(
            self.A + sharp_adjoint(self.A)
            + self.B1 @ sharp_adjoint(self.B1)
            + self.B2 @ sharp_adjoint(self.B2)))


def build_plant(Hmat, C1, C2, D12, D21, gamma: float,
                opts: NumericOptions = DEFAULT) -> HinfPlant:
    """Construct and sanity-check a plant from physical data."""
    plant = HinfPlant(C1, C2, D12, D21, gamma, opts=opts, Hmat=Hmat)
    r = plant.pr_residual()
    if r > opts.pr_tol * (1.0 + float(np.linalg.norm(plant.A))):
        raise StructureError(
            f"derived plant is not physically realizable (residual {r:.2e})")
    return plant
