"""Passive plants in the annihilation-operator representation.

Passive systems need only the n-dimensional complex description.
PassivePlant is the shared plant.Plant with a zero free generator (the
detuning is rotated away) and the conjugate transpose as the adjoint, so
its shifted generator Ax = (C1^H C1 - C2^H C2)/2 is Hermitian.  The
stable/anti-stable split is then linalg.hermitian_split, an
eigendecomposition, and the adjoint does not couple its blocks
(couples_blocks is False): rho(XY) = 0 and gamma* is sharp.  This module
holds only the plant; synth.synthesize and synth.threshold serve it as they
serve every plant.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import SchurSplit
from .options import DEFAULT, NumericOptions
from .plant import Plant


@dataclass
class PassivePlant(Plant):
    """Two-channel passive plant (detuning already rotated away).

    C1 is the performance coupling (k x n), C2 the measurement coupling
    (l x n); D12, D21 are unitary.  The free generator is zero, so the
    shifted generators are Ax (Hermitian) and its mirror Ay = -Ax.
    """
    couples_blocks = False

    @staticmethod
    def adjoint(M: np.ndarray) -> np.ndarray:
        """Adjoint of the complex representation: the conjugate transpose."""
        return M.conj().T

    def split(self) -> SchurSplit:
        """linalg.hermitian_split of the Hermitian Ax: diagonal stable and
        anti-stable blocks and a zero coupling block A12.  This is the
        plant's one test of the spectral assumption (A3/A4), made by
        linalg.axis_margin as for the general split: it raises
        ImaginaryAxisError, an AssumptionError, when an eigenvalue sits
        within split_tol of zero (the split is then ill-defined).
        """
        return linalg.hermitian_split(self.Ax, self.opts)

    def __post_init__(self):
        n = np.atleast_2d(self.C1).shape[1]
        self._build(np.zeros((n, n), dtype=complex))

    @property
    def n_modes(self) -> int:
        return self.C1.shape[1]


def build_passive_plant(C1, C2, D12=None, D21=None, gamma: float = 1.0,
                        opts: NumericOptions = DEFAULT) -> PassivePlant:
    """Passive plant whose feedthroughs default to the identity."""
    if D12 is None:
        D12 = np.eye(np.atleast_2d(C1).shape[0])
    if D21 is None:
        D21 = np.eye(np.atleast_2d(C2).shape[0])
    return PassivePlant(C1, C2, D12, D21, gamma, opts=opts)
