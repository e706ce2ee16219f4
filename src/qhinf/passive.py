"""Passive plants in the annihilation-operator representation.

Passive systems need only the n-dimensional complex description.
PassivePlant is the shared plant.Plant with a zero free generator (the
detuning is rotated away) and the conjugate transpose as the adjoint, so
its shifted generator Ax = (C1^H C1 - C2^H C2)/2 is Hermitian.  The
stable/anti-stable split is then an eigendecomposition with an empty
coupling block, and the coupling spectral radius rho(XY) is exactly zero:
the two positivity tests are necessary AND sufficient, giving a sharp
attenuation threshold gamma*.  Everything after the split is the shared
core in synth.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from . import linalg
from .errors import SynthesisError
from .linalg import SchurSplit
from .options import DEFAULT, NumericOptions
from .plant import Plant
from .synth import (Prepared, SynthesisResult, assemble_xy, build_controller,
                    positivity, prepare, riccati_residuals, riccati_weights)


@dataclass
class PassivePlant(Plant):
    """Two-channel passive plant (detuning already rotated away).

    C1 is the performance coupling (k x n), C2 the measurement coupling
    (l x n); D12, D21 are unitary.  The free generator is zero, so the
    shifted generators are Ax (Hermitian) and its mirror Ay = -Ax.
    """

    @staticmethod
    def adjoint(M: np.ndarray) -> np.ndarray:
        """Adjoint of the complex representation: the conjugate transpose."""
        return M.conj().T

    def split(self) -> SchurSplit:
        """Eigendecompose Hermitian Ax with negative eigenvalues first.

        Returns the split with W Ax W^H = diag(lam): diagonal stable and
        anti-stable blocks and a zero coupling block A12.  This is the
        plant's one test of the spectral assumption (A3/A4), made by
        linalg.axis_margin as for the general split: it raises
        ImaginaryAxisError, an AssumptionError, when an eigenvalue sits
        within split_tol of zero (the split is then ill-defined).
        """
        lam, Q = np.linalg.eigh(self.Ax)   # ascending: stable block first
        min_re = linalg.axis_margin(lam, self.opts)
        sd, n = int(np.sum(lam < 0)), lam.size
        return SchurSplit(W=Q.conj().T, A11=np.diag(lam[:sd]),
                          A12=np.zeros((sd, n - sd)), A22=np.diag(lam[sd:]),
                          n_stable=sd, n_anti=n - sd, min_abs_real=min_re)

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


def synthesize_passive_at(prep: Prepared, gamma: float) -> SynthesisResult:
    """Lyapunov-based synthesis at gamma on a prepared passive plant.

    X is supported on the anti-stable eigenspace of Ax and Y on the stable
    one, so rho(XY) = 0 identically and certification reduces to positive
    definiteness of S - T/gamma^2 and U - V/gamma^2.
    """
    plant, quad = prep.at(gamma)
    diagnostics, failure, _ = positivity(quad.SmTg, quad.UmVg, plant.opts)
    if failure:
        return SynthesisResult(plant.gamma, None, quad, None, None, None,
                               0.0, False, None, certified=False,
                               regime="passive", failure=failure,
                               diagnostics=diagnostics)
    weights = riccati_weights(plant)
    X, Y, rho_xy, _ = assemble_xy(plant, prep.split, quad)
    controller = build_controller(plant, X, Y)
    return SynthesisResult(plant.gamma, None, quad, X, Y, None, rho_xy,
                           True, controller, certified=True, regime="passive",
                           diagnostics={**diagnostics, **riccati_residuals(
                               plant, X, Y, weights)})


def synthesize_passive(plant: PassivePlant) -> SynthesisResult:
    """prepare, then synthesize_passive_at the plant's own gamma."""
    return synthesize_passive_at(prepare(plant), plant.gamma)


@dataclass
class PassiveThreshold:
    """Sharp attenuation threshold for a passive plant.

    gamma_star is the infimum target above which both positivity tests hold;
    binding says which block sets it.  Each block contributes the largest
    generalized eigenvalue of its Lyapunov pair (T against S, V against U);
    an empty or unforced block contributes nothing.
    """
    gamma_star: float
    binding: str
    lam_ts: float
    lam_vu: float

    def __float__(self) -> float:
        return self.gamma_star


def passive_gamma_threshold(plant: PassivePlant) -> PassiveThreshold:
    """gamma* with S - T/g^2 > 0 and U - V/g^2 > 0 exactly for g > gamma*."""
    prep = prepare(plant)
    # S and U are the two blocks at gamma = infinity
    flags, _, _ = positivity(prep.S, prep.U, plant.opts)
    if not all(flags.values()):
        raise SynthesisError(
            "degenerate Lyapunov pair: the forced block is not positive "
            "definite, threshold undefined")

    def block_threshold(num, den):
        # largest t with den - num/t^2 losing definiteness: t^2 = lam_max(num, den)
        if not den.size:
            return 0.0
        return float(max(0.0, np.max(sla.eigvalsh(num, den).real)))

    t_x = block_threshold(prep.T, prep.S)
    t_y = block_threshold(prep.V, prep.U)
    binding = "performance" if t_x >= t_y else "measurement"
    return PassiveThreshold(float(np.sqrt(max(t_x, t_y))), binding,
                            lam_ts=t_x, lam_vu=t_y)
