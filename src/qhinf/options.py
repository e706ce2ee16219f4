"""Central numerical tolerance table.

A plant is built with a NumericOptions (the defaults below when omitted) and
owns it: every stage that takes a plant (split, synthesis, threshold, oracle,
closed loop, certificate) reads plant.opts, so one options object governs an
entire run.  Routines that have no plant (the linear-algebra kernel, the
system models) take the table as an optional argument.
"""

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class NumericOptions:
    # relative tolerance for '|Re lambda| too close to the imaginary axis'
    # when splitting a spectrum into stable / anti-stable parts; also what
    # counts as on the axis in the H-infinity norm's Hamiltonian test
    split_tol: float = 1e-8
    # residual tolerance for linear-equation / Lyapunov / Riccati solutions,
    # relative to the scale of the data; also the largest cond(V) eps for
    # which a frequency response is evaluated from A's eigenvectors V
    residual_tol: float = 1e-9
    # threshold below which a physical-realizability residual counts as zero
    pr_tol: float = 1e-9
    # smallest eigenvalue for a matrix to count as positive definite,
    # relative to max(1, its Frobenius norm); also the certification margin
    # rho(XY) < 1 - pd_tol (the same gate builds the controller), the PBH
    # rank tests and the degenerate (unforced) Lyapunov pair of
    # gamma_threshold
    pd_tol: float = 1e-10
    # slack for positive-semidefiniteness checks, i.e. the Riccati oracle's
    # X, Y >= 0 (eigenvalues may dip this far below zero from rounding)
    psd_tol: float = 1e-8
    # relative width of the H-infinity norm's proven bracket: the norm is
    # reported as the level (1 + 2 hinf_tol) lo that the Hamiltonian test
    # shows no gain reaches, lo being a gain actually attained
    hinf_tol: float = 1e-9
    # tolerance on imaginary parts when a matrix is expected to be real
    imag_tol: float = 1e-10
    # symmetry / structural residual tolerance for input validation; also
    # the passivity test of an SLH model and the Z = +-I test of the
    # symmetric-iff regime (times the dimension)
    struct_tol: float = 1e-9

    def override(self, **kwargs) -> "NumericOptions":
        """Copy with some fields replaced."""
        return replace(self, **kwargs)


DEFAULT = NumericOptions()
