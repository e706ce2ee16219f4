"""Two reference device families with closed-form expected values.

- A single-mode optical cavity with two input couplings: the passive worked
  example.  Fully solvable by hand; used as the golden regression anchor.
- A degenerate parametric amplifier (DPA): a pumped cavity with quadrature
  squeezing, the non-passive example.  Splits into two regimes depending on
  whether the pump strength epsilon exceeds kappa_u - kappa_w.

The closed forms here are reference expressions for regression tests; the
device builders only supply plant data — the synthesis itself always goes
through the generic pipeline.
"""

from dataclasses import dataclass

import numpy as np

from .errors import StructureError, positive_gamma
from .options import DEFAULT, NumericOptions
from .passive import PassivePlant, build_passive_plant
from .plant import HinfPlant, build_plant

SQRT5_M2 = np.sqrt(5.0) - 2.0   # branch point of the cavity realizability curve


# ---------------------------------------------------------------------------
# cavity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CavitySpec:
    """Single-mode cavity: kappa1 couples the measurement/actuation channel,
    kappa2 the disturbance/performance channel; requires kappa2 > kappa1."""
    kappa1: float
    kappa2: float
    gamma: float = 0.6

    def __post_init__(self):
        if not (self.kappa2 > self.kappa1 > 0):
            raise StructureError("cavity requires kappa2 > kappa1 > 0")
        positive_gamma(self.gamma)


def build_cavity(spec: CavitySpec, opts: NumericOptions = DEFAULT) -> PassivePlant:
    return build_passive_plant(C1=[[np.sqrt(spec.kappa2)]],
                               C2=[[np.sqrt(spec.kappa1)]],
                               gamma=spec.gamma, opts=opts)


def cavity_reference(spec: CavitySpec) -> dict:
    """Scalar closed forms for every intermediate of the cavity synthesis."""
    k1, k2, g = spec.kappa1, spec.kappa2, spec.gamma
    g2 = g * g
    X = (k2 - k1) / (k2 - k1 / g2)
    CK = np.sqrt(k2) * k1 * (1 - g2) / (g2 * k2 - k1)
    return {
        "S": k2 / (k2 - k1),
        "T": k1 / (k2 - k1),
        "X": X,
        "BK": -np.sqrt(k1),
        "CK": CK,
        "AK": (k1 - k2) / 2 - k2 * k1 * (1 - g2) / (g2 * k2 - k1),
        "gamma_star": np.sqrt(k1 / k2),
    }


def _cavity_pr_residual(kappa: float, gamma: float) -> float:
    """Realizability defect of the closed-form controller, in the ratio
    kappa = kappa1/kappa2 (set kappa2 = 1 without loss of generality)."""
    ref = cavity_reference(CavitySpec(kappa1=kappa, kappa2=1.0, gamma=gamma))
    return abs(2 * ref["AK"] + ref["BK"] ** 2 + ref["CK"] ** 2)


def cavity_pr_gamma(kappa_ratio: float, opts: NumericOptions = DEFAULT) -> float:
    """The gamma at which the cavity controller is realizable as-is.

    The realizability defect vanishes on the roots in t = gamma^2 of

        (k^2 + 4k - 1) t^2 - 8 k^2 t + 2 k^2 (k + 1) = 0,   k = kappa1/kappa2.

    Branch selection: above the branch point k = sqrt(5) - 2 the leading
    coefficient is positive and the plus root applies; below it only the
    minus root is positive; at the branch point the quadratic degenerates
    and t = (k + 1)/4.  The returned gamma always exceeds sqrt(k), the
    attenuation threshold, so exact realizability costs performance.  The
    value is verified by substituting the closed-form controller back into
    the realizability identity; on disagreement the polynomial roots are
    scanned for the one that actually annihilates the defect.
    """
    k = float(kappa_ratio)
    if not 0.0 < k < 1.0:
        raise ValueError("kappa ratio must lie in (0, 1)")
    a, b, c = k * k + 4 * k - 1, -8 * k * k, 2 * k * k * (k + 1)
    if abs(a) < 1e-10:
        t = (k + 1) / 4
    else:
        disc = np.sqrt(b * b - 4 * a * c)
        t = ((-b + disc) / (2 * a)) if k > SQRT5_M2 else ((-b - disc) / (2 * a))
    gamma = float(np.sqrt(t))
    if _cavity_pr_residual(k, gamma) > opts.pr_tol:
        roots = [r.real for r in np.roots([a, b, c])
                 if abs(r.imag) < 1e-12 and r.real > 0]
        gamma = min((float(np.sqrt(r)) for r in roots
                     if _cavity_pr_residual(k, np.sqrt(r)) <= opts.pr_tol),
                    default=None)
        if gamma is None:
            raise StructureError(
                f"no realizability root found for kappa ratio {k}")
    if gamma <= np.sqrt(k):
        raise StructureError(
            "realizability root does not exceed the attenuation threshold")
    return gamma


# ---------------------------------------------------------------------------
# DPA
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DpaSpec:
    """Degenerate parametric amplifier: kappa_w is the disturbance-channel
    coupling, kappa_u the control-channel coupling, epsilon the pump rate.

    Stability needs epsilon < kappa_w + kappa_u; the standing parameter
    order is kappa_w < kappa_u; kappa_u = epsilon + kappa_w is the
    degenerate boundary where the shifted generator becomes singular.
    """
    kappa_w: float
    kappa_u: float
    epsilon: float
    gamma: float = 1.0

    def __post_init__(self):
        if min(self.kappa_w, self.kappa_u, self.epsilon) <= 0:
            raise StructureError("kappa_w, kappa_u, epsilon must be positive")
        if not self.epsilon < self.kappa_w + self.kappa_u:
            raise StructureError("unstable DPA: epsilon >= kappa_w + kappa_u")
        if not self.kappa_w < self.kappa_u:
            raise StructureError("require kappa_w < kappa_u")
        if abs(self.kappa_u - self.epsilon - self.kappa_w) < 1e-12:
            raise StructureError(
                "kappa_u = epsilon + kappa_w is degenerate (singular generator)")
        positive_gamma(self.gamma)

    @property
    def case(self) -> str:
        return "case1" if self.kappa_u > self.epsilon + self.kappa_w else "case2"


def build_dpa(spec: DpaSpec, opts: NumericOptions = DEFAULT) -> HinfPlant:
    """Quadrature plant of the DPA.

    The pump enters as the off-diagonal Hamiltonian [[0, eps/2], [eps/2, 0]]
    (amplifying one quadrature, damping the other); both couplings are
    quadrature-diagonal with identity feedthroughs.
    """
    e = spec.epsilon
    return build_plant(Hmat=[[0.0, e / 2], [e / 2, 0.0]],
                       C1=np.sqrt(spec.kappa_u) * np.eye(2),
                       C2=np.sqrt(spec.kappa_w) * np.eye(2),
                       D12=np.eye(2), D21=np.eye(2),
                       gamma=spec.gamma, opts=opts)


def dpa_case1_reference(spec: DpaSpec) -> dict:
    """Reference closed forms for the strong-control regime (case 1).

    NOTE: the X and controller displays below form a self-consistent set
    (the realizability quartic of dpa_pr_gamma_case1 is derived from exactly
    this controller), but X does not satisfy the Riccati equation the
    pipeline solves; see x_stabilizing for the verified stabilizing solution.
    The regression suite documents the discrepancy.
    """
    if spec.case != "case1":
        raise StructureError("case-1 reference requested for a case-2 spec")
    kw, ku, e, g = spec.kappa_w, spec.kappa_u, spec.epsilon, spec.gamma
    g2 = g * g
    d, f = ku - kw + e, ku - kw - e
    X = (ku - kw) / g2 * np.diag([1 / d, 1 / f])
    AK = np.diag([
        (g2 * (ku**2 + e**2 - kw**2 + 2 * ku * e) + 2 * ku * (kw - ku))
        / (2 * g2 * d),
        -(g2 * (ku**2 + e**2 - kw**2 - 2 * ku * e) + 2 * ku * (kw - ku))
        / (2 * g2 * (kw - ku + e)),
    ])
    CK = np.sqrt(ku) * np.diag([
        (ku - kw) / (g2 * d) - 1.0,
        (kw - ku) / (g2 * (kw - ku + e)) - 1.0,
    ])
    return {
        "X": X,
        "x_stabilizing": g2 / (g2 * ku - kw) * np.diag([d, f]),
        "Y": np.zeros((2, 2)),
        "AK": AK,
        "BK": -np.sqrt(kw) * np.eye(2),
        "CK": CK,
    }


def _dpa_case1_pr_residual(spec: DpaSpec) -> float:
    """Realizability defect of the case-1 reference controller (the diagonal
    structure makes the symplectic-adjoint identity elementwise)."""
    ref = dpa_case1_reference(spec)
    AK, BK, CK = ref["AK"], ref["BK"], ref["CK"]
    # for diagonal AK, BK, CK: AK + AK# = diag(a1 + a2) duplicated, etc.
    from .qls import sharp_adjoint
    R = AK + sharp_adjoint(AK) + BK @ sharp_adjoint(BK) + sharp_adjoint(CK) @ CK
    return float(np.linalg.norm(R))


def dpa_pr_gamma_case1(spec: DpaSpec,
                       opts: NumericOptions = DEFAULT) -> tuple[float, float]:
    """The two attenuation levels at which the case-1 controller is
    realizable without extra vacuum channels, gamma- <= gamma+.

    They are the square roots of the two positive roots in t = gamma^2 of
    the quadratic a t^2 + b t + c (with b = 4 ku (ku - kw)^2 and
    c = -ku (ku - kw)^2) obtained by substituting the reference controller
    into the realizability identity.  Each root is re-verified against that
    identity.
    """
    if spec.case != "case1":
        raise StructureError("case-1 roots requested for a case-2 spec")
    kw, ku, e = spec.kappa_w, spec.kappa_u, spec.epsilon
    denom_scale = 2 * (ku + kw) * (ku - kw + e) * (ku - kw - e)
    if abs(denom_scale) < 1e-12 * max(1.0, (ku + kw) ** 3):
        raise StructureError("degenerate parameters: realizability quartic collapses")
    a = (-2 * ku**3 + 2 * ku**2 * kw + 2 * ku * kw**2
         + 2 * e**2 * ku + 2 * kw * (e**2 - kw**2))
    b = 4 * ku**3 - 8 * ku**2 * kw + 4 * ku * kw**2
    c = -ku**3 - ku * kw**2 + 2 * ku**2 * kw
    disc = b * b - 4 * a * c
    if disc < 0:
        raise StructureError("negative discriminant: no realizable attenuation level")
    roots = sorted(r.real for r in np.roots([a, b, c])
                   if abs(r.imag) < 1e-12 and r.real > 0)
    if len(roots) != 2:
        raise StructureError(f"expected two positive roots, found {len(roots)}")
    gm, gp = float(np.sqrt(roots[0])), float(np.sqrt(roots[1]))
    for g in (gm, gp):
        resid = _dpa_case1_pr_residual(
            DpaSpec(spec.kappa_w, spec.kappa_u, spec.epsilon, g))
        if resid > opts.pr_tol:
            raise StructureError(
                f"root gamma = {g} fails the realizability identity "
                f"(residual {resid:.3e})")
    return gm, gp


def dpa_case2_stuv(spec: DpaSpec) -> tuple[float, float, float, float]:
    """Scalar Lyapunov solutions for the weak-control regime (case 2)."""
    if spec.case != "case2":
        raise StructureError("case-2 values requested for a case-1 spec")
    kw, ku, e = spec.kappa_w, spec.kappa_u, spec.epsilon
    d1, d2 = e + ku - kw, e + kw - ku
    return ku / d1, kw / d1, kw / d2, ku / d2


def dpa_case2_thresholds(spec: DpaSpec) -> tuple[float, float]:
    """Positivity thresholds of S - T/g^2 and U - V/g^2 respectively."""
    kw, ku = spec.kappa_w, spec.kappa_u
    return float(np.sqrt(kw / ku)), float(np.sqrt(ku / kw))


def dpa_case2_rho_gamma(spec: DpaSpec) -> float:
    """Smallest gamma at which the spectral-radius coupling test passes.

    From the scalar reduction rho(XY) < 1 <=> (S t - T)(U t - V) > t with
    t = gamma^2, the boundary is the largest root of

        S U t^2 - (S V + T U + 1) t + T V = 0.
    """
    S, T, U, V = dpa_case2_stuv(spec)
    roots = np.roots([S * U, -(S * V + T * U + 1.0), T * V])
    t = max(r.real for r in roots if abs(r.imag) < 1e-12)
    return float(np.sqrt(t))


def dpa_case2_rho_gamma_reference(spec: DpaSpec) -> float:
    """Radical-form reference value for the spectral-radius boundary.

    Kept for regression comparison: it solves the coupling condition with
    the 1/gamma^2 scaling of Y dropped, so it overstates the boundary;
    the regression suite documents the disagreement with dpa_case2_rho_gamma.
    """
    kw, ku, e = spec.kappa_w, spec.kappa_u, spec.epsilon
    r = ku / kw
    inner = 0.5 * (r + 1 / r) - 0.5 * np.sqrt(
        (r - 1 / r) ** 2 + 4 * (e**2 - (kw - ku) ** 2) / (ku * kw))
    return float(1.0 / np.sqrt(inner))


def dpa_pr_gamma_case2(spec: DpaSpec,
                       opts: NumericOptions = DEFAULT) -> list[float]:
    """Realizability levels for the case-2 controller: real positive roots
    (in t = gamma^2) of the cubic defect polynomial that also clear the
    positivity thresholds.  May be empty, in which case the controller
    needs added vacuum channels at every admissible gamma."""
    if spec.case != "case2":
        raise StructureError("case-2 roots requested for a case-1 spec")
    kw, ku, e = spec.kappa_w, spec.kappa_u, spec.epsilon
    coeffs = [
        2 * ku**3 * kw + 2 * ku**2 * kw**2 - 4 * e * ku**2 * kw,
        (-ku * kw**3 - 8 * ku**2 * kw**2 - 3 * ku**3 * kw - e**2 * ku * kw
         + 4 * e * ku * kw**2 + 4 * e * ku**2 * kw + 2 * e**3 * ku),
        (3 * ku * kw**3 + 8 * ku**2 * kw**2 + ku**3 * kw + e**2 * ku * kw
         - 2 * e * ku * kw**2 - e * ku**2 * kw - e**3 * kw - e * kw**3),
        -2 * ku * kw**3 - 2 * ku**2 * kw**2,
    ]
    poly = np.polynomial.Polynomial(coeffs[::-1])
    dpoly = poly.deriv()
    threshold = max(dpa_case2_thresholds(spec))
    out = []
    for r in np.roots(coeffs):
        if abs(r.imag) > 1e-10 or r.real <= 0:
            continue
        t = float(r.real)
        if abs(dpoly(t)) > 0:
            t -= poly(t) / dpoly(t)   # one Newton polish
        g = float(np.sqrt(t))
        if g > threshold:
            out.append(g)
    return sorted(out)
