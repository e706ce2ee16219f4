"""Controller synthesis by stable/anti-stable splitting and Lyapunov solves.

Instead of solving the two coupled Riccati equations directly, the pipeline
splits the shifted generator Ax into stable and anti-stable invariant
subspaces, solves (at most) four standard Lyapunov equations there, and
assembles the stabilizing Riccati solutions X and Y from the inverses of the
differences S - T/gamma^2 and U - V/gamma^2.  Certification always checks the
spectral-radius coupling rho(XY) < 1 and the stabilizing (Hurwitz) properties
directly; the singular-value short-cut tests are reported as diagnostics,
and are necessary-and-sufficient only in the symmetric-Ax regime.

Only S - T/gamma^2, U - V/gamma^2 and what follows depend on gamma, so a
synthesis has two stages.  prepare does the gamma-independent work once per
plant: the split and the four Lyapunov solutions S, T, U, V.  At each gamma,
verdict forms the two differences, tests their positivity, assembles X and Y
and decides, and synthesize_at adds the controller and the diagnostics.
synthesize is prepare then synthesize_at; min_certified_gamma prepares once
and reuses it at every gamma.

prepare also keeps one entry: the last plant's physics key and its Prepared.
A plant with the same class, opts and bit-identical Ax, Ay, B1, B2 (the
inputs of the split, the solves and the one-sided loop gates) gets that
split and S, T, U, V rebound to itself, so a loop over plant.with_gamma(g),
or over plants built separately at each gamma, splits and solves once.  The
shared arrays are read-only; a refused plant is not kept.  What only the
physics decides beyond that (Z, the regime label, the loop gate of an empty
side) is computed on first use and shared the same way.

Positivity of both differences and rho(XY) < 1 hold together exactly while
one Hermitian matrix, quadratic in nu = 1/gamma, stays positive definite, so
gamma_threshold predicts gamma* from one Hermitian eigenvalue problem on the
prepared S, T, U, V.  threshold adds the condition that binds at gamma*,
for every plant: a block's positivity or the coupling rho(XY) = 1.
min_certified_gamma lets the prediction decide the midpoints far from it
and proves the outcome with two verdicts, one at each final end.

Every stage serves both plant kinds.  A plant supplies its split, Ax, Ay
and its adjoint, and its class says whether that adjoint couples the split's
two blocks (couples_blocks; a passive plant's does not).  On an uncoupled
split rho(XY) = 0 and gamma* comes from one Hermitian-definite pencil.  On
a coupled split both rho(XY) and gamma* read the coupling block F
(coupling, once per physics), and rho(XY) is taken on the n_anti x n_anti
anti-stable block instead of the 2n x 2n product XY.  A symmetric Ax (the
passive plants, the sym family, the DPA) gets the Hermitian split, whose
diagonal blocks make the four Lyapunov solves closed-form divisions.
"""

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg as sla

from . import linalg
from .errors import AssumptionError, SynthesisError
from .linalg import SchurSplit
from .options import DEFAULT, NumericOptions
from .plant import Plant
from .qls import j_symplectic


@dataclass
class LyapunovQuad:
    """The four Lyapunov solutions on the split subspaces.

    (S, T) live on the anti-stable block and control X; (U, V) live on the
    stable block and control Y.  Either pair is zero-dimensional when the
    corresponding block is empty.  SmTg = S - T/gamma^2, UmVg = U - V/gamma^2
    are the matrices whose inverses build the Riccati solutions.
    """
    S: np.ndarray
    T: np.ndarray
    U: np.ndarray
    V: np.ndarray
    SmTg: np.ndarray
    UmVg: np.ndarray


@dataclass
class Controller:
    """Output-feedback controller with its quantum-realizability data.

    The input/output matrices of the physical realization are tied to the
    state-space ones (BKtilde = -CK#, CKtilde = -BK#).  prResidual measures
    how far (AK, BK, CK) is from being realizable as-is; a nonzero value
    means extra vacuum channels would be needed (needs_augmentation).
    """
    AK: np.ndarray
    BK: np.ndarray
    CK: np.ndarray
    BKtilde: np.ndarray
    CKtilde: np.ndarray
    pr_residual: float
    needs_augmentation: bool


@dataclass
class SynthesisResult:
    """Everything produced by one synthesis run, for reporting."""
    gamma: float
    schur: SchurSplit | None
    quad: LyapunovQuad | None
    X: np.ndarray | None
    Y: np.ndarray | None
    Z: np.ndarray | None
    rho_xy: float | None
    sigma_condition: bool | None
    controller: Controller | None
    certified: bool
    regime: str = "general"        # "general", "symmetric-iff" or "passive"
    failure: str = ""              # violated condition when not certified
    diagnostics: dict = field(default_factory=dict)


@dataclass
class Prepared:
    """The gamma-independent stage of a synthesis: the plant, its
    stable/anti-stable split and the four Lyapunov solutions on it.  Every
    gamma reuses them; only S - T/gamma^2, U - V/gamma^2 and what follows
    depend on gamma."""
    plant: Plant
    split: SchurSplit
    S: np.ndarray
    T: np.ndarray
    U: np.ndarray
    V: np.ndarray
    # values that depend on the physics alone, by name (see _once); prepare
    # shares the dict between every Prepared of the same physics
    _memo: dict = field(default_factory=dict, repr=False, compare=False)

    def at(self, gamma: float) -> tuple[Plant, LyapunovQuad]:
        """The plant at gamma and the Lyapunov data with their differences
        at gamma."""
        plant = self.plant.with_gamma(gamma)
        g2 = plant.gamma ** 2
        return plant, LyapunovQuad(self.S, self.T, self.U, self.V,
                                   self.S - self.T / g2, self.U - self.V / g2)


def _once(prep: Prepared, name: str, compute):
    """prep's value of name, computed by compute() on first use."""
    if name not in prep._memo:
        prep._memo[name] = compute()
    return prep._memo[name]


def solve_quad(plant, split: SchurSplit) -> Prepared:
    """Solve the four Lyapunov equations on the split subspaces.

    With B1x = W B1, B2x = W B2 partitioned conformally (subscript 1 stable,
    2 anti-stable):

        -Ax3 S - S Ax3^H + B2x2 B2x2^H = 0      (anti-stable pair)
        -Ax3 T - T Ax3^H + B1x2 B1x2^H = 0
         Ax1 U + U Ax1^H + B1x1 B1x1^H = 0      (stable pair)
         Ax1 V + V Ax1^H + B2x1 B2x1^H = 0

    The split's blocks Ax1 = A11 and Ax3 = A22 are already in Schur form, so
    each solve is linalg.solve_lyapunov_schur, with no Schur factorization
    of its own.  Empty blocks give zero-dimensional members and the pipeline
    degenerates to two equations.
    """
    sd = split.n_stable
    B1x, B2x = split.W @ plant.B1, split.W @ plant.B2

    def lyap(A, B):
        return linalg.solve_lyapunov_schur(A, B @ B.conj().T, plant.opts)

    return Prepared(plant, split,
                    lyap(-split.A22, B2x[sd:]), lyap(-split.A22, B1x[sd:]),
                    lyap(split.A11, B1x[:sd]), lyap(split.A11, B2x[:sd]))


# prepare's one entry: the physics key of the last plant it prepared and
# that plant's Prepared
_last: tuple = (None, None)


def _physics_key(plant: Plant) -> tuple:
    """What the split, the four solves and the one-sided loop gates read:
    the class (its split and adjoint), opts, and Ax, Ay, B1, B2 bit for bit."""
    return (type(plant), plant.opts,
            *((M.dtype.str, M.shape, M.tobytes())
              for M in (plant.Ax, plant.Ay, plant.B1, plant.B2)))


def prepare(plant: Plant) -> Prepared:
    """Split Ax and solve the four Lyapunov equations, once per plant.  The
    split raises an AssumptionError when the spectral assumption fails.

    A plant whose physics key (_physics_key) matches the last prepared one
    bit for bit gets that split and S, T, U, V, rebound to itself; no other
    plant is kept, and a plant whose split or solves raise is not kept at
    all.  The split's arrays and S, T, U, V are read-only, since later
    results share them.
    """
    global _last
    key = _physics_key(plant)
    if _last[0] != key:
        prep = solve_quad(plant, plant.split())
        sp = prep.split
        for M in (sp.W, sp.A11, sp.A12, sp.A22, prep.S, prep.T, prep.U, prep.V):
            M.flags.writeable = False
        _last = (key, prep)
    return replace(_last[1], plant=plant)


def positivity(SmTg: np.ndarray, UmVg: np.ndarray,
               opts: NumericOptions = DEFAULT) -> tuple[str, tuple]:
    """Decide S - T/gamma^2 > 0 and U - V/gamma^2 > 0, each by one eigvalsh:
    lambda_min > pd_tol max(1, ||block||_F).  The Lyapunov solutions are
    exactly Hermitian.  Returns the refusal naming every failing block (""
    if none; an empty block passes) and the two lambda_min (inf for an empty
    block), which synthesize_at's sigma short-cut reads."""
    lam_min = tuple(float(np.linalg.eigvalsh(P)[0]) if P.size else np.inf
                    for P in (SmTg, UmVg))
    bad = [name for name, lam, P in zip(("S - T/gamma^2", "U - V/gamma^2"),
                                        lam_min, (SmTg, UmVg))
           if not lam > opts.pd_tol * max(1.0, float(np.linalg.norm(P)))]
    return " and ".join(bad) + " not positive definite" if bad else "", lam_min


def riccati_weights(plant) -> tuple[np.ndarray, np.ndarray]:
    """M, N of Ax^H X + X Ax + X M X = 0 and Ay Y + Y Ay^H + Y N Y = 0."""
    g2 = plant.gamma ** 2
    return (plant.B1 @ plant.B1.conj().T / g2 - plant.B2 @ plant.B2.conj().T,
            plant.C1.conj().T @ plant.C1 - g2 * plant.C2.conj().T @ plant.C2)


def assemble_xy(plant, prep: Prepared, quad: LyapunovQuad):
    """Build the stabilizing Riccati solutions X, Y from the Lyapunov data.

    With Xs = (S - T/g^2)^-1 and Yu = (U - V/g^2)^-1, X = W^H diag(0, Xs) W
    and Y = adj(W^H diag(Yu, 0) W) / g^2 with the plant's adjoint.  Requires
    SmTg and UmVg positive definite (see positivity).  rho(XY) is 0 on an
    uncoupled split; otherwise it is taken on the anti-stable block, as
    rho(Xs F Yu F^T) / g^2 with F = coupling(prep): the nonzero spectrum of
    XY is that of this n_anti x n_anti product.  Returns
    (X, Y, rho_xy, (U - V/g^2)^-1).
    """
    split = prep.split
    n = plant.A.shape[0]
    sd = split.n_stable
    W = split.W
    Xs, Yu = np.linalg.inv(quad.SmTg), np.linalg.inv(quad.UmVg)
    Xt = np.zeros((n, n), dtype=W.dtype)
    Yt = np.zeros((n, n), dtype=W.dtype)
    Xt[sd:, sd:] = Xs
    Yt[:sd, :sd] = Yu
    X = W.conj().T @ Xt @ W
    Y = plant.adjoint(W.conj().T @ Yt @ W) / plant.gamma ** 2
    X, Y = 0.5 * (X + X.conj().T), 0.5 * (Y + Y.conj().T)
    if uncoupled(plant, split):
        rho = 0.0
    else:
        F = coupling(prep)
        rho = linalg.spectral_radius(Xs @ F @ Yu @ F.T) / plant.gamma ** 2
    return X, Y, rho, Yu


def coupling(prep: Prepared) -> np.ndarray:
    """F = W2 JJ^T W1^T, read-only, once per physics: the block through
    which a HinfPlant's sharp adjoint couples the anti-stable rows W2 of W
    to the stable rows W1 (see gamma_threshold).  It vanishes when the
    stable subspace is JJ-invariant, as on the sym family's splits.  Only a
    coupled split (not uncoupled) has one."""
    def compute():
        split = prep.split
        sd = split.n_stable
        F = split.W[sd:] @ j_symplectic(prep.plant.n_modes).T @ split.W[:sd].T
        F.flags.writeable = False
        return F

    return _once(prep, "coupling", compute)


def uncoupled(plant, split: SchurSplit) -> bool:
    """Whether nothing couples the split's blocks: the adjoint does not
    (couples_blocks) or a block is empty.  X and Y then live on different
    blocks, so rho(XY) = 0 and positivity alone decides."""
    return not (plant.couples_blocks and split.n_stable and split.n_anti)


def riccati_residuals(plant, X: np.ndarray, Y: np.ndarray, weights) -> dict:
    """Frobenius residuals of the two Riccati equations X and Y solve."""
    M, N = weights
    return {
        "are_residual_x": float(np.linalg.norm(
            plant.Ax.conj().T @ X + X @ plant.Ax + X @ M @ X)),
        "are_residual_y": float(np.linalg.norm(
            plant.Ay @ Y + Y @ plant.Ay.conj().T + Y @ N @ Y)),
    }


def certify(plant: Plant, prep: Prepared, X: np.ndarray,
            Y: np.ndarray, rho_xy: float, rho_ok: bool, weights,
            UmVg_inv) -> tuple[list[str], dict]:
    """The conditions the assembled (X, Y) must meet to certify the target.

    They are the direct ones: rho(XY) < 1 - pd_tol (rho_ok, the caller's
    verdict, which also gates the controller), cross-block compatibility,
    and Hurwitz stability of the two loop matrices Ax + M X and Ay + Y N.
    UmVg_inv is assemble_xy's (U - V/g^2)^-1.  Returns the failed
    conditions (none: certified) and the diagnostics of the last three.
    An empty anti-stable (stable) block makes X (Y) exactly 0, so that
    loop matrix is Ax (Ay) at every gamma, and prep decides it once.
    """
    split = prep.split
    # X and Y need no PSD test: each is congruent to a PD block (positivity
    # passed) padded with zeros
    why = [] if rho_ok else [f"rho(XY) = {rho_xy:.12g} >= 1 - pd_tol"]

    # cross-block compatibility: the padded Y-candidate solves its Riccati
    # equation only when the off-diagonal blocks Y1 Ax2 (and its transpose)
    # vanish, i.e. the coupling block must be annihilated (empty: 0)
    compat = float(np.linalg.norm(UmVg_inv @ split.A12)
                   / ((1.0 + np.linalg.norm(UmVg_inv))
                      * (1.0 + np.linalg.norm(split.A11) + np.linalg.norm(split.A22))))
    diagnostics = {"compat_residual": compat,
                   "cross_block_norm": float(np.linalg.norm(split.A12))}
    if compat > plant.opts.residual_tol:
        why.append("cross-block compatibility equation fails")

    M, N = weights
    for name, size, shifted, loop in (
            ("X", split.n_anti, plant.Ax, lambda: plant.Ax + M @ X),
            ("Y", split.n_stable, plant.Ay, lambda: plant.Ay + Y @ N)):
        gate = f"loop_{name.lower()}_hurwitz"
        hurwitz = diagnostics[gate] = (
            linalg.is_hurwitz(loop()) if size
            else _once(prep, gate, lambda: linalg.is_hurwitz(shifted)))
        if not hurwitz:
            why.append(f"{name} is not stabilizing")
    return why, diagnostics


def _nonsingular_iyx(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """I - YX, which the controller solves with; raises SynthesisError when
    it is singular in numpy's rank convention, sigma_min <= sigma_max n eps:
    whether the solve is defined is a question of double precision."""
    IYX = np.eye(X.shape[0]) - Y @ X
    if np.linalg.matrix_rank(IYX) < IYX.shape[0]:
        raise SynthesisError("I - YX is singular (rho(XY) >= 1)")
    return IYX


def build_controller(plant, X: np.ndarray, Y: np.ndarray,
                     IYX: np.ndarray | None = None) -> Controller:
    """Assemble the output-feedback controller from the Riccati solutions,
    in the plant's representation and with the plant's adjoint.  IYX is
    I - YX when the caller has already found it nonsingular (verdict has)."""
    g2 = plant.gamma ** 2
    adj = plant.adjoint
    if IYX is None:
        IYX = _nonsingular_iyx(X, Y)
    CK = -(plant.B2.conj().T @ X + plant.D12.conj().T @ plant.C1)
    BK = np.linalg.solve(IYX, g2 * Y @ plant.C2.conj().T
                         + plant.B1 @ plant.D21.conj().T)
    AK = (plant.A + plant.B2 @ CK - BK @ plant.C2
          + (plant.B1 - BK @ plant.D21) @ plant.B1.conj().T @ X / g2)
    adj_BK, adj_CK = adj(BK), adj(CK)
    resid = np.linalg.norm(AK + adj(AK) + BK @ adj_BK + adj_CK @ CK)
    pr = float(resid / (1.0 + np.linalg.norm(AK)))
    return Controller(AK, BK, CK,
                      BKtilde=-adj_CK,
                      CKtilde=-adj_BK,
                      pr_residual=pr,
                      needs_augmentation=bool(pr > plant.opts.pr_tol))


@dataclass
class Verdict:
    """The per-gamma decision of a synthesis from a Prepared.

    why lists the failed conditions; the target certifies when it is empty.
    X is None when positivity refused (why is then its one refusal); IYX is
    None when rho(XY) missed its margin, which withholds the controller.
    """
    plant: Plant                   # the prepared plant at this gamma
    quad: LyapunovQuad
    lam_min: tuple                 # positivity's, inf for an empty block
    why: list[str]
    X: np.ndarray | None = None
    Y: np.ndarray | None = None
    rho_xy: float | None = None
    weights: tuple | None = None
    gates: dict = field(default_factory=dict)   # certify's diagnostics
    IYX: np.ndarray | None = None

    @property
    def certified(self) -> bool:
        return not self.why


def verdict(prep: Prepared, gamma: float) -> Verdict:
    """Decide the target gamma on a prepared plant: positivity of
    S - T/g^2 and U - V/g^2, X and Y with rho(XY), certify's conditions and,
    when rho(XY) passes, the I - YX rank test (a SynthesisError, as from
    the controller it guards).  synthesize_at reports this verdict and
    min_certified_gamma bisects on it."""
    plant, quad = prep.at(gamma)
    failure, lam_min = positivity(quad.SmTg, quad.UmVg, plant.opts)
    v = Verdict(plant, quad, lam_min, [failure] if failure else [])
    if failure:
        return v
    v.weights = riccati_weights(plant)
    v.X, v.Y, v.rho_xy, UmVg_inv = assemble_xy(plant, prep, quad)
    # the one rho(XY) margin: it gates the certificate and the controller
    rho_ok = v.rho_xy < 1.0 - plant.opts.pd_tol
    v.why, v.gates = certify(plant, prep, v.X, v.Y, v.rho_xy, rho_ok,
                             v.weights, UmVg_inv)
    if rho_ok:
        # an empty block leaves YX = 0 exactly, so I - YX = I
        split = prep.split
        v.IYX = (_nonsingular_iyx(v.X, v.Y) if split.n_stable and split.n_anti
                 else np.eye(len(v.X)))
    return v


def _z_and_regime(prep: Prepared) -> tuple[np.ndarray, str]:
    """Z = JJ W JJ^T W^T, written with the (sharp) adjoint, read-only, and
    the regime: "symmetric-iff" when Ax is symmetric and Z = +-I."""
    plant, W, tol = prep.plant, prep.split.W, prep.plant.opts.struct_tol
    Z = plant.adjoint(W.T) @ W.T
    Z.flags.writeable = False
    Ax, I = plant.Ax, np.eye(len(Z))
    sym = (np.linalg.norm(Ax - Ax.T) <= tol * (1.0 + np.linalg.norm(Ax))
           and min(np.linalg.norm(Z - I), np.linalg.norm(Z + I)) <= tol * len(Z))
    return Z, "symmetric-iff" if sym else "general"


def synthesize_at(prep: Prepared, gamma: float) -> SynthesisResult:
    """Synthesis at gamma on a prepared plant: the verdict, plus what only
    a synthesis reports, the Riccati residuals, Z and the regime, the
    singular-value diagnostics and the controller.

    The short-cut sigma_max((S-T/g^2)^{-1}) sigma_max((U-V/g^2)^{-1}) < g^2
    is recorded as sigma_condition; when Ax is symmetric and Z is (up to
    sign) the identity it is an exact characterization and the result is
    labeled "symmetric-iff", otherwise it is only sufficient and rho(XY)
    rules; on an uncoupled split it holds, as rho(XY) = 0 does.  A passive
    result is labeled "passive" and carries neither its complex split nor Z.
    """
    v = verdict(prep, gamma)
    plant, split = v.plant, prep.split
    passive = not plant.couples_blocks
    schur = None if passive else split
    if v.X is None:
        return SynthesisResult(
            plant.gamma, schur, v.quad, None, None, None, 0.0 if passive else None,
            True if passive else None, None, certified=False,
            regime="passive" if passive else "general", failure=v.why[0])
    Z, regime = ((None, "passive") if passive
                 else _once(prep, "z_regime", lambda: _z_and_regime(prep)))
    # positivity passed, so sigma_max of each inverse is 1 / lambda_min;
    # vacuous factors are 1 for empty blocks
    f_x, f_y = (1.0 / lam if size else 1.0
                for lam, size in zip(v.lam_min, (split.n_anti, split.n_stable)))
    sigma_condition = (uncoupled(plant, split)
                       or bool(f_x * f_y < plant.gamma ** 2))
    controller = (build_controller(plant, v.X, v.Y, v.IYX)
                  if v.IYX is not None else None)
    diagnostics = {**riccati_residuals(plant, v.X, v.Y, v.weights), **v.gates,
                   "sigma_product": float(f_x * f_y), "failure_reasons": v.why}
    return SynthesisResult(plant.gamma, schur, v.quad, v.X, v.Y, Z, v.rho_xy,
                           sigma_condition, controller, v.certified,
                           regime=regime, failure="; ".join(v.why),
                           diagnostics=diagnostics)


def synthesize(plant: Plant) -> SynthesisResult:
    """Full pipeline: split -> Lyapunov -> X/Y -> certificate -> controller.
    Structural violations raise (the split raises an AssumptionError when
    the spectral assumption fails); a solvability failure at the stated
    gamma comes back as an uncertified result naming the condition."""
    return synthesize_at(prepare(plant), plant.gamma)


def gamma_threshold(prep: Prepared) -> float | None:
    """The predicted gamma* of a prepared plant from one Hermitian
    eigenvalue solve, or None when S or U is not positive definite (an
    unforced pair).

    With nu = 1/gamma, by a Schur complement the positivity of S - nu^2 T
    and U - nu^2 V and rho(XY) < 1 hold together exactly when

        L(nu) = [[S - nu^2 T, nu F], [nu F^H, U - nu^2 V]] > 0.

    F = W2 E^H W1^H (coupling(prep)) couples the anti-stable rows W2 of W to
    the stable rows W1 through the congruence E of the plant's adjoint,
    adj(M) = E^H M^H E: E = JJ for a HinfPlant.  An uncoupled split has
    F = 0, and gamma*^2 is the top eigenvalue of the pencil (diag(T, V),
    diag(S, U)).  Otherwise, with L(0) = diag(S, U) = R R^H and mu = 1/nu,
    gamma* is the largest real mu with det(mu^2 I + mu K1 - G G^H) = 0 (0
    when none is positive), where K1 = R^-1 [[0, F], [F^H, 0]] R^-H and
    G = R^-1 diag(T^1/2, V^1/2), so that G G^H = R^-1 diag(T, V) R^-H.
    This quadratic eigenproblem is hyperbolic, and for mu != 0 it is
    (mu^2 I + mu K1 - G G^H) x = 0 exactly when

        H [x; G^H x/mu] = mu [x; G^H x/mu],   H = [[-K1, G], [G^H, 0]],

    so gamma* = max(lambda_max(H), 0) from one eigvalsh of the Hermitian
    2n x 2n H.  T^1/2 and V^1/2 are square-root factors from one eigh per
    block, with rounding-negative eigenvalues clipped at 0.  gamma* is the
    boundary of positivity and rho(XY) < 1 alone; verdict's pd_tol margins
    and loop Hurwitz gates move the certified boundary slightly above it.
    """
    plant, split = prep.plant, prep.split
    S, T, U, V = prep.S, prep.T, prep.U, prep.V
    if positivity(S, U, plant.opts)[0]:
        return None
    na = split.n_anti
    n = na + split.n_stable
    if uncoupled(plant, split):
        dtype = np.result_type(S, T, U, V)
        L0, L2 = np.zeros((n, n), dtype), np.zeros((n, n), dtype)
        L0[:na, :na], L0[na:, na:] = S, U
        L2[:na, :na], L2[na:, na:] = T, V
        return float(np.sqrt(max(sla.eigvalsh(L2, L0)[-1], 0.0)))

    def inv_chol(P):
        return sla.solve_triangular(np.linalg.cholesky(P), np.eye(len(P)),
                                    lower=True)

    def sqrt_factor(P):
        w, Q = np.linalg.eigh(P)
        return Q * np.sqrt(np.maximum(w, 0.0))

    # H in the order (x_anti, x_stable, y_anti, y_stable): -K1 has the one
    # off-diagonal block -Rs^-1 F Ru^-H, and G the diagonal blocks
    # Rs^-1 T^1/2 and Ru^-1 V^1/2
    Rs_inv, Ru_inv = inv_chol(S), inv_chol(U)
    C = -Rs_inv @ coupling(prep) @ Ru_inv.conj().T
    H = np.zeros((2 * n, 2 * n), np.result_type(C, T, V))
    H[:na, na:n] = C
    H[na:n, :na] = C.conj().T
    H[:na, n:n + na] = Rs_inv @ sqrt_factor(T)
    H[na:n, n + na:] = Ru_inv @ sqrt_factor(V)
    H[n:, :n] = H[:n, n:].conj().T
    return max(float(np.linalg.eigvalsh(H)[-1]), 0.0)


@dataclass
class Threshold:
    """A plant's gamma* and the condition that binds there: "performance"
    (S - T/gamma^2), "measurement" (U - V/gamma^2) or "coupling"
    (rho(XY) = 1)."""
    gamma_star: float
    binding: str

    def __float__(self) -> float:
        return self.gamma_star


def threshold(plant: Plant) -> Threshold:
    """gamma_threshold of the plant and the condition that binds there.

    At gamma*, positivity tests both differences.  On a coupled split where
    both pass, rho(XY) = 1 binds; otherwise the block with the smaller
    lambda_min does (an empty block's is inf).  Raises SynthesisError for
    an unforced pair; T = V = 0 gives (0.0, "performance").
    """
    prep = prepare(plant)
    g_star = gamma_threshold(prep)
    if g_star is None:
        raise SynthesisError(
            "degenerate Lyapunov pair: the forced block is not positive "
            "definite, threshold undefined")
    if not g_star:   # T = V = 0: no gamma binds
        return Threshold(0.0, "performance")
    quad = prep.at(g_star)[1]
    failure, (lam_x, lam_y) = positivity(quad.SmTg, quad.UmVg, plant.opts)
    if not (failure or uncoupled(plant, prep.split)):
        return Threshold(g_star, "coupling")
    return Threshold(g_star, "measurement" if lam_y < lam_x else "performance")


# relative half-width of the band around the predicted gamma* inside which
# min_certified_gamma decides each midpoint by a verdict
PREDICTION_BAND = 1e-8


def _bisect(certifies, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Halve [lo, hi] on the decision certifies(mid) until it is tol wide."""
    for _ in range(60):   # 60 halvings pass a double's resolution
        if hi - lo <= tol * max(1.0, hi):
            break
        mid = 0.5 * (lo + hi)
        if certifies(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def min_certified_gamma(plant: Plant, lo: float, hi: float,
                        tol: float = 1e-6) -> float:
    """Bisect for the smallest gamma in [lo, hi] whose synthesis certifies.

    The plant's own gamma is ignored; lo must fail and hi must pass.  The
    split and the four Lyapunov solves do not depend on gamma, so they run
    once (prepare); a verdict, the decision synthesize reports, runs without
    the controller and the diagnostics.  A plant that prepare refuses
    certifies at no gamma.

    gamma_threshold predicts the boundary, so a midpoint more than
    PREDICTION_BAND (relative) away from it is decided by the prediction and
    one inside the band by a verdict.  When the prediction lies inside
    (lo, hi), that bisection runs first, and verdicts must then certify its
    final hi and refuse its final lo: two verdicts prove the answer, and
    the bracket ends get none.  Where certification is monotone in gamma
    between the bracket ends and those final ends, as bisection assumes,
    that proves every predicted decision right, and lo refuses and hi
    certifies as well, so the result is the double a bisection on verdicts
    alone returns.  Just above gamma* it is not monotone: the loop Hurwitz
    gates refuse in windows there (up to ~2e-9 relative on one-sided
    general plants), which lie inside the band, where every midpoint gets
    its verdict.  Otherwise (no prediction, a prediction outside (lo, hi)
    or a failed end check) the bracket ends get their verdicts first, then
    the predicted bisection with its end checks and, if those fail, the
    plain bisection on verdicts.

    The answer lies in the band just above the threshold where a certified
    controller can still miss gamma: at gamma*(1 + 1e-6), 20 sym and
    one-sided general plants of 1-10 modes all certify and all 20 closed
    loops fail attenuation_certificate; at gamma*(1 + 1e-4) none fails.
    Back off from it before building a controller that must meet gamma.
    """
    try:
        prep = prepare(plant)
    except AssumptionError:
        prep = None
    decided = {}

    def ok(g: float) -> bool:
        if g not in decided:
            try:
                decided[g] = prep is not None and verdict(prep, g).certified
            except SynthesisError:
                decided[g] = False
        return decided[g]

    g_star = None if prep is None else gamma_threshold(prep)

    def by_prediction() -> float | None:
        """The predicted bisection's final hi, when verdicts certify it and
        refuse its final lo; else None."""
        def predicted(g: float) -> bool:
            if abs(g - g_star) <= PREDICTION_BAND * g_star:
                return ok(g)
            return g > g_star

        p_lo, p_hi = _bisect(predicted, lo, hi, tol)
        return p_hi if ok(p_hi) and not ok(p_lo) else None

    if g_star is not None and lo < g_star < hi:
        answer = by_prediction()
        if answer is not None:
            return answer
    if not ok(hi):
        raise SynthesisError(f"upper bracket gamma = {hi} does not certify")
    if ok(lo):
        return lo
    # a repeat of the predicted bisection reuses the verdicts decided above
    answer = None if g_star is None else by_prediction()
    return answer if answer is not None else _bisect(ok, lo, hi, tol)[1]
