"""Seeded plant ensembles, as raw physical data plus the checker's truth.

Nothing here imports qhinf: a Spec holds the matrices (or device
parameters) that the workloads later hand to qhinf's constructors, and the
checker's own plant and design at the target gamma.

Each plant draws from its own generator, keyed by (seed, family, slot), so
one family's make-up never shifts another's.  Sizes and the split of each
plant's shifted generator into stable and anti-stable parts are fixed by the
slot, not drawn: the Lyapunov solves cost O(block^6), so a drawn split would
move the cost of a 40-mode plant fivefold from seed to seed.  Targets are
placed at a drawn factor of the checker's own threshold, at least 15% away
from it, so every verdict is clear-cut (checker.SKIP_REL is 2%) and the
mix of certified and refused plants is the same for every seed.
"""

from dataclasses import dataclass, field

import numpy as np

import checker

FAMILY_CODES = {"passive": 1, "sym": 2, "general": 3, "cavity": 4, "dpa": 5}
CERTIFY = (1.15, 2.0)    # target / threshold for a plant that must certify
REFUSE = (0.5, 0.85)     # target / threshold for a plant that must be refused


@dataclass
class Spec:
    """One plant: family, size, raw data for qhinf, and the checker's view."""
    family: str
    n_modes: int
    gamma: float
    data: dict
    plant: checker.Plant
    threshold: float
    truth: checker.Design = field(repr=False, default=None)

    @property
    def quadrature(self) -> bool:
        return self.plant.quadrature

    def at(self, gamma: float) -> "Spec":
        """Same plant at another target, with the checker's design there."""
        return Spec(self.family, self.n_modes, gamma, self.data, self.plant,
                    self.threshold, checker.design(self.plant, gamma))


def _rng(seed: int, family: str, slot: int) -> np.random.Generator:
    return np.random.default_rng([seed, FAMILY_CODES[family], slot])


def _unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q @ np.diag(d / np.abs(d))


def _split_rates(rng: np.random.Generator, n: int, n_up: int):
    """Per-mode coupling rates with c1 > c2 on the first n_up modes and
    c1 < c2 on the rest, |c1^2 - c2^2| >= 0.1 (the test-suite's shape)."""
    c1, c2 = np.empty(n), np.empty(n)
    for i in range(n):
        while True:
            a, b = rng.uniform(0.3, 1.5, size=2)
            if abs(a * a - b * b) >= 0.1:
                break
        hi, lo = max(a, b), min(a, b)
        c1[i], c2[i] = (hi, lo) if i < n_up else (lo, hi)
    return c1, c2


def passive_data(rng, n: int) -> dict:
    """Passive plant mixing all modes; half the modes (rounded up) have the
    performance coupling dominant, which fixes the eigenvalue split."""
    c1, c2 = _split_rates(rng, n, (n + 1) // 2)
    Q = _unitary(rng, n)
    return {"C1": _unitary(rng, n) @ np.diag(c1) @ Q,
            "C2": _unitary(rng, n) @ np.diag(c2) @ Q}


def sym_data(rng, n: int) -> dict:
    """Detuning-free plant with a symmetric shifted generator: diagonal
    quadrature couplings in a random symplectic-orthogonal basis."""
    c1, c2 = _split_rates(rng, n, (n + 1) // 2)
    R = checker.realify(_unitary(rng, n))
    nn = 2 * n
    return {"Hmat": np.zeros((nn, nn)),
            "C1": np.kron(np.eye(2), np.diag(c1)) @ R.T,
            "C2": np.kron(np.eye(2), np.diag(c2)) @ R.T,
            "D12": np.eye(nn), "D21": np.eye(nn)}


def general_data(rng, n: int, side: int) -> dict:
    """Detuned, squeezed plant with mode-mixing couplings whose shifted
    generator is non-normal and lies entirely in one half plane.

    The damping part has eigenvalues of one sign and modulus >= 0.255; the
    detuning adds only a skew part and the squeezing a symmetric part of
    norm <= 0.15, so every eigenvalue keeps the damping's sign.  One half
    plane means one of the two Schur blocks is empty.
    """
    strong, weak = rng.uniform(1.0, 1.5, n), rng.uniform(0.3, 0.7, n)
    return _general(rng, *((strong, weak) if side > 0 else (weak, strong)))


def _general(rng, c1, c2, squeeze: float = 0.15) -> dict:
    n = len(c1)
    Q = _unitary(rng, n)
    N1 = _unitary(rng, n) @ np.diag(c1) @ Q
    N2 = _unitary(rng, n) @ np.diag(c2) @ Q
    Om = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Om = 0.5 * (Om + Om.conj().T) / np.sqrt(n)
    P = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    P = 0.5 * (P + P.T)
    Hs = np.block([[P.real, P.imag], [P.imag, -P.real]])
    Hs *= squeeze / max(squeeze, np.linalg.norm(checker.jj(n) @ Hs, 2))
    nn = 2 * n
    return {"Hmat": checker.realify(Om) + Hs,
            "C1": checker.realify(N1), "C2": checker.realify(N2),
            "D12": np.eye(nn), "D21": np.eye(nn)}


def _checker_plant(family: str, data: dict) -> checker.Plant:
    if family == "passive":
        return checker.passive_plant(data["C1"], data["C2"])
    if family == "cavity":
        return checker.passive_plant([[np.sqrt(data["kappa2"])]],
                                     [[np.sqrt(data["kappa1"])]])
    if family == "dpa":
        e = data["epsilon"]
        return checker.quadrature_plant(
            [[0.0, e / 2], [e / 2, 0.0]], np.sqrt(data["kappa_u"]) * np.eye(2),
            np.sqrt(data["kappa_w"]) * np.eye(2), np.eye(2), np.eye(2))
    return checker.quadrature_plant(data["Hmat"], data["C1"], data["C2"],
                                    data["D12"], data["D21"])


def make_spec(family: str, n: int, data: dict, rng, certify: bool) -> Spec:
    """Place the target on the requested side of the checker's threshold."""
    plant = _checker_plant(family, data)
    thr = checker.threshold(plant)
    while True:
        gamma = float(thr * rng.uniform(*(CERTIFY if certify else REFUSE)))
        if checker.clear_cut(plant, gamma):
            break
    spec = Spec(family, n, gamma, data, plant, thr).at(gamma)
    if spec.truth.certified != certify:
        raise RuntimeError(f"{family} plant: verdict at gamma {gamma} is not "
                           "on the intended side of the threshold")
    return spec


def seeded(seed: int, family: str, slot: int, n: int, certify: bool,
           side: int = 1) -> Spec:
    rng = _rng(seed, family, slot)
    if family == "passive":
        data = passive_data(rng, n)
    elif family == "sym":
        data = sym_data(rng, n)
    elif family == "general":
        data = general_data(rng, n, side)
    elif family == "cavity":
        k1 = float(rng.uniform(0.2, 1.0))
        data = {"kappa1": k1, "kappa2": float(k1 * rng.uniform(1.5, 6.0))}
    elif family == "dpa":
        kw = float(rng.uniform(0.5, 1.5))
        e = float(rng.uniform(0.5, 1.5))
        # case 1 (slot even): kappa_u > eps + kappa_w; case 2: in between
        ku = (kw + e * float(rng.uniform(1.3, 2.0)) if slot % 2 == 0
              else kw + e * float(rng.uniform(0.2, 0.7)))
        data = {"kappa_w": kw, "kappa_u": ku, "epsilon": e}
    else:
        raise ValueError(f"unknown family {family!r}")
    return make_spec(family, n, data, rng, certify)


def _mixed_general(rng, n: int) -> dict:
    """Non-normal general plant with a shifted generator that has eigenvalues
    in both half planes, so the Schur coupling block A12 is nonzero."""
    k = (n + 1) // 2
    c1 = np.r_[rng.uniform(1.0, 1.5, k), rng.uniform(0.3, 0.7, n - k)]
    c2 = np.r_[rng.uniform(0.3, 0.7, k), rng.uniform(1.0, 1.5, n - k)]
    return _general(rng, c1, c2)


def mixed_plants() -> list[Spec]:
    """Fixed general plants with eigenvalues in both half planes, which the
    checker certifies with a clear margin and qhinf refuses with
    "cross-block compatibility equation fails" (Y is padded onto the Schur
    split built for X).  They do not depend on the benchmark seed, so every
    run counts the same failures."""
    # detuned DPA: kappa_w = 1, kappa_u = 2, epsilon = 3, detuning 0.5
    specs = [{"Hmat": np.array([[0.5, 1.5], [1.5, 0.5]]),
              "C1": np.sqrt(2.0) * np.eye(2), "C2": np.eye(2),
              "D12": np.eye(2), "D21": np.eye(2)}]
    specs += [_mixed_general(np.random.default_rng([2604, n]), n)
              for n in (2, 3)]
    out = []
    for data in specs:
        plant = _checker_plant("mixed", data)
        thr = checker.threshold(plant)
        gamma = 1.6 * thr
        spec = Spec("mixed", len(data["C1"]) // 2, gamma, data, plant,
                    thr).at(gamma)
        if not (spec.truth.certified and checker.clear_cut(plant, gamma)):
            raise RuntimeError("fixed mixed plant is not clearly certifiable")
        out.append(spec)
    return out
