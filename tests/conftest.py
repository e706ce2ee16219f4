import numpy as np
import pytest

from qhinf import synth
from qhinf.plant import HinfPlant, build_plant
from qhinf.passive import PassivePlant
from qhinf.qls import SlhModel, j_symplectic


@pytest.fixture(autouse=True)
def fresh_prepare(monkeypatch):
    """Each test starts with prepare's one entry empty, so a test that
    patches or counts the split, a solve or verdict sees its own calls
    whichever test ran before it."""
    monkeypatch.setattr(synth, "_last", (None, None))


def count_calls(monkeypatch, name, *owners) -> list:
    """Replace name on each owner by a wrapper that records the arguments
    of its calls in one list."""
    calls = []
    for owner in owners:
        def counted(*args, inner=getattr(owner, name)):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def rand_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish unitary via QR with phase fixing."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q @ np.diag(d / np.abs(d))


def rand_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q @ np.diag(np.sign(np.diag(r)))


def random_sym_plant(rng: np.random.Generator, n_modes: int = 2,
                     gamma: float = 1.5) -> HinfPlant:
    """Random realizable quadrature plant with symmetric shifted generator.

    Detuning-free diagonal couplings conjugated by a symplectic-orthogonal
    change of basis; the construction keeps the shifted generator symmetric
    while exercising generic coordinates.
    """
    while True:
        c1 = rng.uniform(0.3, 1.5, size=n_modes)
        c2 = rng.uniform(0.3, 1.5, size=n_modes)
        if np.min(np.abs(c1**2 - c2**2)) >= 0.1:
            break
    n = 2 * n_modes
    Cd1 = np.kron(np.eye(2), np.diag(c1))
    Cd2 = np.kron(np.eye(2), np.diag(c2))
    q = rand_unitary(rng, n_modes)
    R = np.block([[q.real, -q.imag], [q.imag, q.real]])
    return build_plant(np.zeros((n, n)), Cd1 @ R.T, Cd2 @ R.T,
                       np.eye(n), np.eye(n), gamma)


def random_passive_model(rng: np.random.Generator, n: int = 2,
                         m: int = 2, detuned: bool = True) -> SlhModel:
    Om = rng.normal(size=(n, n))
    Om = 0.5 * (Om + Om.T) if detuned else np.zeros((n, n))
    C = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    return SlhModel(S=rand_unitary(rng, m), Omega_minus=Om,
                    Omega_plus=np.zeros((n, n)), C_minus=C,
                    C_plus=np.zeros((m, n)))


def random_slh_model(rng: np.random.Generator, n: int = 2,
                     m: int = 2) -> SlhModel:
    Om = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Op = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return SlhModel(S=rand_unitary(rng, m),
                    Omega_minus=0.5 * (Om + Om.conj().T),
                    Omega_plus=0.5 * (Op + Op.T),
                    C_minus=rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n)),
                    C_plus=0.3 * (rng.normal(size=(m, n))
                                  + 1j * rng.normal(size=(m, n))))


def random_passive_plant(rng: np.random.Generator, n: int = 2,
                         gamma: float = 1.0) -> PassivePlant:
    """Random passive two-channel plant whose shifted generator is
    nonsingular (so both Lyapunov supports are well defined)."""
    while True:
        C1 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        C2 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        plant = PassivePlant(C1, C2, np.eye(n), np.eye(n), gamma)
        lam = np.linalg.eigvalsh(plant.Ax)
        if np.min(np.abs(lam)) > 1e-3:
            return plant


def on_axis_plants():
    """Equal couplings put each shifted generator's spectrum at the origin:
    the quadrature plant with C1 = C2 and a passive one with
    C1^H C1 = C2^H C2 both have Ax = 0."""
    rng = np.random.default_rng(7)
    C = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return (build_plant(np.zeros((2, 2)), np.eye(2), np.eye(2),
                        np.eye(2), np.eye(2), 1.0),
            PassivePlant(C, C, np.eye(2), np.eye(2), 1.0))


def _realify(M: np.ndarray) -> np.ndarray:
    """Real quadrature form [[Re, -Im], [Im, Re]] of a complex matrix."""
    return np.block([[M.real, -M.imag], [M.imag, M.real]])


def _coupled_plant(rng: np.random.Generator, c1: np.ndarray, c2: np.ndarray,
                   gamma: float) -> HinfPlant:
    """Realizable quadrature plant with mode-mixing couplings of singular
    values c1 (performance) and c2 (measurement), plus a random detuning and
    a squeezing term of norm <= 0.15, so Ax is non-normal."""
    n_modes, n = len(c1), 2 * len(c1)
    m = (n_modes,) * 2
    q = rand_unitary(rng, n_modes)
    N1 = rand_unitary(rng, n_modes) @ np.diag(c1) @ q
    N2 = rand_unitary(rng, n_modes) @ np.diag(c2) @ q
    Om = rng.normal(size=m) + 1j * rng.normal(size=m)
    Om = 0.5 * (Om + Om.conj().T) / np.sqrt(n_modes)
    P = rng.normal(size=m) + 1j * rng.normal(size=m)
    P = 0.5 * (P + P.T)
    Hs = np.block([[P.real, P.imag], [P.imag, -P.real]])
    Hs *= 0.15 / max(0.15, np.linalg.norm(j_symplectic(n_modes) @ Hs, 2))
    return build_plant(_realify(Om) + Hs, _realify(N1), _realify(N2),
                       np.eye(n), np.eye(n), gamma)


def random_general_plant(rng: np.random.Generator, n_modes: int = 2,
                         side: int = 1, gamma: float = 1.5) -> HinfPlant:
    """Random realizable quadrature plant whose non-normal shifted generator
    lies in one half plane: the right one (every mode anti-stable) for
    side > 0, the left one otherwise.

    One coupling dominates on every mode: the damping part then has
    eigenvalues of one sign and modulus >= 0.255, the detuning adds only a
    skew part and the squeezing a symmetric part of norm <= 0.15, so every
    eigenvalue keeps the damping's sign and one Schur block is empty.
    """
    strong, weak = rng.uniform(1.0, 1.5, n_modes), rng.uniform(0.3, 0.7, n_modes)
    return _coupled_plant(rng, *((strong, weak) if side > 0 else (weak, strong)),
                          gamma)


def random_mixed_plant(rng: np.random.Generator, n_modes: int = 2,
                       gamma: float = 1.5) -> HinfPlant:
    """Random realizable quadrature plant whose shifted generator has
    eigenvalues in both half planes.

    Mode-mixing couplings with the performance coupling dominant on the
    first half of the modes (rounded up) and the measurement coupling on the
    rest (see _coupled_plant), so Ax is non-normal and its Schur coupling
    block A12 is nonzero.  Draws whose detuning moves every eigenvalue to
    one side, or within 0.05 of the imaginary axis, are redrawn.  One mode
    cannot have eigenvalues in both half planes, so n_modes < 2 is refused.
    """
    if n_modes < 2:
        raise ValueError(f"a mixed spectrum needs at least 2 modes, got {n_modes}")
    k = (n_modes + 1) // 2
    while True:
        c1 = np.r_[rng.uniform(1.0, 1.5, k), rng.uniform(0.3, 0.7, n_modes - k)]
        c2 = np.r_[rng.uniform(0.3, 0.7, k), rng.uniform(1.0, 1.5, n_modes - k)]
        plant = _coupled_plant(rng, c1, c2, gamma)
        re = np.linalg.eigvals(plant.Ax).real
        if re.min() < -0.05 and re.max() > 0.05 and np.abs(re).min() > 0.05:
            return plant
