"""Tests of the benchmark's checker, its op checks and its tracer.

    python3 -m pytest perfbench

Known answers come from closed forms; the negative tests show that each
check flags a wrong answer.
"""

import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checker  # noqa: E402
import ensembles  # noqa: E402
import workloads  # noqa: E402
from workloads import Mismatch  # noqa: E402

K1, K2 = 1.0, 4.0   # cavity: gamma* = 1/2


def cavity():
    return checker.passive_plant([[np.sqrt(K2)]], [[np.sqrt(K1)]])


def test_cavity_threshold_closed_form():
    star = checker.cavity_gamma_star(K1, K2)
    assert star == 0.5
    p = cavity()
    assert checker.certifiable(p, star * (1 + 1e-6))
    assert not checker.certifiable(p, star * (1 - 1e-6))
    assert abs(checker.threshold(p) - star) <= 1e-2 * star


@pytest.mark.parametrize("gamma", [0.6, 1.0, 3.0])
def test_cavity_x_closed_form(gamma):
    d = checker.design(cavity(), gamma)
    assert d.certified
    assert abs(d.X[0, 0] - checker.cavity_x(K1, K2, gamma)) <= 1e-12


@pytest.mark.parametrize("a", [0.1, 1.0, 25.0])
def test_siso_lag_norm_is_one(a):
    A, B, C = np.array([[-a]]), np.array([[a]]), np.array([[1.0]])
    assert abs(checker.hinf_norm(A, B, C) - 1.0) <= 1e-8
    assert checker.norm_below(A, B, C, 1.001)
    assert not checker.norm_below(A, B, C, 0.999)
    assert checker.hinf_consistent(A, B, C, 1.0)
    assert not checker.hinf_consistent(A, B, C, 0.9999)   # under-report
    assert not checker.hinf_consistent(A, B, C, 1.0001)   # over-report


def test_lyapunov_scalar_and_residual():
    assert abs(checker.lyapunov(np.array([[-2.0]]), np.array([[3.0]]))[0, 0]
               - 0.75) <= 1e-15
    rng = np.random.default_rng(0)
    A = rng.normal(size=(6, 6)) - 4 * np.eye(6)
    G = rng.normal(size=(6, 2))
    P = checker.lyapunov(A, G @ G.T)
    assert np.linalg.norm(A @ P + P @ A.T + G @ G.T) <= 1e-12


def test_riccati_scalar_and_stabilizing():
    X = checker.stabilizing_riccati(np.array([[1.0]]), np.array([[-1.0]]))
    assert abs(X[0, 0] - 2.0) <= 1e-14           # 2x - x^2 = 0, 1 - x < 0
    A = np.array([[0.0, 1.0], [0.0, 0.0]])         # double integrator
    assert checker.stabilizing_riccati(A, np.zeros((2, 2))) is None


def test_pr_residual_zero_for_realizable_and_not_otherwise():
    rng = np.random.default_rng(1)
    p = cavity()
    B = rng.normal(size=(1, 1)) + 1j * rng.normal(size=(1, 1))
    C = rng.normal(size=(1, 1)) + 1j * rng.normal(size=(1, 1))
    AK = 0.7j - 0.5 * (B @ B.conj().T + C.conj().T @ C)
    assert checker.pr_residual(p, AK, B, C) <= 1e-15
    assert checker.pr_residual(p, AK + 0.1, B, C) > 1e-2


def _dpa_spec(gamma=1.4):
    data = {"kappa_w": 2.0, "kappa_u": 2.5, "epsilon": 1.0}
    plant = ensembles._checker_plant("dpa", data)
    spec = ensembles.Spec("dpa", 1, gamma, data, plant,
                          checker.threshold(plant))
    return spec.at(gamma)


def test_central_controller_meets_gamma():
    spec = _dpa_spec()
    assert spec.truth.certified
    AK, BK, CK = checker.central_controller(spec.plant, spec.truth)
    workloads.check_controller(spec, AK, BK, CK, spec.gamma)


def test_flags_perturbed_controller():
    spec = _dpa_spec()
    AK, BK, CK = checker.central_controller(spec.plant, spec.truth)
    A, B, C = checker.closed_loop(spec.plant, AK, BK, CK)
    norm = checker.hinf_norm(A, B, C)
    with pytest.raises(Mismatch, match="norm >= gamma"):
        workloads.check_controller(spec, AK, BK, CK, 0.9 * norm)
    with pytest.raises(Mismatch):
        workloads.check_controller(spec, AK, 3.0 * BK, CK, spec.gamma)
    with pytest.raises(Mismatch, match="is off"):
        workloads.check_controller(spec, AK, BK, CK, spec.gamma,
                                   hinf=norm * (1 - 1e-4))


def _result(spec, certified, failure=""):
    return SimpleNamespace(certified=certified, failure=failure, schur=None,
                           X=spec.truth.X, Y=spec.truth.Y, controller=None)


def test_flags_flipped_certificate():
    spec = _dpa_spec()
    with pytest.raises(Mismatch, match="certified=False"):
        workloads.check_synthesis(spec, _result(spec, False, "made up"))
    refused = _dpa_spec(gamma=0.8 * spec.threshold)
    assert not refused.truth.certified
    with pytest.raises(Mismatch, match="certified=True"):
        workloads.check_synthesis(refused, _result(refused, True))


def test_known_fault_only_on_mixed_plants():
    mixed = ensembles.mixed_plants()[0]
    res = _result(mixed, False, workloads.KNOWN_FAULT)
    assert workloads.check_synthesis(mixed, res) is False
    spec = _dpa_spec()
    with pytest.raises(Mismatch):
        workloads.check_synthesis(spec, _result(spec, False,
                                                workloads.KNOWN_FAULT))


def test_flags_wrong_threshold():
    data = {"kappa1": K1, "kappa2": K2}
    spec = ensembles.Spec("cavity", 1, 1.0, data, cavity(), 0.5)
    workloads.check_threshold(spec, 0.5)
    with pytest.raises(Mismatch):
        workloads.check_threshold(spec, 0.45)
    with pytest.raises(Mismatch, match="closed form"):
        workloads.check_threshold(spec, 0.5 * (1 + 1e-5))


@pytest.mark.parametrize("side", [1, -1])
def test_general_family_is_one_sided_and_non_normal(side):
    for slot in range(4):
        data = ensembles.general_data(np.random.default_rng(slot), 3, side)
        p = ensembles._checker_plant("general", data)
        Ax = p.A - p.B2 @ p.D12.T @ p.C1
        lam = np.linalg.eigvals(Ax)
        assert np.all(side * lam.real > 0)
        assert np.linalg.norm(Ax @ Ax.T - Ax.T @ Ax) > 1e-3


def test_tracer_patches_imports_by_name(monkeypatch):
    qhinf = pytest.importorskip("qhinf")
    import qhinf.cli
    import tracer
    monkeypatch.setattr(tracer, "NAMES", tracer.NAMES + ["synth.gone"])
    original = qhinf.verify.close_loop
    t = tracer.Tracer()
    t.install()
    try:
        assert qhinf.report.close_loop is qhinf.verify.close_loop
        assert qhinf.cli.close_loop is not original
        plant = qhinf.devices.build_dpa(qhinf.devices.DpaSpec(2.0, 2.5, 1.0, 1.4))
        qhinf.synthesize(plant)
    finally:
        t.remove()
    assert qhinf.verify.close_loop is original
    assert t.absent == ["synth.gone"]
    s = t.summary()
    assert s["calls"]["synth.synthesize"] == 1
    assert s["calls"]["plant.compute_ax_ay"] == 3
    assert s["calls"]["linalg.solve_lyapunov"] == 4
    total = sum(t1 - t0 for _, t0, t1, parent, _ in t.spans if parent < 0)
    assert sum(s["self_s"].values()) == pytest.approx(total)
