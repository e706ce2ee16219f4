import copy
import dataclasses
import re

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (count_calls, on_axis_plants, random_general_plant,
                      random_mixed_plant, random_passive_plant,
                      random_sym_plant)
import qhinf
from qhinf import linalg, synth
from qhinf.cli import PROFILES
from qhinf.devices import (CavitySpec, DpaSpec, build_cavity, build_dpa,
                           cavity_reference, dpa_case2_rho_gamma)
from qhinf.errors import AssumptionError, OracleError, SynthesisError
from qhinf.linalg import is_hurwitz
from qhinf.passive import PassivePlant, build_passive_plant
from qhinf.plant import HinfPlant, build_plant
from qhinf.qls import j_symplectic, sharp_adjoint
from qhinf.synth import (PREDICTION_BAND, gamma_threshold, min_certified_gamma,
                         positivity, prepare, solve_quad, synthesize,
                         synthesize_at, threshold, verdict)
from qhinf.verify import are_oracle, attenuation_certificate, close_loop


class TestLyapunovQuadruple:
    def test_equations_satisfied(self, rng):
        plant = random_sym_plant(rng)
        split = plant.split()
        quad = solve_quad(plant, split)
        B1x = split.W @ plant.B1
        B2x = split.W @ plant.B2
        sd = split.n_stable
        A1, A3 = split.A11, split.A22
        assert np.allclose(-A3 @ quad.S - quad.S @ A3.T
                           + B2x[sd:] @ B2x[sd:].T, 0, atol=1e-10)
        assert np.allclose(-A3 @ quad.T - quad.T @ A3.T
                           + B1x[sd:] @ B1x[sd:].T, 0, atol=1e-10)
        assert np.allclose(A1 @ quad.U + quad.U @ A1.T
                           + B1x[:sd] @ B1x[:sd].T, 0, atol=1e-10)
        assert np.allclose(A1 @ quad.V + quad.V @ A1.T
                           + B2x[:sd] @ B2x[:sd].T, 0, atol=1e-10)


def _prepared_plants():
    """One plant of each kind, with targets on both sides of its gamma*
    (mixed plants, which min_certified_gamma refuses, at fixed targets)."""
    rng = np.random.default_rng(31)
    for plant in (random_sym_plant(rng, 2), random_sym_plant(rng, 3),
                  random_general_plant(rng, 2, 1),
                  random_general_plant(rng, 3, -1),
                  build_dpa(DpaSpec(1.0, 4.0, 1.0)),
                  build_dpa(DpaSpec(2.0, 2.5, 1.0))):
        g = min_certified_gamma(plant, 0.05, 50.0, tol=1e-10)
        yield plant, [0.5 * g, g * (1 - 1e-6), g * (1 + 1e-6), 1.5 * g]
    for plant in (random_mixed_plant(rng, 2), random_mixed_plant(rng, 3)):
        yield plant, [0.5, 1.5, 5.0]
    for plant in (random_passive_plant(rng, 2), random_passive_plant(rng, 4),
                  build_cavity(CavitySpec(1.0, 4.0))):
        g = threshold(plant).gamma_star
        yield plant, [0.5 * g, g * (1 - 1e-6), g * (1 + 1e-6), 1.5 * g]


def _same_result(got, want):
    assert (got.gamma, got.certified, got.regime, got.failure) == (
        want.gamma, want.certified, want.regime, want.failure)
    assert got.rho_xy == want.rho_xy
    assert got.sigma_condition == want.sigma_condition
    for name in ("X", "Y", "Z"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None and b is None) or np.array_equal(a, b)
    for name in ("S", "T", "U", "V", "SmTg", "UmVg"):
        assert np.array_equal(getattr(got.quad, name), getattr(want.quad, name))
    assert (got.controller is None) == (want.controller is None)
    if got.controller is not None:
        for name in ("AK", "BK", "CK", "BKtilde", "CKtilde", "pr_residual",
                     "needs_augmentation"):
            assert np.array_equal(getattr(got.controller, name),
                                  getattr(want.controller, name))
    assert list(got.diagnostics) == list(want.diagnostics)
    assert got.diagnostics == want.diagnostics


class TestPrepared:
    def test_one_preparation_serves_every_gamma(self):
        # the split and the four solves are made once and reused at every
        # target; each result equals a synthesis from scratch, bit for bit,
        # on both sides of gamma*
        checked = set()
        for plant, gammas in _prepared_plants():
            prep = prepare(plant)
            for g in gammas:
                _same_result(synthesize_at(prep, g),
                             synthesize(plant.with_gamma(g)))
                checked.add(synthesize_at(prep, g).certified)
        assert checked == {True, False}

    def test_bisection_matches_reference(self):
        # min_certified_gamma decides each step on its one preparation; a
        # bisection over full syntheses must land on the same double
        def reference(plant, lo, hi, tol):
            def ok(g):
                try:
                    return synthesize(plant.with_gamma(g)).certified
                except (AssumptionError, SynthesisError):
                    return False

            if not ok(hi):
                return "upper bracket"
            if ok(lo):
                return lo
            for _ in range(60):
                if hi - lo <= tol * max(1.0, hi):
                    break
                mid = 0.5 * (lo + hi)
                lo, hi = (lo, mid) if ok(mid) else (mid, hi)
            return hi

        refused = 0

        def check(plant, lo, hi, tol):
            nonlocal refused
            want = reference(plant, lo, hi, tol)
            if want == "upper bracket":
                refused += 1
                with pytest.raises(SynthesisError, match="upper bracket"):
                    min_certified_gamma(plant, lo, hi, tol)
            else:
                assert min_certified_gamma(plant, lo, hi, tol) == want
            return want

        for plant in [p for p, _ in _prepared_plants()] + list(on_axis_plants()):
            wide = [check(plant, lo, hi, tol) for lo, hi, tol in (
                (0.05, 50.0, 1e-6), (0.05, 50.0, 1e-13), (0.3, 0.31, 1e-10))]
            try:
                g = gamma_threshold(prepare(plant))
            except AssumptionError:
                continue
            # brackets wholly above or below gamma* reach the bracket
            # checks: above it lo certifies (a mixed-spectrum plant
            # certifies at no target), below it hi refuses
            for tol in (1e-6, 1e-13):
                assert check(plant, 2 * g, 3 * g, tol) == (
                    "upper bracket" if wide[0] == "upper bracket" else 2 * g)
                assert check(plant, g / 3, g / 2, tol) == "upper bracket"
        assert refused


def _separate_builds(rng):
    """One plant of each constructor, and a function that builds the same
    physics afresh at a given gamma."""
    sym = random_sym_plant(rng, 3)
    gen = random_general_plant(rng, 2, -1)
    pas = random_passive_plant(rng, 3)
    yield sym, lambda g: build_plant(sym.Hmat, sym.C1, sym.C2, sym.D12,
                                     sym.D21, g)
    yield gen, lambda g: build_plant(gen.Hmat, gen.C1, gen.C2, gen.D12,
                                     gen.D21, g)
    yield pas, lambda g: build_passive_plant(pas.C1, pas.C2, gamma=g)
    yield build_cavity(CavitySpec(1.0, 4.0)), \
        lambda g: build_cavity(CavitySpec(1.0, 4.0, g))
    yield build_dpa(DpaSpec(2.0, 2.5, 1.0)), \
        lambda g: build_dpa(DpaSpec(2.0, 2.5, 1.0, g))


class TestPrepareReuse:
    def test_gamma_grid_splits_once(self, monkeypatch):
        # a grid of plants built separately at each gamma, or through
        # with_gamma, is split and solved once, and every result equals a
        # fresh synthesis field for field
        gammas = np.linspace(0.3, 3.0, 10)
        splits = count_calls(monkeypatch, "split", HinfPlant, PassivePlant)
        for plant, build in _separate_builds(np.random.default_rng(51)):
            fresh = []
            for g in gammas:
                monkeypatch.setattr(synth, "_last", (None, None))
                fresh.append(synthesize(build(g)))
            for grid in ([build(g) for g in gammas],
                         [plant.with_gamma(g) for g in gammas]):
                monkeypatch.setattr(synth, "_last", (None, None))
                splits.clear()
                for at, want in zip(grid, fresh):
                    _same_result(synthesize(at), want)
                assert len(splits) == 1

    def test_other_physics_is_prepared_again(self, monkeypatch):
        C1 = np.kron(np.eye(2), np.diag([1.5, 0.5]))
        C2 = np.kron(np.eye(2), np.diag([0.5, 1.5]))
        plant = build_plant(np.zeros((4, 4)), C1, C2, np.eye(4), np.eye(4), 1.0)
        assert plant.Ax[0, 1] == 0.0
        strict = build_plant(np.zeros((4, 4)), C1, C2, np.eye(4), np.eye(4),
                             1.0, opts=PROFILES["strict"])
        relabeled = copy.copy(plant)
        relabeled.__class__ = type("Relabeled", (HinfPlant,), {})
        nudged, signed = copy.copy(plant), copy.copy(plant)
        nudged.Ax, signed.Ax = plant.Ax.copy(), plant.Ax.copy()
        nudged.Ax[0, 0] = np.nextafter(nudged.Ax[0, 0], 0.0)
        signed.Ax[0, 1] = -0.0
        solves = count_calls(monkeypatch, "solve_quad", synth)
        for other in (strict, relabeled, nudged, signed):
            prepare(plant)
            solves.clear()
            prepare(other)
            assert len(solves) == 1
            prepare(other)
            assert len(solves) == 1

    def test_refused_plant_raises_every_call(self, monkeypatch):
        kept = prepare(random_sym_plant(np.random.default_rng(52), 2))
        splits = count_calls(monkeypatch, "split", HinfPlant, PassivePlant)
        for plant in on_axis_plants():
            splits.clear()
            for _ in range(3):
                with pytest.raises(AssumptionError):
                    synthesize(plant)
            assert len(splits) == 3
        # the refusals left the last good entry in place
        assert synth._last[1].split is kept.split

    def test_shared_arrays_are_read_only(self):
        plant = random_sym_plant(np.random.default_rng(53), 2, gamma=5.0)
        res = synthesize(plant)
        assert res.certified
        for M in (res.quad.S, res.quad.T, res.quad.U, res.quad.V, res.schur.W,
                  res.schur.A11, res.schur.A12, res.schur.A22, res.Z):
            with pytest.raises(ValueError, match="read-only"):
                M[0, 0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            res.schur.W = np.eye(4)
        again = synthesize(plant.with_gamma(4.0))
        assert again.schur is res.schur and again.quad.S is res.quad.S
        passive = synthesize(random_passive_plant(
            np.random.default_rng(53), 2))
        with pytest.raises(ValueError, match="read-only"):
            passive.quad.S[0, 0] = 1.0


class TestOneSided:
    """A one-sided split has X = 0 (no anti-stable block) or Y = 0 (no
    stable block) exactly: rho(XY) is 0 and that side's loop matrix is Ax
    or Ay at every gamma."""

    def test_shortcut_matches_direct_computation(self):
        rng = np.random.default_rng(54)
        for n_modes, side in ((1, 1), (2, 1), (3, 1), (1, -1), (2, -1), (3, -1)):
            plant = random_general_plant(rng, n_modes, side)
            g = min_certified_gamma(plant, 0.1, 10.0, tol=1e-12)
            prep = prepare(plant)
            assert (prep.split.n_stable == 0) == (side > 0)
            for at in [g * (1 + 10.0 ** -k) for k in (10, 11, 12, 13)] + [2 * g]:
                v = verdict(prep, at)
                assert v.rho_xy == 0.0
                M, N = v.weights
                assert v.gates["loop_x_hurwitz"] == is_hurwitz(plant.Ax + M @ v.X)
                assert v.gates["loop_y_hurwitz"] == is_hurwitz(plant.Ay + v.Y @ N)
                if v.IYX is not None:
                    assert np.array_equal(v.IYX, np.eye(len(v.X)))

    def test_empty_side_gate_decided_once(self, monkeypatch):
        rng = np.random.default_rng(55)
        calls = count_calls(monkeypatch, "is_hurwitz", linalg)
        for side in (1, -1):
            plant = random_general_plant(rng, 2, side)
            g = min_certified_gamma(plant, 0.1, 10.0)
            monkeypatch.setattr(synth, "_last", (None, None))
            calls.clear()
            for at in np.linspace(1.1, 3.0, 10) * g:
                assert synthesize(plant.with_gamma(at)).certified
            # the other side's loop matrix changes with gamma: ten calls
            empty = plant.Ay if side > 0 else plant.Ax
            assert sum(np.array_equal(A, empty) for A, in calls) == 1
            assert len(calls) == 11


def _plain_bisection(plant, lo, hi, tol):
    """Bisection over full syntheses, a verdict at every step."""
    def ok(g):
        try:
            return synthesize(plant.with_gamma(g)).certified
        except (AssumptionError, SynthesisError):
            return False

    assert ok(hi) and not ok(lo)
    for _ in range(60):
        if hi - lo <= tol * max(1.0, hi):
            break
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if ok(mid) else (mid, hi)
    return hi


def _dpa_plants(rng, n):
    """n case-1 and n case-2 parametric amplifiers."""
    for lo, hi in ((1.3, 2.0), (0.2, 0.7)) * n:
        kw, eps = rng.uniform(0.5, 1.5, 2)
        yield build_dpa(DpaSpec(kw, kw + eps * rng.uniform(lo, hi), eps))


class TestGammaThreshold:
    def test_prediction_matches_tight_bisection(self):
        # one eigenvalue solve gives the boundary a tol-1e-13 bisection finds
        rng = np.random.default_rng(41)
        plants = ([random_sym_plant(rng, n) for n in (1, 2, 3, 4, 6)]
                  + list(_dpa_plants(rng, 3)))
        for plant in plants:
            want = min_certified_gamma(plant, 0.05, 50.0, tol=1e-13)
            got = gamma_threshold(prepare(plant))
            assert abs(got - want) <= 1e-9 * want
        # one-sided general plants: positivity refuses up to the prediction,
        # to 1e-9; the loop Hurwitz gates then refuse in windows just above
        # it, so the certified boundary lies above it, inside the band
        for n, side in ((1, 1), (2, 1), (4, 1), (1, -1), (3, -1), (5, -1)):
            plant = random_general_plant(rng, n, side)
            prep = prepare(plant)
            got = gamma_threshold(prep)
            below = verdict(prep, got * (1 - 1e-9)).why
            above = verdict(prep, got * (1 + 1e-9)).why
            assert below and "not positive definite" in below[0]
            assert not any("definite" in w or "rho" in w for w in above)
            want = min_certified_gamma(plant, 0.05, 50.0, tol=1e-13)
            assert -1e-9 * want <= want - got <= PREDICTION_BAND * got
        # a plant with an eigenvalue on the axis has no split, so no
        # prediction, and certifies at no gamma
        for plant in on_axis_plants():
            with pytest.raises(AssumptionError):
                prepare(plant)
            with pytest.raises(SynthesisError, match="upper bracket"):
                min_certified_gamma(plant, 0.05, 50.0, tol=1e-13)

    def test_passive_threshold_is_the_uncoupled_case(self):
        # F = 0 for the passive adjoint: L(nu) splits into the pencils
        # (T, S) and (V, U), and the block whose pencil reaches higher binds
        def two_pencils(prep):
            tops = [float(sla.eigvalsh(num, den)[-1]) if den.size else 0.0
                    for num, den in ((prep.T, prep.S), (prep.V, prep.U))]
            return (np.sqrt(max(max(tops), 0.0)),
                    "performance" if tops[0] >= tops[1] else "measurement")

        rng = np.random.default_rng(42)
        bindings = set()
        for n in (1, 2, 3, 4, 6, 2, 3, 4):
            plant = random_passive_plant(rng, n)
            want, binding = two_pencils(prepare(plant))
            thr = threshold(plant)
            assert thr.gamma_star == pytest.approx(want, rel=1e-12)
            assert gamma_threshold(prepare(plant)) == thr.gamma_star
            assert thr.binding == binding
            bindings.add(binding)
        assert bindings == {"performance", "measurement"}
        # the cavity's closed form
        for k1, k2 in ((1.0, 4.0), (0.3, 0.5), (2.0, 2.5)):
            spec = CavitySpec(k1, k2)
            got = gamma_threshold(prepare(build_cavity(spec)))
            assert got == pytest.approx(cavity_reference(spec)["gamma_star"],
                                        rel=1e-12)

    def test_unforced_pair_has_no_prediction(self):
        prep = prepare(random_sym_plant(np.random.default_rng(43), 2))
        assert gamma_threshold(prep) is not None
        for name in ("S", "U"):
            M = getattr(prep, name)
            M = M - np.linalg.eigvalsh(M)[0] * np.eye(len(M))   # singular
            assert gamma_threshold(dataclasses.replace(prep, **{name: M})) is None

    def test_wrong_prediction_falls_back(self, monkeypatch):
        # the end checks catch a wrong or missing prediction, and the plain
        # bisection then runs: the same double either way
        rng = np.random.default_rng(44)
        true_threshold = synth.gamma_threshold
        for plant in (random_sym_plant(rng, 3), random_general_plant(rng, 2, -1),
                      next(_dpa_plants(rng, 1))):
            g_star = true_threshold(prepare(plant))
            for tol in (1e-6, 1e-10):
                want = _plain_bisection(plant, 0.05, 50.0, tol)
                for wrong in (0.5 * g_star, 100.0, None):
                    monkeypatch.setattr(synth, "gamma_threshold",
                                        lambda prep, wrong=wrong: wrong)
                    assert min_certified_gamma(plant, 0.05, 50.0, tol) == want
                monkeypatch.setattr(synth, "gamma_threshold", true_threshold)
                assert min_certified_gamma(plant, 0.05, 50.0, tol) == want

    def test_few_verdicts_per_bisection(self, monkeypatch):
        # at tol 1e-6 the prediction decides all but the two end checks and
        # a rare midpoint inside the band; with gamma* inside the bracket
        # its ends get no verdict
        calls = []

        def counting(prep, g):
            calls.append(g)
            return verdict(prep, g)

        rng = np.random.default_rng(45)
        plants = [random_sym_plant(rng, n) for n in (2, 3, 5, 8)]
        wants = [_plain_bisection(p, 0.1, 10.0, 1e-6) for p in plants]
        monkeypatch.setattr(synth, "verdict", counting)
        for plant, want in zip(plants, wants):
            assert 0.1 < gamma_threshold(prepare(plant)) < 10.0
            calls.clear()
            assert min_certified_gamma(plant, 0.1, 10.0) == want
            assert len(calls) <= 3
            assert 0.1 not in calls and 10.0 not in calls

    def test_hermitian_linearization_matches_companion(self):
        # on coupled splits the top eigenvalue of the Hermitian H is the
        # largest root the companion linearization gives; the one-mode sym
        # plant and the case-1 amplifiers have an empty block and take the
        # pencil, whose root the companion gives as well
        rng = np.random.default_rng(46)
        plants = ([random_sym_plant(rng, n) for n in (1, 2, 3, 5, 8)]
                  + [random_mixed_plant(rng, n) for n in (2, 3, 4)]
                  + list(_dpa_plants(rng, 2)))
        preps = [prepare(p) for p in plants]
        coupled = [not synth.uncoupled(p.plant, p.split) for p in preps]
        assert coupled == [False] + [True] * 7 + [False, True] * 2
        # a singular T on a coupled split: the square root meets zero
        # eigenvalues
        for prep in preps[1], preps[5], preps[-1]:
            T0, t = prep.T, prep.T[:, :1]
            for T in (T0 - np.linalg.eigvalsh(T0)[0] * np.eye(len(T0)),
                      t @ t.conj().T):
                preps.append(dataclasses.replace(prep, T=T))
        for prep in preps:
            want = _companion_gamma_star(prep)
            assert want > 0
            assert gamma_threshold(prep) == pytest.approx(want, rel=1e-12)

    def test_uncoupled_pencil_is_unchanged(self):
        # one-sided and passive plants keep eigvalsh of the pencil
        # (diag(T, V), diag(S, U)), bit for bit
        rng = np.random.default_rng(47)
        plants = ([random_general_plant(rng, n, side)
                   for n in (1, 2, 4) for side in (1, -1)]
                  + [random_passive_plant(rng, n) for n in (1, 2, 3, 5)]
                  + [build_cavity(CavitySpec(1.0, 4.0))])
        for plant in plants:
            prep = prepare(plant)
            assert synth.uncoupled(plant, prep.split)
            top = sla.eigvalsh(sla.block_diag(prep.T, prep.V),
                               sla.block_diag(prep.S, prep.U))[-1]
            assert gamma_threshold(prep) == float(np.sqrt(max(top, 0.0)))


def _companion_gamma_star(prep):
    """gamma* from the 2n x 2n companion linearization [[0, I], [-K2, -K1]]
    of mu^2 I + mu K1 + K2 (see gamma_threshold): the largest real part of
    its eigenvalues, 0 when none is positive.  On an uncoupled split F = 0
    and this is the pencil's root."""
    L0 = sla.block_diag(prep.S, prep.U)
    L2 = sla.block_diag(prep.T, prep.V)
    na = prep.split.n_anti
    L1 = np.zeros_like(L0)
    L1[:na, na:] = synth.coupling(prep)
    L1[na:, :na] = L1[:na, na:].T
    n = L0.shape[0]
    Rinv = sla.solve_triangular(np.linalg.cholesky(L0), np.eye(n), lower=True)
    K1 = Rinv @ L1 @ Rinv.conj().T
    K2 = -Rinv @ L2 @ Rinv.conj().T
    companion = np.block([[np.zeros((n, n)), np.eye(n)], [-K2, -K1]])
    return float(np.max(np.linalg.eigvals(companion).real, initial=0.0))


def _block_rule(plant):
    """The passive-only threshold rule: gamma_threshold, and the block with
    the smaller lambda_min at gamma* binds."""
    prep = prepare(plant)
    g = gamma_threshold(prep)
    quad = prep.at(g)[1]
    lam_x, lam_y = positivity(quad.SmTg, quad.UmVg, plant.opts)[1]
    return g, "measurement" if lam_y < lam_x else "performance"


def _null_vector_binding(plant):
    """The binding read from the unit null vector v = (v1, v2) of
    L(nu*) = [[S - nu^2 T, nu F], [nu F^H, U - nu^2 V]]: "measurement" when
    v1 vanishes, "performance" when v2 does, "coupling" otherwise."""
    prep = prepare(plant)
    nu, na = 1.0 / gamma_threshold(prep), prep.split.n_anti
    F = (np.zeros((na, prep.split.n_stable))
         if synth.uncoupled(plant, prep.split) else synth.coupling(prep))
    L = np.block([[prep.S - nu**2 * prep.T, nu * F],
                  [nu * F.conj().T, prep.U - nu**2 * prep.V]])
    v = np.linalg.eigh(L)[1][:, 0]
    if np.linalg.norm(v[:na]) <= 1e-9:
        return "measurement"
    return "performance" if np.linalg.norm(v[na:]) <= 1e-9 else "coupling"


class TestThreshold:
    def test_passive_keeps_the_block_rule(self):
        rng = np.random.default_rng(3)
        plants = [random_passive_plant(rng, int(rng.integers(1, 7)))
                  for _ in range(40)]
        rng = np.random.default_rng(8)
        plants += [build_cavity(CavitySpec(*map(float, np.sort(
            rng.uniform(0.1, 5.0, 2))))) for _ in range(10)]
        bindings = set()
        for plant in plants:
            thr = threshold(plant)
            assert (thr.gamma_star, thr.binding) == _block_rule(plant)
            bindings.add(thr.binding)
        assert bindings == {"performance", "measurement"}

    def test_binding_matches_null_vector(self):
        rng = np.random.default_rng(3)
        plants = [random_sym_plant(rng, int(rng.integers(1, 13)))
                  for _ in range(30)]
        plants += [random_general_plant(rng, int(rng.integers(1, 6)), side)
                   for side in (1, -1) for _ in range(15)]
        plants += list(_dpa_plants(rng, 3))
        bindings = set()
        for plant in plants:
            thr = threshold(plant)
            assert thr.gamma_star == gamma_threshold(prepare(plant))
            assert thr.binding == _null_vector_binding(plant)
            bindings.add(thr.binding)
        assert bindings == {"performance", "measurement", "coupling"}

    def test_dpa_case2_is_bound_by_the_coupling(self):
        for spec in (DpaSpec(2.0, 2.5, 1.0), DpaSpec(1.0, 1.5, 1.0),
                     DpaSpec(1.5, 2.0, 1.2)):
            assert spec.case == "case2"
            thr = threshold(build_dpa(spec))
            assert thr.binding == "coupling"
            assert thr.gamma_star == pytest.approx(dpa_case2_rho_gamma(spec),
                                                   rel=1e-12)
        for spec in (DpaSpec(1.0, 4.0, 1.0), DpaSpec(0.5, 3.0, 1.0)):
            assert spec.case == "case1"
            assert threshold(build_dpa(spec)).binding == "performance"

    def test_edge_cases(self, monkeypatch):
        # disjoint couplings: B1 vanishes on the anti-stable mode and B2 on
        # the stable one, so T = V = 0 and no gamma binds
        plant = build_passive_plant([[1.0, 0.0]], [[0.0, 1.5]])
        thr = threshold(plant)
        assert (thr.gamma_star, thr.binding, float(thr)) == (
            0.0, "performance", 0.0)
        # a singular S leaves its pair unforced: no threshold
        prep = prepare(random_sym_plant(np.random.default_rng(43), 2))
        S = prep.S - np.linalg.eigvalsh(prep.S)[0] * np.eye(len(prep.S))
        monkeypatch.setattr(synth, "prepare",
                            lambda p: dataclasses.replace(prep, S=S))
        with pytest.raises(SynthesisError, match="threshold undefined"):
            threshold(prep.plant)

    def test_benchmark_names_are_the_synth_objects(self):
        assert qhinf.passive_gamma_threshold is synth.threshold
        assert qhinf.synthesize_passive is synth.synthesize


class TestAssembly:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_candidates_solve_riccati(self, seed):
        rng = np.random.default_rng(seed)
        plant = random_sym_plant(rng, gamma=2.0)
        res = synthesize(plant)
        if not res.certified:
            return
        g2 = plant.gamma ** 2
        M = plant.B1 @ plant.B1.T / g2 - plant.B2 @ plant.B2.T
        N = plant.C1.T @ plant.C1 - g2 * plant.C2.T @ plant.C2
        rx = plant.Ax.T @ res.X + res.X @ plant.Ax + res.X @ M @ res.X
        ry = plant.Ay @ res.Y + res.Y @ plant.Ay.T + res.Y @ N @ res.Y
        assert np.linalg.norm(rx) < 1e-8 * (1 + np.linalg.norm(res.X))
        assert np.linalg.norm(ry) < 1e-8 * (1 + np.linalg.norm(res.Y))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_z_orthogonal_skew_hamiltonian(self, seed):
        rng = np.random.default_rng(seed)
        plant = random_sym_plant(rng)
        res = synthesize(plant)
        if res.Z is None:
            return
        n = res.Z.shape[0]
        J = j_symplectic(n // 2)
        assert np.allclose(res.Z @ res.Z.T, np.eye(n), atol=1e-10)
        assert np.allclose(J @ res.Z @ J.T, res.Z.T, atol=1e-10)


class TestRhoXY:
    def test_sym_plants_report_no_rounding_noise(self):
        # a sym plant's stable subspace is JJ-invariant, so the coupling
        # block F vanishes and rho(XY) = 0 in exact arithmetic; eigvals of
        # the 2n x 2n product X Y reported rounding noise of up to 7.3e-11
        # on these draws at gamma*(1 + 1e-6), the anti-stable block form
        # about eps^2
        rng = np.random.default_rng(11)
        for _ in range(20):
            prep = prepare(random_sym_plant(rng, int(rng.integers(1, 41))))
            v = verdict(prep, gamma_threshold(prep) * (1 + 1e-6))
            assert v.X is not None and v.rho_xy <= 1e-15

    def test_anti_stable_block_matches_the_full_product(self):
        # the nonzero spectrum of X Y is that of Xs F Yu F^T / gamma^2
        rng = np.random.default_rng(13)
        plants = [random_mixed_plant(rng, int(rng.integers(2, 5)))
                  for _ in range(10)]
        plants += [build_dpa(DpaSpec(2.0, 2.5, 1.0)),
                   build_dpa(DpaSpec(1.0, 1.5, 1.0))]
        for plant in plants:
            prep = prepare(plant)
            v = verdict(prep, 1.3 * gamma_threshold(prep))
            want = linalg.spectral_radius(v.X @ v.Y)
            assert want > 1e-6
            assert abs(v.rho_xy - want) <= 1e-10 * want


def _hermitian_split_plants():
    """Sym plants of 1-8 modes and DPA case-1 and case-2 plants: coupled
    Hermitian splits, 14 of the 20 two-sided (the case-1 DPAs and some sym
    draws of 1-3 modes are one-sided)."""
    rng = np.random.default_rng(25)
    return ([random_sym_plant(rng, n) for n in (1, 2, 3, 4, 5, 6, 7, 8) * 2]
            + list(_dpa_plants(rng, 2)))


def _gate_targets(g_star):
    """Targets from just above gamma* to far above it."""
    return [g_star * (1 + 10.0 ** -k) for k in range(3, 14)] + [
        1.5 * g_star, 3 * g_star]


class TestBlockLoopGates:
    """On a coupled two-sided split with A12 = 0 certify runs each loop gate
    on its own block of the split's basis; every other split keeps the
    full-space gates."""

    def test_gates_match_full_loop_matrices(self, monkeypatch):
        calls = count_calls(monkeypatch, "is_hurwitz", linalg)
        two_sided = gated = 0
        for plant in _hermitian_split_plants():
            prep = prepare(plant)
            split = prep.split
            two_sided += bool(split.n_stable and split.n_anti)
            n = len(plant.Ax)
            for at in _gate_targets(gamma_threshold(prep)):
                calls.clear()
                v = verdict(prep, at)
                if v.X is None:
                    continue
                gated += 1
                M, N = v.weights
                assert v.gates["loop_x_hurwitz"] == is_hurwitz(plant.Ax + M @ v.X)
                assert v.gates["loop_y_hurwitz"] == is_hurwitz(plant.Ay + v.Y @ N)
                shapes = [A.shape for A, in calls]
                if split.n_stable and split.n_anti:
                    assert shapes == [(split.n_anti,) * 2, (split.n_stable,) * 2]
                else:
                    # one-sided: the gates run in the full space
                    assert shapes and set(shapes) == {(n, n)}
        assert two_sided >= 10 and gated >= 200

    def test_passive_plants_keep_full_space_gates(self):
        # a passive split is Hermitian with A12 = 0 too, and the block form
        # is exact there, but its rounding differs from the full space's.
        # Reducing passive plants as well moved 64 of 1200 verdicts at
        # gamma*(1 -+ 10^-k), k = 6..15, on 60 draws (default_rng(2025),
        # 1-6 modes), 63 of them from a loop-gate refusal to certified, and
        # all 63 of those controllers failed attenuation_certificate: there
        # the full-space rounding refuses controllers that miss gamma, so
        # passive plants keep it
        rng = np.random.default_rng(26)
        refused = 0
        for _ in range(20):
            plant = random_passive_plant(rng, int(rng.integers(1, 7)))
            prep = prepare(plant)
            g_star = gamma_threshold(prep)
            for k in (8, 9, 10, 11, 12):
                v = verdict(prep, g_star * (1 + 10.0 ** -k))
                if v.X is None:
                    continue
                M, N = v.weights
                x_gate = is_hurwitz(plant.Ax + M @ v.X)
                y_gate = is_hurwitz(plant.Ay + v.Y @ N)
                assert v.gates["loop_x_hurwitz"] == x_gate
                assert v.gates["loop_y_hurwitz"] == y_gate
                refused += not (x_gate and y_gate)
        assert refused


class TestCertification:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_oracle_agreement(self, seed):
        rng = np.random.default_rng(seed)
        plant = random_sym_plant(rng, gamma=float(rng.uniform(1.1, 2.5)))
        res = synthesize(plant)
        orc = are_oracle(plant)
        assert res.certified == orc.certified
        if res.certified:
            assert np.allclose(res.X, orc.X, atol=1e-8 * (1 + np.linalg.norm(orc.X)))
            assert np.allclose(res.Y, orc.Y, atol=1e-8 * (1 + np.linalg.norm(orc.Y)))
            assert res.rho_xy < 1.0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_certified_controller_properties(self, seed):
        rng = np.random.default_rng(seed)
        plant = random_sym_plant(rng, gamma=2.0)
        res = synthesize(plant)
        if not res.certified:
            return
        ctl = res.controller
        # realizable as-is or flagged for vacuum augmentation; either way the
        # direct and adjoint-derived blocks are consistent
        assert np.allclose(ctl.BKtilde, -sharp_adjoint(ctl.CK))
        assert np.allclose(ctl.CKtilde, -sharp_adjoint(ctl.BK))
        cl = close_loop(plant, ctl)
        assert cl.internally_stable
        assert cl.hinf < plant.gamma
        assert attenuation_certificate(cl).passed

    def test_uncertified_below_threshold(self, rng):
        plant = random_sym_plant(rng, gamma=2.0)
        boundary = min_certified_gamma(plant, 0.2, 5.0, tol=1e-8)
        assert synthesize(plant.with_gamma(boundary * 1.01)).certified
        below = synthesize(plant.with_gamma(boundary * 0.99))
        assert not below.certified
        assert below.failure is not None

    def test_refusal_names_every_failing_block(self):
        # one stable and one anti-stable mode; far below the threshold both
        # positivity tests fail, and the refusal names both
        C1 = np.kron(np.eye(2), np.diag([1.5, 0.5]))
        C2 = np.kron(np.eye(2), np.diag([0.5, 1.5]))
        plant = build_plant(np.zeros((4, 4)), C1, C2, np.eye(4), np.eye(4),
                            0.05)
        res = synthesize(plant)
        assert not res.certified
        assert res.failure == ("S - T/gamma^2 and U - V/gamma^2 "
                               "not positive definite")

    def test_positivity_keeps_lambda_min(self):
        # one eigvalsh per block decides the refusal and hands its smallest
        # eigenvalue on; an empty block passes with lambda_min = inf
        failure, lam = positivity(np.diag([2.0, 0.5]), np.diag([1.0, 1e-12]))
        assert failure == "U - V/gamma^2 not positive definite"
        assert lam == (0.5, 1e-12)
        failure, lam = positivity(np.zeros((0, 0)), np.eye(1) * 3.0)
        assert failure == ""
        assert lam == (np.inf, 3.0)

    def test_certified_implies_controller(self):
        # at a bisection boundary refined to 1e-15 rho(XY) sits just below 1;
        # certification and the controller share the margin rho < 1 - pd_tol
        rng = np.random.default_rng(1)
        for _ in range(20):
            kw, eps = rng.uniform(0.5, 1.5, 2)
            spec = DpaSpec(kw, kw + eps * rng.uniform(0.2, 0.7), eps)
            assert spec.case == "case2"
            plant = build_dpa(spec)
            g = min_certified_gamma(plant, 0.05, 50.0, tol=1e-15)
            res = synthesize(plant.with_gamma(g))
            assert res.certified and res.controller is not None

    def test_rho_refusal_names_the_margin(self):
        # just below the boundary rho(XY) lies in [1 - pd_tol, 1): the text
        # must show rho below 1 and name the gate it failed
        plant = build_dpa(DpaSpec(1.0, 1.5, 1.0))
        g = min_certified_gamma(plant, 0.05, 50.0, tol=1e-15)
        res = synthesize(plant.with_gamma(g * (1 - 1e-11)))
        assert not res.certified and res.rho_xy < 1.0
        m = re.fullmatch(r"rho\(XY\) = (\S+) >= 1 - pd_tol", res.failure)
        assert m is not None
        assert float(m.group(1)) < 1.0
        assert abs(float(m.group(1)) - res.rho_xy) <= 1e-12

    def test_loop_matrices_hurwitz_when_certified(self):
        certified = 0
        for plant in _hermitian_split_plants():
            for at in _gate_targets(gamma_threshold(prepare(plant))):
                res = synthesize(plant.with_gamma(at))
                if not res.certified:
                    continue
                certified += 1
                g2 = at ** 2
                M = plant.B1 @ plant.B1.T / g2 - plant.B2 @ plant.B2.T
                N = plant.C1.T @ plant.C1 - g2 * plant.C2.T @ plant.C2
                assert is_hurwitz(plant.Ax + M @ res.X)
                assert is_hurwitz(plant.Ay + res.Y @ N)
        assert certified >= 200

    def test_loop_hurwitz_gates_stop_controllers_that_miss_gamma(self):
        # just above a one-sided general plant's boundary, positivity and the
        # rho(XY) margin can pass, so a controller is built, while a loop
        # matrix Ax + M X or Ay + Y N is not Hurwitz.  Each of the two loop
        # tests then refuses a controller whose closed loop misses gamma:
        # neither is implied by the other conditions of certify
        refused, caught = 0, set()
        for seed in range(3):
            rng = np.random.default_rng(seed)
            for n_modes in (1, 2, 3, 4):
                for side in (1, -1):
                    plant = random_general_plant(rng, n_modes, side)
                    g = min_certified_gamma(plant, 0.1, 10.0, tol=1e-12)
                    for k in (10, 11, 12, 13):
                        at = plant.with_gamma(g * (1 + 10.0 ** -k))
                        res = synthesize(at)
                        gates = [r for r in res.failure.split("; ")
                                 if r.endswith("is not stabilizing")]
                        if not gates:
                            continue
                        refused += 1
                        assert res.controller is not None
                        cert = attenuation_certificate(close_loop(at, res.controller))
                        if not cert.passed:
                            caught.update(gates)
        assert refused
        assert caught == {"X is not stabilizing", "Y is not stabilizing"}


    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "just above gamma* the central controller certifies while its closed "
        "loop misses gamma: at gamma*(1 + 1e-6) every one of these 20 loops "
        "fails attenuation_certificate, and at gamma*(1 + 1e-4) none does"))
    def test_certified_loop_meets_gamma_near_threshold(self):
        # sizes and sides of the design benchmark's sym and general plants
        # of up to 10 modes
        rng = np.random.default_rng(1)
        plants = [random_sym_plant(rng, n) for n in (1, 2, 3, 4, 5, 6, 8, 10)]
        plants += [random_general_plant(rng, n, 1 if i % 4 < 2 else -1)
                   for i, n in enumerate((1, 1, 2, 2, 3, 3, 4, 4, 5, 6, 8, 10))]
        missed = 0
        for plant in plants:
            g = min_certified_gamma(plant, 0.05, 50.0, tol=1e-12)
            at = plant.with_gamma(g * (1 + 1e-6))
            res = synthesize(at)
            assert res.certified
            missed += not attenuation_certificate(
                close_loop(at, res.controller)).passed
        assert missed == 0

class TestSigmaDiagnostics:
    def test_sigma_product_matches_svd(self):
        # sigma_max((S - T/g^2)^-1) sigma_max((U - V/g^2)^-1), each factor 1
        # for an empty block, from an SVD of the two inverses
        rng = np.random.default_rng(20)
        checked, verdicts = 0, set()
        while checked < 20:
            plant = random_sym_plant(rng, int(rng.integers(1, 4)),
                                     gamma=float(rng.uniform(0.5, 3.0)))
            res = synthesize(plant)
            if "sigma_product" not in res.diagnostics:
                continue   # refused by positivity before the certificate
            checked += 1
            blocks = [P for P in (res.quad.SmTg, res.quad.UmVg) if P.size]
            want = np.prod([np.linalg.svd(np.linalg.inv(P), compute_uv=False)[0]
                            for P in blocks])
            assert res.diagnostics["sigma_product"] == pytest.approx(want, rel=1e-12)
            if len(blocks) == 2:
                verdicts.add(res.sigma_condition)
                assert res.sigma_condition == bool(want < plant.gamma ** 2)
            else:
                assert res.sigma_condition is True
        assert verdicts == {True, False}


class TestRegimeLabel:
    def test_symmetric_label_possible(self, rng):
        # scan a few draws; the symmetric-structure label appears whenever
        # the change-of-coordinates artifact coincides with +/- identity
        seen = set()
        for _ in range(40):
            res = synthesize(random_sym_plant(rng))
            seen.add(res.regime)
        assert seen <= {"symmetric-iff", "general"}


def _mixed_draws():
    """40 seeded plants with eigenvalues in both half planes, 2-3 modes,
    targets drawn in [0.5, 5]."""
    for i in range(40):
        rng = np.random.default_rng([2026, i])
        yield random_mixed_plant(rng, int(rng.integers(2, 4)),
                                 float(rng.uniform(0.5, 5.0)))


class TestMixedSpectrum:
    @pytest.mark.xfail(strict=True, reason=(
        "certify refuses most mixed-spectrum plants with 'cross-block "
        "compatibility equation fails': Y is padded onto the Schur split "
        "built for X, which is exact only when A12 = 0"))
    def test_oracle_agreement(self):
        for plant in _mixed_draws():
            try:
                want = are_oracle(plant).certified
            except OracleError:
                want = False
            assert synthesize(plant).certified == want

    def test_one_mode_is_refused(self):
        # one mode has a single damping sign, so no redraw could be mixed
        with pytest.raises(ValueError, match="at least 2 modes"):
            random_mixed_plant(np.random.default_rng(0), 1)

    def test_certified_loop_meets_gamma(self):
        for plant in _mixed_draws():
            split = plant.split()
            assert split.n_stable and split.n_anti
            res = synthesize(plant)
            if res.certified:
                cl = close_loop(plant, res.controller)
                assert cl.internally_stable
                assert cl.hinf < plant.gamma
