import json
import os

import numpy as np
import pytest

from conftest import (count_calls, on_axis_plants, random_passive_model,
                      random_passive_plant, random_slh_model,
                      random_sym_plant)
from qhinf import cli, devices, qls
from qhinf.cli import PROFILES, main, make_parser
from qhinf.docio import (DocumentError, SystemDocument, atomic_write_text,
                         complex_to_pairs, csv_text, document_for,
                         instantiate, json_text, load_document,
                         pairs_to_complex, save_document)
from qhinf.errors import AssumptionError
from qhinf.passive import PassivePlant
from qhinf.plant import HinfPlant
from qhinf.report import synthesis_report
from qhinf.synth import build_controller, synthesize
from qhinf.verify import are_oracle, attenuation_certificate, close_loop


class TestComplexEncoding:
    def test_round_trip(self, rng):
        M = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        assert np.allclose(pairs_to_complex(complex_to_pairs(M)), M)

    def test_rejects_garbage(self):
        with pytest.raises(DocumentError):
            pairs_to_complex([[["a", "b"]]])


def _as_lists(obj):
    if isinstance(obj, dict):
        return {k: _as_lists(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_as_lists(v) for v in obj]
    return obj.tolist() if isinstance(obj, np.ndarray) else obj


class TestJsonText:
    ARRAYS = {
        "0x0": np.zeros((0, 0)),
        "2x0": np.zeros((2, 0)),
        "1x1": np.array([[1.5]]),
        "1-D": np.array([1.0, -2.5, 3e-300, 7.0]),
        "0-D": np.array(0.1),
        "nan-inf-negzero": np.array([[np.nan, np.inf], [-np.inf, -0.0]]),
        "pairs": complex_to_pairs(np.array([[1 + 2j, -0.0 - 1e-17j, 3.25],
                                            [np.nan, 1j, -4e10]])),
        "4-D": np.arange(24.0).reshape(2, 3, 2, 2) / 7,
        "strings": np.array([["a, [b]", "]"]]),
        "bool": np.array([[True, False], [False, True]]),
        "int": np.arange(-3, 3).reshape(3, 2),
    }

    @pytest.mark.parametrize("name", ARRAYS)
    def test_matches_stdlib_indent(self, name):
        A = self.ARRAYS[name]
        plant = random_sym_plant(np.random.default_rng(3), 3)
        doc = document_for(random_passive_plant(np.random.default_rng(3), 3))
        for payload in (A, {"m": A}, [A, "x", A],
                        {"z": 1, "b": {"c": [A, None, {"d": A}]}, "a": A},
                        # strings that read as array placeholders, which an
                        # encoder that substitutes text after the fact
                        # could mistake for an array
                        {"s": "\0ndarray:0\0", "m": A},
                        {3: A, -1: [A, "\u0000"], 10: {2: (A,), 1: None}},
                        (A, (A, "t", ()), ((),)),
                        {"e": {"f": {}, "g": [[], {}]}, "h": [[[]], {"i": {}}],
                         "m": [{"n": A, "o": []}]},
                        synthesis_report(plant, synthesize(plant)),
                        {"schema_version": doc.schema_version, "kind": doc.kind,
                         "matrices": {k: complex_to_pairs(v)
                                      for k, v in doc.matrices.items()},
                         "params": doc.params, "gamma": doc.gamma, "m": A}):
            assert json_text(payload) == json.dumps(
                _as_lists(payload), indent=2, sort_keys=True) + "\n"


class TestDocuments:
    def test_plant_round_trip(self, rng, tmp_path):
        plant = random_sym_plant(rng, gamma=1.7)
        path = str(tmp_path / "plant.json")
        save_document(document_for(plant), path)
        loaded = instantiate(load_document(path))
        assert isinstance(loaded, HinfPlant)
        assert np.allclose(loaded.A, plant.A)
        assert loaded.gamma == pytest.approx(1.7)

    def test_passive_round_trip(self, rng, tmp_path):
        C = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        plant = PassivePlant(C, np.eye(2), np.eye(2), np.eye(2), 0.8)
        path = str(tmp_path / "passive.json")
        save_document(document_for(plant), path)
        loaded = instantiate(load_document(path))
        assert isinstance(loaded, PassivePlant)
        assert np.allclose(loaded.C1, plant.C1)

    def test_gamma_override(self, rng, tmp_path):
        plant = random_sym_plant(rng, gamma=1.7)
        path = str(tmp_path / "plant.json")
        save_document(document_for(plant), path)
        loaded = instantiate(load_document(path), gamma=2.4)
        assert loaded.gamma == pytest.approx(2.4)

    def test_bad_schema_version(self, tmp_path):
        path = str(tmp_path / "bad.json")
        atomic_write_text(path, json.dumps({"schema_version": "99",
                                            "kind": "plant", "matrices": {}}))
        with pytest.raises(DocumentError):
            load_document(path)

    def test_bad_kind(self, tmp_path):
        path = str(tmp_path / "bad.json")
        atomic_write_text(path, json.dumps({"schema_version": "1",
                                            "kind": "widget", "matrices": {}}))
        with pytest.raises(DocumentError):
            load_document(path)

    def test_json_error_is_line_anchored(self, tmp_path):
        path = str(tmp_path / "broken.json")
        atomic_write_text(path, '{\n  "kind": plant\n}\n')
        with pytest.raises(DocumentError, match=r":2:"):
            load_document(path)

    def test_missing_matrix_named(self, tmp_path):
        doc = SystemDocument("plant", {"Hmat": np.zeros((2, 2))}, gamma=1.0)
        path = str(tmp_path / "incomplete.json")
        save_document(doc, path)
        with pytest.raises(DocumentError, match="C1"):
            instantiate(load_document(path))

    def test_device_without_gamma_builds_at_spec_default(self):
        cavity = SystemDocument("cavity", {}, params={"kappa1": 1.0,
                                                      "kappa2": 4.0})
        dpa = SystemDocument("dpa", {}, params={"kappa_w": 2.0, "kappa_u": 4.0,
                                                "epsilon": 1.0})
        assert instantiate(cavity).gamma == devices.CavitySpec(1.0, 4.0).gamma
        assert instantiate(dpa).gamma == devices.DpaSpec(2.0, 4.0, 1.0).gamma

    def test_atomic_write_leaves_no_temp(self, tmp_path):
        path = str(tmp_path / "file.txt")
        atomic_write_text(path, "hello\n")
        atomic_write_text(path, "world\n")
        assert open(path).read() == "world\n"
        assert os.listdir(tmp_path) == ["file.txt"]


class TestCli:
    def write_plant(self, rng, tmp_path, gamma=1.8) -> str:
        path = str(tmp_path / "plant.json")
        save_document(document_for(random_sym_plant(rng, gamma=gamma)), path)
        return path

    def test_example_cavity_exit_zero(self, capsys):
        assert main(["example", "cavity"]) == 0
        out = capsys.readouterr().out
        assert "certified" in out

    def test_example_dpa_both_cases(self, tmp_path, capsys):
        # case 1 checks X against the verified stabilizing form and prints
        # the printed reference form's mismatch without failing; case 2
        # checks S, T, U and V, and the document it emits certifies
        assert main(["example", "dpa"]) == 0
        head, x, x_ref = capsys.readouterr().out.splitlines()
        assert head.endswith("branch=case1 certified=True")
        assert x.startswith("  X ")
        assert x.endswith(" -> ok  (verified stabilizing form)")
        assert x_ref.startswith("  X(ref) ")
        assert x_ref.endswith(
            " -> MISMATCH  (printed reference form, known inconsistent)")
        path = str(tmp_path / "dpa.json")
        assert main(["example", "dpa", "--ku", "1.5", "--gamma", "1.5",
                     "--emit", path]) == 0
        head, *rows, written = capsys.readouterr().out.splitlines()
        assert head.endswith("branch=case2 certified=True")
        assert [r.split()[0] for r in rows] == ["S", "T", "U", "V"]
        assert all(r.endswith(" -> ok") for r in rows)
        assert written == f"document written to {path}"
        assert main(["synthesize", path]) == 0
        assert "certified            : True\n" in capsys.readouterr().out

    def test_synthesize_json(self, rng, tmp_path, capsys):
        path = self.write_plant(rng, tmp_path)
        assert main(["synthesize", path, "--json"]) == 0
        out = capsys.readouterr().out
        rep = json.loads(out)
        assert rep["certified"] is True
        assert rep["gamma"] == pytest.approx(1.8)
        # the report and the document it was read from are in the stdlib's
        # indent=2, sort_keys=True layout, byte for byte
        with open(path) as fh:
            doc = fh.read()
        for text in (out, doc):
            assert text == json.dumps(json.loads(text), indent=2,
                                      sort_keys=True) + "\n"
        # the text report of the same run prints the same figures
        assert main(["synthesize", path]) == 0
        lines = dict(line.split(" : ", 1)
                     for line in capsys.readouterr().out.splitlines())
        k, c = rep["controller"], rep["closed_loop"]
        assert {name.strip(): v for name, v in lines.items()} == {
            "gamma": f"{rep['gamma']:.10g}",
            "certified": "True",
            "method path": rep["method_path"],
            "rho(XY)": f"{rep['rho_xy']:.6e}",
            "sigma short-cut": str(rep["sigma_condition"]),
            "stable/anti split": f"{rep['split']['n_stable']}/"
                                 f"{rep['split']['n_anti']}",
            "controller PR resid": f"{k['pr_residual']:.6e}" + (
                "  (needs vacuum augmentation)" if k["needs_augmentation"]
                else "  (realizable as-is)"),
            "closed-loop stable": str(c["internally_stable"]),
            "closed-loop Hinf": f"{c['hinf']:.10g}  (margin {c['margin']:.3e})"}
        assert rep["sigma_condition"] is not None

    def test_reports_carry_the_witness(self, rng, tmp_path, capsys):
        # synthesize --json and verify keep their keys and lines and add the
        # bounded-real witness of the passing loop
        path = self.write_plant(rng, tmp_path)
        assert main(["synthesize", path, "--json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert set(rep["closed_loop"]) == {
            "internally_stable", "hinf", "margin", "attenuation_passed",
            "grid_cross_check", "witness_margin", "witness_p_min"}
        assert rep["closed_loop"]["witness_margin"] > 1.0
        assert rep["closed_loop"]["witness_p_min"] > 0.0
        assert rep["closed_loop"]["grid_cross_check"] <= rep["closed_loop"]["hinf"]
        ctl_path = str(tmp_path / "controller.json")
        plant = instantiate(load_document(path))
        save_document(document_for(synthesize(plant).controller), ctl_path)
        for gamma, code, witness in (("1.8", 0, True), ("0.05", 2, False)):
            assert main(["verify", path, ctl_path, "--gamma", gamma]) == code
            lines = {k.strip(): v for k, v in (
                line.split(":", 1)
                for line in capsys.readouterr().out.splitlines())}
            assert list(lines) == [
                "internally stable", "Hinf norm", "gamma", "margin",
                "grid cross-check", "witness margin", "attenuation"]
            assert np.isfinite(float(lines["witness margin"])) == witness

    def test_synthesize_refusal_exit_two(self, rng, tmp_path, capsys):
        path = self.write_plant(rng, tmp_path)
        code = main(["synthesize", path, "--gamma", "0.05"])
        assert code == 2
        err = capsys.readouterr()
        assert "not positive definite" in err.out + err.err

    def test_check_reports_assumptions(self, rng, tmp_path, capsys):
        path = self.write_plant(rng, tmp_path)
        assert main(["check", path]) == 0
        out = capsys.readouterr().out
        assert "pr (joint plant)" in out.lower()
        assert "a3/a4" in out.lower()
        # an SLH model: the PR residuals of its doubled-up and quadrature
        # systems, and whether it is passive
        for model in (random_slh_model(rng), random_passive_model(rng)):
            save_document(document_for(model), path)
            assert main(["check", path]) == 0
            ss = qls.build_complex_system(model)
            want = []
            for tag, sys_ in (("doubled", ss),
                              ("quadrature", qls.to_quadrature(ss))):
                pr = qls.check_physical_realizability(sys_)
                want.append(f"PR ({tag})            : residuals "
                            f"{pr.residual_dynamics:.3e} / "
                            f"{pr.residual_coupling:.3e} -> ok")
            want.append(f"passive              : {qls.is_passive(model)}")
            assert capsys.readouterr().out.splitlines() == want

    def test_check_spectral_condition_both_kinds(self, rng, tmp_path, capsys):
        on_axis = on_axis_plants()
        passing = (random_sym_plant(rng), random_passive_plant(rng))
        for plant, code, verdict in [*((p, 2, "FAIL") for p in on_axis),
                                     *((p, 0, "ok") for p in passing)]:
            path = str(tmp_path / "plant.json")
            save_document(document_for(plant), path)
            assert main(["check", path]) == code
            line, = [s for s in capsys.readouterr().out.splitlines()
                     if "(A3/A4)" in s]
            assert line.split(": ", 1)[1].startswith(verdict)
            assert "min |Re lambda" in line

    def test_sweep_csv(self, rng, tmp_path, capsys):
        path = self.write_plant(rng, tmp_path)
        out_path = str(tmp_path / "sweep.csv")
        assert main(["sweep-gamma", path, "--min", "0.5", "--max", "3.0",
                     "--steps", "6", "--out", out_path]) == 0
        lines = open(out_path).read().strip().splitlines()
        assert lines[0] == "gamma,certified,hinf"
        assert len(lines) == 7
        # no numpy repr leakage in the table
        assert "np.float64" not in "".join(lines)

    def test_sweep_rows_match_syntheses(self, rng, tmp_path, capsys,
                                        monkeypatch):
        # one split serves every target: each row equals a synthesis from
        # scratch at that target, and a plant whose split refuses is split
        # again at every target and gives a refused row and exit 2
        splits = count_calls(monkeypatch, "split", HinfPlant, PassivePlant)
        plants = [(random_sym_plant(rng, 2), False),
                  (random_passive_plant(rng, 3), False),
                  *((p, True) for p in on_axis_plants())]
        for plant, refused in plants:
            path = str(tmp_path / "plant.json")
            save_document(document_for(plant), path)
            splits.clear()
            code = main(["sweep-gamma", path, "--min", "0.4", "--max", "4.0",
                         "--steps", "7"])
            assert len(splits) == (7 if refused else 1)
            rows = []
            for g in map(float, np.linspace(0.4, 4.0, 7)):
                at = plant.with_gamma(g)
                try:
                    res = synthesize(at)
                except AssumptionError:
                    rows.append([g, 0, float("nan")])
                    continue
                rows.append([g, int(res.certified), close_loop(
                    at, res.controller).hinf if res.certified else float("nan")])
            assert capsys.readouterr().out == csv_text(
                ["gamma", "certified", "hinf"], rows)
            assert code == (0 if any(r[1] for r in rows) else 2)
            assert refused == (code == 2)

    def test_parser_built_once(self):
        assert make_parser() is make_parser()

    def test_freqresp_csv(self, rng, tmp_path):
        path = self.write_plant(rng, tmp_path)
        out_path = str(tmp_path / "fr.csv")
        assert main(["freqresp", path, "--points", "16",
                     "--out", out_path]) == 0
        lines = open(out_path).read().strip().splitlines()
        assert lines[0].startswith("omega,")
        assert len(lines) == 17

    def test_freqresp_matches_per_frequency_solve(self, rng, tmp_path):
        # each row against its own LU solve and SVD, on the disturbance-to-
        # performance map of a plant and on an SLH model's doubled-up system
        plant = random_sym_plant(rng, n_modes=3)
        D0 = np.zeros((plant.C1.shape[0], plant.B1.shape[1]))
        model = random_slh_model(rng, n=3, m=2)
        ss = qls.build_complex_system(model)
        for obj, (A, B, C, D) in [(plant, (plant.A, plant.B1, plant.C1, D0)),
                                  (model, (ss.A, ss.B, ss.C, ss.D))]:
            path = str(tmp_path / "doc.json")
            out_path = str(tmp_path / "fr.csv")
            save_document(document_for(obj), path)
            assert main(["freqresp", path, "--wmin", "0.05", "--wmax", "20",
                         "--points", "40", "--out", out_path]) == 0
            rows = np.loadtxt(out_path, delimiter=",", skiprows=1)
            assert rows.shape == (40, 1 + min(D.shape))
            for w, *sv in rows:
                G = C @ np.linalg.solve(1j * w * np.eye(A.shape[0]) - A, B) + D
                want = np.linalg.svd(G, compute_uv=False)
                assert np.max(np.abs(np.array(sv) - want)) <= 1e-12 * want[0]

    def test_verify_round_trip(self, rng, tmp_path, capsys):
        path = self.write_plant(rng, tmp_path)
        ctl_path = str(tmp_path / "controller.json")
        assert main(["synthesize", path, "--out", ctl_path + ".report",
                     "--json"]) == 0
        from qhinf.synth import synthesize
        plant = instantiate(load_document(path))
        ctl = synthesize(plant).controller
        save_document(SystemDocument("controller", {
            "AK": ctl.AK, "BK": ctl.BK, "CK": ctl.CK}, gamma=plant.gamma),
            ctl_path)
        assert main(["verify", path, ctl_path]) == 0
        assert "PASS" in capsys.readouterr().out.upper()

    def test_controller_document_round_trip(self, tmp_path, capsys):
        plant = devices.build_cavity(devices.CavitySpec(1.0, 4.0, 0.6))
        res = synthesize(plant)
        assert res.certified
        plant_path = str(tmp_path / "plant.json")
        ctl_path = str(tmp_path / "controller.json")
        save_document(document_for(plant), plant_path)
        save_document(document_for(res.controller), ctl_path)
        doc = load_document(ctl_path)
        assert doc.kind == "controller"
        mats = instantiate(doc)
        for name in ("AK", "BK", "CK"):
            assert np.allclose(mats[name], getattr(res.controller, name))
        assert main(["verify", plant_path, ctl_path]) == 0
        assert "pass" in capsys.readouterr().out

    def test_verify_closes_a_real_loop(self, tmp_path, capsys, monkeypatch):
        # a document's matrices load complex; around a quadrature plant
        # verify closes the loop on their real parts, so the norm and the
        # witness run in real arithmetic and print what the library's
        # real loop gives
        plant = devices.build_dpa(devices.DpaSpec(2.0, 4.0, 1.0, 1.5))
        ctl = synthesize(plant).controller
        plant_path = str(tmp_path / "dpa.json")
        ctl_path = str(tmp_path / "controller.json")
        save_document(document_for(plant), plant_path)
        save_document(document_for(ctl), ctl_path)
        loops = count_calls(monkeypatch, "close_loop", cli)
        assert main(["verify", plant_path, ctl_path]) == 0
        out = capsys.readouterr().out
        (_, K), = loops
        for name in ("AK", "BK", "CK"):
            assert np.array_equal(getattr(K, name), getattr(ctl, name))
            assert np.isrealobj(getattr(K, name))
        cert = attenuation_certificate(close_loop(plant, ctl))
        assert cert.passed
        assert f"Hinf norm            : {cert.hinf:.10g}\n" in out
        assert f"witness margin       : {cert.witness_margin:.6e}\n" in out
        assert "attenuation          : pass" in out

    def test_synthesize_report_uses_profile(self, tmp_path, capsys,
                                             monkeypatch):
        path = str(tmp_path / "dpa.json")
        save_document(SystemDocument("dpa", {}, params={
            "kappa_w": 2.0, "kappa_u": 2.5, "epsilon": 1.0}, gamma=1.4), path)
        # the plant carries its options to every stage; none is passed again
        plant = devices.build_dpa(devices.DpaSpec(2.0, 2.5, 1.0, 1.4),
                                  PROFILES["strict"])
        want = close_loop(plant, synthesize(plant).controller).hinf
        monkeypatch.setenv("QHINF_PROFILE", "strict")
        assert main(["synthesize", path, "--json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["closed_loop"]["hinf"] == want

    def test_synthesize_oracle_method(self, tmp_path, capsys):
        path = str(tmp_path / "dpa.json")
        save_document(SystemDocument("dpa", {}, params={
            "kappa_w": 2.0, "kappa_u": 4.0, "epsilon": 1.0}, gamma=1.5), path)
        plant = devices.build_dpa(devices.DpaSpec(2.0, 4.0, 1.0, 1.5))
        oracle = are_oracle(plant)
        cl = close_loop(plant, build_controller(plant, oracle.X, oracle.Y))
        assert main(["synthesize", path, "--method", "oracle", "--json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["certified"] is oracle.certified is True
        assert rep["rho_xy"] == oracle.rho_xy
        assert rep["closed_loop"]["hinf"] == cl.hinf

    def test_missing_file_exit_one(self, capsys):
        assert main(["synthesize", "/nonexistent/plant.json"]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["synthesize", "{dpa}", "--gamma", "-1"],
        ["verify", "{dpa}", "{ctl}", "--gamma", "-1"],
        ["sweep-gamma", "{dpa}", "--min", "-1", "--max", "2", "--steps", "3"],
        ["example", "dpa", "--gamma", "-1"],
        ["example", "cavity", "--gamma", "0"],
        ["verify", "{dpa}", "{ctl3}"],
        ["freqresp", "{dpa}", "--wmin", "0"],
        # one undamped mode: the 101st of 201 points is the pole at w = 1
        ["freqresp", "{slh}", "--points", "201"],
        ["sweep-gamma", "{slh}", "--min", "0.5", "--max", "2", "--steps", "3"],
        ["sweep-gamma", "{dpa}", "--min", "1", "--max", "2", "--steps", "-1"],
        ["freqresp", "{dpa}", "--points", "-3"],
        # gamma^2 must be a finite positive double
        ["synthesize", "{dpa}", "--gamma", "inf"],
        ["example", "dpa", "--gamma", "inf"],
        ["sweep-gamma", "{dpa}", "--min", "1", "--max", "inf", "--steps", "3"],
        ["synthesize", "{dpa}", "--gamma", "1e308"],
        # the first document must be a plant
        ["verify", "{slh}", "{ctl}"],
        ["verify", "{ctl}", "{ctl}"],
        # the Riccati oracle serves quadrature plants only
        ["synthesize", "{cavity}", "--method", "oracle"],
        # an infinite band has no log-spaced grid
        ["freqresp", "{dpa}", "--wmax", "inf"],
        # a quadrature plant's controller must be real
        ["verify", "{dpa}", "{ctlc}"],
    ])
    def test_invalid_input_exit_one(self, argv, tmp_path, capsys):
        spec = devices.DpaSpec(2.0, 4.0, 1.0, 1.5)
        ctl = synthesize(devices.build_dpa(spec)).controller
        paths = {name: str(tmp_path / f"{name}.json")
                 for name in ("dpa", "ctl", "ctl3", "ctlc", "slh", "cavity")}
        save_document(SystemDocument("slh", {
            "S": np.eye(1), "Omega_minus": np.diag([0.0, 1.0]),
            "Omega_plus": np.zeros((2, 2)), "C_minus": np.array([[1.0, 0.0]]),
            "C_plus": np.zeros((1, 2))}), paths["slh"])
        save_document(SystemDocument("dpa", {}, params={
            "kappa_w": 2.0, "kappa_u": 4.0, "epsilon": 1.0}, gamma=1.5),
            paths["dpa"])
        save_document(SystemDocument("cavity", {}, params={
            "kappa1": 1.0, "kappa2": 4.0}, gamma=0.6), paths["cavity"])
        save_document(document_for(ctl), paths["ctl"])
        # a 3-state drift with the DPA controller's 2-state input/output maps
        save_document(SystemDocument("controller", {
            "AK": -np.eye(3), "BK": ctl.BK, "CK": ctl.CK}), paths["ctl3"])
        save_document(SystemDocument("controller", {
            "AK": ctl.AK, "BK": ctl.BK + 1e-3j, "CK": ctl.CK}), paths["ctlc"])
        assert main([a.format(**paths) for a in argv]) == 1
        assert capsys.readouterr().err.startswith("error:")

    DPA = {"kappa_w": 2.0, "kappa_u": 4.0, "epsilon": 1.0}

    @pytest.mark.parametrize("change", [
        {"params": [2.0, 4.0, 1.0]},
        {"params": {**DPA, "kappa_w": "a"}},
        {"params": {**DPA, "kappa_w": True}},
        {"params": {**DPA, "kappa_u": float("inf")}},
        {"params": {**DPA, "kappa_u": 10**400}},   # no double holds it
        {"matrices": []},
        {"Hmat": float("nan")},
        {"C1": float("inf")},
        {"gamma": True},
        {"gamma": 10**400},
        "directory",
    ])
    def test_malformed_document_exit_one(self, change, rng, tmp_path, capsys):
        # a malformed document is refused with "error: ..." and exit 1,
        # never a traceback or a synthesis at a value it does not state
        path = tmp_path / "doc.json"
        if change == "directory":
            path.mkdir()
        elif change.keys() & {"matrices", "Hmat", "C1"}:
            # a plant document with one entry or the matrices replaced
            doc = json.loads(document_for(random_sym_plant(rng)).to_json())
            for name, value in change.items():
                if name == "matrices":
                    doc[name] = value
                else:
                    doc["matrices"][name][0][0][0] = value
            path.write_text(json.dumps(doc))
        else:
            path.write_text(json.dumps(
                {"schema_version": "1", "kind": "dpa", "matrices": {},
                 "params": self.DPA, "gamma": 1.5, **change}))
        assert main(["synthesize", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error:")
