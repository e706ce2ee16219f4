"""Command-line interface.

Exit codes: 0 = certified / pass, 2 = synthesis refused or check failed,
1 = invalid input.  The tolerance profile can be preset with the
QHINF_PROFILE environment variable (default | strict | loose).
"""

import argparse
import functools
import os
import sys

import numpy as np

from . import devices, docio, linalg, qls, report
from .errors import AssumptionError, ParameterError, QhinfError, positive_gamma
from .options import DEFAULT, NumericOptions
from .plant import HinfPlant, Plant
from .qls import SlhModel
from .synth import (Controller, build_controller, gamma_threshold, prepare,
                    synthesize)
from .verify import are_oracle, attenuation_certificate, close_loop

PROFILES = {
    "default": DEFAULT,
    "strict": DEFAULT.override(split_tol=1e-10, pr_tol=1e-11, hinf_tol=1e-11),
    "loose": DEFAULT.override(split_tol=1e-6, pr_tol=1e-6, struct_tol=1e-6),
}


def _options() -> NumericOptions:
    name = os.environ.get("QHINF_PROFILE", "default")
    if name not in PROFILES:
        raise QhinfError(f"unknown QHINF_PROFILE {name!r}; choose from {list(PROFILES)}")
    return PROFILES[name]


def _count(n: int, flag: str) -> int:
    if n < 1:
        raise ParameterError(f"{flag} must be at least 1, got {n}")
    return n


def _emit(text: str, out: str | None) -> None:
    if out:
        docio.atomic_write_text(out, text)
    else:
        sys.stdout.write(text)


def _load_plant(path: str, gamma: float | None) -> Plant:
    """The plant a document describes, built under the profile at gamma."""
    opts = _options()
    plant = docio.instantiate(docio.load_document(path), gamma=gamma, opts=opts)
    if not isinstance(plant, Plant):
        raise docio.DocumentError(f"{path}: document does not describe a plant")
    return plant


def cmd_check(args) -> int:
    opts = _options()
    doc = docio.load_document(args.path)
    obj = docio.instantiate(doc, opts=opts)
    lines, ok = [], True
    if isinstance(obj, SlhModel):
        ss = qls.build_complex_system(obj)
        for tag, sys_ in (("doubled", ss), ("quadrature", qls.to_quadrature(ss, opts))):
            pr = qls.check_physical_realizability(sys_, opts)
            lines.append(f"PR ({tag})            : residuals "
                         f"{pr.residual_dynamics:.3e} / {pr.residual_coupling:.3e}"
                         f" -> {'ok' if pr.passed else 'FAIL'}")
            ok = ok and pr.passed
        lines.append(f"passive              : {qls.is_passive(obj)}")
    elif isinstance(obj, Plant):
        if isinstance(obj, HinfPlant):
            # build_plant has already refused a plant whose residual fails
            lines.append(f"PR (joint plant)     : residual {obj.pr_residual():.3e} -> ok")
            lines.append("stabilizability/detectability (A1/A2): structural, ok")
        try:
            spectral = f"ok (min |Re lambda(Ax)| = {obj.split().min_abs_real:.3e})"
        except AssumptionError as exc:
            ok, spectral = False, f"FAIL: {exc}"
        lines.append(f"spectral condition (A3/A4)           : {spectral}")
    else:
        raise docio.DocumentError("check does not apply to this document kind")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else 2


def cmd_synthesize(args) -> int:
    obj = _load_plant(args.path, args.gamma)
    if args.method == "oracle":
        if not isinstance(obj, HinfPlant):
            raise docio.DocumentError("oracle method needs a quadrature plant document")
        oracle = are_oracle(obj)
        controller = build_controller(obj, oracle.X, oracle.Y)
        cert = attenuation_certificate(close_loop(obj, controller))
        rep = {
            "gamma": obj.gamma, "method_path": "riccati-oracle",
            "certified": oracle.certified, "rho_xy": oracle.rho_xy,
            "controller": {"pr_residual": controller.pr_residual,
                           "needs_augmentation": controller.needs_augmentation},
            "closed_loop": {"internally_stable": cert.internally_stable,
                            "hinf": cert.hinf, "margin": cert.margin,
                            "attenuation_passed": cert.passed,
                            "witness_margin": cert.witness_margin,
                            "witness_p_min": cert.witness_p_min},
        }
        text = report.render_json(rep) if args.json else (
            f"gamma                : {obj.gamma}\n"
            f"certified            : {oracle.certified}\n"
            f"method path          : riccati-oracle\n"
            f"rho(XY)              : {oracle.rho_xy:.6e}\n"
            f"closed-loop Hinf     : {cert.hinf:.10g}\n")
        _emit(text, args.out)
        return 0 if oracle.certified else 2
    result = synthesize(obj)
    rep = report.synthesis_report(obj, result)
    _emit(report.render_json(rep) if args.json else report.render_text(rep), args.out)
    return 0 if result.certified else 2


def cmd_verify(args) -> int:
    plant = _load_plant(args.plant, args.gamma)
    kdoc = docio.load_document(args.controller)
    if kdoc.kind != "controller":
        raise docio.DocumentError("second argument must be a controller document")
    mats = docio.instantiate(kdoc)
    if isinstance(plant, HinfPlant):
        # a quadrature loop stays real, so its norm and witness do too
        mats = {k: docio.require_real(M, f"controller {k}")
                for k, M in mats.items()}
    K = Controller(mats["AK"], mats["BK"], mats["CK"],
                   BKtilde=None, CKtilde=None, pr_residual=float("nan"),
                   needs_augmentation=False)
    cert = attenuation_certificate(close_loop(plant, K))
    text = (f"internally stable    : {cert.internally_stable}\n"
            f"Hinf norm            : {cert.hinf:.10g}\n"
            f"gamma                : {plant.gamma}\n"
            f"margin               : {cert.margin:.6e}\n"
            f"grid cross-check     : {cert.grid_value:.10g}\n"
            f"witness margin       : {cert.witness_margin:.6e}\n"
            f"attenuation          : {'pass' if cert.passed else 'FAIL'}\n")
    _emit(text, args.out)
    return 0 if cert.passed else 2


def cmd_sweep(args) -> int:
    positive_gamma(min(args.min, args.max))
    positive_gamma(max(args.min, args.max))
    gammas = np.linspace(args.min, args.max, _count(args.steps, "--steps"))
    # built once; the first target's prepare splits and solves, and every
    # later target's reuses that split and the four Lyapunov solutions
    plant = _load_plant(args.path, args.min)
    rows = []
    for g in map(float, gammas):
        certified, hinf = 0, float("nan")
        try:
            at = plant.with_gamma(g)
            res = synthesize(at)
            if res.certified:   # one rho(XY) margin gates it and the controller
                hinf = close_loop(at, res.controller).hinf
                certified = 1
        except QhinfError:
            pass   # the plant or the target is refused
        rows.append([g, certified, hinf])
    _emit(docio.csv_text(["gamma", "certified", "hinf"], rows), args.out)
    return 0 if any(r[1] for r in rows) else 2


def cmd_freqresp(args) -> int:
    opts = _options()
    doc = docio.load_document(args.path)
    obj = docio.instantiate(doc, opts=opts)
    if isinstance(obj, SlhModel):
        ss = qls.build_complex_system(obj)
        A, B, C, D = ss.A, ss.B, ss.C, ss.D
    elif isinstance(obj, Plant):
        A, B, C = obj.A, obj.B1, obj.C1
        D = np.zeros((C.shape[0], B.shape[1]))
    else:
        raise docio.DocumentError("freqresp does not apply to this document kind")
    if not all(0 < w < np.inf for w in (args.wmin, args.wmax)):
        raise ParameterError("--wmin and --wmax must be positive and finite")
    ws = np.geomspace(args.wmin, args.wmax, _count(args.points, "--points"))
    resp = linalg.Response(A, B, C, D, opts)
    qls.refuse_poles(resp, 1j * ws)
    sv = resp.singular_values(ws)
    header = ["omega"] + [f"sigma{i+1}" for i in range(sv.shape[1])]
    _emit(docio.csv_text(header, np.column_stack([ws, sv]).tolist()), args.out)
    return 0


def _compare(name: str, got, want, tol: float = 1e-8) -> tuple[str, bool]:
    got, want = np.asarray(got, dtype=complex), np.asarray(want, dtype=complex)
    err = float(np.max(np.abs(got - want)) / (1.0 + np.max(np.abs(want))))
    ok = err <= tol
    return f"  {name:12s} rel err {err:.3e} -> {'ok' if ok else 'MISMATCH'}", ok


def cmd_example(args) -> int:
    opts = _options()
    lines = []
    gamma = {} if args.gamma is None else {"gamma": args.gamma}
    if args.device == "cavity":
        spec = devices.CavitySpec(args.k1, args.k2, **gamma)
        plant = devices.build_cavity(spec, opts)
        res = synthesize(plant)
        ref = devices.cavity_reference(spec)
        lines.append(f"cavity kappa1={spec.kappa1} kappa2={spec.kappa2} "
                     f"gamma={spec.gamma}: certified={res.certified}")
        ok = res.certified
        if res.certified:
            for line, good in [
                    _compare("S", res.quad.S, [[ref["S"]]]),
                    _compare("T", res.quad.T, [[ref["T"]]]),
                    _compare("X", res.X, [[ref["X"]]]),
                    _compare("AK", res.controller.AK, [[ref["AK"]]]),
                    _compare("BK", res.controller.BK, [[ref["BK"]]]),
                    _compare("CK", res.controller.CK, [[ref["CK"]]])]:
                lines.append(line)
                ok = ok and good
        lines.append(f"  attenuation threshold gamma* = "
                     f"{gamma_threshold(prepare(plant)):.10g} "
                     f"(closed form {ref['gamma_star']:.10g})")
        doc = docio.document_for(plant)
    else:
        spec = devices.DpaSpec(args.kw, args.ku, args.eps, **gamma)
        plant = devices.build_dpa(spec, opts)
        res = synthesize(plant)
        lines.append(f"dpa kappa_w={spec.kappa_w} kappa_u={spec.kappa_u} "
                     f"epsilon={spec.epsilon} gamma={spec.gamma}: "
                     f"branch={spec.case} certified={res.certified}")
        ok = res.certified
        if res.certified and spec.case == "case1":
            ref = devices.dpa_case1_reference(spec)
            line, good = _compare("X", res.X, ref["x_stabilizing"])
            lines.append(line + "  (verified stabilizing form)")
            ok = ok and good
            line, _ = _compare("X(ref)", res.X, ref["X"])
            lines.append(line + "  (printed reference form, known inconsistent)")
        if res.certified and spec.case == "case2":
            S, T, U, V = devices.dpa_case2_stuv(spec)
            for line, good in [_compare("S", res.quad.S, [[S]]),
                               _compare("T", res.quad.T, [[T]]),
                               _compare("U", res.quad.U, [[U]]),
                               _compare("V", res.quad.V, [[V]])]:
                lines.append(line)
                ok = ok and good
        doc = docio.document_for(plant)
    if args.emit:
        docio.save_document(doc, args.emit)
        lines.append(f"document written to {args.emit}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else 2


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parse_args leaves it
    unchanged, so every call of main shares it."""
    p = argparse.ArgumentParser(
        prog="qhinf",
        description="Coherent-feedback H-infinity synthesis for quantum "
                    "linear systems via Lyapunov equations")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="physical realizability + assumption report")
    c.add_argument("path")
    c.add_argument("--out")
    c.set_defaults(fn=cmd_check)

    s = sub.add_parser("synthesize", help="run the synthesis pipeline")
    s.add_argument("path")
    s.add_argument("--gamma", type=float)
    s.add_argument("--method", choices=["lyapunov", "oracle"], default="lyapunov")
    s.add_argument("--json", action="store_true",
                   help="machine-readable report")
    s.add_argument("--out")
    s.set_defaults(fn=cmd_synthesize)

    v = sub.add_parser("verify", help="closed-loop attenuation certificate")
    v.add_argument("plant")
    v.add_argument("controller")
    v.add_argument("--gamma", type=float)
    v.add_argument("--out")
    v.set_defaults(fn=cmd_verify)

    w = sub.add_parser("sweep-gamma", help="certification table over gamma "
                                           "(CSV columns: gamma,certified,hinf)")
    w.add_argument("path")
    w.add_argument("--min", type=float, required=True)
    w.add_argument("--max", type=float, required=True)
    w.add_argument("--steps", type=int, default=25)
    w.add_argument("--out")
    w.set_defaults(fn=cmd_sweep)

    f = sub.add_parser("freqresp", help="singular values of the disturbance-"
                                        "to-performance response "
                                        "(CSV columns: omega,sigma1,...)")
    f.add_argument("path")
    f.add_argument("--wmin", type=float, default=1e-2)
    f.add_argument("--wmax", type=float, default=1e2)
    f.add_argument("--points", type=int, default=200)
    f.add_argument("--out")
    f.set_defaults(fn=cmd_freqresp)

    e = sub.add_parser("example", help="built-in device + golden comparison")
    e.add_argument("device", choices=["cavity", "dpa"])
    e.add_argument("--k1", type=float, default=1.0)
    e.add_argument("--k2", type=float, default=4.0)
    e.add_argument("--kw", type=float, default=1.0)
    e.add_argument("--ku", type=float, default=4.0)
    e.add_argument("--eps", type=float, default=1.0)
    e.add_argument("--gamma", type=float)
    e.add_argument("--emit", help="also write the system document here")
    e.add_argument("--out")
    e.set_defaults(fn=cmd_example)
    return p


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (QhinfError, OSError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
