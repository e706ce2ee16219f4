"""Report assembly for synthesis runs.

Reports are rebuilt from the result matrices every time they are rendered,
so a report can never disagree with the object it describes.
"""

import numpy as np

from .docio import complex_to_pairs, json_text
from .synth import SynthesisResult
from .verify import attenuation_certificate, close_loop


def _num(x) -> float | None:
    return None if x is None else float(x)


def _mat(M) -> np.ndarray | None:
    if M is None:
        return None
    M = np.atleast_2d(np.asarray(M))
    return complex_to_pairs(M) if np.iscomplexobj(M) else M.astype(float)


def synthesis_report(plant, result: SynthesisResult) -> dict:
    """Machine-readable account of one synthesis run.

    Closed-loop figures are recomputed here from the stored matrices, with
    the plant's tolerances, as the synthesis used; the method path records
    which certification route applied (the passive route is exact, the
    symmetric regime is exact, the general one is sufficient).  Matrix
    entries (X, Y, the Lyapunov solutions, the controller) are float
    arrays, complex data as [re, im] pairs (docio.complex_to_pairs);
    render_json writes them as nested JSON lists.
    """
    method = {"passive": "passive-exact",
              "symmetric-iff": "general-symmetric-exact"}.get(
                  result.regime, "general-sufficient")
    rep = {
        "gamma": float(result.gamma),
        "certified": bool(result.certified),
        "method_path": method,
        "failure": result.failure,
        "rho_xy": _num(result.rho_xy),
        "sigma_condition": result.sigma_condition,
        "diagnostics": {k: (v if not isinstance(v, (np.floating, np.bool_))
                            else v.item())
                        for k, v in result.diagnostics.items()},
        "X": _mat(result.X),
        "Y": _mat(result.Y),
    }
    if result.schur is not None:
        rep["split"] = {
            "n_stable": result.schur.n_stable,
            "n_anti": result.schur.n_anti,
        }
    if result.quad is not None:
        rep["lyapunov"] = {name: _mat(getattr(result.quad, name))
                           for name in ("S", "T", "U", "V", "SmTg", "UmVg")}
    if result.controller is not None:
        k = result.controller
        rep["controller"] = {
            "AK": _mat(k.AK), "BK": _mat(k.BK), "CK": _mat(k.CK),
            "BKtilde": _mat(k.BKtilde), "CKtilde": _mat(k.CKtilde),
            "pr_residual": float(k.pr_residual),
            "needs_augmentation": bool(k.needs_augmentation),
        }
        cert = attenuation_certificate(close_loop(plant, k))
        rep["closed_loop"] = {
            "internally_stable": cert.internally_stable,
            "hinf": _num(cert.hinf),
            "margin": _num(cert.margin),
            "attenuation_passed": cert.passed,
            "grid_cross_check": _num(cert.grid_value),
            "witness_margin": _num(cert.witness_margin),
            "witness_p_min": _num(cert.witness_p_min),
        }
    return rep


def render_text(rep: dict) -> str:
    """Human-readable rendering of a synthesis report."""
    lines = [
        f"gamma                : {rep['gamma']:.10g}",
        f"certified            : {rep['certified']}",
        f"method path          : {rep['method_path']}",
    ]
    if rep.get("failure"):
        lines.append(f"refusal reason       : {rep['failure']}")
    if rep.get("rho_xy") is not None:
        lines.append(f"rho(XY)              : {rep['rho_xy']:.6e}")
    if rep.get("sigma_condition") is not None:
        lines.append(f"sigma short-cut      : {rep['sigma_condition']}")
    if "split" in rep:
        lines.append(f"stable/anti split    : "
                     f"{rep['split']['n_stable']}/{rep['split']['n_anti']}")
    if "controller" in rep:
        k = rep["controller"]
        lines.append(f"controller PR resid  : {k['pr_residual']:.6e}"
                     + ("  (needs vacuum augmentation)"
                        if k["needs_augmentation"] else "  (realizable as-is)"))
    if "closed_loop" in rep:
        c = rep["closed_loop"]
        lines.append(f"closed-loop stable   : {c['internally_stable']}")
        lines.append(f"closed-loop Hinf     : {c['hinf']:.10g}"
                     f"  (margin {c['margin']:.3e})")
    return "\n".join(lines) + "\n"


def render_json(rep: dict) -> str:
    return json_text(rep)
