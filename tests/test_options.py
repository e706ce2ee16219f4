import inspect
import io
import re
import tokenize
from dataclasses import fields
from pathlib import Path

import qhinf
from qhinf import passive, plant, report, synth, verify
from qhinf.options import NumericOptions


def test_every_option_is_read():
    # a field that no module reads is dead state: changing it changes nothing
    src = Path(qhinf.__file__).parent
    text = "".join(p.read_text() for p in sorted(src.glob("*.py"))
                   if p.name != "options.py")
    unread = [f.name for f in fields(NumericOptions)
              if not re.search(rf"\.{f.name}\b", text)]
    assert unread == []


# scientific-notation literals allowed in the scanned modules, with why
ALLOWED_LITERALS = {
    ("synth.py", "tol: float = 1e-6) -> float:"):
        "min_certified_gamma's documented bisection width, a request about "
        "the answer's resolution rather than a numerical decision",
    ("synth.py", "PREDICTION_BAND = 1e-8"):
        "min_certified_gamma's band around the predicted gamma*: it sets how "
        "many midpoints get a verdict rather than a prediction, and it must "
        "hold the windows just above gamma* where the loop Hurwitz gates "
        "make certification non-monotone (1e-10 changed 105 of 1192 "
        "bisection results, 1e-8 none)",
    ("qls.py", "hit = s[gap < 1e-12 * np.maximum(1.0, np.abs(s))]"):
        "refuse_poles' root filter for transfer_matrix and `qhinf freqresp`: "
        "whether s is a pole of the system, not a pipeline tolerance",
    ("verify.py", "if linalg.min_singular_value(U1) < 1e-12:"):
        "the oracle's graph test on a block of an orthonormal basis of the "
        "invariant subspace, so the bound is already relative",
    ("verify.py",
     "agreement = abs(cl.hinf - cl.attained) / max(1e-300, cl.hinf)"):
        "guards the division of the bracket width by the norm, not a "
        "numerical decision",
}


def test_no_bare_tolerances():
    # every threshold in the synthesis modules, the verifier, the
    # linear-algebra kernel and the system models reads NumericOptions, so a
    # hard-coded 1e-12 cannot hide from QHINF_PROFILE
    src = Path(qhinf.__file__).parent
    found = []
    for name in ("synth.py", "plant.py", "passive.py", "linalg.py", "qls.py",
                 "verify.py"):
        text = (src / name).read_text()
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            num = tok.string.lower()
            if (tok.type == tokenize.NUMBER and "e" in num
                    and not num.startswith("0x")
                    and (name, tok.line.strip()) not in ALLOWED_LITERALS):
                found.append(f"{name}:{tok.start[0]}: {tok.line.strip()}")
    assert found == []


# every stage that takes a plant reads plant.opts; a per-call opts would be a
# second owner of the plant's tolerances, free to disagree with the first
PLANT_STAGES = [
    plant.HinfPlant.split, passive.PassivePlant.split,
    synth.prepare, synth.solve_quad, synth.verdict, synth.synthesize_at,
    synth.assemble_xy, synth.riccati_residuals, synth.certify,
    synth.build_controller, synth.synthesize, synth.gamma_threshold,
    synth.min_certified_gamma, synth.threshold,
    verify.are_oracle, verify.close_loop, verify.attenuation_certificate,
    report.synthesis_report,
]


def test_plant_stages_take_no_options():
    taking = [f.__qualname__ for f in PLANT_STAGES
              if "opts" in inspect.signature(f).parameters]
    assert taking == []
    # the closed loop carries its plant's gamma to the certificate
    assert "gamma" not in inspect.signature(
        verify.attenuation_certificate).parameters
