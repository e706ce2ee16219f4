"""Outside-in layer tracer: wraps qhinf functions from the benchmark's side.

Each listed function is replaced, in every loaded qhinf module, wherever an
attribute is bound to that same function object.  Modules that import a
helper by name (cli and report import synthesize and close_loop; plant and
synth import the qls helpers) therefore call the wrapper too.  A listed
function that no longer exists is reported as absent.

Spans (name, start, end, parent span, op id) are kept in memory; self time
is a span's duration minus the time its child spans cover.
"""

import functools
import json
import sys
import time

FUNCTIONS = {
    "plant": ("compute_ax_ay", "check_assumptions", "build_plant"),
    "qls": ("j_symplectic", "sharp_adjoint"),
    "linalg": ("ordered_schur_split", "solve_lyapunov", "hinf_norm",
               "hinf_norm_grid", "gain_at"),
    "synth": ("synthesize", "solve_quad", "assemble_xy", "certify",
              "build_controller", "min_certified_gamma"),
    "passive": ("synthesize_passive", "passive_gamma_threshold",
                "build_passive_controller"),
    "verify": ("are_oracle", "close_loop", "attenuation_certificate"),
    "docio": ("load_document", "instantiate"),
    "report": ("synthesis_report", "render_json", "render_text"),
    "cli": ("main",),
}
NAMES = [f"{m}.{f}" for m, fs in FUNCTIONS.items() for f in fs]


class Tracer:
    """Install with install(), run ops under op(i), restore with remove()."""

    def __init__(self):
        self.spans: list = []      # (name index, start, end, parent, op id)
        self.stack: list[int] = []
        self.op_id = -1
        self.absent: list[str] = []
        self._patched: list = []   # (module, attribute, original)

    def _wrap(self, idx: int, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            me = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(me)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[me] = (idx, t0, t1, parent, self.op_id)
        return traced

    def install(self) -> None:
        import qhinf  # noqa: F401  (loads every qhinf module)
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "qhinf" or name.startswith("qhinf.")) and m]
        for idx, name in enumerate(NAMES):
            mod_name, fn_name = name.split(".")
            home = sys.modules.get(f"qhinf.{mod_name}")
            original = getattr(home, fn_name, None) if home else None
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(idx, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def remove(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def summary(self) -> dict:
        """Per function: calls and self seconds; plus seconds covered by
        top-level spans, per op id."""
        calls = [0] * len(NAMES)
        self_s = [0.0] * len(NAMES)
        child = [0.0] * len(self.spans)
        top = {}
        for i, (idx, t0, t1, parent, op) in enumerate(self.spans):
            dur = t1 - t0
            calls[idx] += 1
            self_s[idx] += dur
            if parent >= 0:
                child[parent] += dur
            else:
                top[op] = top.get(op, 0.0) + dur
        for i, (idx, *_rest) in enumerate(self.spans):
            self_s[idx] -= child[i]
        return {"calls": dict(zip(NAMES, calls)),
                "self_s": dict(zip(NAMES, self_s)),
                "top_s": top}

    def dump(self, path: str) -> None:
        """Write the spans as JSON: names, then [name, start, end, parent, op]."""
        with open(path, "w") as fh:
            json.dump({"names": NAMES, "absent": self.absent,
                       "spans": self.spans}, fh, separators=(",", ":"))
