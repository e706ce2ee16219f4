"""JSON system-description documents, reports, and CSV export.

Matrices are stored as nested arrays of [re, im] pairs so documents are
human-diffable and representation-explicit.  Documents and reports are
written by json_text, in the layout of json.dumps(indent=2, sort_keys=True),
with each matrix encoded in one pass.  All file writes are atomic (write to
a temp file in the same directory, then rename).
"""

import json
import os
import re
import sys
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .devices import CavitySpec, DpaSpec, build_cavity, build_dpa
from .errors import QhinfError
from .options import DEFAULT, NumericOptions
from .passive import build_passive_plant
from .plant import HinfPlant, Plant, build_plant
from .qls import SlhModel
from .synth import Controller

SCHEMA_VERSION = "1"
KINDS = ("slh", "plant", "passive_plant", "cavity", "dpa", "controller")


class DocumentError(QhinfError, ValueError):
    """Malformed or inconsistent system document."""


def complex_to_pairs(M: np.ndarray) -> np.ndarray:
    """M as a real array of [re, im] pairs, shape M.shape + (2,) (at least
    2-D), the form documents store."""
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    return np.stack([M.real, M.imag], -1)


def pairs_to_complex(data, where: str = "matrix") -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DocumentError(f"{where}: entries must be [re, im] number pairs") from exc
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise DocumentError(
            f"{where}: expected a 2-D matrix of [re, im] pairs, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DocumentError(f"{where}: entries must be finite")
    return arr[..., 0] + 1j * arr[..., 1]


def require_real(M: np.ndarray, where: str) -> np.ndarray:
    """The real part of a document matrix that must be real (a quadrature
    plant's, or a controller closed around one); raises DocumentError when
    any imaginary part is nonzero."""
    if np.max(np.abs(M.imag), initial=0.0) > 0:
        raise DocumentError(f"{where}: must be real (all imaginary parts zero)")
    return M.real


# json_text's stand-in for an array leaf; json.dumps writes it as
# "\u0000ndarray:<i>\u0000"
_ARRAY_LEAF = "\0ndarray:{}\0"
_ARRAY_LEAF_TEXT = re.compile(r'"\\u0000ndarray:(\d+)\\u0000"')


def _array_text(A: np.ndarray, indent: int) -> str:
    """A non-empty array as json.dumps(A.tolist(), indent=2) writes it when
    its opening bracket sits on a line indented by indent spaces.

    The C encoder writes the compact form in one pass.  In a compact regular
    array the separator between siblings at depth d is "]"*(k-d) ", "
    "["*(k-d), and no number contains a bracket or ", ", so one replace per
    depth, outermost first, puts each bracket and entry on its own line.
    """
    k = A.ndim
    nl = ["\n" + " " * (indent + 2 * d) for d in range(k + 1)]

    def closing(d):     # close the lists of levels k-1 down to d
        return "".join(nl[j] + "]" for j in range(k - 1, d - 1, -1))

    def opening(d):     # open the lists of levels d up to k-1
        return "".join("[" + nl[j + 1] for j in range(d, k))

    s = opening(0) + json.dumps(A.tolist())[k:-k] + closing(0)
    for d in range(1, k + 1):
        r = k - d
        s = s.replace("]" * r + ", " + "[" * r, closing(d) + "," + nl[d] + opening(d))
    return s


def json_text(payload) -> str:
    """json.dumps(payload, indent=2, sort_keys=True) + "\n", byte for byte,
    with every np.ndarray leaf written as its tolist() would be.

    The stdlib encoder writes the skeleton with a stand-in string for each
    non-empty array, and _array_text writes the array itself in one C-level
    pass.  Empty, 0-d and non-numeric arrays, and every array of a payload
    whose strings could be taken for a stand-in, go through the stdlib
    encoder as lists.
    """
    arrays = []

    def skeleton(obj, stand_in):
        if isinstance(obj, dict):
            return {k: skeleton(v, stand_in) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [skeleton(v, stand_in) for v in obj]
        if not isinstance(obj, np.ndarray):
            return obj
        if not (stand_in and obj.ndim and obj.size and obj.dtype.kind in "biuf"):
            return obj.tolist()
        arrays.append(obj)
        return _ARRAY_LEAF.format(len(arrays) - 1)

    text = json.dumps(skeleton(payload, True), indent=2, sort_keys=True)
    leaves = list(_ARRAY_LEAF_TEXT.finditer(text))
    if len(leaves) != len(arrays):
        return json.dumps(skeleton(payload, False), indent=2, sort_keys=True) + "\n"
    parts, end = [], 0
    for m in leaves:
        line = text[text.rfind("\n", 0, m.start()) + 1:m.start()]
        parts += [text[end:m.start()],
                  _array_text(arrays[int(m[1])], len(line) - len(line.lstrip(" ")))]
        end = m.end()
    parts.append(text[end:])
    return "".join(parts) + "\n"


def atomic_write_text(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@dataclass
class SystemDocument:
    """Parsed on-disk description of a system plus target gamma."""
    kind: str
    matrices: dict
    params: dict = field(default_factory=dict)
    gamma: float | None = None
    schema_version: str = SCHEMA_VERSION

    def to_json(self) -> str:
        payload = {
            "schema_version": self.schema_version,
            "kind": self.kind,
            "matrices": {k: complex_to_pairs(v) for k, v in self.matrices.items()},
            "params": self.params,
        }
        if self.gamma is not None:
            payload["gamma"] = self.gamma
        return json_text(payload)


def save_document(doc: SystemDocument, path: str) -> None:
    atomic_write_text(path, doc.to_json())


def load_document(path: str) -> SystemDocument:
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DocumentError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    if not isinstance(payload, dict):
        raise DocumentError(f"{path}: top level must be an object")
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise DocumentError(f"{path}: unrecognized schema_version {version!r}")
    kind = payload.get("kind")
    if kind not in KINDS:
        raise DocumentError(f"{path}: kind must be one of {KINDS}, got {kind!r}")
    for name in ("matrices", "params"):
        if not isinstance(payload.get(name, {}), dict):
            raise DocumentError(f"{path}: {name} must be an object")
    matrices = {k: pairs_to_complex(v, where=f"{path}: matrices.{k}")
                for k, v in payload.get("matrices", {}).items()}
    gamma = payload.get("gamma")
    if gamma is not None and not (_finite_number(gamma) and gamma > 0):
        raise DocumentError(f"{path}: gamma must be a positive finite number")
    return SystemDocument(kind=kind, matrices=matrices,
                          params=payload.get("params", {}),
                          gamma=gamma, schema_version=version)


def _finite_number(x) -> bool:
    """Whether a JSON value is a number (an int or a float, not a bool) that
    a finite double can hold."""
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max)


def _require(doc: SystemDocument, names: tuple, path: str = "document"):
    missing = [n for n in names if n not in doc.matrices]
    if missing:
        raise DocumentError(f"{path}: kind {doc.kind!r} needs matrices {missing}")


def _params(doc: SystemDocument, names: tuple, path: str = "document") -> list:
    """The device parameters names of doc, each present and a finite number."""
    missing = [n for n in names if n not in doc.params]
    if missing:
        raise DocumentError(f"{path}: kind {doc.kind!r} needs params {missing}")
    bad = [n for n in names if not _finite_number(doc.params[n])]
    if bad:
        raise DocumentError(f"{path}: params {bad} must be finite numbers")
    return [doc.params[n] for n in names]


def instantiate(doc: SystemDocument, gamma: float | None = None,
                opts: NumericOptions = DEFAULT):
    """Build the model/plant object a document describes.

    gamma overrides the document's value.  Returns SlhModel, HinfPlant,
    PassivePlant, or a plain dict of controller matrices depending on kind.
    """
    g = gamma if gamma is not None else doc.gamma
    if doc.kind == "slh":
        _require(doc, ("S", "Omega_minus", "Omega_plus", "C_minus", "C_plus"))
        m = doc.matrices
        return SlhModel(m["S"], m["Omega_minus"], m["Omega_plus"],
                        m["C_minus"], m["C_plus"], opts=opts)
    if doc.kind == "plant":
        _require(doc, ("Hmat", "C1", "C2", "D12", "D21"))
        m = doc.matrices
        if g is None:
            raise DocumentError("plant document needs gamma")
        return build_plant(require_real(m["Hmat"], "Hmat"),
                           require_real(m["C1"], "C1"),
                           require_real(m["C2"], "C2"),
                           require_real(m["D12"], "D12"),
                           require_real(m["D21"], "D21"), g, opts=opts)
    if doc.kind == "passive_plant":
        _require(doc, ("C1", "C2"))
        m = doc.matrices
        if g is None:
            raise DocumentError("passive_plant document needs gamma")
        return build_passive_plant(m["C1"], m["C2"], m.get("D12"), m.get("D21"),
                                   g, opts=opts)
    # a device document without gamma builds at its spec's default
    spec_gamma = {} if g is None else {"gamma": g}
    if doc.kind == "cavity":
        return build_cavity(CavitySpec(*_params(doc, ("kappa1", "kappa2")),
                                       **spec_gamma), opts=opts)
    if doc.kind == "dpa":
        return build_dpa(DpaSpec(*_params(doc, ("kappa_w", "kappa_u", "epsilon")),
                                 **spec_gamma), opts=opts)
    if doc.kind == "controller":
        _require(doc, ("AK", "BK", "CK"))
        return {k: doc.matrices[k] for k in ("AK", "BK", "CK")}
    raise DocumentError(f"unhandled kind {doc.kind!r}")


def document_for(obj, gamma: float | None = None) -> SystemDocument:
    """Inverse of instantiate for the object kinds the CLI emits."""
    if isinstance(obj, SlhModel):
        return SystemDocument("slh", {
            "S": obj.S, "Omega_minus": obj.Omega_minus,
            "Omega_plus": obj.Omega_plus,
            "C_minus": obj.C_minus, "C_plus": obj.C_plus}, gamma=gamma)
    if isinstance(obj, Plant):
        mats = {"C1": obj.C1, "C2": obj.C2, "D12": obj.D12, "D21": obj.D21}
        if isinstance(obj, HinfPlant):
            return SystemDocument("plant", {"Hmat": obj.Hmat, **mats}, gamma=obj.gamma)
        return SystemDocument("passive_plant", mats, gamma=obj.gamma)
    if isinstance(obj, Controller):
        return SystemDocument("controller", {
            "AK": obj.AK, "BK": obj.BK, "CK": obj.CK}, gamma=gamma)
    raise DocumentError(f"cannot serialize object of type {type(obj).__name__}")


def csv_text(header: list[str], rows: list[list]) -> str:
    def fmt(x):
        if isinstance(x, (bool, np.bool_)) or isinstance(x, (int, np.integer)):
            return str(int(x))
        if isinstance(x, (float, np.floating)):
            return repr(float(x))
        return str(x)

    lines = [",".join(header)] + [",".join(fmt(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    atomic_write_text(path, csv_text(header, rows))
