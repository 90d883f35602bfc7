"""JSON file formats for models, records, families and linear systems.

All matrices are row-major lists; complex matrices are split into ``_re``
and ``_im`` parts.  These are the interchange schemas the CLI reads and
writes.
"""

from __future__ import annotations

import contextlib
import json
import os

import numpy as np

from .exceptions import QiokitError, ValidationError
from .families import ParameterFamily
from .linear import LinearQSystem
from .operators import QMarkovModel, _array, _check_int, _real_matrix
from .trajectories import CountingRecord, DiffusiveRecord, MeasurementRecord

__all__ = [
    "model_to_dict", "model_from_dict", "save_model", "load_model",
    "record_to_dict", "record_from_dict", "save_record", "load_record",
    "family_to_dict", "family_from_dict", "save_family", "load_family",
    "linear_system_to_dict", "linear_system_from_dict",
    "save_linear_system", "load_linear_system",
    "dump_json", "parse_json_file", "schema_errors",
]


@contextlib.contextmanager
def schema_errors(what: str):
    """Report a missing key or a value of the wrong type or form in a parsed
    ``what`` as a :class:`ValidationError` that names the file kind; also usable
    as a decorator.  An error already naming an inner file's kind is kept."""
    try:
        yield
    except QiokitError as exc:
        if not isinstance(exc, ValidationError) or str(exc).startswith("malformed "):
            raise
        raise ValidationError(f"malformed {what}: {exc}") from exc
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise ValidationError(f"malformed {what}: {detail}") from exc


def _cmat(entry_re, entry_im, name):
    # checked apart: combining an infinite imaginary part makes 0 * inf
    re, im = _array(entry_re, name), _array(entry_im, name)
    if re.shape != im.shape:
        raise ValidationError(f"{name}: real and imaginary parts differ in shape")
    return re + 1j * im


def _split(mat):
    a = np.asarray(mat)
    return a.real.tolist(), a.imag.tolist()


def model_to_dict(model: QMarkovModel) -> dict:
    h_re, h_im = _split(model.H)
    l_re, l_im = _split(model.L)
    return {"dim": model.dim, "H_re": h_re, "H_im": h_im, "L_re": l_re, "L_im": l_im}


@schema_errors("model file")
def model_from_dict(d: dict) -> QMarkovModel:
    dim = _check_int(d["dim"], "dim", 1)
    H = _cmat(d["H_re"], d["H_im"], "H")
    L = _cmat(d["L_re"], d["L_im"], "L")
    if H.shape != (dim, dim) or L.shape != (dim, dim):
        raise ValidationError("model matrices do not match the declared dimension")
    return QMarkovModel(H=H, L=L)


def record_to_dict(record: MeasurementRecord) -> dict:
    if isinstance(record, DiffusiveRecord):
        return {
            "kind": "diffusive",
            "dt": record.dt,
            "increments": record.increments.tolist(),
        }
    if isinstance(record, CountingRecord):
        return {
            "kind": "counting",
            "horizon": record.horizon,
            "jumps": record.jumps.tolist(),
        }
    raise ValidationError(f"unsupported record type {type(record).__name__}")


@schema_errors("record file")
def record_from_dict(d: dict) -> MeasurementRecord:
    kind = d.get("kind")
    if kind == "diffusive":
        return DiffusiveRecord(dt=d["dt"], increments=d["increments"])
    if kind == "counting":
        return CountingRecord(horizon=d["horizon"], jumps=d["jumps"])
    raise ValidationError(f"unknown record kind {kind!r}")


def family_to_dict(family: ParameterFamily) -> dict:
    out = {"base": model_to_dict(family.base), "domain": family.domain.tolist()}
    if family.phase:
        out["kind"] = "phase"
        return out
    out["kind"] = "affine"
    out["h_dirs"] = [dict(zip(("re", "im"), _split(h))) for h in family.h_dirs]
    out["l_dirs"] = [dict(zip(("re", "im"), _split(l))) for l in family.l_dirs]
    return out


@schema_errors("family file")
def family_from_dict(d: dict) -> ParameterFamily:
    base = model_from_dict(d["base"])
    domain = d.get("domain")
    kind = d.get("kind", "affine")
    if kind == "phase":
        return ParameterFamily.phase_family(base, domain=domain)
    if kind != "affine":
        raise ValidationError(f"unknown family kind {kind!r}")
    h_dirs = [_cmat(h["re"], h["im"], "h_dir") for h in d["h_dirs"]]
    l_dirs = [_cmat(l["re"], l["im"], "l_dir") for l in d["l_dirs"]]
    return ParameterFamily.affine(base, h_dirs, l_dirs, domain=domain)


def linear_system_to_dict(G: LinearQSystem) -> dict:
    return {
        "n": G.n,
        "A": G.A.tolist(),
        "B": G.B.tolist(),
        "C": G.C.tolist(),
        "D": G.D.tolist(),
    }


@schema_errors("linear-system file")
def linear_system_from_dict(d: dict) -> LinearQSystem:
    A = _real_matrix(d["A"], "A", (2 * _check_int(d["n"], "n", 0),) * 2)  # the declared mode count
    return LinearQSystem(A=A, B=d["B"], C=d["C"], D=d.get("D"))


def dump_json(obj: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def parse_json_file(path) -> dict:
    """Load a JSON file, reporting parse errors with their line number."""
    with open(os.fspath(path)) as fh:  # an int would open a file descriptor
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def save_model(model, path):
    dump_json(model_to_dict(model), path)


def load_model(path) -> QMarkovModel:
    return model_from_dict(parse_json_file(path))


def save_record(record, path):
    dump_json(record_to_dict(record), path)


def load_record(path) -> MeasurementRecord:
    return record_from_dict(parse_json_file(path))


def save_family(family, path):
    dump_json(family_to_dict(family), path)


def load_family(path) -> ParameterFamily:
    return family_from_dict(parse_json_file(path))


def save_linear_system(G, path):
    dump_json(linear_system_to_dict(G), path)


def load_linear_system(path) -> LinearQSystem:
    return linear_system_from_dict(parse_json_file(path))
