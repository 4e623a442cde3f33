"""Canonical file formats for states, filters, reports, and scan/sweep CSVs.

Formats:

* State JSON: ``{"dim": [2, 2], "matrix": [[{"re": x, "im": y}, ...4], ...4]}``
* Violation dump ``states/violation_<index>.json``: the state JSON of a
  sweep's would-be counterexample plus a ``violation`` block
  ``{"index", "b", "f3", "c_a", "c_b", "reasons"}``.
* Correlation-picture CSV ("rcsv"): 4 rows of 4 comma-separated reals.
* Filter JSON: ``{"f": [[{"re": x, "im": y}, ...2], ...2]}``
* Scan CSV header: ``theta,p,B,F3,HBstar,HF3star,cA,cB,entangled,flags``
  (flags as semicolon-joined tokens).
* Envelope CSV header: ``c_mid,max_B,max_F3,count``.

All floats are written with :func:`repr`, which preserves the full 17
significant digits of information needed for exact round-tripping; every
JSON document, stdout included, goes through :func:`write_json`.
"""

from __future__ import annotations

import json
import math
import os
from typing import Any, TextIO

import numpy as np

from .criteria import InaccessibilityReport
from .ellipsoid import SteeringEllipsoid
from .errors import ParseError
from .filtering import LocalFilter, OneSidedResult
from .montecarlo import Bins, Violation
from .states import DEFAULT_TOL, DensityMatrix, RMatrix, validate_state


def _fmt(x: float) -> str:
    return repr(float(x))


def _complex_rows(m: np.ndarray) -> list:
    """A complex matrix as rows of ``{"re": x, "im": y}`` objects."""
    return [[{"re": float(z.real), "im": float(z.imag)} for z in row] for row in m]


def _complex_from(obj: Any, where: str) -> complex:
    if not isinstance(obj, dict) or "re" not in obj or "im" not in obj:
        raise ParseError(f"{where}: expected {{'re': x, 'im': y}}, got {obj!r}")
    try:
        return complex(float(obj["re"]), float(obj["im"]))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: non-numeric entry {obj!r}") from exc


def _complex_matrix(rows: Any, n: int, key: str, what: str) -> np.ndarray:
    """The n x n complex matrix that :func:`_complex_rows` wrote under ``key``, described as ``what`` in errors."""
    if not isinstance(rows, list) or len(rows) != n or any(not isinstance(r, list) or len(r) != n for r in rows):
        raise ParseError(f"{what} must be a {n}x{n} array of {{re, im}} objects")
    return np.array([[_complex_from(z, f"{key}[{i}][{j}]") for j, z in enumerate(row)] for i, row in enumerate(rows)])


def state_to_dict(rho: DensityMatrix) -> dict:
    return {"dim": [2, 2], "matrix": _complex_rows(rho.matrix)}


def state_from_dict(obj: Any, tol: float = DEFAULT_TOL) -> DensityMatrix:
    if not isinstance(obj, dict):
        raise ParseError(f"state document must be an object, got {type(obj).__name__}")
    if obj.get("dim") != [2, 2]:
        raise ParseError(f"state dim must be [2, 2], got {obj.get('dim')!r}")
    return validate_state(_complex_matrix(obj.get("matrix"), 4, "matrix", "state matrix"), tol)


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc


def _read_json(path: str) -> Any:
    text = _read_text(path)
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # deep nesting exhausts the decoder's recursion
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc


def load_state_json(path: str, tol: float = DEFAULT_TOL) -> DensityMatrix:
    return state_from_dict(_read_json(path), tol)


def write_json(doc: dict, fh: TextIO) -> None:
    """``doc`` as JSON with one-space indents and a final newline."""
    json.dump(doc, fh, indent=1)
    fh.write("\n")


def dump_state_json(rho: DensityMatrix, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        write_json(state_to_dict(rho), fh)


def dump_violation_json(v: Violation, directory: str) -> str:
    """Write ``v`` to ``directory/violation_<index>.json`` and return that path."""
    doc = state_to_dict(DensityMatrix(v.state))
    doc["violation"] = {"index": v.index, "b": v.b, "f3": v.f3, "c_a": v.c_a, "c_b": v.c_b, "reasons": list(v.reasons)}
    path = os.path.join(directory, f"violation_{v.index}.json")
    with open(path, "w", encoding="utf-8") as fh:
        write_json(doc, fh)
    return path


def rmatrix_from_csv(text: str) -> RMatrix:
    rows = [line for line in text.strip().splitlines() if line.strip()]
    if len(rows) != 4:
        raise ParseError(f"R-matrix CSV must have 4 rows, got {len(rows)}")
    cells = [row.split(",") for row in rows]
    for i, row in enumerate(cells):
        if len(row) != 4:
            raise ParseError(f"R-matrix CSV row {i} has {len(row)} entries, expected 4")
    try:
        arr = np.array([[float(x) for x in row] for row in cells])
    except ValueError as exc:
        raise ParseError(f"R-matrix CSV has non-numeric entries: {exc}") from exc
    if not np.isfinite(arr).all():
        raise ParseError("R-matrix CSV has non-finite entries")
    if abs(arr[0, 0] - 1.0) > 1e-9:
        raise ParseError(f"R[0,0] must be 1, got {arr[0, 0]!r}")
    arr[0, 0] = 1.0
    return RMatrix(arr)


def load_rmatrix_csv(path: str) -> RMatrix:
    return rmatrix_from_csv(_read_text(path))


def filter_to_dict(f: LocalFilter) -> dict:
    return {"f": _complex_rows(f.f)}


def filter_from_dict(obj: Any) -> LocalFilter:
    if not isinstance(obj, dict) or "f" not in obj:
        raise ParseError("filter document must be an object with key 'f'")
    return LocalFilter.from_matrix(_complex_matrix(obj["f"], 2, "f", "filter 'f'"))


def load_filter_json(path: str) -> LocalFilter:
    return filter_from_dict(_read_json(path))


def ellipsoid_to_dict(e: SteeringEllipsoid) -> dict:
    return {
        "centre": [float(x) for x in e.centre],
        "q": [[float(x) for x in row] for row in e.q],
        "semiaxes": [float(x) for x in e.semiaxes],
        "degenerate": bool(e.degenerate),
    }


def _nan_to_none(x: float) -> float | None:
    return None if math.isnan(x) else float(x)


def report_to_dict(report: InaccessibilityReport) -> dict:
    return {
        "b": float(report.b),
        "f3": float(report.f3),
        "hb_star": _nan_to_none(report.hb_star),
        "hf3_star": _nan_to_none(report.hf3_star),
        "c_a": float(report.c_a),
        "c_b": float(report.c_b),
        "entangled": bool(report.entangled),
        "flags": sorted(report.flags),
        "thresholds": {"c_chsh": report.thresholds.c_chsh, "c_f3": report.thresholds.c_f3},
        "degenerate_normal_form": bool(report.degenerate_normal_form),
        "conjecture_conditional": bool(report.conjecture_conditional),
    }


def one_sided_result_to_dict(res: OneSidedResult) -> dict:
    return {
        "value": float(res.value),
        "objective": res.objective.value,
        "party": res.party.value,
        "converged": bool(res.converged),
        "starts_used": 1,  # kept for readers of the multi-start search's output: one polish or one solve
        "best_start": 0,
        "evaluations": int(res.evaluations),
        "at_scale_floor": bool(res.at_scale_floor),
        "filter": filter_to_dict(res.filter),
    }


SCAN_CSV_HEADER = "theta,p,B,F3,HBstar,HF3star,cA,cB,entangled,flags"


def scan_rows_to_csv(rows: list[tuple[float, float, InaccessibilityReport]]) -> str:
    lines = [SCAN_CSV_HEADER]
    flag_text: dict[frozenset[str], str] = {}  # one join per distinct flag set
    for theta, p, report in rows:
        flags = flag_text.get(report.flags)
        if flags is None:
            flags = flag_text[report.flags] = ";".join(sorted(report.flags))
        # _fmt of each value, as two C-level maps
        values = (theta, p, report.b, report.f3, report.hb_star, report.hf3_star, report.c_a, report.c_b)
        lines.append(f"{','.join(map(repr, map(float, values)))},{'true' if report.entangled else 'false'},{flags}")
    return "\n".join(lines) + "\n"


ENVELOPE_CSV_HEADER = "c_mid,max_B,max_F3,count"


def envelope_to_csv(bins: Bins) -> str:
    """The envelope of Bob's row of ``bins``: one line per occupied bin k of his centre magnitude,
    in ascending order, at the bin's midpoint c_mid = (k + 0.5) / bins."""
    n_bins = bins.count.shape[1]
    max_b, max_f3, count = bins.max_b[1].tolist(), bins.max_f3[1].tolist(), bins.count[1].tolist()
    lines = [ENVELOPE_CSV_HEADER]
    for k in np.flatnonzero(count).tolist():
        lines.append(f"{_fmt((k + 0.5) / n_bins)},{_fmt(max_b[k])},{_fmt(max_f3[k])},{count[k]}")
    return "\n".join(lines) + "\n"
