"""Parametrised two-qubit families and grid scans of their correlation regions.

Three families built from the partially entangled pure state
|phi(theta)> = cos(theta)|00> + sin(theta)|11>, 0 <= theta <= pi/4:

* ``rho_m``:  p |phi><phi| + (1-p) rho_A(theta) (x) 1/2   (one-sided noise)
* ``rho_mm``: p |phi><phi| + (1-p) rho_A(theta) (x) rho_B(theta)
* ``rho_qd``: p |Psi-><Psi-| + (1-p) |00><00|   (quasi-distillable; no theta)

Each is p signal(theta) + (1-p) noise(theta), one row of a shared table.
For ``rho_m`` the optimal filtering to the Bell-diagonal normal form is
known in closed form: f_A = sin(theta) diag(1/cos(theta), 1/sin(theta)),
f_B = identity. Scans are the plot-ready data for the families' region
structure: a scan checks the whole grid once, validates each theta row's
two endpoints (the row's states are their convex combinations), and
classifies the row as one batch over p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .criteria import Thresholds, classify_batch
from .ellipsoid import Party, ellipsoid_centres
from .errors import DomainError
from .filtering import LocalFilter, identity_filter
from .states import DensityMatrix, r_pictures, to_r_picture, validate_state


class Family(Enum):
    M = "m"
    MM = "mm"
    QD = "qd"


@dataclass(frozen=True)
class ScanRow:
    """classify() output at one grid point: after theta and p, report fields of the same names."""

    theta: float
    p: float
    b: float
    f3: float
    hb_star: float
    hf3_star: float
    c_a: float
    c_b: float
    entangled: bool
    flags: frozenset[str]


_REPORT_FIELDS = tuple(f.name for f in fields(ScanRow)[2:])


def _projector(*amplitudes: float) -> np.ndarray:
    v = np.array(amplitudes, dtype=complex)
    return np.outer(v, v.conj())


def _rho_a(theta: float) -> np.ndarray:
    return np.diag([math.cos(theta) ** 2, math.sin(theta) ** 2]).astype(complex)


# (signal, noise) of each family at theta; its state at (theta, p) is p signal + (1 - p) noise.
# The identity factor of rho_m's noise is normalised to the maximally mixed state.
_ENDPOINTS = {
    Family.M: lambda t: (_projector(math.cos(t), 0, 0, math.sin(t)), np.kron(_rho_a(t), np.eye(2) / 2.0)),
    Family.MM: lambda t: (_projector(math.cos(t), 0, 0, math.sin(t)), np.kron(_rho_a(t), _rho_a(t))),
    Family.QD: lambda _: (_projector(0, 1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0), 0), _projector(1, 0, 0, 0)),
}


def _check_params(family: Family, theta: float | np.ndarray, p: float | np.ndarray) -> None:
    """Raise DomainError unless every theta is in [0, pi/4] (QD has none) and every p in [0, 1]."""
    for name, values, hi in (("theta", theta if family is not Family.QD else 0.0, math.pi / 4 + 1e-12), ("p", p, 1.0)):
        values = np.asarray(values, dtype=float)
        outside = values[~((values >= 0.0) & (values <= hi))]
        if outside.size:
            raise DomainError(f"{name} must be in [0, {'pi/4' if name == 'theta' else 1}], got {outside[0]}")


def _state(family: Family, theta: float, p: float) -> DensityMatrix:
    _check_params(family, theta, p)
    signal, noise = _ENDPOINTS[family](theta)
    return validate_state(p * signal + (1.0 - p) * noise)


def rho_m(theta: float, p: float) -> DensityMatrix:
    """Partially entangled state with one-sided coloured noise rho_A(theta) (x) 1/2."""
    return _state(Family.M, theta, p)


def rho_mm(theta: float, p: float) -> DensityMatrix:
    """Partially entangled state with symmetric coloured noise."""
    return _state(Family.MM, theta, p)


def rho_qd(p: float) -> DensityMatrix:
    """Quasi-distillable state p |Psi-><Psi-| + (1-p) |00><00|."""
    return _state(Family.QD, 0.0, p)


def paper_filter_rho_m(theta: float) -> tuple[LocalFilter, LocalFilter]:
    """Closed-form optimal filter pair for ``rho_m`` (Bob does nothing).

    f_A = sin(theta) diag(1/cos(theta), 1/sin(theta)), renormalised to
    largest singular value 1; invalid at theta = 0 where the filter loses
    invertibility.
    """
    if not 0.0 < theta <= math.pi / 4 + 1e-12:
        raise DomainError(f"theta must be in (0, pi/4], got {theta}")
    fa = math.sin(theta) * np.diag([1.0 / math.cos(theta), 1.0 / math.sin(theta)])
    return LocalFilter.from_matrix(fa), identity_filter()


def scan_family(
    family: Family,
    theta_grid: np.ndarray,
    p_grid: np.ndarray,
    th: Thresholds | None = None,
) -> list[ScanRow]:
    """Classify every grid point; rows ordered theta-major, then p.

    The whole grid is checked before anything is classified. Degenerate
    points (pure marginals, vanishing normal form) carry flags and NaN
    hidden measures rather than aborting the scan.
    """
    th = th or Thresholds()
    theta_grid = np.atleast_1d(np.asarray(theta_grid, dtype=float))
    p_grid = np.atleast_1d(np.asarray(p_grid, dtype=float))
    if theta_grid.size == 0 or p_grid.size == 0:
        raise DomainError("scan grids must be non-empty")
    _check_params(family, theta_grid, p_grid)
    rows = []
    for theta in theta_grid.tolist():
        signal, noise = (validate_state(m).matrix for m in _ENDPOINTS[family](theta))
        rho = p_grid[:, None, None] * signal + (1.0 - p_grid)[:, None, None] * noise
        for p, report in zip(p_grid.tolist(), classify_batch(r_pictures(rho), th)):
            rows.append(ScanRow(theta, p, *(getattr(report, name) for name in _REPORT_FIELDS)))
    return rows


def qd_centre_boundary(threshold: float, tol: float = 1e-10) -> float:
    """p at which the quasi-distillable centre magnitude crosses ``threshold``.

    The centre magnitude decreases monotonically from 1 (p -> 0) to 0
    (p = 1); the root is found by bisection on the numerically computed
    ellipsoid centre, not on a closed form.
    """
    if not 0.0 < threshold < 1.0:
        raise DomainError(f"threshold must be in (0, 1), got {threshold}")

    def centre(p: float) -> float:
        return float(np.linalg.norm(ellipsoid_centres(to_r_picture(rho_qd(p)).r[None], Party.B)[0], axis=-1)[0])

    lo, hi = 1e-6, 1.0 - 1e-12
    if centre(lo) <= threshold:
        raise DomainError(f"centre magnitude never exceeds threshold {threshold}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if centre(mid) > threshold:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
