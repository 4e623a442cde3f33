"""Parametrised two-qubit families and grid scans of their correlation regions.

Three families built from the partially entangled pure state
|phi(theta)> = cos(theta)|00> + sin(theta)|11>, 0 <= theta <= pi/4:

* ``rho_m``:  p |phi><phi| + (1-p) rho_A(theta) (x) 1/2   (one-sided noise)
* ``rho_mm``: p |phi><phi| + (1-p) rho_A(theta) (x) rho_B(theta)
* ``rho_qd``: p |Psi-><Psi-| + (1-p) |00><00|   (quasi-distillable; no theta)

For ``rho_m`` the optimal filtering to the Bell-diagonal normal form is
known in closed form: f_A = sin(theta) diag(1/cos(theta), 1/sin(theta)),
f_B = identity. Scans classify every grid point and are the plot-ready
data for the families' region structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .criteria import Thresholds, classify
from .ellipsoid import Party, ellipsoid_centres
from .errors import DomainError
from .filtering import LocalFilter, identity_filter
from .states import DensityMatrix, to_r_picture, validate_state


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


def _phi_plus(theta: float) -> np.ndarray:
    v = np.zeros(4, dtype=complex)
    v[0] = math.cos(theta)
    v[3] = math.sin(theta)
    return np.outer(v, v.conj())


def _check_params(theta: float, p: float) -> None:
    if not 0.0 <= theta <= math.pi / 4 + 1e-12:
        raise DomainError(f"theta must be in [0, pi/4], got {theta}")
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p must be in [0, 1], got {p}")


def rho_m(theta: float, p: float) -> DensityMatrix:
    """Partially entangled state with one-sided coloured noise.

    The noise term is rho_A(theta) (x) 1/2; the identity factor is
    normalised to the maximally mixed state so the total has unit trace.
    """
    _check_params(theta, p)
    phi = _phi_plus(theta)
    rho_a = np.diag([math.cos(theta) ** 2, math.sin(theta) ** 2]).astype(complex)
    m = p * phi + (1.0 - p) * np.kron(rho_a, np.eye(2, dtype=complex) / 2.0)
    return validate_state(m)


def rho_mm(theta: float, p: float) -> DensityMatrix:
    """Partially entangled state with symmetric coloured noise."""
    _check_params(theta, p)
    phi = _phi_plus(theta)
    rho_a = np.diag([math.cos(theta) ** 2, math.sin(theta) ** 2]).astype(complex)
    m = p * phi + (1.0 - p) * np.kron(rho_a, rho_a)
    return validate_state(m)


def rho_qd(p: float) -> DensityMatrix:
    """Quasi-distillable state p |Psi-><Psi-| + (1-p) |00><00|."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p must be in [0, 1], got {p}")
    psi_minus = np.zeros(4, dtype=complex)
    psi_minus[1] = 1.0 / math.sqrt(2.0)
    psi_minus[2] = -1.0 / math.sqrt(2.0)
    v00 = np.zeros(4, dtype=complex)
    v00[0] = 1.0
    m = p * np.outer(psi_minus, psi_minus.conj()) + (1.0 - p) * np.outer(v00, v00.conj())
    return validate_state(m)


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
    """classify() every grid point; rows ordered theta-major, then p.

    Degenerate points (pure marginals, vanishing normal form) carry flags
    and NaN hidden measures rather than aborting the scan.
    """
    th = th or Thresholds()
    theta_grid = np.atleast_1d(np.asarray(theta_grid, dtype=float))
    p_grid = np.atleast_1d(np.asarray(p_grid, dtype=float))
    if theta_grid.size == 0 or p_grid.size == 0:
        raise DomainError("scan grids must be non-empty")
    make = {Family.M: rho_m, Family.MM: rho_mm, Family.QD: lambda _, p_: rho_qd(p_)}[family]
    rows = []
    for theta in theta_grid:
        for p in p_grid:
            report = classify(to_r_picture(make(float(theta), float(p))), th)
            values = {f.name: getattr(report, f.name) for f in fields(ScanRow)[2:]}
            rows.append(ScanRow(theta=float(theta), p=float(p), **values))
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
        centres, _ = ellipsoid_centres(to_r_picture(rho_qd(p)).r[None], Party.B)
        return float(np.linalg.norm(centres[0]))

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
