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
structure: a scan checks the whole grid once and classifies each theta
row as one batch over p, returning ``classify_batch``'s reports as they
are, one (theta, p, report) triple per point. A row's states are convex
combinations of its two endpoints, the table's own projectors and
products, so they are states without a check; the family builders
validate what they build.

On the quasi-distillable line the regions end where the steering-ellipsoid
centre crosses a threshold t. With a = b = (0, 0, 1 - p) and
T = diag(-p, -p, 1 - 2p), the centre c = gamma^2 (b - T^T a) has magnitude
2 (1 - p) / (2 - p) for both parties, so :func:`qd_centre_boundary`
returns the exact inverse p* = 2 (1 - t) / (2 - t).
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .criteria import InaccessibilityReport, Thresholds, classify_batch
from .errors import DomainError
from .filtering import LocalFilter, identity_filter
from .states import DensityMatrix, r_pictures, validate_state


class Family(Enum):
    M = "m"
    MM = "mm"
    QD = "qd"


def _projector(*amplitudes: float) -> np.ndarray:
    v = np.array(amplitudes, dtype=complex)
    return v[:, None] * v.conj()  # np.outer's product


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a (x) b of two 2x2 matrices: np.kron's broadcast product, without its shape handling."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)


def _rho_a(theta: float) -> np.ndarray:
    return np.diag([math.cos(theta) ** 2, math.sin(theta) ** 2]).astype(complex)


# (signal, noise) of each family at theta; its state at (theta, p) is p signal + (1 - p) noise.
# The identity factor of rho_m's noise is normalised to the maximally mixed state.
_ENDPOINTS = {
    Family.M: lambda t: (_projector(math.cos(t), 0, 0, math.sin(t)), _kron(_rho_a(t), np.eye(2) / 2.0)),
    Family.MM: lambda t: (_projector(math.cos(t), 0, 0, math.sin(t)), _kron(_rho_a(t), _rho_a(t))),
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
) -> list[tuple[float, float, InaccessibilityReport]]:
    """Classify every grid point into (theta, p, report) triples, theta-major, then p.

    The whole grid is checked before anything is classified. Degenerate
    points (pure marginals, vanishing normal form) carry flags and NaN
    hidden measures rather than aborting the scan.
    """
    theta_grid = np.atleast_1d(np.asarray(theta_grid, dtype=float))
    p_grid = np.atleast_1d(np.asarray(p_grid, dtype=float))
    if theta_grid.size == 0 or p_grid.size == 0:
        raise DomainError("scan grids must be non-empty")
    _check_params(family, theta_grid, p_grid)
    rows = []
    for theta in theta_grid.tolist():
        signal, noise = _ENDPOINTS[family](theta)
        rho = p_grid[:, None, None] * signal + (1.0 - p_grid)[:, None, None] * noise
        rows.extend((theta, p, report) for p, report in zip(p_grid.tolist(), classify_batch(r_pictures(rho), th)))
    return rows


def qd_centre_boundary(threshold: float) -> float:
    """p at which the quasi-distillable centre magnitude equals ``threshold``.

    rho_qd(p) has a = b = (0, 0, 1 - p) and T = diag(-p, -p, 1 - 2p), so
    gamma^2 = 1 / (1 - |a|^2) = 1 / (p (2 - p)) and Bob's steering centre
    c_B = gamma^2 (b - T^T a) = gamma^2 (0, 0, 2p (1 - p)) has magnitude
    2 (1 - p) / (2 - p) (Alice's is the same by symmetry). It falls
    monotonically from 1 (p -> 0) to 0 (p = 1), and its inverse at
    threshold t is p* = 2 (1 - t) / (2 - t).
    """
    if not 0.0 < threshold < 1.0:
        raise DomainError(f"threshold must be in (0, 1), got {threshold}")
    return 2.0 * (1.0 - threshold) / (2.0 - threshold)
