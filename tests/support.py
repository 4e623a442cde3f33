"""Independent references that only the tests use.

Each routine here cross-checks a closed form of the package by another
route, so none of them sits in the runtime:

* :func:`f3_value` and :func:`brute_force_f3` maximise the raw F3 steering
  expression over explicit measurement directions, against
  ``hqc.f3_max`` (F3 = ||T||_F);
* :func:`steered_bloch` computes Bob's conditional Bloch vector for one of
  Alice's outcomes, which must lie on the steering ellipsoid;
* :func:`rmatrix_to_csv` writes the correlation-picture CSV that
  ``hqc.serde.rmatrix_from_csv`` reads;
* :func:`tight_chsh_picture` is the family on which the CHSH maximum meets
  the conjectured centre bound.

The CHSH oracle ``hqc.brute_force_chsh`` and its helpers stay in
``hqc.correlations``, because the benchmark's scan check imports it from
there; :func:`brute_force_f3` shares those helpers.
"""

from __future__ import annotations

import math

import numpy as np

from hqc.correlations import GRID_DENSITY, REFINE_ITERS, SQRT3, _safe_normalize, _unit, fibonacci_sphere
from hqc.errors import DomainError, HqcError
from hqc.neldermead import minimize
from hqc.serde import _fmt
from hqc.states import RMatrix


class ZeroProbability(HqcError):
    """A steering outcome has (numerically) zero probability."""


def f3_value(r: RMatrix, a1, a2, a3) -> float:
    """F3 value for Alice's three unit directions, with Bob's measurements
    fixed to the coordinate Pauli operators."""
    total = 0.0
    for k, alpha in enumerate((a1, a2, a3)):
        alpha = _unit(alpha, f"a{k + 1}")
        total += float(alpha @ r.t[:, k])
    return total / SQRT3


def _rotation_from_rotvec(p: np.ndarray | tuple[float, float, float]) -> np.ndarray:
    p = np.asarray(p)
    theta = np.linalg.norm(p)
    if theta < 1e-14:
        return np.eye(3)
    k = p / theta
    kx = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    return np.eye(3) + math.sin(theta) * kx + (1.0 - math.cos(theta)) * (kx @ kx)


def brute_force_f3(r: RMatrix) -> float:
    """Maximise the three-setting steering expression over all measurements.

    The expression (1/sqrt(3)) sum_k alpha_k^T T beta_k is maximised over
    Alice's unit directions alpha_k and Bob's orthonormal measurement triad
    {beta_k} (:func:`f3_value` is the special case beta_k = e_k). Given the
    triad, the optimal alpha_k = T beta_k / |T beta_k| is closed form, so
    the search runs over triads: deterministic axis-angle seeding, a
    see-saw alternation (the triad step is an orthogonal Procrustes
    problem), then Nelder-Mead refinement on a rotation-vector chart. The
    returned value is the expression evaluated at explicit unit vectors.
    """
    t = r.t

    def frame_value(o: np.ndarray) -> float:
        return float(np.linalg.norm(t @ o, axis=0).sum()) / SQRT3

    def seesaw(o: np.ndarray) -> tuple[float, np.ndarray]:
        val = frame_value(o)
        for _ in range(100):
            alphas = np.empty((3, 3))
            for k in range(3):
                alphas[:, k] = _safe_normalize(t @ o[:, k], o[:, k])
            u, _, vt = np.linalg.svd(t.T @ alphas)
            o = u @ vt
            new = frame_value(o)
            if new - val < 1e-14:
                return new, o
            val = new
        return val, o

    seeds = [np.eye(3)]
    for axis in fibonacci_sphere(GRID_DENSITY):
        for angle in (math.pi / 4, math.pi / 2, 3 * math.pi / 4):
            seeds.append(_rotation_from_rotvec(axis * angle))
    ranked = sorted(seeds, key=frame_value, reverse=True)[:6]
    best_val, best_o = -np.inf, np.eye(3)
    for o in ranked:
        val, o = seesaw(o)
        if val > best_val:
            best_val, best_o = val, o

    res = minimize(
        lambda x: -frame_value(_rotation_from_rotvec(x) @ best_o),
        (0.0, 0.0, 0.0),
        max_iters=REFINE_ITERS,
        xatol=1e-12,
        fatol=1e-14,
    )
    if -res.fun > best_val:
        best_o = _rotation_from_rotvec(res.x) @ best_o

    total = 0.0
    for k in range(3):
        beta = _unit(best_o[:, k], f"b{k + 1}")
        alpha = _unit(_safe_normalize(t @ beta, beta), f"a{k + 1}")
        total += float(alpha @ t @ beta)
    return total / SQRT3


def steered_bloch(r: RMatrix, gamma: np.ndarray) -> tuple[np.ndarray, float]:
    """Bob's conditional Bloch vector when Alice applies the POVM effect
    (1 + gamma . sigma)/2.

    Returns (bloch, probability) with probability (1 + a.gamma)/2 and
    bloch = (b + T^T gamma) / (2 probability). Raises ZeroProbability for
    outcomes that never occur.
    """
    gamma = np.asarray(gamma, dtype=float)
    norm = np.linalg.norm(gamma)
    if norm > 1.0 + 1e-10:
        raise DomainError(f"|gamma| = {norm:.12f} exceeds 1")
    p = 0.5 * (1.0 + r.a @ gamma)
    if p <= 1e-12:
        raise ZeroProbability(f"steering outcome probability {p:.3e} <= 1e-12")
    bloch = (r.b + r.t.T @ gamma) / (2.0 * p)
    return bloch, float(p)


def rmatrix_to_csv(r: RMatrix) -> str:
    return "\n".join(",".join(_fmt(x) for x in row) for row in r.r) + "\n"


def tight_chsh_picture(c: float) -> RMatrix:
    """R(c) = [[1, 0, 0, c], [0, -s, 0, 0], [0, 0, -s, 0], [0, 0, 0, -s^2]] with s = sqrt(1 - c).

    Alice's Bloch vector is 0 and Bob's is (0, 0, c), so Bob's centre magnitude is c_B = c and
    Alice's is c_A = c / (1 + c). T's two largest singular values are s and s, so the CHSH maximum
    B = sqrt(2 (1 - c)) equals the conjectured bound f(c_B) for c <= 1/2. Filtering ``rho_qd`` on
    Alice's side by rho_A^(-1/2) gives this family.
    """
    s = math.sqrt(1.0 - c)
    return RMatrix(
        np.array([[1.0, 0.0, 0.0, c], [0.0, -s, 0.0, 0.0], [0.0, 0.0, -s, 0.0], [0.0, 0.0, 0.0, -(1.0 - c)]])
    )
