"""CHSH and F3 correlation values, their closed-form maxima, and oracles.

The CHSH expression is normalised so the classical bound is 1 and the
quantum maximum is sqrt(2); the F3 steering expression (Bob measuring the
three Pauli operators) has classical bound 1 and quantum maximum sqrt(3).
The closed-form maxima are functions of the singular values of the
correlation matrix T, and :func:`chsh_f3_maxima` is their one expression:
the sweep, ``classify_batch``, the one-sided optimiser, :func:`chsh_max`
and :func:`f3_max` all read it. The brute-force routines maximise the raw
expressions over explicit measurement directions and exist to cross-check
the closed forms independently; their last refinement step is the package's
own Nelder-Mead, :func:`hqc.neldermead.minimize`.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .neldermead import minimize
from .states import RMatrix, pauli_expansion

SQRT2 = math.sqrt(2.0)  # quantum maximum of CHSH
SQRT3 = math.sqrt(3.0)  # quantum maximum of F3, and its normalisation
GRID_DENSITY = 24  # Fibonacci-sphere points seeding the brute-force oracles
REFINE_ITERS = 200  # Nelder-Mead iterations refining the oracles' best seed


class SingularTriple(NamedTuple):
    """Singular values of the correlation matrix, decreasing."""

    s1: float
    s2: float
    s3: float


def _unit(v: np.ndarray, name: str = "measurement") -> np.ndarray:
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if abs(n - 1.0) > 1e-10:
        raise DomainError(f"{name} direction must be unit norm, |v| = {n:.12f}")
    return v


def t_contract(r: RMatrix, alpha: np.ndarray, beta: np.ndarray) -> float:
    """Bilinear form alpha^T T beta (no normalisation of the arguments)."""
    return float(np.asarray(alpha, dtype=float) @ r.t @ np.asarray(beta, dtype=float))


def chsh_value(r: RMatrix, a1, a2, b1, b2) -> float:
    """CHSH value for explicit unit measurement directions.

    Returns (a1.T b1 + a1.T b2 + a2.T b1 - a2.T b2) / 2 where each term is
    the T-contraction of the corresponding directions.
    """
    a1 = _unit(a1, "a1")
    a2 = _unit(a2, "a2")
    b1 = _unit(b1, "b1")
    b2 = _unit(b2, "b2")
    return 0.5 * (
        t_contract(r, a1, b1) + t_contract(r, a1, b2) + t_contract(r, a2, b1) - t_contract(r, a2, b2)
    )


def chsh_f3_maxima(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CHSH and F3 maxima of a (..., 3, 3) stack of correlation matrices.

    The squared singular values of T are the eigenvalues w1 <= w2 <= w3 of
    T T^T, so B = sqrt(w2 + w3) (Horodecki, Horodecki & Horodecki, PLA 200,
    340, 1995) and F3 = sqrt(w1 + w2 + w3) (Costa & Angelo, PRA 93,
    020103(R), 2016), from one batched symmetric eigensolve. Each row's bits
    do not depend on the rest of the stack. The optimiser's Nelder-Mead path,
    and the filter it reports, follow every last bit of this expression.
    """
    w = np.maximum(np.linalg.eigvalsh(t @ t.mT), 0.0)
    w1, w2, w3 = w[..., 0], w[..., 1], w[..., 2]
    return np.sqrt(w3 + w2), np.sqrt(w1 + w2 + w3)


def chsh_max(r: RMatrix) -> tuple[float, SingularTriple]:
    """Closed-form CHSH maximum sqrt(s1^2 + s2^2) over all measurements, with T's singular values.

    B comes from :func:`chsh_f3_maxima`; the singular values come from an SVD
    of T, which keeps the small ones to roundoff (the Gram eigenvalues lose
    them to about 1e-8 on product states).
    """
    return float(chsh_f3_maxima(r.t)[0]), SingularTriple(*np.linalg.svd(r.t, compute_uv=False).tolist())


def f3_value(r: RMatrix, a1, a2, a3) -> float:
    """F3 value for Alice's three unit directions, with Bob's measurements
    fixed to the coordinate Pauli operators."""
    total = 0.0
    for k, alpha in enumerate((a1, a2, a3)):
        alpha = _unit(alpha, f"a{k + 1}")
        total += float(alpha @ r.t[:, k])
    return total / SQRT3


def f3_max(r: RMatrix) -> float:
    """Closed-form F3 maximum sqrt(s1^2 + s2^2 + s3^2) (= ||T||_F)."""
    return float(chsh_f3_maxima(r.t)[1])


def ppt_test(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Partial-transpose entanglement test (exact for two qubits) on a (..., 4, 4) stack of pictures.

    Transposing subsystem B negates R's sigma_y column (sigma_y^T = -sigma_y),
    so rho^{T_B} is the Pauli expansion of R with R[..., 2] negated. Returns
    ``(min eigenvalue < -1e-10, min eigenvalue)`` from one batched eigensolve;
    the verdict is independent of which side is transposed.
    """
    min_eig = np.linalg.eigvalsh(pauli_expansion(r * np.array([1.0, 1.0, -1.0, 1.0])))[..., 0]
    return min_eig < -1e-10, min_eig


def ppt_entangled(r: RMatrix) -> tuple[bool, float]:
    """:func:`ppt_test` of one picture: (entangled, min eigenvalue of rho^{T_B})."""
    entangled, min_eig = ppt_test(r.r)
    return bool(entangled), float(min_eig)


def fibonacci_sphere(n: int) -> np.ndarray:
    """n near-uniform points on the unit sphere (golden-angle spiral)."""
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    radius = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    theta = math.pi * (3.0 - math.sqrt(5.0)) * i
    return np.stack([radius * np.cos(theta), radius * np.sin(theta), z], axis=1)


def _safe_normalize(v: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v)
    return v / n if n > 1e-14 else fallback


def _sph(angles: np.ndarray) -> np.ndarray:
    th, ph = angles
    return np.array([math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph), math.cos(th)])


def _angles_of(v: np.ndarray) -> np.ndarray:
    return np.array([math.acos(np.clip(v[2], -1.0, 1.0)), math.atan2(v[1], v[0])])


def _chsh_given_alphas(t: np.ndarray, alpha1: np.ndarray, alpha2: np.ndarray) -> float:
    # Optimal Bob directions are closed form for fixed Alice directions.
    return 0.5 * (np.linalg.norm(t.T @ (alpha1 + alpha2)) + np.linalg.norm(t.T @ (alpha1 - alpha2)))


def brute_force_chsh(r: RMatrix) -> float:
    """Maximise :func:`chsh_value` over the four measurement directions.

    Deterministic pipeline: Fibonacci-sphere seeding of Alice's pair, a
    see-saw alternation (each side's optimum is closed form given the
    other), then Nelder-Mead refinement on the spherical coordinates of
    Alice's directions. The returned number is chsh_value evaluated at
    explicit unit vectors, so it can never exceed the true maximum by more
    than roundoff.
    """
    t = r.t
    pts = fibonacci_sphere(GRID_DENSITY)
    # score every seed pair with the beta-optimised objective
    tp = pts @ t  # row k = pts[k]^T T
    scores = np.empty((GRID_DENSITY, GRID_DENSITY))
    for i in range(GRID_DENSITY):
        sums = np.linalg.norm(tp[i] + tp, axis=1)
        diffs = np.linalg.norm(tp[i] - tp, axis=1)
        scores[i] = 0.5 * (sums + diffs)
    flat = np.argsort(scores, axis=None)[::-1][:8]
    best_pairs = [(pts[k // GRID_DENSITY], pts[k % GRID_DENSITY]) for k in flat]

    def seesaw(a1, a2):
        val = _chsh_given_alphas(t, a1, a2)
        for _ in range(60):
            b1 = _safe_normalize(t.T @ (a1 + a2), np.array([1.0, 0, 0]))
            b2 = _safe_normalize(t.T @ (a1 - a2), np.array([1.0, 0, 0]))
            a1 = _safe_normalize(t @ (b1 + b2), a1)
            a2 = _safe_normalize(t @ (b1 - b2), a2)
            new = _chsh_given_alphas(t, a1, a2)
            if new - val < 1e-13:
                val = new
                break
            val = new
        return val, a1, a2

    best_val, best_a1, best_a2 = -np.inf, None, None
    for a1, a2 in best_pairs:
        val, a1, a2 = seesaw(a1.copy(), a2.copy())
        if val > best_val:
            best_val, best_a1, best_a2 = val, a1, a2

    x0 = np.concatenate([_angles_of(best_a1), _angles_of(best_a2)])
    res = minimize(
        lambda x: -_chsh_given_alphas(t, _sph(x[:2]), _sph(x[2:])), x0, max_iters=REFINE_ITERS, xatol=1e-12, fatol=1e-14
    )
    if -res.fun > best_val:
        best_a1, best_a2 = _sph(res.x[:2]), _sph(res.x[2:])
    b1 = _safe_normalize(t.T @ (best_a1 + best_a2), np.array([1.0, 0, 0]))
    b2 = _safe_normalize(t.T @ (best_a1 - best_a2), np.array([1.0, 0, 0]))
    return chsh_value(r, best_a1, best_a2, b1, b2)


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
