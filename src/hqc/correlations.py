"""CHSH and F3 correlation values, their closed-form maxima, and a CHSH oracle.

The CHSH expression is normalised so the classical bound is 1 and the
quantum maximum is sqrt(2); the F3 steering expression (Bob measuring the
three Pauli operators) has classical bound 1 and quantum maximum sqrt(3).
The closed-form maxima are functions of the singular values of the
correlation matrix T, and :func:`chsh_f3_maxima` is their one expression, a
closed form for the spectrum of T T^T with no eigensolve: the sweep,
``classify_batch``, :func:`chsh_max` and :func:`f3_max` read it, and the
one-sided optimiser's objective runs the same arithmetic on Python floats
(:func:`chsh_f3_value`). :func:`brute_force_chsh` maximises the raw CHSH
expression over explicit measurement directions and exists to cross-check
the closed form independently, by one see-saw over its 8 best
Fibonacci-sphere seed pairs at once, run until no pair's value rises. The
F3 oracle, which shares its seeding and normalising helpers, is test code
(``tests/support.py``).
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .states import RMatrix, pauli_expansion

SQRT2 = math.sqrt(2.0)  # quantum maximum of CHSH
SQRT3 = math.sqrt(3.0)  # quantum maximum of F3, and its normalisation
GRID_DENSITY = 24  # Fibonacci-sphere points seeding the CHSH oracle's see-saws and the F3 oracle's frames
SEESAW_MAX_STEPS = 2000  # cap on the CHSH oracle's see-saw; 578 test states take a median 15 steps, 478 at most


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


# A symmetric 3x3 matrix A is held as its six distinct entries, a (6, n) array: the diagonal
# A00, A11, A22, then A01, A02, A12. _FULL[i][j] is the row that holds A[i, j].
_FULL = np.array([[0, 3, 4], [3, 1, 5], [4, 5, 2]])
_IDENTITY = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])[:, None]  # A - x I keeps A's off-diagonal bits for x >= 0
# The factors f0..f3 of each cofactor C_ij = f0 f1 - f2 f3 = A[i+1, j+1] A[i+2, j+2] -
# A[i+1, j+2] A[i+2, j+1] (indices mod 3), for the cofactors held as A is (C is symmetric too).
_COFACTOR_FACTORS = np.array(
    [
        [_FULL[(i + a) % 3][(j + b) % 3] for i, j in ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))]
        for a, b in ((1, 1), (2, 2), (1, 2), (2, 1))
    ]
)
# The factors of row 0's cofactors C00, C01, C02, then row 0 itself: det A = sum_j A0j C0j.
_DET_FACTORS = np.vstack([_COFACTOR_FACTORS[:, _FULL[0]], _FULL[:1]])
_PERP = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])[:, :, None]  # e1 and e2, reflected onto v's complement
_THIRD_TURN = 2.0 * math.pi / 3.0
_TINY = sys.float_info.min  # the least normal double; p^3 of a vanishing spread floors here


def _cofactors(a: np.ndarray) -> np.ndarray:
    """The six cofactors f0 f1 - f2 f3 of ``a`` held as (6, n), held the same way; the factors
    are gathered two at a time, which halves the gathered rows: a sweep tile's peak memory."""
    f = a.take(_COFACTOR_FACTORS[:2], axis=0)
    c = f[0] * f[1]
    a.take(_COFACTOR_FACTORS[2:], axis=0, out=f, mode="clip")  # the default mode would buffer ``out``
    f[0] *= f[1]
    c -= f[0]
    return c


def gram_entries(t: np.ndarray) -> np.ndarray:
    """The six entries of M = T T^T, held as (6, n), of a (..., 3, 3) stack of float
    correlation matrices: the step of :func:`chsh_f3_maxima` that reads T. Every later
    step reads M alone, through :func:`gram_maxima`, so a caller may drop T first."""
    # components first and the stack last (a view), so that every ufunc loops over the stack;
    # sums of three terms are written out, which fixes their order whatever the stack's length
    t = t.reshape(-1, 3, 3).transpose(1, 2, 0)
    prod = np.empty((6,) + t.shape[1:])
    np.multiply(t, t, prod[:3])
    np.multiply(t[:1], t[1:], prod[3:5])
    np.multiply(t[1], t[2], prod[5])
    m = prod[:, 0] + prod[:, 1]
    m += prod[:, 2]
    return m


def _trigonometric(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """tr M, where r = cos(3 phi) < 0, and l of the trigonometric formula, l_min where r < 0
    and l_max elsewhere, for M held as (6, n)."""
    tr = m[0] + m[1] + m[2]
    q = tr / 3.0
    b = m - q * _IDENTITY
    sq = (b * b).reshape(2, 3, -1)
    sq = sq[:, 0] + sq[:, 1] + sq[:, 2]  # the diagonal's and the upper triangle's sums of squares
    p = np.sqrt((sq[0] + 2.0 * sq[1]) / 6.0)
    f = b.take(_DET_FACTORS, axis=0)  # gathered at once: three cofactors are few rows
    del b
    np.multiply(f[0:4:2], f[1:4:2], f[0:4:2])
    det = f[4] * (f[0] - f[2])
    del f
    p2 = 2.0 * p
    r = (det[0] + det[1] + det[2]) / np.maximum(p2 * p * p, _TINY)  # det = 0 where p = 0
    neg = r < 0.0
    phi = np.arccos(np.minimum(np.maximum(r, -1.0), 1.0)) / 3.0  # r.clip(-1, 1) without its Python wrapper
    phi += _THIRD_TURN * neg  # l_min's offset; elsewhere phi >= 0 is phi + 0
    return tr, neg, q + p2 * np.cos(phi)


def _deflated_mid(m: np.ndarray, l_max: np.ndarray) -> np.ndarray:
    """l_mid as the top eigenvalue of M, held as (6, n), on the complement of l_max's eigenvector."""
    # v: the largest row of the adjugate of M - l_max I, whose rows are cross products of its rows;
    # each temporary is dropped once used, for a sweep tile's peak memory
    adj = _cofactors(m - l_max * _IDENTITY).take(_FULL, axis=0)
    norm2 = adj * adj
    norm2 = norm2[:, 0] + norm2[:, 1] + norm2[:, 2]
    n2 = np.maximum(np.maximum(norm2[0], norm2[1]), norm2[2])
    first = norm2[:2] == n2  # the first of the largest rows, as argmax takes it
    v = np.where(first[0], adj[0], np.where(first[1], adj[1], adj[2]))
    del adj, norm2
    v /= np.sqrt(n2) + (n2 == 0.0)  # v = 0 if A = 0, and stays so over 1
    den = 1.0 + np.abs(v[0])
    f = v[1:] / den
    np.copysign(den, v[0], v[0])  # h = v + sign(v0) e0: v0 and its sign add up to |v0| + 1
    uw = _PERP - f[:, None] * v  # u and w, rows of I - h h^T / (1 + |v0|)
    del v, f, den
    muw = m.take(_FULL[:, 0], axis=0) * uw[:, None, 0]  # Mu and Mw, a column of M at a time
    muw += m.take(_FULL[:, 1], axis=0) * uw[:, None, 1]
    muw += m.take(_FULL[:, 2], axis=0) * uw[:, None, 2]
    prod = uw[:, None] * muw
    del uw, muw
    block = prod[:, :, 0] + prod[:, :, 1] + prod[:, :, 2]
    del prod
    alpha, beta, gamma = block[0, 0], block[1, 0], block[1, 1]
    half = 0.5 * (alpha - gamma)
    return 0.5 * (alpha + gamma) + np.sqrt(half * half + beta * beta)


def chsh_f3_maxima(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CHSH and F3 maxima of a (..., 3, 3) stack of correlation matrices.

    The squared singular values of T are the eigenvalues l_min <= l_mid <=
    l_max of M = T T^T, so B = sqrt(l_max + l_mid) (Horodecki, Horodecki &
    Horodecki, PLA 200, 340, 1995) and F3 = sqrt(tr M) = ||T||_F (Costa &
    Angelo, PRA 93, 020103(R), 2016). F3 needs no eigenvalue at all. For B,
    the trigonometric formula for a symmetric 3x3 matrix (Smith, CACM 4,
    168, 1961; Kopp, Int. J. Mod. Phys. C 19, 523, 2008) gives
    l = q + 2 p cos(phi + 2 pi k / 3) with q = tr M / 3, p the spread of
    M - q I, and cos(3 phi) = r = det((M - q I) / p) / 2. Its arccos loses
    about sqrt(eps) where two eigenvalues meet, so each row takes the
    branch that stays exact:

    * r < 0 (the top pair may meet): B^2 = tr M - l_min, where l_min
      sits at the flat end of the cosine;
    * r >= 0 (the lower pair may meet, as on every pure state): l_max is
      exact there, and l_mid is deflated. v, the eigenvector of l_max, is
      the largest cross product of two rows of M - l_max I (a row of its
      adjugate); a Householder reflection gives an orthonormal pair u, w
      spanning v's complement, and l_mid is the top eigenvalue of the 2x2
      block [[u.Mu, u.Mw], [w.Mu, w.Mw]],
      (alpha + gamma) / 2 + sqrt(((alpha - gamma) / 2)^2 + beta^2).
      An error in v moves that value only to second order.

    M is symmetric to the bit (M_ij and M_ji are the same three products),
    and so is the adjugate, so both are held as their six distinct entries;
    the largest adjugate row is found by comparisons, the first of the
    largest as argmax takes it. The cosine is taken once per row, at the
    angle of the branch the row takes.

    Against 50-digit references both branches hold B and F3 to a relative
    1e-15 (``tests/test_correlations.py::TestPrecisionOracle``). Every step
    is elementwise on the stack, so each row's bits do not depend on the
    rest of the stack. The work is :func:`gram_entries`, then
    :func:`gram_maxima` on its output; the sweep calls the two apart, so
    that it holds no picture through the second. :func:`chsh_f3_value` is
    the same arithmetic on Python floats, for the optimiser's objective.
    """
    t = np.asarray(t, dtype=float)
    shape = t.shape[:-2]
    b, f3 = gram_maxima(gram_entries(t))
    return b.reshape(shape), f3.reshape(shape)


def gram_maxima(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """B and F3 of each column of M = T T^T held as (6, n) (:func:`gram_entries`): every
    step of :func:`chsh_f3_maxima` after the Gram matrix, as (n,) arrays."""
    tr, neg, l = _trigonometric(m)
    b2 = l + _deflated_mid(m, l)  # every row is deflated; where r < 0, l is l_min and b2 is tr - l
    np.subtract(tr, l, out=b2, where=neg)
    return np.sqrt(b2), np.sqrt(tr)


def chsh_f3_value(t, chsh: bool) -> float:
    """B (``chsh``) or F3 of one 3x3 correlation matrix, given as nested rows of floats.

    :func:`chsh_f3_maxima`'s arithmetic, step for step, on Python floats:
    no array is built, which makes one call several times cheaper than a
    batch of one. Only ``math.acos`` and ``math.cos`` may differ from
    numpy's in the last bit, so the two agree to a relative 1e-15, not
    bitwise. F3 alone skips the eigenvalue work.
    """
    (t00, t01, t02), (t10, t11, t12), (t20, t21, t22) = t
    m00 = t00 * t00 + t01 * t01 + t02 * t02
    m11 = t10 * t10 + t11 * t11 + t12 * t12
    m22 = t20 * t20 + t21 * t21 + t22 * t22
    tr = m00 + m11 + m22
    if not chsh:
        return math.sqrt(tr)
    m01 = t00 * t10 + t01 * t11 + t02 * t12
    m02 = t00 * t20 + t01 * t21 + t02 * t22
    m12 = t10 * t20 + t11 * t21 + t12 * t22
    q = tr / 3.0
    d0, d1, d2 = m00 - q, m11 - q, m22 - q
    p = math.sqrt(((d0 * d0 + d1 * d1 + d2 * d2) + 2.0 * (m01 * m01 + m02 * m02 + m12 * m12)) / 6.0)
    det = d0 * (d1 * d2 - m12 * m12) + m01 * (m12 * m02 - m01 * d2) + m02 * (m01 * m12 - d1 * m02)
    r = det / max(2.0 * p * p * p, _TINY)
    phi = math.acos(min(max(r, -1.0), 1.0)) / 3.0
    p2 = 2.0 * p
    if r < 0.0:
        return math.sqrt(tr - (q + p2 * math.cos(phi + _THIRD_TURN)))
    l_max = q + p2 * math.cos(phi)
    a00, a11, a22 = m00 - l_max, m11 - l_max, m22 - l_max
    # the adjugate of the symmetric M - l_max I, by _cofactors' products
    c00, c01, c02 = a11 * a22 - m12 * m12, m12 * m02 - m01 * a22, m01 * m12 - a11 * m02
    c11, c12, c22 = a22 * a00 - m02 * m02, m02 * m01 - m12 * a00, a00 * a11 - m01 * m01
    n0 = c00 * c00 + c01 * c01 + c02 * c02
    n1 = c01 * c01 + c11 * c11 + c12 * c12
    n2 = c02 * c02 + c12 * c12 + c22 * c22
    if n0 >= n1 and n0 >= n2:  # the first of the largest rows, as argmax takes it
        n, v0, v1, v2 = n0, c00, c01, c02
    elif n1 >= n2:
        n, v0, v1, v2 = n1, c01, c11, c12
    else:
        n, v0, v1, v2 = n2, c02, c12, c22
    scale = math.sqrt(n) if n > 0.0 else 1.0
    v0, v1, v2 = v0 / scale, v1 / scale, v2 / scale
    h0 = v0 + math.copysign(1.0, v0)
    den = 1.0 + abs(v0)
    f1, f2 = v1 / den, v2 / den
    u0, u1, u2 = 0.0 - f1 * h0, 1.0 - f1 * v1, 0.0 - f1 * v2
    w0, w1, w2 = 0.0 - f2 * h0, 0.0 - f2 * v1, 1.0 - f2 * v2
    mu0, mu1, mu2 = m00 * u0 + m01 * u1 + m02 * u2, m01 * u0 + m11 * u1 + m12 * u2, m02 * u0 + m12 * u1 + m22 * u2
    mw0, mw1, mw2 = m00 * w0 + m01 * w1 + m02 * w2, m01 * w0 + m11 * w1 + m12 * w2, m02 * w0 + m12 * w1 + m22 * w2
    alpha = u0 * mu0 + u1 * mu1 + u2 * mu2
    beta = w0 * mu0 + w1 * mu1 + w2 * mu2
    gamma = w0 * mw0 + w1 * mw1 + w2 * mw2
    half = 0.5 * (alpha - gamma)
    return math.sqrt(l_max + (0.5 * (alpha + gamma) + math.sqrt(half * half + beta * beta)))


def chsh_max(r: RMatrix) -> tuple[float, SingularTriple]:
    """Closed-form CHSH maximum sqrt(s1^2 + s2^2) over all measurements, with T's singular values.

    B comes from :func:`chsh_f3_maxima`; the singular values come from an SVD
    of T, which keeps the small ones to roundoff (the Gram eigenvalues lose
    them to about 1e-8 on product states).
    """
    return float(chsh_f3_maxima(r.t)[0]), SingularTriple(*np.linalg.svd(r.t, compute_uv=False).tolist())


def f3_max(r: RMatrix) -> float:
    """Closed-form F3 maximum sqrt(s1^2 + s2^2 + s3^2) (= ||T||_F)."""
    return float(chsh_f3_maxima(r.t)[1])


_TRANSPOSE_B = np.array([1.0, 1.0, -1.0, 1.0])  # R's columns under rho -> rho^{T_B}
_E0 = np.array([1.0, 0.0, 0.0])  # Bob's direction where Alice's pair leaves him none


def ppt_test(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Partial-transpose entanglement test (exact for two qubits) on a (..., 4, 4) stack of pictures.

    Transposing subsystem B negates R's sigma_y column (sigma_y^T = -sigma_y),
    so rho^{T_B} is the Pauli expansion of R with R[..., 2] negated. Returns
    ``(min eigenvalue < -1e-10, min eigenvalue)`` from one batched eigensolve;
    the verdict is independent of which side is transposed.
    """
    min_eig = np.linalg.eigvalsh(pauli_expansion(r * _TRANSPOSE_B))[..., 0]
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
    """Each vector along ``v``'s last axis over its norm, or ``fallback``'s where that norm is at
    most 1e-14; a 1-D ``v`` is a batch of one, and ``fallback`` broadcasts against ``v``."""
    n = np.linalg.norm(v, axis=-1, keepdims=True)
    return np.where(n > 1e-14, v / np.maximum(n, 1e-14), fallback)


def _chsh_given_alphas(t: np.ndarray, alpha1: np.ndarray, alpha2: np.ndarray) -> np.ndarray:
    """The CHSH value of Alice's directions along the last axis, with Bob's optimal for them
    (closed form): |T^T (a1 + a2)| / 2 + |T^T (a1 - a2)| / 2."""
    return 0.5 * (np.linalg.norm((alpha1 + alpha2) @ t, axis=-1) + np.linalg.norm((alpha1 - alpha2) @ t, axis=-1))


def brute_force_chsh(r: RMatrix) -> float:
    """Maximise :func:`chsh_value` over the four measurement directions.

    Deterministic pipeline: Fibonacci-sphere seeding of Alice's pair, then
    one see-saw alternation (each side's optimum is closed form given the
    other) over the 8 best seed pairs at once, held as (8, 3) stacks. A pair
    keeps its directions at its first step that does not raise its value,
    and the see-saw ends once no pair's value rises. The returned number is
    chsh_value evaluated at explicit unit vectors of the best pair, so it
    can never exceed the true maximum by more than roundoff.
    """
    t = r.t
    pts = fibonacci_sphere(GRID_DENSITY)
    scores = _chsh_given_alphas(t, pts[:, None], pts)  # every seed pair, with Bob optimal
    best = np.argsort(scores, axis=None)[::-1][:8]
    a1, a2 = pts[best // GRID_DENSITY], pts[best % GRID_DENSITY]
    val = _chsh_given_alphas(t, a1, a2)
    for _ in range(SEESAW_MAX_STEPS):
        b1 = _safe_normalize((a1 + a2) @ t, _E0)
        b2 = _safe_normalize((a1 - a2) @ t, _E0)
        n1 = _safe_normalize((b1 + b2) @ t.T, a1)
        n2 = _safe_normalize((b1 - b2) @ t.T, a2)
        new = _chsh_given_alphas(t, n1, n2)
        rises = new > val  # a pair that does not rise recomputes the same step, so it stays put
        if not rises.any():
            break
        up = rises[:, None]
        a1, a2, val = np.where(up, n1, a1), np.where(up, n2, a2), np.where(rises, new, val)

    k = np.argmax(val)  # the first of the best, as the pairs rank
    a1, a2 = a1[k], a2[k]
    return chsh_value(r, a1, a2, _safe_normalize((a1 + a2) @ t, _E0), _safe_normalize((a1 - a2) @ t, _E0))
