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
  the conjectured centre bound;
* :func:`exact_f3_solution` solves the one-sided F3 subproblem of
  ``hqc.filtering.one_sided_f3_suprema`` in 50-digit ``mpmath``, through
  the ellipsoid's own eigendecomposition and a bisection on the dual, and
  gives its value, its secular root and its boost direction;
  :func:`exact_f3_oracle` is its value;
* :func:`nelder_mead_search` is the multi-start Nelder-Mead search of
  one-sided CHSH and F3 that ``hqc.filtering.optimize_one_sided`` ran
  before its exact seeds: the reference its results are held to, and the
  search that the pinned trajectories of ``tests/test_filtering.py`` pin;
  :func:`reference_optimum` verifies its filter as the optimiser does;
* :func:`spin_flip_spectrum` gives the normal-form spectrum of
  ``hqc.filtering.normal_form_spectra`` in 50-digit ``mpmath`` from an
  exact-rank factor G of the state (Ginibre's, or :func:`family_factor`'s
  for ``rho_m``, ``rho_mm`` and ``rho_qd``), never from a float rho.

The CHSH oracle ``hqc.brute_force_chsh`` and its helpers stay in
``hqc.correlations``, because the benchmark's scan check imports it from
there; :func:`brute_force_f3` shares those helpers, and normalises its three
directions in one batch-first ``_safe_normalize`` call a step. The CHSH
oracle converges by one batched see-saw alone, but the F3 oracle's
Procrustes see-saw stops short of ||T||_F, so a Nelder-Mead polish
(``hqc.neldermead.minimize``) finishes it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import mpmath
import numpy as np

from hqc.correlations import GRID_DENSITY, SQRT2, SQRT3, _safe_normalize, _unit, chsh_f3_maxima, fibonacci_sphere
from hqc.ellipsoid import Party
from hqc.errors import DomainError, HqcError
from hqc.filtering import (
    SCALE_FLOOR,
    LocalFilter,
    Objective,
    _filter_coordinates,
    _filter_from_params,
    _search_objective,
    apply_one_sided,
)
from hqc.neldermead import minimize
from hqc.serde import _fmt
from hqc.states import RMatrix, SeededRng, to_r_picture

REFINE_ITERS = 200  # Nelder-Mead iterations refining the F3 oracle's best see-saw frame


# start 0's simplex: the identity and the boosts with scipy's 5 % step in d along z, x and y
START_SIMPLEX = ((1.0, 0.0, 0.0), (0.95, 0.0, 0.0), (0.95, math.pi / 2, 0.0), (0.95, math.pi / 2, math.pi / 2))


class ReferenceSearch(NamedTuple):
    """What :func:`nelder_mead_search` found and did."""

    x: tuple[float, float, float]  # the winning (d, theta, phi)
    value: float
    converged: bool  # the winning start stopped on its tolerances, not on max_iters
    starts_used: int  # fewer than the budget once a start reaches the quantum maximum
    best_start: int
    evaluations: int


def nelder_mead_search(r: np.ndarray, party: Party, objective, starts: int, max_iters: int, seed: int):
    """Multi-start Nelder-Mead over x = (d, theta, phi) on ``hqc.filtering._search_objective`` of the
    picture ``r``.

    Start 0's simplex is :data:`START_SIMPLEX`: the identity filter, so the
    result never falls below the unfiltered value, and a boost along each
    axis. Start k draws its point from ``SeededRng(seed, k)`` and builds
    scipy's simplex around it. Every start stops once its vertices agree
    within ``filtering.XATOL`` as filters and within ``filtering.FATOL`` in
    value (both read at call time). Ties resolve to the lowest start index
    within 1e-15, and ``converged`` is the winning start's. The search stops
    early once a start reaches the quantum maximum.
    """
    from hqc import filtering

    fun = _search_objective(r, party, objective)
    maxval = SQRT2 if objective is Objective.CHSH else SQRT3
    bounds = [(SCALE_FLOOR, 1.0), (None, None), (None, None)]
    best_x, best_val, best_start = START_SIMPLEX[0], -fun(START_SIMPLEX[0]), 0
    evaluations = 0
    for start in range(starts):
        if start == 0:
            x0, simplex = START_SIMPLEX[0], START_SIMPLEX
        else:
            gen = SeededRng(seed, start).generator()
            d, th = gen.uniform(0.05, 1.0), gen.uniform(0.0, math.pi / 2)
            ph, ps = gen.uniform(-math.pi, math.pi), gen.uniform(-math.pi, math.pi)
            # the former chart diag(d, 1) . V(th, ph, ps) boosts along (2 th, ph - ps): each start keeps its point
            x0, simplex = (d, 2.0 * th, ph - ps), None
        res = filtering.minimize(
            fun,
            x0,
            bounds=bounds,
            max_iters=max_iters,
            xatol=filtering.XATOL,
            fatol=filtering.FATOL,
            initial_simplex=simplex,
            xatol_map=_filter_coordinates,
        )
        evaluations += res.nfev
        if -res.fun > best_val + 1e-15:
            best_val, best_x, best_start = -res.fun, res.x, start
        if best_start == start:  # always at start 0: the identity it cannot fall below is its own vertex
            converged = res.success
        if best_val >= maxval - 1e-12:
            break  # cannot improve on the quantum maximum
    return ReferenceSearch(best_x, best_val, converged, start + 1, best_start, evaluations)


def reference_optimum(rho, party: Party, objective, starts: int = 8, max_iters: int = 500, seed: int = 0):
    """:func:`nelder_mead_search` of ``rho``'s picture and the value its winning filter gives, read from
    the filtered state's picture as ``optimize_one_sided``'s verification reads it."""
    search = nelder_mead_search(to_r_picture(rho).r, party, objective, starts, max_iters, seed)
    filtered, _ = apply_one_sided(rho, LocalFilter(_filter_from_params(search.x)), party)
    b, f3 = chsh_f3_maxima(to_r_picture(filtered).t)
    return float(b if objective is Objective.CHSH else f3), search


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
            alphas = _safe_normalize((t @ o).T, o.T).T  # column k: T o_k normalised
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


def exact_f3_oracle(r: np.ndarray, party: Party, dps: int = 50):
    """The one-sided F3 supremum of the 4x4 picture ``r`` over filters with d in [SCALE_FLOOR, 1],
    solved in ``dps``-digit ``mpmath`` arithmetic: the value of :func:`exact_f3_solution`."""
    return exact_f3_solution(r, party, dps)[0]


def exact_f3_solution(r: np.ndarray, party: Party, dps: int = 50):
    """The one-sided F3 supremum of the 4x4 picture ``r`` over filters with d in [SCALE_FLOOR, 1],
    the secular root lam and the boost direction n that attain it, solved in ``dps``-digit
    ``mpmath`` arithmetic from the subproblem's definition.

    C is R for Alice and R^T for Bob; B = sum_j c_j c_j^T - K eta with
    K = sum_j c_j^T eta c_j, and l = (1 - a . u, u) = e_0 + M u. The quadratic l^T B l is taken
    to the unit ball through Q = kappa^2 - a a^T's own eigendecomposition, and the trust-region
    subproblem's maximum is the minimum of its dual D(lam) = lam + sum_i h_i^2 / (lam - p_i) over
    lam >= max(p_max, 0), located by bisection on the sign of D' = 1 - |z(lam)|^2 (a hard case ends
    on the interval's lower end, where z's top component, taken with the sign of h's, fills it to
    the sphere). z(lam), scaled onto the sphere unless the optimum is interior, gives u, and
    n = -u / |u|. Returns the mpf value of F3, lam and n as a 3-list of mpf (None where u = 0).
    """
    with mpmath.workdps(dps):
        c = mpmath.matrix([[mpmath.mpf(x) for x in row] for row in (r if party is Party.A else r.T).tolist()])
        eta = mpmath.diag([1, -1, -1, -1])
        cols = [c[:, j] for j in range(4)]
        k = sum((cols[j].T * eta * cols[j])[0] for j in range(1, 4))
        b = sum((cols[j] * cols[j].T for j in range(1, 4)), mpmath.zeros(4, 4)) - k * eta
        a = mpmath.matrix([c[i, 0] for i in range(1, 4)])
        m = mpmath.zeros(4, 3)
        for i in range(3):
            m[0, i] = -a[i]
            m[i + 1, i] = 1
        e0 = mpmath.matrix([1, 0, 0, 0])
        hmat, g, beta = m.T * b * m, m.T * b * e0, (e0.T * b * e0)[0]
        f = mpmath.mpf(SCALE_FLOOR)
        kappa = (1 + f * f) / (1 - f * f)
        # u^T Q u + 2 a . u <= 1 is |Q^(1/2) (u - u_c)| <= rho with u_c = -Q^-1 a, rho^2 = 1 + a^T Q^-1 a
        qw, qv = mpmath.eigsy(kappa**2 * mpmath.eye(3) - a * a.T)
        q_inv = qv * mpmath.diag([1 / w for w in qw]) * qv.T
        u_c = -(q_inv * a)
        rho = mpmath.sqrt(1 + (a.T * q_inv * a)[0])
        w = rho * qv * mpmath.diag([1 / mpmath.sqrt(x) for x in qw]) * qv.T
        pmat = w.T * hmat * w
        h = w.T * (hmat * u_c + g)
        q_c = beta + 2 * (g.T * u_c)[0] + (u_c.T * hmat * u_c)[0]
        p, v = mpmath.eigsy(pmat)
        ht = v.T * h
        terms = [(p[i], ht[i] ** 2) for i in range(3)]
        lo = max(max(p[i] for i in range(3)), mpmath.mpf(0))
        hi = lo + mpmath.sqrt(sum(x for _, x in terms)) + 1

        def norm_sq(lam):
            return sum(x / (lam - pi) ** 2 for pi, x in terms if lam > pi)

        root_at_lo = norm_sq(lo) <= 1
        for _ in range(4 * dps):
            mid = (lo + hi) / 2
            if norm_sq(mid) > 1:
                lo = mid
            else:
                hi = mid
        lam = lo if root_at_lo else hi
        dual = lam + sum(x / (lam - pi) for pi, x in terms if lam > pi)
        zt = [ht[i] / (lam - p[i]) if lam > p[i] else mpmath.mpf(0) for i in range(3)]
        top = max(range(3), key=lambda i: p[i])
        if not root_at_lo:  # on the sphere
            scale = mpmath.sqrt(sum(x * x for x in zt))
            zt = [x / scale for x in zt]
        elif lam == p[top]:  # the hard case; otherwise the optimum is interior
            zt[top] = (1 if ht[top] >= 0 else -1) * mpmath.sqrt(max(1 - sum(x * x for x in zt), 0))
        u = u_c + w * (v * mpmath.matrix(zt))
        norm_u = mpmath.sqrt(sum(u[i] ** 2 for i in range(3)))
        n = None if norm_u == 0 else [-u[i] / norm_u for i in range(3)]
        return mpmath.sqrt(q_c + dual), lam, n


# sigma_y (x) sigma_y is the signed reversal of the four basis vectors
_SPIN_FLIP = ((0, 3, -1), (1, 2, 1), (2, 1, 1), (3, 0, -1))


def spin_flip_spectrum(g, dps: int = 50) -> list:
    """The normal-form spectrum (nu_0, ..., nu_3) of the state G G^dag / Tr, as 4 mpf, in ``dps``-digit
    ``mpmath`` arithmetic from the factor G (an mpmath or nested-list matrix with 4 rows and any number
    of columns), never from a float rho.

    Wootters' lambda of the state are the singular values of G^T (sigma_y (x) sigma_y) G / Tr G G^dag,
    decreasing and padded with zeros to four; nu is the squares of their Hadamard combinations
    (x_1 + x_2 + x_3 + x_4, x_1 + x_2 - x_3 - x_4, x_1 + x_3 - x_2 - x_4, x_1 + x_4 - x_2 - x_3).
    """
    with mpmath.workdps(dps):
        g = mpmath.matrix(g)
        yg = mpmath.matrix(4, g.cols)
        for i, j, s in _SPIN_FLIP:
            for k in range(g.cols):
                yg[i, k] = s * g[j, k]
        trace = sum(abs(g[i, k]) ** 2 for i in range(4) for k in range(g.cols))
        x = sorted(mpmath.svd_c(g.T * yg, compute_uv=False), reverse=True) + [mpmath.mpf(0)] * 4
        x1, x2, x3, x4 = (v / trace for v in x[:4])
        return [(x1 + x2 + x3 + x4) ** 2, (x1 + x2 - x3 - x4) ** 2, (x1 + x3 - x2 - x4) ** 2, (x1 + x4 - x2 - x3) ** 2]


def family_factor(family: str, theta: float, p: float, dps: int = 50) -> list:
    """A factor G with G G^dag the state of ``family`` ("m", "mm" or "qd") at (theta, p), built in
    ``dps``-digit ``mpmath`` from the families' formulas: one column per term of
    p |phi><phi| + (1 - p) noise, each a basis or Bell vector of exact rank one."""
    with mpmath.workdps(dps):
        theta, p = mpmath.mpf(theta), mpmath.mpf(p)
        c, s, q = mpmath.cos(theta), mpmath.sin(theta), mpmath.sqrt(1 - p)
        if family == "qd":
            h = mpmath.sqrt(p / 2)
            signal, noise = [0, h, -h, 0], [[q, 0, 0, 0]]
        else:
            signal = [mpmath.sqrt(p) * c, 0, 0, mpmath.sqrt(p) * s]
            # rho_A (x) 1/2 for m, rho_A (x) rho_B for mm: diagonal, so one column per basis vector
            h = 1 / mpmath.sqrt(2)
            weights = (c * h, c * h, s * h, s * h) if family == "m" else (c * c, c * s, s * c, s * s)
            noise = [[q * w if i == k else 0 for i in range(4)] for k, w in enumerate(weights)]
        return [list(col) for col in zip(signal, *noise)]
