"""Local filtering, the Bell-diagonal normal form, and hidden correlations.

A local filter is an invertible 2x2 matrix f with f^dag f <= 1, applied as
a post-selected binary measurement; keeping the successful branch maps

    rho -> (f_A (x) f_B) rho (f_A (x) f_B)^dag / Tr[...].

Every two-qubit state has a unique Bell-diagonal normal form on its
filtering orbit; writing nu_0 >= nu_1 >= nu_2 >= nu_3 for the eigenvalues
of eta R eta R^T (eta = diag(1,-1,-1,-1)), the normal form's picture is
diag(1, -sqrt(nu_1/nu_0), -sqrt(nu_2/nu_0), -sqrt(nu_3/nu_0)) and its
correlation maxima are

    hidden CHSH = sqrt((nu_1 + nu_2) / nu_0),
    hidden F3   = sqrt((nu_1 + nu_2 + nu_3) / nu_0).

That matrix is not symmetric and is defective on every rank <= 2 state,
so nu is read from Hermitian solves: the squares of the Hadamard
combinations of Wootters' spin-flip lambda (Wootters, PRL 80, 2245, 1998;
:func:`normal_form_spectra`). Both values are computed for whole
(..., 4, 4) stacks of pictures, one ``eigh`` of rho and one SVD per stack
(:func:`hidden_values`, NaN where the normal form vanishes); the
single-picture functions are those on a batch of one.

The normal-form CHSH value is the supremum of CHSH over two-sided
filtering when it is at least the classical bound 1; below 1 the
supremum is 1, approached by filters tending to rank one, which drive
any state towards a pure product state (e.g. a random state with hidden
CHSH 0.550 reaches 0.999996 under diag(1, 1e-3) on both sides). Hidden F3
is a lower bound on the best F3 value. One-sided optima (one party
filters, the other does nothing) of CHSH are bounded by max(1, hidden
CHSH) and searched numerically; the one-sided F3 optimum over the
optimiser's filters is solved exactly, as a trust-region subproblem
(:func:`one_sided_f3_suprema`).

In the correlation picture a filter f on Alice acts as
R -> Lambda R / (Lambda R)[0, 0], with Lambda_ij = Tr(sigma_j f^dag sigma_i f) / 2
and (Lambda R)[0, 0] the success probability; a filter on Bob acts from
the right with Lambda^T (Verstraete, Dehaene & De Moor, PRA 64, 010101(R),
2001). Any filter is U . h with U unitary and h Hermitian (polar
decomposition), and Lambda(U . h) = diag(1, O(U)) . Lambda(h): a local
rotation, which leaves the singular values of T and hence every
correlation maximum unchanged. Scaled to largest eigenvalue 1, h is
d P_n + P_-n with P_n = (1 + n . sigma) / 2, 0 < d <= 1 and n a unit
vector, and

    Lambda(h) = L(d, n) = [[c, s n^T], [s n, d I + (c - d) n n^T]],
    c = (d^2 + 1) / 2,  s = (d^2 - 1) / 2,

is d times a Lorentz boost of rapidity |ln d| along n. The one-sided
optimiser therefore works on the three parameters (d, n), with d in
[SCALE_FLOOR, 1].

For F3, L's first row l enters only through F3^2 = l^T B l / (l . c_0)^2
(c_0 the first column of R, or of R^T for Bob), and the admissible l
form a cone; normalising l . c_0 = 1 leaves a quadratic over an
ellipsoid, whose maximum is one 3x3 eigensolve and one secular equation
(Moré & Sorensen, SIAM J. Sci. Stat. Comput. 4, 553, 1983). The solve
is batch-first over (n, 4, 4) stacks; the optimiser runs a batch of one.

For CHSH, B^2 is F3^2 of T with its least right singular direction
dropped, so F3 solves on projected pictures seed (:func:`_chsh_seed`) one
polish of (d, n) by the package's own bounded Nelder-Mead,
:func:`hqc.neldermead.minimize`, bound here as ``minimize``. Its
objective unpacks R (R^T for Bob, since R . L^T is the transpose of
L . R^T) into Python floats once per call; each evaluation then takes
the 16 entries of L(d, n) from :func:`_boost`, the one rendition of the
formula above, forms the 10 entries of L . R that the value needs (the
success probability and T, not row 0's marginal part) and reads the
value with :func:`hqc.correlations.chsh_f3_value`, the float rendition
of the closed-form B/F3 formula of :func:`hqc.correlations.chsh_f3_maxima`,
which reports the final value.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .correlations import chsh_f3_maxima, chsh_f3_value, fibonacci_sphere
from .ellipsoid import Party
from .errors import ComplexSpectrum, DegenerateNormalForm, DomainError, OptimumMismatch, ZeroSuccessProbability
from .neldermead import Point, minimize
from .states import DEFAULT_TOL, SIGMA, DensityMatrix, RMatrix, pauli_expansion, to_r_picture, validate_state

_SPIN_FLIP_SIGNS = np.array([[-1.0], [1.0], [1.0], [-1.0]])  # (sigma_y (x) sigma_y) u = u[::-1] * these, row by row

SCALE_FLOOR = 1e-4  # lower bound on the filter's small singular value during optimisation
FATOL = 1e-11  # the CHSH polish's stopping tolerance on the objective
XATOL = 1e-7  # its stopping tolerance on the filter's coordinates (d, (1 - d) n)
MAX_ITERS = 500  # cap on the CHSH polish's iterations
SECULAR_MAX_ITERS = 60  # cap on the exact F3 solve's Newton steps
ZERO_SUCCESS = 1e-12  # a filter whose success probability is at most this raises ZeroSuccessProbability

# the filters' cone kappa |u| <= l_0 for d in [SCALE_FLOOR, 1], and kappa^2 - 1 without cancellation
_KAPPA = (1.0 + SCALE_FLOOR**2) / (1.0 - SCALE_FLOOR**2)
_KAPPA_SQ_M1 = (2.0 * SCALE_FLOOR / (1.0 - SCALE_FLOOR**2)) ** 2
_EPS = float(np.finfo(float).eps)
_EYE3 = np.eye(3)
_IDENTITY_BOOST = (1.0, 0.0, 0.0)  # (d, theta, phi) of the identity filter: d = 1
# the CHSH seed's fixed directions v: the upper half of a 48-point Fibonacci sphere (v and -v drop the same
# plane), each as the orthonormal pair (u_1, u_2) that spans its plane, (24, 2, 3)
_SEED_PLANES = np.linalg.svd(fibonacci_sphere(48)[:24, None, :])[2][:, 1:]


class Objective(Enum):
    CHSH = "CHSH"
    F3 = "F3"


@dataclass(frozen=True)
class LocalFilter:
    """Invertible 2x2 filter, normalised to largest singular value 1."""

    f: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "f", np.asarray(self.f, dtype=complex))

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "LocalFilter":
        """Normalise and validate an arbitrary 2x2 matrix as a filter."""
        m = np.asarray(m, dtype=complex)
        if m.shape != (2, 2):
            raise DomainError(f"filter must be 2x2, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise DomainError("filter has non-finite entries")
        smax = float(np.linalg.svd(m, compute_uv=False)[0])
        if smax <= 0.0:
            raise DomainError("filter is the zero matrix")
        f = m / smax
        det = abs(np.linalg.det(f))
        if det <= 1e-12:
            raise DomainError(f"filter not invertible: |det| = {det:.3e} after normalisation")
        return cls(f)


def identity_filter() -> LocalFilter:
    return LocalFilter(np.eye(2, dtype=complex))


class NormalFormSpectrum(NamedTuple):
    """Eigenvalues of eta R eta R^T, decreasing."""

    nu0: float
    nu1: float
    nu2: float
    nu3: float


class OneSidedResult(NamedTuple):
    """Best one-sided filtered correlation value found by the optimiser: one seeded polish (CHSH) or
    one exact solve (F3)."""

    value: float
    filter: LocalFilter
    objective: Objective
    party: Party
    converged: bool  # CHSH: the polish stopped on its tolerances, not on MAX_ITERS; F3: Newton within its cap
    evaluations: int  # CHSH: objective evaluations; F3: Newton steps on the secular equation
    at_scale_floor: bool  # optimiser pushed the filter scale to its floor; supremum may be on the boundary
    filtered_state: DensityMatrix  # the input after ``filter``, validated by the final verification
    filtered_picture: RMatrix  # its correlation picture, from which the verification read ``value``
    success_probability: float  # probability of the filter's successful branch
    stage_seconds: dict  # wall seconds of the search and of the final verification


def apply_filters(
    rho: DensityMatrix, fa: LocalFilter, fb: LocalFilter, tol: float = DEFAULT_TOL
) -> tuple[DensityMatrix, float]:
    """Filtered state and success probability for filters on both sides, validated with ``tol``."""
    op = np.kron(fa.f, fb.f)
    unnorm = op @ rho.matrix @ op.conj().T
    prob = float(unnorm.trace().real)
    if prob <= ZERO_SUCCESS:
        raise ZeroSuccessProbability(f"success probability {prob:.3e} <= {ZERO_SUCCESS!r}")
    return validate_state(unnorm / prob, tol), prob


def apply_one_sided(
    rho: DensityMatrix, f: LocalFilter, party: Party, tol: float = DEFAULT_TOL
) -> tuple[DensityMatrix, float]:
    """Filter on one side only; the other party applies the identity."""
    if party is Party.A:
        return apply_filters(rho, f, identity_filter(), tol)
    return apply_filters(rho, identity_filter(), f, tol)


def normal_form_spectra(r: np.ndarray) -> np.ndarray:
    """Spectra of eta R eta R^T for a (..., 4, 4) stack of pictures, each sorted decreasing,
    from one Hermitian eigensolve and one SVD of the spin-flip matrix.

    rho = :func:`hqc.states.pauli_expansion` of the stack, unvalidated, and
    rho = V diag(w) V^dag. Eigenvalues w <= 1e-14 count as 0 (the rank
    cut: the square roots of roundoff eigenvalues would put rho_qd(0.505)'s
    hidden CHSH 2.1e-8 below sqrt(2)); a least eigenvalue below -1e-8 marks an
    unphysical input and raises ComplexSpectrum. The singular values x_1 >= ... >= x_4 of
    D V^T Y V D, with D = diag(sqrt(w)) and Y = sigma_y (x) sigma_y, are
    Wootters' lambda, and their Hadamard combinations
    (x_1 + x_2 + x_3 + x_4, x_1 + x_2 - x_3 - x_4, x_1 + x_3 - x_2 - x_4,
    x_1 + x_4 - x_2 - x_3) are the Lorentz singular values of R, whose
    squares are the spectrum, already in decreasing order. Every step is
    per row, so a row's bits do not depend on the rest of the stack.
    """
    w, v = np.linalg.eigh(pauli_expansion(r))
    low = w[..., 0]
    bad = low < -1e-8
    if np.logical_or.reduce(bad, axis=None):
        i = np.flatnonzero(bad)[0]
        raise ComplexSpectrum(f"row {i}: rho has eigenvalue {low.flat[i]:.3e} < -1e-8; input unphysical")
    u = v * np.sqrt(np.where(w > 1e-14, w, 0.0))[..., None, :]  # V D, past the rank cut
    x = np.linalg.svd(u.swapaxes(-1, -2) @ (u[..., ::-1, :] * _SPIN_FLIP_SIGNS), compute_uv=False)
    x1, x2, x3, x4 = np.moveaxis(x, -1, 0)
    s12, d12, s34, d34 = x1 + x2, x1 - x2, x3 + x4, x3 - x4
    nu = np.stack([s12 + s34, s12 - s34, d12 + d34, d12 - d34], axis=-1)
    return nu * nu


def normal_form_spectrum(r: RMatrix) -> NormalFormSpectrum:
    """:func:`normal_form_spectra` of one picture."""
    return NormalFormSpectrum(*normal_form_spectra(r.r).tolist())


def hidden_values(r: np.ndarray) -> np.ndarray:
    """Hidden CHSH and hidden F3 of a (..., 4, 4) stack as a (..., 2) array, from one solve of
    the normal-form spectra.

    Rows whose leading eigenvalue is at most 1e-12 (a vanishing normal
    form, e.g. a pure product state) get NaN for both.
    """
    nu = normal_form_spectra(r)
    # nu_k / nu0 first, so that equal values sum to exactly 2 and 3; a NaN divisor marks a vanishing normal form
    ratios = nu[..., 1:] / np.where(nu[..., :1] > 1e-12, nu[..., :1], np.nan)
    return np.sqrt(np.add.accumulate(ratios, axis=-1)[..., 1:])


def _hidden(r: RMatrix) -> tuple[float, float]:
    hb, hf3 = hidden_values(r.r).tolist()
    if math.isnan(hb):
        raise DegenerateNormalForm("leading normal-form eigenvalue <= 1e-12; hidden measures undefined")
    return hb, hf3


def hidden_chsh(r: RMatrix) -> float:
    """CHSH value of the Bell-diagonal normal form.

    This is the supremum of CHSH over two-sided local filtering when it
    is at least 1; when it is below 1 the supremum is 1 instead (see the
    module docstring), so the two-sided supremum is max(1, hidden_chsh).
    Raises DegenerateNormalForm where :func:`hidden_values` gives NaN.
    """
    return _hidden(r)[0]


def hidden_f3(r: RMatrix) -> float:
    """F3 value of the Bell-diagonal normal form (a lower bound on the
    two-sided filtered optimum, which is not known to be attained here)."""
    return _hidden(r)[1]


def _direction(th: float, ph: float) -> tuple[float, float, float]:
    st = math.sin(th)
    return st * math.cos(ph), st * math.sin(ph), math.cos(th)


def _filter_coordinates(x: Point) -> tuple[float, float, float, float]:
    """(d, (1 - d) n) of the boost x = (d, theta, phi): the filter h(d, n)'s Pauli coefficients
    ((1 + d) / 2, (d - 1) n / 2) up to an affine map, and well defined where the chart is not
    (theta and phi at d = 1, phi at theta = 0)."""
    d, th, ph = x
    n1, n2, n3 = _direction(th, ph)
    e = 1.0 - d
    return d, e * n1, e * n2, e * n3


def _filter_from_params(x: tuple[float, float, float]) -> np.ndarray:
    """The Hermitian filter h(d, n) = d P_n + P_-n = ((1 + d) 1 + (d - 1) n . sigma) / 2."""
    d, th, ph = x
    return 0.5 * ((1.0 + d) * SIGMA[0] + (d - 1.0) * np.tensordot(_direction(th, ph), SIGMA[1:], 1))


def _boost(x: tuple[float, float, float]) -> tuple[float, ...]:
    """Lorentz boost L(d, n) of the filter h(d, n), n at polar angle theta and azimuth phi, as 16 entries row by row."""
    d, th, ph = x
    n1, n2, n3 = _direction(th, ph)
    c, s = 0.5 * (d * d + 1.0), 0.5 * (d * d - 1.0)
    e = c - d
    s1, s2, s3 = s * n1, s * n2, s * n3
    return (
        c, s1, s2, s3,
        s1, d + e * n1 * n1, e * n1 * n2, e * n1 * n3,
        s2, e * n2 * n1, d + e * n2 * n2, e * n2 * n3,
        s3, e * n3 * n1, e * n3 * n2, d + e * n3 * n3,
    )


def _search_objective(r: np.ndarray, party: Party, objective: Objective) -> Callable[[Point], float]:
    """The search's function of x = (d, theta, phi): minus the CHSH/F3 optimum after one party's boost.

    ``r`` is the 4x4 picture R, unpacked here, once, into 16 Python
    floats. Alice's filtered picture is L R; Bob's is R L^T, whose
    transpose L R^T has the same singular values. Either way the value
    is that of (L C)[1:, 1:] / p with C = R (Alice) or R^T (Bob) and
    p = (L C)[0, 0], the success probability. An evaluation takes
    L(d, n)'s entries from :func:`_boost`, forms p and the nine entries
    of T straight from them, and reads the maximum with
    :func:`hqc.correlations.chsh_f3_value`: the arithmetic of
    :func:`chsh_f3_maxima` with no array built. It raises
    ZeroSuccessProbability where p <= ZERO_SUCCESS.
    """
    c = r if party is Party.A else r.T
    (c00, c01, c02, c03), (c10, c11, c12, c13), (c20, c21, c22, c23), (c30, c31, c32, c33) = c.tolist()
    chsh = objective is Objective.CHSH

    def negated_value(x: Point) -> float:
        l00, l01, l02, l03, l10, l11, l12, l13, l20, l21, l22, l23, l30, l31, l32, l33 = _boost(x)
        # p = c + s (n . a) (b for Bob); since |a| <= 1 it is at least
        # d^2 >= SCALE_FLOOR^2 = 1e-8 on a valid state.
        prob = l00 * c00 + l01 * c10 + l02 * c20 + l03 * c30
        if prob <= ZERO_SUCCESS:
            raise ZeroSuccessProbability(f"success probability {prob:.3e} <= {ZERO_SUCCESS!r}")
        t = (
            (
                (l10 * c01 + l11 * c11 + l12 * c21 + l13 * c31) / prob,
                (l10 * c02 + l11 * c12 + l12 * c22 + l13 * c32) / prob,
                (l10 * c03 + l11 * c13 + l12 * c23 + l13 * c33) / prob,
            ),
            (
                (l20 * c01 + l21 * c11 + l22 * c21 + l23 * c31) / prob,
                (l20 * c02 + l21 * c12 + l22 * c22 + l23 * c32) / prob,
                (l20 * c03 + l21 * c13 + l22 * c23 + l23 * c33) / prob,
            ),
            (
                (l30 * c01 + l31 * c11 + l32 * c21 + l33 * c31) / prob,
                (l30 * c02 + l31 * c12 + l32 * c22 + l33 * c32) / prob,
                (l30 * c03 + l31 * c13 + l32 * c23 + l33 * c33) / prob,
            ),
        )
        return -chsh_f3_value(t, chsh)

    return negated_value


def _sum3(x: np.ndarray) -> np.ndarray:
    """Sum over a last axis of length 3, term by term, whatever the array's memory layout: a row's
    bits then do not depend on its batch, as the roundoff of matmul, einsum and of a reduction's
    loop order can."""
    return x[..., 0] + x[..., 1] + x[..., 2]


def _dual_terms(lam: np.ndarray, p: np.ndarray, h2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For multipliers ``lam`` (n,) and P's eigenvalues ``p`` and squared components ``h2``
    (n, 3): the terms h_i^2 / (lam - p_i) of the dual and the inverse gaps 1 / (lam - p_i),
    both (n, 3), with a zero gap's term and inverse set to 0 (its h_i is 0 in a hard case)."""
    gap = lam[:, None] - p
    inv = 1.0 / np.where(gap > 0.0, gap, np.inf)
    return h2 * inv, inv


class OneSidedF3(NamedTuple):
    """Exact one-sided F3 suprema of a stack of pictures, one entry per row."""

    value: np.ndarray  # (n,) the supremum of F3 over the party's filters with d in [SCALE_FLOOR, 1]
    params: np.ndarray  # (n, 3) the boost (d, theta, phi) that attains it
    iterations: np.ndarray  # (n,) Newton steps taken on the secular equation (0 where none moved lam)
    converged: np.ndarray  # (n,) Newton stopped within SECULAR_MAX_ITERS steps


def one_sided_f3_suprema(r: np.ndarray, party: Party) -> OneSidedF3:
    """The supremum of F3 over one party's filters h(d, n), d in [SCALE_FLOOR, 1], for a (n, 4, 4)
    stack of pictures, and the boost (d, theta, phi) that attains it.

    Write C = R (Alice) or R^T (Bob), c_0..c_3 for its columns, a = c_0[1:]
    for the filtering party's Bloch vector, eta = diag(1, -1, -1, -1) and
    l for the first row of the scaled boost L(d, n). L / d is a Lorentz
    transformation, so it keeps each column's eta-norm, and

        F3^2 = l^T B l / (l . c_0)^2,  B = sum_j c_j c_j^T - K eta,  K = sum_j c_j^T eta c_j

    (j = 1..3). The ratio does not depend on l's scale. With l . c_0 = 1,
    l = (1 - a . u, u), and d in [SCALE_FLOOR, 1] is the cone
    kappa |u| <= 1 - a . u, kappa = (1 + SCALE_FLOOR^2) / (1 - SCALE_FLOOR^2):
    the solid ellipsoid u^T (kappa^2 - a a^T) u + 2 a . u <= 1, on which
    l . c_j = c_j[0] + m_j . u with m_j = c_j[1:] - c_j[0] a and
    l^T eta l = ((1 - a . u)^2 - kappa^2 |u|^2) + (kappa^2 - 1) |u|^2.

    The map u = -a / e + W z, e = kappa^2 - |a|^2,
    W = 1 / sqrt(e) + a a^T / (e (kappa + sqrt(e))), takes the unit ball
    onto the ellipsoid, where the first bracket is (kappa^2 / e) (1 - |z|^2).
    In z, F3^2 = q_c + z^T P z + 2 h . z with y_j = c_j[0] - a . m_j / e,
    w_j = W m_j and

        P = sum_j w_j w_j^T + (K / e) (1 - (kappa^2 - 1) a a^T / e),
        h = sum_j y_j w_j + K (kappa^2 - 1) (kappa / e^2) a,
        q_c = sum_j y_j^2 - (K / e) (kappa^2 + (kappa^2 - 1) |a|^2 / e),

    written so that a pure marginal (m_j = 0, 1 - |a|^2 = 0) gives its
    value exactly. Maximising this over |z| <= 1 is a trust-region
    subproblem. Its maximum is the minimum over lam >= max(p_max, 0) of
    the dual D(lam) = lam + sum_i h_i^2 / (lam - p_i) in P's eigenbasis
    (Moré & Sorensen, SIAM J. Sci. Stat. Comput. 4, 553, 1983), where
    D' = 1 - |z(lam)|^2 and z(lam) = (lam - P)^-1 h:

    * interior: p_max < 0 and |z(0)| <= 1;
    * hard case: h has no component along P's top eigenvector and
      |z(p_max)| < 1 without it; lam = p_max, and the top component fills
      z to the unit sphere;
    * otherwise lam is the root of the secular equation 1 / |z(lam)| = 1.
      No root lies below max(0, max_i p_i + |h_i|), where Newton starts:
      1 / |z| is concave, so Newton from below climbs to the root without
      passing it, and every iterate has |z| >= 1. A row takes each
      positive step and stops after one of at most 4 ulp of
      |lam| + lam - p_min (a scale that also stops a root near 0), or at
      a step that is not positive.

    The value is D at that lam, whose error is second order in lam's, and
    z(lam), scaled onto the sphere unless the optimum is interior, gives
    the boost: d^2 = l^T eta l / (l_0 + |u|)^2 and n = -u / |u| (the
    identity, d = 1 and theta = phi = 0, at u = 0). Every sum is written
    term by term, the eigensolve runs per matrix, and a row that has
    stopped keeps its lam while others iterate, so a row's bits do not
    depend on its batch. A Bloch vector with |a|^2 >= kappa^2
    (an input far outside the state space) raises DomainError.
    """
    c = r if party is Party.A else r.swapaxes(-1, -2)
    a, top, t = c[:, 1:, 0], c[:, 0, 1:], c[:, 1:, 1:]  # t[:, i, j] is entry i + 1 of c_{j + 1}
    s = _sum3(a * a)
    e = _KAPPA_SQ_M1 + (1.0 - s)
    unbounded = ~(e > 0.0)  # NaN included
    if np.logical_or.reduce(unbounded):  # False on an empty stack
        i = int(np.flatnonzero(unbounded)[0])
        raise DomainError(f"row {i}: Bloch vector length^2 {s[i]!r} leaves the filters' cone unbounded")
    sq = c[:, :, 1:] * c[:, :, 1:]
    k = _sum3(sq[:, 0] - sq[:, 1] - sq[:, 2] - sq[:, 3])  # sum_j c_j^T eta c_j
    root_e = np.sqrt(e)
    alpha = 1.0 / (e * (_KAPPA + root_e))
    m = t - a[:, :, None] * top[:, None, :]
    am = _sum3((a[:, :, None] * m).swapaxes(-1, -2))  # a . m_j
    y = top - am / e[:, None]
    w = m / root_e[:, None, None] + (alpha[:, None] * a)[:, :, None] * am[:, None, :]  # column j is w_j
    k_e = k / e
    pmat = _sum3(w[:, :, None, :] * w[:, None, :, :])
    pmat += k_e[:, None, None] * (_EYE3 - (_KAPPA_SQ_M1 / e)[:, None, None] * (a[:, :, None] * a[:, None, :]))
    h = _sum3(w * y[:, None, :]) + (k_e * (_KAPPA_SQ_M1 * _KAPPA) / e)[:, None] * a
    q_c = _sum3(y * y) - k_e * (_KAPPA * _KAPPA + _KAPPA_SQ_M1 * s / e)

    p, vecs = np.linalg.eigh(pmat)  # ascending
    ht = _sum3(vecs.swapaxes(-1, -2) * h[:, None, :])
    h2 = ht * ht
    # each term of |z|^2 is at most 1 at the root, so Newton starts below it
    lam = np.maximum(np.maximum.reduce(p + np.abs(ht), axis=-1), 0.0)
    active = np.ones(len(r), dtype=bool)
    iterations = np.zeros(len(r), dtype=np.int64)
    for _ in range(SECULAR_MAX_ITERS):
        terms, inv = _dual_terms(lam, p, h2)
        zsq_terms = terms * inv
        n2, s3 = _sum3(zsq_terms), _sum3(zsq_terms * inv)
        # Newton on 1 / |z| - 1 (s3 is 0 only where z is, whose step is then 0); a row stops, and
        # keeps its bits, after a step of a few ulp or none
        step = n2 * (np.sqrt(n2) - 1.0) / np.where(s3 > 0.0, s3, 1.0)
        active &= step > 0.0
        if not active.any():
            break
        lam = np.where(active, lam + step, lam)
        iterations += active
        active &= step > 4.0 * _EPS * (np.abs(lam) + (lam - p[:, 0]))
    else:  # the cap came after a step: evaluate where it led
        terms, inv = _dual_terms(lam, p, h2)
    value = np.sqrt(np.maximum(q_c + lam + _sum3(terms), 0.0))

    zt = ht * inv
    interior = (lam == 0.0) & (p[:, 2] < 0.0)
    hard = inv[:, 2] == 0.0
    if hard.any():  # a zero top gap: the top component fills z to the sphere
        fill = np.where(hard, np.sqrt(np.maximum(1.0 - _sum3(zt * zt), 0.0)), 0.0)
        zt[:, 2] += np.copysign(fill, ht[:, 2])
    zsq = _sum3(zt * zt)
    zt /= np.where(interior, 1.0, np.sqrt(zsq))[:, None]
    z = _sum3(vecs * zt[:, None, :])
    u = z / root_e[:, None] + (alpha * _sum3(a * z) - 1.0 / e)[:, None] * a
    norm_u = np.sqrt(_sum3(u * u))
    eta_norm = np.where(interior, (_KAPPA * _KAPPA / e) * (1.0 - zsq), 0.0) + _KAPPA_SQ_M1 * norm_u * norm_u
    params = np.empty((len(r), 3))
    np.minimum(np.maximum(np.sqrt(eta_norm) / ((1.0 - _sum3(a * u)) + norm_u), SCALE_FLOOR), 1.0, out=params[:, 0])
    np.arctan2(np.hypot(u[:, 0], u[:, 1]), -u[:, 2], out=params[:, 1])
    np.arctan2(-u[:, 1], -u[:, 0], out=params[:, 2])
    params[norm_u == 0.0] = _IDENTITY_BOOST
    return OneSidedF3(value, params, iterations, ~active)


def _best_projected_boost(c: np.ndarray, planes: np.ndarray) -> tuple[float, float, float]:
    """The boost of the first best row of :func:`one_sided_f3_suprema` on the projected pictures
    C_v = [c_0 | C u_1 | C u_2 | 0], one per pair (u_1, u_2) of the (k, 2, 3) ``planes``."""
    projected = np.zeros((len(planes), 4, 4))
    projected[:, :, 0] = c[:, 0]
    projected[:, :, 1:3] = _sum3(c[None, :, None, 1:] * planes[:, None, :, :])  # C u_i, summed term by term
    exact = one_sided_f3_suprema(projected, Party.A)
    return tuple(exact.params[int(np.argmax(exact.value))].tolist())


def _chsh_seed(r: np.ndarray, party: Party) -> tuple[float, float, float]:
    """The boost (d, theta, phi) from which the one-sided CHSH polish starts.

    B^2 = s_1^2 + s_2^2 is the largest |T u_1|^2 + |T u_2|^2 over orthonormal
    pairs, so for a direction v of the other party's and u_1, u_2 spanning
    its orthogonal plane, F3 of C_v = [c_0 | C u_1 | C u_2 | 0] (C = R for
    Alice, R^T for Bob) bounds B from below under every filter, and equals
    it where v is the filtered T's least right singular vector (Horodecki,
    Horodecki & Horodecki, PLA 200, 340, 1995). The first solve takes v
    from the unfiltered T and :data:`_SEED_PLANES`; the second drops the
    least right singular vector of T under the first's best boost, a step
    of ascent that lifts a seed the 25 directions left on the scale floor
    (1.8e-3 short on one of c09a's states). Each step's B is at least the
    last, so the seed's is at least the unfiltered B.
    """
    c = r if party is Party.A else r.T
    x = _IDENTITY_BOOST  # whose boost is the identity matrix, exactly
    for fixed in (_SEED_PLANES, _SEED_PLANES[:0]):
        # the top two right singular vectors: the plane orthogonal to the least one
        plane = np.linalg.svd((np.reshape(_boost(x), (4, 4)) @ c)[1:, 1:])[2][None, :2]
        x = _best_projected_boost(c, np.concatenate([plane, fixed]))
    return x


def _on_scale_floor(x: Point) -> bool:
    """Whether the boost x = (d, theta, phi) lies on the scale floor, d <= 1.01 SCALE_FLOOR."""
    return x[0] <= SCALE_FLOOR * 1.01


def _chsh_search(r: np.ndarray, party: Party) -> tuple[Point, float, bool, int]:
    """One bounded Nelder-Mead polish of :func:`_search_objective` from :func:`_chsh_seed`'s boost:
    the boost (d, theta, phi) it ends on, its value, whether it converged, and its evaluations.

    The polish builds scipy's simplex around the seed, runs at most
    MAX_ITERS iterations and stops once its vertices agree within
    XATOL in :func:`_filter_coordinates` (as filters, not as chart points)
    and within FATOL in value. Its first vertex is the seed, so the value
    never falls below the seed's projected F3, nor below the unfiltered B.
    A polish that ends on the scale floor (:func:`_on_scale_floor`), where
    the value still slopes in d, reads (SCALE_FLOOR, theta, phi) once more
    and keeps the larger value; ``evaluations`` is the polish's alone.
    """
    fun = _search_objective(r, party, Objective.CHSH)
    res = minimize(
        fun,
        _chsh_seed(r, party),
        bounds=[(SCALE_FLOOR, 1.0), (None, None), (None, None)],
        max_iters=MAX_ITERS,
        xatol=XATOL,
        fatol=FATOL,
        xatol_map=_filter_coordinates,
    )
    x, value = res.x, -res.fun
    if _on_scale_floor(x):
        floor = (SCALE_FLOOR, x[1], x[2])
        on_floor = -fun(floor)
        if on_floor > value:
            x, value = floor, on_floor
    return x, value, res.success, res.nfev


def optimize_one_sided(
    rho: DensityMatrix,
    party: Party,
    objective: Objective,
    tol: float = DEFAULT_TOL,
    picture: RMatrix | None = None,
) -> OneSidedResult:
    """Maximise the filtered CHSH/F3 optimum over one party's filters.

    Both objectives search the Hermitian filters h(d, n) of the module
    docstring, with d in [SCALE_FLOOR, 1] and n at polar angle theta and
    azimuth phi. Every filter is a unitary times such an h, and the
    unitary cannot change the maximum, so the three parameters reach
    every one-sided value. Both start from rho's correlation picture R:
    ``picture`` if given (the CLI passes the R its input file gives, which
    for an R-CSV is the file's own R, not the picture of the rho rebuilt
    from it), else :func:`hqc.states.to_r_picture` of rho.

    F3 is solved exactly: the result is :func:`one_sided_f3_suprema` of a
    batch of one, with ``evaluations`` its Newton steps on the secular
    equation and ``converged`` whether they stopped within the cap.

    CHSH runs one bounded Nelder-Mead polish (:func:`_chsh_search`, at
    most MAX_ITERS iterations) of :func:`_search_objective`,
    built once from R, over x = (d, theta, phi), from the exact seed of
    :func:`_chsh_seed`, whose value is at least the unfiltered B;
    ``evaluations`` counts the polish's evaluations and ``converged`` says
    whether it stopped on its tolerances rather than on MAX_ITERS. An
    evaluation applies the boost L(d, n) to R in Python floats and reads
    the maximum with :func:`hqc.correlations.chsh_f3_value`; no density
    matrix is formed, and positivity needs no check, because a filter is a
    congruence of the already validated rho.

    The winning filter is then applied once through ``apply_one_sided``,
    whose ``validate_state`` checks the filtered state with ``tol`` (the
    tolerance rho itself was accepted with), and the value is
    recomputed from that state's picture by
    :func:`hqc.correlations.chsh_f3_maxima`; this is the value reported,
    alongside that filtered state, its picture and its success
    probability. If it differs from the search's value by more than 1e-9,
    ``OptimumMismatch`` is raised. ``stage_seconds`` holds the wall
    seconds of the search or solve (``"search"``) and of this verification
    (``"verify"``).
    """
    began = time.perf_counter()
    r = (to_r_picture(rho) if picture is None else picture).r
    if objective is Objective.F3:
        exact = one_sided_f3_suprema(r[None], party)
        x, found = tuple(exact.params[0].tolist()), float(exact.value[0])
        converged, evaluations = bool(exact.converged[0]), int(exact.iterations[0])
    else:
        x, found, converged, evaluations = _chsh_search(r, party)
    searched = time.perf_counter()
    best = LocalFilter(_filter_from_params(x))
    filtered, prob = apply_one_sided(rho, best, party, tol)
    picture = to_r_picture(filtered)
    b, f3 = chsh_f3_maxima(picture.t)
    value = float(b if objective is Objective.CHSH else f3)
    if abs(value - found) > 1e-9:
        raise OptimumMismatch(f"search value {found!r} but the filtered state gives {value!r}")
    return OneSidedResult(
        value=value,
        filter=best,
        objective=objective,
        party=party,
        converged=converged,
        evaluations=evaluations,
        at_scale_floor=_on_scale_floor(x),
        filtered_state=filtered,
        filtered_picture=picture,
        success_probability=prob,
        stage_seconds={"search": searched - began, "verify": time.perf_counter() - searched},
    )
