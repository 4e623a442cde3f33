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

Both are computed for whole (..., 4, 4) stacks of pictures, one batched
eigensolve per stack (:func:`hidden_values`, NaN where the normal form
vanishes); the single-picture functions are those on a batch of one.

The normal-form CHSH value is the supremum of CHSH over two-sided
filtering when it is at least the classical bound 1; below 1 the
supremum is 1, approached by filters tending to rank one, which drive
any state towards a pure product state (e.g. a random state with hidden
CHSH 0.550 reaches 0.999996 under diag(1, 1e-3) on both sides). Hidden F3
is a lower bound on the best F3 value. One-sided optima (one party
filters, the other does nothing) have no closed form and are estimated
numerically; they are bounded by max(1, hidden CHSH).

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
optimiser therefore searches the three parameters (d, n) and evaluates a
candidate as one 4x4 product L . R (R . L^T for Bob) and the T T^T
eigensolve of :func:`hqc.correlations.chsh_f3_maxima` on one 3x3 matrix.
Its search is the package's own bounded Nelder-Mead,
:func:`hqc.neldermead.minimize`, bound here as ``minimize``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .correlations import SQRT2, SQRT3, chsh_f3_maxima
from .ellipsoid import Party
from .errors import ComplexSpectrum, DegenerateNormalForm, DomainError, OptimumMismatch, ZeroSuccessProbability
from .neldermead import minimize
from .states import SIGMA, DensityMatrix, RMatrix, SeededRng, to_r_picture, validate_state

_ETA_SIGNS = np.outer([1, -1, -1, -1], [1, -1, -1, -1])  # eta R eta = R * _ETA_SIGNS for eta = diag(1, -1, -1, -1)

SCALE_FLOOR = 1e-4  # lower bound on the filter's small singular value during optimisation
FATOL = 1e-11  # Nelder-Mead's stopping tolerance on the objective, per start


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


@dataclass(frozen=True)
class OneSidedResult:
    """Best one-sided filtered correlation value found by the optimiser."""

    value: float
    filter: LocalFilter
    objective: Objective
    party: Party
    converged: bool
    starts_used: int  # starts actually run; fewer than the budget after an early exit
    evaluations: int  # objective evaluations over the starts run
    at_scale_floor: bool  # optimiser pushed the filter scale to its floor; supremum may be on the boundary
    filtered_state: DensityMatrix  # the input after ``filter``, validated by the final verification
    success_probability: float  # probability of the filter's successful branch


def apply_filters(rho: DensityMatrix, fa: LocalFilter, fb: LocalFilter) -> tuple[DensityMatrix, float]:
    """Filtered state and success probability for filters on both sides."""
    op = np.kron(fa.f, fb.f)
    unnorm = op @ rho.matrix @ op.conj().T
    prob = float(unnorm.trace().real)
    if prob <= 1e-12:
        raise ZeroSuccessProbability(f"success probability {prob:.3e} <= 1e-12")
    return validate_state(unnorm / prob), prob


def apply_one_sided(rho: DensityMatrix, f: LocalFilter, party: Party) -> tuple[DensityMatrix, float]:
    """Filter on one side only; the other party applies the identity."""
    if party is Party.A:
        return apply_filters(rho, f, identity_filter())
    return apply_filters(rho, identity_filter(), f)


def normal_form_spectra(r: np.ndarray) -> np.ndarray:
    """Spectra of eta R eta R^T for a (..., 4, 4) stack of pictures, each sorted decreasing.

    The matrix is not symmetric, and on some families (the
    quasi-distillable line in particular) it is defective: exact
    eigenvalue multiplicities split numerically by ~sqrt(machine eps),
    in a random direction in the complex plane. Small residues are
    therefore cleaned up per row in two scale-aware steps: imaginary
    parts below max(1e-8, 5e-7 ||M||) are truncated, and runs of sorted
    real values whose neighbours lie within that tolerance are merged to
    their cluster mean (which is accurate to second order for a defective
    pair). A larger imaginary part or a negative value in any row signals
    an unphysical input and raises ComplexSpectrum.
    """
    m = (r * _ETA_SIGNS) @ r.swapaxes(-1, -2)
    w = np.linalg.eigvals(m)
    # Defective splits scale with sqrt(eps * ||M||), not with the eigenvalues.
    tol = np.maximum(1e-8, 5e-7 * np.linalg.norm(m, axis=(-2, -1)))
    nu = np.sort(w.real, axis=-1)[..., ::-1]
    imag, low = np.abs(w.imag).max(axis=-1), nu[..., -1]
    bad = (imag > tol) | (low < -tol)
    if bad.any():
        i = np.flatnonzero(bad)[0]
        raise ComplexSpectrum(f"row {i}: |Im eigenvalue| {imag.flat[i]:.3e}, min {low.flat[i]:.3e}; input unphysical")
    nu = np.clip(nu, 0.0, None)
    # a cluster is a run of sorted values whose neighbours lie within tol; number the runs
    breaks = nu[..., :-1] - nu[..., 1:] > tol[..., None]
    run = np.cumsum(np.concatenate([np.zeros_like(breaks[..., :1]), breaks], axis=-1), axis=-1)
    same = run[..., :, None] == run[..., None, :]
    return np.where(same, nu[..., None, :], 0.0).sum(axis=-1) / same.sum(axis=-1)


def normal_form_spectrum(r: RMatrix) -> NormalFormSpectrum:
    """:func:`normal_form_spectra` of one picture."""
    return NormalFormSpectrum(*normal_form_spectra(r.r).tolist())


def hidden_values(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hidden CHSH and hidden F3 of a (..., 4, 4) stack, from one solve of the normal-form spectra.

    Rows whose leading eigenvalue is at most 1e-12 (a vanishing normal
    form, e.g. a pure product state) get NaN for both.
    """
    nu = normal_form_spectra(r)
    ok = nu[..., 0] > 1e-12
    nu0 = np.where(ok, nu[..., 0], 1.0)
    pair = nu[..., 1] + nu[..., 2]
    return np.where(ok, np.sqrt(pair / nu0), np.nan), np.where(ok, np.sqrt((pair + nu[..., 3]) / nu0), np.nan)


def _hidden(r: RMatrix) -> tuple[float, float]:
    hb, hf3 = hidden_values(r.r)
    if np.isnan(hb):
        raise DegenerateNormalForm("leading normal-form eigenvalue <= 1e-12; hidden measures undefined")
    return float(hb), float(hf3)


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


def _filter_from_params(x: tuple[float, float, float]) -> np.ndarray:
    """The Hermitian filter h(d, n) = d P_n + P_-n = ((1 + d) 1 + (d - 1) n . sigma) / 2."""
    d, th, ph = x
    return 0.5 * ((1.0 + d) * SIGMA[0] + (d - 1.0) * np.tensordot(_direction(th, ph), SIGMA[1:], 1))


def _boost(x: tuple[float, float, float]) -> np.ndarray:
    """Lorentz boost L(d, n) of the filter h(d, n), n at polar angle theta and azimuth phi."""
    d, th, ph = x
    n1, n2, n3 = _direction(th, ph)
    c, s = 0.5 * (d * d + 1.0), 0.5 * (d * d - 1.0)
    e = c - d
    return np.array(
        [
            [c, s * n1, s * n2, s * n3],
            [s * n1, d + e * n1 * n1, e * n1 * n2, e * n1 * n3],
            [s * n2, e * n2 * n1, d + e * n2 * n2, e * n2 * n3],
            [s * n3, e * n3 * n1, e * n3 * n2, d + e * n3 * n3],
        ]
    )


def _maximum(t: np.ndarray, objective: Objective) -> float:
    """CHSH or F3 maximum of the correlation matrix t, by :func:`chsh_f3_maxima`, the one B/F3 formula."""
    b, f3 = chsh_f3_maxima(t)
    return float(b if objective is Objective.CHSH else f3)


def _filtered_value(r0: np.ndarray, boost: np.ndarray, party: Party, objective: Objective) -> float:
    """CHSH/F3 optimum of the state whose picture is r0 after one party's boost."""
    rf = boost @ r0 if party is Party.A else r0 @ boost.T
    # rf[0, 0] is the success probability c + s (n . a) (b for Bob); since
    # |a| <= 1 it is at least d^2 >= SCALE_FLOOR^2 = 1e-8 on a valid state.
    prob = rf[0, 0]
    if prob <= 1e-12:
        raise ZeroSuccessProbability(f"success probability {prob:.3e} <= 1e-12")
    return _maximum(rf[1:, 1:] / prob, objective)


def optimize_one_sided(
    rho: DensityMatrix,
    party: Party,
    objective: Objective,
    starts: int = 32,
    max_iters: int = 500,
    seed: int = 0,
) -> OneSidedResult:
    """Maximise the filtered CHSH/F3 optimum over one party's filters.

    Multi-start Nelder-Mead (:func:`hqc.neldermead.minimize`, at most
    ``max_iters >= 1`` iterations a start) over x = (d, theta, phi): the
    Hermitian filter h(d, n) of the module docstring, with d in
    [SCALE_FLOOR, 1] and n at polar angle theta and azimuth phi. Every
    filter is a unitary times such an h, and the unitary cannot change
    the maximum, so the three parameters reach every one-sided value.
    Start 0 is the identity filter, so the result never falls below the
    unfiltered value. Start k draws from ``SeededRng(seed, k)``, so a seed
    must be non-negative, and ties resolve to the lowest start index. The search stops early
    once a start reaches the quantum maximum; ``starts_used`` counts the
    starts run and ``evaluations`` their objective evaluations.

    Each evaluation works on rho's correlation picture R, computed once:
    the candidate's boost L(d, n) (see the module docstring) is applied to
    R, the success probability is read off its [0, 0] entry, and the
    maximum comes from the eigenvalues of T T^T for the normalised T. No
    density matrix is formed during the search; positivity needs no check
    there, because a filter is a congruence of the already validated rho.

    The winning filter is then applied once through ``apply_one_sided``,
    whose ``validate_state`` checks the filtered state, and the value is
    recomputed from that state; this is the value reported, alongside
    that filtered state and its success probability. If it differs
    from the search's value by more than 1e-9, ``OptimumMismatch`` is
    raised.
    """
    if starts < 1:
        raise DomainError(f"starts must be >= 1, got {starts}")
    if max_iters < 1:
        raise DomainError(f"max_iters must be >= 1, got {max_iters}")
    SeededRng(seed)  # rejects a negative seed, even when no start draws from it
    maxval = SQRT2 if objective is Objective.CHSH else SQRT3
    r0 = to_r_picture(rho).r

    def value_of(x: tuple[float, float, float]) -> float:
        return _filtered_value(r0, _boost(x), party, objective)

    bounds = [(SCALE_FLOOR, 1.0), (None, None), (None, None)]
    identity = (1.0, 0.0, 0.0)  # d = 1
    best_x, best_val = identity, value_of(identity)
    converged = False
    evaluations = 0
    for start in range(starts):
        if start == 0:
            x0 = identity
        else:
            gen = SeededRng(seed, start).generator()
            d, th = gen.uniform(0.05, 1.0), gen.uniform(0.0, math.pi / 2)
            ph, ps = gen.uniform(-math.pi, math.pi), gen.uniform(-math.pi, math.pi)
            # the former chart diag(d, 1) . V(th, ph, ps) boosts along (2 th, ph - ps): each start keeps its point
            x0 = (d, 2.0 * th, ph - ps)
        res = minimize(lambda x: -value_of(x), x0, bounds=bounds, max_iters=max_iters, xatol=1e-9, fatol=FATOL)
        converged = converged or res.success
        evaluations += res.nfev
        if -res.fun > best_val + 1e-15:
            best_val, best_x = -res.fun, res.x
        if best_val >= maxval - 1e-12:
            break  # cannot improve on the quantum maximum
    best = LocalFilter(_filter_from_params(best_x))
    filtered, prob = apply_one_sided(rho, best, party)
    value = _maximum(to_r_picture(filtered).t, objective)
    if abs(value - best_val) > 1e-9:
        raise OptimumMismatch(f"boost value {best_val!r} but the filtered state gives {value!r}")
    return OneSidedResult(
        value=float(value),
        filter=best,
        objective=objective,
        party=party,
        converged=converged,
        starts_used=start + 1,
        evaluations=evaluations,
        at_scale_floor=bool(best_x[0] <= SCALE_FLOOR * 1.01),
        filtered_state=filtered,
        success_probability=prob,
    )
