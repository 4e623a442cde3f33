"""Two-qubit state representations, Pauli algebra, and random-state sampling.

Conventions (fixed once, used everywhere):

* product basis order ``|00>, |01>, |10>, |11>`` with the first qubit
  belonging to Alice;
* Pauli operators ``SIGMA[0..3]`` = identity, sigma_x, sigma_y, sigma_z,
  with ``{|0>, |1>}`` the sigma_z eigenbasis;
* the correlation picture of a state rho is the real 4x4 matrix
  ``R[i, j] = Tr[(sigma_i (x) sigma_j) rho]``, whose first column holds
  Alice's Bloch vector ``a``, first row Bob's Bloch vector ``b``, and
  lower-right 3x3 block the correlation matrix ``T``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotHermitian, NotPositive, TraceNotOne, ZeroProbability

SIGMA = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

# PAULI_KRON[i, j] = sigma_i (x) sigma_j, the 16-element operator basis.
PAULI_KRON = np.array([[np.kron(SIGMA[i], SIGMA[j]) for j in range(4)] for i in range(4)])

# _PAULI_TABLE[4 l + k, 4 i + j] = (sigma_i (x) sigma_j)[k, l]: flattened rho @ table = flattened R.
_PAULI_TABLE = np.ascontiguousarray(PAULI_KRON.transpose(3, 2, 0, 1).reshape(16, 16))

DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class DensityMatrix:
    """A validated 4x4 two-qubit density matrix (see :func:`validate_state`)."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=complex))


@dataclass(frozen=True)
class RMatrix:
    """Pauli-correlation picture of a two-qubit state.

    ``r`` is real 4x4 with ``r[0, 0] == 1``; views ``a`` (Alice Bloch),
    ``b`` (Bob Bloch) and ``t`` (correlation matrix) index into it.
    """

    r: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.r, dtype=float)
        if arr.shape != (4, 4):
            raise DomainError(f"R matrix must be 4x4, got shape {arr.shape}")
        object.__setattr__(self, "r", arr)

    @property
    def a(self) -> np.ndarray:
        return self.r[1:, 0]

    @property
    def b(self) -> np.ndarray:
        return self.r[0, 1:]

    @property
    def t(self) -> np.ndarray:
        return self.r[1:, 1:]


@dataclass(frozen=True)
class SeededRng:
    """Deterministic random source addressed by (seed, stream).

    Identical (seed, stream) pairs always reproduce the same sample
    sequence; distinct streams are statistically independent, which is how
    sweeps partition work across workers without sharing state.
    """

    seed: int
    stream: int = 0

    def __post_init__(self) -> None:
        if self.seed < 0 or self.stream < 0:
            raise DomainError(f"seed and stream must be >= 0, got {self.seed}, {self.stream}")

    def generator(self) -> np.random.Generator:
        """Fresh numpy generator for this (seed, stream) pair."""
        return np.random.default_rng(np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,)))


def validate_state(m: np.ndarray, tol: float = DEFAULT_TOL) -> DensityMatrix:
    """Check the three density-matrix invariants and wrap the input.

    The matrix is returned unchanged (no projection or repair): a state
    that fails Hermiticity, unit trace, or positivity raises the matching
    error with the measured deviation; a NaN or infinite entry raises
    DomainError.
    """
    if not 0.0 < tol < np.inf:
        raise DomainError(f"tolerance must be positive and finite, got {tol}")
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise DomainError(f"state must be a 4x4 matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise DomainError("state has non-finite entries")
    herm_dev = np.abs(m - m.conj().T).max()
    if herm_dev > tol:
        raise NotHermitian(f"max |rho - rho^dag| = {herm_dev:.3e} exceeds {tol:.1e}")
    trace_dev = abs(m.trace() - 1.0)
    if trace_dev > tol:
        raise TraceNotOne(f"|Tr rho - 1| = {trace_dev:.3e} exceeds {tol:.1e}")
    min_eig = float(np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min())
    if min_eig < -tol:
        raise NotPositive(f"min eigenvalue {min_eig:.3e} below -{tol:.1e}")
    return DensityMatrix(m)


def r_pictures(rho: np.ndarray) -> np.ndarray:
    """Pictures R[n, i, j] = Tr[(sigma_i (x) sigma_j) rho[n]] of a (n, 4, 4) batch
    of unit-trace states, as one (n, 16) x (16, 16) product; R[n, 0, 0] is exactly 1.
    The result is a C-contiguous real array, not a view into the complex product."""
    r = np.ascontiguousarray((rho.reshape(-1, 16) @ _PAULI_TABLE).real).reshape(-1, 4, 4)
    r[:, 0, 0] = 1.0
    return r


def to_r_picture(rho: DensityMatrix) -> RMatrix:
    """Pauli-correlation picture of one state: :func:`r_pictures` of a batch of one."""
    return RMatrix(r_pictures(rho.matrix[None])[0])


def from_r_picture(r: RMatrix, tol: float = DEFAULT_TOL) -> DensityMatrix:
    """Reconstruct rho = (1/4) sum_ij R_ij sigma_i (x) sigma_j.

    Raises NotPositive when R does not correspond to a physical state.
    """
    if abs(r.r[0, 0] - 1.0) > 1e-10:
        raise DomainError(f"R[0,0] must be 1, got {r.r[0, 0]!r}")
    return validate_state(pauli_expansion(r.r), tol)


def pauli_expansion(r: np.ndarray) -> np.ndarray:
    """The operators (1/4) sum_ij r[..., i, j] sigma_i (x) sigma_j of a (..., 4, 4) stack, unvalidated;
    each is its own (1, 16) x (16, 16) product, so its bits do not depend on the rest of the stack."""
    return 0.25 * (r.reshape(-1, 1, 16) @ PAULI_KRON.reshape(16, 16)).reshape(r.shape)


def ginibre_factors(gen: np.random.Generator, ranks: np.ndarray) -> np.ndarray:
    """Ginibre factors G, one (4, 4) matrix per entry of ``ranks``, with the columns
    from each rank on zeroed. Every sample consumes 32 standard normals whatever
    its rank, so mixed-rank streams stay aligned and reproducible. G is filled in
    place, all real parts drawn before all imaginary parts, so the only temporary
    is one real draw."""
    count = len(ranks)
    g = np.empty((count, 4, 4), dtype=complex)
    g.real = gen.standard_normal((count, 4, 4))
    g.imag = gen.standard_normal((count, 4, 4))
    g *= np.arange(4)[None, None, :] < ranks[:, None, None]
    return g


def states_from_factors(g: np.ndarray) -> np.ndarray:
    """Unit-trace states G G^dag / Tr for a (n, 4, 4) batch of factors."""
    rho = g @ g.conj().transpose(0, 2, 1)
    tr = np.einsum("nii->n", rho).real
    return rho / tr[:, None, None]


def ginibre_states(gen: np.random.Generator, count: int, ranks: int | np.ndarray) -> np.ndarray:
    """Batch of Ginibre random states G G^dag / Tr as a (count, 4, 4) array.

    ``ranks`` is a scalar or per-sample array in 1..4; rank 4 yields the
    Hilbert-Schmidt ensemble.
    """
    ranks = np.broadcast_to(np.asarray(ranks, dtype=np.int64), (count,))
    if ranks.size and (ranks.min() < 1 or ranks.max() > 4):
        raise DomainError("rank must be in 1..4")
    return states_from_factors(ginibre_factors(gen, ranks))


def sample_state(rng: SeededRng, rank: int = 4) -> DensityMatrix:
    """One Ginibre random state; a pure function of (seed, stream, rank)."""
    if rank not in (1, 2, 3, 4):
        raise DomainError(f"rank must be in 1..4, got {rank}")
    return validate_state(ginibre_states(rng.generator(), 1, rank)[0])


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

