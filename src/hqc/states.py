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

from .errors import DomainError, NotHermitian, NotPositive, TraceNotOne

SIGMA = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

# PAULI_KRON[i, j] = sigma_i (x) sigma_j, the 16-element operator basis.
PAULI_KRON = np.array([[np.kron(SIGMA[i], SIGMA[j]) for j in range(4)] for i in range(4)])

DEFAULT_TOL = 1e-10


def _pauli_map() -> tuple[np.ndarray, np.ndarray]:
    """The real Pauli map from a state's 32 real components to its picture's 16 entries.

    Component 2 (4 k + l) is Re rho[k, l] and 2 (4 k + l) + 1 is Im rho[k, l],
    the memory order of a complex array. Each column of sigma_i (x) sigma_j holds
    one nonzero, which is +-1 or +-i, so R[i, j] = sum_kl Re(P[l, k] rho[k, l])
    has four terms, each +-Re rho[k, l] or -+Im rho[k, l]. Row 4 i + j of the
    returned (16, 4) arrays lists their components and signs in ascending 4 k + l.
    """
    terms, signs = [], []
    for p in PAULI_KRON.reshape(16, 4, 4):
        k, l = np.nonzero(p.T)  # row-major over (k, l): ascending 4 k + l
        entry = p[l, k]
        imaginary = entry.imag != 0.0
        terms.append(2 * (4 * k + l) + imaginary)
        signs.append(np.where(imaginary, -entry.imag, entry.real))
    return np.array(terms), np.array(signs)


_PAULI_TERMS, _PAULI_SIGNS = _pauli_map()

# The Hermitian parts of G G^dag held once: rows 0-9 are Re[a, b] for a <= b and rows 10-15
# Im[a, b] for a < b, each block ordered by the offset d = b - a, then by a.
_PAIRS = [(a, a + d) for d in range(4) for a in range(4 - d)]
_RE_ROWS = [0, 4, 7, 9]  # where each offset's Re rows start; its Im rows start 6 rows later


def _folded_map() -> tuple[np.ndarray, np.ndarray]:
    """The Pauli map on those 16 rows: Re rho[l, k] is Re rho[k, l] and Im rho[l, k] is -Im rho[k, l]."""
    row = np.zeros(32, dtype=np.int64)
    sign = np.zeros(32)
    for k in range(4):
        for l in range(4):
            re, im = 2 * (4 * k + l), 2 * (4 * k + l) + 1
            row[re], sign[re] = _PAIRS.index((min(k, l), max(k, l))), 1.0
            if k != l:  # no Pauli product reads the imaginary part of a diagonal entry
                row[im], sign[im] = row[re] + 6, 1.0 if k < l else -1.0
    return row[_PAULI_TERMS], _PAULI_SIGNS * sign[_PAULI_TERMS]


def _term_rows(terms: np.ndarray, signs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A map's terms term-major: their components as (4, 16) and their signs as (4, 16, 1)."""
    return np.ascontiguousarray(terms.T), np.ascontiguousarray(signs.T)[:, :, None]


_PAULI_ROWS = _term_rows(_PAULI_TERMS, _PAULI_SIGNS)
_FOLDED_ROWS = _term_rows(*_folded_map())


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
    # the reductions are the ufunc methods that ndarray.all and ndarray.max call
    if not np.logical_and.reduce(np.isfinite(m), axis=None):
        raise DomainError("state has non-finite entries")
    adjoint = m.conj().T
    herm_dev = np.maximum.reduce(np.abs(m - adjoint), axis=None)
    if herm_dev > tol:
        raise NotHermitian(f"max |rho - rho^dag| = {herm_dev:.3e} exceeds {tol:.1e}")
    trace_dev = abs(m.trace() - 1.0)
    if trace_dev > tol:
        raise TraceNotOne(f"|Tr rho - 1| = {trace_dev:.3e} exceeds {tol:.1e}")
    min_eig = float(np.linalg.eigvalsh(0.5 * (m + adjoint))[0])  # ascending
    if min_eig < -tol:
        raise NotPositive(f"min eigenvalue {min_eig:.3e} below -{tol:.1e}")
    return DensityMatrix(m)


def _pauli_sums(components: np.ndarray, rows: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The 16 entries of R, held as (16, n), from components held as (m, n): entry e sums its
    four terms (:func:`_term_rows`) in ascending order, each a component times its sign. Times
    -1.0 is an exact negation, so no negated copy of the components is held; the terms are
    gathered one at a time. Both picture builders sum the map here."""
    terms, signs = rows
    r = components.take(terms[0], axis=0)
    r *= signs[0]
    for k in range(1, 4):
        term = components.take(terms[k], axis=0)
        term *= signs[k]
        r += term
        del term  # dropped before the next is taken: a sweep tile's peak memory
    return r


def r_pictures(rho: np.ndarray) -> np.ndarray:
    """Pictures R[n, i, j] = Tr[(sigma_i (x) sigma_j) rho[n]] of a (n, 4, 4) batch
    of unit-trace states: :func:`_pauli_sums` of rho's 32 real components (Re and
    Im of each entry, held as (32, n)), with R[n, 0, 0] exactly 1. The result is a
    C-contiguous real (n, 4, 4) array."""
    components = np.ascontiguousarray(rho, dtype=complex).reshape(-1, 16).view(float).T
    r = _pauli_sums(components, _PAULI_ROWS)
    r[0] = 1.0
    return np.ascontiguousarray(r.T).reshape(-1, 4, 4)


def _add_column_term(
    out: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    d: np.ndarray,
    op: np.ufunc,
    work: np.ndarray,
    first: bool,
) -> None:
    """out += op(a b, c d) for one column of the factor, with (k, n) operands and ``work`` two
    (k, n) scratch arrays; the first column's term is formed in ``out`` itself (0 + -0 is +0)."""
    ab = np.multiply(a, b, out=out if first else work[0])
    op(ab, np.multiply(c, d, out=work[1]), out=ab)
    if not first:
        out += ab


def pictures_from_factors(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pictures of the states G G^dag / Tr for G = x + i y, a (n, 4, 4) batch of
    factors given by its real and imaginary parts, without forming G or rho.

    G G^dag has real part x x^T + y y^T and imaginary part y x^T - x y^T, held
    once each (10 and 6 entries) and fed to the Pauli map, :func:`_pauli_sums`;
    the sums are divided by the trace, and R[n, 0, 0] is exactly 1. The sums run
    over G's columns in order, and only two columns of x and y are held
    transposed at a time. Every step is elementwise on the batch, held last,
    so each row's bits do not depend on the rest of the batch. The result is an
    (n, 4, 4) view of R held components first, as a (16, n) array.
    """
    n = len(x)
    sums = np.empty((16, n))
    work = np.empty((2, 4, n))
    xh = np.empty((2, 4, n))  # two of G's columns at a time, as (column, row, state)
    yh = np.empty((2, 4, n))
    for half in (0, 2):
        np.copyto(xh, x[:, :, half : half + 2].transpose(2, 1, 0))
        np.copyto(yh, y[:, :, half : half + 2].transpose(2, 1, 0))
        for j in (0, 1):
            xj, yj = xh[j], yh[j]
            for d in range(4):  # the entries [a, a + d]
                k, row = 4 - d, _RE_ROWS[d]
                real, imag = sums[row : row + k], sums[row + 6 : row + 6 + k]
                _add_column_term(real, xj[:k], xj[d:], yj[:k], yj[d:], np.add, work[:, :k], half + j == 0)
                if d:
                    _add_column_term(imag, yj[:k], xj[d:], xj[:k], yj[d:], np.subtract, work[:, :k], half + j == 0)
    del xh, yh, xj, yj, work  # dropped before the map's temporaries: a sweep tile's peak memory
    r = _pauli_sums(sums, _FOLDED_ROWS)
    r[1:] /= r[0]  # row 0 sums the diagonal: it is the trace
    r[0] = 1.0
    return r.T.reshape(n, 4, 4)


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


# _RANK_COLUMNS[k] keeps the first k columns of a row-major 4x4 factor, for k = 0..4.
_RANK_COLUMNS = np.arange(16) % 4 < np.arange(5)[:, None]


def ginibre_tiles(gen: np.random.Generator, ranks: np.ndarray, tile: int):
    """The Ginibre factors G = x + i y of :func:`ginibre_factors`, one (4, 4) matrix per
    entry of ``ranks``, yielded as (x, y) parts of consecutive tiles of ``tile`` samples.

    The stream is the whole batch's: all real parts are drawn at once, straight into one
    (n, 4, 4) array, and each tile's imaginary parts are drawn when that tile is asked
    for, into one tile-sized buffer that every tile reuses. A yielded ``y`` is therefore
    overwritten by the next tile's. Each tile's columns from its ranks on are zeroed in
    both parts. A batch of none is one empty tile.
    """
    n = len(ranks)
    x = np.empty((n, 4, 4))
    gen.standard_normal(out=x)
    y = np.empty((min(tile, n), 4, 4))
    for lo in range(0, max(n, 1), tile):
        x_t = x[lo : lo + tile]
        y_t = y[: len(x_t)]
        gen.standard_normal(out=y_t)
        keep = _RANK_COLUMNS[ranks[lo : lo + tile]]  # one contiguous row per sample, not a broadcast (n, 1, 4) mask
        for part in (x_t.reshape(-1, 16), y_t.reshape(-1, 16)):
            part *= keep
        yield x_t, y_t


def ginibre_factors(gen: np.random.Generator, ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts (x, y) of Ginibre factors G = x + i y, one (4, 4)
    matrix per entry of ``ranks``, with the columns from each rank on zeroed: the one
    tile of :func:`ginibre_tiles`. Every sample consumes 32 standard normals whatever
    its rank, so mixed-rank streams stay aligned and reproducible: all real parts are
    drawn before all imaginary parts, straight into the two (n, 4, 4) arrays, with no
    temporary."""
    return next(ginibre_tiles(gen, ranks, max(len(ranks), 1)))


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
    x, y = ginibre_factors(gen, ranks)
    return states_from_factors(x + 1j * y)


def sample_state(rng: SeededRng, rank: int = 4) -> DensityMatrix:
    """One Ginibre random state; a pure function of (seed, stream, rank)."""
    if rank not in (1, 2, 3, 4):
        raise DomainError(f"rank must be in 1..4, got {rank}")
    return validate_state(ginibre_states(rng.generator(), 1, rank)[0])
