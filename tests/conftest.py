import math

import numpy as np
import pytest

from hqc import DensityMatrix, LocalFilter, validate_state
from hqc.states import ginibre_factors


def singlet_matrix() -> np.ndarray:
    psi = np.zeros(4, dtype=complex)
    psi[1] = 1.0 / math.sqrt(2.0)
    psi[2] = -1.0 / math.sqrt(2.0)
    return np.outer(psi, psi.conj())


def ket00_matrix() -> np.ndarray:
    v = np.zeros(4, dtype=complex)
    v[0] = 1.0
    return np.outer(v, v.conj())


def werner_matrix(w: float) -> np.ndarray:
    return w * singlet_matrix() + (1.0 - w) * np.eye(4, dtype=complex) / 4.0


@pytest.fixture
def singlet() -> DensityMatrix:
    return validate_state(singlet_matrix())


@pytest.fixture
def ket00() -> DensityMatrix:
    return validate_state(ket00_matrix())


@pytest.fixture
def maximally_mixed() -> DensityMatrix:
    return validate_state(np.eye(4, dtype=complex) / 4.0)


def ginibre_and_pure_marginal_factors(gen: np.random.Generator) -> np.ndarray:
    """Ginibre factors of 2,000 states of ranks 1-4, then of four states with pure marginals:
    |00>, a random pure product, a pure A marginal with B mixed, and A mixed with a pure B marginal."""
    x, y = ginibre_factors(gen, np.repeat(np.arange(1, 5), 500))
    g = x + 1j * y
    ket0 = np.array([1.0, 0.0])
    u, v = gen.standard_normal((2, 2)) + 1j * gen.standard_normal((2, 2))
    pure = np.zeros((4, 4, 4), dtype=complex)
    pure[0, :, 0] = np.kron(ket0, ket0)
    pure[1, :, 0] = np.kron(u, v)
    pure[2, :, 0], pure[2, :, 1] = np.kron(ket0, u), np.kron(ket0, v)
    pure[3, :, 0], pure[3, :, 1] = np.kron(u, ket0), np.kron(v, ket0)
    return np.concatenate([g, pure])


def complex_path_states(gen: np.random.Generator, ranks: np.ndarray) -> np.ndarray:
    """Ginibre states as the complex path built them: G filled in place from two
    whole-batch draws, masked by a complex product, then G G^dag / Tr."""
    count = len(ranks)
    g = np.empty((count, 4, 4), dtype=complex)
    g.real = gen.standard_normal((count, 4, 4))
    g.imag = gen.standard_normal((count, 4, 4))
    g *= np.arange(4)[None, None, :] < ranks[:, None, None]
    rho = g @ g.conj().transpose(0, 2, 1)
    return rho / np.einsum("nii->n", rho).real[:, None, None]


def haar_unitary_2(gen: np.random.Generator) -> np.ndarray:
    z = gen.standard_normal((2, 2)) + 1j * gen.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def bounded_random_filter(gen: np.random.Generator, d_min: float = 0.2) -> LocalFilter:
    """Random invertible filter with singular values in [d_min, 1].

    Bounding the condition number keeps the numerical drift of invariance
    checks far below their tolerances.
    """
    d = gen.uniform(d_min, 1.0)
    return LocalFilter.from_matrix(haar_unitary_2(gen) @ np.diag([1.0, d]) @ haar_unitary_2(gen))


def rotation_of_unitary(u: np.ndarray) -> np.ndarray:
    """SO(3) image of a single-qubit unitary acting on Bloch vectors."""
    from hqc import SIGMA

    return np.array(
        [[0.5 * np.trace(SIGMA[i + 1] @ u @ SIGMA[j + 1] @ u.conj().T).real for j in range(3)] for i in range(3)]
    )
