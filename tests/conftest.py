import hashlib
import math

import numpy as np
import pytest

from hqc import DensityMatrix, LocalFilter, validate_state
from hqc.states import SeededRng, ginibre_factors


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


def platform_math_digest() -> str:
    """The bits of what the pinned sweeps take from the platform: numpy's arccos and cos, whose
    last bit depends on the SIMD code numpy dispatches to, and numpy's normal stream."""
    phi = np.arccos(np.linspace(-1.0, 1.0, 10_001)) / 3.0
    h = hashlib.sha256(phi.tobytes())
    h.update(np.cos(phi).tobytes())
    h.update(np.cos(phi + 2.0 * math.pi / 3.0).tobytes())
    h.update(SeededRng(0).generator().standard_normal(100_000).tobytes())
    return h.hexdigest()


@pytest.fixture
def recorded_platform():
    """Skip a bit-pin test where numpy's arccos, cos or normal stream give other bits than the
    platform the pins were recorded on (x86-64 with AVX-512, numpy 2.4.6): the digests are then
    the platform's, not the program's."""
    if platform_math_digest() != "e63f121bdfe1d58cde451e8698bbea1f7fdeb04db16947e96ee56fd2c8ef03b9":
        pytest.skip("numpy's arccos, cos or normal stream differ from the platform the digests were recorded on")
