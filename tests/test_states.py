import math

import mpmath
import numpy as np
import pytest

from hqc import (
    DensityMatrix,
    DomainError,
    NotHermitian,
    NotPositive,
    PAULI_KRON,
    RMatrix,
    SIGMA,
    SeededRng,
    TraceNotOne,
    from_r_picture,
    rho_qd,
    sample_state,
    to_r_picture,
    validate_state,
)
from hqc.states import ginibre_factors, ginibre_states, pictures_from_factors, r_pictures, states_from_factors

from conftest import (
    complex_path_states,
    ginibre_and_pure_marginal_factors,
    haar_unitary_2,
    ket00_matrix,
    rotation_of_unitary,
    singlet_matrix,
)
from support import ZeroProbability, steered_bloch


def bloch_of_qubit(rho2: np.ndarray) -> np.ndarray:
    """Bloch vector of a single-qubit density matrix."""
    return np.array([2 * rho2[0, 1].real, -2 * rho2[0, 1].imag, (rho2[0, 0] - rho2[1, 1]).real])


def partial_trace(rho: DensityMatrix, keep: str) -> np.ndarray:
    """2x2 reduced state of qubit ``"A"`` or ``"B"``."""
    m = rho.matrix.reshape(2, 2, 2, 2)
    return np.einsum("ikjk->ij", m) if keep == "A" else np.einsum("kikj->ij", m)


class TestPauliBasis:
    def test_involutions(self):
        for s in SIGMA:
            np.testing.assert_allclose(s @ s, np.eye(2), atol=1e-15)

    def test_trace_orthogonality(self):
        for i in range(4):
            for j in range(4):
                expected = 2.0 if i == j else 0.0
                assert np.trace(SIGMA[i] @ SIGMA[j]) == pytest.approx(expected, abs=1e-15)


class TestValidateState:
    def test_maximally_mixed_valid(self):
        validate_state(np.eye(4) / 4)

    def test_singlet_valid(self):
        validate_state(singlet_matrix())

    def test_trace_two_rejected(self):
        with pytest.raises(TraceNotOne):
            validate_state(2 * np.eye(4) / 4)

    def test_non_hermitian_rejected(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.1j
        with pytest.raises(NotHermitian):
            validate_state(m)

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(NotPositive):
            validate_state(np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex))

    def test_input_not_repaired(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 0] += 5e-11  # inside tolerance
        out = validate_state(m)
        assert out.matrix[0, 0] == m[0, 0]

    def test_bad_shape(self):
        with pytest.raises(DomainError):
            validate_state(np.eye(3) / 3)

    def test_bad_tolerance(self):
        for tol in (0.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                validate_state(np.eye(4) / 4, tol=tol)

    @pytest.mark.parametrize("entry", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_non_finite_entry_rejected(self, entry):
        # a NaN off the diagonal passes the Hermiticity and trace checks, so it must be caught before the eigensolve
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = m[1, 0] = entry
        with pytest.raises(DomainError, match="non-finite"):
            validate_state(m)


class TestRPicture:
    def test_singlet(self, singlet):
        r = to_r_picture(singlet)
        np.testing.assert_allclose(r.a, 0, atol=1e-15)
        np.testing.assert_allclose(r.b, 0, atol=1e-15)
        np.testing.assert_allclose(r.t, -np.eye(3), atol=1e-15)

    def test_ket00(self, ket00):
        r = to_r_picture(ket00)
        np.testing.assert_allclose(r.a, [0, 0, 1], atol=1e-15)
        np.testing.assert_allclose(r.b, [0, 0, 1], atol=1e-15)
        np.testing.assert_allclose(r.t, np.diag([0, 0, 1]), atol=1e-15)

    def test_quasi_distillable_half(self):
        r = to_r_picture(rho_qd(0.5))
        np.testing.assert_allclose(r.a, [0, 0, 0.5], atol=1e-15)
        np.testing.assert_allclose(r.b, [0, 0, 0.5], atol=1e-15)
        np.testing.assert_allclose(r.t, np.diag([-0.5, -0.5, 0.0]), atol=1e-15)

    def test_corner_is_exactly_one(self):
        assert to_r_picture(sample_state(SeededRng(1, 0))).r[0, 0] == 1.0

    def test_against_direct_trace_oracle(self):
        # independent evaluation of R_ij = Tr[(sigma_i x sigma_j) rho]
        rho = sample_state(SeededRng(5, 3))
        r = to_r_picture(rho)
        for i in range(4):
            for j in range(4):
                direct = np.trace(np.kron(SIGMA[i], SIGMA[j]) @ rho.matrix).real
                if (i, j) != (0, 0):
                    assert r.r[i, j] == pytest.approx(direct, abs=1e-14)

    def test_batch_equals_batch_of_one_bitwise(self):
        # the sweep's batched pictures and the scalar API's agree to the bit
        batch = ginibre_states(SeededRng(5, 4).generator(), 1000, np.repeat(np.arange(1, 5), 250))
        r = r_pictures(batch)
        assert r.shape == (1000, 4, 4)
        for k, m in enumerate(batch):
            np.testing.assert_array_equal(r[k], to_r_picture(DensityMatrix(m)).r)

    def test_pictures_are_contiguous_real_arrays(self):
        # not a strided .real view that keeps the complex product alive
        batch = ginibre_states(SeededRng(5, 5).generator(), 8, 4)
        r = r_pictures(batch)
        assert r.flags["C_CONTIGUOUS"] and r.dtype == np.float64 and r.strides == (128, 32, 8)
        assert r.base is None or r.base.dtype == np.float64
        single = to_r_picture(DensityMatrix(batch[0])).r
        assert single.flags["C_CONTIGUOUS"] and single.strides == (32, 8)


class TestPauliMap:
    def test_r_pictures_match_the_complex_table_product_bitwise(self):
        # the real Pauli map's ascending signed sums against the (n, 16) x (16, 16) complex
        # product it replaced, on 20,000 mixed-rank states and the pure-marginal states
        table = np.ascontiguousarray(PAULI_KRON.transpose(3, 2, 0, 1).reshape(16, 16))
        rho = np.concatenate(
            [
                ginibre_states(SeededRng(3, 0).generator(), 20_000, np.repeat(np.arange(1, 5), 5_000)),
                states_from_factors(ginibre_and_pure_marginal_factors(SeededRng(4, 0).generator())[-4:]),
            ]
        )
        old = np.ascontiguousarray((rho.reshape(-1, 16) @ table).real).reshape(-1, 4, 4)
        old[:, 0, 0] = 1.0
        assert r_pictures(rho).tobytes() == old.tobytes()

    def test_factor_parts_match_the_complex_path(self):
        # R straight from Re G and Im G against r_pictures of G G^dag / Tr, on ranks 1-4
        # and the pure-marginal states; measured 4.4e-16
        g = ginibre_and_pure_marginal_factors(SeededRng(1234, 0).generator())
        r = pictures_from_factors(g.real, g.imag)
        assert r.shape == (len(g), 4, 4) and (r[:, 0, 0] == 1.0).all()
        np.testing.assert_allclose(r, r_pictures(states_from_factors(g)), rtol=0, atol=1e-15)

    def test_factor_parts_against_a_50_digit_oracle(self):
        # every entry of R = Tr[(sigma_i x sigma_j) G G^dag] / Tr[G G^dag] in 50-digit
        # arithmetic, on 20 factors of ranks 1-4; measured 2.2e-16
        x, y = ginibre_factors(SeededRng(77, 0).generator(), np.repeat(np.arange(1, 5), 5))
        r = pictures_from_factors(x, y)
        with mpmath.workdps(50):
            paulis = [[mpmath.matrix(PAULI_KRON[i, j].tolist()) for j in range(4)] for i in range(4)]
            for n in range(len(x)):
                g = mpmath.matrix([[mpmath.mpc(x[n, a, b], y[n, a, b]) for b in range(4)] for a in range(4)])
                rho = g * g.H
                trace = sum(rho[k, k] for k in range(4))
                for i in range(4):
                    for j in range(4):
                        exact = mpmath.re(sum((paulis[i][j] * rho)[k, k] for k in range(4)) / trace)
                        assert abs(exact - r[n, i, j]) <= 1e-15

    def test_factor_rows_do_not_depend_on_the_batch(self):
        x, y = ginibre_factors(SeededRng(8, 0).generator(), np.repeat(np.arange(1, 5), 25))
        r = pictures_from_factors(x, y)
        for k in (0, 37, 99):
            assert pictures_from_factors(x[k : k + 1], y[k : k + 1]).tobytes() == r[k : k + 1].copy().tobytes()


class TestFromRPicture:
    def test_singlet_roundtrip(self, singlet):
        out = from_r_picture(RMatrix(np.diag([1.0, -1.0, -1.0, -1.0])))
        np.testing.assert_allclose(out.matrix, singlet.matrix, atol=1e-15)

    def test_trivial_r(self):
        out = from_r_picture(RMatrix(np.diag([1.0, 0.0, 0.0, 0.0])))
        np.testing.assert_allclose(out.matrix, np.eye(4) / 4, atol=1e-15)

    def test_unphysical_r_rejected(self):
        with pytest.raises(NotPositive):
            from_r_picture(RMatrix(np.diag([1.0, 1.0, 1.0, 1.0])))

    def test_corner_must_be_one(self):
        with pytest.raises(DomainError):
            from_r_picture(RMatrix(np.diag([0.9, 0.0, 0.0, 0.0])))

    def test_round_trip_random_states(self):
        batch = ginibre_states(SeededRng(11, 0).generator(), 1000, 4)
        for m in batch:
            rho = validate_state(m)
            back = from_r_picture(to_r_picture(rho))
            assert np.abs(back.matrix - rho.matrix).max() <= 1e-12

    def test_marginal_consistency(self):
        for i in range(50):
            rho = sample_state(SeededRng(12, i))
            r = to_r_picture(rho)
            np.testing.assert_allclose(r.a, bloch_of_qubit(partial_trace(rho, "A")), atol=1e-12)
            np.testing.assert_allclose(r.b, bloch_of_qubit(partial_trace(rho, "B")), atol=1e-12)

    def test_local_unitary_covariance(self):
        gen = np.random.default_rng(99)
        for i in range(25):
            rho = sample_state(SeededRng(13, i))
            r = to_r_picture(rho)
            u, v = haar_unitary_2(gen), haar_unitary_2(gen)
            ru, rv = rotation_of_unitary(u), rotation_of_unitary(v)
            op = np.kron(u, v)
            rotated = to_r_picture(validate_state(op @ rho.matrix @ op.conj().T))
            np.testing.assert_allclose(rotated.a, ru @ r.a, atol=1e-10)
            np.testing.assert_allclose(rotated.b, rv @ r.b, atol=1e-10)
            np.testing.assert_allclose(rotated.t, ru @ r.t @ rv.T, atol=1e-10)


class TestSampling:
    def test_deterministic_in_seed_and_stream(self):
        a = sample_state(SeededRng(7, 0))
        b = sample_state(SeededRng(7, 0))
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_streams_differ(self):
        a = sample_state(SeededRng(7, 0))
        b = sample_state(SeededRng(7, 1))
        assert np.abs(a.matrix - b.matrix).max() > 1e-3

    def test_negative_seed_or_stream_rejected(self):
        for seed, stream in ((-1, 0), (0, -1)):
            with pytest.raises(DomainError):
                SeededRng(seed, stream)

    def test_states_match_the_complex_path_bitwise(self):
        # drawing the parts straight into real arrays changes no state bit
        ranks = np.repeat(np.arange(1, 5), 5_000)
        rho = ginibre_states(SeededRng(9, 0).generator(), len(ranks), ranks)
        assert rho.tobytes() == complex_path_states(SeededRng(9, 0).generator(), ranks).tobytes()
        for stream in range(3):
            for rank in (1, 2, 3, 4):
                oracle = complex_path_states(SeededRng(9, stream).generator(), np.array([rank]))[0]
                assert sample_state(SeededRng(9, stream), rank=rank).matrix.tobytes() == oracle.tobytes()

    def test_batch_deterministic(self):
        a = ginibre_states(SeededRng(7, 0).generator(), 3, 4)
        b = ginibre_states(SeededRng(7, 0).generator(), 3, 4)
        np.testing.assert_array_equal(a, b)
        for m in a:
            validate_state(m)

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_rank_controls_spectrum(self, rank):
        rho = sample_state(SeededRng(20, rank), rank=rank)
        assert (np.linalg.eigvalsh(rho.matrix) > 1e-10).sum() == rank

    def test_bad_rank(self):
        with pytest.raises(DomainError):
            sample_state(SeededRng(1, 0), rank=5)

    def test_hilbert_schmidt_mean_purity(self):
        # mean Tr rho^2 over the rank-4 ensemble is (d + k) / (d k + 1) = 8/17
        batch = ginibre_states(SeededRng(42, 0).generator(), 100_000, 4)
        purity = np.einsum("nij,nji->n", batch, batch).real
        se = purity.std(ddof=1) / math.sqrt(len(purity))
        assert abs(purity.mean() - 8.0 / 17.0) <= 3 * se


class TestSteering:
    def test_singlet_anticorrelation(self, singlet):
        bloch, p = steered_bloch(to_r_picture(singlet), np.array([0, 0, 1.0]))
        assert p == pytest.approx(0.5, abs=1e-15)
        np.testing.assert_allclose(bloch, [0, 0, -1.0], atol=1e-15)

    def test_product_state_not_steerable(self, ket00):
        bloch, p = steered_bloch(to_r_picture(ket00), np.array([1.0, 0, 0]))
        assert p == pytest.approx(0.5, abs=1e-15)
        np.testing.assert_allclose(bloch, [0, 0, 1.0], atol=1e-15)

    def test_quasi_distillable_example(self):
        bloch, p = steered_bloch(to_r_picture(rho_qd(0.5)), np.array([0, 0, -1.0]))
        assert p == pytest.approx(0.25, abs=1e-15)
        np.testing.assert_allclose(bloch, [0, 0, 1.0], atol=1e-14)

    def test_zero_probability_outcome(self, ket00):
        with pytest.raises(ZeroProbability):
            steered_bloch(to_r_picture(ket00), np.array([0, 0, -1.0]))

    def test_gamma_norm_checked(self, singlet):
        with pytest.raises(DomainError):
            steered_bloch(to_r_picture(singlet), np.array([0, 0, 1.5]))


def test_pauli_kron_table_consistent():
    assert PAULI_KRON.shape == (4, 4, 4, 4)
    np.testing.assert_array_equal(PAULI_KRON[1, 3], np.kron(SIGMA[1], SIGMA[3]))
