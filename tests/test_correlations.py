import ast
import inspect
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqc import (
    DomainError,
    SeededRng,
    brute_force_chsh,
    chsh_max,
    chsh_value,
    correlations,
    f3_max,
    ppt_entangled,
    rho_m,
    rho_mm,
    rho_qd,
    sample_state,
    t_contract,
    to_r_picture,
    validate_state,
)
from hqc.correlations import chsh_f3_maxima, chsh_f3_value
from hqc.filtering import _boost
from hqc.states import RMatrix, ginibre_states, r_pictures, states_from_factors

from conftest import ginibre_and_pure_marginal_factors, haar_unitary_2, rotation_of_unitary, werner_matrix
from support import brute_force_f3, f3_value, tight_chsh_picture

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])


class TestChshValue:
    def test_singlet_optimal_settings(self, singlet):
        r = to_r_picture(singlet)
        b1 = -(X + Z) / math.sqrt(2)
        b2 = -(X - Z) / math.sqrt(2)
        assert chsh_value(r, X, Z, b1, b2) == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_singlet_all_z(self, singlet):
        r = to_r_picture(singlet)
        assert chsh_value(r, Z, Z, Z, Z) == pytest.approx(-1.0, abs=1e-12)

    def test_ket00_all_z(self, ket00):
        r = to_r_picture(ket00)
        assert chsh_value(r, Z, Z, Z, Z) == pytest.approx(1.0, abs=1e-12)

    def test_non_unit_direction_rejected(self, singlet):
        with pytest.raises(DomainError):
            chsh_value(to_r_picture(singlet), 2 * X, Z, Z, Z)

    def test_contraction_is_bilinear(self):
        r = to_r_picture(sample_state(SeededRng(3, 0)))
        u = np.array([0.3, -0.2, 0.9])
        v = np.array([-0.5, 0.1, 0.4])
        w = np.array([0.2, 0.7, -0.1])
        assert t_contract(r, u, 2 * v + w) == pytest.approx(2 * t_contract(r, u, v) + t_contract(r, u, w), abs=1e-12)
        assert t_contract(r, 2 * u + v, w) == pytest.approx(2 * t_contract(r, u, w) + t_contract(r, v, w), abs=1e-12)


class TestClosedFormMaxima:
    def test_singlet(self, singlet):
        value, s = chsh_max(to_r_picture(singlet))
        assert value == pytest.approx(math.sqrt(2), abs=1e-12)
        assert (s.s1, s.s2, s.s3) == pytest.approx((1, 1, 1), abs=1e-12)

    def test_ket00(self, ket00):
        value, s = chsh_max(to_r_picture(ket00))
        assert value == pytest.approx(1.0, abs=1e-12)
        assert (s.s1, s.s2, s.s3) == pytest.approx((1, 0, 0), abs=1e-12)

    def test_werner_half(self):
        r = to_r_picture(validate_state(werner_matrix(0.5)))
        np.testing.assert_allclose(r.t, -0.5 * np.eye(3), atol=1e-15)
        assert chsh_max(r)[0] == pytest.approx(0.5 * math.sqrt(2), abs=1e-12)
        assert f3_max(r) == pytest.approx(0.5 * math.sqrt(3), abs=1e-12)

    def test_f3_singlet(self, singlet):
        assert f3_max(to_r_picture(singlet)) == pytest.approx(math.sqrt(3), abs=1e-12)

    def test_f3_ket00(self, ket00):
        assert f3_max(to_r_picture(ket00)) == pytest.approx(1.0, abs=1e-12)

    def test_ordering_and_range(self):
        for i, m in enumerate(ginibre_states(SeededRng(17, 0).generator(), 100, 4)):
            r = to_r_picture(validate_state(m))
            b = chsh_max(r)[0]
            f3 = f3_max(r)
            assert 0.0 <= b <= math.sqrt(2) + 1e-10
            assert f3 >= b - 1e-12

    def test_local_unitary_invariance(self):
        gen = np.random.default_rng(5)
        for i in range(20):
            rho = sample_state(SeededRng(18, i))
            op = np.kron(haar_unitary_2(gen), haar_unitary_2(gen))
            rotated = validate_state(op @ rho.matrix @ op.conj().T)
            assert chsh_max(to_r_picture(rho))[0] == pytest.approx(
                chsh_max(to_r_picture(rotated))[0], abs=1e-10
            )
            assert f3_max(to_r_picture(rho)) == pytest.approx(f3_max(to_r_picture(rotated)), abs=1e-10)


class TestOneFormula:
    def test_singular_values_of_product_states(self):
        # T = a b^T has rank one on a pure product state: the SVD keeps the two
        # zero singular values to roundoff, which T T^T's eigenvalues would not
        gen = SeededRng(31, 0).generator()
        worst = 0.0
        for _ in range(200):
            u, v = gen.standard_normal((2, 2)) + 1j * gen.standard_normal((2, 2))
            psi = np.kron(u / np.linalg.norm(u), v / np.linalg.norm(v))
            r = to_r_picture(validate_state(np.outer(psi, psi.conj())))
            s = chsh_max(r)[1]
            expected = (np.linalg.norm(r.a) * np.linalg.norm(r.b), 0.0, 0.0)
            worst = max(worst, *(abs(x - y) for x, y in zip(s, expected)))
        assert worst <= 1e-15

    def test_batch_rows_equal_single_calls_to_the_bit(self):
        r = r_pictures(states_from_factors(ginibre_and_pure_marginal_factors(SeededRng(32, 0).generator())))
        b, f3 = chsh_f3_maxima(r[:, 1:, 1:])
        for i, ri in enumerate(r):
            bi, f3i = chsh_f3_maxima(ri[1:, 1:])
            assert (b[i].tobytes(), f3[i].tobytes()) == (bi.tobytes(), f3i.tobytes()), i
            assert (chsh_max(RMatrix(ri))[0], f3_max(RMatrix(ri))) == (float(b[i]), float(f3[i])), i


def _boosted_t(r: np.ndarray, x) -> np.ndarray:
    """T of the picture r after Alice's boost L(x): (L R)[1:, 1:] / (L R)[0, 0]."""
    rf = np.reshape(_boost(x), (4, 4)) @ r
    return rf[1:, 1:] / rf[0, 0]


def _oracle_cases() -> np.ndarray:
    """Correlation matrices on which a cubic-root formula for the T T^T spectrum goes wrong.

    Rotated spectra with a degenerate lower pair, a degenerate top pair, a
    triple, rank one and zero; pure states (T has singular values (1, s, s));
    and boosts L(d, n) with d in [1e-4, 1] of rho_m, rho_qd and Ginibre states,
    whose T tends to rank one as d falls.
    """
    gen = SeededRng(90, 0).generator()
    cases = []
    for spectrum in ((0.9, 0.3, 0.3), (0.5, 0.5, 0.2), (0.4, 0.4, 0.4), (0.7, 0.0, 0.0), (0.0, 0.0, 0.0)):
        for _ in range(12):
            o1, o2 = (rotation_of_unitary(haar_unitary_2(gen)) for _ in range(2))
            cases.append(o1 @ np.diag(spectrum) @ o2.T)
    cases += [to_r_picture(sample_state(SeededRng(91, i), rank=1)).t for i in range(40)]
    states = [rho_m(t, p) for t in (math.pi / 12, 0.5) for p in (0.75, 0.9)]
    states += [rho_qd(p) for p in (0.4, 0.6, 0.9)]
    states += [sample_state(SeededRng(92, i), rank=1 + i % 4) for i in range(8)]
    for rho in states:
        r = to_r_picture(rho).r
        for d in 10.0 ** -np.linspace(0.0, 4.0, 9):
            cases.append(_boosted_t(r, (d, gen.uniform(0.0, math.pi), gen.uniform(-math.pi, math.pi))))
    return np.array(cases)


def _mp_reference(t: np.ndarray) -> tuple[float, float]:
    """B and F3 of t from a 50-digit symmetric eigensolve of T T^T (the float entries of t are exact)."""
    with mpmath.workdps(50):
        m = mpmath.matrix(t.tolist())
        w = sorted(mpmath.eigsy(m * m.T, eigvals_only=True))
        return mpmath.sqrt(w[1] + w[2]), mpmath.sqrt(w[0] + w[1] + w[2])


def _plain_trigonometric_b(t: np.ndarray) -> float:
    """B^2 = tr M - l_min with l_min from the bare arccos formula: the method the oracle must catch."""
    m = t @ t.T
    q = np.trace(m) / 3.0
    p = math.sqrt(np.sum((m - q * np.eye(3)) ** 2) / 6.0)
    if p == 0.0:
        return math.sqrt(2.0 * q)
    phi = math.acos(min(max(np.linalg.det((m - q * np.eye(3)) / p) / 2.0, -1.0), 1.0)) / 3.0
    return math.sqrt(3.0 * q - (q + 2.0 * p * math.cos(phi + 2.0 * math.pi / 3.0)))


def _rel(x: float, ref) -> float:
    return float(abs(x - ref) / ref) if ref > 0 else abs(x)


class TestPrecisionOracle:
    """Both renditions of the closed-form B/F3 formula against 50-digit references.

    Measured on the oracle cases: at most 2.0e-16 relative for B and 1.6e-16
    for F3 (the batched eigvalsh of T T^T reached 5.0e-16 for B, the bare
    arccos formula 3.5e-9).
    """

    BOUND = 1e-15

    def test_closed_forms_match_the_50_digit_spectrum(self):
        cases = _oracle_cases()
        b, f3 = chsh_f3_maxima(cases)
        worst = {"B": 0.0, "F3": 0.0, "B float": 0.0, "F3 float": 0.0, "plain trigonometric B": 0.0}
        for i, t in enumerate(cases):
            b_ref, f3_ref = _mp_reference(t)
            errors = {
                "B": _rel(b[i], b_ref),
                "F3": _rel(f3[i], f3_ref),
                "B float": _rel(chsh_f3_value(t.tolist(), True), b_ref),
                "F3 float": _rel(chsh_f3_value(t.tolist(), False), f3_ref),
                "plain trigonometric B": _rel(_plain_trigonometric_b(t), b_ref),
            }
            worst = {key: max(worst[key], errors[key]) for key in worst}
        plain = worst.pop("plain trigonometric B")
        assert max(worst.values()) <= self.BOUND, worst
        # the cases are hard enough: the bare arccos formula misses the bound on them by far
        assert plain > 1e3 * self.BOUND, plain

    def test_zero_matrix_gives_zero(self):
        assert chsh_f3_maxima(np.zeros((3, 3))) == (0.0, 0.0)
        assert (chsh_f3_value([[0.0] * 3] * 3, True), chsh_f3_value([[0.0] * 3] * 3, False)) == (0.0, 0.0)

    def test_float_rendition_agrees_with_the_batch(self):
        # 10^4 boosted Ginibre pictures of ranks 1-4; math.acos and numpy's arccos may
        # differ in the last bit, so the renditions agree to a relative 1e-15, not bitwise
        gen = SeededRng(93, 0).generator()
        r = r_pictures(states_from_factors(ginibre_and_pure_marginal_factors(gen)))
        x = zip(10.0 ** gen.uniform(-4.0, 0.0, 10_000), *gen.uniform(-math.pi, math.pi, (2, 10_000)))
        cases = np.array([_boosted_t(r[i % len(r)], xi) for i, xi in enumerate(x)])
        b, f3 = chsh_f3_maxima(cases)
        worst = 0.0
        for i, t in enumerate(cases.tolist()):
            worst = max(worst, _rel(chsh_f3_value(t, True), b[i]), _rel(chsh_f3_value(t, False), f3[i]))
        assert worst <= 1e-15


class TestF3Value:
    def test_singlet_negated_axes(self, singlet):
        r = to_r_picture(singlet)
        assert f3_value(r, -X, -Y, -Z) == pytest.approx(math.sqrt(3), abs=1e-12)

    def test_maximally_mixed(self, maximally_mixed):
        r = to_r_picture(maximally_mixed)
        assert f3_value(r, X, Y, Z) == pytest.approx(0.0, abs=1e-12)

    def test_ket00_axes(self, ket00):
        r = to_r_picture(ket00)
        assert f3_value(r, X, Y, Z) == pytest.approx(1 / math.sqrt(3), abs=1e-12)


def _density_route_min_eig(rho) -> float:
    # partial transpose on B of the density matrix itself, by index permutation
    pt = rho.matrix.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    return float(np.linalg.eigvalsh(pt).min())


class TestPpt:
    def test_singlet(self, singlet):
        entangled, min_eig = ppt_entangled(to_r_picture(singlet))
        assert entangled
        assert min_eig == pytest.approx(-0.5, abs=1e-12)

    def test_maximally_mixed(self, maximally_mixed):
        entangled, min_eig = ppt_entangled(to_r_picture(maximally_mixed))
        assert not entangled
        assert min_eig == pytest.approx(0.25, abs=1e-12)

    def test_rho_m_example_against_manual_transpose(self):
        rho = rho_m(math.pi / 4, 0.5)
        # independent partial transpose: transpose each 2x2 block of B indices
        m = rho.matrix
        pt = np.zeros_like(m)
        for ia in range(2):
            for ja in range(2):
                block = m[2 * ia : 2 * ia + 2, 2 * ja : 2 * ja + 2]
                pt[2 * ia : 2 * ia + 2, 2 * ja : 2 * ja + 2] = block.T
        expected_min = float(np.linalg.eigvalsh(pt).min())
        entangled, min_eig = ppt_entangled(to_r_picture(rho))
        assert entangled
        assert min_eig == pytest.approx(expected_min, abs=1e-12)

    def test_transpose_side_irrelevant(self):
        for i in range(10):
            rho = sample_state(SeededRng(19, i))
            m = rho.matrix.reshape(2, 2, 2, 2)
            pt_a = m.transpose(2, 1, 0, 3).reshape(4, 4)
            _, min_eig = ppt_entangled(to_r_picture(rho))
            assert min_eig == pytest.approx(float(np.linalg.eigvalsh(pt_a).min()), abs=1e-12)

    def test_r_route_matches_density_route(self, ket00):
        # negating R's sigma_y column is the partial transpose on B
        states = [sample_state(SeededRng(20, i), rank) for rank in (1, 2, 3, 4) for i in range(10)]
        states += [rho_m(t, p) for t in (0.1, math.pi / 8, math.pi / 4) for p in (0.0, 0.3, 0.8)]
        states += [rho_mm(t, p) for t in (0.1, math.pi / 8, math.pi / 4) for p in (0.0, 0.3, 0.8)]
        states += [rho_qd(p) for p in (0.0, 0.2, 0.5, 2 / 3, 0.9, 1.0)]
        states.append(ket00)
        worst = 0.0
        for rho in states:
            expected = _density_route_min_eig(rho)
            entangled, min_eig = ppt_entangled(to_r_picture(rho))
            assert entangled == (expected < -1e-10)
            worst = max(worst, abs(min_eig - expected))
        assert worst <= 1e-14
        assert ppt_entangled(to_r_picture(ket00)) == (False, pytest.approx(0.0, abs=1e-15))


class TestBruteForceOracles:
    def test_singlet_chsh(self, singlet):
        assert brute_force_chsh(to_r_picture(singlet)) == pytest.approx(math.sqrt(2), abs=1e-6)

    def test_maximally_mixed_chsh(self, maximally_mixed):
        assert abs(brute_force_chsh(to_r_picture(maximally_mixed))) <= 1e-9

    def test_singlet_f3(self, singlet):
        assert brute_force_f3(to_r_picture(singlet)) == pytest.approx(math.sqrt(3), abs=1e-6)

    def test_maximally_mixed_f3(self, maximally_mixed):
        assert abs(brute_force_f3(to_r_picture(maximally_mixed))) <= 1e-9

    def test_matches_closed_forms_on_random_states(self):
        for m in ginibre_states(SeededRng(23, 0).generator(), 20, 4):
            r = to_r_picture(validate_state(m))
            b = chsh_max(r)[0]
            bf = brute_force_chsh(r)
            assert bf <= b + 1e-9
            assert bf == pytest.approx(b, abs=1e-6)
            f3 = f3_max(r)
            bf3 = brute_force_f3(r)
            assert bf3 <= f3 + 1e-9
            assert bf3 == pytest.approx(f3, abs=1e-6)


class TestBruteForceChshSeesaw:
    """The CHSH oracle's see-saw alone reaches the closed form, also where it is slowest."""

    # Ginibre states whose see-saws took over 100 steps a seed pair, pure states with s2 = s3 (rho_mm
    # at theta = 0.7 takes about 400 steps), and the family on which B meets the conjectured bound
    SLOW = (
        [
            pytest.param(to_r_picture(sample_state(SeededRng(3, i), rank=1 + i % 4)), id=f"ginibre-{i}")
            for i in (40, 82, 85, 136, 144, 146, 172, 205, 213, 232)
        ]
        + [pytest.param(to_r_picture(rho_mm(theta, 1.0)), id=f"rho_mm-{theta}") for theta in (0.1, 0.3, 0.5, 0.7)]
        + [pytest.param(tight_chsh_picture(c), id=f"tight-{c}") for c in (0.1, 0.4, 0.661)]
    )

    @pytest.mark.parametrize("r", SLOW)
    def test_reaches_the_closed_form(self, r):
        b = float(chsh_f3_maxima(r.t)[0])
        bf = brute_force_chsh(r)
        assert bf <= b + 1e-15
        assert b - bf <= 1e-14

    def test_tied_singular_values_take_few_evaluations(self, monkeypatch):
        # T's two largest singular values tie on pure rho_mm(theta, 1), where the see-saw converges only
        # linearly: about 400 batched steps, each one evaluation for all 8 seed pairs
        calls = []
        evaluate = correlations._chsh_given_alphas
        monkeypatch.setattr(correlations, "_chsh_given_alphas", lambda *args: calls.append(1) or evaluate(*args))
        brute_force_chsh(to_r_picture(rho_mm(0.7, 1.0)))
        assert len(calls) <= 600

    def test_needs_no_nelder_mead(self):
        tree = ast.parse(inspect.getsource(correlations))
        names = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names += [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                names += [alias.name for alias in node.names]
        assert "neldermead" not in {part for name in names for part in name.split(".")}


class TestBatchFirstHelpers:
    """The oracles' helpers read a stack along its last axis, and a 1-D vector is a batch of one."""

    V = np.array([[3.0, 4.0, 0.0], [0.0, 0.0, 0.0], [1e-3, -2.0, 7.5], [1e-15, 0.0, 0.0]])
    FALLBACK = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])

    def test_safe_normalize_falls_back_on_null_rows(self):
        out = correlations._safe_normalize(self.V, self.FALLBACK)
        assert out.shape == self.V.shape
        np.testing.assert_array_equal(out[[1, 3]], self.FALLBACK[[1, 3]])
        np.testing.assert_allclose(np.linalg.norm(out[[0, 2]], axis=1), 1.0, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(out[0], [0.6, 0.8, 0.0])

    def test_safe_normalize_rows_are_one_dimensional_calls(self):
        out = correlations._safe_normalize(self.V, self.FALLBACK)
        for k in range(len(self.V)):
            np.testing.assert_array_equal(out[k], correlations._safe_normalize(self.V[k], self.FALLBACK[k]))

    def test_chsh_given_alphas_rows_are_one_dimensional_calls(self):
        t = to_r_picture(sample_state(SeededRng(5, 0), rank=2)).t
        gen = SeededRng(5, 1).generator()
        a1, a2 = gen.standard_normal((2, 6, 3))
        values = correlations._chsh_given_alphas(t, a1, a2)
        assert values.shape == (6,)
        for k in range(6):
            assert values[k] == correlations._chsh_given_alphas(t, a1[k], a2[k])


@st.composite
def unit_vectors(draw):
    v = np.array([draw(st.floats(-1, 1)) for _ in range(3)])
    n = np.linalg.norm(v)
    if n < 1e-3:
        v = np.array([0.0, 0.0, 1.0])
        n = 1.0
    return v / n


@settings(max_examples=40, deadline=None)
@given(a1=unit_vectors(), a2=unit_vectors(), b1=unit_vectors(), b2=unit_vectors())
def test_no_settings_beat_the_closed_form(a1, a2, b1, b2):
    r = to_r_picture(validate_state(werner_matrix(0.7)))
    assert chsh_value(r, a1, a2, b1, b2) <= chsh_max(r)[0] + 1e-10


@settings(max_examples=40, deadline=None)
@given(a1=unit_vectors(), a2=unit_vectors(), a3=unit_vectors())
def test_no_f3_settings_beat_the_closed_form(a1, a2, a3):
    r = to_r_picture(validate_state(werner_matrix(0.7)))
    assert f3_value(r, a1, a2, a3) <= f3_max(r) + 1e-10
