import math

import mpmath
import numpy as np
import pytest

from hqc import (
    ComplexSpectrum,
    DegenerateNormalForm,
    DomainError,
    LocalFilter,
    Objective,
    OptimumMismatch,
    Party,
    RMatrix,
    SIGMA,
    SeededRng,
    ZeroSuccessProbability,
    apply_filters,
    apply_one_sided,
    brute_force_chsh,
    chsh_max,
    f3_max,
    from_r_picture,
    hidden_chsh,
    hidden_f3,
    identity_filter,
    normal_form_spectrum,
    optimize_one_sided,
    paper_filter_rho_m,
    rho_m,
    rho_mm,
    rho_qd,
    sample_state,
    to_r_picture,
    validate_state,
)

from hqc import filtering
from hqc.states import ginibre_factors, ginibre_states, r_pictures
from hqc.filtering import (
    SCALE_FLOOR,
    _boost,
    _filter_from_params,
    _search_objective,
    hidden_values,
    normal_form_spectra,
)

from conftest import bounded_random_filter, singlet_matrix, werner_matrix
from support import (
    exact_f3_oracle,
    exact_f3_solution,
    family_factor,
    nelder_mead_search,
    reference_optimum,
    spin_flip_spectrum,
)


def normal_form_r(r: RMatrix) -> RMatrix:
    """Correlation picture of the Bell-diagonal normal form."""
    nu = normal_form_spectrum(r)
    if nu.nu0 <= 1e-12:
        raise DegenerateNormalForm(f"leading eigenvalue {nu.nu0:.3e} <= 1e-12")
    d = np.array([1.0, -math.sqrt(nu.nu1 / nu.nu0), -math.sqrt(nu.nu2 / nu.nu0), -math.sqrt(nu.nu3 / nu.nu0)])
    return RMatrix(np.diag(d))


BELL_VECTORS = np.array(
    [
        [1, 0, 0, 1],
        [1, 0, 0, -1],
        [0, 1, 1, 0],
        [0, 1, -1, 0],
    ],
    dtype=complex,
).T / math.sqrt(2)


def random_bell_diagonal(gen: np.random.Generator) -> np.ndarray:
    probs = gen.dirichlet(np.ones(4))
    return (BELL_VECTORS * probs) @ BELL_VECTORS.conj().T


class TestLocalFilter:
    def test_normalised_to_unit_top_singular_value(self):
        f = LocalFilter.from_matrix(np.array([[3.0, 0.0], [0.0, 1.5]]))
        assert np.linalg.svd(f.f, compute_uv=False)[0] == pytest.approx(1.0, abs=1e-15)

    def test_normalisation_idempotent(self):
        f = LocalFilter.from_matrix(np.array([[0.4, 0.1j], [0.0, 0.9]]))
        again = LocalFilter.from_matrix(f.f)
        np.testing.assert_allclose(again.f, f.f, atol=1e-15)

    def test_singular_matrix_rejected(self):
        with pytest.raises(DomainError):
            LocalFilter.from_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_zero_matrix_rejected(self):
        with pytest.raises(DomainError):
            LocalFilter.from_matrix(np.zeros((2, 2)))

    def test_bad_shape(self):
        with pytest.raises(DomainError):
            LocalFilter.from_matrix(np.eye(3))

    @pytest.mark.parametrize("entry", [math.nan, math.inf, complex(1.0, -math.inf)])
    def test_non_finite_entry_rejected(self, entry):
        m = np.eye(2, dtype=complex)
        m[0, 1] = entry
        with pytest.raises(DomainError, match="non-finite"):
            LocalFilter.from_matrix(m)


class TestApplyFilters:
    def test_identity_filters_do_nothing(self, singlet):
        out, prob = apply_filters(singlet, identity_filter(), identity_filter())
        assert prob == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(out.matrix, singlet.matrix, atol=1e-14)

    def test_success_probability_formula(self):
        # matches Tr[(fa^dag fa (x) fb^dag fb) rho] and lies in (0, 1]
        gen = np.random.default_rng(7)
        for i in range(25):
            rho = sample_state(SeededRng(51, i))
            fa, fb = bounded_random_filter(gen), bounded_random_filter(gen)
            _, prob = apply_filters(rho, fa, fb)
            effect = np.kron(fa.f.conj().T @ fa.f, fb.f.conj().T @ fb.f)
            assert prob == pytest.approx(float(np.trace(effect @ rho.matrix).real), abs=1e-12)
            assert 0.0 < prob <= 1.0 + 1e-12

    def test_filter_annihilating_support(self):
        ket11 = np.zeros((4, 4), dtype=complex)
        ket11[3, 3] = 1.0
        rho = validate_state(ket11)
        f = LocalFilter.from_matrix(np.diag([1.0, 5e-7]))
        with pytest.raises(ZeroSuccessProbability):
            apply_one_sided(rho, f, Party.A)

    def test_one_sided_is_two_sided_with_identity(self):
        rho = sample_state(SeededRng(52, 0))
        gen = np.random.default_rng(8)
        f = bounded_random_filter(gen)
        a, pa = apply_one_sided(rho, f, Party.B)
        b, pb = apply_filters(rho, identity_filter(), f)
        assert pa == pb
        np.testing.assert_array_equal(a.matrix, b.matrix)


class TestNormalFormSpectrum:
    def test_singlet(self, singlet):
        nu = normal_form_spectrum(to_r_picture(singlet))
        assert tuple(nu) == pytest.approx((1, 1, 1, 1), abs=1e-12)

    def test_werner(self):
        for w in (0.2, 0.5, 0.9):
            nu = normal_form_spectrum(to_r_picture(validate_state(werner_matrix(w))))
            assert tuple(nu) == pytest.approx((1, w * w, w * w, w * w), abs=1e-12)

    def test_quasi_distillable(self):
        from hqc import rho_qd

        for p in np.linspace(0.05, 1.0, 20):
            nu = normal_form_spectrum(to_r_picture(rho_qd(float(p))))
            assert tuple(nu) == pytest.approx((p * p,) * 4, rel=1e-8)

    def test_decreasing_order(self):
        for i in range(30):
            nu = normal_form_spectrum(to_r_picture(sample_state(SeededRng(53, i))))
            assert nu.nu0 >= nu.nu1 >= nu.nu2 >= nu.nu3 >= 0.0

    def test_batch_rows_equal_one_row_calls(self, ket00):
        pictures = [to_r_picture(sample_state(SeededRng(67, i), rank=k)).r for i in range(10) for k in (1, 2, 3, 4)]
        pictures += [to_r_picture(rho_qd(float(p))).r for p in np.linspace(0.05, 1.0, 8)]  # four equal values
        pictures += [to_r_picture(validate_state(werner_matrix(w))).r for w in (0.0, 0.3, 0.9)]  # three equal values
        pictures += [to_r_picture(rho_mm(t, p)).r for t in (0.0, 0.2, math.pi / 4) for p in (0.0, 0.5, 1.0)]
        pictures.append(to_r_picture(ket00).r)
        batch = normal_form_spectra(np.stack(pictures))
        for r, row in zip(pictures, batch):
            assert row.tobytes() == normal_form_spectra(r[None])[0].tobytes()

    def test_unphysical_input_raises(self):
        # a strongly non-physical correlation picture with rotational T
        arr = np.eye(4)
        arr[1, 1] = arr[2, 2] = 0.0
        arr[1, 2], arr[2, 1] = -1.0, 1.0
        arr[0, 3], arr[3, 0], arr[3, 3] = 0.9, -0.9, 0.1
        with pytest.raises(ComplexSpectrum):
            normal_form_spectrum(RMatrix(arr))


class TestNormalFormR:
    def test_singlet_already_normal(self, singlet):
        nf = normal_form_r(to_r_picture(singlet))
        np.testing.assert_allclose(nf.r, np.diag([1.0, -1, -1, -1]), atol=1e-10)

    def test_werner_own_normal_form(self):
        nf = normal_form_r(to_r_picture(validate_state(werner_matrix(0.5))))
        np.testing.assert_allclose(nf.r, np.diag([1.0, -0.5, -0.5, -0.5]), atol=1e-10)

    def test_quasi_distillable_is_singlet_orbit(self):
        from hqc import rho_qd

        nf = normal_form_r(to_r_picture(rho_qd(0.3)))
        np.testing.assert_allclose(nf.r, np.diag([1.0, -1, -1, -1]), atol=1e-7)

    def test_reconstructs_to_valid_state(self):
        for i in range(20):
            nf = normal_form_r(to_r_picture(sample_state(SeededRng(54, i))))
            from_r_picture(nf)

    def test_degenerate_orbit_rejected(self, ket00):
        # a pure product state has an all-zero correlation spectrum
        assert tuple(normal_form_spectrum(to_r_picture(ket00))) == pytest.approx((0, 0, 0, 0), abs=1e-12)
        with pytest.raises(DegenerateNormalForm):
            normal_form_r(to_r_picture(ket00))
        with pytest.raises(DegenerateNormalForm):
            hidden_chsh(to_r_picture(ket00))


class TestHiddenMeasures:
    def test_singlet(self, singlet):
        r = to_r_picture(singlet)
        assert hidden_chsh(r) == pytest.approx(math.sqrt(2), abs=1e-12)
        assert hidden_f3(r) == pytest.approx(math.sqrt(3), abs=1e-12)

    def test_quasi_distillable_maximal(self):
        # exactly, on the 99-point line of hqc scan qd: the spectrum's four equal values give ratios of exactly 1
        from hqc import rho_qd

        for p in np.linspace(0.01, 0.99, 99).tolist():
            r = to_r_picture(rho_qd(p))
            assert (hidden_chsh(r), hidden_f3(r)) == (math.sqrt(2), math.sqrt(3)), p

    def test_werner(self):
        r = to_r_picture(validate_state(werner_matrix(0.5)))
        assert hidden_chsh(r) == pytest.approx(0.5 * math.sqrt(2), abs=1e-12)
        assert hidden_f3(r) == pytest.approx(0.5 * math.sqrt(3), abs=1e-12)

    def test_bell_diagonal_fixed_point(self):
        gen = np.random.default_rng(9)
        for _ in range(30):
            r = to_r_picture(validate_state(random_bell_diagonal(gen)))
            assert hidden_chsh(r) == pytest.approx(chsh_max(r)[0], abs=1e-10)
            assert hidden_f3(r) == pytest.approx(f3_max(r), abs=1e-10)

    def test_invariant_under_two_sided_filtering(self):
        gen = np.random.default_rng(10)
        for i in range(50):
            rho = sample_state(SeededRng(55, i))
            r = to_r_picture(rho)
            filtered, _ = apply_filters(rho, bounded_random_filter(gen), bounded_random_filter(gen))
            rf = to_r_picture(filtered)
            assert hidden_chsh(rf) == pytest.approx(hidden_chsh(r), abs=1e-7)
            assert hidden_f3(rf) == pytest.approx(hidden_f3(r), abs=1e-7)

    def test_paper_filter_reaches_hidden_chsh_on_rho_m(self):
        theta, p = math.pi / 6, 0.5
        rho = rho_m(theta, p)
        fa, fb = paper_filter_rho_m(theta)
        filtered, _ = apply_filters(rho, fa, fb)
        rf = to_r_picture(filtered)
        # the optimally filtered state is Bell diagonal
        assert np.linalg.norm(rf.a) <= 1e-10
        assert np.linalg.norm(rf.b) <= 1e-10
        assert chsh_max(rf)[0] == pytest.approx(hidden_chsh(to_r_picture(rho)), abs=1e-8)


def _oracle_cases(family: str) -> tuple[list[np.ndarray], list[list]]:
    """Pictures and exact-rank factors of one family's oracle set: a 12 x 13 grid of [0, pi/4] x [0, 1]
    for m and mm, 26 points of [0, 1] for qd, and 15 Ginibre states of each rank 1-4."""
    if family == "ginibre":
        pictures, factors = [], []
        for k in (1, 2, 3, 4):
            for i in range(15):
                x, y = ginibre_factors(SeededRng(80, i).generator(), np.array([k]))
                pictures.append(to_r_picture(sample_state(SeededRng(80, i), rank=k)).r)
                factors.append([[mpmath.mpc(a, b) for a, b in zip(*rows)] for rows in zip(x[0].tolist(), y[0].tolist())])
        return pictures, factors
    if family == "qd":
        points = [(0.0, p) for p in np.linspace(0.0, 1.0, 26).tolist()]
        states = [rho_qd(p) for _, p in points]
    else:
        points = [(t, p) for t in np.linspace(0.0, math.pi / 4, 12).tolist() for p in np.linspace(0.0, 1.0, 13).tolist()]
        states = [(rho_m if family == "m" else rho_mm)(t, p) for t, p in points]
    return [to_r_picture(rho).r for rho in states], [family_factor(family, t, p) for t, p in points]


class TestNormalFormOracle:
    """The spectrum and the hidden values against the 50-digit spin-flip oracle of exact-rank factors
    (``support.spin_flip_spectrum``): a float-rho oracle would inherit rho's roundoff, whose square
    root moves lambda near rank deficiency."""

    @pytest.mark.parametrize("family", ["m", "mm", "qd", "ginibre"])
    def test_within_1e12_of_the_oracle(self, family):
        pictures, factors = _oracle_cases(family)
        nu, hidden = normal_form_spectra(np.stack(pictures)), hidden_values(np.stack(pictures))
        for i, (g, row, values) in enumerate(zip(factors, nu, hidden)):
            exact = [float(v) for v in spin_flip_spectrum(g)]
            np.testing.assert_allclose(row, exact, rtol=0, atol=1e-12, err_msg=f"{family} {i}")
            if exact[0] > 1e-12:
                chsh, f3 = math.sqrt((exact[1] + exact[2]) / exact[0]), math.sqrt(sum(exact[1:]) / exact[0])
                np.testing.assert_allclose(values, [chsh, f3], rtol=0, atol=1e-12, err_msg=f"{family} {i}")
            else:
                assert np.isnan(values).all(), (family, i)


class TestOptimizeOneSided:
    def test_werner_pinned(self):
        # unfiltered value already equals the two-sided optimum, so the
        # one-sided optimum is squeezed to the same number
        rho = validate_state(werner_matrix(0.5))
        res = optimize_one_sided(rho, Party.A, Objective.CHSH, starts=6, max_iters=300)
        assert res.value == pytest.approx(0.5 * math.sqrt(2), abs=1e-6)
        assert res.starts_used == 1  # one seeded polish, whatever the budget

    def test_early_exit_reports_starts_run(self, monkeypatch):
        # the maximal state's seed is the identity, at sqrt(2); its one polish reports one start
        calls = []
        minimize = filtering.minimize

        def counting_minimize(fun, x0, **kwargs):
            def counted(x):
                calls.append(1)
                return fun(x)

            return minimize(counted, x0, **kwargs)

        monkeypatch.setattr(filtering, "minimize", counting_minimize)
        res = optimize_one_sided(rho_qd(1.0), Party.A, Objective.CHSH, starts=32)
        assert res.value == pytest.approx(math.sqrt(2), abs=1e-12)
        assert res.starts_used == 1
        assert res.evaluations == len(calls) > 0

    def test_singlet_f3_already_maximal(self, singlet):
        res = optimize_one_sided(singlet, Party.B, Objective.F3, starts=2, max_iters=100)
        assert res.value == pytest.approx(math.sqrt(3), abs=1e-9)

    def test_rho_m_one_sided_filter_matches_closed_form(self):
        # the known optimal filter acts on A only, so the one-sided
        # optimiser must reach the full two-sided optimum
        theta, p = math.pi / 6, 0.5
        rho = rho_m(theta, p)
        target = hidden_chsh(to_r_picture(rho))
        res = optimize_one_sided(rho, Party.A, Objective.CHSH, starts=6, max_iters=300)
        assert res.value >= target - 1e-6

    def test_never_below_unfiltered_value(self):
        for i in range(5):
            rho = sample_state(SeededRng(56, i))
            r = to_r_picture(rho)
            res = optimize_one_sided(rho, Party.B, Objective.CHSH, starts=2, max_iters=120)
            assert res.value >= chsh_max(r)[0] - 1e-9

    def test_sandwich_with_classical_boundary(self):
        # one-sided filtering can beat the Bell-diagonal normal-form value
        # when that value is below the classical bound (filtering towards
        # near-product states pushes the maximum towards 1 from below),
        # so the attainable upper bound is max(1, hidden) rather than
        # hidden itself.
        for i in range(10):
            rho = sample_state(SeededRng(57, i))
            r = to_r_picture(rho)
            hidden = hidden_chsh(r)
            res = optimize_one_sided(rho, Party.A, Objective.CHSH, starts=6, max_iters=300)
            assert chsh_max(r)[0] - 1e-9 <= res.value <= max(1.0, hidden) + 1e-6

    def test_deterministic(self):
        rho = sample_state(SeededRng(58, 0))
        a = optimize_one_sided(rho, Party.A, Objective.CHSH, starts=4, max_iters=150)
        b = optimize_one_sided(rho, Party.A, Objective.CHSH, starts=4, max_iters=150)
        assert a.value == b.value
        np.testing.assert_array_equal(a.filter.f, b.filter.f)

    def test_start_zero_leaves_the_identity(self):
        # a simplex with two of its vertices on the identity tried boosts along z only, and this
        # state's 2-start search ended on its unfiltered value 0.93544
        rho = sample_state(SeededRng(1, 3), rank=3)
        res = optimize_one_sided(rho, Party.B, Objective.CHSH, starts=2, seed=0)
        assert res.value - chsh_max(to_r_picture(rho))[0] > 0.1
        eight = optimize_one_sided(rho, Party.B, Objective.CHSH, starts=8, seed=0)
        assert abs(res.value - eight.value) <= 1e-12
        assert abs(brute_force_chsh(res.filtered_picture) - res.value) <= 1e-9

    def test_starts_validated(self, singlet):
        with pytest.raises(DomainError):
            optimize_one_sided(singlet, Party.A, Objective.CHSH, starts=0)


def _ginibre(rank):
    return sample_state(SeededRng(1, rank), rank=rank)


def _lorentz_of(f):
    """Lambda_ij = Tr(sigma_j f^dag sigma_i f) / 2, the filter's action on R."""
    return np.array([[0.5 * np.trace(SIGMA[j] @ f.conj().T @ SIGMA[i] @ f).real for j in range(4)] for i in range(4)])


def _boost_matrix(x) -> np.ndarray:
    """L(d, n) as a 4x4 array, from the entries the optimiser's objective uses."""
    return np.reshape(_boost(x), (4, 4))


def _density_value_of_filter(rho, f, party, objective):
    filtered, _ = apply_one_sided(rho, f, party)
    r = to_r_picture(filtered)
    return chsh_max(r)[0] if objective is Objective.CHSH else f3_max(r)


class TestBoostEvaluation:
    """The optimiser's objective acts on R with a closed-form boost; these
    tests hold it to the density-matrix route it replaces."""

    def test_agrees_with_density_route(self):
        gen = np.random.default_rng(12)
        worst = 0.0
        for i in range(160):
            rho = sample_state(SeededRng(59, i), rank=1 + i % 4)
            r0 = to_r_picture(rho).r
            for party in (Party.A, Party.B):
                d = SCALE_FLOOR ** gen.uniform(0.0, 1.0)
                x = np.array([d, gen.uniform(0.0, math.pi), gen.uniform(-math.pi, math.pi)])
                f = LocalFilter(_filter_from_params(x))
                for objective in (Objective.CHSH, Objective.F3):
                    boosted = -_search_objective(r0, party, objective)(tuple(x.tolist()))
                    worst = max(worst, abs(boosted - _density_value_of_filter(rho, f, party, objective)))
        assert worst <= 1e-13

    def test_success_probability_at_scale_floor_on_pure_product_state(self):
        # |11><11|: Alice's Bloch vector a is -z, and polar angle pi puts the
        # direction n the filter attenuates by d onto it, so the success
        # probability takes its least value c + s (n . a) = d^2.
        ket11 = np.zeros((4, 4), dtype=complex)
        ket11[3, 3] = 1.0
        rho = validate_state(ket11)
        r0 = to_r_picture(rho).r
        x = np.array([SCALE_FLOOR, math.pi, 0.0])
        prob = (_boost_matrix(x) @ r0)[0, 0]
        assert abs(prob - SCALE_FLOOR**2) <= 1e-15
        _, density_prob = apply_one_sided(rho, LocalFilter(_filter_from_params(x)), Party.A)
        assert density_prob == pytest.approx(SCALE_FLOOR**2, rel=1e-9)
        res = optimize_one_sided(rho, Party.A, Objective.CHSH, starts=4)
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_vanishing_success_probability_raises(self):
        # below the scale floor the probability d^2 falls under 1e-12
        ket11 = np.zeros((4, 4), dtype=complex)
        ket11[3, 3] = 1.0
        r0 = to_r_picture(validate_state(ket11)).r
        with pytest.raises(ZeroSuccessProbability):
            _search_objective(r0, Party.A, Objective.CHSH)((1e-7, math.pi, 0.0))

    def test_search_value_not_reproduced_raises(self, monkeypatch):
        # every value the search sees is 1e-6 above the filtered state's
        search_objective = filtering._search_objective

        def perturbed(*args):
            negated_value = search_objective(*args)
            return lambda x: negated_value(x) - 1e-6

        monkeypatch.setattr(filtering, "_search_objective", perturbed)
        with pytest.raises(OptimumMismatch):
            optimize_one_sided(sample_state(SeededRng(58, 0)), Party.A, Objective.CHSH, starts=1, max_iters=50)

    # optimize_one_sided(starts=2, seed=0) values and flags at the parent of
    # the boost evaluation (density-matrix objective), on the optimize
    # benchmark's cases at its seed 1. The maximal state ran one start, but
    # the parent reported its budget of 2. The F3 rows are now one exact
    # solve: one start, and the same values and flags. The two Ginibre CHSH
    # rows are the values start 0 reaches once its simplex leaves the
    # identity (that search ended on the unfiltered value for both), read
    # by the density route from the winning filter; the brute-force CHSH
    # oracle gives the same values to 1e-16.
    PARITY = [
        ("ginibre-r2", lambda: _ginibre(2), Party.A, Objective.CHSH, 0.9999999943252994, True, 2),
        ("ginibre-r3", lambda: _ginibre(3), Party.B, Objective.CHSH, 1.0608743148676276, False, 2),
        ("ginibre-r4", lambda: _ginibre(4), Party.A, Objective.F3, 0.8234883603253991, True, 1),
        ("rho_m-a", lambda: rho_m(0.5, 0.8), Party.A, Objective.CHSH, 1.1313708498984765, False, 2),
        ("rho_m-b", lambda: rho_m(0.3, 0.7), Party.A, Objective.CHSH, 0.9899494936611667, False, 2),
        ("rho_m-c", lambda: rho_m(0.35, 0.75), Party.A, Objective.F3, 1.2990381056766582, False, 1),
        ("rho_m-d", lambda: rho_m(0.6, 0.9), Party.B, Objective.CHSH, 1.254900378086194, False, 2),
        ("rho_m-e", lambda: rho_m(0.4, 0.85), Party.B, Objective.F3, 1.279507276469315, False, 1),
        ("rho_m-f", lambda: rho_m(0.55, 0.65), Party.A, Objective.CHSH, 0.9192388155425121, False, 2),
        ("rho_qd-a", lambda: rho_qd(0.6), Party.A, Objective.CHSH, 0.9999999933333341, True, 2),
        ("rho_qd-b", lambda: rho_qd(0.8), Party.B, Objective.F3, 1.3483997249264843, False, 1),
        ("rho_qd-c", lambda: rho_qd(0.4), Party.A, Objective.F3, 0.9999999800000015, True, 1),
        ("rho_qd-d", lambda: rho_qd(0.9), Party.B, Objective.CHSH, 1.2792042981336627, False, 2),
        ("rho_qd-e", lambda: rho_qd(0.5), Party.B, Objective.CHSH, 0.9999999800000023, True, 2),
        ("rho_qd-f", lambda: rho_qd(0.7), Party.A, Objective.F3, 1.1993148729101804, False, 1),
        ("maximal", lambda: rho_qd(1.0), Party.A, Objective.CHSH, 1.4142135623730951, False, 1),
    ]

    # optimize_one_sided(starts=2, seed=0) on the PARITY cases, with start 0's simplex
    # of the identity and a boost along each axis and the stop test read in the
    # filter's coordinates: value, evaluations, best start and the winning x, all
    # to the bit. Re-pinned when the stop tolerance XATOL went from 1e-9 to 1e-7:
    # each start now ends at a prefix of its former trajectory, so evaluations
    # fall (maximal keeps its 9), the winning d and theta move by up to 7.9e-7
    # (phi further where theta is near 0 and phi does little), and the values
    # fall by up to 2.7e-15; rho_m-e's start 0 now ends 6 ulp below start 1,
    # which wins
    TRAJECTORY = {
        "ginibre-r2": (
            "0x1.ffffffcf41337p-1", 220, 0, ("0x1.a36e2eb1c432ep-14", "0x1.d247c992c0a34p+0", "-0x1.10dcf7622a658p+1")
        ),
        "ginibre-r3": (
            "0x1.0f95758785da8p+0", 271, 0, ("0x1.d4d15c8c9d942p-2", "0x1.c8cae649818c2p+0", "-0x1.99798de4a22a4p+0")
        ),
        "ginibre-r4": (
            "0x1.a5a0443077efbp-1", 251, 0, ("0x1.a36e2eb1c432ep-14", "-0x1.66065b6a9e934p-1", "0x1.15079b4164aadp+0")
        ),
        "rho_m-a": (
            "0x1.21a1851ff6307p+0", 310, 0, ("0x1.17b4f566b8eabp-1", "-0x1.3db517e93ab11p-24", "-0x1.bddca1c36047ep-2")
        ),
        "rho_m-b": (
            "0x1.fadaa8f7eed3ep-1", 317, 0, ("0x1.3cc2a4a9959e8p-2", "0x1.04cba779b7db9p-24", "-0x1.53c1eb7f2950ap-1")
        ),
        "rho_m-c": (
            "0x1.4c8dc2e423974p+0", 312, 0, ("0x1.75ca074cb97c0p-2", "-0x1.1baba3a85c0dap-24", "-0x1.6c14619384048p-1")
        ),
        "rho_m-d": (
            "0x1.414126b39e447p+0", 307, 0, ("0x1.6cfad59583a3ap-1", "-0x1.1d8548315fc7bp-23", "-0x1.428cd388fa19cp-1")
        ),
        "rho_m-e": (
            "0x1.478dc9f36e032p+0", 292, 1, ("0x1.3a05588c9f33ap-1", "0x1.697fce534f4bcp-26", "0x1.af3c426fbab62p+0")
        ),
        "rho_m-f": (
            "0x1.d6a67853f00edp-1", 290, 0, ("0x1.39e8edee3e8aap-1", "0x1.21982fb60dc9dp-24", "-0x1.2cdb3640494fep-1")
        ),
        "rho_qd-a": (
            "0x1.ffffffc6bbd89p-1", 317, 0, ("0x1.a36e2eb1c432dp-14", "0x1.caad47c1c4c02p-13", "-0x1.690fe8280039ep+1")
        ),
        "rho_qd-b": (
            "0x1.5930b9707ea09p+0", 309, 0, ("0x1.5bd5e228db810p-1", "0x1.8d6c0c226cbe0p-27", "-0x1.84495ae9a25dap-5")
        ),
        "rho_qd-c": (
            "0x1.ffffff5433895p-1", 351, 0, ("0x1.a36e2eb1c432ep-14", "-0x1.c76c8fcdfca56p-14", "-0x1.aa79d7d1b03abp+4")
        ),
        "rho_qd-d": (
            "0x1.4779eed162ff5p+0", 296, 0, ("0x1.cf1f14bff6f56p-1", "0x1.29177bf3e8df0p-21", "-0x1.637103966ccf2p-1")
        ),
        "rho_qd-e": (
            "0x1.ffffff54338a5p-1", 326, 0, ("0x1.a36e2eb1c432dp-14", "0x1.2a445b073117cp-12", "-0x1.67ab2055d479cp+2")
        ),
        "rho_qd-f": (
            "0x1.33064cacc1703p+0", 309, 0, ("0x1.17700fb727ba9p-1", "0x1.2a1dffb94d954p-25", "-0x1.866d9efd5f9d4p-5")
        ),
        "maximal": ("0x1.6a09e667f3bcdp+0", 9, 0, ("0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0")),

    }

    def test_trajectories_pinned_to_the_bit(self):
        # F3 is solved exactly and CHSH searched from an exact seed now; every row pins the
        # Nelder-Mead search they replaced, run as the reference search with the optimiser's verification
        for label, state, party, objective, *_ in self.PARITY:
            value, search = reference_optimum(state(), party, objective, starts=2, seed=0)
            got = (value.hex(), search.evaluations, search.best_start, tuple(float(v).hex() for v in search.x))
            assert got == self.TRAJECTORY[label], label

    def test_parity_with_density_route_optimiser(self, monkeypatch):
        # the values, flags and starts run pin the reference search on the CHSH rows and the exact solve
        # on the F3 rows; the optimiser's own filter is checked against its boost on every row
        winners = []  # the optimiser builds its filter once, from the winning x
        build = filtering._filter_from_params
        monkeypatch.setattr(filtering, "_filter_from_params", lambda x: winners.append(np.copy(x)) or build(x))
        for label, state, party, objective, value, at_floor, starts_used in self.PARITY:
            rho = state()
            res = optimize_one_sided(rho, party, objective, starts=2, seed=0)
            if objective is Objective.CHSH:
                got, search = reference_optimum(rho, party, objective, starts=2, seed=0)
                got_filter = LocalFilter(_filter_from_params(search.x))
                got_at_floor, got_starts = search.x[0] <= SCALE_FLOOR * 1.01, search.starts_used
            else:
                got, got_filter, got_at_floor, got_starts = res.value, res.filter, res.at_scale_floor, res.starts_used
            assert abs(got - value) <= 1e-12, label
            assert got_at_floor is at_floor, label
            assert got_starts == starts_used, label
            assert abs(_density_value_of_filter(rho, got_filter, party, objective) - got) <= 1e-9, label
            x, f = winners[-1], res.filter.f
            assert np.abs(f - f.conj().T).max() <= 1e-15, label
            np.testing.assert_allclose(np.linalg.eigvalsh(f), [x[0], 1.0], rtol=0, atol=1e-15, err_msg=label)
            np.testing.assert_allclose(_lorentz_of(f), _boost_matrix(x), rtol=0, atol=1e-15, err_msg=label)


class TestStopTolerance:
    """Every start of the reference search stops once its filters agree within XATOL. The stop test
    runs before each iteration, so a start evaluates a prefix of the points it would evaluate at 1e-9."""

    CASES = [
        (label, state, party)
        for label, state, party, objective, *_ in TestBoostEvaluation.PARITY
        if objective is Objective.CHSH
    ] + [
        (f"ginibre-77-{i}", lambda i=i: sample_state(SeededRng(77, i), rank=2 + i % 3), (Party.A, Party.B)[i % 2])
        for i in range(20)
    ]

    def test_only_ends_starts_earlier(self, monkeypatch):
        starts = []  # per start: the points evaluated at XATOL and at 1e-9
        minimize = filtering.minimize

        def also_at_1e9(fun, x0, **kwargs):
            loose, tight = [], []
            res = minimize(lambda x: loose.append(x) or fun(x), x0, **kwargs)
            minimize(lambda x: tight.append(x) or fun(x), x0, **{**kwargs, "xatol": 1e-9})
            starts.append((loose, tight))
            return res

        for label, state, party in self.CASES:
            rho = state()
            with monkeypatch.context() as m:
                m.setattr(filtering, "minimize", also_at_1e9)
                value, search = reference_optimum(rho, party, Objective.CHSH, starts=2, seed=0)
            with monkeypatch.context() as m:
                m.setattr(filtering, "XATOL", 1e-9)
                ref, ref_search = reference_optimum(rho, party, Objective.CHSH, starts=2, seed=0)
            assert abs(value - ref) <= 1e-14, label
            assert (search.x[0] <= SCALE_FLOOR * 1.01) is (ref_search.x[0] <= SCALE_FLOOR * 1.01), label
        assert all(loose == tight[: len(loose)] for loose, tight in starts)
        assert sum(len(loose) for loose, _ in starts) < sum(len(tight) for _, tight in starts)

    def test_collapsed_starts_stay_cheap(self, monkeypatch):
        # random starts 1-7 climb onto the d = 1 face, where the objective is the unfiltered value and
        # no trial point can leave; the stop test in the filter's coordinates ends them at once
        runs = []
        minimize = filtering.minimize
        monkeypatch.setattr(filtering, "minimize", lambda *a, **k: runs.append(minimize(*a, **k)) or runs[-1])
        value, search = reference_optimum(rho_mm(0.6015, 0.5), Party.A, Objective.CHSH, starts=8, seed=0)
        assert (search.best_start, len(runs)) == (0, 8)
        assert abs(value - 0.7328845938885689) <= 1e-14
        assert runs[0].nfev < 209
        assert all(run.x[0] == 1.0 and run.nfev <= 60 for run in runs[1:])


class TestSeededChshSearch:
    """One-sided CHSH starts from exact F3 solves on projected pictures and runs one Nelder-Mead
    polish; these tests hold it to the multi-start reference search it replaced."""

    def test_reaches_a_trap_of_the_reference_search(self):
        # 8 reference starts give 0.906760 here
        rho = sample_state(SeededRng(24, 3), rank=3)
        res = optimize_one_sided(rho, Party.A, Objective.CHSH, starts=2)
        assert res.value >= 0.934929061349632 - 1e-12
        assert res.value - reference_optimum(rho, Party.A, Objective.CHSH, starts=8)[0] > 0.028

    def test_one_minimize_call_whatever_the_budget(self, monkeypatch):
        calls = []
        minimize = filtering.minimize
        monkeypatch.setattr(filtering, "minimize", lambda *a, **k: calls.append(k["max_iters"]) or minimize(*a, **k))
        cases = [
            (rho_qd(1.0), Party.A, 32),
            (rho_m(0.1, 0.9), Party.A, 6),
            (sample_state(SeededRng(77, 26), rank=4), Party.B, 1),
        ]
        for rho, party, starts in cases:
            calls.clear()
            res = optimize_one_sided(rho, party, Objective.CHSH, starts=starts, max_iters=77)
            assert calls == [77]
            assert (res.starts_used, res.best_start) == (1, 0)

    def test_floor_optimum_read_on_the_floor(self):
        # the polish ends at d = 1.003e-4, where the value still slopes in d; read on the floor, the value
        # is not below the reference search run with its stop tolerance at 1e-9 (which ends at d = 1.0000076e-4)
        rho = sample_state(SeededRng(91, 58), rank=3)
        res = optimize_one_sided(rho, Party.A, Objective.CHSH, starts=2)
        assert res.at_scale_floor
        with pytest.MonkeyPatch.context() as m:
            m.setattr(filtering, "XATOL", 1e-9)
            tight = reference_optimum(rho, Party.A, Objective.CHSH, starts=2)[0]
        assert res.value >= tight
        # here the polish ends at d = 1.0004e-4, 1.1e-11 below the 8-start reference; the floor read
        # lifts it to 3.3e-12 below, with the filter's small eigenvalue on the floor
        rho = sample_state(SeededRng(109, 30))
        res = optimize_one_sided(rho, Party.A, Objective.CHSH, starts=2)
        assert abs(np.linalg.eigvalsh(res.filter.f)[0] - SCALE_FLOOR) <= 1e-15
        assert reference_optimum(rho, Party.A, Objective.CHSH, starts=8)[0] - res.value <= 5e-12

    def test_never_below_the_eight_start_reference(self):
        # off the scale floor (neither search ends on it) within 1e-12 on every call; on it, within 1e-11
        # on ranks 3 and 4, whose suprema the floor attains (rank 2's is the unattained limit 1)
        states = [(row[1](), None) for row in TestBoostEvaluation.PARITY if row[3] is Objective.CHSH]
        states += [(sample_state(SeededRng(109, i)), 4) for i in range(50)]
        states += [(sample_state(SeededRng(seed, rank), rank=rank), rank) for seed in range(30) for rank in (2, 3, 4)]
        worst_off, worst_floor, off = 0.0, 0.0, 0
        for rho, rank in states:
            for party in (Party.A, Party.B):
                res = optimize_one_sided(rho, party, Objective.CHSH, starts=2)
                ref, search = reference_optimum(rho, party, Objective.CHSH, starts=8)
                if not res.at_scale_floor and search.x[0] > SCALE_FLOOR * 1.01:
                    worst_off, off = max(worst_off, ref - res.value), off + 1
                elif rank in (3, 4):
                    worst_floor = max(worst_floor, ref - res.value)
        assert off > 60
        assert worst_off <= 1e-12
        assert worst_floor <= 1e-11


def _eight_start_f3(rho, party):
    return nelder_mead_search(to_r_picture(rho).r, party, Objective.F3, starts=8, max_iters=500, seed=0).value


class TestExactOneSidedF3:
    """one_sided_f3_suprema solves the one-sided F3 problem as a trust-region subproblem; these tests
    hold it to a 50-digit solve of the same subproblem, to the Nelder-Mead search it replaced and to
    the filters it emits."""

    # ranks 1-4; pure marginals (Alice's is pure on rho_m(0, p)); rho_qd(0.26), a hard case; and a
    # rank-2 state whose h has a component of 1e-10 along P's top eigenvector (near-hard)
    ORACLE_CASES = [
        *((f"rank-{rank}", lambda rank=rank: sample_state(SeededRng(31, rank), rank=rank)) for rank in (1, 2, 3, 4)),
        ("rho_m-pure-a-0.3", lambda: rho_m(0.0, 0.3)),
        ("rho_m-pure-a-0.8", lambda: rho_m(0.0, 0.8)),
        ("rho_qd-0.26", lambda: rho_qd(0.26)),
        ("near-hard", lambda: sample_state(SeededRng(6, 2), rank=2)),
    ]

    @pytest.mark.parametrize("label,state", ORACLE_CASES, ids=[label for label, _ in ORACLE_CASES])
    def test_agrees_with_50_digit_oracle(self, label, state):
        rho = state()
        r = to_r_picture(rho).r
        for party in (Party.A, Party.B):
            exact = filtering.one_sided_f3_suprema(r[None], party)
            assert exact.converged[0], (label, party)
            oracle = exact_f3_oracle(r, party)
            assert abs(exact.value[0] - float(oracle)) <= 1e-12 * float(oracle), (label, party)
            f = LocalFilter(_filter_from_params(tuple(exact.params[0].tolist())))
            assert abs(_density_value_of_filter(rho, f, party, Objective.F3) - exact.value[0]) <= 1e-9, (label, party)

    def test_never_below_nelder_mead_and_filters_reproduce_values(self):
        # c09a's 50 states and 40 of ranks 1-4, both parties, against the 8-start search
        states = [sample_state(SeededRng(109, i)) for i in range(50)]
        states += [sample_state(SeededRng(110, i), rank=1 + i % 4) for i in range(40)]
        worst_below, worst_filter = 0.0, 0.0
        for rho in states:
            r = to_r_picture(rho).r
            for party in (Party.A, Party.B):
                exact = filtering.one_sided_f3_suprema(r[None], party)
                value = float(exact.value[0])
                worst_below = max(worst_below, _eight_start_f3(rho, party) - value)
                f = LocalFilter(_filter_from_params(tuple(exact.params[0].tolist())))
                worst_filter = max(worst_filter, abs(_density_value_of_filter(rho, f, party, Objective.F3) - value))
        assert worst_below <= 1e-12
        assert worst_filter <= 1e-9

    def test_rises_above_the_search_it_replaced(self):
        # the 2-start search stops 0.29 short on one state, the 8-start search 3.0e-3 on another
        rho = sample_state(SeededRng(6, 4), rank=4)
        two = nelder_mead_search(to_r_picture(rho).r, Party.A, Objective.F3, starts=2, max_iters=500, seed=0)
        assert optimize_one_sided(rho, Party.A, Objective.F3).value - two.value > 0.28
        rho = sample_state(SeededRng(205, 3), rank=3)
        assert 2.9e-3 < optimize_one_sided(rho, Party.A, Objective.F3).value - _eight_start_f3(rho, Party.A) < 3.1e-3

    def test_rows_do_not_depend_on_their_batch(self):
        rhos = [sample_state(SeededRng(111, i), rank=1 + i % 4) for i in range(253)]
        rhos += [rho_m(0.0, 0.3), rho_qd(0.26), sample_state(SeededRng(6, 2), rank=2)]
        r = np.stack([to_r_picture(rho).r for rho in rhos])
        for party in (Party.A, Party.B):
            whole = filtering.one_sided_f3_suprema(r, party)
            assert whole.converged.all()
            assert (whole.iterations > 0).any() and (whole.iterations == 0).any()
            for lo, hi in [(i, i + 1) for i in range(0, 256, 17)] + [(253, 254), (254, 256), (235, 256), (0, 21)]:
                part = filtering.one_sided_f3_suprema(r[lo:hi], party)
                for got, want in zip(part, whole):
                    np.testing.assert_array_equal(got, want[lo:hi], err_msg=f"{party} rows {lo}:{hi}")

    def test_result_reports_one_exact_solve(self):
        rho = sample_state(SeededRng(1, 4), rank=4)
        exact = filtering.one_sided_f3_suprema(to_r_picture(rho).r[None], Party.A)
        res = optimize_one_sided(rho, Party.A, Objective.F3, starts=5, max_iters=7, seed=3)
        assert (res.starts_used, res.best_start, res.evaluations, res.converged) == (1, 0, exact.iterations[0], True)
        assert res.evaluations > 0
        assert res.at_scale_floor
        assert res.value == pytest.approx(exact.value[0], abs=1e-12)
        with pytest.raises(DomainError):
            optimize_one_sided(rho, Party.A, Objective.F3, max_iters=0)

    def test_identity_where_no_filter_helps(self, singlet):
        exact = filtering.one_sided_f3_suprema(to_r_picture(singlet).r[None], Party.B)
        assert exact.value[0] == pytest.approx(math.sqrt(3), abs=1e-15)
        np.testing.assert_array_equal(exact.params[0], [1.0, 0.0, 0.0])
        assert exact.iterations[0] == 0

    def test_bloch_vector_outside_the_cone_rejected(self):
        r = np.eye(4)[None].copy()
        r[0, 3, 0] = 1.0 + 1e-6  # |a|^2 exceeds kappa^2 = 1 + 4e-8
        with pytest.raises(DomainError):
            filtering.one_sided_f3_suprema(r, Party.A)

    def test_boost_direction_agrees_with_50_digit_oracle(self):
        # The direction n of the boost, as a unit vector (phi wraps, and is undefined at theta = 0).
        # On ORACLE_CASES it is unique except on Alice's side of the product states rho_m(0, p),
        # where F3 is flat, and in the hard case rho_qd(0.26), where z's top component may take
        # either sign. On 1,000 Ginibre states of each rank it is checked where it is hardest to
        # get: on the 40 rows per party at the scale floor whose n moves most when R is scaled by
        # 1 + 2^-40, as it does near a hard case, and on the row with the smallest positive secular
        # root, where the stop rule's scale is least (rows 1484, lam = 1.30e-4, for Alice and 2598,
        # lam = 1.73e-4, for Bob, found by the oracle on every row). The bound is 3.7 times the
        # worst error measured, 1.34e-7; the bracketed search this solve replaced missed by up to
        # 4.2e-6 on these rows.
        not_unique = {
            ("rho_m-pure-a-0.3", Party.A),
            ("rho_m-pure-a-0.8", Party.A),
            ("rho_qd-0.26", Party.A),
            ("rho_qd-0.26", Party.B),
        }
        cases = np.stack([to_r_picture(state()).r for _, state in self.ORACLE_CASES])
        gen = SeededRng(2027).generator()
        batch = r_pictures(np.concatenate([ginibre_states(gen, 1000, rank) for rank in (1, 2, 3, 4)]))
        for party, smallest_root in ((Party.A, 1484), (Party.B, 2598)):
            assert 0.0 < exact_f3_solution(batch[smallest_root], party)[1] < 2e-4
            params = filtering.one_sided_f3_suprema(batch, party).params
            moved = np.abs(filtering.one_sided_f3_suprema(batch * (1.0 + 2.0**-40), party).params - params).max(axis=1)
            moved[params[:, 0] > SCALE_FLOOR * 1.01] = -1.0
            hardest = [*np.argsort(-moved, kind="stable")[:40].tolist(), smallest_root]
            unique = [i for i, (label, _) in enumerate(self.ORACLE_CASES) if (label, party) not in not_unique]
            for r, rows in ((cases, unique), (batch, hardest)):
                x = filtering.one_sided_f3_suprema(r, party).params[rows]
                n = np.stack([np.sin(x[:, 1]) * np.cos(x[:, 2]), np.sin(x[:, 1]) * np.sin(x[:, 2]), np.cos(x[:, 1])], 1)
                oracle = np.array([[float(v) for v in exact_f3_solution(r[i], party)[2]] for i in rows])
                errors = np.sqrt(np.add.reduce((n - oracle) ** 2, axis=1))
                assert errors.max() <= 5e-7, (party, rows[int(np.argmax(errors))], errors.max())

    def test_newton_cap_reports_no_convergence(self, monkeypatch):
        # this row takes 5 Newton steps; capped at 1, its value is the dual's above the root, an
        # upper bound on the supremum
        r = to_r_picture(sample_state(SeededRng(1, 4), rank=4)).r[None]
        exact = filtering.one_sided_f3_suprema(r, Party.A)
        assert exact.converged[0] and exact.iterations[0] == 5
        monkeypatch.setattr(filtering, "SECULAR_MAX_ITERS", 1)
        capped = filtering.one_sided_f3_suprema(r, Party.A)
        assert not capped.converged[0] and capped.iterations[0] == 1
        assert capped.value[0] > exact.value[0]
