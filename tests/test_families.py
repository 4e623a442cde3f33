import math

import numpy as np
import pytest

from hqc import (
    DomainError,
    Family,
    Party,
    apply_filters,
    chsh_max,
    compute_ellipsoid,
    hidden_chsh,
    hidden_f3,
    paper_filter_rho_m,
    qd_centre_boundary,
    rho_m,
    rho_mm,
    rho_qd,
    scan_family,
    to_r_picture,
    validate_state,
)

import hqc.families as families_mod
from hqc.ellipsoid import ellipsoid_centres

from conftest import singlet_matrix

F3_BOUNDARY_AT_066 = 0.5074626865671642  # root of 2(1-p)/(2-p) = 0.66


class TestConstructions:
    def test_rho_m_pure_limit(self):
        theta = 0.6
        m = rho_m(theta, 1.0).matrix
        v = np.zeros(4, dtype=complex)
        v[0], v[3] = math.cos(theta), math.sin(theta)
        np.testing.assert_allclose(m, np.outer(v, v.conj()), atol=1e-14)

    def test_rho_m_fully_mixed_corner(self):
        np.testing.assert_allclose(rho_m(math.pi / 4, 0.0).matrix, np.eye(4) / 4, atol=1e-14)

    def test_rho_m_balanced_correlations(self):
        for p in (0.2, 0.7):
            r = to_r_picture(rho_m(math.pi / 4, p))
            np.testing.assert_allclose(r.a, 0, atol=1e-14)
            np.testing.assert_allclose(r.b, 0, atol=1e-14)
            np.testing.assert_allclose(r.t, np.diag([p, -p, p]), atol=1e-14)

    def test_rho_mm_marginals_independent_of_p(self):
        theta = 0.3
        for p in (0.0, 0.4, 1.0):
            r = to_r_picture(rho_mm(theta, p))
            np.testing.assert_allclose(r.a, [0, 0, math.cos(2 * theta)], atol=1e-14)
            np.testing.assert_allclose(r.b, [0, 0, math.cos(2 * theta)], atol=1e-14)

    def test_rho_qd_endpoints(self):
        np.testing.assert_allclose(rho_qd(1.0).matrix, singlet_matrix(), atol=1e-15)
        assert rho_qd(0.0).matrix[0, 0] == pytest.approx(1.0)

    def test_rho_qd_rank_two(self):
        for p in (0.2, 0.5, 0.8):
            assert (np.linalg.eigvalsh(rho_qd(p).matrix) > 1e-12).sum() == 2

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            rho_m(-0.1, 0.5)
        with pytest.raises(DomainError):
            rho_m(0.3, 1.5)
        with pytest.raises(DomainError):
            rho_mm(math.pi / 2, 0.5)
        with pytest.raises(DomainError):
            rho_qd(-0.2)

    def test_all_families_valid_on_grid(self):
        thetas = np.linspace(0, math.pi / 4, 50)
        ps = np.linspace(0, 1, 50)
        for theta in thetas[::7]:
            for p in ps[::7]:
                validate_state(rho_m(float(theta), float(p)).matrix)
                validate_state(rho_mm(float(theta), float(p)).matrix)
        for p in ps:
            validate_state(rho_qd(float(p)).matrix)

    def test_m_equals_mm_at_pure_line(self):
        for theta in (0.1, 0.5, math.pi / 4):
            np.testing.assert_allclose(rho_m(theta, 1.0).matrix, rho_mm(theta, 1.0).matrix, atol=1e-15)


class TestQuasiDistillableHiddenMeasures:
    def test_maximal_for_all_p(self):
        for p in np.linspace(0.01, 1.0, 34):
            r = to_r_picture(rho_qd(float(p)))
            assert hidden_chsh(r) == pytest.approx(math.sqrt(2), abs=1e-8)
            assert hidden_f3(r) == pytest.approx(math.sqrt(3), abs=1e-8)


class TestPaperFilter:
    def test_balanced_angle_needs_no_filtering(self):
        fa, fb = paper_filter_rho_m(math.pi / 4)
        np.testing.assert_allclose(fa.f, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(fb.f, np.eye(2), atol=1e-15)

    def test_produces_bell_diagonal(self):
        fa, fb = paper_filter_rho_m(math.pi / 6)
        filtered, _ = apply_filters(rho_m(math.pi / 6, 0.5), fa, fb)
        rf = to_r_picture(filtered)
        assert np.linalg.norm(rf.a) <= 1e-10
        assert np.linalg.norm(rf.b) <= 1e-10

    def test_optimality(self):
        theta, p = math.pi / 8, 0.7
        rho = rho_m(theta, p)
        fa, fb = paper_filter_rho_m(theta)
        filtered, _ = apply_filters(rho, fa, fb)
        assert chsh_max(to_r_picture(filtered))[0] == pytest.approx(hidden_chsh(to_r_picture(rho)), abs=1e-8)

    def test_zero_angle_rejected(self):
        with pytest.raises(DomainError):
            paper_filter_rho_m(0.0)


class TestScan:
    def test_qd_inaccessible_region_matches_closed_form(self):
        ps = np.linspace(0.01, 0.99, 99)
        rows = scan_family(Family.QD, [0.0], ps)
        assert len(rows) == 99
        for _, p, report in rows:
            expected = 2 * (1 - p) / (2 - p) > 0.5
            assert ("AB_INACCESSIBLE_CHSH" in report.flags) == expected

    def test_row_ordering_theta_major(self):
        rows = scan_family(Family.MM, [0.1, 0.2], [0.3, 0.6])
        assert [(round(theta, 3), round(p, 3)) for theta, p, _ in rows] == [
            (0.1, 0.3),
            (0.1, 0.6),
            (0.2, 0.3),
            (0.2, 0.6),
        ]

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError):
            scan_family(Family.QD, [0.0], [])

    def test_out_of_range_grid_fails_before_classifying(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("an out-of-range grid reached classify_batch")

        monkeypatch.setattr(families_mod, "classify_batch", never)
        for family, thetas, ps in (
            (Family.MM, [0.1, 0.2], [0.0, 0.5, 1.5]),
            (Family.M, [0.1], [-0.1, 0.5]),
            (Family.QD, [0.0], [0.2, 1.01]),
            (Family.M, [0.2, math.pi / 4 + 0.01], [0.5]),
            (Family.MM, [0.1, math.pi / 2], [0.5]),
        ):
            with pytest.raises(DomainError):
                scan_family(family, thetas, ps)

    def test_rows_are_not_validated(self, monkeypatch):
        # a row's endpoints are the table's projectors and products, valid on the checked grid
        # (test_all_families_valid_on_grid), and its points their convex combinations
        def never(*args, **kwargs):
            raise AssertionError("a scan validated a state")

        monkeypatch.setattr(families_mod, "validate_state", never)
        for family in Family:
            rows = scan_family(family, [0.0, math.pi / 4], [0.0, 0.5, 1.0])
            assert [(theta, p) for theta, p, _ in rows] == [
                (theta, p) for theta in (0.0, math.pi / 4) for p in (0.0, 0.5, 1.0)
            ]

    def test_degenerate_points_carry_flags(self):
        rows = scan_family(Family.MM, [0.0], [0.5])
        _, _, report = rows[0]
        assert math.isnan(report.hb_star)


class TestBoundaries:
    def test_chsh_boundary_at_two_thirds(self):
        assert qd_centre_boundary(0.5) == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_f3_boundary(self):
        assert qd_centre_boundary(0.66) == pytest.approx(F3_BOUNDARY_AT_066, abs=1e-9)

    def test_boundary_is_actual_crossing(self):
        root = qd_centre_boundary(0.5)
        below = float(np.linalg.norm(compute_ellipsoid(to_r_picture(rho_qd(root - 1e-6)), Party.B).centre))
        above = float(np.linalg.norm(compute_ellipsoid(to_r_picture(rho_qd(root + 1e-6)), Party.B).centre))
        assert below > 0.5 > above

    @pytest.mark.parametrize(
        "threshold, tol",
        [(0.05, 1e-14), (0.3, 1e-14), (0.5, 1e-14), (0.66, 1e-14), (0.9, 1e-14), (0.99, 1e-14), (1 - 1e-7, 1e-9)],
    )
    def test_boundary_against_numeric_centres(self, threshold, tol):
        # the closed form checked against the centres computed from the state, for both parties;
        # near threshold 1, gamma^2 ~ 1 / (2 p*) ~ 2.5e6 amplifies the roundoff of the picture
        r = to_r_picture(rho_qd(qd_centre_boundary(threshold))).r[None]
        for party in Party:
            centres, ok = ellipsoid_centres(r, party)
            assert ok[0]
            assert abs(float(np.linalg.norm(centres[0])) - threshold) <= tol

    def test_domain_checked(self):
        with pytest.raises(DomainError):
            qd_centre_boundary(0.0)
        with pytest.raises(DomainError):
            qd_centre_boundary(1.0)
