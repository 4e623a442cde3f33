import math

import numpy as np
import pytest

from hqc import (
    HqcError,
    Party,
    SeededRng,
    apply_one_sided,
    compute_ellipsoid,
    rho_mm,
    rho_qd,
    sample_state,
    to_r_picture,
)

from hqc.ellipsoid import centre_magnitudes, ellipsoid_centres

from conftest import bounded_random_filter
from support import steered_bloch


class DegenerateEllipsoid(HqcError):
    """Operation requires an invertible ellipsoid matrix."""


def surface_residual(e, point: np.ndarray) -> float:
    """(point - centre)^T Q^-1 (point - centre) - 1.

    Zero (within tolerance) iff the point lies on the ellipsoid surface;
    negative inside, positive outside. Requires an invertible Q.
    """
    if e.degenerate:
        raise DegenerateEllipsoid("ellipsoid is a point; surface residual undefined")
    eigs = np.linalg.eigvalsh(e.q)
    if eigs.min() <= 1e-10:
        raise DegenerateEllipsoid(f"ellipsoid matrix not invertible (min eigenvalue {eigs.min():.3e})")
    d = np.asarray(point, dtype=float) - e.centre
    return float(d @ np.linalg.solve(e.q, d) - 1.0)


def max_norm_on_ellipsoid(e) -> float:
    """Largest |x| over the ellipsoid x = centre + Q^(1/2) u, |u| = 1.

    Independent of the module's geometry code: dense sphere seeding plus
    Nelder-Mead polish of |centre + Q^(1/2) u|. Used as the containment
    oracle.
    """
    from scipy.optimize import minimize

    from hqc.correlations import fibonacci_sphere

    eigs, vecs = np.linalg.eigh(e.q)
    a = vecs @ np.diag(np.sqrt(np.clip(eigs, 0, None))) @ vecs.T

    def norm_at(u: np.ndarray) -> float:
        return float(np.linalg.norm(e.centre + a @ u))

    pts = fibonacci_sphere(400)
    vals = np.linalg.norm(e.centre[None, :] + pts @ a.T, axis=1)
    best = float(vals.max())
    for k in np.argsort(vals)[::-1][:5]:
        th0 = math.acos(np.clip(pts[k, 2], -1, 1))
        ph0 = math.atan2(pts[k, 1], pts[k, 0])
        res = minimize(
            lambda x: -norm_at(
                np.array([math.sin(x[0]) * math.cos(x[1]), math.sin(x[0]) * math.sin(x[1]), math.cos(x[0])])
            ),
            np.array([th0, ph0]),
            method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 400},
        )
        best = max(best, -res.fun)
    return best


class TestComputeEllipsoid:
    def test_singlet_fills_bloch_ball(self, singlet):
        e = compute_ellipsoid(to_r_picture(singlet), Party.B)
        np.testing.assert_allclose(e.centre, 0, atol=1e-12)
        np.testing.assert_allclose(e.q, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(e.semiaxes, [1, 1, 1], atol=1e-12)
        assert not e.degenerate

    def test_quasi_distillable_centre_formula(self):
        for p in np.linspace(0.05, 0.95, 19):
            e = compute_ellipsoid(to_r_picture(rho_qd(float(p))), Party.B)
            np.testing.assert_allclose(e.centre, [0, 0, 2 * (1 - p) / (2 - p)], atol=1e-12)

    def test_quasi_distillable_boundary_value(self):
        e = compute_ellipsoid(to_r_picture(rho_qd(2.0 / 3.0)), Party.B)
        assert float(np.linalg.norm(e.centre)) == pytest.approx(0.5, abs=1e-12)

    def test_product_state_degenerates_to_point(self, ket00):
        e = compute_ellipsoid(to_r_picture(ket00), Party.B)
        assert e.degenerate
        np.testing.assert_allclose(e.centre, [0, 0, 1], atol=1e-12)
        np.testing.assert_allclose(e.q, 0, atol=1e-15)
        np.testing.assert_allclose(e.semiaxes, 0, atol=1e-15)

    def test_symmetric_ellipsoid_matrix(self):
        for i in range(20):
            e = compute_ellipsoid(to_r_picture(sample_state(SeededRng(31, i))), Party.A)
            assert np.abs(e.q - e.q.T).max() <= 1e-10
            assert np.linalg.eigvalsh(e.q).min() >= -1e-10
            assert e.semiaxes[0] >= e.semiaxes[1] >= e.semiaxes[2] >= 0

    def test_bloch_ball_containment(self):
        # the whole ellipsoid must fit inside the unit ball; note that
        # |centre| + largest semiaxis is NOT a valid proxy (the
        # quasi-distillable ellipsoids exceed it while still fitting,
        # e.g. p = 0.5 gives |c| + s_max = 1.24 with a contained ellipsoid)
        e = compute_ellipsoid(to_r_picture(rho_qd(0.5)), Party.B)
        assert float(np.linalg.norm(e.centre)) + e.semiaxes[0] > 1.1
        assert max_norm_on_ellipsoid(e) == pytest.approx(1.0, abs=1e-8)  # touches the ball at the pole
        for i in range(50):
            e = compute_ellipsoid(to_r_picture(sample_state(SeededRng(37, i))), Party.B)
            assert max_norm_on_ellipsoid(e) <= 1 + 1e-8


class TestCentreMagnitude:
    def test_singlet(self, singlet):
        e = compute_ellipsoid(to_r_picture(singlet), Party.B)
        assert float(np.linalg.norm(e.centre)) == pytest.approx(0.0, abs=1e-12)

    def test_quasi_distillable_half(self):
        e = compute_ellipsoid(to_r_picture(rho_qd(0.5)), Party.B)
        assert float(np.linalg.norm(e.centre)) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_symmetric_noise_family_formula(self):
        for theta in (0.1, math.pi / 8, math.pi / 4):
            for p in (0.0, 0.3, 0.8):
                r = to_r_picture(rho_mm(theta, p))
                for party in (Party.A, Party.B):
                    e = compute_ellipsoid(r, party)
                    assert float(np.linalg.norm(e.centre)) == pytest.approx((1 - p) * math.cos(2 * theta), abs=1e-10)


    def test_batch_centres_independent_of_batch_and_layout(self):
        # a row's centres, and both parties' magnitudes and ok masks, are the same to the bit
        # alone as inside a batch, for the strided view to_r_picture returns and for contiguous
        # copies at any 8-byte offset
        pictures = [to_r_picture(sample_state(SeededRng(66, i), rank=k)).r for i in range(50) for k in (1, 2, 3, 4)]
        batch = np.stack(pictures)
        centres = [ellipsoid_centres(batch, party)[0] for party in Party]
        magnitudes, ok = centre_magnitudes(batch)
        for k, r in enumerate(pictures):
            rows = [r[None]] + [np.empty(16 + offset)[offset:].reshape(1, 4, 4) for offset in range(4)]
            for row in rows[1:]:
                row[...] = r
            for row in rows:
                for party, party_centres in zip(Party, centres):
                    np.testing.assert_array_equal(ellipsoid_centres(row, party)[0][0], party_centres[k])
                row_magnitudes, row_ok = centre_magnitudes(row)
                np.testing.assert_array_equal(row_magnitudes[:, 0], magnitudes[:, k])
                np.testing.assert_array_equal(row_ok[:, 0], ok[:, k])


class TestSurfaceResidual:
    def test_singlet_pole_on_surface(self, singlet):
        e = compute_ellipsoid(to_r_picture(singlet), Party.B)
        assert surface_residual(e, np.array([0, 0, 1.0])) == pytest.approx(0.0, abs=1e-12)

    def test_singlet_centre_inside(self, singlet):
        e = compute_ellipsoid(to_r_picture(singlet), Party.B)
        assert surface_residual(e, np.zeros(3)) == pytest.approx(-1.0, abs=1e-12)

    def test_degenerate_rejected(self, ket00):
        e = compute_ellipsoid(to_r_picture(ket00), Party.B)
        with pytest.raises(DegenerateEllipsoid):
            surface_residual(e, np.zeros(3))

    def test_projective_steering_lands_on_surface(self):
        gen = np.random.default_rng(7)
        for i in range(100):
            r = to_r_picture(sample_state(SeededRng(41, i)))
            e = compute_ellipsoid(r, Party.B)
            gamma = gen.standard_normal(3)
            gamma /= np.linalg.norm(gamma)
            bloch, _ = steered_bloch(r, gamma)
            assert abs(surface_residual(e, bloch)) <= 1e-8


class TestOneSidedFilterInvariance:
    def test_opposite_ellipsoid_unchanged(self):
        # filters on one side cannot move the other side's ellipsoid
        gen = np.random.default_rng(123)
        for i in range(100):
            rho = sample_state(SeededRng(43, i))
            f = bounded_random_filter(gen)
            party = Party.A if i % 2 == 0 else Party.B
            before = compute_ellipsoid(to_r_picture(rho), party.other())
            filtered, _ = apply_one_sided(rho, f, party)
            after = compute_ellipsoid(to_r_picture(filtered), party.other())
            assert np.abs(before.centre - after.centre).max() <= 1e-8
            assert np.abs(before.q - after.q).max() <= 1e-8


class TestSwapSymmetry:
    def test_symmetric_states_have_equal_ellipsoids(self):
        for theta in (0.2, math.pi / 6, math.pi / 4):
            for p in (0.1, 0.5, 0.9):
                r = to_r_picture(rho_mm(theta, p))
                ea = compute_ellipsoid(r, Party.A)
                eb = compute_ellipsoid(r, Party.B)
                assert float(np.linalg.norm(ea.centre)) == pytest.approx(float(np.linalg.norm(eb.centre)), abs=1e-10)
                np.testing.assert_allclose(ea.semiaxes, eb.semiaxes, atol=1e-10)
