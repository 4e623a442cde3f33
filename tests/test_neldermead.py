"""The in-house Nelder-Mead against scipy's, and the runtime's independence of scipy."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize

import hqc
from hqc import filtering
from hqc.neldermead import minimize


def _objective(seed: int, dim: int, centre0: float | None = None):
    """A seeded smooth objective, a positive-definite quadratic plus a small ripple, and a start point."""
    gen = np.random.default_rng(seed)
    a = gen.standard_normal((dim, dim))
    a = a @ a.T + 0.5 * np.eye(dim)
    centre = 2.0 * gen.standard_normal(dim)
    if centre0 is not None:
        centre[0] = centre0
    w = gen.standard_normal(dim)

    def f(x) -> float:
        d = np.asarray(x, dtype=float) - centre
        return float(d @ a @ d + 0.3 * np.sin(w @ d))

    return f, gen.standard_normal(dim)


def _both(f, x0, bounds, max_iters, initial_simplex=None):
    points, seen = [], []

    def recorded(x):
        assert type(x) is tuple and all(type(v) is float for v in x)
        points.append(x)
        seen.append(f(x))
        return seen[-1]

    ours = minimize(
        recorded,
        x0,
        bounds=bounds,
        max_iters=max_iters,
        xatol=1e-6,
        fatol=1e-8,
        initial_simplex=initial_simplex,
        xatol_map=None,
    )
    # with every value distinct, stable and unstable orderings of the simplex agree
    assert len(set(seen)) == len(seen) == ours.nfev
    options = {"maxiter": max_iters, "xatol": 1e-6, "fatol": 1e-8, "initial_simplex": initial_simplex}
    theirs = scipy_minimize(f, x0, method="Nelder-Mead", bounds=bounds, options=options)
    return ours, theirs, points


def _assert_bitwise(ours, theirs):
    assert list(ours.x) == theirs.x.tolist()
    assert ours.fun == float(theirs.fun)
    assert ours.nfev == theirs.nfev
    assert ours.success == bool(theirs.success)


class TestScipyParity:
    @pytest.mark.parametrize("dim", [3, 4])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("max_iters", [1, 40, 1000])
    def test_unbounded(self, dim, seed, max_iters):
        f, x0 = _objective(seed, dim)
        _assert_bitwise(*_both(f, x0, None, max_iters)[:2])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("max_iters", [40, 1000])
    def test_bounded_start_on_upper_bound(self, seed, max_iters):
        # as the optimiser's start 0 at d = 1: the initial step to 1.05 leaves
        # the box and is reflected to 0.95, and the minimum lies below the
        # lower bound, so the search clips trial points onto it
        f, x0 = _objective(seed, 3, centre0=-0.5)
        x0[0] = 1.0
        bounds = [(0.5, 1.0), (None, None), (None, None)]
        ours, theirs, points = _both(f, x0, bounds, max_iters)
        _assert_bitwise(ours, theirs)
        assert points[1][0] == 2.0 - 1.05
        assert any(x[0] == 0.5 for x in points)


class TestInitialSimplex:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("max_iters", [1, 40, 1000])
    def test_unbounded(self, seed, max_iters):
        f, x0 = _objective(seed, 3)
        simplex = x0 + 0.3 * np.random.default_rng(seed + 10).standard_normal((4, 3))
        _assert_bitwise(*_both(f, simplex[0], None, max_iters, initial_simplex=simplex.tolist())[:2])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("max_iters", [40, 1000])
    def test_bounded_reflects_and_clips(self, seed, max_iters):
        # vertex 1 lies above the upper bound and is reflected to 2 ub - v; vertex 3 lies below
        # the lower bound and is clipped onto it
        f, _ = _objective(seed, 3, centre0=-0.5)
        simplex = [[1.0, 0.2, -0.3], [1.1, 0.2, -0.3], [0.9, 1.0, -0.3], [0.4, 0.2, 0.5]]
        bounds = [(0.5, 1.0), (None, None), (None, None)]
        ours, theirs, points = _both(f, simplex[0], bounds, max_iters, initial_simplex=simplex)
        _assert_bitwise(ours, theirs)
        assert points[:4] == [(1.0, 0.2, -0.3), (2.0 - 1.1, 0.2, -0.3), (0.9, 1.0, -0.3), (0.5, 0.2, 0.5)]

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            minimize(sum, (0.0, 0.0), max_iters=10, xatol=1e-6, fatol=1e-8, initial_simplex=[(0.0, 0.0), (1.0, 0.0)])
        with pytest.raises(ValueError):
            simplex = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0, 2.0)]
            minimize(sum, (0.0, 0.0), max_iters=10, xatol=1e-6, fatol=1e-8, initial_simplex=simplex)


class TestXatolMap:
    def test_identity_map_keeps_the_trajectory(self):
        # the map is read only by the stop test; reading the point itself is the default test
        f, x0 = _objective(1, 3)
        runs = []
        for xatol_map in (None, lambda x: x):
            points = []
            res = minimize(
                lambda x: points.append(x) or f(x), x0, max_iters=1000, xatol=1e-6, fatol=1e-8, xatol_map=xatol_map
            )
            runs.append((res, points))
        assert runs[0] == runs[1]
        assert runs[0][0].success

    def test_flat_coordinate_stops_once_the_mapped_coordinates_agree(self):
        # f ignores x[2]; read through a map that drops it, the simplex stops as soon as the first two
        # coordinates agree, on a prefix of the trajectory the plain test follows further
        def f(x):
            return (x[0] - 0.3) ** 2 + 2.0 * (x[1] + 0.7) ** 2 + 0.5 * (x[0] - 0.3) * (x[1] + 0.7)

        x0, xatol = (1.2, 0.4, -0.8), 1e-9
        read_vertices = []

        def drop_last(x):
            read_vertices.append(x)
            return x[:2]

        runs = []
        for xatol_map in (None, drop_last):
            points = []
            res = minimize(
                lambda x: points.append(x) or f(x), x0, max_iters=5000, xatol=xatol, fatol=1e-14, xatol_map=xatol_map
            )
            runs.append((res, points))
        (plain, plain_points), (read, read_points) = runs
        assert plain.success and read.success
        assert read.nfev < plain.nfev
        assert read_points == plain_points[: read.nfev]
        # the last stop test read the four vertices, best first, and they agree in the mapped coordinates only
        best, *others = read_vertices[-4:]
        assert best == read.x
        assert all(abs(v - b) <= xatol for x in others for v, b in zip(x[:2], best[:2]))
        assert max(abs(x[2] - best[2]) for x in others) > xatol
        assert abs(read.x[0] - 0.3) <= 1e-6 and abs(read.x[1] + 0.7) <= 1e-6


def test_constant_objective_returns_x0():
    # every value ties; ties keep index order, so x0 stays the best vertex
    x0 = (0.3, -1.2, 2.5)
    bounds = [(0.1, 1.0), (None, None), (None, None)]
    res = minimize(lambda x: 1.0, x0, bounds=bounds, max_iters=500, xatol=1e-9, fatol=1e-11)
    assert res.x == x0
    assert res.fun == 1.0
    assert res.success


def test_filtering_binds_the_in_house_minimize():
    assert filtering.minimize is minimize


def test_runtime_imports_no_scipy():
    src = str(Path(hqc.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import hqc, hqc.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
