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


def _both(f, x0, bounds, max_iters):
    points, seen = [], []

    def recorded(x):
        assert type(x) is tuple and all(type(v) is float for v in x)
        points.append(x)
        seen.append(f(x))
        return seen[-1]

    ours = minimize(recorded, x0, bounds=bounds, max_iters=max_iters, xatol=1e-6, fatol=1e-8)
    # with every value distinct, stable and unstable orderings of the simplex agree
    assert len(set(seen)) == len(seen) == ours.nfev
    theirs = scipy_minimize(
        f, x0, method="Nelder-Mead", bounds=bounds, options={"maxiter": max_iters, "xatol": 1e-6, "fatol": 1e-8}
    )
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
