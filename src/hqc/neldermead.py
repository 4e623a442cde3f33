"""Bounded Nelder-Mead simplex search over tuples of floats.

The one-sided CHSH optimiser minimises an objective of three variables
with it, and the tests' F3 oracle polishes its see-saw with it. It
repeats, step for step and in the same floating-point operations,
scipy's ``_minimize_neldermead`` (``scipy/optimize/_optimize.py``) with
its default, non-adaptive coefficients (Nelder & Mead, Comput. J. 7, 308,
1965; Lagarias, Reeds, Wright & Wright, SIAM J. Optim. 9, 112, 1998):

- the initial simplex moves each coordinate of x0 by 5 %, or to 0.00025
  where it is 0, unless ``initial_simplex`` gives its n + 1 vertices, as
  scipy's option of that name does (x0 then gives only the dimension);
  either way a vertex above its upper bound is reflected to ``2 ub - v``,
  and every vertex is then clipped to the bounds;
- each iteration reflects the worst vertex through the centroid of the
  others, then expands, contracts outside (accepted on ``fxc <= fxr``) or
  inside, or shrinks towards the best vertex; every trial point is
  clipped to the bounds;
- the search stops once every vertex lies within ``xatol`` of the best in
  each coordinate and within ``fatol`` of it in value, or when
  ``max_iters`` iterations (counted from 1) have run.

Beyond scipy, ``xatol_map`` may map a point to the coordinates whose
spread ``xatol`` bounds, for a chart in which some coordinates stop
mattering somewhere (an angle at a pole): the simplex then stops once the
objects the points stand for agree, not their coordinates. Left at None,
the test reads the point itself, as scipy does, and both options at None
give scipy's trajectory bit for bit. The one-sided CHSH polish reads
each vertex of its chart (d, theta, phi) of the filters as the filter's
coordinates (d, (1 - d) n), in which the angles count only as far as
they move the filter, with xatol = 1e-7 (``filtering.XATOL``). The test
runs before every iteration, so a smaller xatol only runs a search
further along the same points; on the optimize benchmark's CHSH calls,
under the multi-start search that preceded the polish, 1e-9 took a
quarter more evaluations than 1e-7 and moved no value by more than
2.0e-15. That search, kept in the tests as their reference, also gives
its start 0 an ``initial_simplex``: the identity (1, 0, 0) and the boosts
with d = 0.95 along z, x and y, since scipy's rule would put two of its
vertices on the identity, where the angles do nothing.

One rule differs: the simplex is ordered by Python's stable sort, so
vertices with equal values keep their index order. scipy orders it with
``np.argsort``, which is not stable, and its order on ties depends on
the CPU's sorting kernel. Only on tied values can the two trajectories
differ.

The loop is written for the interpreter, not for numpy, with the same
arithmetic: clipping touches only the coordinates that have a bound
(clipping to an infinite bound changes nothing), the centroid sums each
coordinate in vertex order as ``np.add.reduce`` does, and the stopping
test exits at the first vertex outside a tolerance, with ``<=``
comparisons, so that a NaN never counts as converged.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, NamedTuple, Sequence

RHO, CHI, PSI, SIGMA = 1.0, 2.0, 0.5, 0.5  # reflection, expansion, contraction, shrink
NONZDELT, ZDELT = 0.05, 0.00025  # initial simplex: relative step, and the step from a zero coordinate
# the trial points' coefficients on the centroid and the worst vertex, as scipy forms them
_REFLECT, _EXPAND, _RHO_CHI = 1 + RHO, 1 + RHO * CHI, RHO * CHI
_OUTSIDE, _PSI_RHO, _INSIDE = 1 + PSI * RHO, PSI * RHO, 1 - PSI

Point = tuple[float, ...]


class NelderMeadResult(NamedTuple):
    x: Point  # best vertex
    fun: float  # its value
    nfev: int  # objective evaluations
    success: bool  # stopped on the tolerances, not on max_iters


def minimize(
    fun: Callable[[Point], float],
    x0: Sequence[float],
    *,
    bounds: Sequence[tuple[float | None, float | None]] | None = None,
    max_iters: int,
    xatol: float,
    fatol: float,
    initial_simplex: Sequence[Sequence[float]] | None = None,
    xatol_map: Callable[[Point], Sequence[float]] | None = None,
) -> NelderMeadResult:
    """Minimise ``fun`` from ``x0``; ``bounds`` holds one (lower, upper) pair per coordinate, None for no bound.

    ``initial_simplex`` holds the n + 1 starting vertices, in place of the
    simplex built around x0; ``xatol_map`` maps a point to the coordinates
    whose spread ``xatol`` bounds (see the module docstring).
    """
    n = len(x0)
    # (index, lower, upper) of the coordinates with a bound; clipping leaves every other coordinate as it is
    bounded = [
        (k, -math.inf if a is None else float(a), math.inf if b is None else float(b))
        for k, (a, b) in enumerate(bounds or ())
        if a is not None or b is not None
    ]

    def clip(y: list[float]) -> Point:
        for k, a, b in bounded:
            v = y[k]
            y[k] = a if v < a else b if v > b else v
        return tuple(y)

    if initial_simplex is None:
        start = clip([float(v) for v in x0])
        points = [start]
        for k in range(n):
            y = list(start)
            y[k] = (1 + NONZDELT) * y[k] if y[k] != 0 else ZDELT
            points.append(tuple(y))
    else:
        points = [tuple(float(v) for v in p) for p in initial_simplex]
        if len(points) != n + 1 or any(len(p) != n for p in points):
            raise ValueError(f"initial_simplex must hold {n + 1} points of {n} coordinates, as x0 has {n}")
    # a step past an upper bound is reflected into the interior, so that clipping cannot collapse the simplex
    simplex = []
    for p in points:
        y = list(p)
        for k, _, b in bounded:
            if y[k] > b:
                y[k] = 2 * b - y[k]
        x = clip(y)
        simplex.append((fun(x), x))
    nfev = n + 1
    by_value = operator.itemgetter(0)
    simplex.sort(key=by_value)

    iterations = 1
    while iterations < max_iters and not _converged(simplex, xatol, fatol, xatol_map):
        fw, worst = simplex[-1]
        # the centroid of all but the worst vertex, each coordinate summed in vertex order
        xbar = list(simplex[0][1])
        for j in range(1, n):
            x = simplex[j][1]
            for k in range(n):
                xbar[k] += x[k]
        xbar = [v / n for v in xbar]
        xr = clip([_REFLECT * c - RHO * w for c, w in zip(xbar, worst)])
        fxr = fun(xr)
        nfev += 1
        if fxr < simplex[0][0]:
            xe = clip([_EXPAND * c - _RHO_CHI * w for c, w in zip(xbar, worst)])
            fxe = fun(xe)
            nfev += 1
            simplex[-1] = (fxe, xe) if fxe < fxr else (fxr, xr)
        elif fxr < simplex[-2][0]:
            simplex[-1] = (fxr, xr)
        else:
            if fxr < fw:
                xc = clip([_OUTSIDE * c - _PSI_RHO * w for c, w in zip(xbar, worst)])
                fxc = fun(xc)
                accept = fxc <= fxr
            else:
                xc = clip([_INSIDE * c + PSI * w for c, w in zip(xbar, worst)])
                fxc = fun(xc)
                accept = fxc < fw
            nfev += 1
            if accept:
                simplex[-1] = (fxc, xc)
            else:
                best = simplex[0][1]
                for j in range(1, n + 1):
                    x = clip([b + SIGMA * (v - b) for v, b in zip(simplex[j][1], best)])
                    simplex[j] = (fun(x), x)
                nfev += n
        iterations += 1
        simplex.sort(key=by_value)
    return NelderMeadResult(simplex[0][1], simplex[0][0], nfev, iterations < max_iters)


def _converged(
    simplex: list[tuple[float, Point]],
    xatol: float,
    fatol: float,
    xatol_map: Callable[[Point], Sequence[float]] | None,
) -> bool:
    """Whether every vertex is within ``fatol`` of the best in value and ``xatol`` in each coordinate,
    read through ``xatol_map`` if one is given.

    The comparisons are ``<=``, so a NaN anywhere means not converged. The
    values are tested first, so the map runs only on a simplex that has
    converged in value.
    """
    f0, best = simplex[0]
    for j in range(1, len(simplex)):
        if not abs(f0 - simplex[j][0]) <= fatol:
            return False
    read = (lambda x: x) if xatol_map is None else xatol_map
    best = read(best)
    for j in range(1, len(simplex)):
        for v, b in zip(read(simplex[j][1]), best):
            if not abs(v - b) <= xatol:
                return False
    return True
