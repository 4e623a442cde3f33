"""Bounded Nelder-Mead simplex search over tuples of floats.

The one-sided optimiser and the brute-force oracles minimise objectives
of three or four variables; this module is their one minimiser. It
repeats, step for step and in the same floating-point operations,
scipy's ``_minimize_neldermead`` (``scipy/optimize/_optimize.py``) with
its default, non-adaptive coefficients (Nelder & Mead, Comput. J. 7, 308,
1965; Lagarias, Reeds, Wright & Wright, SIAM J. Optim. 9, 112, 1998):

- the initial simplex moves each coordinate of x0 by 5 %, or to 0.00025
  where it is 0; a vertex above its upper bound is reflected to
  ``2 ub - v``, and every vertex is then clipped to the bounds;
- each iteration reflects the worst vertex through the centroid of the
  others, then expands, contracts outside (accepted on ``fxc <= fxr``) or
  inside, or shrinks towards the best vertex; every trial point is
  clipped to the bounds;
- the search stops once every vertex lies within ``xatol`` of the best in
  each coordinate and within ``fatol`` of it in value, or when
  ``max_iters`` iterations (counted from 1) have run.

One rule differs: the simplex is ordered by Python's stable sort, so
vertices with equal values keep their index order. scipy orders it with
``np.argsort``, which is not stable, and its order on ties depends on
the CPU's sorting kernel. Only on tied values can the two trajectories
differ.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Callable, NamedTuple, Sequence

RHO, CHI, PSI, SIGMA = 1.0, 2.0, 0.5, 0.5  # reflection, expansion, contraction, shrink
NONZDELT, ZDELT = 0.05, 0.00025  # initial simplex: relative step, and the step from a zero coordinate

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
) -> NelderMeadResult:
    """Minimise ``fun`` from ``x0``; ``bounds`` holds one (lower, upper) pair per coordinate, None for no bound."""
    n = len(x0)
    pairs = bounds if bounds is not None else [(None, None)] * n
    lo = [-math.inf if b is None else float(b) for b, _ in pairs]
    hi = [math.inf if b is None else float(b) for _, b in pairs]

    def clip(x) -> Point:
        return tuple(a if v < a else b if v > b else v for v, a, b in zip(x, lo, hi))

    nfev = 0

    def vertex(x: Point) -> tuple[float, Point]:
        nonlocal nfev
        nfev += 1
        return fun(x), x

    start = clip(float(v) for v in x0)
    points = [start]
    for k in range(n):
        y = list(start)
        y[k] = (1 + NONZDELT) * y[k] if y[k] != 0 else ZDELT
        points.append(tuple(y))
    # a step past an upper bound is reflected into the interior, so that clipping cannot collapse the simplex
    simplex = [vertex(clip(2 * h - v if v > h else v for v, h in zip(p, hi))) for p in points]
    by_value = operator.itemgetter(0)
    simplex.sort(key=by_value)

    iterations = 1
    while iterations < max_iters:
        f0, best = simplex[0]
        if all(abs(v - b) <= xatol for _, x in simplex[1:] for v, b in zip(x, best)) and all(
            abs(f0 - f) <= fatol for f, _ in simplex[1:]
        ):
            break
        fw, worst = simplex[-1]
        xbar = [functools.reduce(operator.add, col) / n for col in zip(*(x for _, x in simplex[:-1]))]
        reflected = vertex(clip((1 + RHO) * c - RHO * w for c, w in zip(xbar, worst)))
        fxr = reflected[0]
        if fxr < f0:
            expanded = vertex(clip((1 + RHO * CHI) * c - RHO * CHI * w for c, w in zip(xbar, worst)))
            simplex[-1] = expanded if expanded[0] < fxr else reflected
        elif fxr < simplex[-2][0]:
            simplex[-1] = reflected
        else:
            if fxr < fw:
                contracted = vertex(clip((1 + PSI * RHO) * c - PSI * RHO * w for c, w in zip(xbar, worst)))
                accept = contracted[0] <= fxr
            else:
                contracted = vertex(clip((1 - PSI) * c + PSI * w for c, w in zip(xbar, worst)))
                accept = contracted[0] < fw
            if accept:
                simplex[-1] = contracted
            else:
                for j in range(1, n + 1):
                    simplex[j] = vertex(clip(b + SIGMA * (v - b) for v, b in zip(simplex[j][1], best)))
        iterations += 1
        simplex.sort(key=by_value)
    return NelderMeadResult(simplex[0][1], simplex[0][0], nfev, iterations < max_iters)
