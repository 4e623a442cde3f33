"""Quantum steering ellipsoids for either party of a two-qubit state.

Bob's steering ellipsoid is the set of Bloch vectors his conditional state
can be steered to by measurements on Alice's side. It is an ellipsoid with

    centre  c_B = gamma^2 (b - T^T a),        gamma^2 = 1 / (1 - |a|^2),
    matrix  Q_B = gamma^2 (T^T - b a^T)(1 + gamma^2 a a^T)(T - a b^T),

whose semiaxis lengths are the square roots of Q's eigenvalues. Alice's
ellipsoid follows by swapping a <-> b and T -> T^T. When the steering
party's marginal is pure the state is product-like and every steered state
collapses to a single point; that limit is represented by a degenerate
ellipsoid with q = 0 and centre at the steered party's Bloch vector.
:func:`centre_magnitudes` is the one routine for both parties' |c|.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

import numpy as np

from .states import RMatrix

DEGENERACY_TOL = 1e-9  # threshold on 1 - |steering Bloch|^2 below which the marginal counts as pure


class Party(Enum):
    A = "A"
    B = "B"

    def other(self) -> "Party":
        return Party.B if self is Party.A else Party.A


class SteeringEllipsoid(NamedTuple):
    """Centre, matrix, and derived geometry of one party's ellipsoid."""

    centre: np.ndarray
    q: np.ndarray
    semiaxes: np.ndarray  # decreasing
    degenerate: bool


def _oriented(r: np.ndarray, party: Party) -> np.ndarray:
    """A (n, 4, 4) batch of pictures, transposed for Alice: her ellipsoid of R is Bob's ellipsoid of R^T."""
    return r.transpose(0, 2, 1) if party is Party.A else r


def _steering(r: np.ndarray) -> tuple[np.ndarray, ...]:
    """(steer, steered, t, gamma_sq, centres, ok) for Bob's ellipsoids of a (n, 4, 4)
    batch of pictures (see :func:`_oriented`): the steering and steered Bloch vectors,
    T with the steering index first, gamma^2 (1 where ``ok`` is False) and the output
    of :func:`ellipsoid_centres`."""
    steer, steered, t = r[..., 1:, 0], r[..., 0, 1:], r[..., 1:, 1:]
    # sum_i steer_i R[i + 1, :] = (|steer|^2, T^T steer), added term by term because the roundoff
    # of einsum and matmul can depend on a row's batch, strides or memory alignment
    terms = steer[..., None] * r[..., 1:, :]
    weighted = sum(terms[..., i, :] for i in range(3))
    denom = 1.0 - weighted[..., 0]
    ok = denom > DEGENERACY_TOL
    gamma_sq = 1.0 / np.where(ok, denom, 1.0)
    centres = gamma_sq[..., None] * (steered - weighted[..., 1:])
    return steer, steered, t, gamma_sq, np.where(ok[..., None], centres, steered), ok


def ellipsoid_centres(r: np.ndarray, party: Party) -> tuple[np.ndarray, np.ndarray]:
    """Centres of ``party``'s ellipsoids for a (n, 4, 4) batch of pictures.

    Returns ``(centres, ok)``: ``ok`` marks the samples whose steering
    marginal is not pure (1 - |steering Bloch|^2 > DEGENERACY_TOL); where it is
    pure, the centre is the steered party's Bloch vector, the
    point-ellipsoid convention.
    """
    return _steering(_oriented(r, party))[4:]


def centre_magnitudes(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|c_A| and |c_B| of a (n, 4, 4) batch of pictures and their ``ok`` masks, as two (2, n)
    arrays in party order (A, B): one :func:`ellipsoid_centres` pass per party over a view of
    ``r``, so a row that is not ok has the point-ellipsoid centre's magnitude. The squares are
    summed in ``np.linalg.norm``'s order, (s0 + s1) + s2, so the magnitudes are its bits."""
    c = np.empty((2, len(r)))
    ok = np.empty((2, len(r)), dtype=bool)
    for k, party in enumerate(Party):
        sq, ok[k] = ellipsoid_centres(r, party)
        sq *= sq  # the centres are a fresh array
        np.sqrt((sq[:, 0] + sq[:, 1]) + sq[:, 2], out=c[k])
    return c, ok


def compute_ellipsoid(r: RMatrix, party: Party) -> SteeringEllipsoid:
    """Steering ellipsoid of ``party`` for the state with picture ``r``.

    Where 1 - |steering Bloch|^2 is at most DEGENERACY_TOL the
    point-ellipsoid convention applies (flag, never an error).
    """
    steer, steered, t, gamma_sq, centre, ok = (v[0] for v in _steering(_oriented(r.r[None], party)))
    if not ok:
        return SteeringEllipsoid(centre=centre, q=np.zeros((3, 3)), semiaxes=np.zeros(3), degenerate=True)
    q = gamma_sq * (t.T - np.outer(steered, steer)) @ (np.eye(3) + gamma_sq * np.outer(steer, steer)) @ (
        t - np.outer(steer, steered)
    )
    q = 0.5 * (q + q.T)  # kill roundoff asymmetry before eigensolving
    eigs = np.linalg.eigvalsh(q)
    semiaxes = np.sqrt(np.clip(eigs, 0.0, None))[::-1]
    return SteeringEllipsoid(centre=centre, q=q, semiaxes=semiaxes, degenerate=False)
