"""The per-state statistics kernel of the conjecture sweep.

For every sampled state the sweep needs the maximal CHSH value ``B``, the
maximal F3 value and both steering-ellipsoid centre magnitudes ``c_A``,
``c_B``. The kernel composes the package's batched R-picture functions
(:func:`hqc.states.r_pictures`, :func:`hqc.correlations.chsh_f3_maxima`,
:func:`hqc.ellipsoid.ellipsoid_centres`), so the sweep evaluates the same
formulas as the scalar API.
"""

from __future__ import annotations

import numpy as np

from .correlations import chsh_f3_maxima
from .ellipsoid import Party, ellipsoid_centres
from .states import r_pictures, states_from_factors

ACTIVE_KERNEL = "numpy"  # the only kernel; recorded in run provenance


def sweep_stats(g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Correlation statistics for a batch of Ginibre factors.

    ``g`` is (n, 4, 4) complex; state i is ``g[i] g[i]^dag`` normalised to
    unit trace. Returns ``(b, f3, c_a, c_b, ok_a, ok_b)`` where ``ok_W``
    marks samples whose steering party has a non-pure marginal (centre
    well defined); ``c_W`` is 0 where not ok.
    """
    r = r_pictures(states_from_factors(g))
    b, f3 = chsh_f3_maxima(r[:, 1:, 1:])
    centre_a, ok_a = ellipsoid_centres(r, Party.A)
    centre_b, ok_b = ellipsoid_centres(r, Party.B)
    c_a = np.where(ok_a, np.linalg.norm(centre_a, axis=1), 0.0)
    c_b = np.where(ok_b, np.linalg.norm(centre_b, axis=1), 0.0)
    return b, f3, c_a, c_b, ok_a, ok_b
