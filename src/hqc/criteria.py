"""Centre-based inaccessibility certificates and the case taxonomy.

The working conjecture: a state's maximal CHSH value is bounded by
``f_CHSH(c) = max(sqrt(2(1-c)), 1)`` in the magnitude ``c`` of either
steering-ellipsoid centre, and no CHSH (F3) violation is possible at all
once ``c > 0.5`` (``c > 0.66``). Because a filter on one side leaves the
other side's ellipsoid invariant, a centre beyond threshold certifies that
the opposite party cannot reveal any violation by filtering alone. These
certificates are the ``{A,B}_INACCESSIBLE_{CHSH,F3}`` flags of
:func:`classify_batch`, and ``hqc certify`` reports one of them. Every
such certificate is conditional on the conjecture, which is supported
numerically (see the montecarlo module) but unproven; reports carry a
``conjecture_conditional`` marker for that reason.

Certification is one-sided evidence: ``True`` means "certified
inaccessible (modulo the conjecture)", ``False`` means "not certified",
never "accessible". Accessibility claims require an explicit optimiser
witness (:func:`hqc.filtering.optimize_one_sided`).

:func:`classify_batch` reports on a (n, 4, 4) stack of pictures with one
batched call per quantity; :func:`classify` is a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

import numpy as np

from .correlations import SQRT2, SQRT3, chsh_f3_maxima, ppt_test
from .correlations import ppt_entangled  # noqa: F401 (a span target in hqcbench)
from .ellipsoid import centre_magnitudes
from .ellipsoid import compute_ellipsoid  # noqa: F401 (a span target in hqcbench)
from .errors import DomainError
from .filtering import Objective, hidden_values
from .states import RMatrix, from_r_picture  # noqa: F401 (from_r_picture: a span target in hqcbench)

# strict margin above the classical bound, to avoid flag flapping at 1
VIOLATION_MARGIN = 1e-8
CLASSICAL_MARGIN = 1e-10
MAXIMAL_MARGIN = 1e-8


@dataclass(frozen=True)
class Thresholds:
    """Centre-magnitude cutoffs beyond which no violation is possible.

    The F3 value is stored as the empirical literal 0.66 (not 2/3); both
    fields may be overridden since they were extracted from numerics.
    """

    c_chsh: float = 0.5
    c_f3: float = 0.66

    def __post_init__(self) -> None:
        if not (0.0 < self.c_chsh < self.c_f3 < 1.0):
            raise DomainError(f"thresholds must satisfy 0 < c_chsh < c_f3 < 1, got {self.c_chsh}, {self.c_f3}")

    def cutoff(self, objective: Objective) -> float:
        """The centre cutoff for ``objective``."""
        return self.c_chsh if objective is Objective.CHSH else self.c_f3


class InaccessibilityReport(NamedTuple):
    """Per-state correlation values, centre magnitudes, and case flags.

    Flags (CHSH family; each has an F3 analogue):

    * ``NO_CHSH_VIOLATION``: no direct violation (b <= 1).
    * ``HIDDEN_CHSH``: no direct violation but the filtered optimum
      violates (case 1).
    * ``MAXIMAL_HIDDEN_CHSH``: the filtered optimum is the quantum maximum
      sqrt(2) (case 2; see note below).
    * ``A_INACCESSIBLE_CHSH`` / ``B_INACCESSIBLE_CHSH``: the named party is
      certified unable to reveal any violation alone (cases 3-4 evidence).
    * ``AB_INACCESSIBLE_CHSH``: both certificates hold (case 4; case 5
      when combined with MAXIMAL).

    Normalisation note: some summaries quote the maximal hidden CHSH value
    as "2", which refers to the unnormalised Bell operator whose classical
    bound is 2; this package normalises the classical bound to 1, so the
    maximal value is sqrt(2) (and sqrt(3) for F3) throughout.

    Inaccessibility flags are valid modulo the centre-bound conjecture;
    the class constant ``conjecture_conditional`` is True to flag this, and
    the property ``degenerate_normal_form`` says whether the normal form
    vanishes (``hb_star`` and ``hf3_star`` NaN). Degenerate
    (point) ellipsoids are certified by the same rule using the
    point-ellipsoid centre, a convention this package adds for pure
    marginals.
    """

    b: float
    f3: float
    hb_star: float
    hf3_star: float
    c_a: float
    c_b: float
    entangled: bool
    flags: frozenset[str]
    thresholds: Thresholds

    conjecture_conditional = True  # a class constant, not a field

    @property
    def degenerate_normal_form(self) -> bool:
        return math.isnan(self.hb_star)


def conjecture_bound_chsh(c: float | np.ndarray) -> float | np.ndarray:
    """Conjectured CHSH upper bound max(sqrt(2(1-c)), 1) at centre c.

    Accepts a scalar (returns a float) or an array (returns an array);
    any magnitude outside [0, 1], NaN included, raises DomainError.
    """
    arr = np.asarray(c, dtype=float)
    inside = (arr >= 0.0) & (arr <= 1.0)
    if not inside.all():
        raise DomainError(f"centre magnitude must be in [0, 1], got {arr[~inside].flat[0]}")
    bound = np.maximum(np.sqrt(2.0 * (1.0 - arr)), 1.0)
    return float(bound) if bound.ndim == 0 else bound


# The flags of a report, objective-major: flag k of the (2, 6, n) matrix of
# :func:`classify_batch` is bit k of a row's code.
_FLAGS = tuple(
    kind.format(name)
    for name in ("CHSH", "F3")
    for kind in (
        "NO_{}_VIOLATION",
        "HIDDEN_{}",
        "MAXIMAL_HIDDEN_{}",
        "A_INACCESSIBLE_{}",
        "B_INACCESSIBLE_{}",
        "AB_INACCESSIBLE_{}",
    )
)
_FLAG_BITS = 1 << np.arange(len(_FLAGS))
_DEFAULT_THRESHOLDS = Thresholds()
_MAXIMAL = np.array([[SQRT2], [SQRT3]]) - MAXIMAL_MARGIN  # the quantum maxima, less the margin


@cache
def _flag_set(code: int) -> frozenset[str]:
    """The flags whose bits are set in ``code``: one frozenset per distinct pattern (at most
    2^12), shared by every report that has it."""
    return frozenset(name for k, name in enumerate(_FLAGS) if code >> k & 1)


def classify_batch(r: np.ndarray, th: Thresholds | None = None) -> list[InaccessibilityReport]:
    """Reports for a (n, 4, 4) stack of pictures of validated states, one per row: the reports of
    :func:`classify_batch_with_masks`."""
    return classify_batch_with_masks(r, th)[0]


def classify_batch_with_masks(
    r: np.ndarray, th: Thresholds | None = None
) -> tuple[list[InaccessibilityReport], np.ndarray]:
    """Reports for a (n, 4, 4) stack of pictures of validated states, one per row, and the (2, n)
    ``ok`` masks of their centre pass in party order (A, B), False where that party's ellipsoid is
    a point and its centre the point-ellipsoid convention's (see :func:`centre_magnitudes`).

    Each quantity comes from one batched call for the whole stack: the
    closed-form T T^T spectrum for B and F3, one ``eigh`` of rho (formed once, unvalidated, by
    :func:`hqc.states.pauli_expansion`) and one SVD of its spin-flip matrix for both hidden
    values (NaN rows where the normal form vanishes), one eigensolve for PPT
    and one pass per party for the centre magnitudes. A row whose rho has an eigenvalue
    below -1e-8 raises ComplexSpectrum. The flags are one boolean matrix, objectives by flags by rows,
    whose comparisons run on both objectives at once.
    """
    th = th or _DEFAULT_THRESHOLDS
    b, f3 = chsh_f3_maxima(r[:, 1:, 1:])
    hidden = hidden_values(r).T
    c, ok = centre_magnitudes(r)
    entangled, _ = ppt_test(r)

    cutoff = np.array([th.c_chsh, th.c_f3])[:, None, None]
    flags = np.empty((2, 6, len(r)), dtype=bool)
    np.less_equal(b, 1.0 + CLASSICAL_MARGIN, out=flags[0, 0])  # no violation
    np.less_equal(f3, 1.0 + CLASSICAL_MARGIN, out=flags[1, 0])
    np.greater(hidden, 1.0 + VIOLATION_MARGIN, out=flags[:, 1])  # False on NaN rows
    np.greater_equal(hidden, _MAXIMAL, out=flags[:, 2])
    # A's certificate reads c_B and B's reads c_A: filters by Alice leave Bob's ellipsoid fixed
    np.greater(c[::-1], cutoff, out=flags[:, 3:5])
    flags[:, 1] &= flags[:, 0]  # hidden: no direct violation, but the normal form violates
    flags[:, 2] &= flags[:, 1]
    np.logical_and(flags[:, 3], flags[:, 4], out=flags[:, 5])
    codes = _FLAG_BITS @ flags.reshape(len(_FLAGS), -1)

    reports = [
        InaccessibilityReport(vb, vf3, hb, hf3, ca, cb, ent, _flag_set(code), th)
        for vb, vf3, hb, hf3, ca, cb, ent, code in zip(*(x.tolist() for x in (b, f3, *hidden, *c, entangled, codes)))
    ]
    return reports, ok


def classify(r: RMatrix, th: Thresholds | None = None) -> InaccessibilityReport:
    """Full per-state report: values, certificates, and case flags.

    ``r`` must be the picture of a validated state; it is not re-checked.
    The report is :func:`classify_batch` of a batch of one.
    """
    return classify_batch(r.r[None], th)[0]
