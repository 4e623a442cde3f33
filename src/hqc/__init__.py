"""Hidden quantum correlations of two-qubit states.

Computes and certifies CHSH / F3-steering correlations, steering-ellipsoid
geometry, local-filtering normal forms and hidden-correlation measures,
one-sided filter optimisation, conjecture-testing random sweeps, and
parameter scans of three benchmark state families.
"""

from .correlations import (
    SingularTriple,
    brute_force_chsh,
    chsh_max,
    chsh_value,
    f3_max,
    ppt_entangled,
    t_contract,
)
from .criteria import (
    InaccessibilityReport,
    Thresholds,
    classify,
    classify_batch,
    conjecture_bound_chsh,
)
from .ellipsoid import Party, SteeringEllipsoid, compute_ellipsoid
from .errors import (
    ComplexSpectrum,
    DegenerateNormalForm,
    DomainError,
    HqcError,
    NotHermitian,
    NotPositive,
    OptimumMismatch,
    ParseError,
    TraceNotOne,
    ZeroSuccessProbability,
)
from .families import Family, paper_filter_rho_m, qd_centre_boundary, rho_m, rho_mm, rho_qd, scan_family
from .filtering import (
    LocalFilter,
    NormalFormSpectrum,
    Objective,
    OneSidedF3,
    OneSidedResult,
    apply_filters,
    apply_one_sided,
    hidden_chsh,
    hidden_f3,
    identity_filter,
    normal_form_spectrum,
    one_sided_f3_suprema,
    optimize_one_sided,
)
from .montecarlo import SweepConfig, SweepSummary, Violation, run_sweep
from .states import (
    DensityMatrix,
    PAULI_KRON,
    RMatrix,
    SIGMA,
    SeededRng,
    from_r_picture,
    sample_state,
    to_r_picture,
    validate_state,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
