"""Non-perturbative two-level-system evolution with a moving environment.

Computes persistence and transition amplitudes of a spin-1/2 coupled to a
non-adiabatically moving field direction, extracts the non-adiabatic
corrections to the geometric phase, and predicts the NMR transverse
magnetization, with every numerical path cross-checked against independent
oracles (exact rotating-frame solution, time-sliced propagator product,
truncated transition series, branch-tracked arctangent sweep).
"""

from .engine import (
    AmplitudeResult,
    StepFailureError,
    Trajectory,
    assemble,
    closed_form_I,
    closed_form_S,
    evolve,
    series_persistence,
    sliced_propagator,
)
from .nmr import (
    MagnetizationPoint,
    closed_form_amplitudes,
    direct_expectation,
    exact_amplitudes,
    magnetization_approx,
    transverse_magnetization_exact,
)
from .paths import (
    CouplingKernel,
    EigenFrame,
    GaugeSingularityError,
    PrecessingPath,
    SampledPath,
    berry_phase,
    coupling_at,
    instantaneous_eigensystem,
    load_path_csv,
    make_kernel,
)
from .rotating import (
    DegenerateSplittingError,
    RotatingFrameSolution,
    exact_S,
    exact_rho,
    propagate_exact,
    solve_rotating_frame,
)
from .sweep import (
    PhaseCurve,
    SweepConfig,
    dimensionless_params,
    epsilon_sweep,
    epsilon_unwrap,
    figure1_dataset,
    first_iteration_epsilon,
    rho_berry_comparison,
    rho_first_iteration,
)
from .validate import run_validation

__version__ = "0.1.0"
