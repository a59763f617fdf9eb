"""Non-perturbative two-level-system evolution with a moving environment.

Computes persistence and transition amplitudes of a spin-1/2 coupled to a
non-adiabatically moving field direction, extracts the non-adiabatic
corrections to the geometric phase, and predicts the NMR transverse
magnetization, with every numerical path cross-checked against independent
oracles (exact rotating-frame solution, time-sliced propagator product,
truncated transition series, branch-tracked arctangent sweep). Each name
loads its module on first use, so ``import nadphase`` itself needs numpy only.
"""

import importlib

_EXPORTS = {
    "engine": ("AmplitudeResult", "StepFailureError", "Trajectory", "assemble", "evolve",
               "series_persistence", "sliced_propagator"),
    "nmr": ("direct_expectation", "exact_amplitudes", "magnetization"),
    "paths": ("CouplingKernel", "EigenFrame", "GaugeSingularityError", "PrecessingPath",
              "berry_phase", "coupling_at", "instantaneous_eigensystem", "make_kernel"),
    "rotating": ("DegenerateSplittingError", "RotatingFrameSolution", "dimensionless_params",
                 "exact_S", "exact_rho", "propagate_exact", "solve_rotating_frame"),
    "sampled": ("SampledPath", "load_path_csv"),
    "sweep": ("PhaseCurve", "SweepConfig", "epsilon_unwrap", "figure1_dataset",
              "first_iteration_epsilon", "rho_berry_comparison", "rho_first_iteration"),
    "validate": ("run_validation",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
