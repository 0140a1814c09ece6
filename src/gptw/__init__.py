"""Pseudospectral workbench for T-periodic Gross-Pitaevskii traveling waves."""

from .field import (
    ComplexField,
    FieldFormatError,
    GridMismatch,
    TorusGrid,
    axis_windings,
    coarsest_grid,
    l2_norm,
    l2_product,
    read_field,
    read_header,
    resample,
    spectral_tail,
    transform_forward,
    vortex_count,
    write_field,
)
from .functionals import (
    ActionReport,
    Certificate,
    Kernel,
    Params,
    action,
    certify,
    equation_integral,
    gradient,
    hessian_apply,
)
from .ansatz import (
    NoSuchSolution,
    SupportTooLarge,
    VortexAnsatz,
    constant,
    fitted_vortex_ansatz,
    perturb,
    plane_wave,
    vortex_test_function,
)
from .minimize import (
    CriticalPoint,
    MinimizeOptions,
    classify,
    minimize_action,
    minimizer_experiment,
)
from .newton import certified_tol, newton_minres
from .mountainpass import (
    NotASaddle,
    Path,
    RelaxOptions,
    SaddleOptions,
    SaddleResult,
    find_saddle,
    init_path,
    mountain_pass_pipeline,
    relax_path,
)
from .spectrum import (
    NoConvergence,
    SpectrumReport,
    ThresholdReport,
    WeightOutOfRange,
    case1_bound,
    constancy_scan,
    hessian_spectrum_at_constant,
    plane_wave_onset,
    poincare_constant,
    smallest_direction,
    symbol_eigenvalues,
    weighted_eigenvalue,
)

__all__ = [name for name in dir() if not name.startswith("_")]
