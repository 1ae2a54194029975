"""Well-balanced, asymptotic-preserving kinetic schemes built on scattering
matrices, with the exponential-fitting drift-diffusion schemes they relax to.
"""

from .diagnostics import (
    CheckResult,
    ExpPolyTerm,
    KernelRangeReport,
    StochasticityReport,
    exp_poly_roots,
    kernel_range_check,
    orthogonality_check,
    run_verification,
    stochasticity_check,
    well_balanced_residual,
)
from .errors import (
    BracketFailure,
    ConfigError,
    IllConditioned,
    InfeasibleNodes,
    KinwbError,
    NegativeWeight,
    NonPositiveRate,
    SingularBasis,
    SolveFailure,
    TangentRootWarning,
)
from .kinetic import (
    KineticGrid,
    StepOperator,
    assemble_cell_matrix,
    cfl_check,
    chemo_drift,
    chemoattractant_update,
    density,
    imex_step,
    interface_grad,
    phi_tanh,
    step_operator,
)
from .macrolimit import (
    DriftDiffusionParams,
    bernoulli,
    sg_flux,
    sg_step,
)
from .models import Chemo, Rte, TwoStream, Vfp
from .quadrature import (
    MomentReport,
    VelocityQuadrature,
    gauss_symmetric,
    moment_report,
    vfp_preset_nodes,
    vfp_quadrature,
)
from .runner import (
    ExperimentConfig,
    ap_error_table,
    ap_gap,
    run_experiment,
    sweep_experiment,
)
from .scattering import (
    ClosureCoefficients,
    InterfaceStack,
    chemo_interfaces,
    rte_closure,
    rte_interfaces,
    vfp_closure,
    vfp_interfaces,
)
from .spectral import (
    dispersion_roots,
    hermite_poly,
    vfp_psi0,
)
from .twostream import TwoStreamState, ts_smatrix, ts_step

__all__ = [name for name in dir() if not name.startswith("_")]
