"""Transfer-tensor and memory-kernel master equations from dynamical maps.

Reconstructs discrete-time memory-kernel master equations (transfer tensors)
from families of completely positive dynamical maps, propagates driven and
initially correlated open systems to long times with a bounded memory-cutoff
error, and verifies the continuum-limit correspondence with a generalised
Nakajima-Zwanzig equation.
"""

__version__ = "0.1.0"

from .linalg import (
    SpaceLayout,
    apply_superop,
    devectorize,
    hermitian_basis,
    hermitize,
    matrix_exponential,
    operator_norm,
    partial_trace,
    sandwich_superop,
    trace_distance,
    trace_norm,
    validate_density_operator,
    vectorize,
)
from .models import (
    LindbladModel,
    PropagatorCache,
    TimeGrid,
    evolve_state,
    example_initial_state,
    example_model,
    liouvillian,
    load_model,
    model_from_config,
    propagator,
)
from .tomography import (
    CptpReport,
    DynamicalMapFamily,
    FixedState,
    FrozenSystem,
    ReferenceStates,
    StateDecomposition,
    TrueEnvironment,
    check_cptp,
    choi_matrix,
    decompose_initial_state,
    reconstruct_family,
    tomography_frame,
)
from .transfer import (
    MemoryConfig,
    TransferTensorSet,
    build_tensors,
    error_bound,
    memory_cutoff_heuristic,
    propagate,
    propagate_correlation_free,
    stability_radius,
    tensor_norm_profile,
)
from .kernel import (
    KernelSeries,
    ProjectorChoice,
    convergence_study,
    discrete_generator,
    discrete_inhomogeneity,
    discrete_kernel,
    discrete_kernel_series,
    kernel_norm_curve,
    master_equation_rhs,
    nz_generator_direct,
    nz_inhomogeneity,
    nz_kernel_direct,
    nz_kernel_slice,
    projector_superop,
)
from .serialization import (
    family_from_json,
    family_to_json,
    load_json,
    save_json,
    tensors_from_json,
    tensors_to_json,
)
