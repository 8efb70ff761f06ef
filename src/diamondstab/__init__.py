"""Diamond-scheme integrators for multi-symplectic PDEs and the three-step
stability pipeline (structural consistency, error-propagation cycles,
block-circulant spectra)."""

from .msform import (
    LinearizedForm,
    MultiSymplecticForm,
    PolynomialTerm,
    eval_grad_S,
    eval_jac_S,
    linearize,
    load_form_json,
    registry_get,
    registry_names,
    validate_form,
)
from .structure import (
    build_equation_unknown_graph,
    classify_consistency,
    dm_decompose,
)
from .propagation import (
    build_propagation_graph,
    enumerate_cycles,
    stability_threshold,
)
from .spectral import (
    Criterion,
    assemble_full_update_matrix,
    assemble_symbol_family_rk,
    assemble_symbol_family_simple,
    build_blocks_rk,
    build_blocks_simple,
    spectral_verdict,
    stability_boundary_sweep,
)
from .integrator import (
    MeshParams,
    MeshState,
    gauss_tableau,
    init_half_step,
    integrate,
    parse_scheme,
    solve_diamond_rk,
    total_energy,
    verify_discrete_conservation,
)
from .pipeline import PipelineReport, reference_linearization, run_pipeline

__version__ = "0.1.0"
