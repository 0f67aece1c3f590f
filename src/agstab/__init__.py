"""Quantum stabilizer codes from algebraic-geometry dual-containing chains.

The pipeline: evaluation codes on the projective line or a Hermitian
curve, twisted into certified chains C' > C >= C^perp; symbolwise
binary descent in a self-dual basis; enlargement into a large
symplectic GF(4) code; quantum parameters with exact desk-scale
distance enumeration.  Separate modules verify the operator-level
stabilizer definitions in exact arithmetic and evaluate the asymptotic
rate-distance bound curves.
"""

from .bounds import (
    BoundCurve,
    CurveSample,
    ag_curve,
    ag_line,
    binary_entropy,
    breakpoint_diagnostic,
    delta_grid,
    emit_csv,
    envelope,
    gv_bound,
    gv_curve,
    line_crossover,
    parse_csv,
    restriction_limit,
)
from .curves import (
    Curve,
    DualChainTriple,
    TwistSolution,
    build_dual_chain,
    enumerate_curve,
    evaluation_code,
    rr_basis,
    solve_twist_vector,
)
from .errors import BudgetExceeded, CertificationError, PipelineError, TwistSearchError
from .expansion import (
    ExpandedPair,
    ExpansionMap,
    expand_chain,
    expand_code,
)
from .fields import (
    EPS,
    EPS_BAR,
    Field,
    SelfDualBasis,
    get_field,
    self_dual_basis,
)
from .linear import (
    DEFAULT_BUDGET,
    LinearCode,
    WeightVector,
    binary_code,
    make_code,
)
from .pauli import (
    DetectabilityReport,
    RangeBasis,
    StabilizerSpec,
    all_mu_traces,
    check_error,
    detectability_check,
    stabilizer_projector,
)
from .pipeline import PipelineConfig, PipelineRun, pipeline_build
from .symplectic import (
    QuantumCodeReport,
    SymplecticCode,
    make_symplectic,
    quantum_bound,
    quantum_params,
    steane_compose,
    unpack_gf4,
)

__version__ = "0.1.0"
