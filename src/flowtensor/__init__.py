"""Tensor transport along stochastic flows of diffeomorphisms.

The package is organised in layers:

``geometry``
    Charts, atlases (Euclidean space, flat torus, round sphere),
    pointwise tensor transformation under chart changes and the one
    batch-last contraction kernel every transport runs.
``tensor_calculus``
    Symbolic tensor fields per chart, their analytic jets (evaluated
    batch-last) and Lie derivatives (symbolic and a finite-difference
    oracle).
``stochastics``
    Time grids, counter-based Gaussian streams, Brownian drivers with
    dyadic refinement, and the discrete Ito / Stratonovich / covariation
    calculus used everywhere else.
``flow``
    Euler-Maruyama and Heun integration of the flow map together with
    the variational (Jacobian) equations and chart hopping.
``kiw_verifier``
    Pathwise evaluation of both sides of the transport identities
    (Ito-Wentzell, the transport formulas for pullbacks along flows, and
    their tensor generalisations) plus convergence studies.
``scenarios``
    A registry of ready-made verification scenarios.
``cli``
    Command line entry point producing CSV residual tables.
"""

from .geometry import (
    Chart,
    ChartAtlas,
    NoCoveringChart,
    OutsideOverlap,
    ShapeMismatch,
    TensorValue,
    euclidean_atlas,
    locate_chart,
    sphere_atlas,
    torus_atlas,
    transform_tensor,
    transition,
)
from .tensor_calculus import (
    InsufficientSmoothness,
    TensorFieldSpec,
    ValenceMismatch,
    VectorFieldSpec,
    lie_derivative,
    lie_derivative_fd_oracle,
)
from .stochastics import (
    DrivingPaths,
    GridMismatch,
    RngStream,
    TimeGrid,
    covariation,
    fv_integral,
    ito_integral,
    refine_dyadic,
    sample_brownian,
    stratonovich_integral,
)
from .flow import (
    FlowEnsemble,
    FlowSDE,
    SchemeSmoothnessMismatch,
    integrate_flow,
    integrate_flow_levels,
)
from .kiw_verifier import (
    HypothesisViolation,
    ResidualReport,
    Scenario,
    WiringMismatch,
    convergence_study,
    eval_lhs,
    eval_rhs,
)
from .scenarios import get_scenario, list_scenarios

__all__ = [
    "Chart",
    "ChartAtlas",
    "NoCoveringChart",
    "OutsideOverlap",
    "ShapeMismatch",
    "TensorValue",
    "euclidean_atlas",
    "locate_chart",
    "sphere_atlas",
    "torus_atlas",
    "transform_tensor",
    "transition",
    "InsufficientSmoothness",
    "TensorFieldSpec",
    "ValenceMismatch",
    "VectorFieldSpec",
    "lie_derivative",
    "lie_derivative_fd_oracle",
    "DrivingPaths",
    "GridMismatch",
    "RngStream",
    "TimeGrid",
    "covariation",
    "fv_integral",
    "ito_integral",
    "refine_dyadic",
    "sample_brownian",
    "stratonovich_integral",
    "FlowEnsemble",
    "FlowSDE",
    "SchemeSmoothnessMismatch",
    "integrate_flow",
    "integrate_flow_levels",
    "HypothesisViolation",
    "ResidualReport",
    "Scenario",
    "WiringMismatch",
    "convergence_study",
    "eval_lhs",
    "eval_rhs",
    "get_scenario",
    "list_scenarios",
]

__version__ = "0.1.0"
