"""Block successive upper-bound minimization toolkit.

Drivers (``engine``), surrogate constructions (``surrogates``), numeric
contract checks (``verify``), and three worked applications: dense 3-way
tensor factorization (``app_tensor``), multicell transceiver design
(``app_wmmse``), and classic schemes including proximal methods, the
concave-convex procedure, and gaussian-mixture fitting (``app_classic``).
"""

from .core import (
    BlockStructure,
    BsumError,
    ComponentCollapseError,
    DescentDirectionError,
    FeasibleSetOracle,
    InvalidArgumentError,
    InvalidScheduleError,
    LineSearchError,
    NumericFailure,
    ObjectiveOracle,
    Point,
    RngStream,
    SolverError,
    Trace,
    TraceRecord,
    make_block_structure,
)
from .engine import (
    Schedule,
    SolveOptions,
    armijo_step,
    run_bsca,
    run_bsum,
    run_misum,
    run_sum,
    schedule_next,
)
from .surrogates import (
    DcLinearization,
    ExactBlockSurrogate,
    LipschitzQuadraticSurrogate,
    ProximalSurrogate,
    QuadraticApprox,
    soft_threshold,
)
from .verify import (
    CheckReport,
    SampleSpace,
    audit_trace,
    check_composite_smooth,
    check_first_order_match,
    check_tightness,
    check_upper_bound,
)

__version__ = "0.1.0"

__all__ = [
    "BlockStructure",
    "BsumError",
    "ComponentCollapseError",
    "DescentDirectionError",
    "FeasibleSetOracle",
    "InvalidArgumentError",
    "InvalidScheduleError",
    "LineSearchError",
    "NumericFailure",
    "ObjectiveOracle",
    "Point",
    "RngStream",
    "SolverError",
    "Trace",
    "TraceRecord",
    "make_block_structure",
    "Schedule",
    "SolveOptions",
    "armijo_step",
    "run_bsca",
    "run_bsum",
    "run_misum",
    "run_sum",
    "schedule_next",
    "DcLinearization",
    "ExactBlockSurrogate",
    "LipschitzQuadraticSurrogate",
    "ProximalSurrogate",
    "QuadraticApprox",
    "soft_threshold",
    "CheckReport",
    "SampleSpace",
    "audit_trace",
    "check_composite_smooth",
    "check_first_order_match",
    "check_tightness",
    "check_upper_bound",
    "__version__",
]
