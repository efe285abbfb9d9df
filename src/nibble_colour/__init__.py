"""Weighted list and correspondence edge colouring of linear uniform
hypergraphs: iterated nibble rounds, a resampling finisher, matching
polytope checks, and diagnostics."""

__version__ = "0.1.0"

from .core import (
    EdgeCorrespondence,
    InstanceError,
    LinearHypergraph,
    MissingWeightError,
    PreconditionError,
    Violation,
    WeightedListAssignment,
    colour_neighbours,
    restrict_lists,
    validate_colouring,
    validate_instance,
    weighted_size,
)
from .finisher import (
    ResampleLog,
    VertexInstance,
    feasibility_check,
    finish,
    lll_symmetric_check,
    to_link_instance,
    weighted_binom_bound,
)
from .instance_io import Instance, dump_instance, load_instance
from .nibble import (
    CannotTruncateError,
    DegenerateWeightError,
    NibbleFailureError,
    NibbleParams,
    ParameterDomainError,
    RoundOutcome,
    ScheduleCollapseError,
    drive,
    equalizing_probability,
    next_params,
    run_round,
    simulate_schedule,
)
from .pipeline import ColourResult, colour_instance
from .polytope import (
    MembershipVerdict,
    UnsupportedInstanceError,
    edmonds_membership,
    lists_to_fractional,
    polytope_lists_to_weights,
)
from .harness import (
    BruteResult,
    DiagnosticsReport,
    GenerationError,
    GeneratorSpec,
    brute_force_colour,
    build_local_lists,
    expectation_diagnostic,
    generate,
    neighbourhood_audit,
)

__all__ = [name for name in dir() if not name.startswith("_")]
