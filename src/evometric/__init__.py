"""evometric: simulate programs in probabilistic environments and measure
how far apart, how robust, how adaptable, and how reliable they are.

The pieces, bottom up: a data space of bounded real variables
(:mod:`.dataspace`), a generative probabilistic process calculus acting on it
(:mod:`.process`), environment kernels (:mod:`.environment`), a sampling
engine producing empirical evolution sequences (:mod:`.engine`), the
Wasserstein-based evolution metric (:mod:`.metric`), perturbation-based
robustness estimators (:mod:`.robustness`), and two built-in case studies
(:mod:`.models`).
"""

from .dataspace import (
    ConvexPenalty,
    DataSpace,
    DataState,
    GoalPenalty,
    MaxPenalty,
    PenaltyFunction,
    VarPenalty,
    VarSpec,
)
from .engine import (
    Configuration,
    EmpiricalEvolutionSequence,
    Trajectory,
    estimate,
    estimate_penalties,
    sim_step,
    simulate,
)
from .environment import EnvironmentEvolution, IdentityKernel
from .errors import (
    DataValidationError,
    EvaluationError,
    EvoMetricError,
    PreconditionError,
    ProcessValidationError,
    SemanticError,
    ShortfallError,
    SimulationError,
    StructuralError,
)
from .metric import (
    DiscountFunction,
    MetricReport,
    ObservationTimes,
    constant_discount,
    distance,
    exponential_discount,
)
from .process import Definitions, Process, StepDistribution, pstep, validate
from .process_text import format_process, parse_definitions, parse_expr, parse_process
from .rng import RandomStream
from .robustness import (
    PerturbationSampler,
    RobustnessReport,
    RobustnessSpec,
    UniformResampler,
    estimate_adaptability,
    estimate_reliability,
    estimate_robustness,
)
from .stats import ErrorReport, error_analysis, reference_means

__version__ = "0.1.0"
