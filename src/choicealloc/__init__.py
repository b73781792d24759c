"""Online allocation of perishable resources under customer choice.

The pipeline: describe an instance (resources, products, Poisson customer
types with choice models), solve the choice-based fluid LP by column
generation, derive per-resource value surfaces, then run and compare the
fcfs / pr / opr online offering policies in a seeded Monte Carlo harness.
"""

from .model import (
    Resource,
    Product,
    RateCurve,
    CustomerType,
    Instance,
    ValidationReport,
    validate_instance,
    products_of_resource,
    scale_instance,
)
from .choice import (
    AttractionChoiceModel,
    MixtureChoiceModel,
    TabulatedChoiceModel,
    sample_choice,
    expected_revenue,
)
from .lp import LinearProgram, LpSolution, solve_lp
from .cdlp import (
    SubproblemResult,
    CdlpSolution,
    build_master,
    master_columns,
    assortment_subproblem_sort,
    assortment_subproblem_bruteforce,
    assortment_subproblem_branch_and_bound,
    AutoExactSolver,
    solve_cdlp,
    solve_cdlp_enumeration,
    dual_bound,
)
from .valuefn import (
    MarginalValue,
    ResourceValueGrid,
    solve_resource_hjb,
    build_value_grids,
    marginal_value,
    interval_decomposition_bound,
)
from .policies import (
    PolicyState,
    OfferDecision,
    POLICY_NAMES,
    fcfs_offer,
    pr_accept,
    opr_offer,
)
from .sim import (
    ArrivalEvent,
    SamplePath,
    ReplicationReport,
    MonteCarloReport,
    SimulationError,
    generate_arrivals,
    run_policy,
    monte_carlo,
    hindsight_bound,
    estimate_ratio,
    paired_half_width,
)
from .generators import random_instance, spike_instance

__version__ = "0.1.0"
