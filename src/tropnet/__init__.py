"""tropnet: stochastic max-plus ReLU networks, tail bounds, depth selection.

The package simulates stochastic feedforward ReLU networks through their
tropical (max-plus) pair representation, verifies the associated
concentration inequalities by Monte Carlo, classifies with the expected
decision rule and its error bounds, and selects the network depth by
backward-induction optimal stopping.
"""

from .tropical import (
    BOTTOM,
    ZERO,
    BottomValueError,
    MonomialCapError,
    RegionCount,
    RegionCountError,
    TropicalError,
    TropicalPolynomial,
    constant_polynomial,
    count_linear_regions,
    poly_add,
    poly_mul,
    poly_weighted_combine,
    polynomial_from_dict,
    polynomial_to_dict,
    prune_redundant_monomials,
)
from .networks import (
    DistributionSpec,
    LayerSample,
    NetworkRun,
    NetworkSample,
    NetworkSpec,
    SpecError,
    SymbolicRun,
    degenerate,
    forward_fg,
    forward_relu_direct,
    network_spec_from_dict,
    network_spec_to_dict,
    propagate_intervals,
    reference_classifier_spec,
    reference_spec,
    run_network,
    run_symbolic,
    sample_network,
    simulate_layer_outputs,
    uniform_int,
    uniform_real,
)
from .bounds import (
    BoundReport,
    ConvexOrderReport,
    MartingaleGradeReport,
    convex_order_check,
    estimate_tail,
    hoeffding_bound,
    martingale_grade_check,
    mgale_bound,
    nsg_bound,
    region_count_bound,
    region_count_concentration,
    simulate_random_walk,
    verify_layer_concentration,
    walk_tail_reports,
)
from .classifier import (
    AuditRow,
    DecisionBoundaryError,
    ExpectedDecision,
    ScoreSpec,
    disagreement_audit,
    expected_classify,
    expected_score,
    score,
)
from .stopping import (
    FiniteSupportProcess,
    GammaSpec,
    OracleSolution,
    StateExplosionError,
    StoppingSolution,
    backward_induction_exact,
    backward_induction_lsmc,
    exhaustive_stopping_oracle,
    gamma_value,
    loss_mse,
    select_layers,
    simulate_gamma_trajectories,
)
from .seeding import stream

__version__ = "0.1.0"
