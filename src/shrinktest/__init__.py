"""Multiple testing with Gaussian scale-mixture shrinkage priors.

The library evaluates the posterior shrinkage weight m_x of a
scale-mixture prior, turns the rule "reject when m_x > alpha" into a
two-sided cut, certifies the prior conditions that back the risk
guarantees, and reproduces those guarantees numerically: closed-form
and Monte Carlo additive risk under a two-group reference model,
FDR + FNR at the separation rate, and the plug-in (empirical sparsity)
versions of both.
"""

from .adaptive import (
    AdaptiveDecision,
    Condition4Report,
    SparsityEstimate,
    adaptive_bayes_risk_mc,
    adaptive_risk_replicates,
    adaptive_threshold_test,
    horseshoe_family,
    simple_count_estimator,
    verify_condition4,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    ResultTable,
    emit_plot_script,
    load_config,
    run_experiment,
)
from .priors import (
    ConditionCertificate,
    DegenerateSparsityError,
    ScaleMixturePrior,
    certified_constants,
    certify_prior,
    check_condition1,
    check_condition1_lower,
    check_condition2,
    check_condition3,
    exponential_prior,
    horseshoe_prior,
    inverse_gamma_prior,
    mass_below,
    normalization,
    parse_prior_spec,
    prior_from_config,
    prior_to_config,
)
from .quadrature import NumericError, QuadratureError
from .risk import (
    RiskReport,
    SparseSignal,
    TwoGroupComparison,
    bayes_risk_analytic,
    bayes_risk_bound,
    calibrate_signal_offset,
    fdp_fnp_replicates,
    fdr_fnr_mc,
    flat_signal,
    minimax_risk_bound,
    miss_probability,
    null_rejection_rate,
    oracle_comparison_mc,
    oracle_risk,
    separation_magnitude,
    separation_rate,
    two_group_risk_mc,
)
from .rng import map_replicates, substream, substreams
from .shrinkage import AlwaysReject, NoCrossing, ShrinkageCurve
from .testing import (
    DecisionVector,
    TwoGroupModel,
    bayes_oracle_test,
    benjamini_hochberg,
    threshold_test,
)

__version__ = "0.1.0"
