"""Combined (Stein-rule) estimators for linear regression: the estimator
class, its exact joint moment structure, an analytic plus Monte Carlo risk
engine with inequality verification, simulation sweeps, and bootstrap
relative-efficiency analysis of real data."""

__version__ = "0.1.0"

from .core_model import (
    DegenerateColumnError,
    JointMoments,
    LinearModel,
    LinearRestriction,
    MomentConsistencyError,
    RankDeficientError,
    RestrictionError,
    fit_diag_competitor,
    fit_ols,
    fit_restricted,
    joint_moments_diag,
    joint_moments_restricted,
)
from .shrinkage import (
    DegenerateDifferenceWarning,
    EstimatorDef,
    HFunction,
    InvalidRiskMomentError,
    apply_rule,
    dominance_interval,
    optimal_c,
    spsl,
    spsl_c_hat,
)
from .distributions import (
    DivergentMomentError,
    EllipticalSpec,
    elliptical_inv_quadnorm_mean,
    inv_chisq_mean,
    sample_joint_elliptical,
    sample_joint_gaussian,
    sample_joint_singular,
)
from .risk_bounds import (
    BoundReport,
    RiskMoments,
    biased_instance,
    check_born1,
    check_born2,
    check_corinterm,
    check_courant,
    check_elliptical_omega,
    check_prop_eta_omega,
    check_singular_omega,
    default_bound_suite,
    elliptical_sampler,
    estimate_risk_moments,
    gaussian_sampler,
    identity_instance,
    mse_analytic,
    mse_empirical,
    restricted_instance,
    singular_sampler,
)
from .simulation import (
    ConfigError,
    SimConfig,
    SweepResult,
    SweepRow,
    gamma_sweep,
    generate_design,
    make_beta,
    run_sweep,
)
from .analysis import (
    CorrelationTable,
    DataError,
    Dataset,
    EfficiencyReport,
    UndefinedCorrelationError,
    bootstrap_efficiency,
    correlation_table,
    load_csv,
    point_estimates,
)
