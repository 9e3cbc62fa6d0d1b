"""Locally differentially private bandit algorithms and a regret harness.

Black-box one-point and two-point private reductions for context-free
bandits (convex optimization, multi-armed bandits, best-arm identification),
locally private contextual linear and generalized linear bandits, synthetic
environments, and an experiment harness that measures regret growth.
"""

from .blackbox import (
    DecisionSet,
    FkmBandit,
    LilUcb,
    LilUcbParams,
    TsallisInf,
    TwoPointBandit,
    project,
)
from .contextual import (
    BaselineConfidence,
    LdpConfidence,
    LinkFunction,
    LocalReport,
    ServerState,
    glm_local_report,
    glm_select_action,
    glm_server_update,
    glm_sigma,
    linear_local_report,
    linear_select_action,
    linear_server_update,
    linear_sigma,
    logistic_link,
)
from .environments import (
    AdversarialMab,
    AffineQuadraticOracle,
    ContextualEnv,
    QuadraticOracle,
    StochasticMab,
)
from .errors import (
    CalibrationError,
    ConfigurationError,
    ContractViolation,
    LdpBanditsError,
    NumericalError,
)
from .harness import (
    ExperimentConfig,
    RegretTrace,
    SlopeFit,
    checkpoint_grid,
    emit,
    fit_slope,
    run_bai,
    run_experiment,
)
from .mechanisms import (
    DrawAhead,
    PrivacyParams,
    ReportNoise,
    calibrate_gaussian,
    derive_rng,
    perturb_scalar,
    symmetric_gaussian_matrix,
)
from .reductions import (
    LdpBaiLearner,
    LdpMabLearner,
    OnePointConfig,
    PerturbedValue,
    TwoPointConfig,
    effective_loss_bound,
    one_point_round,
    one_point_sigma,
    two_point_round,
    two_point_sigma,
)

__version__ = "0.1.0"
