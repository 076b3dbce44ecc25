"""convexbench: noisy first-order optimization lab for 1-D convex functions.

Catalog of closed-form convex test functions, a budgeted seeded Gaussian
subgradient oracle, difficulty moduli (in closed form for every catalog spec,
with bisection as the cross-check), a sign-testing binary search with
flat-set diagnostics, projected SGD baselines, and a deterministic
Monte-Carlo risk harness with risk-floor and superefficiency experiments.

Each algorithm has one implementation, over a batch of replicates
(``run_binary_search``, ``run_sgd``), and one parameter type
(``BinarySearchSpec``, ``SgdSpec``); there is one oracle, ``OracleBatch``,
of which ``OracleSession`` is the one-replicate case.
"""

from .algorithms import (
    BinarySearchSpec,
    RoundRecord,
    RunResult,
    SgdSpec,
    UNIFORM_START,
    epochs_schedule,
    flat_set_diagnostics,
    run_binary_search,
    run_sgd,
    sgd,
    sign_test_binary_search,
)
from .errors import (
    BudgetError,
    DataError,
    DomainError,
    FieldError,
    ScheduleError,
    SlopeRangeError,
)
from .experiments import (
    ConstantEstimator,
    DELTA_MAX,
    ExperimentConfig,
    FunctionFamily,
    RiskRow,
    RiskTable,
    SlopeFit,
    SuperefficiencyReport,
    UniformDist,
    estimate_risk,
    fit_loglog_slope,
    function_id,
    superefficiency_experiment,
    two_point_floor,
)
from .functions import (
    Absolute,
    AsymmetricPower,
    ConvexFunction1D,
    FunctionSpec,
    PiecewiseLinear,
    SymmetricPower,
    Tilt,
    build_function,
    distance,
    spec_id,
    with_x_star,
)
from .modulus import (
    ModulusCurve,
    ModulusSample,
    conjugate_subdifferential,
    fit_growth_exponent,
    flat_set,
    modulus_analytic,
    modulus_numeric,
    sample_modulus_curve,
)
from .oracle import OracleBatch, OracleConfig, OracleSession, replicate_seed

__version__ = "0.1.0"
