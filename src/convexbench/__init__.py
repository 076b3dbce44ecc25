"""convexbench: noisy first-order optimization lab for 1-D convex functions.

Catalog of closed-form convex test functions, a budgeted seeded Gaussian
subgradient oracle, difficulty moduli (in closed form for every catalog spec,
read off the one level-set primitive ``functions.clamped_level_set``, with
one lockstep bisection of the flat set as the cross-check; a modulus curve
holds both as arrays over its epsilon grid), a sign-testing binary
search with flat-set diagnostics, projected SGD baselines, and a
deterministic Monte-Carlo risk harness with risk-floor and superefficiency
experiments.  One log-log least-squares fit, ``fit_loglog``, gives both the
modulus growth exponent and the risk curves' slopes.

Each algorithm has one implementation, over a batch of replicates
(``run_binary_search``, ``run_sgd``), and one parameter type
(``BinarySearchSpec``, ``SgdSpec``); there is one oracle, ``OracleBatch``,
and a single run is its one-replicate case.
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
)
from .experiments import (
    ConstantEstimator,
    DELTA_MAX,
    ExperimentConfig,
    FunctionFamily,
    RiskRow,
    RiskTable,
    SuperefficiencyReport,
    UniformDist,
    estimate_risk,
    estimate_risks,
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
    fit_loglog,
    flat_set,
    modulus_analytic,
    modulus_numeric,
    sample_modulus_curve,
)
from .oracle import OracleBatch, replicate_seed

__version__ = "0.1.0"
