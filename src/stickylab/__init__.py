"""stickylab: a Monte Carlo laboratory for sticky stochastic processes.

Simulates Brownian and fractional Brownian paths plus derived example
processes, estimates stickiness probabilities with confidence intervals,
cross-checks the equivalent characterizations, and evaluates
transaction-cost portfolio outcomes.
"""

__version__ = "0.1.0"

from .errors import StickyLabError
from .market import (
    ArbitrageStats,
    CostModel,
    LedgerPath,
    Strategy,
    admissibility_check,
    exp_price,
    liquidation_value,
    momentum_strategy,
)
from .pathgen import (
    BrownianMotion,
    DerivedProcess,
    Ensemble,
    FractionalBrownianMotion,
    Path,
    ProcessSpec,
    SeedSpec,
    TimeGrid,
    integrate_ito,
    make_uniform_grid,
    sample_brownian,
    sample_ensemble,
    sample_fbm,
)
from .stickiness import (
    SISEstimate,
    StickinessEstimate,
    StickinessQuery,
    cross_check_characterizations,
    estimate_stickiness,
    estimate_stickiness_sis,
    survival_ladder,
    wilson_ci,
)
from .stopping import (
    Deterministic,
    EventDescriptor,
    FirstAbsExceed,
    HittingFrom,
    PassageToLevel,
    StoppingRule,
    StopResult,
    WholeSpace,
    evaluate_event,
    evaluate_rule,
    passage_time,
)
from .transforms import (
    Abs,
    AbsCubeRootOfMartingale,
    Affine,
    CosDriftExample,
    CosPiOverX,
    Identity,
    IdentityCap,
    NonStickyMartingale,
    PassageTimes,
    SignedPower,
    TimeChange,
    apply_map,
    build_example,
    dds_brownianize,
    drift_by_qv,
    quadratic_variation,
    time_change,
)

__all__ = [name for name in dir() if not name.startswith("_")]
