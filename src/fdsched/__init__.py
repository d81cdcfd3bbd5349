"""Full-duplex cellular user scheduling, binary optimal power allocation,
and closed-form Rayleigh-fading sum-rate analysis, with a deterministic
Monte Carlo engine and numerical quadrature as mutual cross-checks."""

from types import ModuleType as _ModuleType

__version__ = "0.1.0"

from .analysis import (
    AnalyticalParams,
    AsymptoticRate,
    ClosedFormRate,
    QuadratureError,
    asymptotic_rate_a1,
    avg_rate_a1,
    avg_rate_a2,
    avg_rate_integral,
    avg_rate_ul_closed,
    cdf_sinr_dl_a1,
    cdf_sinr_dl_a2,
    cdf_sinr_ul,
)
from .model import (
    ChannelRealization,
    RateBreakdown,
    SystemConfig,
    config_from_db,
    draw_realization,
    rates,
)
from .power import OpaDecision, opa
from .scheduling import (
    DuplexMode,
    Schedule,
    eta,
    select_a1,
    select_a2,
    select_a3,
    select_es_fd,
    select_es_fdhd,
    select_hd_tdd,
    zeta,
)
from .sim import (
    Scheduler,
    SweepPoint,
    TrialStats,
    derived_trial_seed,
    resolve_config,
    run_coupled,
    run_sweep,
    run_trials,
)
from .specfun import exp_integral_ei, xi_n

# Every public name imported above, each listed once.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
