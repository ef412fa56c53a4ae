"""Floodlight-QKD security model: Gaussian attack entropies, key-rate
bounds with brightness optimization, and a Monte Carlo validator for the
calibration-free intrusion estimator."""

from .errors import (
    ConfigError,
    DomainError,
    EstimatorUndefinedError,
    FlqkdError,
    UnphysicalStateError,
    ValidationError,
)
from .eve import (
    AttackState,
    SystemParams,
    attack_state,
    chernoff_ber_passive,
    eve_injection_brightness,
    holevo_bound,
)
from .gaussian import (
    Covariance3Mode,
    symplectic_eigenvalues,
    thermal_entropy,
    von_neumann_entropy,
)
from .monitor import (
    MonitorCounts,
    MonitorSimConfig,
    SweepRow,
    estimate_fe,
    simulate_monitor,
    sweep_injection,
)
from .rates import (
    ConfidenceSpec,
    OptimizeResult,
    RatePoint,
    alice_ber,
    f_e_upper_bound,
    optimize_brightness,
    pirandola_limit,
    q_function,
    shannon_info,
    skr_lower_bound,
)

__version__ = "0.1.0"

__all__ = [
    "AttackState",
    "ConfidenceSpec",
    "ConfigError",
    "Covariance3Mode",
    "DomainError",
    "EstimatorUndefinedError",
    "FlqkdError",
    "MonitorCounts",
    "MonitorSimConfig",
    "OptimizeResult",
    "RatePoint",
    "SweepRow",
    "SystemParams",
    "UnphysicalStateError",
    "ValidationError",
    "alice_ber",
    "attack_state",
    "chernoff_ber_passive",
    "estimate_fe",
    "eve_injection_brightness",
    "f_e_upper_bound",
    "holevo_bound",
    "optimize_brightness",
    "pirandola_limit",
    "q_function",
    "shannon_info",
    "simulate_monitor",
    "skr_lower_bound",
    "sweep_injection",
    "symplectic_eigenvalues",
    "thermal_entropy",
    "von_neumann_entropy",
]
