"""Analytic models: the Fig. 4 cost/latency enumeration and level sizing."""

from repro.analysis.level_model import (
    levels_required,
    write_amplification_estimate,
)
from repro.analysis.cost_model import (
    PAPER_DB_BYTES,
    TABLE3_CODES,
    ConfigEvaluation,
    LevelProfile,
    default_level_profiles,
    enumerate_configs,
    evaluate_config,
    pareto_frontier,
    table3_costs,
)

__all__ = [
    "levels_required",
    "write_amplification_estimate",
    "PAPER_DB_BYTES",
    "TABLE3_CODES",
    "ConfigEvaluation",
    "LevelProfile",
    "default_level_profiles",
    "enumerate_configs",
    "evaluate_config",
    "pareto_frontier",
    "table3_costs",
]
