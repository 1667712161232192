"""One module per reproduced paper artifact (tables and figures).

Each ``figNN_*``/``tableN_*`` module exposes ``run()`` returning structured
results and ``main()`` printing the paper-style summary; ``report`` runs
everything and renders EXPERIMENTS.md.
"""

from . import (
    fig05_soc_variation,
    fig06_two_phase,
    fig07_effective_attack,
    fig08_attack_stats,
    fig13_deb_map,
    fig14_shedding,
    fig15_survival,
    fig16_throughput,
    fig17_cost,
    sweep,
    table1_detection,
)
from .common import (
    CohortMember,
    ExperimentSetup,
    SCHEME_ORDER,
    SURVIVAL_WINDOW_S,
    build_attacker,
    learned_autonomy_prior,
    rising_edge_time,
    run_survival,
    run_survival_cohort,
    run_throughput,
    standard_setup,
)
from .sweep import (
    CellFailure,
    ScenarioSweep,
    SweepCell,
    SweepResult,
    cell_fingerprint,
    survival_grid_cells,
)

__all__ = [
    "CellFailure",
    "CohortMember",
    "ExperimentSetup",
    "SCHEME_ORDER",
    "SURVIVAL_WINDOW_S",
    "ScenarioSweep",
    "SweepCell",
    "SweepResult",
    "build_attacker",
    "cell_fingerprint",
    "fig05_soc_variation",
    "fig06_two_phase",
    "fig07_effective_attack",
    "fig08_attack_stats",
    "fig13_deb_map",
    "fig14_shedding",
    "fig15_survival",
    "fig16_throughput",
    "fig17_cost",
    "learned_autonomy_prior",
    "rising_edge_time",
    "run_survival",
    "run_survival_cohort",
    "run_throughput",
    "standard_setup",
    "survival_grid_cells",
    "sweep",
    "table1_detection",
]
