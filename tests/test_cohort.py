"""Cohort-backend equivalence: stacked cells vs the per-cell pipeline.

``backend="cohort"`` steps N sibling survival cells as one stacked
``(cells, racks)`` array per kernel call. Its contract is the same one
the vectorized backend answered to: every cell's :class:`SimResult` —
work integrals, event stream, trips, every recorder sample — must be
*bit-identical* to the equivalent per-cell ``backend="vectorized"`` run.
The Hypothesis suite here drives randomised heterogeneous grids (shared
schemes, mixed scenarios/onsets/seeds, benign members, both prefix
modes) through both paths and demands exact agreement; directed tests
pin the narrow-prefix expansion toggle and the sweep-level batching.

Per-cell references are memoised across examples: the strategy draws
members from small value sets precisely so repeated cells amortise the
reference runs.
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings

from repro.attack.scenario import DENSE_ATTACK, SPARSE_ATTACK
from repro.errors import SimulationError
from repro.experiments.common import (
    CohortMember,
    run_survival,
    run_survival_cohort,
    standard_setup,
)
from repro.experiments.sweep import ScenarioSweep, survival_grid_cells
from repro.sim.cohort import CohortSimulation

from .differential import (
    CohortGrid,
    assert_results_identical,
    cohort_grids,
)

SETUP = standard_setup()

_SCENARIO_BASE = {"dense": DENSE_ATTACK, "sparse": SPARSE_ATTACK}

#: Memoised per-cell vectorized references, keyed by everything that
#: shapes a run. Hypothesis draws members from small value pools, so
#: most examples hit this cache instead of re-simulating.
_REFERENCES: "dict[tuple, object]" = {}


def _materialise(grid: CohortGrid) -> "list[CohortMember]":
    members = []
    for scheme, attack, onset_s, nodes, seed in grid.members:
        scenario = None
        if attack is not None:
            scenario = replace(
                _SCENARIO_BASE[attack].with_nodes(nodes),
                start_s=onset_s,
                name=f"{attack}{nodes}@{onset_s:g}s",
            )
        members.append(
            CohortMember(scheme=scheme, scenario=scenario, seed=seed)
        )
    return members


def _reference(member: CohortMember, window_s: float, record_every: int):
    scenario = member.scenario
    key = (
        member.scheme,
        None if scenario is None else repr(scenario),
        member.seed,
        window_s,
        record_every,
    )
    if key not in _REFERENCES:
        _REFERENCES[key] = run_survival(
            SETUP,
            member.scheme,
            scenario,
            window_s=window_s,
            seed=member.seed,
            record_every=record_every,
            backend="vectorized",
        )
    return _REFERENCES[key]


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(grid=cohort_grids())
def test_cohort_cells_match_per_cell_vectorized(grid: CohortGrid) -> None:
    """Randomised stacked grids reproduce the per-cell pipeline exactly,
    cell by cell, with the prefix expansion both armed and disarmed."""
    members = _materialise(grid)
    batched = run_survival_cohort(
        SETUP,
        members,
        window_s=grid.window_s,
        record_every=grid.record_every,
        expand_prefix=grid.expand_prefix,
    )
    assert len(batched) == len(members)
    for index, (member, result) in enumerate(zip(members, batched)):
        reference = _reference(member, grid.window_s, grid.record_every)
        assert_results_identical(
            f"cohort cell {index} ({member.scheme}, "
            f"expand={grid.expand_prefix})",
            reference,
            result,
        )


def _checker_members() -> "list[CohortMember]":
    """A small heterogeneous grid with stacked families of width >= 2
    and distinct onsets, so the expansion path genuinely forks."""
    dense = replace(DENSE_ATTACK, start_s=30.0, name="dense-late")
    sparse = replace(SPARSE_ATTACK, start_s=30.0, name="sparse-late")
    return [
        CohortMember(scheme=scheme, scenario=scenario, seed=seed)
        for scenario in (dense, sparse)
        for seed in (7, 11)
        for scheme in ("Conv", "PS", "uDEB", "PAD")
    ]


def test_expand_prefix_toggle_is_bit_identical() -> None:
    """Narrow-prefix expansion is a pure wall-clock optimisation: the
    expanded run must reproduce the single-pass cohort bit for bit."""
    members = _checker_members()
    plain = run_survival_cohort(
        SETUP, members, window_s=120.0, record_every=10,
        expand_prefix=False,
    )
    expanded = run_survival_cohort(
        SETUP, members, window_s=120.0, record_every=10,
        expand_prefix=True,
    )
    for index, (a, b) in enumerate(zip(plain, expanded)):
        assert_results_identical(f"expanded cell {index}", a, b)


@pytest.mark.parametrize(
    "onset_s",
    [SETUP.attack_time_s, SETUP.trace.end_s - 60.0, SETUP.trace.end_s + 30.0],
    ids=["calibrated", "across-trace-end", "after-trace-end"],
)
def test_cohort_trace_spans_only_the_run(monkeypatch, onset_s) -> None:
    """A cohort copies its trace once per cell, so it receives only the
    epochs its run reads, and the cells still match per-cell runs on
    the whole trace, also for runs that reach past the trace's end
    (both hold the last sample there)."""
    setup = replace(SETUP, attack_time_s=onset_s)
    window_s = 120.0
    received = []
    original = CohortSimulation.__init__

    def recording(self, config, trace, *args, **kwargs):
        received.append(trace)
        original(self, config, trace, *args, **kwargs)

    monkeypatch.setattr(CohortSimulation, "__init__", recording)
    dense = replace(DENSE_ATTACK, start_s=30.0, name="dense-late")
    members = [
        CohortMember(scheme=scheme, scenario=dense, seed=seed)
        for scheme in ("PS", "uDEB")
        for seed in (7, 11)
    ]
    batched = run_survival_cohort(
        setup, members, window_s=window_s, record_every=10
    )
    interval = setup.trace.interval_s
    assert received
    for trace in received:
        assert trace.start_s <= onset_s
        assert trace.timestamps <= math.ceil(window_s / interval) + 1
    for index, (member, result) in enumerate(zip(members, batched)):
        reference = run_survival(
            setup, member.scheme, member.scenario, window_s=window_s,
            seed=member.seed, record_every=10, backend="vectorized",
        )
        assert_results_identical(f"cell {index}", reference, result)


def test_sweep_cohort_backend_matches_vectorized() -> None:
    """``ScenarioSweep`` with ``backend="cohort"`` batches compatible
    cells and returns the exact metrics of the per-cell vectorized
    sweep, including for a lone cell that falls through to the
    per-cell cohort path."""
    scenarios = [
        replace(DENSE_ATTACK, start_s=60.0, name="dense-late"),
        replace(SPARSE_ATTACK, start_s=60.0, name="sparse-late"),
    ]
    schemes = ("Conv", "uDEB")
    reference = ScenarioSweep(
        SETUP,
        survival_grid_cells(scenarios, schemes, 180.0, backend="vectorized"),
    ).run()
    assert reference.ok, reference.failures
    batched = ScenarioSweep(
        SETUP,
        survival_grid_cells(scenarios, schemes, 180.0, backend="cohort"),
    ).run()
    assert batched.ok, batched.failures
    assert batched.metrics == reference.metrics
    lone = ScenarioSweep(
        SETUP,
        survival_grid_cells(
            scenarios[:1], schemes[:1], 180.0, backend="cohort"
        ),
    ).run()
    assert lone.ok, lone.failures
    assert lone.metrics[0] == reference.metrics[0]


@pytest.mark.parametrize(
    "error",
    [SimulationError("the cohort refused"), TypeError("a stacking defect")],
    ids=["repro-error-falls-back", "other-error-propagates"],
)
def test_sweep_cohort_batch_failure(monkeypatch, error) -> None:
    """A batch the cohort refuses (a ``ReproError``) falls back to the
    per-cell path with the same metrics; any other exception is a defect
    in the stacking and propagates instead of costing the batch."""
    attempts = []

    def failing(*args, **kwargs):
        attempts.append(args)
        raise error

    monkeypatch.setattr(
        "repro.experiments.sweep.run_survival_cohort", failing
    )
    dense = replace(DENSE_ATTACK, start_s=60.0, name="dense-late")
    cells = survival_grid_cells(
        [dense], ("Conv", "uDEB"), 120.0, backend="cohort"
    )
    sweep = ScenarioSweep(SETUP, cells, workers=0)
    if isinstance(error, TypeError):
        with pytest.raises(TypeError, match="a stacking defect"):
            sweep.run()
        return
    result = sweep.run()
    assert len(attempts) == 1
    assert result.ok, result.failures
    assert result.metrics == tuple(
        run_survival(
            SETUP, cell.scheme, cell.scenario, window_s=120.0
        ).survival_or_window()
        for cell in cells
    )
