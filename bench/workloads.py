"""The benchmark's four workloads, driven through the public API.

Each workload turns a seed into inputs (:meth:`build`), runs the timed
body once per pass (:meth:`run`), and owns a *reference path*: a slower
computation of the same outputs along a different execution path
(straight per-cell runs, exhaustive search, numpy kernels). Committed
references come from that path; :meth:`spot_check` re-runs a cheap
subset of it for seeds without one.

The seed picks the adversary (the attackers' node-acquisition seeds;
in ``search`` only the tuner's, see :class:`Search`) and, for
``drain``, a fixed per-machine utilisation offset. The data
center and its day-long trace stay at the paper's calibrated setup: a
different trace seed moves the operating point itself (some trip with
no attack at all), which changes what a workload exercises rather than
which inputs it sees.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.attack.placement import PduPlacement
from repro.attack.scenario import DENSE_ATTACK, SPARSE_ATTACK
from repro.config import DataCenterConfig
from repro.experiments.common import (
    SCHEME_ORDER,
    CohortMember,
    ExperimentSetup,
    run_survival,
    run_survival_cohort,
    standard_setup,
)
from repro.experiments.report import ARTIFACTS
from repro.experiments.sweep import ScenarioSweep, SweepCell
from repro.faults.spec import FaultPlan, TelemetryDropout
from repro.grid.spec import GridPlan, VoltageSag
from repro.kernels import resolve_kernels
from repro.search.frontier import FrontierSearch
from repro.search.space import AttackSpace
from repro.search.tuner import DefenseSpace, DefenseTuner
from repro.workload.cluster import ClusterModel
from repro.workload.trace import UtilizationTrace

__all__ = ["WORKLOADS", "Outcome", "normalise"]

ROOT = Path(__file__).resolve().parents[1]
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass
class Outcome:
    """One pass's results.

    Attributes:
        outputs: Operation key -> JSON-ready result (``None`` when the
            operation raised or the library reported it failed).
        errors: Operation key -> error text for those operations.
    """

    outputs: "dict[str, object]"
    errors: "dict[str, str]" = field(default_factory=dict)


def normalise(value):
    """``value`` as JSON would round-trip it (tuples become lists)."""
    return json.loads(json.dumps(value))


def exact_mismatches(outputs: dict, reference: dict) -> "dict[str, str]":
    """Keys whose output differs from the reference, with a reason."""
    bad = {}
    for key in sorted(set(outputs) | set(reference)):
        if key not in reference:
            bad[key] = "no reference for this operation"
        elif key not in outputs:
            bad[key] = "operation missing from the run"
        elif outputs[key] != reference[key]:
            bad[key] = f"got {outputs[key]!r}, reference {reference[key]!r}"
    return bad


class Workload:
    """Defaults shared by the workloads; see the module docstring."""

    name = ""

    def prepare(self, inputs) -> None:
        """Lazy set-up the timed passes should not pay for."""

    def committed_reference(self, inputs, seed: int) -> "dict | None":
        return load_reference(self.name, seed)

    def check(self, outputs: dict, reference: dict) -> "dict[str, str]":
        return exact_mismatches(outputs, reference)

    def spot_check(self, inputs, outputs: dict, seed: int) -> "dict[str, str]":
        return {}


class Paper(Workload):
    """Every paper artifact through ``module.main()``, checked against
    the committed EXPERIMENTS.md. The artifacts fix their own seeds."""

    name = "paper"
    #: The artifacts that finish in well under a second, for ``--smoke``.
    SMOKE = ("Fig. 6", "Fig. 7", "Fig. 14", "Fig. 17")

    def build(self, seed: int, smoke: bool):
        return [
            (artifact_id, module)
            for artifact_id, module, _claim in ARTIFACTS
            if not smoke or artifact_id in self.SMOKE
        ]

    def run(self, inputs) -> Outcome:
        outcome = Outcome(outputs={})
        for artifact_id, module in inputs:
            buffer = io.StringIO()
            try:
                with redirect_stdout(buffer):
                    module.main()
            except Exception as exc:  # one artifact failing is one failed op
                outcome.outputs[artifact_id] = None
                outcome.errors[artifact_id] = f"{type(exc).__name__}: {exc}"
                continue
            outcome.outputs[artifact_id] = buffer.getvalue().rstrip()
        return outcome

    def committed_reference(self, inputs, seed: int) -> "dict | None":
        text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        sections = {}
        for artifact_id, _module in inputs:
            head = text.index(f"\n## {artifact_id}\n")
            start = text.index("```\n", head) + 4
            sections[artifact_id] = text[start:text.index("\n```", start)]
        return sections

    def reference(self, inputs) -> dict:
        return self.committed_reference(inputs, 0)


@dataclass(frozen=True)
class SweepInputs:
    setup: ExperimentSetup
    cells: "tuple[SweepCell, ...]"


def _cell_key(cell: SweepCell) -> str:
    return f"{cell.row}/{cell.column}"


class Sweep(Workload):
    """The README's cohort sweep recipe with prefix sharing, plus a
    voltage-sag row (cohort) and telemetry-dropout rows (per-cell forks
    from shared-prefix snapshots)."""

    name = "sweep"

    def build(self, seed: int, smoke: bool) -> SweepInputs:
        setup = standard_setup()
        t0 = setup.attack_time_s
        window, onset = (600.0, 300.0) if smoke else (2400.0, 2100.0)
        schemes = ("PS", "PAD") if smoke else SCHEME_ORDER
        attack_seeds = (seed + 4,) if smoke else (seed + 4, seed + 8)
        dense = replace(DENSE_ATTACK, start_s=onset, name="dense-late")
        sparse = replace(SPARSE_ATTACK, start_s=onset, name="sparse-late")
        dense4 = replace(
            DENSE_ATTACK.with_nodes(4), start_s=onset + 60.0,
            name="dense4-later",
        )
        sag = GridPlan(specs=(VoltageSag(
            start_s=t0 + onset - 50.0, end_s=t0 + onset + 250.0, depth=0.2,
            racks=(4, 5, 6),
        ),))
        dropout = FaultPlan(specs=(TelemetryDropout(
            start_s=t0 + onset - 100.0, end_s=t0 + onset + 200.0,
            racks=(4, 5, 6),
        ),))

        def cell(row, scheme, scenario, attack_seed, **extra) -> SweepCell:
            return SweepCell(
                row=f"{row}/s{attack_seed}", column=scheme, scheme=scheme,
                scenario=scenario, window_s=window, seed=attack_seed, **extra,
            )

        cells = [
            cell(scenario.name, scheme, scenario, attack_seed, backend="cohort")
            for scenario in (dense, sparse, dense4)
            for attack_seed in attack_seeds
            for scheme in schemes
        ]
        cells += [
            cell("dense-late+sag", scheme, dense, attack_seeds[0],
                 backend="cohort", grid_plan=sag)
            for scheme in schemes
        ]
        cells += [
            cell(f"{scenario.name}+dropout", scheme, scenario,
                 attack_seeds[0], fault_plan=dropout)
            for scenario in (dense, sparse)
            for scheme in schemes
        ]
        return SweepInputs(setup=setup, cells=tuple(cells))

    def run(self, inputs: SweepInputs) -> Outcome:
        result = ScenarioSweep(
            inputs.setup, inputs.cells, share_prefixes=True
        ).run()
        failed = {failure.index: failure.error for failure in result.failures}
        outcome = Outcome(outputs={})
        for index, (cell, metric) in enumerate(result.by_cell()):
            key = _cell_key(cell)
            if index in failed:
                outcome.outputs[key] = None
                outcome.errors[key] = failed[index]
            else:
                outcome.outputs[key] = metric
        return outcome

    def _straight(self, inputs: SweepInputs, cell: SweepCell) -> float:
        return run_survival(
            inputs.setup, cell.scheme, cell.scenario, window_s=cell.window_s,
            dt=cell.dt, seed=cell.seed, backend="vectorized",
            fault_plan=cell.fault_plan, grid_plan=cell.grid_plan,
        ).survival_or_window()

    def reference(self, inputs: SweepInputs) -> dict:
        """Every cell as a straight vectorized ``run_survival``."""
        return {
            _cell_key(cell): self._straight(inputs, cell)
            for cell in inputs.cells
        }

    def spot_check(self, inputs, outputs: dict, seed: int) -> "dict[str, str]":
        """One straight cell from each part: cohort, sag, dropout."""
        parts: "dict[tuple, list[SweepCell]]" = {}
        for cell in inputs.cells:
            part = (cell.grid_plan is not None, cell.fault_plan is not None)
            parts.setdefault(part, []).append(cell)
        chosen = [cells[seed % len(cells)] for cells in parts.values()]
        return exact_mismatches(
            {_cell_key(c): outputs.get(_cell_key(c)) for c in chosen},
            {_cell_key(c): self._straight(inputs, c) for c in chosen},
        )


@dataclass(frozen=True)
class SearchInputs:
    setup: ExperimentSetup
    space: AttackSpace
    window_s: float
    tuner_space: AttackSpace
    defense: DefenseSpace


class Search(Workload):
    """A pruned worst-case frontier search, then a uDEB capacity tune.

    The frontier's space is fixed: its cost turns on the attackers'
    lottery (about one draw in six puts every worst case past the probe
    horizons, so nothing is pruned and the pass takes three times as
    long), which would make the seed, not the code, set the time. The
    seed picks the tuner's two adversaries instead.
    """

    name = "search"
    SCHEME = "uDEB"
    TARGET_S = 267.0
    TUNER_WINDOW_S = 600.0

    def build(self, seed: int, smoke: bool) -> SearchInputs:
        setup = standard_setup()
        striped = PduPlacement(mode="striped")
        if smoke:
            space = AttackSpace(
                onsets_s=(100.0,), widths_s=(2.0, 4.0), rates_per_min=(6.0,),
                node_counts=(3,), placements=(None, striped),
            )
            window, capacities = 600.0, (0.02, 0.5)
        else:
            space = AttackSpace(
                widths_s=(1.0, 2.0, 4.0), rates_per_min=(2.0, 6.0),
                node_counts=(3, 6), placements=(None, striped),
            )
            window, capacities = 2400.0, (0.5, 0.02, 2.0)
        return SearchInputs(
            setup=setup,
            space=space,
            window_s=window,
            tuner_space=AttackSpace(
                widths_s=(4.0,), rates_per_min=(6.0,), node_counts=(10,),
                seeds=(seed + 4, seed + 8),
            ),
            defense=DefenseSpace(udeb_capacities_wh=capacities),
        )

    def _frontier(self, inputs: SearchInputs, **options):
        return FrontierSearch(
            inputs.setup, inputs.space, self.SCHEME, window_s=inputs.window_s,
            **options,
        ).run()

    def _tune(self, inputs: SearchInputs, **options):
        return DefenseTuner(
            inputs.setup, inputs.tuner_space, inputs.defense, self.SCHEME,
            self.TARGET_S, window_s=self.TUNER_WINDOW_S, **options,
        ).run()

    @staticmethod
    def _tuning_summary(result) -> list:
        return [
            None if result.best is None else result.best.label(),
            [[t.knobs.label(), t.met_target] for t in result.trials],
        ]

    def run(self, inputs: SearchInputs) -> Outcome:
        frontier = self._frontier(inputs)
        outputs: "dict[str, object]" = {
            o.key: [o.status, o.survival_s] for o in frontier.outcomes
        }
        outputs["tuner"] = self._tuning_summary(self._tune(inputs))
        return Outcome(outputs=outputs)

    def reference(self, inputs: SearchInputs) -> dict:
        """Exhaustive search and tuning: no probes, no cohort batching."""
        exhaustive = self._frontier(
            inputs, probe_fractions=(), use_cohort=False
        )
        reference: "dict[str, object]" = exhaustive.exact_metrics()
        reference["tuner"] = self._tuning_summary(
            self._tune(inputs, probe_fractions=(), use_cohort=False)
        )
        return reference

    def check(self, outputs: dict, reference: dict) -> "dict[str, str]":
        """Exact candidates must match; pruned ones must have been sound.

        A pruned candidate's bound must not exceed its exhaustive metric
        and must exceed the exhaustive worst case — together with the
        exact checks that pins the frontier value and its argmin set.
        """
        exact = {k: v for k, v in reference.items() if k != "tuner"}
        worst = min(exact.values())
        bad = {}
        for key in sorted(set(outputs) | set(reference)):
            got, want = outputs.get(key), reference.get(key)
            if key not in reference or key not in outputs:
                bad[key] = "operation missing from the run or reference"
            elif key == "tuner":
                if got != want:
                    bad[key] = f"got {got!r}, reference {want!r}"
            elif got is None:
                bad[key] = "no result"
            elif got[0] == "exact" and got[1] != want:
                bad[key] = f"exact {got[1]!r}, reference {want!r}"
            elif got[0] == "pruned" and not worst < got[1] <= want:
                bad[key] = (
                    f"pruned on bound {got[1]!r}: reference {want!r}, "
                    f"worst case {worst!r}"
                )
        return bad

    def spot_check(self, inputs, outputs: dict, seed: int) -> "dict[str, str]":
        """Re-run the argmin candidates straight over the full window."""
        by_key = {c.key(): c for c in inputs.space.candidates()}
        exact = {
            k: v[1] for k, v in outputs.items()
            if k != "tuner" and v is not None and v[0] == "exact"
        }
        worst = min(exact.values())
        argmin = [k for k, v in exact.items() if v == worst]
        bad = {}
        for key in argmin:
            candidate = by_key[key]
            straight = run_survival(
                inputs.setup, self.SCHEME, candidate.scenario(),
                window_s=inputs.window_s, seed=candidate.seed,
                grid_plan=candidate.grid,
            ).survival_or_window()
            if straight != worst:
                bad[key] = f"straight run {straight!r}, search {worst!r}"
        for key, value in outputs.items():
            if key != "tuner" and value is not None and value[1] < worst:
                bad[key] = f"{value!r} below the reported worst case {worst!r}"
        return bad


@dataclass(frozen=True)
class DrainInputs:
    setups: "dict[float, ExperimentSetup]"
    members: "tuple[CohortMember, ...]"
    window_s: float


class Drain(Workload):
    """The paper's Phase-I sustained overload on the compiled kernels.

    Flat utilisation: 0.55 stays within budget (the cohort freeze
    tier), 0.61-0.65 overload slightly so batteries drain steadily (the
    steady-drain tier and its ``drain_block`` kernel), and at 0.70 the
    batteries run out, so the PS and uDEB cells trip.
    """

    name = "drain"
    LEVELS = (0.55, 0.61, 0.62, 0.63, 0.64, 0.65, 0.70)
    #: Half-width of the seed's fixed per-machine utilisation offset.
    JITTER = 0.005

    def build(self, seed: int, smoke: bool) -> DrainInputs:
        config = DataCenterConfig(seed=seed)
        machines = ClusterModel(config.cluster).servers
        offsets = np.random.default_rng(seed).uniform(
            -self.JITTER, self.JITTER, machines
        )
        levels = (0.55, 0.63) if smoke else self.LEVELS
        schemes = ("PS", "uDEB") if smoke else ("PS", "PSPC", "uDEB")
        width = 2 if smoke else 4
        return DrainInputs(
            setups={
                level: ExperimentSetup(
                    config=config,
                    trace=UtilizationTrace(
                        np.tile(level + offsets, (200, 1)), interval_s=300.0
                    ),
                    attack_time_s=600.0,
                )
                for level in levels
            },
            members=tuple(
                CohortMember(scheme=scheme, scenario=None)
                for scheme in schemes
                for _ in range(width)
            ),
            window_s=600.0 if smoke else 3600.0,
        )

    def prepare(self, inputs) -> None:
        resolve_kernels("compiled")  # loads (or builds) the provider

    def _level(self, inputs: DrainInputs, level: float, kernels: str) -> dict:
        results = run_survival_cohort(
            inputs.setups[level], list(inputs.members),
            window_s=inputs.window_s, kernels=kernels,
        )
        return {
            f"{level}/{member.scheme}/{index}": [
                result.survival_or_window(),
                result.delivered_work,
                result.demanded_work,
                [trip.time_s for trip in result.trips],
            ]
            for index, (member, result) in enumerate(
                zip(inputs.members, results)
            )
        }

    def run(self, inputs: DrainInputs) -> Outcome:
        outcome = Outcome(outputs={})
        for level in inputs.setups:
            outcome.outputs.update(self._level(inputs, level, "compiled"))
        return outcome

    def reference(self, inputs: DrainInputs) -> dict:
        """The same cohorts on the numpy kernels."""
        reference: dict = {}
        for level in inputs.setups:
            reference.update(self._level(inputs, level, "numpy"))
        return reference

    def spot_check(self, inputs, outputs: dict, seed: int) -> "dict[str, str]":
        """One utilisation level on the numpy kernels."""
        levels = list(inputs.setups)
        want = normalise(
            self._level(inputs, levels[seed % len(levels)], "numpy")
        )
        return exact_mismatches({k: outputs.get(k) for k in want}, want)


def reference_path(name: str, seed: int) -> Path:
    return REFERENCE_DIR / f"{name}-seed{seed}.json"


def load_reference(name: str, seed: int) -> "dict | None":
    path = reference_path(name, seed)
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))["outputs"]


WORKLOADS = {w.name: w for w in (Paper(), Sweep(), Search(), Drain())}
