"""Outside-in span tracer for the benchmark's per-layer metrics.

The tracer never edits the library. :meth:`Tracer.install` wraps the
public entry point of each layer — a module-level function, or a method
on the class that defines it — and rebinds the wrapper everywhere a
loaded module holds the original, so ``from .common import
run_survival`` copies in other modules are traced too. Every wrapped
call is a span. Spans nest along the call stack, and a span's *self*
time is its duration minus the durations of the wrapped spans directly
under it. Aggregates are kept in memory, per span name and per
parent -> child edge, and read out once the run ends.

Objects built before :meth:`Tracer.install` keep the bound methods they
captured (the simulation pipeline binds its stages at construction), so
install before building any workload input.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, Iterator

__all__ = ["PER_LAYER", "Tracer", "per_layer_metrics"]


# Counter hooks: ``hook(tracer, args, kwargs, result, self_s)`` runs after
# a wrapped call returns.


def _observe_members(tracer, args, kwargs, _result, _self_s) -> None:
    members = kwargs.get("members", args[1] if len(args) > 1 else ())
    tracer.counters["experiments.run_survival_cohort.members"] += len(members)


def _observe_fast_forward(tracer, _args, _kwargs, skipped, _self_s) -> None:
    if skipped:
        tracer.counters["sim.fast_forward.jumps"] += 1
        tracer.counters["sim.fast_forward.steps_skipped"] += skipped


def _observe_scheme(tracer, args, _kwargs, _result, self_s) -> None:
    # Dispatch self time, split by the scheme that ran it.
    record = tracer.spans[f"defense.{args[0].name}"]
    record[0] += 1
    record[2] += self_s


def _observe_frontier(tracer, _args, _kwargs, result, _self_s) -> None:
    counters = tracer.counters
    counters["search.candidates"] += len(result.outcomes)
    counters["search.pruned"] += sum(
        o.status == "pruned" for o in result.outcomes
    )
    counters["search.cells_run"] += result.cells_run
    counters["search.early_stopped"] += int(result.early_stopped)


def _observe_ticks(tracer, _args, _kwargs, completed, _self_s) -> None:
    tracer.counters["kernels.drain_block.ticks"] += int(completed)


#: ``(span name, target, options)``. A target is ``module:function`` or
#: ``module:Class.method``; several targets may share one span name
#: (a subclass override, or sibling entry points of one layer).
#: ``produces`` marks calls returning ``SimResult``s (``sim.cell_seconds``
#: counts them once, at the outermost such call); ``observe`` is a
#: counter hook.
_TARGETS: "tuple[tuple[str, str, dict], ...]" = (
    # experiments: the paper artifacts and the survival entry points
    *(
        (f"experiments.artifact.{tag}", f"repro.experiments.{module}:main", {})
        for tag, module in (
            ("fig05", "fig05_soc_variation"),
            ("fig06", "fig06_two_phase"),
            ("fig07", "fig07_effective_attack"),
            ("fig08", "fig08_attack_stats"),
            ("table1", "table1_detection"),
            ("fig13", "fig13_deb_map"),
            ("fig14", "fig14_shedding"),
            ("fig15", "fig15_survival"),
            ("fig16", "fig16_throughput"),
            ("fig17", "fig17_cost"),
        )
    ),
    ("experiments.run_survival",
     "repro.experiments.common:run_survival", {"produces": True}),
    ("experiments.run_throughput",
     "repro.experiments.common:run_throughput", {"produces": True}),
    ("experiments.run_survival_cohort",
     "repro.experiments.common:run_survival_cohort",
     {"produces": True, "observe": _observe_members}),
    ("experiments.prepare_survival_prefix",
     "repro.experiments.common:prepare_survival_prefix", {}),
    ("experiments.resume_survival_from_snapshot",
     "repro.experiments.common:resume_survival_from_snapshot",
     {"produces": True}),
    ("experiments.execute_cell", "repro.experiments.sweep:execute_cell", {}),
    ("attack.build_attacker", "repro.experiments.common:build_attacker", {}),
    # sim: runs, snapshots and the six pipeline stages
    ("sim.run_segments",
     "repro.sim.datacenter:DataCenterSimulation.run_segments",
     {"produces": True}),
    ("sim.run_segments",
     "repro.sim.datacenter:DataCenterSimulation.resume_segments",
     {"produces": True}),
    ("sim.run_cohort", "repro.sim.cohort:CohortSimulation.run_cohort",
     {"produces": True}),
    ("sim.run_cohort_expanded", "repro.sim.cohort:run_cohort_expanded",
     {"produces": True}),
    ("sim.snapshot", "repro.sim.datacenter:DataCenterSimulation.snapshot", {}),
    ("sim.restore", "repro.sim.datacenter:DataCenterSimulation.restore", {}),
    ("sim.truncate_snapshot_schedule",
     "repro.sim.datacenter:truncate_snapshot_schedule", {}),
    *(
        (f"sim.stage_{stage}", f"{module}.stage_{stage}", {})
        for stage, module in (
            ("workload", "repro.sim.datacenter:DataCenterSimulation"),
            ("attack", "repro.sim.datacenter:DataCenterSimulation"),
            ("attack", "repro.sim.cohort:CohortSimulation"),
            ("demand", "repro.sim.datacenter:DataCenterSimulation"),
            ("demand", "repro.sim.cohort:CohortSimulation"),
            ("defense", "repro.sim.datacenter:DataCenterSimulation"),
            ("defense", "repro.sim.cohort:CohortSimulation"),
            ("protection", "repro.sim.datacenter:DataCenterSimulation"),
            ("accounting", "repro.sim.datacenter:DataCenterSimulation"),
            ("accounting", "repro.sim.cohort:CohortSimulation"),
            ("grid_cells", "repro.sim.cohort:CohortSimulation"),
        )
    ),
    ("faults.stage_faults", "repro.faults.injector:FaultInjector.stage_faults",
     {}),
    ("grid.stage_grid", "repro.grid.injector:GridInjector.stage_grid", {}),
    *(
        ("sim.recorder.append", f"repro.sim.recorder:Recorder.{method}", {})
        for method in ("append", "append_vector", "append_row", "append_block")
    ),
    ("sim.fast_forward.begin_step",
     "repro.sim.fastforward:SegmentFastForward.begin_step",
     {"observe": _observe_fast_forward}),
    # defense and the paper's core mechanisms
    ("defense.dispatch", "repro.defense.base:DefenseScheme.dispatch",
     {"observe": _observe_scheme}),
    ("core.vdeb_allocate", "repro.core.vdeb:VdebController.allocate", {}),
    ("core.shedder_update", "repro.core.shedding:LoadShedder.update", {}),
    ("core.policy_update", "repro.core.policy:HierarchicalPolicy.update", {}),
    ("core.udeb_shave", "repro.core.udeb:UdebShaver.shave", {}),
    ("core.udeb_shave", "repro.core.udeb:VectorUdebShaver.shave", {}),
    # physics
    ("battery.fleet_step",
     "repro.battery.fleet_kernels:VectorBatteryFleet.step", {}),
    ("battery.fleet_step", "repro.battery.fleet:BatteryFleet.step", {}),
    ("battery.kibam_step",
     "repro.battery.fleet_kernels:KiBaMFleetState.step", {}),
    ("power.breaker_step",
     "repro.power.breaker_kernels:BreakerBankState.step", {}),
    ("power.breaker_step",
     "repro.power.breaker_kernels:CompiledBreakerBank.step", {}),
    ("power.breaker_step",
     "repro.power.breaker_kernels:ScalarBreakerBank.step", {}),
    # workload and attacker
    ("workload.generate_trace", "repro.workload.synthetic:generate_trace", {}),
    ("workload.trace_at", "repro.workload.trace:UtilizationTrace.at", {}),
    ("workload.rack_power", "repro.workload.cluster:ClusterModel.rack_power",
     {}),
    ("workload.work_snapshot",
     "repro.workload.cluster:ClusterModel.work_snapshot", {}),
    ("attack.overrides",
     "repro.attack.attacker:Attacker.utilisation_overrides", {}),
    # search
    ("search.frontier", "repro.search.frontier:FrontierSearch.run",
     {"observe": _observe_frontier}),
    ("search.tuner", "repro.search.tuner:DefenseTuner.run", {}),
)

#: Compiled kernels live in the provider's namespace object, not a module.
_KERNELS = ("fused_dispatch", "drain_block", "breaker_step")

_SCHEMES = ("Conv", "PS", "PSPC", "uDEB", "vDEB", "PAD")
_ARTIFACTS = (
    "fig05", "fig06", "fig07", "fig08", "table1",
    "fig13", "fig14", "fig15", "fig16", "fig17",
)


def _per_layer_table() -> "list[tuple[str, str, str, str, str]]":
    """``(metric, unit, better, kind, key)`` for every per-layer metric.

    ``kind`` is ``calls``/``total``/``self`` of span ``key``, or
    ``counter`` for a counter key.
    """
    rows: "list[tuple[str, str, str, str, str]]" = []

    def span(name: str, *kinds: str) -> None:
        for kind in kinds:
            suffix = {"calls": "calls", "total": "total_s", "self": "self_s"}
            unit = "count" if kind == "calls" else "s"
            rows.append((f"{name}.{suffix[kind]}", unit, "lower", kind, name))

    def counter(name: str, unit: str, better: str) -> None:
        rows.append((name, unit, better, "counter", name))

    for tag in _ARTIFACTS:
        span(f"experiments.artifact.{tag}", "total")
    for name in (
        "run_survival", "run_throughput", "run_survival_cohort",
        "prepare_survival_prefix", "resume_survival_from_snapshot",
    ):
        span(f"experiments.{name}", "calls", "total")
    counter("experiments.run_survival_cohort.members", "count", "higher")
    span("experiments.execute_cell", "calls")
    counter("experiments.cohort_batch_errors", "count", "lower")
    for stage in (
        "workload", "attack", "demand", "defense", "protection", "accounting",
    ):
        span(f"sim.stage_{stage}", "calls", "self")
    span("sim.stage_grid_cells", "self")
    span("faults.stage_faults", "self")
    span("grid.stage_grid", "self")
    counter("sim.cell_seconds", "sim_s", "higher")
    counter("sim.cell_seconds_per_step", "sim_s/step", "higher")
    span("sim.run_cohort", "calls", "total")
    span("sim.run_cohort_expanded", "calls", "total")
    span("sim.snapshot", "calls", "total")
    span("sim.restore", "calls", "total")
    span("sim.truncate_snapshot_schedule", "calls")
    span("sim.recorder.append", "calls", "self")
    counter("sim.fast_forward.jumps", "count", "higher")
    counter("sim.fast_forward.steps_skipped", "count", "higher")
    span("defense.dispatch", "calls", "self")
    for scheme in _SCHEMES:
        span(f"defense.{scheme}", "self")
    for name in ("vdeb_allocate", "shedder_update", "policy_update",
                 "udeb_shave"):
        span(f"core.{name}", "self")
    span("battery.fleet_step", "calls", "self")
    span("battery.kibam_step", "self")
    span("power.breaker_step", "calls", "self")
    for name in _KERNELS:
        span(f"kernels.{name}", "calls", "self")
    counter("kernels.drain_block.ticks", "count", "higher")
    span("workload.generate_trace", "total")
    for name in ("trace_at", "rack_power", "work_snapshot"):
        span(f"workload.{name}", "self")
    span("attack.overrides", "self")
    span("attack.build_attacker", "calls")
    span("search.frontier", "calls", "total")
    span("search.tuner", "total")
    counter("search.candidates", "count", "higher")
    counter("search.pruned", "count", "higher")
    counter("search.cells_run", "count", "lower")
    counter("search.early_stopped", "count", "higher")
    counter("search.pruned_fraction", "fraction", "higher")
    counter("search.cells_per_candidate", "cells/cand", "lower")
    counter("bench.trace_overhead_s", "s", "lower")
    return rows


#: Every per-layer metric the traced run reports: ``(name, unit, better)``.
PER_LAYER: "tuple[tuple[str, str, str], ...]" = tuple(
    (name, unit, better) for name, unit, better, _, _ in _per_layer_table()
)


class Tracer:
    """Aggregating span tracer; see the module docstring.

    Args:
        clock: Monotonic clock in seconds (a fake one in the self-test).
    """

    def __init__(self, clock: "Callable[[], float]" = time.perf_counter) -> None:
        self._clock = clock
        self._stack: "list[list]" = []  # [name, child seconds]
        #: span name -> [calls, total seconds, self seconds]
        self.spans: "dict[str, list[float]]" = defaultdict(lambda: [0, 0.0, 0.0])
        #: (parent, child) -> [calls, total seconds]
        self.edges: "dict[tuple[str, str], list[float]]" = defaultdict(
            lambda: [0, 0.0]
        )
        self.counters: "dict[str, float]" = defaultdict(float)
        self._producing = 0
        self._restore: "list[tuple[object, str, object]]" = []

    # ------------------------------------------------------------------ #
    # Spans                                                               #
    # ------------------------------------------------------------------ #

    def wrap(
        self,
        name: str,
        fn: Callable,
        produces: bool = False,
        observe: "Callable | None" = None,
    ) -> Callable:
        """``fn`` recording one span named ``name`` per call.

        A call made directly inside a span of the same name (a subclass
        override delegating to ``super()``, ``append_row`` looping over
        ``append``) joins the outer span instead of opening a new one.
        Exceptions count under ``<name>.errors`` and propagate.
        """
        stack = self._stack
        clock = self._clock
        spans = self.spans
        edges = self.edges
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            if produces:
                self._producing += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counters[f"{name}.errors"] += 1
                raise
            finally:
                total = clock() - start
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += total
                record = spans[name]
                record[0] += 1
                record[1] += total
                record[2] += total - frame[1]
                edge = edges[(parent[0] if parent else "", name)]
                edge[0] += 1
                edge[1] += total
                if produces:
                    self._producing -= 1
            if produces and self._producing == 0:
                self._count_cell_seconds(result)
            if observe is not None:
                observe(self, args, kwargs, result, total - frame[1])
            return result

        return traced

    def _count_cell_seconds(self, result) -> None:
        results = result if isinstance(result, list) else [result]
        self.counters["sim.cell_seconds"] += sum(
            r.end_s - r.start_s for r in results
        )

    def calls(self, name: str) -> int:
        return int(self.spans[name][0]) if name in self.spans else 0

    def total_s(self, name: str) -> float:
        return self.spans[name][1] if name in self.spans else 0.0

    def self_s(self, name: str) -> float:
        return self.spans[name][2] if name in self.spans else 0.0

    # ------------------------------------------------------------------ #
    # Installation                                                        #
    # ------------------------------------------------------------------ #

    def install(self) -> "Tracer":
        """Wrap every target in :data:`_TARGETS` and the loaded kernels."""
        for name, target, options in _TARGETS:
            module_name, _, qualname = target.partition(":")
            module = importlib.import_module(module_name)
            observe = options.get("observe")
            produces = options.get("produces", False)
            if "." in qualname:
                class_name, method = qualname.split(".")
                owner = getattr(module, class_name)
                raw = owner.__dict__[method]
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(
                        self.wrap(name, raw.__func__, produces, observe)
                    )
                else:
                    wrapped = self.wrap(name, raw, produces, observe)
                self._rebind(owner, method, wrapped)
            else:
                original = getattr(module, qualname)
                wrapped = self.wrap(name, original, produces, observe)
                for holder, attr in _bindings(original):
                    self._rebind(holder, attr, wrapped)
        from repro.kernels import get_kernels

        namespace = get_kernels()
        if namespace is not None:
            for kernel in _KERNELS:
                observe = _observe_ticks if kernel == "drain_block" else None
                self._rebind(
                    namespace,
                    kernel,
                    self.wrap(
                        f"kernels.{kernel}",
                        getattr(namespace, kernel),
                        observe=observe,
                    ),
                )
        return self

    def _rebind(self, holder: object, attr: str, value: object) -> None:
        original = holder.__dict__[attr] if isinstance(holder, type) else (
            getattr(holder, attr)
        )
        self._restore.append((holder, attr, original))
        setattr(holder, attr, value)

    def uninstall(self) -> None:
        """Put every original binding back."""
        while self._restore:
            holder, attr, original = self._restore.pop()
            setattr(holder, attr, original)


def _bindings(original: object) -> "Iterator[tuple[object, str]]":
    """Every loaded module's attribute bound to ``original``.

    Covers the library's own re-exports and the benchmark's imports.
    """
    for module in list(sys.modules.values()):
        if module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                yield module, attr


def per_layer_metrics(
    tracer: Tracer, trace_overhead_s: float
) -> "dict[str, dict[str, float | str]]":
    """Every :data:`PER_LAYER` metric from a finished traced run."""
    counters = dict(tracer.counters)
    counters["experiments.cohort_batch_errors"] = counters.get(
        "experiments.run_survival_cohort.errors", 0.0
    )
    steps = tracer.calls("sim.stage_workload")
    counters["sim.cell_seconds_per_step"] = (
        counters.get("sim.cell_seconds", 0.0) / steps if steps else 0.0
    )
    candidates = counters.get("search.candidates", 0.0)
    counters["search.pruned_fraction"] = (
        counters.get("search.pruned", 0.0) / candidates if candidates else 0.0
    )
    counters["search.cells_per_candidate"] = (
        counters.get("search.cells_run", 0.0) / candidates
        if candidates else 0.0
    )
    counters["bench.trace_overhead_s"] = trace_overhead_s
    readers = {
        "calls": tracer.calls,
        "total": tracer.total_s,
        "self": tracer.self_s,
        "counter": lambda key: counters.get(key, 0.0),
    }
    return {
        metric: {"value": readers[kind](key), "unit": unit}
        for metric, unit, _better, kind, key in _per_layer_table()
    }
