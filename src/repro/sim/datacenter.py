"""The trace-driven data-center simulation (paper Fig. 11-B).

Wires every substrate together: the workload trace drives per-machine
utilisation; the attacker overrides its captured nodes; the cluster model
turns utilisation into rack power; the active defense scheme moves battery
and supercap energy; breakers integrate the resulting utility draw; and
the metrics layer records overloads, trips, throughput and SOC maps.

Each step runs an explicit pipeline of stages —

    workload -> attacker overrides -> power demand -> defense dispatch
             -> protection/breakers -> accounting

— each an individually testable method operating on a shared
:class:`StepContext`. Occurrences (overloads, trips, policy escalations,
shedding, vDEB reassignments, capping flips) are published as typed
:class:`~repro.sim.events.SimEvent` objects on the simulation's
:class:`~repro.sim.events.EventBus`; :class:`SimResult` collects them
through subscriptions rather than ad-hoc list appends.

Timing follows the paper's two-scale structure: month-long background runs
step at the trace interval, attack windows step at sub-second resolution.
One call can mix both — see :meth:`DataCenterSimulation.run_segments` and
:class:`~repro.sim.runner.Runner`.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..attack.attacker import Attacker
from ..config import DataCenterConfig
from ..errors import SimulationError
from ..faults.spec import FaultPlan
from ..grid.spec import GridPlan
from ..power.breaker import TripEvent
from ..kernels import resolve_kernels
from ..power.breaker_kernels import make_breaker_bank
from ..power.topology import compile_topology, pdu_breaker_id
from ..workload.cluster import ClusterModel
from ..workload.trace import UtilizationTrace
from ..defense.base import DefenseScheme, Dispatch, SchemeContext, StepState
from .engine import Engine, RunResult
from .events import (
    BreakerTripped,
    EventBus,
    FaultEvent,
    FaultInjected,
    GridEvent,
    OverloadEvent,
    SimEvent,
)
from .fastforward import FastForwardStats, SegmentFastForward
from .recorder import Recorder
from .runner import AttackWindow, Segment

__all__ = [
    "DataCenterSimulation",
    "OverloadEvent",
    "SimResult",
    "SimSnapshot",
    "StepContext",
    "truncate_snapshot_schedule",
]

#: Format version of :class:`SimSnapshot` payloads. Bumped whenever the
#: pickled object graph changes incompatibly.
SNAPSHOT_VERSION = 1


@dataclass(frozen=True)
class SimSnapshot:
    """A versioned, self-contained checkpoint of a whole simulation.

    The payload is a pickle of the :class:`DataCenterSimulation` object
    graph — physics, control state, meters, sensors, RNG streams, the
    paused run cursor and its partial result. Snapshots are plain bytes,
    so they ship through process pools and journals unchanged.

    Attributes:
        version: Payload format version (see :data:`SNAPSHOT_VERSION`).
        payload: The pickled simulation.
    """

    version: int
    payload: bytes


@dataclass
class _PausedRun:
    """Cursor of a run paused by :meth:`DataCenterSimulation.run_prefix`.

    Attributes:
        schedule: The full validated segment schedule.
        segment_index: Index of the segment to resume into (equal to
            ``len(schedule)`` when the prefix consumed everything).
        steps_done: Steps already executed inside that segment.
        result: The partially accumulated run result.
    """

    schedule: "tuple[Segment, ...]"
    segment_index: int
    steps_done: int
    result: "SimResult"


@dataclass
class SimResult:
    """Everything a run produced.

    Attributes:
        scheme: Name of the defense scheme evaluated.
        start_s: Run start time.
        end_s: Run end time (early if stopped on a trip).
        attack_start_s: When the attacker engaged, if any.
        overloads: Effective-attack events, in time order.
        trips: Breaker trips, in time order.
        events: The full typed event stream of the run, in publication
            order (overloads, trips, policy escalations, shedding, vDEB
            reassignments, capping flips, fault edges).
        faults: Fault-injection edges (:class:`FaultInjected` /
            :class:`FaultCleared`) in publication order — the per-fault
            accounting for degraded-mode runs.
        grid: Grid-disturbance occurrences (window edges from the
            injector plus the schemes' ride-through/reserve
            transitions) in publication order.
        delivered_work: Integrated delivered throughput (machine-seconds).
        demanded_work: Integrated demanded throughput (machine-seconds).
        recorder: Step-aligned time series.
    """

    scheme: str
    start_s: float
    end_s: float
    attack_start_s: "float | None"
    overloads: "list[OverloadEvent]" = field(default_factory=list)
    trips: "list[TripEvent]" = field(default_factory=list)
    events: "list[SimEvent]" = field(default_factory=list)
    faults: "list[FaultEvent]" = field(default_factory=list)
    grid: "list[GridEvent]" = field(default_factory=list)
    delivered_work: float = 0.0
    demanded_work: float = 0.0
    recorder: Recorder = field(default_factory=Recorder)

    @property
    def survival_time_s(self) -> "float | None":
        """Attack start to first breaker trip; ``None`` when censored.

        This is the paper's headline metric ("from the beginning of the
        attack to the time the first overload happens"). Trips that
        pre-date the attack (background overloads during a lead-in
        segment) do not count against the attacker. A run that ends with
        no qualifying trip survived the whole window — report the
        censored value via :meth:`survival_or_window`.
        """
        if self.attack_start_s is None:
            return None
        for trip in self.trips:
            if trip.time_s >= self.attack_start_s:
                return trip.time_s - self.attack_start_s
        return None

    def survival_or_window(self) -> float:
        """Survival time, or the full attack window when censored."""
        survival = self.survival_time_s
        if survival is not None:
            return survival
        start = self.attack_start_s if self.attack_start_s is not None else self.start_s
        return self.end_s - start

    @property
    def first_overload_s(self) -> "float | None":
        """Time of the first effective attack, if any."""
        return self.overloads[0].time_s if self.overloads else None

    @property
    def throughput_ratio(self) -> float:
        """Delivered over demanded work across the run (Fig. 16 metric)."""
        if self.demanded_work <= 0.0:
            return 1.0
        return self.delivered_work / self.demanded_work

    def events_of_type(self, event_type: type) -> "list[SimEvent]":
        """Events of the run that are instances of ``event_type``."""
        return [e for e in self.events if isinstance(e, event_type)]

    @property
    def fault_counts(self) -> "dict[str, int]":
        """Injection count per fault kind (clears are not counted)."""
        counts: "dict[str, int]" = {}
        for event in self.faults:
            if isinstance(event, FaultInjected):
                counts[event.fault] = counts.get(event.fault, 0) + 1
        return counts


@dataclass
class StepContext:
    """Mutable per-step state handed from pipeline stage to stage.

    Attributes:
        time_s: Current simulation time.
        dt: Step length.
        result: The accumulating run result.
        record: Whether this step's channels are recorded.
        down: Racks currently dark (tripped and unrepaired).
        util: Per-machine utilisation (trace, then attacker overrides).
        capped_servers: Per-server capping mask in force this tick (the
            scheme's decision from the *previous* tick — management acts
            one tick delayed, like real firmware).
        asleep: Per-server sleep mask in force this tick (same delay).
        demand: Per-rack electrical demand.
        state: The scheme-visible observation for this tick.
        dispatch: The scheme's decision for this tick.
        utility: Per-rack utility-feed draw after the dispatch.
        delivered_inc: Exact addend this step contributed to
            ``result.delivered_work`` (captured so the fast-forward
            replay repeats the identical float addition).
        demanded_inc: Exact addend contributed to ``demanded_work``.
        row_scalars: The scalar recorder row appended this step, or
            ``None`` when the step was not recorded.
        row_vectors: The vector channels appended this step (live
            references — copy before retaining), or ``None``.
    """

    time_s: float
    dt: float
    result: SimResult
    record: bool = True
    down: "list[int]" = field(default_factory=list)
    util: "np.ndarray | None" = None
    capped_servers: "np.ndarray | None" = None
    asleep: "np.ndarray | None" = None
    demand: "np.ndarray | None" = None
    state: "StepState | None" = None
    dispatch: "Dispatch | None" = None
    utility: "np.ndarray | None" = None
    delivered_inc: float = 0.0
    demanded_inc: float = 0.0
    row_scalars: "dict[str, float] | None" = None
    row_vectors: "dict[str, np.ndarray] | None" = None


class DataCenterSimulation:
    """One configured data center + workload + (optional) attacker.

    Args:
        config: Data-center configuration.
        trace: Machine-utilisation workload; must cover the run window and
            have at least as many machines as the cluster has servers.
        scheme_factory: Class (or callable) building the defense scheme
            from a :class:`SchemeContext` — e.g. an entry of
            :data:`repro.defense.SCHEMES`.
        attacker: Optional adversary whose nodes override the trace.
        overshoot_tolerance: Breaker-rating margin over the budget — the
            "x % overshoot the data center can tolerate" of paper Fig. 8.
        management_interval_s: Metering/actuation cadence of the software
            plane (capping, shedding, VP detection).
        repair_time_s: Re-arm a tripped breaker after this long; ``None``
            leaves it open (survival-style runs).
        initial_battery_soc: Starting SOC for the rack batteries.
        backend: Physics implementation: ``"vectorized"`` (array kernels,
            the default) or ``"scalar"`` (per-object oracle classes). Both
            produce identical results — enforced by the differential
            harness in ``tests/test_vectorized_equivalence.py``.
        kernels: Step-kernel tier, orthogonal to ``backend``:
            ``"numpy"`` (default) evaluates the vector expressions;
            ``"compiled"`` fuses the hot per-step path (defense
            dispatch, breaker thermals) into C loops over the same
            arrays — bit-identical by construction, enforced by
            ``tests/test_kernels.py``. Requesting ``"compiled"``
            without a working C compiler warns once and runs the
            numpy tier; combined with ``backend="scalar"`` it is a
            documented no-op (the scalar oracle stays pure Python).
        fault_plan: Optional declarative fault schedule; when given, a
            :class:`~repro.faults.FaultInjector` stage runs between the
            demand and defense stages, degrading telemetry, sensors,
            comms, batteries, FETs and breaker enforcement exactly as the
            plan prescribes. ``None`` leaves the pipeline untouched —
            runs without a plan are bit-identical to builds that predate
            fault injection.
        grid_plan: Optional declarative grid-disturbance schedule; when
            given, a :class:`~repro.grid.injector.GridInjector` stage
            runs between the fault and defense stages, deriving the
            per-rack feed factor, the breaker enforcement derate and
            the frequency-regulation duty command exactly as the plan
            prescribes. ``None`` leaves the pipeline untouched — runs
            without a plan are bit-identical to builds that predate
            grid modelling.
        telemetry_ttl_s: Staleness TTL for the scheme's telemetry view;
            defaults to three management intervals, so one missed meter
            publication is tolerated and held, while a sustained dropout
            forces the fail-safe path.
        fast_forward: Enable quiescent-segment fast-forward (see
            :mod:`repro.sim.fastforward`). Results are bit-identical to
            per-step execution — the controller only jumps blocks it has
            proven periodic and refuses whenever any precondition is
            unclear. Off by default; :attr:`fast_forward_stats` reports
            what the layer did.
        recorder_row_budget: Bound every run's recorder to at most this
            many rows per channel: once a channel fills the budget it is
            decimated in place (every other row dropped, sampling stride
            doubled), so month-long warehouse-scale runs keep constant
            memory while the retained rows stay a uniform subsample.
            ``None`` (default) records every offered row.
        record_pdu_aggregates: Record per-PDU vector channels
            (``pdu_utility_w``, ``pdu_soc``) instead of the per-rack
            ``rack_utility_w`` / ``rack_soc`` matrices — the streaming
            aggregation that keeps 1000-rack recorder output narrow.
    """

    def __init__(
        self,
        config: DataCenterConfig,
        trace: UtilizationTrace,
        scheme_factory: "type[DefenseScheme]",
        attacker: "Attacker | None" = None,
        overshoot_tolerance: float = 0.03,
        management_interval_s: float = 10.0,
        repair_time_s: "float | None" = None,
        initial_battery_soc: "float | list[float]" = 1.0,
        backend: str = "vectorized",
        kernels: str = "numpy",
        fault_plan: "FaultPlan | None" = None,
        grid_plan: "GridPlan | None" = None,
        telemetry_ttl_s: "float | None" = None,
        fast_forward: bool = False,
        recorder_row_budget: "int | None" = None,
        record_pdu_aggregates: bool = False,
    ) -> None:
        if overshoot_tolerance < 0.0:
            raise SimulationError("overshoot tolerance must be non-negative")
        if management_interval_s <= 0.0:
            raise SimulationError("management interval must be positive")
        if backend not in ("scalar", "vectorized"):
            raise SimulationError(f"unknown backend: {backend!r}")
        self.backend = backend
        # Kernel tier, resolved once: "compiled" degrades to "numpy"
        # (with one warning) when no provider is installed, so the rest
        # of the engine can branch on the effective tier alone.
        self.kernels = resolve_kernels(kernels)
        self.config = config
        self._overshoot_tolerance = overshoot_tolerance
        self.cluster = ClusterModel(config.cluster)
        if trace.machines < self.cluster.servers:
            raise SimulationError(
                f"trace has {trace.machines} machines; cluster needs "
                f"{self.cluster.servers}"
            )
        self.trace = trace
        # Results capture their own event streams via subscriptions, so
        # the long-lived bus itself does not record.
        self.bus = EventBus(record=False)
        racks = self.cluster.racks
        budget_w = config.cluster.pdu_budget_w
        # The compiled hierarchy: rack -> PDU membership, contiguous
        # segment offsets and per-PDU budgets as flat index arrays. A
        # flat (single-PDU) cluster keeps the historical expressions and
        # bank layout bit-for-bit.
        self.topology = compile_topology(config.cluster)
        topo = self.topology
        self._n_mid = topo.n_mid_breakers
        if topo.has_pdu_tier:
            pdu_of_rack = topo.rack_to_pdu
            self.soft_limits_w = (
                topo.pdu_budget_w[pdu_of_rack]
                / topo.pdu_rack_counts[pdu_of_rack]
            )
        else:
            self.soft_limits_w = np.full(racks, budget_w / racks)
        self.rating_w = self.soft_limits_w * (1.0 + overshoot_tolerance)
        shape = config.cluster.rack.breaker
        # One bank holds every breaker: racks 0..n-1, then any mid-tier
        # PDU breakers, then the cluster PDU breaker last, so protection
        # advances in one call.
        self._cluster_rated_w = budget_w * (1.0 + overshoot_tolerance)
        self._pdu_rated_w = topo.pdu_budget_w * (1.0 + overshoot_tolerance)
        bank_ratings = np.empty(topo.n_breakers)
        bank_ratings[:racks] = self.rating_w
        if self._n_mid:
            bank_ratings[racks:-1] = self._pdu_rated_w
        bank_ratings[-1] = self._cluster_rated_w
        self.breakers = make_breaker_bank(
            backend, shape, bank_ratings, kernels=self.kernels
        )
        if telemetry_ttl_s is None:
            telemetry_ttl_s = 3.0 * management_interval_s
        if telemetry_ttl_s <= 0.0:
            raise SimulationError("telemetry TTL must be positive")
        self.scheme: DefenseScheme = scheme_factory(
            SchemeContext(
                config=config,
                cluster=self.cluster,
                initial_soft_limits_w=self.soft_limits_w,
                branch_rating_w=self.rating_w,
                seed=config.seed,
                initial_battery_soc=initial_battery_soc,
                bus=self.bus,
                backend=backend,
                telemetry_ttl_s=telemetry_ttl_s,
                topology=self.topology,
                kernels=self.kernels,
            )
        )
        self._mgmt_interval = management_interval_s
        self._repair_time_s = repair_time_s
        # Management-meter accumulators (energy / utilisation integrals).
        self._meter_energy = np.zeros(racks)
        self._meter_util = np.zeros(self.cluster.servers)
        self._meter_time = 0.0
        # Sane priors until the first interval completes: the meters
        # report the provisioned budgets, not zero (which would make the
        # software plane slam every limit to the floor at t=0).
        self._metered_rack_avg = self.soft_limits_w.copy()
        self._metered_server_util = np.zeros(self.cluster.servers)
        self._rack_down_until = np.full(racks, -np.inf)
        self._was_over = np.zeros(topo.n_breakers, dtype=bool)
        # Rack index of every server — machine m lives in rack
        # m // servers_per_rack; hoisted out of the per-step demand stage.
        self._server_rack_index = (
            np.arange(self.cluster.servers) // config.cluster.rack.servers
        )
        # Reusable bank-wide buffers: ratings and loads, with mid-tier
        # entries (if any) between the racks and the cluster entry last.
        # The bank reads, never stores, these.
        self._ratings_buf = bank_ratings.copy()
        self._loads_buf = np.empty(topo.n_breakers)
        self._applied_soft_limits_w = self.soft_limits_w.copy()
        # Enforcement derating: a mis-rated breaker trips at derate *
        # nominal while overload *detection* keeps the nominal rating —
        # the operator's view of "over budget" is unchanged; only the
        # (faulty) hardware threshold moves.
        self._breaker_derate: "np.ndarray | None" = None
        self._derate_dirty = False
        if recorder_row_budget is not None and recorder_row_budget < 2:
            raise SimulationError("recorder row budget must be at least 2")
        self._recorder_row_budget = recorder_row_budget
        self._record_pdu_aggregates = bool(record_pdu_aggregates)
        self.fast_forward = bool(fast_forward)
        self.fast_forward_stats = FastForwardStats()
        self._paused: "_PausedRun | None" = None
        self.attacker = None
        self._attack_nodes: "np.ndarray | None" = None
        self._attack_racks: "tuple[int, ...]" = ()
        if attacker is not None:
            self.attach_attacker(attacker)
        # Deferred import: the injector module subscribes to sim.events,
        # so importing it at module scope would cycle through repro.faults.
        from ..faults.injector import FaultInjector

        self._injector: "FaultInjector | None" = None
        if fault_plan is not None and len(fault_plan) > 0:
            self._injector = FaultInjector(fault_plan, self)
        # Same deferred-import reasoning as the fault injector.
        from ..grid.injector import GridInjector

        self._grid: "GridInjector | None" = None
        self._grid_derate: "np.ndarray | None" = None
        if grid_plan is not None and len(grid_plan) > 0:
            self._grid = GridInjector(grid_plan, self)
        #: The step pipeline, in execution order. Each stage reads and
        #: extends the :class:`StepContext`; tests (and exotic workloads)
        #: may call stages individually or swap the tuple. The fault and
        #: grid stages only exist when a plan was supplied, so no-plan
        #: runs execute the exact historical pipeline.
        stages = [
            self.stage_workload,
            self.stage_attack,
            self.stage_demand,
            self.stage_defense,
            self.stage_protection,
            self.stage_accounting,
        ]
        if self._injector is not None:
            stages.insert(3, self._injector.stage_faults)
        if self._grid is not None:
            stages.insert(
                4 if self._injector is not None else 3,
                self._grid.stage_grid,
            )
        self.pipeline = tuple(stages)

    @property
    def server_rack_index(self) -> np.ndarray:
        """Rack index of every server (server ``m`` lives in rack
        ``m // servers_per_rack``)."""
        return self._server_rack_index

    @property
    def fault_plan(self) -> "FaultPlan | None":
        """The active fault plan, if any."""
        return self._injector.plan if self._injector is not None else None

    @property
    def fault_injector(self):
        """The active :class:`~repro.faults.FaultInjector`, if any."""
        return self._injector

    @property
    def grid_plan(self) -> "GridPlan | None":
        """The active grid plan, if any."""
        return self._grid.plan if self._grid is not None else None

    @property
    def grid_injector(self):
        """The active :class:`~repro.grid.injector.GridInjector`, if any."""
        return self._grid

    @property
    def management_interval_s(self) -> float:
        """Metering/actuation cadence of the software plane."""
        return self._mgmt_interval

    def attach_attacker(self, attacker: Attacker) -> None:
        """Install (or replace) the adversary on a built simulation.

        The prefix-snapshot path depends on this: benign prefixes run
        with no attacker at all — pre-onset the attacker is a bitwise
        no-op, so omitting it changes nothing — and each forked cell
        attaches its own adversary right after :meth:`restore`.
        """
        nodes = np.asarray(attacker.nodes, dtype=int)
        if np.any(nodes >= self.cluster.servers):
            raise SimulationError("attacker nodes outside the cluster")
        self.attacker = attacker
        self._attack_nodes = nodes
        self._attack_racks = tuple(
            int(r) for r in np.unique(self._server_rack_index[nodes])
        )

    def plan_windows(self) -> "list[AttackWindow]":
        """Windows of the fault and grid plans, as fine-step refinements.

        The runner merges these with the attack windows so fault edges
        and grid disturbances (duty-cycle phases inside regulation
        windows too) land on sub-second steps. One-shot faults (battery
        fade) have no window.
        """
        return [
            AttackWindow(start_s=start, end_s=end)
            for injector in (self._injector, self._grid)
            if injector is not None
            for start, end in injector.plan.windows()
        ]

    def set_breaker_derate(self, derate: "np.ndarray | None") -> None:
        """Install per-breaker enforcement derating (cluster entry last).

        ``derate`` multiplies the *enforced* breaker ratings — one entry
        per breaker in bank order (racks, then mid-tier PDUs, then the
        cluster breaker), strictly positive — while ``self.rating_w``
        (overload detection, soft-limit maths) stays nominal. ``None``
        restores nominal enforcement. Takes effect at this step's
        protection stage. Called by the fault injector for
        :class:`~repro.faults.BreakerMisrating`.
        """
        if derate is not None:
            derate = np.asarray(derate, dtype=float)
            if derate.shape != (self.topology.n_breakers,):
                raise SimulationError(
                    "breaker derate needs one entry per breaker (racks, "
                    "then mid-tier PDUs, then the cluster breaker)"
                )
            if not bool(np.all(derate > 0.0)):
                raise SimulationError("breaker derate must be positive")
            derate = derate.copy()
        self._breaker_derate = derate
        self._derate_dirty = True

    def set_grid_derate(self, derate: "np.ndarray | None") -> None:
        """Install the grid-side enforcement derate (cluster entry last).

        Same contract as :meth:`set_breaker_derate`, but owned by the
        grid injector so a sag and a
        :class:`~repro.faults.BreakerMisrating` compose multiplicatively
        instead of overwriting each other. Detection (``rating_w``)
        stays nominal: the operator's "over budget" view is unchanged;
        only the physical feed the breakers enforce moves.
        """
        if derate is not None:
            derate = np.asarray(derate, dtype=float)
            if derate.shape != (self.topology.n_breakers,):
                raise SimulationError(
                    "grid derate needs one entry per breaker (racks, "
                    "then mid-tier PDUs, then the cluster breaker)"
                )
            if not bool(np.all(derate > 0.0)):
                raise SimulationError("grid derate must be positive")
            derate = derate.copy()
        self._grid_derate = derate
        self._derate_dirty = True

    # ------------------------------------------------------------------ #
    # Pipeline stages                                                     #
    # ------------------------------------------------------------------ #

    def stage_workload(self, ctx: StepContext) -> None:
        """Resolve dark racks and read the trace utilisation."""
        ctx.down = self._down_racks(ctx.time_s)
        ctx.util = self.trace.at(ctx.time_s)[: self.cluster.servers].copy()

    def stage_attack(self, ctx: StepContext) -> None:
        """Apply the attacker's utilisation overrides, if any."""
        if self.attacker is None:
            return
        assert ctx.util is not None
        observed = self._attacker_observes_capping()
        # The attacker can tell its rack went dark — its own VMs die.
        success = bool(ctx.down) and any(
            rack in ctx.down for rack in self._attack_racks
        )
        overrides = self.attacker.utilisation_overrides(
            ctx.time_s, observed, observed_success=success
        )
        for node, value in overrides.items():
            if not self.scheme.asleep_servers[node]:
                ctx.util[node] = max(ctx.util[node], value)

    def stage_demand(self, ctx: StepContext) -> None:
        """Turn utilisation into rack power and feed the meters."""
        assert ctx.util is not None
        ctx.capped_servers = self.scheme.capped_racks[self._server_rack_index]
        ctx.asleep = self.scheme.asleep_servers
        ctx.demand = self.cluster.rack_power(
            ctx.util,
            capped=ctx.capped_servers,
            asleep=ctx.asleep,
            down_racks=ctx.down,
        )
        self._update_meters(ctx.demand, ctx.util, ctx.dt)

    def stage_defense(self, ctx: StepContext) -> None:
        """Let the active scheme move energy and set management masks.

        All metered quantities flow through the scheme's
        :class:`~repro.defense.telemetry.TelemetryView`: the view holds
        last-known-good readings through dropouts and reports staleness,
        so the scheme can degrade gracefully instead of reading garbage.
        With no injector the view observes every channel every step and
        the state it yields is value-identical to the raw meters.
        """
        assert ctx.demand is not None
        view = self.scheme.telemetry
        if self._injector is None:
            view.observe(
                ctx.time_s, self._metered_rack_avg, self._metered_server_util
            )
        else:
            rack_ok, server_ok = self._injector.telemetry_masks()
            view.observe(
                ctx.time_s,
                self._injector.sensed_rack_avg(self._metered_rack_avg),
                self._metered_server_util,
                rack_mask=rack_ok,
                server_mask=server_ok,
            )
        age_s = view.age_s(ctx.time_s)
        if self._grid is None:
            ctx.state = StepState(
                time_s=ctx.time_s,
                dt=ctx.dt,
                rack_demand_w=ctx.demand,
                metered_rack_avg_w=view.rack_avg_w(),
                metered_server_util=view.server_util(),
                telemetry_age_s=age_s,
                telemetry_stale=view.is_stale(ctx.time_s),
            )
        else:
            freg_w, freg_floor = self._grid.freg_command()
            ctx.state = StepState(
                time_s=ctx.time_s,
                dt=ctx.dt,
                rack_demand_w=ctx.demand,
                metered_rack_avg_w=view.rack_avg_w(),
                metered_server_util=view.server_util(),
                telemetry_age_s=age_s,
                telemetry_stale=view.is_stale(ctx.time_s),
                grid_feed_factor=self._grid.feed_factor,
                grid_freg_w=freg_w,
                grid_freg_floor_soc=freg_floor,
            )
        ctx.dispatch = self.scheme.dispatch(ctx.state)
        ctx.utility = ctx.dispatch.utility_w(ctx.demand)
        ctx.utility[ctx.down] = 0.0

    def stage_protection(self, ctx: StepContext) -> None:
        """Move enforcement with the budgets, then integrate breakers."""
        assert ctx.dispatch is not None and ctx.utility is not None
        # The iPDU protection thresholds follow the (possibly
        # reassigned) soft limits: enforcement moves with the budget.
        # Schemes swap in a fresh array on reassignment (never mutating
        # in place), so an identity check spots unchanged limits, and
        # re-applying identical ratings would be a no-op either way.
        limits_changed = (
            ctx.dispatch.soft_limits_w is not self._applied_soft_limits_w
        )
        if limits_changed:
            self.rating_w = ctx.dispatch.soft_limits_w * (
                1.0 + self._overshoot_tolerance
            )
            self._ratings_buf[: self.cluster.racks] = self.rating_w
            self._applied_soft_limits_w = ctx.dispatch.soft_limits_w
        if limits_changed or self._derate_dirty:
            # Enforcement-only derating: the bank trips at the derated
            # threshold while rating_w (detection) and the ratings
            # buffer itself stay nominal. Fault misrating and grid feed
            # loss compose multiplicatively.
            enforced = self._ratings_buf
            if self._breaker_derate is not None:
                enforced = enforced * self._breaker_derate
            if self._grid_derate is not None:
                enforced = enforced * self._grid_derate
            self.breakers.set_ratings(enforced)
            self._derate_dirty = False
        # One segment reduction yields every mid-tier PDU load; reused by
        # overload detection and the breaker bank alike.
        pdu_utility = (
            self.topology.pdu_sums(ctx.utility) if self._n_mid else None
        )
        total_utility = self._publish_overloads(
            ctx.utility, ctx.time_s, pdu_utility
        )
        racks = self.cluster.racks
        self._loads_buf[:racks] = ctx.utility
        if pdu_utility is not None:
            self._loads_buf[racks:-1] = pdu_utility
        self._loads_buf[-1] = total_utility
        # Newly-tripped indices come back ascending, so the publication
        # order (racks first, then mid-tier, cluster last) matches the
        # scalar loop.
        topo = self.topology
        for index in self.breakers.step(self._loads_buf, ctx.dt, ctx.time_s):
            trip = self.breakers.trip_event(index)
            assert trip is not None
            self.bus.publish(
                BreakerTripped(
                    time_s=ctx.time_s,
                    rack_id=topo.breaker_label(index),
                    trip=trip,
                )
            )

    def stage_accounting(self, ctx: StepContext) -> None:
        """Integrate throughput and record the step's channels."""
        assert ctx.util is not None and ctx.dispatch is not None
        delivered, demanded = self.cluster.work_snapshot(
            ctx.util,
            capped=ctx.capped_servers,
            asleep=ctx.asleep,
            down_racks=ctx.down,
        )
        ctx.delivered_inc = delivered * ctx.dt
        ctx.demanded_inc = demanded * ctx.dt
        ctx.result.delivered_work += ctx.delivered_inc
        ctx.result.demanded_work += ctx.demanded_inc
        if ctx.record:
            self._record(ctx)

    # ------------------------------------------------------------------ #
    # Step internals                                                      #
    # ------------------------------------------------------------------ #

    def _attacker_observes_capping(self) -> bool:
        """The DVFS/shedding side-channel as seen from the attacker's VMs."""
        assert self._attack_nodes is not None
        capped_racks = self.scheme.capped_racks
        capped = any(capped_racks[r] for r in self._attack_racks)
        shed = bool(np.any(self.scheme.asleep_servers[self._attack_nodes]))
        return capped or shed

    def _update_meters(
        self, rack_demand: np.ndarray, util: np.ndarray, dt: float
    ) -> None:
        """Integrate the management meters; publish on interval boundary."""
        self._meter_energy += rack_demand * dt
        self._meter_util += util * dt
        self._meter_time += dt
        if self._meter_time >= self._mgmt_interval - 1e-9:
            self._metered_rack_avg = self._meter_energy / self._meter_time
            self._metered_server_util = self._meter_util / self._meter_time
            self._meter_energy[:] = 0.0
            self._meter_util[:] = 0.0
            self._meter_time = 0.0

    def _down_racks(self, time_s: float) -> "list[int]":
        """Racks currently dark (tripped and not yet repaired).

        A rack is dark when its own breaker is open *or* when the
        mid-tier PDU breaker feeding it is open — an open row breaker
        blacks out its whole contiguous rack block.
        """
        if not self.breakers.any_tripped:
            return []
        racks = self.cluster.racks
        tripped = self.breakers.tripped
        down = [i for i in range(racks) if tripped[i]]
        if self._repair_time_s is not None:
            still_down = []
            for i in down:
                event = self.breakers.trip_event(i)
                assert event is not None
                if time_s - event.time_s >= self._repair_time_s:
                    self.breakers.reset(i)
                else:
                    still_down.append(i)
            down = still_down
        if self._n_mid:
            dark = set(down)
            topo = self.topology
            for j in range(self._n_mid):
                index = racks + j
                if not tripped[index]:
                    continue
                if self._repair_time_s is not None:
                    event = self.breakers.trip_event(index)
                    assert event is not None
                    if time_s - event.time_s >= self._repair_time_s:
                        self.breakers.reset(index)
                        continue
                block = topo.rack_slice(j)
                dark.update(range(block.start, block.stop))
            if len(dark) != len(down):
                down = sorted(dark)
        return down

    def _publish_overloads(
        self,
        utility: np.ndarray,
        time_s: float,
        pdu_utility_w: "np.ndarray | None" = None,
    ) -> float:
        """Publish rising edges of overload; return the total utility draw.

        Publication order matches the bank layout: racks ascending, then
        mid-tier PDUs (labelled ``-(2 + j)``), then the cluster (``-1``).
        """
        racks = self.cluster.racks
        over_rack = utility > self.rating_w
        total = float(np.sum(utility))
        over_cluster = total > self._cluster_rated_w
        if over_rack.any():
            for rack in np.nonzero(over_rack & ~self._was_over[:racks])[0]:
                self.bus.publish(
                    OverloadEvent(
                        time_s=time_s,
                        rack_id=int(rack),
                        utility_w=float(utility[rack]),
                        rating_w=float(self.rating_w[rack]),
                    )
                )
        self._was_over[:racks] = over_rack
        if pdu_utility_w is not None:
            over_pdu = pdu_utility_w > self._pdu_rated_w
            if over_pdu.any():
                for j in np.nonzero(over_pdu & ~self._was_over[racks:-1])[0]:
                    self.bus.publish(
                        OverloadEvent(
                            time_s=time_s,
                            rack_id=pdu_breaker_id(int(j)),
                            utility_w=float(pdu_utility_w[j]),
                            rating_w=float(self._pdu_rated_w[j]),
                        )
                    )
            self._was_over[racks:-1] = over_pdu
        if over_cluster and not self._was_over[-1]:
            self.bus.publish(
                OverloadEvent(
                    time_s=time_s,
                    rack_id=-1,
                    utility_w=total,
                    rating_w=self._cluster_rated_w,
                )
            )
        self._was_over[-1] = over_cluster
        return total

    def ff_state(self, now_s: float) -> dict:
        """Complete evolving state for the fast-forward fingerprint.

        Everything the step pipeline reads or writes outside the
        :class:`StepContext` must appear here (directly or via a
        component's ``ff_state``): two boundaries with equal fingerprints
        must imply the intervening blocks are bitwise interchangeable.
        """
        state = {
            "scheme": self.scheme.ff_state(now_s),
            "breakers": self.breakers.ff_state(),
            "was_over": self._was_over,
            "meter_energy": self._meter_energy,
            "meter_util": self._meter_util,
            "meter_time": self._meter_time,
            "metered_rack_avg": self._metered_rack_avg,
            "metered_server_util": self._metered_server_util,
            "breaker_derate": self._breaker_derate,
            "derate_dirty": self._derate_dirty,
        }
        if self._injector is not None:
            state["injector"] = self._injector.ff_state()
        if self._grid is not None:
            state["grid"] = self._grid.ff_state()
            state["grid_derate"] = self._grid_derate
        return state

    def ff_shift_times(self, delta_s: float) -> None:
        """Advance absolute-time bookkeeping after a fast-forward jump.

        Only state that stores *wall-clock* timestamps (rather than
        durations) needs shifting; the fingerprint normalises such fields
        relative to ``now_s``, so the jump is valid exactly when shifting
        them reproduces the replayed block's end state.
        """
        self.scheme.ff_shift_times(delta_s)

    # ------------------------------------------------------------------ #
    # Running                                                             #
    # ------------------------------------------------------------------ #

    def run(
        self,
        duration_s: float,
        dt: float,
        start_s: float = 0.0,
        stop_on_trip: bool = False,
        record_every: int = 1,
    ) -> SimResult:
        """Simulate ``duration_s`` seconds at a single step ``dt``.

        Equivalent to :meth:`run_segments` with a one-segment schedule.

        Args:
            duration_s: Window length.
            dt: Step size; sub-second for attack windows, the trace
                interval for background studies.
            start_s: Window start within the trace.
            stop_on_trip: Halt at the first breaker trip (survival runs).
            record_every: Record channels every N steps (keeps month-long
                runs compact).
        """
        segment = Segment(
            start_s=start_s,
            end_s=start_s + duration_s,
            dt=dt,
            record_every=record_every,
        )
        return self.run_segments([segment], stop_on_trip=stop_on_trip)

    def run_segments(
        self,
        segments: "Sequence[Segment]",
        stop_on_trip: bool = False,
    ) -> SimResult:
        """Execute a schedule of segments, merging into one result.

        Segments must be in ascending, non-overlapping time order; all
        simulation state (battery SOC, breaker heat, meters, scheme
        state) carries across boundaries. Schedules are typically built
        by :func:`repro.sim.runner.build_schedule` / a
        :class:`~repro.sim.runner.Runner`.
        """
        schedule = self._validated_schedule(segments)
        attack_start = None
        if self.attacker is not None:
            attack_start = self.attacker.driver.config.start_s
        result = SimResult(
            scheme=self.scheme.name,
            start_s=schedule[0].start_s,
            end_s=schedule[0].start_s,
            attack_start_s=attack_start,
            recorder=self._make_recorder(),
        )
        unsubscribes = self._subscribe_result(result)
        try:
            for segment in schedule:
                self._run_segment(segment, result, stop_on_trip)
                if stop_on_trip and result.trips:
                    break
        finally:
            for unsubscribe in unsubscribes:
                unsubscribe()
        return result

    def _make_recorder(self) -> Recorder:
        """A fresh recorder honouring the configured row budget."""
        return Recorder(row_budget=self._recorder_row_budget)

    @staticmethod
    def _validated_schedule(segments: "Sequence[Segment]") -> "list[Segment]":
        schedule = list(segments)
        if not schedule:
            raise SimulationError("empty segment schedule")
        for earlier, later in zip(schedule, schedule[1:]):
            if later.start_s < earlier.end_s - 1e-6:
                raise SimulationError(
                    "segments must be in ascending, non-overlapping order"
                )
        return schedule

    def _subscribe_result(self, result: SimResult) -> "tuple":
        """Route the bus's event stream into ``result``'s collections."""
        return (
            self.bus.subscribe(SimEvent, result.events.append),
            self.bus.subscribe(OverloadEvent, result.overloads.append),
            self.bus.subscribe(
                BreakerTripped, lambda e: result.trips.append(e.trip)
            ),
            self.bus.subscribe(FaultEvent, result.faults.append),
            self.bus.subscribe(GridEvent, result.grid.append),
        )

    def _run_segment(
        self,
        segment: Segment,
        result: SimResult,
        stop_on_trip: bool,
        initial_steps: int = 0,
        limit_s: "float | None" = None,
    ) -> RunResult:
        """Run one segment's engine, accumulating into ``result``.

        Args:
            segment: The schedule entry to execute.
            result: Accumulating run result.
            stop_on_trip: Halt at the first breaker trip.
            initial_steps: Steps of this segment already executed (resume
                path); the engine's derived clock starts past them.
            limit_s: Stop at this time instead of the segment end (the
                prefix path pauses mid-segment on a step boundary).
        """
        engine = Engine(
            dt=segment.dt,
            start_s=segment.start_s,
            bus=self.bus,
            initial_steps=initial_steps,
        )
        step_index = initial_steps
        ff = None
        if self.fast_forward:
            ff = SegmentFastForward(self, segment, result, limit_s=limit_s)
            if not ff.enabled:
                ff = None

        def step(time_s: float, dt: float) -> None:
            nonlocal step_index
            if ff is not None:
                skipped = ff.begin_step(step_index, time_s)
                if skipped:
                    # The replay already landed every recorder row and
                    # work addend; the engine's own post-hook increment
                    # supplies the final +1.
                    engine.advance_steps(skipped - 1)
                    step_index += skipped
                    return
            ctx = StepContext(
                time_s=time_s,
                dt=dt,
                result=result,
                record=step_index % segment.record_every == 0,
            )
            for stage in self.pipeline:
                stage(ctx)
            if ff is not None:
                ff.observe(ctx)
            step_index += 1

        engine.add_hook(step)
        if stop_on_trip:
            engine.add_stop(lambda _t: bool(result.trips))
        run = engine.run_until(
            segment.end_s if limit_s is None else limit_s
        )
        result.end_s = run.end_s
        return run

    # ------------------------------------------------------------------ #
    # Prefix / snapshot / resume                                          #
    # ------------------------------------------------------------------ #

    def run_prefix(
        self,
        segments: "Sequence[Segment]",
        pause_at_s: float,
        stop_on_trip: bool = False,
    ) -> SimResult:
        """Run a schedule up to ``pause_at_s``, then pause resumably.

        The pause point must land on a step boundary of the segment it
        falls in. After this returns, :meth:`snapshot` captures the whole
        simulation (including the pause cursor and partial result) and
        :meth:`resume_segments` — on this object or a :meth:`restore`\\ d
        copy — finishes the schedule bit-identically to an unbroken
        :meth:`run_segments` call.
        """
        if self._paused is not None:
            raise SimulationError("a paused run is already pending")
        schedule = self._validated_schedule(segments)
        attack_start = None
        if self.attacker is not None:
            attack_start = self.attacker.driver.config.start_s
        result = SimResult(
            scheme=self.scheme.name,
            start_s=schedule[0].start_s,
            end_s=schedule[0].start_s,
            attack_start_s=attack_start,
            recorder=self._make_recorder(),
        )
        paused_index = len(schedule)
        paused_steps = 0
        unsubscribes = self._subscribe_result(result)
        try:
            for index, segment in enumerate(schedule):
                if pause_at_s <= segment.start_s + 1e-9:
                    paused_index, paused_steps = index, 0
                    break
                if pause_at_s < segment.end_s - 1e-9:
                    steps = round(
                        (pause_at_s - segment.start_s) / segment.dt
                    )
                    boundary = segment.start_s + steps * segment.dt
                    if abs(boundary - pause_at_s) > 1e-6:
                        raise SimulationError(
                            "pause_at_s must land on a step boundary of "
                            "its segment"
                        )
                    if steps > 0:
                        self._run_segment(
                            segment, result, stop_on_trip, limit_s=boundary
                        )
                    paused_index, paused_steps = index, steps
                    break
                self._run_segment(segment, result, stop_on_trip)
                if stop_on_trip and result.trips:
                    paused_index, paused_steps = index + 1, 0
                    break
        finally:
            for unsubscribe in unsubscribes:
                unsubscribe()
        self._paused = _PausedRun(
            schedule=tuple(schedule),
            segment_index=paused_index,
            steps_done=paused_steps,
            result=result,
        )
        return result

    def snapshot(self) -> SimSnapshot:
        """Checkpoint the entire simulation as portable bytes.

        Captures physics, control state, meters, RNG streams and — when a
        :meth:`run_prefix` is pending — the pause cursor and its partial
        result, so a restored copy resumes exactly where this one paused.
        The event bus must hold no external subscribers (run methods
        unsubscribe their collectors before returning, so any schedule
        boundary is safe).
        """
        return SimSnapshot(
            version=SNAPSHOT_VERSION, payload=pickle.dumps(self)
        )

    @staticmethod
    def restore(snapshot: SimSnapshot) -> "DataCenterSimulation":
        """Rebuild an independent simulation from :meth:`snapshot` bytes."""
        if snapshot.version != SNAPSHOT_VERSION:
            raise SimulationError(
                f"snapshot version {snapshot.version} unsupported "
                f"(expected {SNAPSHOT_VERSION})"
            )
        sim = pickle.loads(snapshot.payload)
        if not isinstance(sim, DataCenterSimulation):
            raise SimulationError("snapshot payload is not a simulation")
        return sim

    def resume_segments(self, stop_on_trip: bool = False) -> SimResult:
        """Finish the schedule paused by :meth:`run_prefix`.

        Continues from the stored cursor — mid-segment when the pause
        fell inside one — and returns the same accumulating result, now
        complete. An attacker attached after the pause (the snapshot-fork
        path) back-fills ``attack_start_s``.
        """
        if self._paused is None:
            raise SimulationError("no paused run to resume")
        paused, self._paused = self._paused, None
        result = paused.result
        if self.attacker is not None and result.attack_start_s is None:
            result.attack_start_s = self.attacker.driver.config.start_s
        unsubscribes = self._subscribe_result(result)
        try:
            for index in range(paused.segment_index, len(paused.schedule)):
                segment = paused.schedule[index]
                initial = (
                    paused.steps_done
                    if index == paused.segment_index
                    else 0
                )
                if (
                    segment.start_s + initial * segment.dt
                    >= segment.end_s - 1e-9
                ):
                    continue
                self._run_segment(
                    segment, result, stop_on_trip, initial_steps=initial
                )
                if stop_on_trip and result.trips:
                    break
        finally:
            for unsubscribe in unsubscribes:
                unsubscribe()
        return result

    def _record(self, ctx: StepContext) -> None:
        assert ctx.demand is not None and ctx.utility is not None
        assert ctx.dispatch is not None
        rec = ctx.result.recorder
        scalars = dict(
            time_s=ctx.time_s,
            total_demand_w=float(np.sum(ctx.demand)),
            total_utility_w=float(np.sum(ctx.utility)),
            battery_w=float(np.sum(ctx.dispatch.battery_w)),
            udeb_w=float(np.sum(ctx.dispatch.udeb_w)),
            fleet_soc_mean=float(np.mean(self.scheme.fleet.soc_vector())),
            fleet_soc_std=self.scheme.fleet.soc_std(),
            capped_racks=float(np.sum(ctx.dispatch.capped_racks)),
            asleep_servers=float(np.sum(ctx.dispatch.asleep_servers)),
        )
        rec.append_row(**scalars)
        soc = self.scheme.fleet.soc_vector()
        if self._record_pdu_aggregates:
            # Streaming per-PDU aggregation: the recorder holds one lane
            # per PDU instead of one per rack, so warehouse-scale runs
            # stay narrow no matter how many racks each PDU feeds.
            topo = self.topology
            pdu_soc = topo.pdu_sums(np.asarray(soc, dtype=float))
            pdu_soc /= topo.pdu_rack_counts
            pdu_utility = topo.pdu_sums(ctx.utility)
            rec.append_vector("pdu_soc", pdu_soc, copy=False)
            rec.append_vector("pdu_utility_w", pdu_utility, copy=False)
            ctx.row_scalars = scalars
            ctx.row_vectors = {
                "pdu_soc": pdu_soc,
                "pdu_utility_w": pdu_utility,
            }
            return
        rec.append_vector("rack_soc", soc)
        # ``ctx.utility`` is a fresh float64 array built this step and
        # never reused after recording, so the documented copy=False path
        # skips the redundant re-coercion.
        rec.append_vector("rack_utility_w", ctx.utility, copy=False)
        # Exposed so the fast-forward capture can reuse the exact values
        # just recorded instead of recomputing them.
        ctx.row_scalars = scalars
        ctx.row_vectors = {"rack_soc": soc, "rack_utility_w": ctx.utility}


def truncate_snapshot_schedule(
    snapshot: SimSnapshot, end_s: float
) -> SimSnapshot:
    """A copy of a paused snapshot whose remaining schedule ends at ``end_s``.

    The adversarial search evaluates candidates in escalating probe
    windows; each window is a *prefix* of the full survival schedule, so
    one shared benign-prefix snapshot can serve every window by clipping
    the paused schedule instead of re-simulating the prefix. Steps are
    anchored at each segment's start, so a clipped segment executes
    exactly the same step sequence as the full one up to ``end_s`` —
    forked runs stay bit-identical to a straight run over the shorter
    schedule.

    Args:
        snapshot: A snapshot taken after
            :meth:`DataCenterSimulation.run_prefix` paused.
        end_s: New schedule end. Must land on a step boundary of the
            segment it falls in and lie strictly after the pause point.

    Raises:
        SimulationError: when the snapshot holds no paused run, ``end_s``
            precedes the pause point, or ``end_s`` misses the step grid.
    """
    sim = DataCenterSimulation.restore(snapshot)
    paused = sim._paused
    if paused is None:
        raise SimulationError(
            "snapshot holds no paused run to truncate"
        )
    if paused.segment_index >= len(paused.schedule):
        raise SimulationError("paused run has no remaining schedule")
    cursor = paused.schedule[paused.segment_index]
    pause_s = cursor.start_s + paused.steps_done * cursor.dt
    if end_s <= pause_s + 1e-9:
        raise SimulationError(
            f"truncation end {end_s} not after pause point {pause_s}"
        )
    clipped: "list[Segment]" = []
    for segment in paused.schedule:
        if segment.start_s >= end_s - 1e-9:
            break
        if segment.end_s <= end_s + 1e-9:
            clipped.append(segment)
            continue
        steps = round((end_s - segment.start_s) / segment.dt)
        boundary = segment.start_s + steps * segment.dt
        if abs(boundary - end_s) > 1e-6 or steps < 1:
            raise SimulationError(
                "truncation end must land on a step boundary of its "
                "segment"
            )
        clipped.append(
            Segment(
                start_s=segment.start_s,
                end_s=boundary,
                dt=segment.dt,
                record_every=segment.record_every,
            )
        )
        break
    sim._paused = _PausedRun(
        schedule=tuple(clipped),
        segment_index=paused.segment_index,
        steps_done=paused.steps_done,
        result=paused.result,
    )
    return sim.snapshot()
