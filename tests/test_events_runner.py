"""Event bus, segmented runner, and scenario-sweep tests."""

import numpy as np
import pytest

from repro.attack import Attacker, SpikeTrainConfig, VirusKind
from repro.attack.scenario import DENSE_ATTACK, SPARSE_ATTACK
from repro.config import ClusterConfig, DataCenterConfig
from repro.defense import SCHEMES
from repro.errors import SimulationError
from repro.experiments import ExperimentSetup
from repro.experiments.sweep import (
    ScenarioSweep,
    SweepCell,
    execute_cell,
    survival_grid_cells,
)
from repro.sim import DataCenterSimulation
from repro.sim.events import (
    BreakerTripped,
    EventBus,
    OverloadEvent,
    SimEvent,
    events_between,
)
from repro.sim.runner import (
    AttackWindow,
    Runner,
    Segment,
    build_schedule,
)


def flat_trace(util, machines=40, steps=200, interval_s=60.0):
    from repro.workload import UtilizationTrace

    return UtilizationTrace(
        np.full((steps, machines), util), interval_s=interval_s
    )


def make_sim(scheme="PS", util=0.4, racks=4, attacker=None, **kwargs):
    config = DataCenterConfig(cluster=ClusterConfig(racks=racks))
    trace = flat_trace(util, machines=racks * 10)
    return DataCenterSimulation(
        config, trace, SCHEMES[scheme], attacker=attacker, **kwargs
    )


def make_attacker(start=60.0):
    return Attacker(
        nodes=(0, 1, 2, 3, 4, 5),
        kind=VirusKind.CPU,
        spikes=SpikeTrainConfig(width_s=4.0, rate_per_min=6.0,
                                baseline_util=0.15),
        start_s=start,
        autonomy_estimate_s=120.0,
        seed=1,
    )


class TestEventBus:
    def test_publish_delivers_to_subscriber(self):
        bus = EventBus()
        seen = []
        bus.subscribe(OverloadEvent, seen.append)
        event = OverloadEvent(time_s=1.0, rack_id=0,
                              utility_w=100.0, rating_w=90.0)
        bus.publish(event)
        assert seen == [event]

    def test_unsubscribe_stops_delivery(self):
        bus = EventBus()
        seen = []
        unsubscribe = bus.subscribe(OverloadEvent, seen.append)
        unsubscribe()
        bus.publish(OverloadEvent(time_s=1.0, rack_id=0,
                                  utility_w=1.0, rating_w=1.0))
        assert seen == []

    def test_base_class_subscription_catches_subclasses(self):
        bus = EventBus()
        seen = []
        bus.subscribe(SimEvent, seen.append)
        bus.publish(OverloadEvent(time_s=2.0, rack_id=1,
                                  utility_w=5.0, rating_w=4.0))
        assert len(seen) == 1
        assert isinstance(seen[0], OverloadEvent)

    def test_recording_and_of_type(self):
        bus = EventBus(record=True)
        a = OverloadEvent(time_s=0.0, rack_id=0, utility_w=1.0, rating_w=1.0)
        bus.publish(a)
        assert bus.events == [a]
        assert bus.of_type(OverloadEvent) == [a]
        bus.clear()
        assert bus.events == []

    def test_non_recording_bus_keeps_nothing(self):
        bus = EventBus(record=False)
        bus.publish(OverloadEvent(time_s=0.0, rack_id=0,
                                  utility_w=1.0, rating_w=1.0))
        assert bus.events == []

    def test_events_between(self):
        events = [
            OverloadEvent(time_s=t, rack_id=0, utility_w=1.0, rating_w=1.0)
            for t in (0.0, 5.0, 10.0)
        ]
        inside = events_between(events, 1.0, 10.0)
        assert [e.time_s for e in inside] == [5.0]


class TestSchedule:
    def test_no_windows_single_coarse_segment(self):
        segments = build_schedule(0.0, 3600.0, 300.0)
        assert segments == [Segment(0.0, 3600.0, 300.0, 1)]

    def test_window_snaps_outward_to_coarse_grid(self):
        segments = build_schedule(
            0.0, 3600.0, 300.0, [AttackWindow(1000.0, 1400.0)], fine_dt=0.5
        )
        assert [(s.start_s, s.end_s, s.dt) for s in segments] == [
            (0.0, 900.0, 300.0),
            (900.0, 1500.0, 0.5),
            (1500.0, 3600.0, 300.0),
        ]

    def test_overlapping_windows_merge(self):
        segments = build_schedule(
            0.0, 3000.0, 300.0,
            [AttackWindow(600.0, 1200.0), AttackWindow(1100.0, 1500.0)],
            fine_dt=1.0,
        )
        fine = [s for s in segments if s.dt == 1.0]
        assert len(fine) == 1
        assert (fine[0].start_s, fine[0].end_s) == (600.0, 1500.0)

    def test_rejects_bad_segments(self):
        with pytest.raises(SimulationError):
            Segment(10.0, 10.0, 1.0)
        with pytest.raises(SimulationError):
            Segment(0.0, 10.0, 0.0)
        with pytest.raises(SimulationError):
            AttackWindow(5.0, 5.0)
        with pytest.raises(SimulationError):
            build_schedule(0.0, 100.0, 1.0, fine_dt=2.0)

    def test_run_segments_rejects_overlap(self):
        sim = make_sim()
        with pytest.raises(SimulationError):
            sim.run_segments([
                Segment(0.0, 120.0, 1.0),
                Segment(60.0, 180.0, 1.0),
            ])
        with pytest.raises(SimulationError):
            sim.run_segments([])


class TestEventStream:
    def test_overload_precedes_trip_within_step(self):
        """Within one step the pipeline publishes the overload (protection
        stage edge detection) before the breaker trip it heats into."""
        sim = make_sim("Conv", util=0.55, attacker=make_attacker())
        result = sim.run(duration_s=1200.0, dt=0.5, stop_on_trip=True)
        assert result.trips
        stream = result.events
        trip_index = next(
            i for i, e in enumerate(stream) if isinstance(e, BreakerTripped)
        )
        overload_indices = [
            i for i, e in enumerate(stream) if isinstance(e, OverloadEvent)
        ]
        assert overload_indices and overload_indices[0] < trip_index

    def test_trip_events_mirror_trip_list(self):
        sim = make_sim("Conv", util=0.55, attacker=make_attacker())
        result = sim.run(duration_s=1200.0, dt=0.5, stop_on_trip=True)
        wrapped = result.events_of_type(BreakerTripped)
        assert [e.trip for e in wrapped] == result.trips

    def test_event_stream_is_time_ordered(self):
        sim = make_sim("Conv", util=0.55, attacker=make_attacker())
        result = sim.run(duration_s=900.0, dt=0.5)
        times = [e.time_s for e in result.events]
        assert times == sorted(times)


class TestSegmentContinuity:
    def _pair(self):
        # Each sim gets its own attacker: the adversary is stateful, so
        # sharing one instance would leak state between the two runs.
        return (
            make_sim("Conv", util=0.55, attacker=make_attacker()),
            make_sim("Conv", util=0.55, attacker=make_attacker()),
        )

    def test_two_segments_match_single_run(self):
        single_sim, seg_sim = self._pair()
        single = single_sim.run(duration_s=420.0, dt=0.5, record_every=1)
        segmented = seg_sim.run_segments([
            Segment(0.0, 210.0, 0.5),
            Segment(210.0, 420.0, 0.5),
        ])
        assert np.array_equal(
            single.recorder.series("total_utility_w"),
            segmented.recorder.series("total_utility_w"),
        )
        assert single.survival_time_s == segmented.survival_time_s

    def test_battery_soc_continuous_across_boundary(self):
        single_sim, seg_sim = self._pair()
        single_sim.run(duration_s=420.0, dt=0.5)
        seg_sim.run_segments([
            Segment(0.0, 210.0, 0.5),
            Segment(210.0, 420.0, 0.5),
        ])
        assert np.array_equal(
            single_sim.scheme.fleet.soc_vector(),
            seg_sim.scheme.fleet.soc_vector(),
        )

    def test_breaker_heat_continuous_across_boundary(self):
        single_sim, seg_sim = self._pair()
        single_sim.run(duration_s=420.0, dt=0.5)
        seg_sim.run_segments([
            Segment(0.0, 210.0, 0.5),
            Segment(210.0, 420.0, 0.5),
        ])
        # The bank holds racks 0..n-1 plus the cluster breaker at index n.
        assert np.array_equal(single_sim.breakers.heat, seg_sim.breakers.heat)

    def test_single_dt_run_equals_one_segment_schedule(self):
        single_sim, seg_sim = self._pair()
        single = single_sim.run(
            duration_s=420.0, dt=0.5, record_every=4
        )
        segmented = seg_sim.run_segments(
            [Segment(0.0, 420.0, 0.5, record_every=4)]
        )
        assert np.array_equal(
            single.recorder.series("total_utility_w"),
            segmented.recorder.series("total_utility_w"),
        )
        assert single.delivered_work == segmented.delivered_work
        assert single.demanded_work == segmented.demanded_work


class TestRunner:
    def test_runner_matches_hand_stitched_schedule(self):
        """One Runner call == the manual coarse+fine two-run workflow."""
        runner_sim = make_sim("Conv", util=0.55,
                              attacker=make_attacker(start=600.0))
        manual_sim = make_sim("Conv", util=0.55,
                              attacker=make_attacker(start=600.0))
        runner = Runner(runner_sim, coarse_dt=60.0, fine_dt=0.5)
        auto = runner.run(
            start_s=0.0,
            end_s=1800.0,
            attack_windows=[AttackWindow(600.0, 1400.0)],
            stop_on_trip=True,
        )
        manual = manual_sim.run_segments(
            [
                Segment(0.0, 600.0, 60.0),
                Segment(600.0, 1440.0, 0.5),
                Segment(1440.0, 1800.0, 60.0),
            ],
            stop_on_trip=True,
        )
        assert auto.survival_time_s == manual.survival_time_s
        assert auto.survival_or_window() == manual.survival_or_window()
        assert len(auto.trips) == len(manual.trips)

    def test_schedule_property_matches_build_schedule(self):
        runner = Runner(make_sim(), coarse_dt=60.0, fine_dt=0.5)
        assert runner.schedule(
            0.0, 1800.0, [AttackWindow(600.0, 1400.0)]
        ) == build_schedule(
            0.0, 1800.0, 60.0, [AttackWindow(600.0, 1400.0)], fine_dt=0.5
        )

    def test_coarse_lead_in_preserves_state(self):
        """A lead-in segment runs on the same sim: the batteries arrive at
        the attack with whatever the background left them."""
        sim = make_sim("PS", util=0.62)
        runner = Runner(sim, coarse_dt=60.0)
        runner.run(start_s=0.0, end_s=1200.0)
        # Heavy background load drained at least one battery below full.
        assert float(np.min(sim.scheme.fleet.soc_vector())) < 1.0


class TestScenarioSweep:
    def _setup(self):
        config = DataCenterConfig(cluster=ClusterConfig(racks=8))
        trace = flat_trace(0.55, machines=80)
        return ExperimentSetup(config=config, trace=trace, attack_time_s=60.0)

    def _cells(self):
        return survival_grid_cells(
            [DENSE_ATTACK, SPARSE_ATTACK], ("Conv", "PS"), window_s=200.0
        )

    def test_sequential_matches_manual_loop(self):
        setup = self._setup()
        cells = self._cells()
        sweep = ScenarioSweep(setup, cells, workers=0).run()
        manual = tuple(execute_cell(setup, cell) for cell in cells)
        assert sweep.metrics == manual

    def test_parallel_matches_sequential(self):
        setup = self._setup()
        cells = self._cells()
        seq = ScenarioSweep(setup, cells, workers=0).run()
        par = ScenarioSweep(setup, cells, workers=2).run()
        assert seq.metrics == par.metrics

    def test_grid_preserves_cell_order(self):
        setup = self._setup()
        grid = ScenarioSweep(setup, self._cells()).run().grid()
        assert list(grid) == [DENSE_ATTACK.name, SPARSE_ATTACK.name]
        assert list(grid[DENSE_ATTACK.name]) == ["Conv", "PS"]

    def test_rejects_bad_cells(self):
        with pytest.raises(SimulationError):
            SweepCell(row="r", column="c", scheme="nope",
                      scenario=None, window_s=100.0)
        with pytest.raises(SimulationError):
            SweepCell(row="r", column="c", scheme="PS",
                      scenario=None, window_s=100.0, mode="latency")
        with pytest.raises(SimulationError):
            ScenarioSweep(self._setup(), [], workers=0).run()
        with pytest.raises(SimulationError):
            ScenarioSweep(self._setup(), self._cells(), workers=-1)
