"""Segmented run pipeline: one call for two-timescale simulations.

The paper's evaluation is inherently two-timescale — month-long
background runs at the 5-minute trace interval with sub-second attack
windows embedded inside. Instead of hand-stitching a coarse run and a
fine run (and re-deriving state in between), a :class:`Runner` executes a
schedule of :class:`Segment` objects on one
:class:`~repro.sim.datacenter.DataCenterSimulation`, automatically
refining the step to :data:`ATTACK_DT_S` inside declared
:class:`AttackWindow` spans. Battery SOC, breaker thermal state, meters
and scheme state all carry across segment boundaries because the
simulation object itself is never rebuilt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .datacenter import DataCenterSimulation, SimResult

#: Fine simulation step during attack windows (seconds).
ATTACK_DT_S = 0.5


@dataclass(frozen=True)
class Segment:
    """One homogeneous stretch of a simulation schedule.

    Attributes:
        start_s: Segment start time.
        end_s: Segment end time (exclusive).
        dt: Step length inside the segment.
        record_every: Record channels every N steps within the segment.
    """

    start_s: float
    end_s: float
    dt: float
    record_every: int = 1

    def __post_init__(self) -> None:
        if self.end_s <= self.start_s:
            raise SimulationError(
                f"segment end {self.end_s} not after start {self.start_s}"
            )
        if self.dt <= 0.0:
            raise SimulationError(f"segment dt must be positive, got {self.dt}")
        if self.record_every < 1:
            raise SimulationError("record_every must be at least 1")

    @property
    def duration_s(self) -> float:
        """Segment length in seconds."""
        return self.end_s - self.start_s


@dataclass(frozen=True)
class AttackWindow:
    """A declared span that must run at the fine (attack) step.

    Attributes:
        start_s: Window start time.
        end_s: Window end time.
    """

    start_s: float
    end_s: float

    def __post_init__(self) -> None:
        if self.end_s <= self.start_s:
            raise SimulationError(
                f"window end {self.end_s} not after start {self.start_s}"
            )


def _merge_windows(
    windows: "Iterable[AttackWindow]",
) -> "list[AttackWindow]":
    """Sort windows and merge overlapping/adjacent spans."""
    ordered = sorted(windows, key=lambda w: w.start_s)
    merged: list[AttackWindow] = []
    for window in ordered:
        if merged and window.start_s <= merged[-1].end_s + 1e-9:
            last = merged[-1]
            merged[-1] = AttackWindow(
                last.start_s, max(last.end_s, window.end_s)
            )
        else:
            merged.append(window)
    return merged


def _snap_down(value: float, origin: float, grid: float) -> float:
    return origin + math.floor((value - origin) / grid + 1e-9) * grid


def _snap_up(value: float, origin: float, grid: float) -> float:
    return origin + math.ceil((value - origin) / grid - 1e-9) * grid


def build_schedule(
    start_s: float,
    end_s: float,
    coarse_dt: float,
    attack_windows: "Sequence[AttackWindow]" = (),
    fine_dt: float = ATTACK_DT_S,
    coarse_record_every: int = 1,
    fine_record_every: int = 1,
) -> "list[Segment]":
    """Split ``[start_s, end_s)`` into coarse segments with fine windows.

    Window boundaries are snapped outward to the coarse grid anchored at
    ``start_s`` (start down, end up), so every coarse segment covers a
    whole number of coarse steps; the conservative direction means the
    fine step covers slightly *more* than the declared window, never
    less. Windows overlapping each other are merged; windows outside the
    run span are clipped (and dropped when nothing remains).
    """
    if end_s <= start_s:
        raise SimulationError(f"end {end_s} not after start {start_s}")
    if fine_dt > coarse_dt:
        raise SimulationError(
            f"fine dt {fine_dt} must not exceed coarse dt {coarse_dt}"
        )
    segments: list[Segment] = []
    cursor = start_s
    for window in _merge_windows(attack_windows):
        lo = max(_snap_down(window.start_s, start_s, coarse_dt), start_s)
        hi = min(_snap_up(window.end_s, start_s, coarse_dt), end_s)
        if hi <= lo or hi <= cursor:
            continue
        lo = max(lo, cursor)
        if lo > cursor + 1e-9:
            segments.append(
                Segment(cursor, lo, coarse_dt, coarse_record_every)
            )
        segments.append(Segment(lo, hi, fine_dt, fine_record_every))
        cursor = hi
    if cursor < end_s - 1e-9:
        segments.append(Segment(cursor, end_s, coarse_dt, coarse_record_every))
    return segments


class Runner:
    """Executes segmented schedules on one data-center simulation.

    The replacement for the manual two-run attack workflow: declare the
    attack windows, call :meth:`run` once, and the runner alternates
    coarse background segments with fine attack segments on the same
    simulation state.

    Args:
        sim: The simulation to drive (state persists across segments).
        coarse_dt: Step length outside attack windows (typically the
            trace interval).
        fine_dt: Step length inside attack windows.
        coarse_record_every: Recording cadence for coarse segments.
        fine_record_every: Recording cadence for fine segments.
    """

    def __init__(
        self,
        sim: "DataCenterSimulation",
        coarse_dt: float,
        fine_dt: float = ATTACK_DT_S,
        coarse_record_every: int = 1,
        fine_record_every: int = 1,
    ) -> None:
        if coarse_dt <= 0.0:
            raise SimulationError("coarse dt must be positive")
        self._sim = sim
        self._coarse_dt = coarse_dt
        self._fine_dt = fine_dt
        self._coarse_record_every = coarse_record_every
        self._fine_record_every = fine_record_every

    @property
    def sim(self) -> "DataCenterSimulation":
        """The driven simulation."""
        return self._sim

    def schedule(
        self,
        start_s: float,
        end_s: float,
        attack_windows: "Sequence[AttackWindow]" = (),
    ) -> "list[Segment]":
        """The segment schedule :meth:`run` would execute.

        The simulation's fault-plan and grid-plan windows (if any) are
        merged in as additional fine-step spans, so fault edges and
        grid disturbances land on sub-second steps just like attack
        activity does.
        """
        return build_schedule(
            start_s,
            end_s,
            self._coarse_dt,
            [*attack_windows, *self._sim.plan_windows()],
            fine_dt=self._fine_dt,
            coarse_record_every=self._coarse_record_every,
            fine_record_every=self._fine_record_every,
        )

    def run(
        self,
        start_s: float,
        end_s: float,
        attack_windows: "Sequence[AttackWindow]" = (),
        stop_on_trip: bool = False,
    ) -> "SimResult":
        """Execute the schedule and return one merged result."""
        return self._sim.run_segments(
            self.schedule(start_s, end_s, attack_windows),
            stop_on_trip=stop_on_trip,
        )

    def run_prefix(
        self,
        start_s: float,
        end_s: float,
        pause_at_s: float,
        attack_windows: "Sequence[AttackWindow]" = (),
        stop_on_trip: bool = False,
    ) -> "SimResult":
        """Run the schedule up to ``pause_at_s``, resumably.

        Builds the exact schedule :meth:`run` would execute, then pauses
        at ``pause_at_s`` via
        :meth:`~repro.sim.datacenter.DataCenterSimulation.run_prefix`, so
        a later ``resume_segments`` (possibly on a restored snapshot)
        completes the identical schedule.
        """
        return self._sim.run_prefix(
            self.schedule(start_s, end_s, attack_windows),
            pause_at_s,
            stop_on_trip=stop_on_trip,
        )
