"""Declarative grid-event specifications — the *what/when* of a sag.

A :class:`GridPlan` is a picklable, validated list of
:class:`GridEventSpec` dataclasses, windowed the same way attack and
fault windows are: each spec names a time window, the racks it touches
(``None`` = the whole facility), and its event-specific parameters. The
:class:`~repro.grid.injector.GridInjector` turns the plan into per-step
pipeline actions and typed :class:`~repro.sim.events.GridEvent`
publications through the windowed-plan core in :mod:`repro.plans`, which
the fault machinery shares.

Plans are deliberately dumb data — floats, ints and tuples, no
simulator handles, no numpy arrays, no randomness — so a plan can ride
inside a frozen :class:`~repro.search.space.AttackCandidate` or sweep
cell through a process pool and replay identically everywhere.

The physical model, shared by every backend:

* a **voltage sag** transfers the affected feed to battery: the utility
  can serve only ``1 - depth`` of its normal power, so the defense must
  ride the remainder through on stored energy or shed/cap the load.
  Protection derates accordingly — drawing more than the sagged feed
  supports heats the (enforcement-side) breakers, while *detection*
  keeps using nominal ratings, the same split
  :class:`~repro.faults.spec.BreakerMisrating` established;
* a **utility brownout** derates the whole facility feed the same way,
  without per-rack targeting;
* a **frequency-regulation duty** cyclically discharges a commanded
  power into the local load (behind-the-meter export) whenever the
  pack sits above its contracted floor, pre-draining the SoC slice the
  paper's defense budget silently assumed was full.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from ..errors import ConfigError, ReproError
from ..plans import WindowedPlan, WindowedSpec

__all__ = [
    "FrequencyRegulationDuty",
    "GridEventSpec",
    "GridPlan",
    "UtilityBrownout",
    "VoltageSag",
]


class GridEventSpec(WindowedSpec):
    """Base class for one declarative grid event.

    Concrete specs are frozen dataclasses carrying ``start_s``/``end_s``
    plus a ``racks`` tuple (``None`` = the whole facility). ``kind`` is
    the stable label used in :class:`~repro.sim.events.GridEvent`
    streams, journals and reports. Grid events are always windowed —
    there is no one-shot grid damage. Malformed specs raise
    :class:`~repro.errors.ConfigError`.
    """

    kind: ClassVar[str] = "grid-event"
    error: ClassVar[type[ReproError]] = ConfigError


@dataclass(frozen=True)
class VoltageSag(GridEventSpec):
    """The utility feed sags; the UPS transfers the deficit to battery.

    While the window is open the utility can serve only ``1 - depth`` of
    its normal power on the targeted racks (and, for a facility-wide
    sag, on the mid-tier and cluster feeds too). Schemes see the feed
    factor through :class:`~repro.defense.base.StepState` and raise
    battery discharge to ride the gap through; protection enforces the
    sagged feed, so a rack whose ride-through fails browns out into an
    inverse-time trip instead of drawing power that is not there.

    Attributes:
        start_s: Window start (inclusive).
        end_s: Window end (exclusive).
        depth: Fraction of the feed lost, in ``(0, 1)`` (a 0.2-deep sag
            leaves 80 % of the feed).
        racks: Affected racks; ``None`` sags the whole facility,
            including the mid-tier and cluster feeds.
    """

    kind: ClassVar[str] = "voltage-sag"

    start_s: float
    end_s: float
    depth: float
    racks: "tuple[int, ...] | None" = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.depth < 1.0:
            raise ConfigError("voltage-sag: depth must be in (0, 1)")


@dataclass(frozen=True)
class UtilityBrownout(GridEventSpec):
    """Sustained facility-wide derating of the available utility power.

    The slow sibling of :class:`VoltageSag`: the utility asks the
    facility to shave ``derate`` of its draw for the whole window.
    Always facility-wide — a brownout has no rack targeting.

    Attributes:
        start_s: Window start (inclusive).
        end_s: Window end (exclusive).
        derate: Fraction of the feed unavailable, in ``(0, 1)``.
    """

    kind: ClassVar[str] = "utility-brownout"

    start_s: float
    end_s: float
    derate: float

    #: Brownouts hit every feed; kept as a field-shaped constant so the
    #: shared windowing/overlap helpers treat all grid specs uniformly.
    racks: ClassVar[None] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.derate < 1.0:
            raise ConfigError("utility-brownout: derate must be in (0, 1)")


@dataclass(frozen=True)
class FrequencyRegulationDuty(GridEventSpec):
    """A contracted frequency-regulation duty cycle on the rack packs.

    While the window is open the pack alternates between an *on* phase —
    discharging ``power_w`` into the local load (behind-the-meter, so
    the utility draw drops by the same amount) — and an *off* phase in
    which the normal opportunistic charger refills it. Discharge is
    gated on the pack holding more than ``floor_soc``: the contract
    never drains the pack below its floor, but it *does* pre-drain the
    slice the defense budget silently assumed was full.

    Attributes:
        start_s: Window start (inclusive).
        end_s: Window end (exclusive).
        power_w: Commanded per-rack discharge power during on phases.
        period_s: Full cycle length.
        duty: On-phase fraction of the period, in ``(0, 1)``.
        floor_soc: SoC at or below which the duty stops discharging.
        racks: Enrolled racks, ``None`` for the whole fleet.
    """

    kind: ClassVar[str] = "freq-regulation"

    start_s: float
    end_s: float
    power_w: float
    period_s: float = 120.0
    duty: float = 0.5
    floor_soc: float = 0.2
    racks: "tuple[int, ...] | None" = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.power_w <= 0.0:
            raise ConfigError("freq-regulation: power_w must be positive")
        if self.period_s <= 0.0:
            raise ConfigError("freq-regulation: period_s must be positive")
        if not 0.0 < self.duty < 1.0:
            raise ConfigError("freq-regulation: duty must be in (0, 1)")
        if not 0.0 <= self.floor_soc < 1.0:
            raise ConfigError(
                "freq-regulation: floor_soc must be in [0, 1)"
            )

    def on_phase_at(self, time_s: float) -> bool:
        """Whether the duty cycle is in its discharge phase at ``time_s``.

        A pure function of the spec and the timestamp — no state — so
        every backend (and the fast-forward verifier) recomputes the
        same phase from the same clock.
        """
        if not self.active_at(time_s):
            return False
        return ((time_s - self.start_s) % self.period_s) < (
            self.duty * self.period_s
        )


@dataclass(frozen=True)
class GridPlan(WindowedPlan):
    """An ordered, validated, picklable collection of grid-event specs.

    Spec order is semantic: grid events publish in spec order within a
    step, which the differential harness asserts across backends.

    Attributes:
        specs: The grid-event specs, applied in order.
    """

    spec_type: ClassVar[type[WindowedSpec]] = GridEventSpec
    plan_name: ClassVar[str] = "grid plan"

    specs: "tuple[GridEventSpec, ...]" = field(default=())

    def label(self) -> str:
        """A compact deterministic identity label for keys and journals.

        Pure string formatting of the specs' fields — stable across
        processes and platforms, like
        :meth:`~repro.search.space.AttackCandidate.key`.
        """
        if not self.specs:
            return "grid-none"
        parts = []
        for spec in self.specs:
            tag = {
                "voltage-sag": "sag",
                "utility-brownout": "brown",
                "freq-regulation": "freg",
            }.get(spec.kind, spec.kind)
            start = spec.start_s  # type: ignore[attr-defined]
            end = spec.end_s  # type: ignore[attr-defined]
            magnitude = getattr(
                spec, "depth", getattr(spec, "derate", None)
            )
            if magnitude is None:
                magnitude = spec.power_w  # type: ignore[attr-defined]
            parts.append(
                f"{tag}{magnitude:g}@{start:g}-{end:g}".replace(".", "p")
            )
        return "grid-" + "+".join(parts)
