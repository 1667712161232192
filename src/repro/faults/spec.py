"""Declarative fault specifications — the *what/when/where* of a fault.

A :class:`FaultPlan` is a picklable, validated list of
:class:`FaultSpec` dataclasses, windowed the same way attack windows
are: each spec names a time window (or an instant, for one-shot physical
damage), the racks it touches, and its fault-specific parameters. The
:class:`~repro.faults.injector.FaultInjector` turns the plan into
per-step pipeline actions and typed
:class:`~repro.sim.events.FaultEvent` publications.

Plans are deliberately dumb data: no simulator handles, no numpy arrays
— just floats, ints and tuples — so a plan can ride inside a frozen
``SweepCell`` through a process pool and derive everything random from
the cell seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from ..errors import FaultInjectionError, ReproError
from ..plans import WindowedPlan, WindowedSpec, reject_overlapping_windows

__all__ = [
    "BatteryFade",
    "BreakerMisrating",
    "FaultPlan",
    "FaultSpec",
    "SocBias",
    "SocFreeze",
    "TelemetryDropout",
    "TelemetryNoise",
    "UdebStuckOpen",
    "VdebCommLoss",
    "reject_overlapping_windows",
]


class FaultSpec(WindowedSpec):
    """Base class for one declarative fault.

    Concrete specs are frozen dataclasses carrying ``start_s``/``end_s``
    (or ``at_s`` for one-shots) plus a ``racks`` tuple (``None`` = every
    rack). ``kind`` is the stable label used in :class:`FaultEvent`
    streams, journals and reports. Malformed specs raise
    :class:`~repro.errors.FaultInjectionError`.
    """

    kind: ClassVar[str] = "fault"
    error: ClassVar[type[ReproError]] = FaultInjectionError


@dataclass(frozen=True)
class TelemetryDropout(FaultSpec):
    """Power-meter readings stop arriving for the targeted racks.

    The defense layer's :class:`~repro.defense.telemetry.TelemetryView`
    holds the last value; once the TTL expires the schemes fail safe.

    Attributes:
        start_s: Window start (inclusive).
        end_s: Window end (exclusive).
        racks: Affected racks, ``None`` for a full blackout.
    """

    kind: ClassVar[str] = "telemetry-dropout"

    start_s: float
    end_s: float
    racks: "tuple[int, ...] | None" = None


@dataclass(frozen=True)
class TelemetryNoise(FaultSpec):
    """Gaussian noise on the metered rack averages (flaky sensors).

    Noise is drawn from an RNG seeded by the plan seed and the spec's
    position, so it is identical run-to-run and backend-to-backend.

    Attributes:
        start_s: Window start (inclusive).
        end_s: Window end (exclusive).
        sigma_w: Noise standard deviation in watts.
        racks: Affected racks, ``None`` for all.
    """

    kind: ClassVar[str] = "telemetry-noise"

    start_s: float
    end_s: float
    sigma_w: float
    racks: "tuple[int, ...] | None" = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.sigma_w <= 0.0:
            raise FaultInjectionError("telemetry-noise: sigma_w must be > 0")


@dataclass(frozen=True)
class SocBias(FaultSpec):
    """The SOC sensor reads offset by ``bias`` (drifted calibration).

    Attributes:
        start_s: Window start (inclusive).
        end_s: Window end (exclusive).
        bias: Added to the sensed SOC; the result clips to ``[0, 1]``.
        racks: Affected racks, ``None`` for all.
    """

    kind: ClassVar[str] = "soc-bias"

    start_s: float
    end_s: float
    bias: float
    racks: "tuple[int, ...] | None" = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if not -1.0 <= self.bias <= 1.0:
            raise FaultInjectionError("soc-bias: bias must be in [-1, 1]")


@dataclass(frozen=True)
class SocFreeze(FaultSpec):
    """The SOC sensor freezes at whatever it read when the fault began.

    The classic stuck-sensor failure: the controller keeps allocating
    from a reading that no longer moves.

    Attributes:
        start_s: Window start (inclusive).
        end_s: Window end (exclusive).
        racks: Affected racks, ``None`` for all.
    """

    kind: ClassVar[str] = "soc-freeze"

    start_s: float
    end_s: float
    racks: "tuple[int, ...] | None" = None


@dataclass(frozen=True)
class VdebCommLoss(FaultSpec):
    """The vDEB controller loses its link to the targeted racks.

    Unreachable racks get no pool-duty allocation and keep their last
    soft limit; their local hardware (battery, supercap, breaker) keeps
    acting on real electrical state.

    Attributes:
        start_s: Window start (inclusive).
        end_s: Window end (exclusive).
        racks: Unreachable racks, ``None`` for a total controller outage.
    """

    kind: ClassVar[str] = "vdeb-comm-loss"

    start_s: float
    end_s: float
    racks: "tuple[int, ...] | None" = None


@dataclass(frozen=True)
class BatteryFade(FaultSpec):
    """One-shot permanent capacity loss (string damage, dead cell).

    Fires once at ``at_s``; the fleet's capacity shrinks by ``fade`` and
    any charge above the new caps is lost. Never "clears" — damage is
    physical.

    Attributes:
        at_s: The instant the damage lands.
        fade: Fraction of current capacity lost, in ``[0, 1)``.
        racks: Damaged racks, ``None`` for all.
    """

    kind: ClassVar[str] = "battery-fade"
    one_shot: ClassVar[bool] = True

    at_s: float
    fade: float
    racks: "tuple[int, ...] | None" = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.fade < 1.0:
            raise FaultInjectionError("battery-fade: fade must be in (0, 1)")

    @classmethod
    def dead_string(
        cls, at_s: float, racks: "tuple[int, ...]", strings: int = 4
    ) -> "BatteryFade":
        """A dead cell takes one of ``strings`` series strings offline."""
        if strings <= 1:
            raise FaultInjectionError("dead_string needs strings >= 2")
        return cls(at_s=at_s, fade=1.0 / strings, racks=racks)


@dataclass(frozen=True)
class UdebStuckOpen(FaultSpec):
    """The uDEB ORing FET fails open: no shaving, spikes hit the feed.

    Attributes:
        start_s: Window start (inclusive).
        end_s: Window end (exclusive).
        racks: Affected racks, ``None`` for all.
    """

    kind: ClassVar[str] = "udeb-stuck-open"

    start_s: float
    end_s: float
    racks: "tuple[int, ...] | None" = None


@dataclass(frozen=True)
class BreakerMisrating(FaultSpec):
    """Breakers enforce ``factor`` times their nominal rating.

    Models mis-commissioned or drifted protection: ``factor < 1`` trips
    early on legitimate load, ``factor > 1`` lets real overloads ride.
    Overload *detection* (the effective-attack metric) keeps using the
    nominal rating — the fault is in the protection hardware, not in
    what counts as an attack.

    Attributes:
        start_s: Window start (inclusive).
        end_s: Window end (exclusive).
        factor: Multiplier on the nominal trip rating, in ``(0, 4]``.
        racks: Affected rack breakers; ``None`` means every rack breaker
            *and* the cluster PDU breaker.
    """

    kind: ClassVar[str] = "breaker-misrating"

    start_s: float
    end_s: float
    factor: float
    racks: "tuple[int, ...] | None" = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.factor <= 4.0:
            raise FaultInjectionError(
                "breaker-misrating: factor must be in (0, 4]"
            )


@dataclass(frozen=True)
class FaultPlan(WindowedPlan):
    """An ordered, validated, picklable collection of fault specs.

    Spec order is semantic: fault events publish in spec order within a
    step, and the noise RNG streams key on spec position.

    Attributes:
        specs: The fault specs, applied in order.
        seed: Base seed for the plan's random streams (noise); ``None``
            defers to the simulation's configured seed.
    """

    spec_type: ClassVar[type[WindowedSpec]] = FaultSpec
    plan_name: ClassVar[str] = "fault plan"

    specs: "tuple[FaultSpec, ...]" = field(default=())
    seed: "int | None" = None
