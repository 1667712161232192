"""Windowed, rack-targeted plans — the core shared by faults and grid events.

A *spec* is a frozen dataclass naming a time window ``[start_s, end_s)``
(or, for a one-shot spec, an instant ``at_s``), the racks it touches
(``None`` = every rack) and its own parameters. A *plan* is an ordered,
validated, picklable tuple of specs. An *injector*, owned by one
simulation, walks its plan every step: a spec whose window opens or
closes flips its active flag and publishes a typed start/clear event,
always in spec order, so event streams are deterministic and comparable
across backends.

:mod:`repro.faults` and :mod:`repro.grid` subclass the three bases here.
The subclasses supply what differs: the spec error class (a fault spec
raises :class:`~repro.errors.FaultInjectionError`, a grid spec
:class:`~repro.errors.ConfigError`), the event types, the per-kind
parameters and what an active spec does to the simulation.
"""

from __future__ import annotations

from typing import ClassVar

from .errors import ConfigError, FaultInjectionError, ReproError

__all__ = [
    "PlanInjector",
    "WindowedPlan",
    "WindowedSpec",
    "reject_overlapping_windows",
]


def reject_overlapping_windows(specs, plan_name: str) -> None:
    """Reject same-kind windowed specs whose windows and targets overlap.

    Two windowed specs of the same ``kind`` that are simultaneously
    active on a shared rack would silently compose last-writer-wins (a
    frozen SOC vector, a sag depth) instead of doing anything physical.
    Such plans are almost always authoring mistakes, so they fail
    eagerly with a :class:`~repro.errors.ConfigError` naming both
    windows. One-shot specs are exempt (no duration to overlap), and
    ``racks=None`` (every rack) conflicts with any target set.
    """
    windowed = [
        (index, spec)
        for index, spec in enumerate(specs)
        if not spec.one_shot
    ]
    for position, (i, a) in enumerate(windowed):
        for j, b in windowed[position + 1:]:
            if a.kind != b.kind:
                continue
            if not (a.start_s < b.end_s and b.start_s < a.end_s):
                continue
            racks_a = a.racks
            racks_b = b.racks
            if (
                racks_a is not None
                and racks_b is not None
                and not set(racks_a) & set(racks_b)
            ):
                continue
            raise ConfigError(
                f"{plan_name}: {a.kind} windows "
                f"[{a.start_s:g}, {a.end_s:g}) (spec {i}) and "
                f"[{b.start_s:g}, {b.end_s:g}) (spec {j}) overlap on "
                "shared racks — overlapping same-target windows compose "
                "last-writer-wins; merge them into one spec"
            )


class WindowedSpec:
    """Base class for one declarative, windowed, rack-targeted spec.

    Concrete specs are frozen dataclasses carrying ``start_s``/``end_s``
    (or ``at_s`` for one-shots) plus a ``racks`` tuple (``None`` = every
    rack; a class-level ``racks = None`` makes a spec facility-wide).
    ``kind`` is the stable label used in event streams, journals and
    reports. Construction normalises ``racks`` to a sorted unique tuple
    and checks the window; a subclass with parameters of its own checks
    them after calling ``super().__post_init__()``.
    """

    kind: ClassVar[str]
    #: One-shot specs fire once at ``at_s`` and never clear.
    one_shot: ClassVar[bool] = False
    #: Raised for a malformed spec, and for a plan holding a non-spec.
    error: ClassVar[type[ReproError]]

    def __post_init__(self) -> None:
        racks = self.racks  # type: ignore[attr-defined]
        if racks is not None:
            normalised = tuple(sorted({int(r) for r in racks}))
            # Empty and negative targets raise FaultInjectionError for
            # grid specs too: that is the class their callers catch.
            if not normalised:
                raise FaultInjectionError(
                    "racks=() targets nothing; use None for all"
                )
            if normalised[0] < 0:
                raise FaultInjectionError("rack indices must be non-negative")
            object.__setattr__(self, "racks", normalised)
        if self.one_shot:
            if self.at_s < 0.0:  # type: ignore[attr-defined]
                raise self.error(f"{self.kind}: at_s must be >= 0")
            return
        start = self.start_s  # type: ignore[attr-defined]
        if start < 0.0:
            raise self.error(f"{self.kind}: start_s must be >= 0")
        if not self.end_s > start:  # type: ignore[attr-defined]
            raise self.error(
                f"{self.kind}: window must satisfy end_s > start_s"
            )

    def active_at(self, time_s: float) -> bool:
        """Whether the spec is in force at ``time_s``."""
        if self.one_shot:
            return time_s >= self.at_s  # type: ignore[attr-defined]
        return self.start_s <= time_s < self.end_s  # type: ignore[attr-defined]

    def rack_tuple(self, racks: int) -> "tuple[int, ...]":
        """The concrete racks this spec touches in a ``racks``-wide cluster."""
        if self.racks is None:  # type: ignore[attr-defined]
            return tuple(range(racks))
        return self.racks  # type: ignore[attr-defined]

    def validate_for(self, racks: int) -> None:
        """Check the spec fits a cluster of ``racks`` racks."""
        targeted = self.racks  # type: ignore[attr-defined]
        if targeted is not None and targeted[-1] >= racks:
            raise self.error(
                f"{self.kind}: rack {targeted[-1]} outside a "
                f"{racks}-rack cluster"
            )


class WindowedPlan:
    """Base class for an ordered, validated, picklable collection of specs.

    Concrete plans are frozen dataclasses with a ``specs`` field. Spec
    order is semantic: edge events publish in spec order within a step.
    Construction checks every entry is a ``spec_type`` (raising that
    type's error) and rejects overlapping same-kind windows.
    """

    #: The spec base class this plan accepts.
    spec_type: ClassVar[type[WindowedSpec]]
    #: How errors name the plan, e.g. ``"fault plan"``.
    plan_name: ClassVar[str]

    def __post_init__(self) -> None:
        specs = tuple(self.specs)  # type: ignore[attr-defined]
        for spec in specs:
            if not isinstance(spec, self.spec_type):
                raise self.spec_type.error(
                    f"{self.plan_name} entries must be "
                    f"{self.spec_type.__name__}s, got {spec!r}"
                )
        reject_overlapping_windows(specs, self.plan_name)
        object.__setattr__(self, "specs", specs)

    def __len__(self) -> int:
        return len(self.specs)  # type: ignore[attr-defined]

    def validate_for(self, racks: int) -> None:
        """Check every spec fits a cluster of ``racks`` racks."""
        for spec in self.specs:  # type: ignore[attr-defined]
            spec.validate_for(racks)

    def edge_times(self) -> "tuple[float, ...]":
        """Every instant the set of active specs can change, sorted.

        Window starts, window ends *and* one-shot ``at_s`` instants
        (which :meth:`windows` deliberately excludes). The fast-forward
        guard refuses to jump across any of these. Changes *inside* an
        open window (a regulation duty's phase flips) are not edges:
        the guards never jump while a window is open.
        """
        times: "set[float]" = set()
        for spec in self.specs:  # type: ignore[attr-defined]
            if spec.one_shot:
                times.add(spec.at_s)
            else:
                times.add(spec.start_s)
                times.add(spec.end_s)
        return tuple(sorted(times))

    def windows(self) -> "list[tuple[float, float]]":
        """The windowed specs' ``(start_s, end_s)`` pairs, in spec order.

        One-shot specs are excluded — they have no duration. Used by the
        runner to refine the step schedule around plan activity, the
        same way attack windows are.
        """
        return [
            (spec.start_s, spec.end_s)
            for spec in self.specs  # type: ignore[attr-defined]
            if not spec.one_shot
        ]


class PlanInjector:
    """One simulation's injector for one plan: active flags and edge walk.

    A subclass defines its pipeline stage, which calls
    :meth:`_walk_edges` with the step time, and :meth:`_edge_event`,
    which builds its start/clear event. It may override the
    :meth:`_on_rise`/:meth:`_on_fall` hooks, which run before an edge's
    event publishes.

    Args:
        plan: The declarative plan; validated against the cluster size.
        sim: The owning simulation; the walk needs only its
            ``cluster.racks`` and its event ``bus``.
    """

    def __init__(self, plan: WindowedPlan, sim) -> None:
        racks = sim.cluster.racks
        plan.validate_for(racks)
        self._plan = plan
        self._sim = sim
        self._racks = racks
        self._active = [False] * len(plan)

    def _walk_edges(self, time_s: float) -> bool:
        """Flip the flags of specs whose window opened or closed at
        ``time_s``, in spec order, running the hook and publishing the
        event of each edge. Returns whether any edge occurred."""
        edges = False
        for index, spec in enumerate(self._plan.specs):  # type: ignore[attr-defined]
            active = spec.active_at(time_s)
            if active == self._active[index]:
                continue
            edges = True
            self._active[index] = active
            if active:
                self._on_rise(index, spec, time_s)
            else:
                self._on_fall(index)
            self._sim.bus.publish(self._edge_event(
                active, time_s, spec.kind, spec.rack_tuple(self._racks)
            ))
        return edges

    def _edge_event(
        self, started: bool, time_s: float, kind: str,
        racks: "tuple[int, ...]",
    ):
        """The start (``started``) or clear event of one edge."""
        raise NotImplementedError

    def _on_rise(self, index: int, spec: WindowedSpec, time_s: float) -> None:
        """Rising-edge hook for the spec at position ``index``."""

    def _on_fall(self, index: int) -> None:
        """Falling-edge hook for the spec at position ``index``."""

    @property
    def plan(self):
        """The driving plan."""
        return self._plan

    @property
    def any_active(self) -> bool:
        """True while any spec is in force."""
        return any(self._active)

    def next_edge_after(self, time_s: float) -> float:
        """Earliest plan edge strictly after ``time_s`` (``inf`` if none).

        Includes one-shot ``at_s`` instants, unlike the runner-facing
        :meth:`WindowedPlan.windows`.
        """
        upcoming = [
            t for t in self._plan.edge_times() if t > time_s + 1e-9
        ]
        return min(upcoming, default=float("inf"))

    def active_specs(self) -> "tuple[int, ...]":
        """Positions of currently-active specs (diagnostics/tests)."""
        return tuple(
            index for index, on in enumerate(self._active) if on
        )
