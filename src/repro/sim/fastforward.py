"""Quiescent-segment fast-forward: skip proven-periodic stretches.

Long background segments of a run are usually *quiescent*: demand sits
under every soft limit, batteries rest at their fixed point, nothing
trips and nothing is published. Stepping those stretches one tick at a
time is pure overhead — every step recomputes exactly the state it
started from. This module detects such stretches and jumps them in one
vectorized block, **bit-identically** to per-step execution.

The proof obligation is discharged empirically, never assumed:

1. **Probe.** At every management-period boundary (``P`` steps, where
   ``P * dt`` equals the management interval) the controller fingerprints
   the complete evolving simulation state — physics, control, meters,
   sensors, faults — via :func:`state_fingerprint`.
2. **Detect.** A fingerprint equal to the previous boundary's (lag-1
   match) suggests the dynamics became periodic with period ``P``.
3. **Capture.** The controller then *executes* one full capture block of
   ``C = lcm(P, record_every)`` steps normally, recording every
   externally-visible effect: throughput-work addends, recorder rows and
   whether any event was published.
4. **Verify.** At the end of the block the fingerprint must equal the
   block-start fingerprint and the block must be event-free. Only then is
   the block *proven*: the simulation is a fixed point of the block map,
   so every future block — until an external input changes — replays the
   captured effects verbatim.
5. **Jump.** Guarded by conservative caps (trace constancy, attacker
   onset, fault-plan edges, tripped breakers, segment/limit end), the
   controller replays ``k`` whole blocks: work addends are re-added in
   the original order (float addition is order-sensitive), recorder rows
   are tiled in bulk with freshly derived timestamps, and the engine
   clock advances without firing hooks. Anything unclear refuses the
   jump and falls back to per-step execution — correctness never rides
   on a heuristic.

Schemes opt in through ``DefenseScheme.ff_eligible``; vDEB-family
schemes opt out because their equalisation dynamics never become exactly
periodic (a lag match could only be a hash collision).
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .datacenter import DataCenterSimulation, SimResult, StepContext
    from .runner import Segment

__all__ = ["FastForwardStats", "SegmentFastForward", "state_fingerprint"]


def _feed(digest, value) -> None:
    """Feed one value into the hash with an unambiguous type tag."""
    if value is None:
        digest.update(b"\x00N")
    elif isinstance(value, (bool, np.bool_)):
        digest.update(b"\x00T" if value else b"\x00F")
    elif isinstance(value, (int, np.integer)):
        digest.update(b"\x00i" + struct.pack("<q", int(value)))
    elif isinstance(value, (float, np.floating)):
        # Raw IEEE-754 bits: 0.0 vs -0.0 and NaN payloads all count as
        # distinct state, which is exactly the bitwise contract.
        digest.update(b"\x00f" + struct.pack("<d", float(value)))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        digest.update(b"\x00s" + struct.pack("<q", len(raw)) + raw)
    elif isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        head = f"{arr.dtype.str}|{arr.shape}".encode("utf-8")
        digest.update(b"\x00a" + struct.pack("<q", len(head)) + head)
        digest.update(arr.tobytes())
    elif isinstance(value, dict):
        digest.update(b"\x00d" + struct.pack("<q", len(value)))
        for key in sorted(value, key=str):
            _feed(digest, str(key))
            _feed(digest, value[key])
    elif isinstance(value, (list, tuple)):
        digest.update(b"\x00l" + struct.pack("<q", len(value)))
        for item in value:
            _feed(digest, item)
    else:
        raise SimulationError(
            f"cannot fingerprint a {type(value).__name__} in ff_state"
        )


def state_fingerprint(state: dict) -> bytes:
    """Canonical SHA-256 digest of a nested ``ff_state`` dict.

    Dict keys are visited in sorted order, floats hash by their IEEE-754
    bit pattern and arrays by dtype, shape and raw bytes, so two digests
    are equal exactly when the states are bitwise equal (up to hash
    collision, which for SHA-256 is not a practical concern).
    """
    digest = hashlib.sha256()
    _feed(digest, state)
    return digest.digest()


@dataclass
class FastForwardStats:
    """What the fast-forward layer did across a simulation's lifetime.

    Attributes:
        probes: Boundary fingerprints computed.
        lag_matches: Lag-1 fingerprint matches (capture triggers).
        captures: Capture blocks started.
        verified_blocks: Captures that passed end-of-block verification.
        jumps: Block jumps performed.
        steps_skipped: Total steps advanced without per-step execution.
        refused_jumps: Jump opportunities declined by a guard (trace
            change ahead, attacker onset, fault edge, tripped breaker,
            or no whole block of room left).
    """

    probes: int = 0
    lag_matches: int = 0
    captures: int = 0
    verified_blocks: int = 0
    jumps: int = 0
    steps_skipped: int = 0
    refused_jumps: int = 0


@dataclass
class _CapturedStep:
    """Externally-visible effects of one executed step of a block."""

    delivered_inc: float
    demanded_inc: float
    recorded: bool
    scalars: "dict[str, float] | None"
    vectors: "dict[str, np.ndarray] | None"


@dataclass
class _VerifiedBlock:
    """A proven block: its fixed-point fingerprint and captured effects."""

    fp: bytes
    anchor_time_s: float
    steps: "list[_CapturedStep]"


class SegmentFastForward:
    """Per-segment fast-forward state machine.

    One instance drives one :class:`~repro.sim.runner.Segment` of one
    run. ``begin_step`` is called before the pipeline executes a step;
    a non-zero return means the controller already replayed that many
    steps' effects and the caller must advance the clock past them.
    ``observe`` is called after each executed step so capture blocks can
    record their effects.

    Args:
        sim: The owning simulation.
        segment: The segment being executed.
        result: The accumulating run result (work integrals, recorder,
            event stream — the event count doubles as the block's
            event-free check).
        limit_s: Optional early end (a paused prefix); jumps never cross
            it even when the segment nominally continues.
    """

    def __init__(
        self,
        sim: "DataCenterSimulation",
        segment: "Segment",
        result: "SimResult",
        limit_s: "float | None" = None,
    ) -> None:
        self._sim = sim
        self._segment = segment
        self._result = result
        self._stats = sim.fast_forward_stats
        dt = segment.dt
        mgmt = sim.management_interval_s
        period = int(round(mgmt / dt)) if dt <= mgmt else 0
        # The probe grid must tile the management interval exactly;
        # otherwise the meter publication pattern has no period-P
        # structure and probing is wasted work.
        aligned = period >= 1 and abs(period * dt - mgmt) <= 1e-9 * mgmt
        self.enabled = bool(aligned and sim.scheme.ff_eligible)
        self._period = max(period, 1)
        self._block = math.lcm(self._period, segment.record_every)
        end_s = segment.end_s if limit_s is None else min(segment.end_s, limit_s)
        self._total_steps = max(
            0, math.ceil((end_s - segment.start_s) / dt - 1e-9)
        )
        self._last_fp: "bytes | None" = None
        self._capture: "list[_CapturedStep] | None" = None
        self._capture_fp: "bytes | None" = None
        self._capture_start = 0
        self._capture_time_s = 0.0
        self._capture_events = 0
        self._verified: "_VerifiedBlock | None" = None
        # Probe back-off: a stretch that keeps changing state at every
        # boundary (an active attack, a draining battery) will not
        # suddenly prove periodic, so after a run of mismatches probing
        # thins out to every PROBE_STRIDE-th boundary. Sound because a
        # lag match is only a *trigger* — the capture/verify pass is the
        # actual proof, and it is unaffected by how rarely we look.
        self._miss_streak = 0

    # ------------------------------------------------------------------ #
    # Hook-side API                                                       #
    # ------------------------------------------------------------------ #

    #: Consecutive lag mismatches before probing thins out.
    PROBE_BACKOFF = 4
    #: Boundary stride while backed off.
    PROBE_STRIDE = 8

    def begin_step(self, step_index: int, time_s: float) -> int:
        """Probe/verify/jump before the pipeline runs ``step_index``.

        Returns the number of steps skipped (their effects already
        replayed), or 0 to execute the step normally.
        """
        if not self.enabled or step_index % self._period != 0:
            return 0
        if (
            self._capture is None
            and self._verified is None
            and self._miss_streak >= self.PROBE_BACKOFF
            and (step_index // self._period) % self.PROBE_STRIDE != 0
        ):
            return 0
        fp = state_fingerprint(self._sim.ff_state(time_s))
        self._stats.probes += 1
        if (
            self._capture is not None
            and step_index == self._capture_start + self._block
        ):
            clean = (
                len(self._result.events) == self._capture_events
                and fp == self._capture_fp
                and len(self._capture) == self._block
            )
            if clean:
                self._verified = _VerifiedBlock(
                    fp=fp,
                    anchor_time_s=self._capture_time_s,
                    steps=self._capture,
                )
                self._stats.verified_blocks += 1
            self._capture = None
            self._capture_fp = None
        if self._verified is not None and fp == self._verified.fp:
            skipped = self._try_jump(step_index, time_s)
            if skipped:
                return skipped
        if (
            self._capture is None
            and self._verified is None
            and self._last_fp is not None
        ):
            if fp == self._last_fp:
                self._stats.lag_matches += 1
                self._miss_streak = 0
                if step_index + self._block <= self._total_steps:
                    self._capture = []
                    self._capture_fp = fp
                    self._capture_start = step_index
                    self._capture_time_s = time_s
                    self._capture_events = len(self._result.events)
                    self._stats.captures += 1
            else:
                self._miss_streak += 1
        self._last_fp = fp
        return 0

    def observe(self, ctx: "StepContext") -> None:
        """Record an executed step's effects while a capture is open."""
        if self._capture is None or len(self._capture) >= self._block:
            return
        if ctx.record:
            scalars = dict(ctx.row_scalars or {})
            # Timestamps are re-derived at replay time; everything else
            # in the row is state-determined and therefore periodic.
            scalars.pop("time_s", None)
            vectors = {
                name: np.array(vec, dtype=float, copy=True)
                for name, vec in (ctx.row_vectors or {}).items()
            }
        else:
            scalars = None
            vectors = None
        self._capture.append(
            _CapturedStep(
                delivered_inc=ctx.delivered_inc,
                demanded_inc=ctx.demanded_inc,
                recorded=ctx.record,
                scalars=scalars,
                vectors=vectors,
            )
        )

    # ------------------------------------------------------------------ #
    # Jump machinery                                                      #
    # ------------------------------------------------------------------ #

    def _try_jump(self, step_index: int, time_s: float) -> int:
        """Jump as many whole blocks as the guards allow; 0 on refusal."""
        sim = self._sim
        block = self._verified
        assert block is not None
        dt = self._segment.dt
        block_s = self._block * dt
        k = (self._total_steps - step_index) // self._block
        if k <= 0:
            return 0  # tail shorter than a block: not a guard refusal
        # The replay span (and the present) must sit inside the trace
        # span the block was proven in — a workload change invalidates
        # the captured effects even if the state has not diverged yet.
        horizon = sim.trace.constant_until(block.anchor_time_s)
        if math.isfinite(horizon):
            k = min(k, int(math.floor((horizon - time_s) / block_s + 1e-9)))
            if k <= 0:
                self._verified = None
                self._stats.refused_jumps += 1
                return 0
        if sim.attacker is not None:
            # Pre-onset the attacker is a bitwise no-op; the landing step
            # (and everything after) executes it normally.
            onset = sim.attacker.driver.config.start_s
            k = min(k, int(math.floor((onset - time_s) / block_s + 1e-9)))
        for injector in (sim.fault_injector, sim.grid_injector):
            if injector is None:
                continue
            # Hard guard: quiescent replay never leapfrogs a fault or
            # grid window. An open window refuses outright (noise
            # streams advance and duty phases flip inside it); a future
            # edge caps the jump. Probe from one step back: an edge
            # landing exactly on the current step has not been applied
            # yet (the injector stages run after this hook), so it must
            # block the jump rather than slip past the strictly-after
            # edge query.
            if injector.any_active:
                self._stats.refused_jumps += 1
                return 0
            edge = injector.next_edge_after(time_s - dt)
            if math.isfinite(edge):
                k = min(k, int(math.floor((edge - time_s) / block_s + 1e-9)))
        if sim.breakers.any_tripped:
            self._stats.refused_jumps += 1
            return 0
        if k <= 0:
            self._stats.refused_jumps += 1
            return 0
        self._replay(step_index, k)
        skipped = k * self._block
        sim.ff_shift_times(skipped * dt)
        self._stats.jumps += 1
        self._stats.steps_skipped += skipped
        return skipped

    def _replay(self, step_index: int, blocks: int) -> None:
        """Apply ``blocks`` repetitions of the proven block's effects."""
        segment = self._segment
        dt = segment.dt
        assert self._verified is not None
        steps = self._verified.steps
        result = self._result
        # Work integrals replay as the same sequence of float additions
        # per-step execution would perform — addition order is part of
        # the bitwise contract.
        for _ in range(blocks):
            for captured in steps:
                result.delivered_work += captured.delivered_inc
                result.demanded_work += captured.demanded_inc
        recorded = [
            (offset, captured)
            for offset, captured in enumerate(steps)
            if captured.recorded
        ]
        if not recorded:
            return
        rec = result.recorder
        # Timestamps are re-derived exactly as the engine derives them
        # (start + step * dt with an integer step), so replayed rows are
        # bitwise identical to executed ones.
        times = np.array(
            [
                segment.start_s + (step_index + offset + m * self._block) * dt
                for m in range(blocks)
                for offset, _ in recorded
            ]
        )
        rec.append_block("time_s", times)
        first = recorded[0][1]
        assert first.scalars is not None and first.vectors is not None
        for name in first.scalars:
            values = np.array([c.scalars[name] for _, c in recorded])
            rec.append_block(name, np.tile(values, blocks))
        for name in first.vectors:
            matrix = np.stack([c.vectors[name] for _, c in recorded])
            rec.append_block(name, np.tile(matrix, (blocks, 1)))
