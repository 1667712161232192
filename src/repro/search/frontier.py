"""Pruned worst-case frontier search over an attack space.

:class:`FrontierSearch` finds the attack a defense scheme handles
*worst* — the minimum survival time over an :class:`AttackSpace` — while
doing far less simulation than evaluating every candidate over the full
observation window. Its pruning is **sound by construction**, which is
the property the falsification suite attacks:

* Candidates are evaluated in escalating *probe rounds*: prefixes of the
  full window on the same ``dt`` grid, anchored at the calibrated attack
  time. A run that trips inside a probe window stopped on that trip, and
  the full-window run executes the identical step sequence up to it —
  the probe metric is therefore the candidate's **exact** survival time,
  bit-for-bit.
* A censored probe (no trip anywhere in the executed steps) yields a
  sound **lower bound**: any trip the full window could produce lies at
  or beyond the probe end, so the true survival is at least
  ``probe_end - onset`` — exactly ``survival_or_window()`` of the probe.
* After each round the *incumbent* is the minimum over exact metrics
  resolved so far. A censored candidate is pruned iff its bound is
  **strictly** greater than the incumbent: its exact metric can then
  neither lower the minimum nor tie it, so the pruned search returns the
  identical frontier — minimum value *and* full argmin set — as
  exhaustive evaluation. Rounds are synchronous (evaluate, then update
  the incumbent, then prune), so the outcome is independent of batch
  grouping and evaluation backend.

Evaluation itself reuses the repository's fast paths: flat candidates
(no PDU placement) batch through the cohort backend, and placement
candidates fork from one shared benign-prefix snapshot per search,
re-clipped per probe horizon via
:func:`~repro.sim.datacenter.truncate_snapshot_schedule`. Both paths are
bit-identical to a straight ``run_survival(backend="vectorized")`` of
the same candidate, so *where* a metric was computed never changes its
bits.

Progress is observable through typed events on an
:class:`~repro.sim.events.EventBus` and durable through an append-only
JSONL journal with the same resume contract as
:class:`~repro.experiments.sweep.ScenarioSweep`: each journalled outcome
records the round it resolved in, so a resumed search rebuilds every
per-round incumbent — and therefore every pruning decision —
bit-identically.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Sequence

from ..defense import SCHEMES
from ..errors import SearchError
from ..experiments.common import (
    SURVIVAL_WINDOW_S,
    CohortMember,
    ExperimentSetup,
    prepare_survival_prefix,
    resume_survival_from_snapshot,
    run_survival,
    run_survival_cohort,
)
from ..experiments.sweep import repair_jsonl_tail
from ..sim.datacenter import SimResult, SimSnapshot, truncate_snapshot_schedule
from ..sim.events import EventBus
from ..sim.runner import ATTACK_DT_S
from .events import CandidateEvaluated, FrontierUpdated
from .space import AttackCandidate, AttackSpace

__all__ = [
    "CandidateOutcome",
    "FrontierResult",
    "FrontierSearch",
    "candidate_fingerprint",
]


def candidate_fingerprint(
    candidate: AttackCandidate, scheme: str, window_s: float, dt: float
) -> str:
    """A stable digest of one evaluation's full configuration.

    Journals store this next to every entry so resume can prove the
    journal belongs to the search being resumed; frozen-dataclass
    ``repr`` round-trips floats exactly, so identical evaluations
    fingerprint identically across processes and platforms.
    """
    text = repr((candidate, scheme, window_s, dt))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class CandidateOutcome:
    """How one candidate resolved.

    Attributes:
        index: Position in the space's enumeration order.
        key: The candidate's stable identity label.
        status: ``"exact"`` (full-fidelity survival metric) or
            ``"pruned"`` (eliminated on a sound lower bound).
        survival_s: The exact metric, or the bound pruning fired on.
        round_index: Probe round in which the candidate resolved.
    """

    index: int
    key: str
    status: str
    survival_s: float
    round_index: int


@dataclass(frozen=True)
class FrontierResult:
    """Outcome of one frontier search.

    Attributes:
        scheme: Defense scheme the space was searched against.
        window_s: Full observation window.
        dt: Simulation step.
        outcomes: Every resolved candidate, in enumeration order.
        worst_survival_s: The frontier — minimum exact survival found.
        worst: The argmin set (exact outcomes at the minimum), in
            enumeration order; ties are preserved, never broken.
        cells_run: Simulation cells actually executed (probe and full
            runs, counting each cohort member once). Deterministic for
            a given search configuration.
        early_stopped: True when ``stop_below_s`` ended the search
            before the space was exhausted (tuning inner-loop mode);
            ``worst_survival_s`` is then still an exact metric of some
            candidate, hence a valid *upper* bound on the frontier.
    """

    scheme: str
    window_s: float
    dt: float
    outcomes: "tuple[CandidateOutcome, ...]"
    worst_survival_s: float
    worst: "tuple[CandidateOutcome, ...]"
    cells_run: int
    early_stopped: bool = False

    def exact_metrics(self) -> "dict[str, float]":
        """``{candidate key: exact survival}`` for resolved-exact cells."""
        return {
            o.key: o.survival_s
            for o in self.outcomes
            if o.status == "exact"
        }

    def to_json(self) -> dict:
        """A JSON-ready dict, deterministic across processes/platforms.

        Floats round-trip exactly through JSON, so serialising and
        comparing frontier documents is as strong as comparing the
        in-memory objects.
        """
        return {
            "scheme": self.scheme,
            "window_s": self.window_s,
            "dt": self.dt,
            "worst_survival_s": self.worst_survival_s,
            "worst": [o.key for o in self.worst],
            "cells_run": self.cells_run,
            "early_stopped": self.early_stopped,
            "outcomes": [
                {
                    "index": o.index,
                    "key": o.key,
                    "status": o.status,
                    "survival_s": o.survival_s,
                    "round": o.round_index,
                }
                for o in self.outcomes
            ],
        }


class _SearchJournal:
    """Append-only JSONL checkpoint of resolved candidates."""

    def __init__(self, path: str) -> None:
        self._path = path
        # A SIGKILL can tear the final line mid-write; repair before
        # appending so a resumed-then-killed-then-resumed search never
        # welds a new record onto the fragment.
        repair_jsonl_tail(path)
        self._handle = open(path, "a", encoding="utf-8")

    def record(self, outcome: CandidateOutcome, fingerprint: str) -> None:
        line = json.dumps({
            "index": outcome.index,
            "fingerprint": fingerprint,
            "key": outcome.key,
            "status": outcome.status,
            "survival_s": outcome.survival_s,
            "round": outcome.round_index,
        })
        self._handle.write(line + "\n")
        # Flush through to the OS so a killed search loses at most the
        # round in flight, never a resolved candidate.
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        self._handle.close()

    @staticmethod
    def load(
        path: str,
        candidates: "Sequence[AttackCandidate]",
        scheme: str,
        window_s: float,
        dt: float,
    ) -> "dict[int, CandidateOutcome]":
        """Parse a journal, validating entries against the search.

        A trailing half-written line (the kill landed mid-write) is
        tolerated and dropped; a fingerprint mismatch means the journal
        belongs to a different search and is a hard error.
        """
        resolved: "dict[int, CandidateOutcome]" = {}
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        for lineno, raw in enumerate(lines):
            raw = raw.strip()
            if not raw:
                continue
            try:
                entry = json.loads(raw)
            except json.JSONDecodeError:
                if lineno == len(lines) - 1:
                    break  # torn final write from a mid-run kill
                raise SearchError(
                    f"corrupt search journal {path!r} at line {lineno + 1}"
                )
            index = entry.get("index")
            if not isinstance(index, int) or not 0 <= index < len(candidates):
                raise SearchError(
                    f"search journal {path!r} references candidate "
                    f"{index!r} outside the {len(candidates)}-candidate "
                    "space"
                )
            expected = candidate_fingerprint(
                candidates[index], scheme, window_s, dt
            )
            if entry.get("fingerprint") != expected:
                raise SearchError(
                    f"search journal {path!r} was written for a different "
                    f"search (candidate {index} fingerprint mismatch)"
                )
            status = entry.get("status")
            if status not in ("exact", "pruned"):
                raise SearchError(
                    f"search journal {path!r} holds unknown status "
                    f"{status!r} for candidate {index}"
                )
            resolved[index] = CandidateOutcome(
                index=index,
                key=candidates[index].key(),
                status=status,
                survival_s=float(entry["survival_s"]),
                round_index=int(entry["round"]),
            )
        return resolved


class FrontierSearch:
    """Finds a scheme's worst-case attack over a space, with pruning.

    Args:
        setup: Calibrated experiment setup shared by every evaluation.
        space: The attack space to search, or an explicit candidate
            sequence (e.g. an :meth:`AttackSpace.sample` draw) — the
            enumeration order of whichever is given defines candidate
            indices.
        scheme: A key of :data:`repro.defense.SCHEMES`.
        window_s: Full observation window (candidates' exact metrics
            come from this horizon).
        dt: Fine simulation step.
        probe_fractions: Escalating probe horizons as fractions of the
            window, each in ``(0, 1)``; snapped to the ``dt`` grid and
            deduplicated. Empty means exhaustive evaluation — one
            full-window round, no pruning (the falsification suite's
            reference configuration).
        use_cohort: Batch flat candidates (no PDU placement) through the
            cohort backend when the setup has a flat (single-PDU)
            topology. Off, every candidate runs through the
            snapshot-fork or straight vectorized path instead; the
            frontier is bit-identical either way.
        bus: Optional event bus receiving
            :class:`~repro.search.events.CandidateEvaluated` /
            :class:`~repro.search.events.FrontierUpdated` events.
        journal_path: JSONL checkpoint file; every resolved candidate is
            appended and fsynced. Required for ``run(resume=True)``.
        stop_below_s: Abort as soon as the incumbent drops strictly
            below this value (the tuner's inner-loop early exit: once a
            single attack beats the survival target, the defense
            configuration is already disproven).
        kernels: Per-step kernel tier (``"numpy"`` or ``"compiled"``)
            for every evaluation; bit-identical across tiers, so the
            frontier never depends on it (see :mod:`repro.kernels`).
    """

    def __init__(
        self,
        setup: ExperimentSetup,
        space: "AttackSpace | Sequence[AttackCandidate]",
        scheme: str,
        window_s: float = SURVIVAL_WINDOW_S,
        dt: float = ATTACK_DT_S,
        probe_fractions: "tuple[float, ...]" = (0.25, 0.5),
        use_cohort: bool = True,
        bus: "EventBus | None" = None,
        journal_path: "str | None" = None,
        stop_below_s: "float | None" = None,
        kernels: str = "numpy",
    ) -> None:
        if scheme not in SCHEMES:
            raise SearchError(f"unknown scheme: {scheme!r}")
        if window_s <= 0.0:
            raise SearchError("window_s must be positive")
        if dt <= 0.0:
            raise SearchError("dt must be positive")
        if any(not 0.0 < f < 1.0 for f in probe_fractions):
            raise SearchError("probe fractions must lie in (0, 1)")
        if stop_below_s is not None and stop_below_s <= 0.0:
            raise SearchError("stop_below_s must be positive")
        self._setup = setup
        self._space = space
        self._scheme = scheme
        self._window_s = window_s
        self._dt = dt
        self._use_cohort = use_cohort
        self._kernels = kernels
        self._bus = bus
        self._journal_path = journal_path
        self._stop_below_s = stop_below_s
        # Probe horizons snap to the step grid so a probe run's schedule
        # is a strict prefix of the full run's — the whole soundness
        # argument rests on identical step sequences.
        ends: "list[float]" = []
        for fraction in sorted(set(probe_fractions)):
            end = round(fraction * window_s / dt) * dt
            if dt <= end < window_s and end not in ends:
                ends.append(end)
        self._rounds: "tuple[float, ...]" = (*ends, window_s)
        # Shared-prefix snapshot machinery (placement / no-cohort path).
        self._snapshot: "SimSnapshot | None" = None
        self._snapshot_ready = False
        self._truncated: "dict[float, SimSnapshot]" = {}

    @property
    def rounds(self) -> "tuple[float, ...]":
        """Probe horizons in seconds, final entry the full window."""
        return self._rounds

    # ------------------------------------------------------------------ #
    # Evaluation paths                                                    #
    # ------------------------------------------------------------------ #

    def _prefix_snapshot(self, min_onset_s: float) -> "SimSnapshot | None":
        """The search's shared benign-prefix snapshot, built lazily.

        Paused strictly before both the earliest onset (the attacker is
        a bitwise no-op pre-onset) and the earliest probe horizon (the
        pause must precede every truncation point). ``None`` when no
        valid pause point exists or the benign prefix itself tripped.
        """
        if self._snapshot_ready:
            return self._snapshot
        self._snapshot_ready = True
        pause = min(min_onset_s, self._rounds[0] - self._dt)
        if pause > 0.0:
            self._snapshot = prepare_survival_prefix(
                self._setup,
                self._scheme,
                pause,
                window_s=self._window_s,
                dt=self._dt,
                kernels=self._kernels,
            )
        return self._snapshot

    def _fork_run(self, candidate: AttackCandidate, end_s: float) -> SimResult:
        """One candidate over ``[attack_time, attack_time + end_s]``.

        Forks from the shared benign-prefix snapshot when one exists
        (clipped to the probe horizon), else runs straight — both are
        bit-identical to ``run_survival(window_s=end_s)``. Candidates
        carrying a grid plan always run straight: the shared snapshot's
        prefix was simulated on a healthy feed, so forking it would
        silently drop any grid window opening before the pause.
        """
        snapshot = (
            None
            if candidate.grid is not None
            else self._prefix_snapshot(candidate.onset_s)
        )
        if snapshot is None:
            return run_survival(
                self._setup,
                self._scheme,
                candidate.scenario(),
                window_s=end_s,
                dt=self._dt,
                seed=candidate.seed,
                grid_plan=candidate.grid,
                kernels=self._kernels,
            )
        if end_s >= self._window_s:
            clipped = snapshot
        else:
            clipped = self._truncated.get(end_s)
            if clipped is None:
                clipped = truncate_snapshot_schedule(
                    snapshot, self._setup.attack_time_s + end_s
                )
                self._truncated[end_s] = clipped
        return resume_survival_from_snapshot(
            self._setup, clipped, candidate.scenario(), seed=candidate.seed
        )

    def _evaluate_round(
        self,
        candidates: "Sequence[AttackCandidate]",
        active: "Sequence[int]",
        end_s: float,
    ) -> "dict[int, SimResult]":
        """All active candidates over one probe horizon, batched.

        The cohort stacks only flat-topology cells, so placement
        candidates, and every candidate of a multi-PDU setup, fork or
        run straight instead.
        """
        stack = (
            self._use_cohort and self._setup.config.cluster.topology is None
        )
        flat = [
            i for i in active if stack and candidates[i].placement is None
        ]
        rest = [i for i in active if i not in set(flat)]
        results: "dict[int, SimResult]" = {}
        if flat:
            members = [
                CohortMember(
                    scheme=self._scheme,
                    scenario=candidates[i].scenario(),
                    seed=candidates[i].seed,
                    grid_plan=candidates[i].grid,
                )
                for i in flat
            ]
            batch = run_survival_cohort(
                self._setup, members, window_s=end_s, dt=self._dt,
                kernels=self._kernels,
            )
            results.update(zip(flat, batch))
        for i in rest:
            results[i] = self._fork_run(candidates[i], end_s)
        return results

    # ------------------------------------------------------------------ #
    # Search driver                                                       #
    # ------------------------------------------------------------------ #

    def run(self, resume: bool = False) -> FrontierResult:
        """Search the space and return the worst-case frontier.

        Args:
            resume: Replay resolved candidates from the journal instead
                of re-evaluating them (requires ``journal_path``; a
                missing journal file means nothing is resolved yet).
                Resumed searches are bit-identical to uninterrupted
                ones: each journalled outcome carries its resolution
                round, so every per-round incumbent — and therefore
                every pruning decision — is rebuilt exactly.
        """
        if isinstance(self._space, AttackSpace):
            candidates = list(self._space.candidates())
        else:
            candidates = list(self._space)
        if not candidates:
            raise SearchError("nothing to search: no candidates")
        for candidate in candidates:
            if candidate.onset_s >= self._window_s:
                raise SearchError(
                    f"candidate onset {candidate.onset_s}s is outside the "
                    f"{self._window_s}s observation window"
                )
        resolved: "dict[int, CandidateOutcome]" = {}
        if resume:
            if self._journal_path is None:
                raise SearchError(
                    "resume=True needs a journal_path to resume from"
                )
            if os.path.exists(self._journal_path):
                resolved = _SearchJournal.load(
                    self._journal_path,
                    candidates,
                    self._scheme,
                    self._window_s,
                    self._dt,
                )
        journal = (
            _SearchJournal(self._journal_path)
            if self._journal_path is not None
            else None
        )
        active = [i for i in range(len(candidates)) if i not in resolved]
        cells_run = 0
        ordinal = 0
        # Event baseline: on resume, only improvements over the already-
        # journalled frontier are news.
        best_seen = min(
            (
                o.survival_s
                for o in resolved.values()
                if o.status == "exact"
            ),
            default=math.inf,
        )
        early_stopped = False
        try:
            for round_index, end_s in enumerate(self._rounds):
                if not active:
                    break
                final = round_index == len(self._rounds) - 1
                results = self._evaluate_round(candidates, active, end_s)
                cells_run += len(results)
                bounds: "dict[int, float]" = {}
                for i in active:
                    result = results[i]
                    if result.trips or final:
                        # Tripped probes stopped on the trip; the full
                        # window executes the identical steps up to it,
                        # so this metric is exact (final rounds are
                        # exact by definition).
                        outcome = CandidateOutcome(
                            index=i,
                            key=candidates[i].key(),
                            status="exact",
                            survival_s=result.survival_or_window(),
                            round_index=round_index,
                        )
                        resolved[i] = outcome
                        if journal is not None:
                            journal.record(
                                outcome,
                                candidate_fingerprint(
                                    candidates[i],
                                    self._scheme,
                                    self._window_s,
                                    self._dt,
                                ),
                            )
                        ordinal = self._publish_evaluated(
                            outcome, pruned=False, ordinal=ordinal
                        )
                        if outcome.survival_s < best_seen:
                            best_seen = outcome.survival_s
                            self._publish_frontier(outcome, ordinal)
                    else:
                        # Censored probe: no trip at any executed step,
                        # so the true survival is at least the probe
                        # horizon minus the onset — a sound lower bound.
                        bounds[i] = result.survival_or_window()
                incumbent = min(
                    (
                        o.survival_s
                        for o in resolved.values()
                        if o.status == "exact"
                        and o.round_index <= round_index
                    ),
                    default=math.inf,
                )
                survivors: "list[int]" = []
                for i in sorted(bounds):
                    # Strict inequality: a candidate whose bound merely
                    # ties the incumbent could still *equal* the
                    # frontier, and the argmin set must be preserved.
                    if bounds[i] > incumbent:
                        outcome = CandidateOutcome(
                            index=i,
                            key=candidates[i].key(),
                            status="pruned",
                            survival_s=bounds[i],
                            round_index=round_index,
                        )
                        resolved[i] = outcome
                        if journal is not None:
                            journal.record(
                                outcome,
                                candidate_fingerprint(
                                    candidates[i],
                                    self._scheme,
                                    self._window_s,
                                    self._dt,
                                ),
                            )
                        ordinal = self._publish_evaluated(
                            outcome, pruned=True, ordinal=ordinal
                        )
                    else:
                        survivors.append(i)
                active = survivors
                if (
                    self._stop_below_s is not None
                    and incumbent < self._stop_below_s
                ):
                    early_stopped = True
                    break
        finally:
            if journal is not None:
                journal.close()
        return self._assemble(resolved, cells_run, early_stopped)

    def _publish_evaluated(
        self, outcome: CandidateOutcome, pruned: bool, ordinal: int
    ) -> int:
        if self._bus is not None:
            self._bus.publish(
                CandidateEvaluated(
                    time_s=float(ordinal),
                    index=outcome.index,
                    key=outcome.key,
                    scheme=self._scheme,
                    survival_s=outcome.survival_s,
                    pruned=pruned,
                    round_index=outcome.round_index,
                )
            )
        return ordinal + 1

    def _publish_frontier(self, outcome: CandidateOutcome, ordinal: int) -> None:
        if self._bus is not None:
            self._bus.publish(
                FrontierUpdated(
                    time_s=float(ordinal - 1),
                    index=outcome.index,
                    key=outcome.key,
                    survival_s=outcome.survival_s,
                )
            )

    def _assemble(
        self,
        resolved: "dict[int, CandidateOutcome]",
        cells_run: int,
        early_stopped: bool,
    ) -> FrontierResult:
        outcomes = tuple(resolved[i] for i in sorted(resolved))
        exacts = [o for o in outcomes if o.status == "exact"]
        if not exacts:
            raise SearchError("search resolved no exact metric")
        worst_value = min(o.survival_s for o in exacts)
        worst = tuple(o for o in exacts if o.survival_s == worst_value)
        return FrontierResult(
            scheme=self._scheme,
            window_s=self._window_s,
            dt=self._dt,
            outcomes=outcomes,
            worst_survival_s=worst_value,
            worst=worst,
            cells_run=cells_run,
            early_stopped=early_stopped,
        )
