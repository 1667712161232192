"""Falsification suite for the adversarial frontier search.

:class:`~repro.search.frontier.FrontierSearch` claims its probe-round
pruning is *sound*: the pruned search returns the identical worst-case
frontier — minimum survival **and** full argmin set — as exhaustively
evaluating every candidate over the full window, with every exact metric
bit-identical to a standalone ``run_survival(backend="vectorized")`` of
the same candidate. This suite attacks that claim:

* Hypothesis drives randomised small spaces (widths/rates/nodes/onsets
  drawn from tight pools so references memoise) through pruned and
  exhaustive searches under both evaluation paths and demands exact
  agreement, cross-checking every exact metric against a memoised
  straight run;
* directed tests pin the known ground truths (pruning that actually
  fires, tie preservation in the argmin set, probe-grid snapping);
* the journal's resume contract is exercised the hard way: a subprocess
  search is SIGKILLed mid-run and the resumed search must reproduce the
  uninterrupted frontier JSON byte-for-byte, plus torn-line tolerance
  and fingerprint/corruption hard errors.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.attack.placement import PduPlacement
from repro.attack.virus import VirusKind
from repro.config import TopologyConfig
from repro.errors import SearchError
from repro.experiments.common import run_survival, standard_setup
from repro.search import (
    AttackCandidate,
    AttackSpace,
    CandidateEvaluated,
    FrontierSearch,
    FrontierUpdated,
    candidate_fingerprint,
)
from repro.search.frontier import _SearchJournal
from repro.sim.events import EventBus

SETUP = standard_setup()

#: Short observation window: long enough past the 300 s onset for the
#: weak schemes to trip, short enough to keep the suite fast.
WINDOW_S = 600.0

#: Memoised straight-run survival metrics, keyed by everything that
#: shapes a run. Hypothesis draws candidates from small value pools, so
#: repeated candidates amortise the reference simulations.
_METRICS: "dict[tuple, float]" = {}

#: Memoised exhaustive frontiers (the pruned searches' ground truth).
_EXHAUSTIVE: "dict[tuple, object]" = {}


def reference_metric(
    candidate: AttackCandidate, scheme: str, window_s: float
) -> float:
    """The candidate's survival from a standalone vectorized run."""
    key = (candidate, scheme, window_s)
    if key not in _METRICS:
        result = run_survival(
            SETUP,
            scheme,
            candidate.scenario(),
            window_s=window_s,
            seed=candidate.seed,
        )
        _METRICS[key] = result.survival_or_window()
    return _METRICS[key]


def exhaustive_frontier(space: AttackSpace, scheme: str, window_s: float):
    """The reference frontier: no probes, every candidate full-window."""
    key = (space, scheme, window_s)
    if key not in _EXHAUSTIVE:
        _EXHAUSTIVE[key] = FrontierSearch(
            SETUP, space, scheme, window_s=window_s, probe_fractions=()
        ).run()
    return _EXHAUSTIVE[key]


def _subset(values, max_size):
    return st.lists(
        st.sampled_from(values), min_size=1, max_size=max_size, unique=True
    ).map(tuple)


#: Small spaces over tight pools: at most four candidates per example.
spaces = st.builds(
    AttackSpace,
    onsets_s=_subset((240.0, 300.0), 1),
    widths_s=_subset((1.0, 2.0, 4.0), 2),
    rates_per_min=_subset((2.0, 6.0), 1),
    node_counts=_subset((1, 2, 6), 2),
    kinds=st.just((VirusKind.CPU,)),
)

probe_plans = _subset((0.3, 0.5, 0.75), 2)


class TestPrunedEqualsExhaustive:
    """The headline soundness property, attacked with random spaces."""

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        space=spaces,
        scheme=st.sampled_from(("Conv", "PS")),
        fractions=probe_plans,
        use_cohort=st.booleans(),
    )
    def test_frontier_identical_and_exacts_bitwise(
        self, space, scheme, fractions, use_cohort
    ):
        pruned = FrontierSearch(
            SETUP,
            space,
            scheme,
            window_s=WINDOW_S,
            probe_fractions=fractions,
            use_cohort=use_cohort,
        ).run()
        exhaustive = exhaustive_frontier(space, scheme, WINDOW_S)

        # Identical frontier: minimum value and full argmin set.
        assert pruned.worst_survival_s == exhaustive.worst_survival_s
        assert [o.key for o in pruned.worst] == [
            o.key for o in exhaustive.worst
        ]
        assert len(pruned.outcomes) == len(exhaustive.outcomes)

        candidates = list(space.candidates())
        for candidate, outcome in zip(candidates, pruned.outcomes):
            truth = reference_metric(candidate, scheme, WINDOW_S)
            if outcome.status == "exact":
                # Exact means exact: bit-identical to the straight run.
                assert outcome.survival_s == truth, candidate.key()
            else:
                # Pruned on a sound bound: the bound never exceeds the
                # true metric, and the true metric sits strictly above
                # the frontier (pruning never touches the argmin set).
                assert outcome.survival_s <= truth, candidate.key()
                assert truth > pruned.worst_survival_s, candidate.key()

        # The exhaustive reference itself is bit-identical per cell.
        for candidate, outcome in zip(candidates, exhaustive.outcomes):
            assert outcome.status == "exact"
            assert outcome.survival_s == reference_metric(
                candidate, scheme, WINDOW_S
            )


class TestDirectedFrontier:
    """Pinned ground truths for the pruning mechanics."""

    def test_pruning_fires_and_preserves_the_worst_case(self):
        # Conv with 6 nodes trips at 57.0 s; 1- and 2-node trains are
        # censored at the 450 s probe (bound 450 - 300 = 150 s > 57 s).
        space = AttackSpace(
            widths_s=(1.0,),
            rates_per_min=(6.0,),
            node_counts=(1, 2, 6),
        )
        result = FrontierSearch(
            SETUP, space, "Conv", window_s=900.0, probe_fractions=(0.5,)
        ).run()
        assert [o.status for o in result.outcomes] == [
            "pruned", "pruned", "exact",
        ]
        assert result.worst_survival_s == 57.0
        assert [o.survival_s for o in result.outcomes] == [150.0, 150.0, 57.0]
        assert result.cells_run == 3  # one probe each, no second round

        exhaustive = exhaustive_frontier(space, "Conv", 900.0)
        assert result.worst_survival_s == exhaustive.worst_survival_s
        assert [o.key for o in result.worst] == [
            o.key for o in exhaustive.worst
        ]

    def test_ties_in_the_argmin_set_are_preserved(self):
        # PS rides out this whole window: every candidate is censored
        # at 300.0 s, so the frontier is a four-way tie and pruning
        # (strict inequality) must keep every member.
        space = AttackSpace(
            widths_s=(1.0, 2.0),
            rates_per_min=(6.0,),
            node_counts=(2, 6),
        )
        result = FrontierSearch(
            SETUP, space, "PS", window_s=WINDOW_S, probe_fractions=(0.75,)
        ).run()
        assert result.worst_survival_s == 300.0
        assert len(result.worst) == 4
        assert all(o.status == "exact" for o in result.outcomes)

    def test_placement_candidates_match_their_straight_runs(self):
        # Placement candidates leave the cohort path and fork from the
        # shared benign-prefix snapshot; the metric must not care.
        placement = PduPlacement(mode="striped")
        space = AttackSpace(
            widths_s=(1.0,),
            rates_per_min=(6.0,),
            node_counts=(6,),
            placements=(None, placement),
        )
        result = FrontierSearch(
            SETUP, space, "Conv", window_s=WINDOW_S, probe_fractions=(0.5,)
        ).run()
        exhaustive = exhaustive_frontier(space, "Conv", WINDOW_S)
        assert result.worst_survival_s == exhaustive.worst_survival_s
        for candidate, outcome in zip(space.candidates(), result.outcomes):
            if outcome.status == "exact":
                assert outcome.survival_s == reference_metric(
                    candidate, "Conv", WINDOW_S
                )

    def test_multi_pdu_setup_leaves_the_cohort(self):
        # The cohort stacks only flat topologies, so on a two-PDU setup
        # flat candidates must fork or run straight like placement ones.
        cluster = replace(
            SETUP.config.cluster,
            topology=TopologyConfig(racks_per_pdu=(11, 11)),
        )
        setup = replace(SETUP, config=replace(SETUP.config, cluster=cluster))
        space = AttackSpace(
            widths_s=(1.0,),
            rates_per_min=(6.0,),
            node_counts=(6,),
            placements=(None, PduPlacement(mode="striped")),
        )
        searches = [
            FrontierSearch(
                setup, space, "Conv", window_s=WINDOW_S,
                probe_fractions=(0.5,), use_cohort=use_cohort,
            ).run()
            for use_cohort in (True, False)
        ]
        assert searches[0].outcomes == searches[1].outcomes
        for candidate, outcome in zip(
            space.candidates(), searches[0].outcomes
        ):
            if outcome.status == "exact":
                straight = run_survival(
                    setup, "Conv", candidate.scenario(), window_s=WINDOW_S,
                    seed=candidate.seed,
                )
                assert outcome.survival_s == straight.survival_or_window()

    def test_explicit_candidate_sequences_are_searchable(self):
        space = AttackSpace(
            widths_s=(1.0,), rates_per_min=(6.0,), node_counts=(2, 6)
        )
        sample = space.sample(2, seed=11)
        result = FrontierSearch(
            SETUP, sample, "Conv", window_s=WINDOW_S
        ).run()
        assert [o.key for o in result.outcomes] == [
            c.key() for c in sample
        ]

    def test_stop_below_ends_the_search_early(self):
        space = AttackSpace(
            widths_s=(1.0,),
            rates_per_min=(6.0,),
            node_counts=(1, 2, 6),
        )
        result = FrontierSearch(
            SETUP,
            space,
            "Conv",
            window_s=900.0,
            probe_fractions=(0.5,),
            stop_below_s=100.0,
        ).run()
        # The 57.0 s trip lands in the probe round; the search stops
        # there with a valid upper bound on the frontier.
        assert result.early_stopped
        assert result.worst_survival_s == 57.0

    def test_probe_rounds_snap_and_deduplicate(self):
        search = FrontierSearch(
            SETUP,
            AttackSpace(),
            "PAD",
            window_s=600.0,
            probe_fractions=(0.5, 0.5001, 0.25),
        )
        assert search.rounds == (150.0, 300.0, 600.0)
        exhaustive = FrontierSearch(
            SETUP, AttackSpace(), "PAD", window_s=600.0, probe_fractions=()
        )
        assert exhaustive.rounds == (600.0,)

    def test_events_stream_evaluations_and_frontier_drops(self):
        bus = EventBus()
        space = AttackSpace(
            widths_s=(1.0,),
            rates_per_min=(6.0,),
            node_counts=(1, 2, 6),
        )
        result = FrontierSearch(
            SETUP,
            space,
            "Conv",
            window_s=900.0,
            probe_fractions=(0.5,),
            bus=bus,
        ).run()
        evaluated = bus.of_type(CandidateEvaluated)
        assert len(evaluated) == len(result.outcomes)
        assert [e.time_s for e in evaluated] == [0.0, 1.0, 2.0]
        assert {e.key for e in evaluated} == {
            o.key for o in result.outcomes
        }
        assert [e.pruned for e in evaluated].count(True) == 2
        frontier = bus.of_type(FrontierUpdated)
        # Survival drops are monotone: each update strictly improves.
        drops = [e.survival_s for e in frontier]
        assert drops == sorted(drops, reverse=True)
        assert drops[-1] == result.worst_survival_s


class TestValidation:
    """Constructor and run-time guard rails."""

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SearchError, match="unknown scheme"):
            FrontierSearch(SETUP, AttackSpace(), "Magic")

    @pytest.mark.parametrize("kwargs", [
        {"window_s": 0.0},
        {"dt": -1.0},
        {"probe_fractions": (0.0,)},
        {"probe_fractions": (1.0,)},
        {"stop_below_s": 0.0},
    ])
    def test_bad_numeric_arguments_rejected(self, kwargs):
        with pytest.raises(SearchError):
            FrontierSearch(SETUP, AttackSpace(), "PAD", **kwargs)

    def test_empty_candidate_sequence_rejected(self):
        with pytest.raises(SearchError, match="no candidates"):
            FrontierSearch(SETUP, [], "PAD").run()

    def test_onset_outside_window_rejected(self):
        space = AttackSpace(onsets_s=(700.0,))
        with pytest.raises(SearchError, match="outside"):
            FrontierSearch(SETUP, space, "PAD", window_s=WINDOW_S).run()

    def test_resume_needs_a_journal_path(self):
        with pytest.raises(SearchError, match="journal_path"):
            FrontierSearch(SETUP, AttackSpace(), "PAD").run(resume=True)


# --------------------------------------------------------------------- #
# Journal: kill-mid-run resume and integrity checks                      #
# --------------------------------------------------------------------- #

#: The space and search configuration the kill/resume tests share.
_KILL_SPACE = dict(widths_s=(1.0,), rates_per_min=(6.0,), node_counts=(1, 2, 6))
_KILL_SEARCH = dict(window_s=900.0, probe_fractions=(0.5,))

#: A search that SIGKILLs its own process the instant the first
#: candidate resolves — after the journal line is fsynced, before the
#: round completes. The parent then resumes from the survivor journal.
_KILL_WORKER = """
import os, signal
from repro.experiments.common import standard_setup
from repro.search import AttackSpace, CandidateEvaluated, FrontierSearch
from repro.sim.events import EventBus

setup = standard_setup()
space = AttackSpace(widths_s=(1.0,), rates_per_min=(6.0,), node_counts=(1, 2, 6))
bus = EventBus()
bus.subscribe(CandidateEvaluated, lambda event: os.kill(os.getpid(), signal.SIGKILL))
FrontierSearch(
    setup, space, "Conv", window_s=900.0, probe_fractions=(0.5,),
    bus=bus, journal_path=__import__("sys").argv[1],
).run()
raise SystemExit("unreachable: the bus handler kills the process")
"""


def _run_search(journal_path=None, resume=False):
    space = AttackSpace(**_KILL_SPACE)
    return FrontierSearch(
        SETUP, space, "Conv", journal_path=journal_path, **_KILL_SEARCH
    ).run(resume=resume)


def _frontier_document(result) -> dict:
    """The frontier JSON minus ``cells_run`` (work saved is the point
    of resuming; everything else must match byte-for-byte)."""
    document = result.to_json()
    document.pop("cells_run")
    return document


class TestJournalResume:

    def test_sigkill_mid_run_then_resume_matches_uninterrupted(self, tmp_path):
        journal = tmp_path / "search.jsonl"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
        proc = subprocess.run(
            [sys.executable, "-c", _KILL_WORKER, str(journal)],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        lines = journal.read_text().splitlines()
        assert len(lines) == 1  # exactly the first resolved candidate

        resumed = _run_search(journal_path=str(journal), resume=True)
        uninterrupted = _run_search()
        assert _frontier_document(resumed) == _frontier_document(uninterrupted)
        # The journalled candidate was not re-simulated.
        assert resumed.cells_run == uninterrupted.cells_run - 1

    def test_resume_from_complete_journal_runs_nothing(self, tmp_path):
        journal = tmp_path / "search.jsonl"
        first = _run_search(journal_path=str(journal))
        resumed = _run_search(journal_path=str(journal), resume=True)
        assert resumed.cells_run == 0
        assert _frontier_document(resumed) == _frontier_document(first)

    def test_torn_final_line_is_dropped(self, tmp_path):
        journal = tmp_path / "search.jsonl"
        first = _run_search(journal_path=str(journal))
        with open(journal, "a", encoding="utf-8") as handle:
            handle.write('{"index": 0, "fingerpr')  # the kill landed here
        resumed = _run_search(journal_path=str(journal), resume=True)
        assert resumed.cells_run == 0
        assert _frontier_document(resumed) == _frontier_document(first)

    def test_corrupt_interior_line_is_a_hard_error(self, tmp_path):
        journal = tmp_path / "search.jsonl"
        _run_search(journal_path=str(journal))
        lines = journal.read_text().splitlines()
        lines[0] = '{"broken'
        journal.write_text("\n".join(lines) + "\n")
        with pytest.raises(SearchError, match="corrupt"):
            _run_search(journal_path=str(journal), resume=True)

    def test_foreign_journal_is_a_hard_error(self, tmp_path):
        # A journal written for Conv must not seed a PS resume.
        journal = tmp_path / "search.jsonl"
        _run_search(journal_path=str(journal))
        space = AttackSpace(**_KILL_SPACE)
        search = FrontierSearch(
            SETUP, space, "PS", journal_path=str(journal), **_KILL_SEARCH
        )
        with pytest.raises(SearchError, match="different search"):
            search.run(resume=True)

    def test_out_of_range_index_is_a_hard_error(self, tmp_path):
        journal = tmp_path / "search.jsonl"
        candidates = list(AttackSpace(**_KILL_SPACE).candidates())
        journal.write_text(json.dumps({
            "index": 99,
            "fingerprint": "0" * 16,
            "key": "bogus",
            "status": "exact",
            "survival_s": 1.0,
            "round": 0,
        }) + "\n")
        with pytest.raises(SearchError, match="outside"):
            _SearchJournal.load(str(journal), candidates, "Conv", 900.0, 0.5)

    def test_unknown_status_is_a_hard_error(self, tmp_path):
        journal = tmp_path / "search.jsonl"
        candidates = list(AttackSpace(**_KILL_SPACE).candidates())
        journal.write_text(json.dumps({
            "index": 0,
            "fingerprint": candidate_fingerprint(
                candidates[0], "Conv", 900.0, 0.5
            ),
            "key": candidates[0].key(),
            "status": "guessed",
            "survival_s": 1.0,
            "round": 0,
        }) + "\n")
        with pytest.raises(SearchError, match="unknown status"):
            _SearchJournal.load(str(journal), candidates, "Conv", 900.0, 0.5)


# --------------------------------------------------------------------- #
# The space itself                                                       #
# --------------------------------------------------------------------- #

class TestAttackSpace:

    def test_axes_normalise_to_sorted_unique(self):
        space = AttackSpace(
            widths_s=(4.0, 1.0, 4.0), node_counts=(6, 3, 6)
        )
        assert space.widths_s == (1.0, 4.0)
        assert space.node_counts == (3, 6)

    def test_unfit_width_rate_pairs_are_filtered(self):
        # A 40 s spike cannot fit a 2/min train (30 s period); only the
        # 1 s width crosses with both rates.
        space = AttackSpace(widths_s=(1.0, 40.0), rates_per_min=(2.0, 6.0))
        keys = [c.key() for c in space.candidates()]
        assert space.size == len(keys)
        assert not any("w40" in key for key in keys)

    def test_fully_empty_space_is_rejected(self):
        with pytest.raises(SearchError, match="empty"):
            AttackSpace(widths_s=(40.0,), rates_per_min=(2.0, 6.0))

    @pytest.mark.parametrize("kwargs", [
        {"onsets_s": ()},
        {"kinds": ()},
        {"placements": ()},
        {"onsets_s": (-1.0,)},
        {"widths_s": (0.0,)},
        {"node_counts": (0,)},
        {"baseline_utils": (1.5,)},
    ])
    def test_bad_axes_rejected(self, kwargs):
        with pytest.raises(SearchError):
            AttackSpace(**kwargs)

    def test_enumeration_is_deterministic(self):
        first = [c.key() for c in AttackSpace().candidates()]
        second = [c.key() for c in AttackSpace().candidates()]
        assert first == second
        assert len(first) == AttackSpace().size

    def test_sample_is_seeded_and_without_replacement(self):
        space = AttackSpace()
        a = space.sample(3, seed=5)
        b = space.sample(3, seed=5)
        assert a == b
        assert len(set(c.key() for c in a)) == 3
        # Budget covering the space returns the whole enumeration.
        assert space.sample(10_000) == list(space.candidates())
        with pytest.raises(SearchError, match="budget"):
            space.sample(0)

    def test_refine_pins_discrete_axes_and_halves_the_grid(self):
        space = AttackSpace()
        pivot = list(space.candidates())[0]  # w=1, r=2, n=3
        refined = space.refine(pivot)
        assert refined.node_counts == (pivot.nodes,)
        assert refined.widths_s == (1.0, 1.5)  # itself + midpoint to 2.0
        assert refined.rates_per_min == (2.0, 4.0)
        assert refined.onsets_s == (300.0,)  # lone value: nothing to halve

    def test_refine_off_axis_pivot_rejected(self):
        space = AttackSpace()
        stranger = AttackCandidate(
            onset_s=300.0,
            width_s=3.0,
            rate_per_min=2.0,
            nodes=3,
            kind=VirusKind.CPU,
        )
        with pytest.raises(SearchError, match="pivot"):
            space.refine(stranger)

    def test_candidate_key_is_stable_and_readable(self):
        candidate = AttackCandidate(
            onset_s=300.0,
            width_s=1.0,
            rate_per_min=6.0,
            nodes=6,
            kind=VirusKind.CPU,
        )
        assert candidate.key() == "search-cpu-n6-w1-r6-o300-b0p1-s7"
        placed = AttackCandidate(
            onset_s=300.0,
            width_s=1.0,
            rate_per_min=6.0,
            nodes=6,
            kind=VirusKind.CPU,
            placement=PduPlacement(mode="concentrated", target_pdu=0),
        )
        assert placed.key().endswith("-concentrated0")

    @pytest.mark.parametrize("kwargs", [
        {"onset_s": -1.0},
        {"width_s": 40.0, "rate_per_min": 6.0},
        {"nodes": 0},
    ])
    def test_bad_candidates_rejected(self, kwargs):
        base = dict(
            onset_s=300.0,
            width_s=1.0,
            rate_per_min=6.0,
            nodes=6,
            kind=VirusKind.CPU,
        )
        base.update(kwargs)
        with pytest.raises(SearchError):
            AttackCandidate(**base)

    def test_candidate_compiles_to_its_scenario(self):
        candidate = AttackCandidate(
            onset_s=240.0,
            width_s=2.0,
            rate_per_min=6.0,
            nodes=4,
            kind=VirusKind.CPU,
        )
        scenario = candidate.scenario()
        assert scenario.name == candidate.key()
        assert scenario.start_s == 240.0
        assert scenario.nodes == 4
        assert scenario.spikes.width_s == 2.0
        assert scenario.spikes.rate_per_min == 6.0

    def test_fingerprint_tracks_every_argument(self):
        candidate = next(AttackSpace().candidates())
        base = candidate_fingerprint(candidate, "PAD", 600.0, 0.5)
        assert base == candidate_fingerprint(candidate, "PAD", 600.0, 0.5)
        assert base != candidate_fingerprint(candidate, "PS", 600.0, 0.5)
        assert base != candidate_fingerprint(candidate, "PAD", 900.0, 0.5)
        assert base != candidate_fingerprint(candidate, "PAD", 600.0, 1.0)
