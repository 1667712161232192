"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``survive`` — run one attack scenario against one defense scheme and
  print the survival outcome.
* ``grid`` — the full Fig.-15 survival grid.
* ``report`` — run every reproduction experiment and write EXPERIMENTS.md.
* ``demo`` — the testbed two-phase attack walkthrough (Figs. 6/7).
* ``bench`` — a reduced fig15-style sweep through the fast paths
  (fast-forward + prefix sharing), with optional cProfile output;
  ``--scale``, ``--cohort`` and ``--compiled`` switch to the
  topology-scale, stacked-cohort and compiled-kernel-tier benchmarks
  respectively.
* ``search`` — adversarial worst-case search over an attack space,
  with optional grid refinement; ``--bench`` runs the pruned+batched
  vs naive throughput benchmark and writes ``BENCH_search.json``.
* ``tune`` — walk a defense-knob grid cost-ascending until the
  searched worst case meets a survival target (Fig. 17, adaptive).
"""

from __future__ import annotations

import argparse
import sys

from .attack.scenario import standard_scenarios
from .attack.virus import VirusKind
from .defense import SCHEMES


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Power Attack Defense: Securing "
            "Battery-Backed Data Centers' (ISCA 2016)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    survive = sub.add_parser(
        "survive", help="one scheme vs one attack scenario"
    )
    survive.add_argument(
        "--scheme", choices=list(SCHEMES), default="PAD",
        help="defense scheme (paper Table III)",
    )
    survive.add_argument(
        "--scenario",
        choices=[s.name for s in standard_scenarios()],
        default="dense-cpu",
        help="attack scenario (paper Fig. 15 grid)",
    )
    survive.add_argument("--window", type=float, default=2400.0,
                         help="observation window in seconds")
    survive.add_argument("--seed", type=int, default=3)

    grid = sub.add_parser("grid", help="the full Fig.-15 survival grid")
    grid.add_argument("--window", type=float, default=2400.0)
    grid.add_argument("--seed", type=int, default=3)
    grid.add_argument(
        "--workers", type=int, default=0,
        help="process-pool width for the sweep (0 = sequential; "
             "parallel results are bit-identical)",
    )
    grid.add_argument(
        "--demo", action="store_true",
        help="run the pinned attack-during-sag ride-through "
             "demonstration instead of the Fig.-15 sweep (the demo "
             "pins its own seeds; --window/--seed/--workers do not "
             "apply)",
    )

    report = sub.add_parser(
        "report", help="run all experiments and write EXPERIMENTS.md"
    )
    report.add_argument("output", nargs="?", default="EXPERIMENTS.md")

    sub.add_parser("demo", help="testbed two-phase attack walkthrough")

    bench = sub.add_parser(
        "bench",
        help="reduced fig15-style sweep through the fast paths",
    )
    bench.add_argument("--window", type=float, default=1200.0,
                       help="observation window in seconds")
    bench.add_argument(
        "--onset", type=float, default=900.0,
        help="attack onset inside the window (late onset gives the "
             "shared benign prefix something to share)",
    )
    bench.add_argument("--seed", type=int, default=3)
    bench.add_argument(
        "--profile", action="store_true",
        help="wrap the sweep in cProfile and print the top 25 entries "
             "by cumulative time; with --compiled, profiles one "
             "steady-state compiled pass (warm-up excluded, kernel "
             "dispatch frames labeled per kernel)",
    )
    bench.add_argument(
        "--scale", action="store_true",
        help="topology scale benchmark instead: both backends at "
             "22/128/512/1024 racks, writing BENCH_scale.json",
    )
    bench.add_argument(
        "--cohort", action="store_true",
        help="cohort benchmark instead: the committed 36-cell sweep "
             "grid stacked through the cohort backend vs per-cell "
             "vectorized runs, writing BENCH_cohort.json "
             "(--window/--onset do not apply; the grid is fixed so the "
             "baseline stays comparable across runs)",
    )
    bench.add_argument(
        "--cohort-output", default="BENCH_cohort.json",
        help="where the cohort benchmark writes its JSON report",
    )
    bench.add_argument(
        "--compiled", action="store_true",
        help="compiled-kernel benchmark instead: the numpy and compiled "
             "kernel tiers over the same cohort sweeps — per-kernel "
             "micro timings plus an end-to-end sustained-overload "
             "survival sweep — writing BENCH_compiled.json",
    )
    bench.add_argument(
        "--compiled-output", default="BENCH_compiled.json",
        help="where the compiled-kernel benchmark writes its JSON report",
    )
    bench.add_argument(
        "--scale-duration", type=float, default=60.0,
        help="simulated seconds per scale case",
    )
    bench.add_argument(
        "--scale-output", default="BENCH_scale.json",
        help="where the scale benchmark writes its JSON report",
    )

    search = sub.add_parser(
        "search",
        help="adversarial worst-case search over an attack space",
    )
    _add_space_arguments(search)
    search.add_argument(
        "--scheme", choices=list(SCHEMES), default="PAD",
        help="defense scheme to search against",
    )
    search.add_argument(
        "--probes", default="0.25,0.5",
        help="comma-separated probe fractions of the window in (0, 1); "
             "empty string evaluates exhaustively",
    )
    search.add_argument(
        "--budget", type=int, default=0,
        help="sample this many candidates from the space instead of "
             "enumerating it (0 = exhaustive enumeration)",
    )
    search.add_argument(
        "--refine", type=int, default=0,
        help="grid-refinement iterations around the found worst case",
    )
    search.add_argument(
        "--journal", default=None,
        help="JSONL checkpoint journal (enables --resume)",
    )
    search.add_argument(
        "--resume", action="store_true",
        help="replay resolved candidates from the journal",
    )
    search.add_argument(
        "--output", default=None,
        help="write the frontier JSON document here",
    )
    search.add_argument(
        "--bench", action="store_true",
        help="run the pruned+batched vs naive throughput benchmark "
             "instead (space flags do not apply; the grid is fixed so "
             "the baseline stays comparable across runs)",
    )
    search.add_argument(
        "--bench-output", default="BENCH_search.json",
        help="where the search benchmark writes its JSON report",
    )

    tune = sub.add_parser(
        "tune",
        help="cheapest defense configuration meeting a survival target",
    )
    _add_space_arguments(tune)
    tune.add_argument(
        "--scheme", choices=list(SCHEMES), default="PAD",
        help="defense scheme to tune",
    )
    tune.add_argument(
        "--target", type=float, default=1200.0,
        help="survival target in seconds the searched worst case "
             "must meet",
    )
    tune.add_argument(
        "--probes", default="0.25,0.5",
        help="probe fractions for the inner search",
    )
    tune.add_argument(
        "--udeb", default="",
        help="comma-separated uDEB capacities (Wh/rack) to try",
    )
    tune.add_argument(
        "--vdeb", default="",
        help="comma-separated vDEB ideal-discharge fractions to try",
    )
    tune.add_argument(
        "--shed", default="",
        help="comma-separated Level-3 shed-ratio caps to try",
    )
    tune.add_argument(
        "--reserve", default="",
        help="comma-separated ride-through reserve floors (SOC in "
             "[0, 1); 0 removes the reserve) to try",
    )
    tune.add_argument(
        "--journal", default=None,
        help="JSONL checkpoint journal stem for the inner searches "
             "(one file per trial; enables --resume)",
    )
    tune.add_argument(
        "--resume", action="store_true",
        help="replay resolved candidates from the per-trial journals",
    )
    tune.add_argument(
        "--output", default=None,
        help="write the tuning JSON document here",
    )
    return parser


def _add_space_arguments(parser: argparse.ArgumentParser) -> None:
    """Attack-space axes shared by the ``search`` and ``tune`` verbs."""
    parser.add_argument("--window", type=float, default=2400.0,
                        help="observation window in seconds")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument(
        "--onsets", default="300",
        help="comma-separated attack onsets (s) inside the window",
    )
    parser.add_argument(
        "--widths", default="1,2,4",
        help="comma-separated spike widths (s)",
    )
    parser.add_argument(
        "--rates", default="2,6",
        help="comma-separated spike rates (per minute)",
    )
    parser.add_argument(
        "--nodes", default="3,6",
        help="comma-separated attacker node counts",
    )
    parser.add_argument(
        "--kind", choices=[k.value for k in VirusKind], default="cpu",
        help="virus benchmark class",
    )


def _parse_floats(text: str) -> "tuple[float, ...]":
    return tuple(float(x) for x in text.split(",") if x.strip())


def _parse_ints(text: str) -> "tuple[int, ...]":
    return tuple(int(x) for x in text.split(",") if x.strip())


def _build_space(args: argparse.Namespace):
    from .search import AttackSpace

    return AttackSpace(
        onsets_s=_parse_floats(args.onsets),
        widths_s=_parse_floats(args.widths),
        rates_per_min=_parse_floats(args.rates),
        node_counts=_parse_ints(args.nodes),
        kinds=(VirusKind(args.kind),),
    )


def _cmd_search_bench(args: argparse.Namespace) -> int:
    """Run the search benchmark and gate it like the other bench verbs."""
    import json

    from .search.bench import SEARCH_SPEEDUP_FLOOR, run_search_bench

    report, problems = run_search_bench(seed=args.seed)
    print(f"search : {report['search_s']:7.2f}s  "
          f"({report['candidates']} candidates, "
          f"{report['cells_run']} cells run)")
    print(f"naive  : {report['naive_s']:7.2f}s  "
          f"(per-candidate full-window runs)")
    print(f"speedup: {report['speedup']:.2f}x  "
          f"(floor {SEARCH_SPEEDUP_FLOOR:.1f}x)")
    with open(args.bench_output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    print(f"\nwrote {args.bench_output}")
    if problems:
        for problem in problems[:6]:
            print(f"error: {problem}")
        print(f"error: searched frontier diverged from the naive "
              f"reference ({len(problems)} discrepancies)")
        return 1
    if report["speedup"] < SEARCH_SPEEDUP_FLOOR:
        print(f"error: search is only {report['speedup']:.2f}x naive "
              f"(floor {SEARCH_SPEEDUP_FLOOR:.1f}x)")
        return 1
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    """Search an attack space for a scheme's worst case."""
    import json

    from .experiments.common import standard_setup
    from .search import FrontierSearch

    if args.bench:
        return _cmd_search_bench(args)
    setup = standard_setup(seed=args.seed)
    space = _build_space(args)
    probes = _parse_floats(args.probes)
    candidates = (
        space.sample(args.budget, seed=args.seed)
        if args.budget > 0
        else list(space.candidates())
    )
    search = FrontierSearch(
        setup, candidates, args.scheme,
        window_s=args.window,
        probe_fractions=probes,
        journal_path=args.journal,
    )
    result = search.run(resume=args.resume)
    for _ in range(args.refine):
        space = space.refine(candidates[result.worst[0].index])
        candidates = list(space.candidates())
        search = FrontierSearch(
            setup, candidates, args.scheme,
            window_s=args.window,
            probe_fractions=probes,
        )
        result = search.run()
    exact = sum(1 for o in result.outcomes if o.status == "exact")
    pruned = len(result.outcomes) - exact
    print(f"scheme     : {args.scheme}")
    print(f"candidates : {len(result.outcomes)} resolved "
          f"({exact} exact, {pruned} pruned, "
          f"{result.cells_run} cells run)")
    print(f"worst case : {result.worst_survival_s:.1f} s")
    for outcome in result.worst:
        print(f"  {outcome.key}")
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(result.to_json(), handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"\nwrote {args.output}")
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    """Tune defense knobs against the searched worst case."""
    import json

    from .experiments.common import standard_setup
    from .search import DefenseSpace, DefenseTuner

    setup = standard_setup(seed=args.seed)
    space = _build_space(args)
    defenses = DefenseSpace(
        udeb_capacities_wh=_parse_floats(args.udeb),
        vdeb_ideal_discharge_fractions=_parse_floats(args.vdeb),
        shed_ratio_caps=_parse_floats(args.shed),
        reserve_floors=_parse_floats(args.reserve),
    )
    tuner = DefenseTuner(
        setup, space, defenses, args.scheme,
        target_survival_s=args.target,
        window_s=args.window,
        probe_fractions=_parse_floats(args.probes),
        journal_path=args.journal,
    )
    result = tuner.run(resume=args.resume)
    print(f"scheme : {args.scheme}  target {args.target:.0f} s")
    for trial in result.trials:
        verdict = "meets target" if trial.met_target else "fails"
        print(f"  {trial.knobs.label():<32} ${trial.cost_dollars:>8.0f}  "
              f"worst {trial.worst_survival_s:>7.1f} s  {verdict}")
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(result.to_json(), handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"\nwrote {args.output}")
    if result.best is None:
        print("no configuration in the space met the target")
        return 1
    print(f"cheapest pass: {result.best.label()} "
          f"(${result.best_cost_dollars:.0f})")
    return 0


def _cmd_survive(args: argparse.Namespace) -> int:
    from .experiments.common import run_survival, standard_setup

    scenario = next(
        s for s in standard_scenarios() if s.name == args.scenario
    )
    setup = standard_setup(seed=args.seed)
    result = run_survival(
        setup, args.scheme, scenario, window_s=args.window
    )
    survival = result.survival_or_window()
    censored = not result.trips
    print(f"scheme   : {args.scheme}")
    print(f"scenario : {scenario.name} ({scenario.nodes} nodes, "
          f"{scenario.spikes.width_s:.0f}s spikes at "
          f"{scenario.spikes.rate_per_min:.0f}/min)")
    print(f"survival : {survival:.0f} s"
          + (" (survived the whole window)" if censored else ""))
    print(f"overloads: {len(result.overloads)}")
    return 0


def _cmd_grid(args: argparse.Namespace) -> int:
    from .experiments import fig15_survival
    from .experiments.common import standard_setup

    if args.demo:
        from .experiments import attack_during_sag

        summary = attack_during_sag.main()
        return 0 if summary.rides_through else 1

    setup = standard_setup(seed=args.seed)
    grid = fig15_survival.run(
        setup=setup, window_s=args.window, workers=args.workers
    )
    rows = dict(grid.survival_s)
    rows["Avg."] = grid.averages()
    from .experiments.common import format_table

    print(format_table(rows, value_format="{:>10.0f}"))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .experiments import report

    report.main(args.output)
    return 0


#: Scale-benchmark grid: (racks, mid-tier PDUs). The first entry is the
#: paper's flat 22-rack cluster; the rest exercise the hierarchical
#: topology at fleet scale.
SCALE_GRID = ((22, 1), (128, 4), (512, 8), (1024, 16))

#: Required vectorized-over-scalar advantage at the largest grid size.
SCALE_SPEEDUP_FLOOR = 5.0


def _cmd_bench_scale(args: argparse.Namespace) -> int:
    """Benchmark both physics backends across topology sizes.

    For each grid size, runs the same PS-scheme simulation on the
    scalar (per-object oracle) and vectorized (flat-array) backends and
    reports throughput in steps x racks per second. The recorder runs
    under a hard row budget so memory stays bounded even at 1024 racks;
    multi-PDU cases record per-PDU aggregates rather than per-rack
    matrices. Writes a JSON report and exits non-zero when the
    vectorized backend fails its speedup floor at the largest size.
    """
    import json
    import time

    from .benchmeta import bench_environment
    from .config import ClusterConfig, DataCenterConfig, TopologyConfig
    from .sim.datacenter import DataCenterSimulation
    from .workload.synthetic import SyntheticTraceConfig, generate_trace

    duration_s = args.scale_duration
    dt = 0.5
    row_budget = 64
    cases = []
    for racks, pdus in SCALE_GRID:
        topology = (
            TopologyConfig(racks_per_pdu=(racks // pdus,) * pdus)
            if pdus > 1
            else None
        )
        config = DataCenterConfig(
            cluster=ClusterConfig(racks=racks, topology=topology),
            seed=args.seed,
        )
        trace = generate_trace(
            SyntheticTraceConfig(
                machines=racks * config.cluster.rack.servers,
                duration_s=max(600.0, duration_s),
            ),
            seed=args.seed,
        )
        steps = int(round(duration_s / dt))
        case = {"racks": racks, "pdus": pdus, "steps": steps}
        for backend in ("scalar", "vectorized"):
            sim = DataCenterSimulation(
                config,
                trace,
                SCHEMES["PS"],
                backend=backend,
                recorder_row_budget=row_budget,
                record_pdu_aggregates=pdus > 1,
            )
            start = time.perf_counter()
            result = sim.run(duration_s=duration_s, dt=dt, record_every=1)
            elapsed = time.perf_counter() - start
            case[backend] = {
                "elapsed_s": round(elapsed, 4),
                "steps_racks_per_s": round(steps * racks / elapsed, 1),
            }
            rows = len(result.recorder)
            case["recorder_rows"] = rows
            if rows > row_budget:
                print(f"error: recorder kept {rows} rows over the "
                      f"{row_budget}-row budget")
                return 1
        case["speedup"] = round(
            case["vectorized"]["steps_racks_per_s"]
            / case["scalar"]["steps_racks_per_s"],
            2,
        )
        cases.append(case)
        print(f"{racks:>5} racks x {pdus:>2} PDUs: "
              f"scalar {case['scalar']['steps_racks_per_s']:>12,.0f} "
              f"vectorized {case['vectorized']['steps_racks_per_s']:>12,.0f} "
              f"steps*racks/s ({case['speedup']:.1f}x)")
    top = cases[-1]
    report = {
        "scheme": "PS",
        "dt_s": dt,
        "duration_s": duration_s,
        "recorder_row_budget": row_budget,
        "speedup_floor": SCALE_SPEEDUP_FLOOR,
        "speedup_at_max_scale": top["speedup"],
        "cases": cases,
        "environment": bench_environment("single pass per grid size"),
    }
    with open(args.scale_output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"\nwrote {args.scale_output}")
    if top["speedup"] < SCALE_SPEEDUP_FLOOR:
        print(f"error: vectorized backend is only {top['speedup']:.1f}x "
              f"scalar at {top['racks']} racks "
              f"(floor {SCALE_SPEEDUP_FLOOR:.0f}x)")
        return 1
    return 0


#: Cohort-benchmark grid shape — the exact committed BENCH_sweep grid,
#: so the two baselines describe the same work.
COHORT_BENCH_WINDOW_S = 2400.0
COHORT_BENCH_ONSET_S = 2100.0

#: Required stacked-over-per-cell advantage. Conservative for shared CI
#: runners; BENCH_cohort.json records the real measured ratio.
COHORT_SPEEDUP_FLOOR = 4.0

#: Interleaved passes (cohort, per-cell, cohort, ...) keeping per-side
#: minima, mirroring the sweep bench's noise-rejection protocol.
COHORT_BENCH_REPEATS = 2


def _cmd_bench_cohort(args: argparse.Namespace) -> int:
    """Benchmark the stacked cohort backend against per-cell runs.

    Runs the committed 36-cell fig15-style grid (six Table-III schemes,
    three late-onset scenarios, two attacker seeds) once as a single
    batched cohort and once as 36 individual vectorized survival runs,
    demands bit-identical per-cell metrics, and writes the measured
    ratio to a JSON report. Exits non-zero when the metrics disagree or
    the speedup drops below the floor, so CI catches both a correctness
    break and a silently disabled batch path.
    """
    import json
    import time
    from dataclasses import replace

    from .attack.scenario import DENSE_ATTACK, SPARSE_ATTACK
    from .benchmeta import bench_environment
    from .experiments.common import (
        SCHEME_ORDER,
        CohortMember,
        run_survival,
        run_survival_cohort,
        standard_setup,
    )

    onset = COHORT_BENCH_ONSET_S
    window = COHORT_BENCH_WINDOW_S
    setup = standard_setup(seed=args.seed)
    scenarios = [
        replace(DENSE_ATTACK, start_s=onset, name="dense-late"),
        replace(SPARSE_ATTACK, start_s=onset, name="sparse-late"),
        replace(DENSE_ATTACK.with_nodes(4), start_s=onset + 60.0,
                name="dense4-later"),
    ]
    members = [
        CohortMember(scheme=scheme, scenario=scenario, seed=seed)
        for scenario in scenarios
        for seed in (7, 11)
        for scheme in SCHEME_ORDER
    ]

    cohort_s = per_cell_s = float("inf")
    cohort_metrics: "list[float]" = []
    per_cell_metrics: "list[float]" = []
    for _ in range(COHORT_BENCH_REPEATS):
        start = time.perf_counter()
        batched = run_survival_cohort(setup, members, window_s=window)
        cohort_s = min(cohort_s, time.perf_counter() - start)
        cohort_metrics = [r.survival_or_window() for r in batched]

        start = time.perf_counter()
        singles = [
            run_survival(
                setup, member.scheme, member.scenario,
                window_s=window, seed=member.seed,
            )
            for member in members
        ]
        per_cell_s = min(per_cell_s, time.perf_counter() - start)
        per_cell_metrics = [r.survival_or_window() for r in singles]

    mismatches = [
        (member.scheme, member.scenario.name, member.seed, got, want)
        for member, got, want in zip(
            members, cohort_metrics, per_cell_metrics
        )
        if got != want
    ]
    speedup = per_cell_s / cohort_s
    print(f"cohort  : {cohort_s:7.2f}s  ({len(members)} cells stacked)")
    print(f"per-cell: {per_cell_s:7.2f}s  (vectorized backend)")
    print(f"speedup : {speedup:.2f}x  (floor {COHORT_SPEEDUP_FLOOR:.1f}x)")

    report = {
        "benchmark": (
            "fig15-style survival grid: 6 schemes x 3 late-onset "
            "scenarios x 2 seeds (36 cells), stacked cohort vs "
            "per-cell vectorized"
        ),
        "window_s": window,
        "onset_s": onset,
        "cells": len(members),
        "cohort_s": round(cohort_s, 4),
        "per_cell_s": round(per_cell_s, 4),
        "speedup": round(speedup, 3),
        "speedup_floor": COHORT_SPEEDUP_FLOOR,
        "metrics_identical": not mismatches,
        "environment": bench_environment(
            f"min of {COHORT_BENCH_REPEATS} interleaved passes"
        ),
    }
    with open(args.cohort_output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    print(f"\nwrote {args.cohort_output}")
    if mismatches:
        for scheme, scenario, seed, got, want in mismatches[:6]:
            print(f"error: {scheme}/{scenario}/s{seed}: cohort {got!r} "
                  f"!= per-cell {want!r}")
        print(f"error: {len(mismatches)} of {len(members)} cohort cells "
              f"diverged from the per-cell reference")
        return 1
    if speedup < COHORT_SPEEDUP_FLOOR:
        print(f"error: cohort backend is only {speedup:.2f}x per-cell "
              f"(floor {COHORT_SPEEDUP_FLOOR:.1f}x)")
        return 1
    return 0


#: End-to-end compiled-tier sweep: the paper's Phase-I sustained power
#: attack, where demand sits a few percent over the PDU budget and the
#: batteries drain steadily — the regime the steady-drain replay (and
#: its fused ``drain_block`` kernel) exists for. Levels bracket the
#: overload threshold from just above; 0.60 and below is budget-clean
#: (no battery activity, nothing for either tier to integrate).
COMPILED_BENCH_UTILISATIONS = (0.61, 0.63, 0.65)

#: Drainable schemes (stock management/battery hooks) stacked per level.
COMPILED_BENCH_SCHEMES = ("PS", "PSPC", "uDEB")

COMPILED_BENCH_WINDOW_S = 2400.0

#: Required compiled-over-numpy advantage on the end-to-end sweep.
#: Conservative for shared CI runners; BENCH_compiled.json records the
#: real measured ratio (~2.4x on the dev container).
COMPILED_SPEEDUP_FLOOR = 1.5

#: Interleaved passes (numpy, compiled, numpy, ...) keeping per-tier
#: minima, after one untimed warm-up pass per tier so the cc
#: shared-object build never lands in a timed sample.
COMPILED_BENCH_REPEATS = 3


def _cmd_bench_compiled(args: argparse.Namespace) -> int:
    """Benchmark the compiled kernel tier against the numpy tier.

    Two sections, both min-of-N interleaved with warm-up excluded:

    * per-kernel micro timings — the live fused-dispatch call and the
      breaker thermal step at stacked-family width (132 branches), and
      the steady-drain replay (numpy per-tick ``_drain_step`` vs the
      fused ``drain_block`` call) on a drain-dominated cohort run;
    * an end-to-end survival sweep over the paper's Phase-I sustained
      overload: drainable schemes stacked at three utilisation levels
      just over the PDU budget, run once per kernel tier.

    Demands identical per-cell metrics across tiers and exits non-zero
    on divergence or when the end-to-end speedup drops below the floor,
    so CI catches both a correctness break and a silently degraded
    compiled tier.
    """
    import json
    import time

    import numpy as np

    from .benchmeta import bench_environment
    from .config import (
        BreakerConfig,
        ChargingPolicy,
        ClusterConfig,
        DataCenterConfig,
    )
    from .defense import SCHEMES, SchemeContext, StepState
    from .experiments.common import (
        CohortMember,
        ExperimentSetup,
        run_survival_cohort,
    )
    from .kernels import active_provider
    from .power.breaker_kernels import make_breaker_bank
    from .workload.cluster import ClusterModel
    from .workload.trace import UtilizationTrace

    provider = active_provider()
    if provider is None:
        print("error: no compiled-kernel provider available — it needs "
              "a working C compiler (cc, gcc or clang) on PATH")
        return 1

    width = 132  # six stacked 22-rack cells, the cohort family shape

    def make_scheme(kernels: str):
        config = DataCenterConfig(
            cluster=ClusterConfig(racks=width, pdu_budget_fraction=0.83),
            charging=ChargingPolicy.ONLINE,
            seed=args.seed,
        )
        cluster = ClusterModel(config.cluster)
        limits = np.full(width, config.cluster.pdu_budget_w / width)
        context = SchemeContext(
            config=config,
            cluster=cluster,
            initial_soft_limits_w=limits,
            branch_rating_w=limits * 1.03,
            backend="vectorized",
            initial_battery_soc=0.6,
            kernels=kernels,
        )
        return SCHEMES["uDEB"](context)

    def time_dispatch(kernels: str, calls: int = 1500) -> float:
        scheme = make_scheme(kernels)
        rng = np.random.default_rng(args.seed)
        base = scheme.soft_limits_w.copy()
        servers = scheme.ctx.cluster.servers
        demands = [base * rng.uniform(0.3, 1.4, width) for _ in range(32)]
        utils = [rng.uniform(0.0, 1.0, servers) for _ in range(32)]
        start = time.perf_counter()
        t = 0.0
        for i in range(calls):
            scheme.dispatch(StepState(
                time_s=t, dt=1.0,
                rack_demand_w=demands[i % 32],
                metered_rack_avg_w=demands[i % 32],
                metered_server_util=utils[i % 32],
            ))
            t += 1.0
        return (time.perf_counter() - start) / calls

    def time_breaker(kernels: str, calls: int = 4000) -> float:
        rng = np.random.default_rng(args.seed)
        ratings = rng.uniform(900.0, 1100.0, width)
        bank = make_breaker_bank(
            "vectorized", BreakerConfig(), ratings, kernels=kernels
        )
        # Mixed benign/overloaded ticks; periodic re-arm keeps the trip
        # logic (not just whole-bank cooling) in the measured loop.
        loads = [ratings * rng.uniform(0.7, 1.2, width) for _ in range(32)]
        start = time.perf_counter()
        for i in range(calls):
            if i % 256 == 0:
                bank.reset_all()
            bank.step(loads[i % 32], 0.5, time_s=i * 0.5)
        return (time.perf_counter() - start) / calls

    def sustained_setup(level: float) -> ExperimentSetup:
        config = DataCenterConfig(seed=args.seed)
        machines = ClusterModel(config.cluster).servers
        flat = np.full((200, machines), level)
        return ExperimentSetup(
            config=config,
            trace=UtilizationTrace(flat, interval_s=300.0),
            attack_time_s=600.0,
        )

    def time_drain(kernels: str) -> float:
        members = [
            CohortMember(scheme="PS", scenario=None, seed=7)
            for _ in range(4)
        ]
        start = time.perf_counter()
        run_survival_cohort(
            sustained_setup(0.63), members, window_s=1800.0,
            record_every=40, kernels=kernels,
        )
        return time.perf_counter() - start

    def sweep(kernels: str) -> "tuple[float, list]":
        metrics = []
        start = time.perf_counter()
        for level in COMPILED_BENCH_UTILISATIONS:
            members = [
                CohortMember(scheme=scheme, scenario=None, seed=7)
                for scheme in COMPILED_BENCH_SCHEMES
                for _ in range(4)
            ]
            results = run_survival_cohort(
                sustained_setup(level), members,
                window_s=COMPILED_BENCH_WINDOW_S,
                record_every=40, kernels=kernels,
            )
            metrics.extend(
                (level, member.scheme, r.survival_or_window(),
                 r.delivered_work, r.demanded_work,
                 tuple(t.time_s for t in r.trips))
                for member, r in zip(members, results)
            )
        return time.perf_counter() - start, metrics

    # Warm-up (untimed): first compiled use builds/loads the kernels.
    for tier in ("numpy", "compiled"):
        time_dispatch(tier, calls=10)
        time_breaker(tier, calls=10)

    micro = {
        "dispatch": {"numpy": float("inf"), "compiled": float("inf")},
        "breaker": {"numpy": float("inf"), "compiled": float("inf")},
        "steady_drain": {"numpy": float("inf"), "compiled": float("inf")},
    }
    end_to_end = {"numpy": float("inf"), "compiled": float("inf")}
    sweep_metrics: "dict[str, list]" = {}
    for _ in range(COMPILED_BENCH_REPEATS):
        for tier in ("numpy", "compiled"):
            micro["dispatch"][tier] = min(
                micro["dispatch"][tier], time_dispatch(tier)
            )
            micro["breaker"][tier] = min(
                micro["breaker"][tier], time_breaker(tier)
            )
            micro["steady_drain"][tier] = min(
                micro["steady_drain"][tier], time_drain(tier)
            )
            elapsed, metrics = sweep(tier)
            end_to_end[tier] = min(end_to_end[tier], elapsed)
            sweep_metrics[tier] = metrics

    mismatches = [
        (got[0], got[1], got[2:], want[2:])
        for got, want in zip(
            sweep_metrics["compiled"], sweep_metrics["numpy"]
        )
        if got != want
    ]
    speedup = end_to_end["numpy"] / end_to_end["compiled"]

    def section(label: str, scale: float, unit: str) -> dict:
        numpy_t = micro[label]["numpy"] * scale
        compiled_t = micro[label]["compiled"] * scale
        print(f"{label:13s}: numpy {numpy_t:9.2f}{unit}  "
              f"compiled {compiled_t:9.2f}{unit}  "
              f"({numpy_t / compiled_t:.2f}x)")
        return {
            f"numpy_{unit}": round(numpy_t, 3),
            f"compiled_{unit}": round(compiled_t, 3),
            "speedup": round(numpy_t / compiled_t, 3),
        }

    kernels_report = {
        "dispatch": {"width": width, **section("dispatch", 1e6, "us")},
        "breaker": {"width": width, **section("breaker", 1e6, "us")},
        "steady_drain": {
            "window_s": 1800.0, **section("steady_drain", 1.0, "s"),
        },
    }
    print(f"end-to-end   : numpy {end_to_end['numpy']:9.2f}s  "
          f"compiled {end_to_end['compiled']:9.2f}s  ({speedup:.2f}x, "
          f"floor {COMPILED_SPEEDUP_FLOOR:.1f}x)")

    if args.profile:
        import cProfile
        import pstats

        # Kernel compilation happened during the warm-up passes above,
        # so the profile shows steady-state dispatch only. Kernel calls
        # appear as labeled <repro-kernels:NAME> frames.
        print("\nprofile: one compiled end-to-end pass (warm-up/build "
              "excluded; C-kernel dispatch frames are labeled "
              "<repro-kernels:NAME>)")
        profiler = cProfile.Profile()
        profiler.runcall(sweep, "compiled")
        pstats.Stats(profiler).sort_stats("cumulative").print_stats(25)

    report = {
        "benchmark": (
            "compiled kernel tier vs numpy tier: per-kernel micro "
            "timings plus an end-to-end Phase-I sustained-overload "
            "survival sweep (3 drainable schemes x 4 stacked cells x "
            "3 utilisation levels just over the PDU budget)"
        ),
        "provider": provider,
        "window_s": COMPILED_BENCH_WINDOW_S,
        "utilisation_levels": list(COMPILED_BENCH_UTILISATIONS),
        "schemes": list(COMPILED_BENCH_SCHEMES),
        "cells_per_level": 4 * len(COMPILED_BENCH_SCHEMES),
        "kernels": kernels_report,
        "end_to_end": {
            "numpy_s": round(end_to_end["numpy"], 4),
            "compiled_s": round(end_to_end["compiled"], 4),
            "speedup": round(speedup, 3),
        },
        "speedup": round(speedup, 3),
        "speedup_floor": COMPILED_SPEEDUP_FLOOR,
        "metrics_identical": not mismatches,
        "environment": bench_environment(
            f"min of {COMPILED_BENCH_REPEATS} interleaved passes; "
            "warm-up excluded"
        ),
    }
    with open(args.compiled_output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    print(f"\nwrote {args.compiled_output}")
    if mismatches:
        for level, scheme, got, want in mismatches[:6]:
            print(f"error: u={level}/{scheme}: compiled {got!r} "
                  f"!= numpy {want!r}")
        print(f"error: {len(mismatches)} of "
              f"{len(sweep_metrics['numpy'])} cells diverged across "
              "kernel tiers")
        return 1
    if speedup < COMPILED_SPEEDUP_FLOOR:
        print(f"error: compiled tier is only {speedup:.2f}x numpy "
              f"(floor {COMPILED_SPEEDUP_FLOOR:.1f}x)")
        return 1
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """Time a reduced fig15-style sweep with every fast path enabled.

    Exercises fast-forward and prefix-snapshot sharing on a small grid
    and prints wall-clock plus the fast-forward counters; exits non-zero
    when fast-forward never jumped, so CI smoke jobs catch a silently
    disabled fast path. ``--profile`` wraps the sweep in cProfile;
    ``--scale`` runs the topology scale benchmark instead; ``--cohort``
    runs the stacked-vs-per-cell cohort benchmark instead;
    ``--compiled`` runs the compiled-vs-numpy kernel-tier benchmark
    instead.
    """
    if args.scale:
        return _cmd_bench_scale(args)
    if args.cohort:
        return _cmd_bench_cohort(args)
    if args.compiled:
        return _cmd_bench_compiled(args)
    import time
    from dataclasses import replace

    from .attack.scenario import DENSE_ATTACK, SPARSE_ATTACK
    from .experiments.common import (
        prepare_survival_prefix,
        resume_survival_from_snapshot,
        standard_setup,
        run_survival,
    )
    from .sim.datacenter import DataCenterSimulation

    setup = standard_setup(seed=args.seed)
    scenarios = [
        replace(DENSE_ATTACK, start_s=args.onset, name="dense-late"),
        replace(SPARSE_ATTACK, start_s=args.onset, name="sparse-late"),
    ]
    schemes = ("Conv", "PS", "uDEB")
    offset = min(s.start_s for s in scenarios)
    stats = None

    def sweep() -> "dict[str, dict[str, float]]":
        nonlocal stats
        grid: "dict[str, dict[str, float]]" = {}
        for scheme in schemes:
            snapshot = prepare_survival_prefix(
                setup, scheme, offset, window_s=args.window,
                fast_forward=True,
            )
            for scenario in scenarios:
                if snapshot is not None:
                    result = resume_survival_from_snapshot(
                        setup, snapshot, scenario
                    )
                else:
                    result = run_survival(
                        setup, scheme, scenario, window_s=args.window,
                        fast_forward=True,
                    )
                grid.setdefault(scenario.name, {})[scheme] = (
                    result.survival_or_window()
                )
            if snapshot is not None:
                prefix_sim = DataCenterSimulation.restore(snapshot)
                if stats is None:
                    stats = prefix_sim.fast_forward_stats
                else:
                    stats.jumps += prefix_sim.fast_forward_stats.jumps
                    stats.steps_skipped += (
                        prefix_sim.fast_forward_stats.steps_skipped
                    )
        return grid

    start = time.perf_counter()
    if args.profile:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        grid = profiler.runcall(sweep)
        elapsed = time.perf_counter() - start
        pstats.Stats(profiler).sort_stats("cumulative").print_stats(25)
    else:
        grid = sweep()
        elapsed = time.perf_counter() - start

    from .experiments.common import format_table

    print(format_table(grid, value_format="{:>10.0f}"))
    print(f"\nbench wall-clock: {elapsed:.2f} s "
          f"({len(schemes)} schemes x {len(scenarios)} scenarios, "
          f"window {args.window:.0f} s, onset {args.onset:.0f} s)")
    if stats is None:
        print("fast-forward: no shared prefixes ran")
        return 1
    print(f"fast-forward: {stats.jumps} jumps, "
          f"{stats.steps_skipped} steps skipped")
    if stats.steps_skipped == 0:
        print("error: fast-forward never jumped — fast path disabled?")
        return 1
    return 0


def _cmd_demo(_args: argparse.Namespace) -> int:
    from .experiments import fig06_two_phase, fig07_effective_attack

    fig06_two_phase.main()
    print()
    fig07_effective_attack.main()
    return 0


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "survive": _cmd_survive,
        "grid": _cmd_grid,
        "report": _cmd_report,
        "demo": _cmd_demo,
        "bench": _cmd_bench,
        "search": _cmd_search,
        "tune": _cmd_tune,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
