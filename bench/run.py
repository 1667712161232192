#!/usr/bin/env python3
"""Outside-in benchmark of the repro library: four workloads, end-to-end
metrics, and an opt-in traced run for per-layer attribution.

Usage (from the repository root)::

    python3 bench/run.py [--workload NAME]... [--seed N] [--seconds S]
                         [--trace [0|1]] [--smoke] [--out PATH]
    python3 bench/run.py --regen-reference --seed N [--workload NAME]...

Every workload runs as a closed-loop batch job, one job at a time, with
no worker pool. Each job is a fresh ``child.py`` interpreter: the
harness starts one-pass jobs while another pass fits in ``--seconds``
(at least one), interleaved with ``SETUP_RUNS`` cold starts, and checks
every output. With ``--trace`` one untraced and one traced pass run
instead, and the per-layer metrics replace the end-to-end ones in the
result line. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md
for the protocol.

This process imports neither numpy nor the library: a child inherits
its parent's resident set into ``ru_maxrss``, so a small parent keeps
``peak_rss_mb`` the child's own.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CACHE = BENCH / ".cache"

WORKLOAD_NAMES = ("paper", "sweep", "search", "drain")
#: Cold starts timed per workload; ``setup_s`` is their median.
SETUP_RUNS = 5
#: The measuring budget when ``--seconds`` is not given (BENCHMARK.json's
#: ``run_seconds``).
DEFAULT_SECONDS = 12
#: ``(name, unit)`` of the end-to-end metrics in the result line.
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
CHILD_TIMEOUT_S = 900


class BenchError(RuntimeError):
    """A child job failed; the run has no result to report."""


def _child(job: str, args: argparse.Namespace, workload: str,
           *extra: str) -> dict:
    """Run one ``child.py`` job to completion and return its JSON."""
    tmp = CACHE / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env["REPRO_KERNEL_CACHE"] = str(CACHE / "kernels")
    env["TMPDIR"] = str(tmp)  # the C compiler's scratch files
    command = [
        sys.executable, str(BENCH / "child.py"), job,
        "--workload", workload, "--seed", str(args.seed), *extra,
    ]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(
        command, env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise BenchError(
            f"{workload} {job} job exited {done.returncode}:\n"
            f"{done.stderr.strip()}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _loadavg() -> "list[float] | None":
    try:
        return [float(x) for x in
                Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def _git_commit() -> str:
    """HEAD's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class _Tally:
    """Operations attempted and failed across one workload's passes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.problems: "dict[str, str]" = {}
        self.failed = 0
        self.first: "dict | None" = None

    def add(self, label: str, job: dict) -> None:
        """Count one pass: its own problems, plus every output that
        differs from the first pass's."""
        problems = dict(job["problems"])
        if self.first is None:
            self.first = job["outputs"]
        else:
            for key in set(job["outputs"]) | set(self.first):
                if job["outputs"].get(key) != self.first.get(key):
                    problems.setdefault(key, "differs from the first pass")
        self.attempted += job["attempted"]
        self.failed += len(problems)
        self.problems.update(
            {f"{label} {key}": text for key, text in problems.items()}
        )


def measure(workload: str, args: argparse.Namespace) -> dict:
    """Every job of one workload; returns its result record.

    Cold starts interleave with the one-pass processes, so a slow spell
    of the host lands on a few samples of each kind rather than on all
    of one kind. They share the kernel cache: the C build is a one-time
    cost per machine, and on a 2-core VM its time swung from 0.10 to
    0.18 s with host load, moving ``drain``'s median set-up by 27 %
    between two sets of runs.
    """
    load_before = _loadavg()
    tally = _Tally()
    setup_samples: "list[float]" = []
    passes: "list[dict]" = []
    while True:
        if not args.trace and len(setup_samples) < SETUP_RUNS:
            setup_samples.append(_child("setup", args, workload)["setup_s"])
        extra = ["--spot-check"] if not passes else []
        passes.append(_child("measure", args, workload, *extra))
        tally.add(f"pass {len(passes)}", passes[-1])
        spent = [p["pass_s"] for p in passes]
        if args.trace or sum(spent) + statistics.median(spent) > args.seconds:
            break
    while not args.trace and len(setup_samples) < SETUP_RUNS:
        setup_samples.append(_child("setup", args, workload)["setup_s"])
    wall_s = statistics.median(p["pass_s"] for p in passes)
    peak_rss_mb = statistics.median(p["peak_rss_mb"] for p in passes)
    record: dict = {"workload": workload, "seed": args.seed}
    if args.trace:
        traced = _child(
            "measure", args, workload, "--trace",
            "--baseline-pass-s", repr(wall_s),
        )
        tally.add("traced", traced)
        record["metrics"] = traced["per_layer"]
        record["spans"] = traced["spans"]
        record["edges"] = traced["edges"]
    else:
        record["metrics"] = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {
                "value": statistics.median(setup_samples), "unit": "s"
            },
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    record.update({
        "verified": passes[0]["verified"],
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": dict(sorted(tally.problems.items())[:20]),
        "pass_s": [p["pass_s"] for p in passes],
        "peak_rss_mb_per_pass": [p["peak_rss_mb"] for p in passes],
        "setup_samples_s": setup_samples,
    })
    record["environment"] = {
        **passes[0]["environment"],
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before,
        "loadavg_after": _loadavg(),
        "git_commit": _git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "passes": len(passes),
        "setup_runs": len(setup_samples),
        "smoke": args.smoke,
    }
    return record


def _print_record(record: dict) -> None:
    metrics = record["metrics"]
    verified = "verified" if record["verified"] else "not verified"
    print(f"== {record['workload']} (seed {record['seed']}, {verified}, "
          f"passes: {len(record['pass_s'])})")
    rows = dict(metrics)
    rows["ops"] = {"value": record["attempted"], "unit": "count"}
    rows["ops_failed"] = {"value": record["failed"], "unit": "count"}
    for name, metric in rows.items():
        print(f"  {name:48s} {metric['value']:>14.6g} {metric['unit']}")
    for key, problem in record["problems"].items():
        print(f"  ! {key}: {problem}")


def _result_line(records: "list[dict]") -> dict:
    """The final JSON line; metric names get a ``<workload>.`` prefix
    when several workloads ran."""
    prefix = len(records) > 1
    metrics = {}
    for record in records:
        for name, metric in record["metrics"].items():
            key = f"{record['workload']}.{name}" if prefix else name
            metrics[key] = metric
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def regen(args: argparse.Namespace) -> int:
    status = 0
    for workload in args.workload:
        if workload == "paper":
            print("paper: checked against EXPERIMENTS.md; nothing to write")
            continue
        result = _child("regen", args, workload)
        if result["written"]:
            print(f"{workload}: wrote {result['written']}")
        else:
            status = 1
            print(f"{workload}: timed path disagrees with the reference "
                  f"path; nothing written")
            for key, problem in list(result["mismatches"].items())[:10]:
                print(f"  ! {key}: {problem}")
    return status


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", action="append",
                        choices=WORKLOAD_NAMES,
                        help="repeatable; default: all four")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measuring budget per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="reduced inputs; references computed inline")
    parser.add_argument("--out", type=Path,
                        help="write the full result document here")
    parser.add_argument("--regen-reference", action="store_true",
                        help="rewrite reference/<workload>-seed<N>.json")
    args = parser.parse_args(argv)
    args.workload = args.workload or list(WORKLOAD_NAMES)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no library source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    try:
        if args.regen_reference:
            return regen(args)
        records = []
        for workload in args.workload:
            record = measure(workload, args)
            _print_record(record)
            records.append(record)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "workloads": {r["workload"]: r for r in records},
        }, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(_result_line(records)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
