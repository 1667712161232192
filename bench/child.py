"""One benchmark job in a fresh interpreter; started by ``run.py``.

Jobs:

* ``setup``   — time a cold start: import the library, build the
  workload's inputs, and load the kernel provider it needs;
* ``measure`` — build the inputs (untimed), run one timed pass of the
  workload body (traced with ``--trace``), check its outputs, and report
  the pass time, peak RSS and the outputs themselves;
* ``regen``   — recompute a committed reference along the reference
  path and write it under ``reference/``.

Each job prints one JSON object as its last line of standard output.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))


def _setup(args) -> dict:
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    workload.prepare(workload.build(args.seed, args.smoke))
    return {"setup_s": time.perf_counter() - STARTED}


def _measure(args) -> dict:
    import workloads
    from repro.benchmeta import bench_environment

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.build(args.seed, args.smoke)
    workload.prepare(inputs)
    if args.smoke:
        reference = workloads.normalise(workload.reference(inputs))
    else:
        reference = workload.committed_reference(inputs, args.seed)
    problems: "dict[str, str]" = {}
    start = time.perf_counter()
    try:
        outcome = workload.run(inputs)
    except Exception as exc:  # the whole pass failed
        outputs = {}
        problems["pass"] = f"{type(exc).__name__}: {exc}"
    else:
        outputs = workloads.normalise(outcome.outputs)
        problems.update(outcome.errors)
    pass_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
    if reference is not None and outputs:
        problems.update(workload.check(outputs, reference))
    if args.spot_check and reference is None and outputs:
        try:
            spot = workload.spot_check(inputs, outputs, args.seed)
        except Exception as exc:
            spot = {"": f"{type(exc).__name__}: {exc}"}
        problems.update({f"spot check {k}": v for k, v in spot.items()})
    result = {
        "pass_s": pass_s,
        "peak_rss_mb": peak_rss_mb,
        "verified": reference is not None,
        "outputs": outputs,
        "attempted": max(len(set(outputs) | set(reference or {})), 1),
        "problems": problems,
        "environment": bench_environment(
            "median of one-pass processes within the run budget; setup "
            "is the median of cold-start processes interleaved with them"
        ),
    }
    if tracer is not None:
        from tracer import per_layer_metrics

        result["per_layer"] = per_layer_metrics(
            tracer, pass_s - args.baseline_pass_s
        )
        result["spans"] = {
            name: {"calls": calls, "total_s": total, "self_s": own}
            for name, (calls, total, own) in sorted(tracer.spans.items())
        }
        result["edges"] = [
            {"parent": parent, "child": child, "calls": calls,
             "total_s": total}
            for (parent, child), (calls, total) in sorted(tracer.edges.items())
        ]
    return result


def _regen(args) -> dict:
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.build(args.seed, False)
    workload.prepare(inputs)
    reference = workloads.normalise(workload.reference(inputs))
    mismatches = workload.check(
        workloads.normalise(workload.run(inputs).outputs), reference
    )
    if mismatches:
        return {"written": None, "mismatches": mismatches}
    path = workloads.reference_path(workload.name, args.seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps({
            "workload": workload.name,
            "seed": args.seed,
            "reference_path": workload.reference.__doc__.strip(),
            "outputs": reference,
        }, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return {"written": str(path), "mismatches": {}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("job", choices=("setup", "measure", "regen"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spot-check", action="store_true")
    parser.add_argument("--baseline-pass-s", type=float, default=0.0)
    args = parser.parse_args()
    job = {"setup": _setup, "measure": _measure, "regen": _regen}[args.job]
    print(json.dumps(job(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
