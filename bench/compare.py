#!/usr/bin/env python3
"""Compare two sets of benchmark results under BENCHMARK.json's bounds.

Usage::

    python3 bench/compare.py BASE.json... -- CHANGE.json...

Each file is a ``run.py --out`` document. Runs pair up in the order
given (run the two sides alternately and list them in run order). For
every workload and end-to-end metric the report gives each side's
median and quartiles, the fraction of pairs the change wins, and a
verdict:

* ``better``     — the change wins at least 90 % of the pairs (ties
  count for neither side) and the medians differ by more than the
  base's own interquartile range;
* ``worse``      — the change's median is worse than the base's by more
  than the metric's bound;
* ``unresolved`` — either side's interquartile range, as a share of its
  median, exceeds the bound, and not every change run beats every base
  run;
* ``unchanged``  — otherwise.

Exits 1 when any verdict is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def _values(paths: "list[str]") -> "dict[tuple[str, str], list[float]]":
    values: "dict[tuple[str, str], list[float]]" = {}
    for path in paths:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
        for workload, record in document["workloads"].items():
            for name, metric in record["metrics"].items():
                values.setdefault((workload, name), []).append(metric["value"])
    return values


def quartiles(values: "list[float]") -> "tuple[float, float, float]":
    """``(q1, median, q3)``; a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(
    base: "list[float]", change: "list[float]", better: str, bound: float
) -> "tuple[str, float]":
    """The verdict for one metric and the change's win fraction."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(base, change))
    wins = sum(sign * (b - c) > 0 for b, c in pairs)
    win_fraction = wins / len(pairs)
    b_q1, b_med, b_q3 = quartiles(base)
    c_q1, c_med, c_q3 = quartiles(change)
    if (
        win_fraction >= 0.9
        and sign * (b_med - c_med) > b_q3 - b_q1
    ):
        return "better", win_fraction
    noisy = max((b_q3 - b_q1) / b_med, (c_q3 - c_q1) / c_med) > bound
    dominated = all(sign * (b - c) > 0 for b in base for c in change)
    if noisy and not dominated:
        return "unresolved", win_fraction
    if sign * (c_med - b_med) > bound * b_med:
        return "worse", win_fraction
    return "unchanged", win_fraction


def main(argv: "list[str]") -> int:
    if "--" not in argv:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    split = argv.index("--")
    base, change = _values(argv[:split]), _values(argv[split + 1:])
    specs = {
        m["name"]: m
        for m in json.loads(BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]
    }
    status = 0
    print(f"{'workload':8s} {'metric':12s} {'base q1/med/q3':>30s} "
          f"{'change q1/med/q3':>30s} {'wins':>5s}  verdict")
    for key in sorted(base):
        workload, name = key
        if name not in specs or key not in change:
            continue
        spec = specs[name]
        result, wins = verdict(
            base[key], change[key], spec["better"], spec["bound"]
        )
        if result in ("worse", "unresolved"):
            status = 1
        b = "/".join(f"{v:.4g}" for v in quartiles(base[key]))
        c = "/".join(f"{v:.4g}" for v in quartiles(change[key]))
        print(f"{workload:8s} {name:12s} {b:>30s} {c:>30s} "
              f"{wins:5.2f}  {result}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
