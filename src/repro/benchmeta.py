"""Machine-readable environment metadata for ``BENCH_*.json`` reports.

Every benchmark report carries an ``environment`` block describing the
toolchain the numbers were recorded under — interpreter and numpy
versions, the active compiled-kernel provider and the CPU count — plus
a one-line ``protocol`` note (repeats, interleaving).
The block replaces the old free-text ``recorded_on`` string: a reader
can now tell *why* two baselines differ instead of guessing from prose.
``scripts/check_bench.py`` ignores it entirely; it gates only on the
speedup fields.
"""

from __future__ import annotations

import os
import platform


def bench_environment(protocol: str) -> dict:
    """The environment block stamped into a benchmark report.

    Args:
        protocol: One-line measurement-protocol note, e.g.
            ``"min of 3 interleaved passes"``.
    """
    import numpy

    from .kernels import active_provider

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_provider": active_provider(),
        "cpu_count": os.cpu_count(),
        "protocol": protocol,
    }
