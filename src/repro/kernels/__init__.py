"""Kernel-tier selection: ``kernels="numpy" | "compiled"``.

The compiled tier fuses the per-step hot path (battery dispatch, the
steady-drain inner loop, breaker-bank thermal steps) into single
compiled calls over the flat cohort arrays. Its one provider, ``cc``,
compiles the C source in :mod:`repro.kernels.c_src` with the machine's
C compiler and loads it through ctypes. When that cannot work — no C
compiler on ``PATH``, the compiler exits non-zero, the default cache
directory is not private to this user, or writing the cache or loading
the shared object fails — ``kernels="compiled"`` degrades to
the numpy tier with a single :class:`KernelFallbackWarning` naming the
cause. Any other error while loading the provider propagates.

Both tiers are bit-identical by construction (see ``c_src``); the tier
only changes how fast a step runs, never what it computes.
"""

from __future__ import annotations

import warnings
from types import SimpleNamespace

__all__ = [
    "KERNEL_TIERS",
    "KernelFallbackWarning",
    "active_provider",
    "get_kernels",
    "resolve_kernels",
]

#: The supported kernel tiers.
KERNEL_TIERS = ("numpy", "compiled")


class KernelFallbackWarning(RuntimeWarning):
    """Compiled kernels were requested but no provider is available."""


#: ``(provider name | None, namespace | None, fallback cause | None)``
#: once resolved.
_RESOLVED: "tuple[str | None, SimpleNamespace | None, str | None] | None" = None
_WARNED = False


def _resolve() -> "tuple[str | None, SimpleNamespace | None, str | None]":
    global _RESOLVED
    if _RESOLVED is None:
        from . import cc_backend

        try:
            _RESOLVED = ("cc", cc_backend.load(), None)
        except cc_backend.ProviderUnavailable as exc:
            _RESOLVED = (None, None, str(exc))
    return _RESOLVED


def active_provider() -> "str | None":
    """Name of the compiled provider in use (``cc``, or None)."""
    return _resolve()[0]


def get_kernels() -> "SimpleNamespace | None":
    """The compiled kernel namespace, or ``None`` when unavailable."""
    return _resolve()[1]


def resolve_kernels(kernels: str) -> str:
    """Validate a requested tier; degrade ``compiled`` when unbacked.

    Returns the *effective* tier. The downgrade warns exactly once per
    process, naming why the provider is unavailable, and the degraded
    run is bit-identical to an explicit ``kernels="numpy"`` run.
    """
    if kernels not in KERNEL_TIERS:
        raise ValueError(
            f"kernels must be one of {KERNEL_TIERS}, got {kernels!r}"
        )
    if kernels == "compiled" and get_kernels() is None:
        global _WARNED
        if not _WARNED:
            _WARNED = True
            warnings.warn(
                "kernels='compiled' requested but the C kernel provider "
                f"is unavailable: {_resolve()[2]}; falling back to the "
                "(bit-identical) numpy kernels.",
                KernelFallbackWarning,
                stacklevel=2,
            )
        return "numpy"
    return kernels
