"""ctypes/cc kernel backend — compiles :mod:`repro.kernels.c_src` once.

The compiled tier's only provider. The shared object is cached under a
filename hashing the compiler path, the flags and the source, so the
compile happens once per toolchain and source revision per user.
Flags are chosen for bit-identity, not raw speed: ``-O2`` with
``-ffp-contract=off`` (no FMA contraction), never ``-ffast-math`` or
``-march=native``.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import stat
import subprocess
import tempfile
from types import SimpleNamespace

from .c_src import SOURCE

_F64 = ctypes.POINTER(ctypes.c_double)
_U8 = ctypes.POINTER(ctypes.c_uint8)
_I64 = ctypes.POINTER(ctypes.c_int64)

#: argtypes per exported symbol; mirrors the loop signatures with
#: numpy arrays mapped to pointers and Python floats/ints to scalars.
_SIGNATURES = {
    "fused_dispatch": (
        [ctypes.c_int64, _F64, _F64, ctypes.c_int64, _F64]
        + [_F64, _F64, _F64, _F64, _F64, _U8, _F64, _F64, _I64]
        + [ctypes.c_double] * 13
        + [ctypes.c_int64, _U8, ctypes.c_double, ctypes.c_double]
        + [ctypes.c_int64, _F64, _I64, _F64, _I64]
        + [ctypes.c_double] * 5
        + [_F64] * 5
    ),
    "drain_block": (
        [ctypes.c_int64, ctypes.c_int64, _F64, _F64, _U8, _F64, _F64]
        + [ctypes.c_int64, _I64, _F64]
        + [_F64, _F64, _F64, _F64, _F64, _U8, _F64, _F64, _I64]
        + [ctypes.c_double] * 13
        + [ctypes.c_int64, _U8, ctypes.c_double, ctypes.c_double]
        + [ctypes.c_int64, _F64, _I64, _F64, _I64]
        + [ctypes.c_double] * 5
        + [_F64] * 4
    ),
    "breaker_step": (
        [ctypes.c_int64, _F64, _F64, _F64, _U8, _U8]
        + [ctypes.c_double] * 4
    ),
}

#: Bit-identity depends on these, so they are part of the cache key.
_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-lm")

_LOADED: "SimpleNamespace | None" = None


class ProviderUnavailable(RuntimeError):
    """The provider cannot be built or loaded here; the message says why."""


def _compiler() -> "str | None":
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _cache_name(compiler: str) -> str:
    """The shared object's filename for ``compiler`` and this source."""
    key = "\0".join((compiler, *_FLAGS, SOURCE))
    return f"repro_kernels_{hashlib.sha256(key.encode()).hexdigest()[:16]}"


def _cache_dir() -> str:
    """The directory holding the shared object, created if missing.

    An explicit ``REPRO_KERNEL_CACHE`` is used as given. The default,
    ``<tempdir>/repro-kernels-<uid>``, sits in a directory every user
    can write, and any library found in it is loaded and run, so it
    must be a real directory owned by this user that no one else can
    write; otherwise the provider is unavailable.
    """
    explicit = os.environ.get("REPRO_KERNEL_CACHE")
    if explicit:
        os.makedirs(explicit, exist_ok=True)
        return explicit
    uid = os.getuid()
    path = os.path.join(tempfile.gettempdir(), f"repro-kernels-{uid}")
    try:
        os.mkdir(path, 0o700)
    except FileExistsError:
        pass
    info = os.lstat(path)
    if (
        not stat.S_ISDIR(info.st_mode)
        or info.st_uid != uid
        or info.st_mode & (stat.S_IWGRP | stat.S_IWOTH)
    ):
        raise ProviderUnavailable(
            f"the kernel cache {path} is not private: it must be a "
            f"directory owned by uid {uid} that no other user can write"
        )
    return path


def _build() -> str:
    """Compile (or reuse) the kernel shared object; return its path."""
    compiler = _compiler()
    if compiler is None:
        raise ProviderUnavailable("no C compiler (cc, gcc or clang) on PATH")
    stem = os.path.join(_cache_dir(), _cache_name(compiler))
    so_path = f"{stem}.so"
    if os.path.exists(so_path):
        return so_path
    # Per-process scratch names: concurrent cold-cache builds (sweep
    # workers) must not truncate each other's source mid-compile.
    c_path = f"{stem}.{os.getpid()}.c"
    tmp_path = f"{so_path}.tmp.{os.getpid()}"
    try:
        with open(c_path, "w", encoding="utf-8") as fh:
            fh.write(SOURCE)
        subprocess.run(
            [compiler, c_path, "-o", tmp_path, *_FLAGS],
            check=True,
            capture_output=True,
        )
    except subprocess.CalledProcessError as exc:
        errors = [
            line for line in exc.stderr.decode(errors="replace").splitlines()
            if "error" in line
        ]
        raise ProviderUnavailable(
            f"the C kernel build failed: {compiler} exited with status "
            f"{exc.returncode}" + (f" ({errors[0]})" if errors else "")
        ) from exc
    finally:
        if os.path.exists(c_path):
            os.remove(c_path)
    os.replace(tmp_path, so_path)  # atomic under concurrent builds
    return so_path


def _wrap(name, fn, argtypes):
    """Adapt a ctypes symbol to the uniform array-in signature.

    The wrapper is generated (one ``exec`` per symbol, at load time)
    with the argument conversions unrolled: array arguments pass their
    raw data address into a ``c_void_p`` slot instead of going through
    ``ctypes.cast``/``data_as`` objects. The kernels sit on the per-tick
    hot path, so per-call marshalling cost is wall-clock that directly
    erodes the compiled tier's advantage.

    The wrapper is compiled under a ``<repro-kernels:{name}>`` filename
    and carries the symbol in its function name, so profiler output
    (``repro bench --compiled --profile``) attributes C-kernel dispatch
    per kernel instead of lumping it into an anonymous ``<string>``
    frame.
    """
    fn.argtypes = [
        ctypes.c_void_p if spec in (_F64, _U8, _I64) else spec
        for spec in argtypes
    ]
    fn.restype = ctypes.c_int64
    converted = []
    for index, spec in enumerate(argtypes):
        if spec is ctypes.c_int64:
            converted.append(f"int(a[{index}])")
        elif spec is ctypes.c_double:
            converted.append(f"float(a[{index}])")
        else:
            converted.append(f"a[{index}].ctypes.data")
    source = (
        f"def kernel_{name}(*a):\n"
        f"    return fn({', '.join(converted)})\n"
    )
    code = compile(source, f"<repro-kernels:{name}>", "exec")
    namespace = {"fn": fn}
    exec(code, namespace)  # noqa: S102 - load-time codegen, fixed source
    return namespace[f"kernel_{name}"]


def load() -> SimpleNamespace:
    """Build/load the library; raises :class:`ProviderUnavailable` when
    there is no compiler, the build fails, the default cache is not
    private, or an ``OSError`` occurs."""
    global _LOADED
    if _LOADED is None:
        try:
            lib = ctypes.CDLL(_build())
        except OSError as exc:
            raise ProviderUnavailable(
                f"the C kernel library could not be cached or loaded: {exc}"
            ) from exc
        _LOADED = SimpleNamespace(**{
            name: _wrap(name, getattr(lib, name), argtypes)
            for name, argtypes in _SIGNATURES.items()
        })
    return _LOADED
