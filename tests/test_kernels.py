"""Compiled-kernel tier: bit-identity, engagement, graceful fallback.

``kernels="compiled"`` routes the per-step hot path (fused defense
dispatch, the steady-drain block driver, the breaker-bank thermal step)
through :mod:`repro.kernels` — the ctypes-loaded C kernels built by the
``cc`` provider. Its contract is *bit-identity* with the numpy tier:
the compiled kernels are written to reproduce numpy's IEEE float64
expressions operation for operation, so every observable — dispatch
vectors, fleet state, supercap charge, breaker heat, whole
``SimResult``\\ s — must agree with ``==``, never a tolerance.

The Hypothesis suites here drive randomised scheme-level schedules and
breaker tracks through both tiers; directed tests pin the cohort
drain-block path (asserting the blocks genuinely arm), the provider
plumbing, each way the provider can fail to load (each must warn once,
naming its cause) and — in a subprocess with no C compiler on ``PATH``
— the single-warning numpy fallback.
"""

from __future__ import annotations

import os
import stat
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.attack.scenario import DENSE_ATTACK
from repro.config import (
    BreakerConfig,
    ChargingPolicy,
    ClusterConfig,
    DataCenterConfig,
)
from repro.defense import SCHEMES, SchemeContext, StepState
from repro.defense.base import DefenseScheme
from repro.experiments.common import (
    CohortMember,
    run_survival,
    run_survival_cohort,
    standard_setup,
)
from repro.kernels import (
    KERNEL_TIERS,
    KernelFallbackWarning,
    active_provider,
    cc_backend,
    get_kernels,
    resolve_kernels,
)
from repro.power.breaker_kernels import (
    BreakerBankState,
    CompiledBreakerBank,
    make_breaker_bank,
)
from repro.sim.cohort import CohortSimulation
from repro.workload import ClusterModel

from .differential import (
    DispatchSchedule,
    assert_results_identical,
    breaker_schedules,
    dispatch_schedules,
)

#: The acceptance bar: >= 100 randomised examples per differential.
DIFFERENTIAL = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

HAVE_PROVIDER = get_kernels() is not None

REPO = Path(__file__).resolve().parent.parent

#: The dispatch observables the fused kernel must reproduce exactly.
DISPATCH_FIELDS = (
    "battery_w",
    "charge_w",
    "udeb_w",
    "udeb_charge_w",
    "capped_racks",
    "asleep_servers",
    "soft_limits_w",
)


# ---------------------------------------------------------------------- #
# Scheme-level dispatch differential                                      #
# ---------------------------------------------------------------------- #


def _make_scheme(schedule: DispatchSchedule, kernels: str) -> DefenseScheme:
    config = DataCenterConfig(
        cluster=ClusterConfig(
            racks=schedule.racks, pdu_budget_fraction=0.83
        ),
        charging=(
            ChargingPolicy.ONLINE
            if schedule.charging == "online"
            else ChargingPolicy.OFFLINE
        ),
    )
    cluster = ClusterModel(config.cluster)
    limits = np.full(
        schedule.racks, config.cluster.pdu_budget_w / schedule.racks
    )
    context = SchemeContext(
        config=config,
        cluster=cluster,
        initial_soft_limits_w=limits,
        branch_rating_w=limits * 1.03,
        backend="vectorized",
        initial_battery_soc=schedule.initial_soc,
        kernels=kernels,
    )
    return SCHEMES[schedule.scheme](context)


def _demand_track(
    schedule: DispatchSchedule, scheme: DefenseScheme
) -> "list[tuple[np.ndarray, np.ndarray]]":
    """The seeded demand/utilisation trajectory, one entry per tick."""
    rng = np.random.default_rng(schedule.seed)
    base = scheme.soft_limits_w.copy()
    lo, hi = schedule.demand_span
    servers = scheme.ctx.cluster.servers
    track = []
    for _ in range(schedule.n_steps):
        demand = base * rng.uniform(lo, hi, schedule.racks)
        if schedule.spike_prob and rng.random() < schedule.spike_prob:
            demand[rng.integers(schedule.racks)] *= 3.0
        track.append((demand, rng.uniform(0.0, 1.0, servers)))
    return track


def _replay(
    schedule: DispatchSchedule, kernels: str
) -> "tuple[DefenseScheme, list]":
    scheme = _make_scheme(schedule, kernels)
    dispatches = []
    t = 0.0
    for demand, util in _demand_track(schedule, scheme):
        state = StepState(
            time_s=t,
            dt=schedule.dt,
            rack_demand_w=demand.copy(),
            metered_rack_avg_w=demand.copy(),
            metered_server_util=util.copy(),
        )
        dispatches.append(scheme.dispatch(state))
        t += schedule.dt
    return scheme, dispatches


def _assert_same_scheme_state(
    label: str, reference: DefenseScheme, candidate: DefenseScheme
) -> None:
    ref_fleet, cand_fleet = reference.fleet, candidate.fleet
    pairs = [
        ("soc", ref_fleet.soc_vector(), cand_fleet.soc_vector()),
        ("disconnected", ref_fleet._disconnected, cand_fleet._disconnected),
        ("discharged_j", ref_fleet._discharged_j, cand_fleet._discharged_j),
        ("charged_j", ref_fleet._charged_j, cand_fleet._charged_j),
        (
            "deep_discharge_events",
            ref_fleet._deep_discharge_events,
            cand_fleet._deep_discharge_events,
        ),
    ]
    if hasattr(reference, "shaver"):
        ref_sc = reference.shaver.state
        cand_sc = candidate.shaver.state
        pairs += [
            ("udeb_charge_j", ref_sc._charge_j, cand_sc._charge_j),
            ("udeb_shave_events", ref_sc._shave_events, cand_sc._shave_events),
            ("udeb_shaved_j", ref_sc._shaved_j, cand_sc._shaved_j),
        ]
        assert ref_sc._full == cand_sc._full, f"{label}: udeb full flag"
    for name, ref, cand in pairs:
        if not np.array_equal(np.asarray(ref), np.asarray(cand)):
            raise AssertionError(
                f"{label}: {name} diverged across kernel tiers: "
                f"{np.asarray(ref)} != {np.asarray(cand)}"
            )


@DIFFERENTIAL
@given(schedule=dispatch_schedules())
def test_dispatch_bit_identical_across_tiers(
    schedule: DispatchSchedule,
) -> None:
    """Every scheme's dispatch stream — and the fleet/supercap state it
    leaves behind — is identical under both kernel tiers, tick by tick.
    Without a compiled provider the tier degrades to numpy and the
    identity is trivial; with one, this is the fused-kernel proof."""
    ref_scheme, ref_dispatches = _replay(schedule, "numpy")
    cand_scheme, cand_dispatches = _replay(schedule, "compiled")
    for step, (ref, cand) in enumerate(
        zip(ref_dispatches, cand_dispatches)
    ):
        for field in DISPATCH_FIELDS:
            want = np.asarray(getattr(ref, field))
            got = np.asarray(getattr(cand, field))
            if not np.array_equal(want, got):
                raise AssertionError(
                    f"{schedule.scheme} step {step} field {field}: "
                    f"{want} != {got}"
                )
    _assert_same_scheme_state(
        f"{schedule.scheme}/{schedule.charging}", ref_scheme, cand_scheme
    )


@pytest.mark.skipif(
    not HAVE_PROVIDER, reason="no compiled kernel provider available"
)
def test_fused_dispatch_genuinely_engages(monkeypatch) -> None:
    """With a provider present the hot path must actually run fused —
    a silent fall-through to numpy would leave the differential suites
    vacuously green."""
    hits = {"fused": 0, "calls": 0}
    original = DefenseScheme._dispatch_compiled

    def counting(self, state):
        out = original(self, state)
        hits["calls"] += 1
        hits["fused"] += out is not None
        return out

    monkeypatch.setattr(DefenseScheme, "_dispatch_compiled", counting)
    schedule = DispatchSchedule(
        scheme="uDEB",
        charging="online",
        racks=4,
        dt=1.0,
        n_steps=30,
        seed=7,
        initial_soc=0.6,
        demand_span=(0.4, 1.4),
        spike_prob=0.2,
    )
    _replay(schedule, "compiled")
    assert hits["calls"] == schedule.n_steps
    assert hits["fused"] == schedule.n_steps, (
        "fused dispatch fell back to numpy despite an available provider"
    )


# ---------------------------------------------------------------------- #
# Breaker-bank kernel differential                                        #
# ---------------------------------------------------------------------- #


@DIFFERENTIAL
@given(schedule=breaker_schedules())
def test_breaker_bank_bit_identical_across_tiers(schedule) -> None:
    """The compiled thermal step reproduces the numpy bank exactly —
    heat, latches, newly-tripped order and the reconstructed trip
    events — across cooling, overload and instant-trip tracks with
    mid-run rating reassignment."""
    shape = BreakerConfig()
    ratings = np.asarray(schedule.ratings, dtype=float)
    reference = BreakerBankState(shape, ratings)
    candidate = make_breaker_bank(
        "vectorized", shape, ratings, kernels="compiled"
    )
    t = 0.0
    for step, (kind, watts) in enumerate(schedule.steps):
        vector = np.asarray(watts, dtype=float)
        if kind == "ratings":
            reference.set_ratings(vector)
            candidate.set_ratings(vector)
            continue
        want = reference.step(vector, schedule.dt, t)
        got = candidate.step(vector, schedule.dt, t)
        assert got == want, f"step {step}: newly-tripped diverged"
        if not np.array_equal(reference.heat, candidate.heat):
            raise AssertionError(f"step {step}: heat diverged")
        assert np.array_equal(reference.tripped, candidate.tripped), step
        for index in want:
            assert repr(candidate.trip_event(index)) == repr(
                reference.trip_event(index)
            ), f"step {step}: trip event {index} diverged"
        t += schedule.dt


def test_make_breaker_bank_tier_selection() -> None:
    """``kernels="compiled"`` upgrades the vectorized bank only when a
    provider is genuinely loadable; the numpy tier never upgrades."""
    shape = BreakerConfig()
    ratings = np.array([1000.0, 2000.0])
    plain = make_breaker_bank("vectorized", shape, ratings)
    assert type(plain) is BreakerBankState
    compiled = make_breaker_bank(
        "vectorized", shape, ratings, kernels="compiled"
    )
    if HAVE_PROVIDER:
        assert type(compiled) is CompiledBreakerBank
    else:
        assert type(compiled) is BreakerBankState


# ---------------------------------------------------------------------- #
# Cohort drain-block differential                                         #
# ---------------------------------------------------------------------- #


def _drain_members() -> "list[CohortMember]":
    """A grid whose benign/quiescent families freeze and drain, so the
    compiled block driver genuinely arms."""
    dense = replace(DENSE_ATTACK, start_s=30.0, name="dense-late")
    return [
        CohortMember(scheme=scheme, scenario=scenario, seed=7)
        for scenario in (dense, None)
        for scheme in ("Conv", "PS", "PSPC", "uDEB", "vDEB", "PAD")
    ]


@pytest.mark.parametrize("expand_prefix", [False, True])
def test_cohort_drain_blocks_bit_identical(
    monkeypatch, expand_prefix: bool
) -> None:
    """The fused drain-block driver — whole quiescent management blocks
    advanced in one compiled call — reproduces the numpy cohort run bit
    for bit, and (with a provider present) genuinely arms."""
    blocks = {"armed": 0, "steps": 0}
    original = CohortSimulation._start_drain_block

    def counting(self, family, ctx, t):
        out = original(self, family, ctx, t)
        if out is not None and family.drain is not None:
            block = family.drain.get("block")
            if block is not None:
                blocks["armed"] += 1
                blocks["steps"] += block["completed"]
        return out

    monkeypatch.setattr(CohortSimulation, "_start_drain_block", counting)
    setup = standard_setup()
    members = _drain_members()
    reference = run_survival_cohort(
        setup,
        members,
        window_s=240.0,
        record_every=10,
        expand_prefix=expand_prefix,
        kernels="numpy",
    )
    candidate = run_survival_cohort(
        setup,
        members,
        window_s=240.0,
        record_every=10,
        expand_prefix=expand_prefix,
        kernels="compiled",
    )
    for index, (ref, cand) in enumerate(zip(reference, candidate)):
        assert_results_identical(
            f"drain cell {index} ({members[index].scheme}, "
            f"expand={expand_prefix})",
            ref,
            cand,
        )
    if HAVE_PROVIDER:
        assert blocks["armed"] > 0, (
            "no drain block ever armed — the compiled block path went "
            "untested"
        )
        assert blocks["steps"] >= blocks["armed"]


def test_cohort_compiled_matches_per_cell_vectorized_numpy() -> None:
    """Cross-tier *and* cross-backend: the compiled cohort cell equals
    the per-cell vectorized numpy run — both orthogonal axes at once."""
    setup = standard_setup()
    dense = replace(DENSE_ATTACK, start_s=30.0, name="dense-late")
    reference = run_survival(
        setup,
        "PS",
        dense,
        window_s=240.0,
        record_every=10,
        backend="vectorized",
        kernels="numpy",
    )
    candidate = run_survival(
        setup,
        "PS",
        dense,
        window_s=240.0,
        record_every=10,
        backend="cohort",
        kernels="compiled",
    )
    assert_results_identical("vec-numpy vs cohort-compiled", reference,
                             candidate)


# ---------------------------------------------------------------------- #
# Provider plumbing, failure modes and the subprocess fallback            #
# ---------------------------------------------------------------------- #


def test_kernel_tier_validation() -> None:
    assert KERNEL_TIERS == ("numpy", "compiled")
    assert resolve_kernels("numpy") == "numpy"
    with pytest.raises(ValueError, match="kernels must be one of"):
        resolve_kernels("turbo")


@pytest.fixture
def unresolved_provider(monkeypatch, tmp_path):
    """Forget the resolved provider and give it an empty kernel cache.

    ``monkeypatch`` restores the process-global latches afterwards, so
    the provider every other test uses comes back untouched.
    """
    monkeypatch.setattr("repro.kernels._RESOLVED", None)
    monkeypatch.setattr("repro.kernels._WARNED", False)
    monkeypatch.setattr(cc_backend, "_LOADED", None)
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
    return monkeypatch


def _udeb_run(kernels: str):
    return run_survival(
        standard_setup(), "uDEB", None, window_s=60.0, record_every=10,
        backend="vectorized", kernels=kernels,
    )


@pytest.mark.parametrize(
    ("compiler", "cause"),
    [
        (None, "no C compiler (cc, gcc or clang) on PATH"),
        (
            "/bin/false",
            "the C kernel build failed: /bin/false exited with status 1",
        ),
    ],
    ids=["no-compiler", "build-fails"],
)
def test_provider_failure_warns_its_cause_once(
    unresolved_provider, tmp_path, compiler, cause
) -> None:
    """A missing compiler and a failing build each degrade to numpy
    with one warning that says which of the two happened, leave no
    scratch file in the cache, and change no result."""
    unresolved_provider.setattr(cc_backend, "_compiler", lambda: compiler)
    reference = _udeb_run("numpy")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        first = _udeb_run("compiled")
        second = _udeb_run("compiled")
    fallbacks = [
        w for w in caught if issubclass(w.category, KernelFallbackWarning)
    ]
    assert len(fallbacks) == 1, fallbacks
    assert cause in str(fallbacks[0].message)
    assert active_provider() is None
    assert list(tmp_path.iterdir()) == []
    assert_results_identical("fallback first", reference, first)
    assert_results_identical("fallback second", reference, second)


@pytest.mark.skipif(
    not HAVE_PROVIDER, reason="no compiled kernel provider available"
)
def test_unexpected_provider_error_propagates(
    unresolved_provider, tmp_path
) -> None:
    """Only the expected build/load failures degrade to numpy; a defect
    in the provider itself must surface, not turn into a fallback."""

    def broken_wrap(name, fn, argtypes):
        raise TypeError(f"cannot wrap {name}")

    unresolved_provider.setattr(cc_backend, "_wrap", broken_wrap)
    with pytest.raises(TypeError, match="cannot wrap"):
        get_kernels()
    # The build itself succeeded and cleaned up its scratch source.
    name = cc_backend._cache_name(cc_backend._compiler())
    assert [p.name for p in tmp_path.iterdir()] == [f"{name}.so"]


def test_cache_name_tracks_compiler_and_flags(monkeypatch) -> None:
    """A library built by another compiler, or with other flags, is
    never reused: bit-identity depends on both."""
    gcc = cc_backend._cache_name("/usr/bin/gcc")
    assert cc_backend._cache_name("/usr/bin/clang") != gcc
    monkeypatch.setattr(
        cc_backend, "_FLAGS",
        tuple(f for f in cc_backend._FLAGS if f != "-ffp-contract=off"),
    )
    assert cc_backend._cache_name("/usr/bin/gcc") != gcc


@pytest.mark.skipif(
    not HAVE_PROVIDER, reason="no compiled kernel provider available"
)
def test_default_cache_is_created_private(
    unresolved_provider, tmp_path
) -> None:
    """With ``REPRO_KERNEL_CACHE`` unset the cache is a per-user
    directory in the temp dir, created ``0o700``, and ``cc`` loads
    from it."""
    unresolved_provider.delenv("REPRO_KERNEL_CACHE")
    unresolved_provider.setattr(tempfile, "gettempdir", lambda: str(tmp_path))
    assert active_provider() == "cc"
    cache = tmp_path / f"repro-kernels-{os.getuid()}"
    assert stat.S_IMODE(cache.lstat().st_mode) == 0o700
    assert [p.suffix for p in cache.iterdir()] == [".so"]


@pytest.mark.parametrize(
    "shape", ["world-writable", "group-writable", "symlink"]
)
def test_shared_default_cache_is_refused(
    unresolved_provider, tmp_path, shape
) -> None:
    """A default cache that is not a private directory is refused
    before anything in it is loaded: one warning names it as not
    private, the run degrades to numpy, and the planted file is left
    alone."""
    unresolved_provider.delenv("REPRO_KERNEL_CACHE")
    unresolved_provider.setattr(tempfile, "gettempdir", lambda: str(tmp_path))
    unresolved_provider.setattr(cc_backend, "_compiler", lambda: "/bin/false")
    cache = tmp_path / f"repro-kernels-{os.getuid()}"
    if shape == "symlink":
        target = tmp_path / "elsewhere"
        target.mkdir(mode=0o700)
        cache.symlink_to(target)
    else:
        cache.mkdir()
        cache.chmod(0o777 if shape == "world-writable" else 0o770)
    planted = cache / f"{cc_backend._cache_name('/bin/false')}.so"
    planted.write_bytes(b"planted")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert resolve_kernels("compiled") == "numpy"
        assert resolve_kernels("compiled") == "numpy"
    fallbacks = [
        w for w in caught if issubclass(w.category, KernelFallbackWarning)
    ]
    assert len(fallbacks) == 1, fallbacks
    assert f"the kernel cache {cache} is not private" in str(
        fallbacks[0].message
    )
    assert active_provider() is None
    assert planted.read_bytes() == b"planted"


_FALLBACK_CHILD = """
import warnings

from repro.experiments.common import run_survival, standard_setup
from repro.kernels import KernelFallbackWarning, active_provider
from tests.differential import assert_results_identical

assert active_provider() is None, active_provider()
setup = standard_setup()

with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    first = run_survival(
        setup, "uDEB", None, window_s=60.0, record_every=10,
        backend="vectorized", kernels="compiled",
    )
    second = run_survival(
        setup, "uDEB", None, window_s=60.0, record_every=10,
        backend="vectorized", kernels="compiled",
    )
fallbacks = [
    w for w in caught if issubclass(w.category, KernelFallbackWarning)
]
assert len(fallbacks) == 1, f"expected one fallback warning: {fallbacks}"
assert "no C compiler" in str(fallbacks[0].message)

reference = run_survival(
    setup, "uDEB", None, window_s=60.0, record_every=10,
    backend="vectorized", kernels="numpy",
)
assert_results_identical("fallback first", reference, first)
assert_results_identical("fallback second", reference, second)
print("FALLBACK-OK")
"""


def _child_env(**overrides: str) -> "dict[str, str]":
    """This process's environment plus ``overrides``, with the library
    importable from a child interpreter."""
    env = dict(os.environ, **overrides)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), str(REPO)]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


def test_compiled_without_provider_warns_once_and_matches_numpy(
    tmp_path,
) -> None:
    """With no C compiler on ``PATH`` and an empty kernel cache,
    ``kernels="compiled"`` must warn exactly once per process and
    produce results bit-identical to the numpy tier. Runs in a
    subprocess because provider resolution and the warn-once latch are
    process-global."""
    (tmp_path / "bin").mkdir()
    (tmp_path / "cache").mkdir()
    env = _child_env(
        PATH=str(tmp_path / "bin"),
        REPRO_KERNEL_CACHE=str(tmp_path / "cache"),
    )
    proc = subprocess.run(
        [sys.executable, "-c", _FALLBACK_CHILD],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, (
        f"fallback child failed:\n{proc.stdout}\n{proc.stderr}"
    )
    assert "FALLBACK-OK" in proc.stdout


@pytest.mark.skipif(
    not HAVE_PROVIDER, reason="no compiled kernel provider available"
)
def test_concurrent_cold_builds_all_load(tmp_path) -> None:
    """Several builders on one cold cache (sweep workers starting
    together): every one loads the kernels, and one library and no
    scratch file are left behind."""
    env = _child_env(REPRO_KERNEL_CACHE=str(tmp_path))
    child = "from repro.kernels import active_provider as a; print(a())"
    builders = [
        subprocess.Popen(
            [sys.executable, "-c", child], cwd=REPO, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for _ in range(3)
    ]
    for builder in builders:
        out, err = builder.communicate(timeout=300)
        assert builder.returncode == 0, err
        assert out.strip() == "cc", (out, err)
    assert [p.suffix for p in tmp_path.iterdir()] == [".so"]
