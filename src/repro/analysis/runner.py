"""High-level run-and-measure API used by experiments, examples, tests.

``run_vm`` executes one workload under one configuration and returns the
:class:`~repro.vm.machine.VMResult`.  ``get_trace`` additionally records
the full native trace.  Both are backed by a transparent on-disk cache
(:mod:`repro.analysis.cache`): every experiment replays the same
deterministic traces through different simulators, so recording each
(workload, scale, config) once pays off across the whole harness
— and across concurrent worker processes, which share one
content-addressed store.

Cache entries are addressed by a hash of the trace-affecting module
sources plus every field of the :class:`~repro.vm.config.VMConfig`
(``VMConfig.key()``); there is no version constant to bump.  Set
``REPRO_TRACE_CACHE=""`` (or pass ``cache_dir=""``) to disable
caching; the environment variable is consulted at *call* time, so tests
can redirect the cache per-test.
"""

from __future__ import annotations

from ..native.trace import Trace
from ..vm.codecache_archive import resolve_archive_dir
from ..vm.config import VMConfig, resolve
from ..vm.machine import VMResult
from ..vm.strategy import Strategy
from ..workloads.base import get_workload
from . import cache
from .hybrid import OracleAnalysis


def make_strategy(mode, oracle_set=None) -> Strategy:
    """Strategy instance from a registry name (a Strategy passes through)."""
    if isinstance(mode, Strategy):
        return mode
    return resolve(mode, compile_set=oracle_set or ()).make_strategy()


def _cache_path(kind: str, workload: str, scale: str, config: VMConfig,
                cache_dir: str | None, archive_dir: str | None,
                label: str | None = None):
    """Where a ``run``/``trace`` entry lives; ``None`` when caching is
    off or a code archive is in use (its warmth changes runs and traces
    but is not part of the key)."""
    resolved = None if archive_dir else cache.resolve_dir(cache_dir)
    if not resolved:
        return None
    key = cache.cache_key(kind, workload=workload, scale=scale,
                          config=config.key())
    where = cache.trace_path if kind == "trace" else cache.run_path
    return where(resolved, workload, scale, label or str(config), key)


def run_vm(
    workload: str,
    scale: str = "s1",
    mode: str | VMConfig = "jit",
    record: bool = False,
    cache_dir: str | None = None,
    code_archive: str | None = None,
    **overrides,
) -> VMResult:
    """Build a fresh VM for the workload and run it to completion.

    ``mode`` is a :data:`~repro.vm.config.CONFIGS` name or a
    :class:`~repro.vm.config.VMConfig`; keyword ``overrides`` replace
    its fields (``run_vm(w, mode="jit", lock_manager="thin-lock")``).
    Non-recording runs are served from the result cache when one is
    configured (``cache_dir=None`` resolves ``REPRO_TRACE_CACHE`` at
    call time; ``""`` forces a fresh run).  ``code_archive`` names a
    shared compiled-code archive (``None`` resolves
    ``REPRO_CODE_ARCHIVE``; ``""`` disables); archive runs are never
    cached.
    """
    config = resolve(mode, **overrides)
    archive_dir = resolve_archive_dir(code_archive)
    path = (None if record else
            _cache_path("run", workload, scale, config, cache_dir,
                        archive_dir))
    if path:
        cached = cache.load_run(path)
        if cached is not None:
            return cached
    program = get_workload(workload).build(scale)
    result = config.build(program, record=record,
                          code_archive=archive_dir or "").run()
    if path:
        cache.store_run(path, result)
    return result


def get_trace(
    workload: str,
    scale: str = "s1",
    mode: str | VMConfig = "jit",
    cache_dir: str | None = None,
    **overrides,
) -> Trace:
    """Full native trace for (workload, scale, config), cached on disk.

    ``mode`` and ``overrides`` are as for :func:`run_vm`; traces are
    recorded with profiling off.  ``cache_dir=None`` resolves
    ``REPRO_TRACE_CACHE`` at call time; pass ``""`` to disable the
    cache for this call.  Like runs, traces recorded against a code
    archive (``REPRO_CODE_ARCHIVE``) are never cached.
    """
    requested = resolve(mode, **overrides)
    config = requested.replace(profile=False)
    archive_dir = resolve_archive_dir(None)
    path = _cache_path("trace", workload, scale, config, cache_dir,
                       archive_dir, label=str(requested))
    if path:
        trace = cache.load_trace(path)
        if trace is not None:
            return trace
    trace = run_vm(workload, scale, config, record=True,
                   code_archive=archive_dir or "").trace
    if path:
        cache.store_trace(path, trace)
    return trace


def oracle_analysis(workload: str, scale: str = "s1",
                    cache_dir: str | None = None) -> OracleAnalysis:
    """Profile interpreter and JIT runs; return the opt-model analysis."""
    interp = run_vm(workload, scale=scale, mode="interp",
                    cache_dir=cache_dir)
    jit = run_vm(workload, scale=scale, mode="jit", cache_dir=cache_dir)
    return OracleAnalysis(interp, jit)


def oracle_run(workload: str, scale: str = "s1",
               cache_dir: str | None = None
               ) -> tuple[OracleAnalysis, VMResult]:
    """The opt analysis plus a *real* mixed-mode run enacting it."""
    analysis = oracle_analysis(workload, scale, cache_dir=cache_dir)
    mixed = run_vm(workload, scale=scale, mode="oracle",
                   compile_set=analysis.methods_to_compile,
                   cache_dir=cache_dir)
    return analysis, mixed
