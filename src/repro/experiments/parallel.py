"""Parallel, cached execution of experiment scenarios.

This is the execution engine underneath the figure runners: it takes a flat
list of fully-specified :class:`~repro.experiments.scenarios.Scenario`
objects and returns one :class:`~repro.metrics.collector.NetworkMetrics` per
scenario, optionally

* fanning the scenarios out over one shared ``ProcessPoolExecutor`` (every
  scenario is an independent, seeded simulation, so workers are
  embarrassingly parallel and the results are bit-identical to a serial
  run).  The pool outlives individual ``run_scenarios`` calls, so repeated
  figure sweeps reuse warm workers, and every cell is its own future, so
  slow cells (N=500 reference runs) do not serialise behind fast ones;
* memoising each result on disk under a content hash of the scenario the
  moment it finishes, so re-running a figure, extending a sweep, adding
  seeds or re-running an aborted sweep only simulates the cells that never
  finished.

The figure-level fan-out (sweep value x scheduler x seed) lives in
:mod:`repro.experiments.runner`; this module is deliberately ignorant of
figures and only sees scenarios.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import pickle
import tempfile
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import Optional, Union

from repro.experiments.scenarios import Scenario
from repro.metrics.collector import NetworkMetrics

_LOGGER = logging.getLogger(__name__)

#: Bump to invalidate every cached result (e.g. when the simulator's
#: semantics change in a way the scenario fingerprint cannot see).
#: 2: duty-cycle accounting switched to integer slot counters (the weighted
#:    radio-on time is now derived, which changes float rounding in the last
#:    digits versus the old per-slot accumulator).
#: 3: scenarios grew a fault-injection plan and recovery metrics; the
#:    fingerprint document changed shape and old entries lack the new
#:    ``NetworkMetrics`` fields.
#: 4: scenarios grew cold-start join knobs, arrival faults and an
#:    epoch-varying link-drift policy; old entries lack the join metrics.
#: 5: the fingerprint document gained the scheduler's own
#:    ``config_fingerprint()`` (registry-resolved), so old entries hashed
#:    without per-scheduler config cannot collide with new ones.
CACHE_SCHEMA_VERSION = 5

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


#: Event-queue statistics of the most recent scenario run *in this process*
#: (surfaced by ``python -m repro.experiments --profile``, which runs
#: serially; worker-process runs leave the parent's copy untouched).
LAST_QUEUE_STATS: Optional[dict] = None


def run_scenario(scenario: Scenario) -> NetworkMetrics:
    """Build, run and measure one scenario (in the current process)."""
    global LAST_QUEUE_STATS
    network = scenario.build_network()
    metrics = network.run_experiment(
        warmup_s=scenario.warmup_s,
        measurement_s=scenario.measurement_s,
        drain_s=scenario.drain_s,
        scheduler_name=scenario.scheduler,
    )
    LAST_QUEUE_STATS = network.events.stats()
    return metrics


# ----------------------------------------------------------------------
# scenario fingerprinting
# ----------------------------------------------------------------------
def _canonical(obj):
    """Reduce a scenario field to a JSON-serialisable canonical form."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            f.name: _canonical(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        }
        return {"__class__": type(obj).__name__, **fields}
    if isinstance(obj, (list, tuple)):
        return [_canonical(item) for item in obj]
    if isinstance(obj, dict):
        return {str(key): _canonical(value) for key, value in sorted(obj.items())}
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    # Non-dataclass objects (custom propagation models, ...): fall back to
    # their repr, which must be value-based for the fingerprint to be stable
    # -- the default object repr embeds a memory address, which would make
    # every run a silent cache miss.
    if type(obj).__repr__ is object.__repr__:
        raise TypeError(
            f"cannot fingerprint {type(obj).__name__}: define a value-based "
            "__repr__ (or make it a dataclass) so results can be cached"
        )
    return repr(obj)


def scenario_fingerprint(scenario: Scenario) -> str:
    """Stable content hash of everything that determines a scenario's result.

    The package version is part of the hash, so cached results never survive
    a release boundary; within one version, simulator code changes still
    require a ``CACHE_SCHEMA_VERSION`` bump (or ``--no-cache``) to invalidate
    old entries.
    """
    import repro
    from repro.schedulers import registry

    # Probe the scheduler's own configuration through the registry: SF
    # constructors are side-effect-free until ``attach``/``start``, so
    # building one throwaway instance is cheap, and a third-party plugin's
    # config enters the cache key with no special-casing here.
    probe = registry.resolve(scenario.scheduler)(scenario.contiki)(0, False)
    document = {
        "schema": CACHE_SCHEMA_VERSION,
        "version": getattr(repro, "__version__", "0"),
        "scenario": _canonical(scenario),
        "scheduler_config": _canonical(probe.config_fingerprint()),
    }
    payload = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


# ----------------------------------------------------------------------
# on-disk result cache
# ----------------------------------------------------------------------
class ResultCache:
    """Content-addressed store of finished scenario metrics.

    Results are pickled under ``<root>/<fingerprint>.pkl``.  The root defaults
    to ``$REPRO_CACHE_DIR`` or ``~/.cache/gt-tsch-repro``.  Writes are atomic
    (temp file + rename) so concurrent experiment processes can share a root.
    """

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = root or os.environ.get(CACHE_DIR_ENV) or os.path.join(
            os.path.expanduser("~"), ".cache", "gt-tsch-repro"
        )
        self.hits = 0
        self.misses = 0
        #: Entries that existed on disk but could not be loaded (and were
        #: therefore treated as misses).
        self.corrupt = 0

    def _path(self, scenario: Scenario) -> str:
        return os.path.join(self.root, scenario_fingerprint(scenario) + ".pkl")

    def get(self, scenario: Scenario) -> Optional[NetworkMetrics]:
        """Cached metrics for this exact scenario, or ``None``.

        A *corrupt* entry -- truncated write, garbage bytes, stale pickle
        referencing renamed classes, wrong payload type -- is treated exactly
        like a miss: the caller recomputes the cell and its ``put()``
        overwrites the bad file.  The discard is logged (once per lookup) so
        recomputation never silently masks a filesystem problem.
        """
        path = self._path(scenario)
        try:
            with open(path, "rb") as handle:
                metrics = pickle.load(handle)
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception as exc:
            self.corrupt += 1
            self.misses += 1
            _LOGGER.warning(
                "discarding corrupt cache entry %s (%s: %s)",
                path,
                type(exc).__name__,
                exc,
            )
            return None
        if not isinstance(metrics, NetworkMetrics):
            self.corrupt += 1
            self.misses += 1
            _LOGGER.warning(
                "discarding cache entry %s: unexpected payload of type %s",
                path,
                type(metrics).__name__,
            )
            return None
        self.hits += 1
        return metrics

    def info(self) -> dict:
        """Summary of the on-disk cache: entry count and total size in bytes."""
        entries = 0
        total_bytes = 0
        try:
            names = os.listdir(self.root)
        except OSError:
            names = []
        for name in names:
            if not name.endswith(".pkl"):
                continue
            try:
                total_bytes += os.path.getsize(os.path.join(self.root, name))
            except OSError:
                continue
            entries += 1
        return {"root": self.root, "entries": entries, "total_bytes": total_bytes}

    def clear(self) -> int:
        """Delete every cached result; returns the number of entries removed."""
        removed = 0
        try:
            names = os.listdir(self.root)
        except OSError:
            return 0
        for name in names:
            if not (name.endswith(".pkl") or name.endswith(".tmp")):
                continue
            try:
                os.unlink(os.path.join(self.root, name))
            except OSError:
                continue
            if name.endswith(".pkl"):
                removed += 1
        return removed

    def put(self, scenario: Scenario, metrics: NetworkMetrics) -> str:
        """Store metrics for this scenario; returns the cache file path."""
        os.makedirs(self.root, exist_ok=True)
        path = self._path(scenario)
        fd, tmp_path = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(metrics, handle)
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        return path


def resolve_cache(cache: Union[None, bool, ResultCache]) -> Optional[ResultCache]:
    """Normalise the ``cache`` argument of the runner entry points."""
    if cache is None or cache is False:
        return None
    if cache is True:
        return ResultCache()
    return cache


# ----------------------------------------------------------------------
# pool execution
# ----------------------------------------------------------------------
def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``jobs`` argument: ``None``/``0`` mean "all cores"."""
    if jobs is None or jobs <= 0:
        return os.cpu_count() or 1
    return jobs


#: The shared worker pool, reused by every ``run_scenarios`` call of this
#: process (one pool per worker count; resizing replaces it).
_POOL: Optional[ProcessPoolExecutor] = None
_POOL_WORKERS = 0


def _pool_initializer() -> None:
    """Warm a fresh worker: pre-import the whole simulation stack.

    Import cost is paid once per worker instead of inside the first task.
    """
    import repro.experiments.scenarios  # noqa: F401
    import repro.net.network  # noqa: F401
    import repro.core.scheduler  # noqa: F401
    import repro.schedulers  # noqa: F401  (registers every first-party SF)


def shutdown_pool() -> None:
    """Dispose of the shared pool (idempotent; a new one spawns on demand).

    Cancels cells not yet started and returns once every worker has exited.
    """
    global _POOL, _POOL_WORKERS
    if _POOL is not None:
        _POOL.shutdown(wait=True, cancel_futures=True)
        _POOL = None
        _POOL_WORKERS = 0


def get_pool(workers: int) -> ProcessPoolExecutor:
    """The shared pool with exactly ``workers`` processes.

    Reused across calls (and figures) when the size matches; resized
    otherwise.  The executor joins its own workers at interpreter exit.
    """
    global _POOL, _POOL_WORKERS
    if _POOL is None or _POOL_WORKERS != workers:
        shutdown_pool()
        _POOL = ProcessPoolExecutor(max_workers=workers, initializer=_pool_initializer)
        _POOL_WORKERS = workers
    return _POOL


def _run_cell(scenario: Scenario) -> NetworkMetrics:
    """Pool task: pickles by name, and looks ``run_scenario`` up per call so a
    replacement installed before the workers fork (tests inject crashes and
    errors that way) takes effect in the workers."""
    return run_scenario(scenario)


#: Times one cell may raise inside a worker before the whole run aborts.
_MAX_CELL_ATTEMPTS = 2


def _run_on_pool(
    scenarios: Sequence[Scenario],
    pending: Sequence[int],
    workers: int,
    land: Callable[[int, NetworkMetrics], None],
) -> None:
    """Run the ``pending`` cells on the shared pool; ``land`` gets each result
    the moment it completes, so an abort keeps every finished cell.

    A dead worker (OOM kill, segfault, ``os._exit``) breaks the executor and
    fails every unfinished future with ``BrokenProcessPool``: the pool is
    rebuilt once and the unfinished cells resubmitted (cells are
    deterministic, so a recomputation is bit-identical); a second crash
    aborts.  A cell that *raises* is retried up to ``_MAX_CELL_ATTEMPTS``
    times, then reported by name and index with the worker's exception as
    ``__cause__``.  Any abort discards the pool, so the next call starts on a
    fresh one.
    """
    unfinished = set(pending)
    failures = dict.fromkeys(pending, 0)
    rebuilt = False
    try:
        while unfinished:
            pool = get_pool(workers)
            futures = {}
            crashed = False
            try:
                for index in sorted(unfinished):
                    futures[pool.submit(_run_cell, scenarios[index])] = index
            except BrokenProcessPool:
                crashed = True  # a worker died before every cell was queued
            for future in as_completed(futures):
                index = futures[future]
                try:
                    metrics = future.result()
                except BrokenProcessPool:
                    crashed = True
                    continue
                except Exception as exc:
                    failures[index] += 1
                    if failures[index] >= _MAX_CELL_ATTEMPTS:
                        raise RuntimeError(
                            f"scenario {scenarios[index].name!r} (cell {index}) "
                            f"failed {failures[index]} times; last error: {exc!r}"
                        ) from exc
                    _LOGGER.warning(
                        "retrying scenario %r (cell %d) after worker error: %r",
                        scenarios[index].name,
                        index,
                        exc,
                    )
                    continue  # stays unfinished; resubmitted next round
                land(index, metrics)
                unfinished.discard(index)
            if crashed:
                if rebuilt:
                    raise RuntimeError(
                        "experiment pool lost a worker twice; aborting with "
                        f"{len(unfinished)} cells unfinished"
                    )
                rebuilt = True
                _LOGGER.warning(
                    "experiment pool lost a worker; rebuilding and resubmitting "
                    "%d cells",
                    len(unfinished),
                )
                shutdown_pool()
    except BaseException:
        shutdown_pool()
        raise


def run_scenarios(
    scenarios: Sequence[Scenario],
    jobs: int = 1,
    cache: Union[None, bool, ResultCache] = None,
) -> list[NetworkMetrics]:
    """Run many scenarios, returning metrics aligned with the input order.

    ``jobs=1`` runs serially in-process; ``jobs>1`` fans out over the shared
    ``ProcessPoolExecutor`` (``jobs<=0`` / ``None`` use every core), which
    outlives the call.  Each scenario is a self-contained seeded simulation,
    so the parallel path is bit-identical to the serial one; completion order
    never leaks into the output, which is re-assembled by index.  With a
    cache, previously-computed scenarios are loaded instead of re-run and
    each fresh result is stored as soon as it finishes.
    """
    cache = resolve_cache(cache)
    results: list[Optional[NetworkMetrics]] = [None] * len(scenarios)
    pending: list[int] = []
    for index, scenario in enumerate(scenarios):
        cached = cache.get(scenario) if cache is not None else None
        if cached is not None:
            results[index] = cached
        else:
            pending.append(index)

    def land(index: int, metrics: NetworkMetrics) -> None:
        results[index] = metrics
        if cache is not None:
            cache.put(scenarios[index], metrics)

    workers = min(resolve_jobs(jobs), len(pending))
    if workers <= 1:
        for index in pending:
            land(index, run_scenario(scenarios[index]))
    else:
        _run_on_pool(scenarios, pending, workers, land)
    return results  # type: ignore[return-value]
