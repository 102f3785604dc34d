"""Parallel, cached execution of experiment scenarios.

This is the execution engine underneath the figure runners: it takes a flat
list of fully-specified :class:`~repro.experiments.scenarios.Scenario`
objects and returns one :class:`~repro.metrics.collector.NetworkMetrics` per
scenario, optionally

* fanning the scenarios out over a **persistent** ``multiprocessing`` pool
  (every scenario is an independent, seeded simulation, so workers are
  embarrassingly parallel and the results are bit-identical to a serial
  run).  The pool outlives individual ``run_scenarios`` calls: repeated
  figure sweeps reuse warm workers instead of forking a fresh pool per
  figure, and cells are dispatched with chunked ``imap_unordered`` so slow
  cells (N=500 reference runs) do not serialise behind fast ones;
* memoising each result on disk under a content hash of the scenario, so
  re-running a figure, extending a sweep, or adding seeds only simulates the
  cells that have never been run before.  Cache keys are untouched by the
  pool mechanics.

The figure-level fan-out (sweep value x scheduler x seed) lives in
:mod:`repro.experiments.runner`; this module is deliberately ignorant of
figures and only sees scenarios.
"""

from __future__ import annotations

import atexit
import dataclasses
import hashlib
import json
import logging
import multiprocessing
import os
import pickle
import tempfile
from collections.abc import Sequence
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


#: The persistent worker pool, shared by every ``run_scenarios`` call of this
#: process (one pool per worker count; resizing replaces it).
_POOL: Optional[multiprocessing.pool.Pool] = None
_POOL_WORKERS = 0
_POOL_ATEXIT_REGISTERED = False


def _pool_initializer() -> None:
    """Warm a fresh worker: pre-import the whole simulation stack.

    Import cost is paid once per worker instead of inside the first task.
    """
    import repro.experiments.scenarios  # noqa: F401
    import repro.net.network  # noqa: F401
    import repro.core.scheduler  # noqa: F401
    import repro.schedulers  # noqa: F401  (registers every first-party SF)


def shutdown_pool() -> None:
    """Dispose of the persistent pool (idempotent; a new one spawns on demand)."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None:
        _POOL.terminate()
        _POOL.join()
        _POOL = None
        _POOL_WORKERS = 0


def get_pool(workers: int) -> multiprocessing.pool.Pool:
    """The persistent pool with exactly ``workers`` processes.

    Reused across calls (and figures) when the size matches; resized
    otherwise.  Registered for interpreter-exit cleanup once.
    """
    global _POOL, _POOL_WORKERS, _POOL_ATEXIT_REGISTERED
    if _POOL is None or _POOL_WORKERS != workers:
        shutdown_pool()
        _POOL = multiprocessing.Pool(processes=workers, initializer=_pool_initializer)
        _POOL_WORKERS = workers
        if not _POOL_ATEXIT_REGISTERED:
            atexit.register(shutdown_pool)
            _POOL_ATEXIT_REGISTERED = True
    return _POOL


class _TaskError:
    """Picklable marker for a scenario that raised inside a pool worker.

    Exceptions are not re-raised through ``imap_unordered`` directly because
    a raised result breaks the iterator and loses every other in-flight cell;
    wrapping lets the parent retry just the failing cell.
    """

    __slots__ = ("message",)

    def __init__(self, message: str) -> None:
        self.message = message


def _run_indexed(
    item: tuple[int, Scenario],
) -> tuple[int, Union[NetworkMetrics, _TaskError]]:
    """Pool task: run one scenario, tagged with its position in the batch."""
    index, scenario = item
    try:
        return index, run_scenario(scenario)
    except Exception as exc:  # noqa: BLE001 - reported and retried by parent
        return index, _TaskError(f"{type(exc).__name__}: {exc}")


#: Poll interval while waiting on pool results; every empty poll is an
#: opportunity to notice a dead worker.
_POOL_POLL_S = 0.2
#: Times one cell may raise inside a worker before the whole run aborts.
_MAX_CELL_ATTEMPTS = 2


def _pool_alive_pids(pool: multiprocessing.pool.Pool) -> frozenset:
    """Pids of the pool's live worker processes (the crash fingerprint)."""
    processes = getattr(pool, "_pool", None) or []
    return frozenset(process.pid for process in processes if process.is_alive())


def _run_with_persistent_pool(
    todo: Sequence[Scenario], workers: int
) -> list[NetworkMetrics]:
    """Run ``todo`` on the persistent pool, surviving one worker crash.

    ``multiprocessing.Pool`` silently replaces a worker that dies (OOM kill,
    segfault in a C extension, ``os._exit``) but never re-runs the tasks the
    worker held, so a plain ``imap_unordered`` loop would block forever.
    Results are therefore polled with a timeout, and every empty poll
    compares the pool's live-worker pid set against the set captured at
    dispatch: any change means tasks were lost.  Recovery rebuilds the pool
    once and resubmits every not-yet-received cell -- scenarios are
    deterministic, so recomputing a cell that finished but was never received
    is bit-identical.  A second crash aborts.

    Independently, a cell whose scenario *raises* is retried up to
    ``_MAX_CELL_ATTEMPTS`` times and then reported with the failing cell's
    name and position.
    """
    results: list[Optional[NetworkMetrics]] = [None] * len(todo)
    outstanding = set(range(len(todo)))
    failures = [0] * len(todo)
    rebuilt = False
    pool = get_pool(workers)
    while outstanding:
        batch = sorted(outstanding)
        known_pids = _pool_alive_pids(pool)
        # chunksize stays 1: for chunksize > 1 ``imap_unordered`` returns a
        # flattening *generator* without the ``next(timeout=...)`` method the
        # crash-detection poll below depends on.  Each cell is a whole
        # simulation, so per-task dispatch overhead is noise anyway.
        iterator = pool.imap_unordered(
            _run_indexed,
            [(position, todo[position]) for position in batch],
        )
        remaining = len(batch)
        crashed = False
        while remaining:
            try:
                position, outcome = iterator.next(timeout=_POOL_POLL_S)
            except multiprocessing.TimeoutError:
                if _pool_alive_pids(pool) == known_pids:
                    continue
                crashed = True
                break
            except StopIteration:  # pragma: no cover - defensive
                break
            remaining -= 1
            if isinstance(outcome, _TaskError):
                failures[position] += 1
                if failures[position] >= _MAX_CELL_ATTEMPTS:
                    raise RuntimeError(
                        f"scenario {todo[position].name!r} (cell {position}) "
                        f"failed {failures[position]} times; last error: "
                        f"{outcome.message}"
                    )
                _LOGGER.warning(
                    "retrying scenario %r (cell %d) after worker error: %s",
                    todo[position].name,
                    position,
                    outcome.message,
                )
                continue  # stays outstanding; resubmitted next round
            results[position] = outcome
            outstanding.discard(position)
        if crashed:
            if rebuilt:
                raise RuntimeError(
                    "experiment pool lost a worker twice; aborting with "
                    f"{len(outstanding)} cells unfinished"
                )
            rebuilt = True
            _LOGGER.warning(
                "experiment pool lost a worker; rebuilding and resubmitting "
                "%d cells",
                len(outstanding),
            )
            shutdown_pool()
            pool = get_pool(workers)
    return results  # type: ignore[return-value]


def run_scenarios(
    scenarios: Sequence[Scenario],
    jobs: int = 1,
    cache: Union[None, bool, ResultCache] = None,
    persistent_pool: bool = True,
) -> list[NetworkMetrics]:
    """Run many scenarios, returning metrics aligned with the input order.

    ``jobs=1`` runs serially in-process; ``jobs>1`` fans out over a
    ``multiprocessing`` pool (``jobs<=0`` / ``None`` use every core).  Each
    scenario is a self-contained seeded simulation, so the parallel path is
    bit-identical to the serial one.  With a cache, previously-computed
    scenarios are loaded instead of re-run and fresh results are stored.

    ``persistent_pool=True`` (default) reuses one long-lived pool across
    calls with chunked unordered dispatch; ``False`` forks a fresh pool per
    call and tears it down afterwards (the pre-existing behaviour, kept for
    the warm-vs-fork benchmark and as an isolation escape hatch).  Results
    are identical either way; completion order never leaks into the output,
    which is re-assembled by index.
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

    if pending:
        todo = [scenarios[index] for index in pending]
        workers = min(resolve_jobs(jobs), len(todo))
        if workers <= 1:
            fresh = [run_scenario(scenario) for scenario in todo]
            for index, metrics in zip(pending, fresh):
                results[index] = metrics
                if cache is not None:
                    cache.put(scenarios[index], metrics)
        elif persistent_pool:
            fresh = _run_with_persistent_pool(todo, workers)
            for index, metrics in zip(pending, fresh):
                results[index] = metrics
                if cache is not None:
                    cache.put(scenarios[index], metrics)
        else:
            # Chunk size balances dispatch overhead against stragglers: small
            # chunks keep slow cells from pinning a whole chunk to one worker.
            chunksize = max(1, len(todo) // (workers * 4))
            tagged = list(zip(range(len(todo)), todo))
            with multiprocessing.Pool(
                processes=workers, initializer=_pool_initializer
            ) as pool:
                for position, outcome in pool.imap_unordered(
                    _run_indexed, tagged, chunksize=chunksize
                ):
                    index = pending[position]
                    if isinstance(outcome, _TaskError):
                        # The throwaway pool is the isolation escape hatch:
                        # fail fast instead of retrying, but name the cell.
                        raise RuntimeError(
                            f"scenario {scenarios[index].name!r} failed in "
                            f"worker: {outcome.message}"
                        )
                    results[index] = outcome
                    if cache is not None:
                        cache.put(scenarios[index], outcome)

    return results  # type: ignore[return-value]
