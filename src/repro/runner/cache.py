"""On-disk result cache for sweep cells.

Results are pickled one file per cache key under a directory the caller
chooses.  The key (see :meth:`repro.runner.spec.RunSpec.cache_key`) hashes
everything that determines the result, so a hit can be replayed verbatim.
Specs carrying a ``characterization`` are additionally stored by the sweep
engine under their :meth:`~repro.runner.spec.RunSpec.base_cache_key` — the
key with the pricing axis cleared — because the simulated counters do not
depend on pricing; that second entry is what lets a sweep over brand-new
characterization files complete with zero simulations (re-pricing, see
``docs/characterization.md``).
A *missing* entry is an ordinary miss; an entry that exists but cannot be
decoded — truncated file, stale pickle, wrong type — is **corrupt**: it is
logged as a structured warning, counted in the ``cache.corrupt`` metric,
and deleted so the next run regenerates it instead of tripping over it
forever.

Alongside each result, :meth:`ResultCache.put` stores the run's
:class:`~repro.obs.manifest.RunManifest` as ``<key>.manifest.json`` —
human-readable provenance (spec, package version, host, wall time, peak
RSS) for every number the cache can serve.  Manifests are advisory: their
absence or corruption never invalidates the pickled result.

Writes go through a temp file + :func:`os.replace` so concurrent sweeps
sharing a cache directory never observe half-written entries.  A write
that fails outright — full or read-only disk, permissions — is *degraded*,
not fatal: :meth:`ResultCache.put` logs it, bumps the ``cache.put_errors``
metric and returns ``False``, and the sweep keeps the in-memory result and
carries on (the cell simply won't be warm next run).  Leftover ``*.tmp``
files from writers that were killed mid-write are swept when the cache is
opened.
"""

from __future__ import annotations

import os
import pickle
from pathlib import Path
from typing import Optional, Tuple, Union

from ..core.simulator import SimulationResult
from ..obs.log import fields, get_logger
from ..obs.manifest import RunManifest
from ..obs.metrics import MetricsRegistry, get_registry

__all__ = ["ResultCache"]

logger = get_logger("runner.cache")


class ResultCache:
    """A directory of pickled :class:`SimulationResult`s, keyed by spec hash.

    ``registry`` receives the cache's metrics (``cache.hit``,
    ``cache.miss``, ``cache.corrupt`` counters); it defaults to the
    process-wide registry from :func:`repro.obs.metrics.get_registry`.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.registry = registry if registry is not None else get_registry()
        #: lookups that returned a usable result
        self.hits = 0
        #: lookups that found nothing usable
        self.misses = 0
        #: lookups that found an undecodable entry (subset of ``misses``)
        self.corrupt = 0
        #: stores that failed and were degraded to in-memory-only results
        self.put_errors = 0
        self._sweep_tmp_files()

    def _sweep_tmp_files(self) -> None:
        """Remove ``*.tmp`` leftovers from writers killed mid-write."""
        swept = 0
        for tmp in self.directory.glob("*.tmp"):
            tmp.unlink(missing_ok=True)
            swept += 1
        if swept:
            logger.warning(
                "swept leftover temp files from interrupted writers",
                extra=fields(directory=str(self.directory), swept=swept),
            )

    def path_for(self, key: str) -> Path:
        return self.directory / f"{key}.pkl"

    def manifest_path_for(self, key: str) -> Path:
        return self.directory / f"{key}.manifest.json"

    def _corrupt(self, path: Path, key: str, reason: str) -> None:
        """Record and remove an undecodable entry so it gets regenerated."""
        self.corrupt += 1
        self.registry.counter("cache.corrupt").inc()
        logger.warning(
            "corrupt cache entry removed",
            extra=fields(key=key, path=str(path), reason=reason),
        )
        path.unlink(missing_ok=True)

    def _load(self, key: str) -> Tuple[Optional[SimulationResult], str]:
        """Decode ``key``'s entry: ``(result, "")``, or ``(None, why)``.

        ``why`` is empty when the entry is simply absent.
        """
        try:
            with self.path_for(key).open("rb") as handle:
                result = pickle.load(handle)
        except FileNotFoundError:
            return None, ""
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError) as error:
            return None, f"{type(error).__name__}: {error}"
        if not isinstance(result, SimulationResult):
            return None, f"wrong type {type(result).__name__}"
        return result, ""

    def get(self, key: str) -> Optional[SimulationResult]:
        """The cached result for ``key``, or None (counted as hit/miss)."""
        result, problem = self._load(key)
        if result is None:
            self.misses += 1
            self.registry.counter("cache.miss").inc()
            if problem:
                self._corrupt(self.path_for(key), key, problem)
            return None
        self.hits += 1
        self.registry.counter("cache.hit").inc()
        return result

    def peek(self, key: str) -> Optional[SimulationResult]:
        """Like :meth:`get`, but counts nothing and removes nothing.

        For callers that only ask whether an entry is usable, ahead of a
        sweep that will read (and count) it.
        """
        return self._load(key)[0]

    def get_manifest(self, key: str) -> Optional[RunManifest]:
        """The stored provenance for ``key``'s result, if any survives."""
        path = self.manifest_path_for(key)
        try:
            return RunManifest.read(path)
        except (OSError, ValueError, TypeError, KeyError):
            return None

    def _write_result(self, key: str, tmp: Path, result: SimulationResult) -> None:
        """Seam: serialise ``result`` to ``tmp`` (overridden by fault injection)."""
        with tmp.open("wb") as handle:
            pickle.dump(result, handle, protocol=pickle.HIGHEST_PROTOCOL)

    def _put_error(self, key: str, tmp: Path, error: OSError) -> None:
        """Degrade a failed store: log, count, clean up, carry on."""
        self.put_errors += 1
        self.registry.counter("cache.put_errors").inc()
        logger.warning(
            "cache store failed; keeping result in memory only",
            extra=fields(
                key=key, reason=f"{type(error).__name__}: {error}"
            ),
        )
        try:
            tmp.unlink(missing_ok=True)
        except OSError:  # pragma: no cover - same sick disk
            pass

    def put(
        self,
        key: str,
        result: SimulationResult,
        manifest: Optional[RunManifest] = None,
    ) -> bool:
        """Store ``result`` (and its provenance) under ``key`` atomically.

        Returns ``True`` when the result landed on disk.  A failed write
        (full or read-only disk) is degraded, never raised: the error is
        logged, counted in ``cache.put_errors``/:attr:`put_errors`, and
        ``False`` comes back so the caller knows the entry stayed
        in-memory only.
        """
        path = self.path_for(key)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            self._write_result(key, tmp, result)
            os.replace(tmp, path)
        except OSError as error:
            self._put_error(key, tmp, error)
            return False
        if manifest is not None:
            manifest_path = self.manifest_path_for(key)
            manifest_tmp = manifest_path.with_name(
                f"{manifest_path.name}.{os.getpid()}.tmp"
            )
            try:
                manifest.write(manifest_tmp)
                os.replace(manifest_tmp, manifest_path)
            except OSError as error:
                # The result is safe; losing advisory provenance is logged
                # and counted but never fails the store.
                self._put_error(key, manifest_tmp, error)
        return True

    def clear(self) -> int:
        """Delete every cached entry; returns how many results were removed."""
        removed = 0
        for path in self.directory.glob("*.pkl"):
            path.unlink(missing_ok=True)
            removed += 1
        for path in self.directory.glob("*.manifest.json"):
            path.unlink(missing_ok=True)
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.pkl"))

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from disk (0.0 when none yet)."""
        lookups = self.hits + self.misses
        if lookups == 0:
            return 0.0
        return self.hits / lookups

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ResultCache({str(self.directory)!r}, entries={len(self)}, "
            f"hits={self.hits}, misses={self.misses}, corrupt={self.corrupt}, "
            f"put_errors={self.put_errors})"
        )
