"""Run manifests: provenance for every simulation result.

A :class:`RunManifest` records everything needed to reconstruct *how* a
result was produced — the fully resolved spec (including, via
``RunSpec.as_dict()``, the hardware characterization and its content hash
when the pricing axis is set), the package and cache-schema versions, the
cache key the result is stored under, the engine that counted it (the
fast backend's ``table`` kernel or the ``reference`` loop), and the
execution environment (hostname, platform, worker pid, wall time, peak
RSS).  The sweep runner attaches one to every executed cell
(:attr:`~repro.runner.sweep.RunOutcome.manifest`), and the result cache
serialises it as ``<key>.manifest.json`` next to the pickled result, so a
cached number found on disk months later can still answer "which code,
which spec, which machine, how long".

Manifests are provenance, not identity: the cache key alone decides
replayability, and a missing or hand-edited manifest never invalidates a
cached result.
"""

from __future__ import annotations

import json
import socket
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

from .._version import __version__ as PACKAGE_VERSION

__all__ = ["RunManifest", "collect_manifest", "peak_rss_kb"]

MANIFEST_SCHEMA_VERSION = 1


def peak_rss_kb() -> Optional[int]:
    """This process's peak resident set size in KiB (None if unmeasurable)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return None
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - reported in bytes there
        rss //= 1024
    return int(rss)


@dataclass(frozen=True)
class RunManifest:
    """Provenance of one executed simulation cell.

    A sweep's cell workers are long-lived, so the cells one worker ran
    share its ``worker_pid``, and ``peak_rss_kb`` is that worker's peak so
    far, over this cell and every cell it ran before.
    """

    #: the on-disk cache key the result is (or would be) stored under
    cache_key: str
    #: the fully resolved spec, as plain data (RunSpec.as_dict())
    spec: Mapping[str, Any]
    #: seconds of simulation wall time this cell took
    wall_time_s: float
    package_version: str = PACKAGE_VERSION
    manifest_schema: int = MANIFEST_SCHEMA_VERSION
    hostname: str = field(default_factory=socket.gethostname)
    platform: str = sys.platform
    python: str = field(
        default_factory=lambda: ".".join(map(str, sys.version_info[:3]))
    )
    #: pid of the process that ran the simulation (a sweep worker, usually)
    worker_pid: int = 0
    #: that process's peak RSS in KiB at completion time, if measurable
    peak_rss_kb: Optional[int] = None
    #: unix timestamp of completion
    created: float = field(default_factory=time.time)
    #: structured failure record (RunError.to_dict()) when the cell failed;
    #: None for the normal, successful case
    error: Optional[Mapping[str, Any]] = None
    #: the loop that counted the result: "table" (the fast backend's
    #: compiled kernel) or "reference"; None when nothing was counted
    engine: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        payload = asdict(self)
        payload["spec"] = dict(self.spec)
        if self.error is not None:
            payload["error"] = dict(self.error)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunManifest":
        known = {name for name in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in payload.items() if k in known})

    def write(self, path: Union[str, Path]) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    @classmethod
    def read(cls, path: Union[str, Path]) -> "RunManifest":
        return cls.from_dict(
            json.loads(Path(path).read_text(encoding="utf-8"))
        )


def collect_manifest(
    spec: Mapping[str, Any],
    cache_key: str,
    wall_time_s: float,
    worker_pid: int = 0,
    error: Optional[Mapping[str, Any]] = None,
    engine: Optional[str] = None,
) -> RunManifest:
    """A manifest for a cell just executed (or failed) in this process."""
    import os

    return RunManifest(
        cache_key=cache_key,
        spec=dict(spec),
        wall_time_s=wall_time_s,
        worker_pid=worker_pid or os.getpid(),
        peak_rss_kb=peak_rss_kb(),
        error=dict(error) if error is not None else None,
        engine=engine,
    )
