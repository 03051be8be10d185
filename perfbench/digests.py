"""Regenerate ``digests.json``: reference-engine signatures at the default seed.

Usage (from the repository root)::

    python3 perfbench/digests.py

Simulates every cell each workload can return at the default seed on the
reference engine (``backend="reference"``, from a freshly generated trace)
and stores a digest of its ``SimulationCounters.signature()``.  For
``service_mix`` that is the cells of the first :data:`SERVICE_REQUESTS`
requests of the seeded stream; later requests are checked on a sample.
Run it only when a change is *meant* to alter simulated counts.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from checks import DEFAULT_SEED, DIGESTS, cell_key, digest, reference_run  # noqa: E402
from workloads import (  # noqa: E402
    cold_specs,
    service_requests,
    service_spec,
    warm_specs,
)

#: Requests of the default-seed service stream covered by digests.
SERVICE_REQUESTS = 600


def workload_cells(seed: int = DEFAULT_SEED):
    return {
        "cold_registry": cold_specs(seed),
        "warm_tables": warm_specs(seed),
        "service_mix": [
            service_spec(cell) for cell in service_requests(seed)[:SERVICE_REQUESTS]
        ],
    }


def main() -> int:
    document = {"seed": DEFAULT_SEED, "workloads": {}}
    for workload, specs in workload_cells().items():
        digests = {}
        for spec in specs:
            key = cell_key(spec)
            if key in digests:
                continue
            signature, length = reference_run(spec)
            if signature["references"] != length:
                raise SystemExit(f"{key}: {signature['references']} of {length} refs")
            digests[key] = digest(signature)
        document["workloads"][workload] = dict(sorted(digests.items()))
        print(f"{workload}: {len(digests)} cells", file=sys.stderr)
    DIGESTS.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
