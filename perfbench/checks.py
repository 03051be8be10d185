"""Output checks: every cell against the reference engine and the trace.

A cell passes when

* its Table 4 event counts sum to its ``references`` and ``references``
  equals the length of the trace it simulated;
* its ``SimulationCounters.signature()`` matches the reference engine
  (``backend="reference"``): at the default seed through the digests
  committed in ``digests.json``, at any other seed on a seeded sample of
  cells recomputed after the timed window;
* it matches every other answer the run received for the same cell.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

#: The seed the committed digests and the quoted figures were made with.
DEFAULT_SEED = 1

#: Digests of reference-engine signatures at the default seed.
DIGESTS = Path(__file__).with_name("digests.json")

#: Cells recomputed on the reference engine at a seed without digests.
SAMPLE = 6


def cell_key(spec) -> str:
    """A cell's identity across versions (the cache key embeds the version)."""
    return f"{spec.protocol}:{spec.trace}:1/{round(1 / spec.scale)}:seed{spec.seed}"


def digest(signature: dict) -> str:
    text = json.dumps(signature, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def invariant_problem(spec, signature: dict) -> Optional[str]:
    """Why a signature is inconsistent with its own trace, or None."""
    references = signature["references"]
    events = sum(signature["events"].values())
    if events != references:
        return f"Table 4 events sum to {events}, references = {references}"
    length = spec.profile().length
    if references != length:
        return f"references = {references}, trace length = {length}"
    return None


def reference_run(spec) -> Tuple[dict, int]:
    """One cell on the reference engine, and the length of its trace."""
    reference = replace(spec, backend="reference", characterization=None)
    length = sum(1 for _ in reference.build_trace())
    return reference.run().counters.signature(), length


def load_digests(workload: str) -> Dict[str, str]:
    with open(DIGESTS, encoding="utf-8") as handle:
        return json.load(handle)["workloads"][workload]


class Verifier:
    """Collects every answer a run received and judges each cell."""

    def __init__(self, workload: str, seed: int) -> None:
        self.seed = seed
        self.expected: Dict[str, str] = (
            load_digests(workload) if seed == DEFAULT_SEED else {}
        )
        self.specs: Dict[str, object] = {}
        self.seen: Dict[str, dict] = {}
        self.bad: Dict[str, str] = {}

    def check(self, spec, signature: dict) -> bool:
        """Judge one answer now, as far as possible inside the window."""
        key = cell_key(spec)
        first = self.seen.get(key)
        if first is None:
            self.specs[key] = spec
            self.seen[key] = signature
            problem = invariant_problem(spec, signature)
            if problem is None and key in self.expected:
                if digest(signature) != self.expected[key]:
                    problem = "signature differs from the committed digest"
            if problem is not None:
                self.bad[key] = problem
        elif signature != first:
            self.bad[key] = "two answers for one cell differ"
        return key not in self.bad

    def finish(self) -> List[str]:
        """Recompute a seeded sample of unchecked cells; list every problem."""
        unchecked = sorted(key for key in self.seen if key not in self.expected)
        rng = random.Random(self.seed)
        for key in rng.sample(unchecked, min(SAMPLE, len(unchecked))):
            if key in self.bad:
                continue
            signature, length = reference_run(self.specs[key])
            if signature != self.seen[key]:
                self.bad[key] = "signature differs from the reference engine"
            elif length != signature["references"]:
                self.bad[key] = f"generated trace has {length} references"
        return [f"{key}: {problem}" for key, problem in sorted(self.bad.items())]

    def failed(self, keys: Iterable[str]) -> bool:
        return any(key in self.bad for key in keys)
