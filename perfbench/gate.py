"""Correctness gate: per-request digests checked against committed references.

A digest covers everything a customization returns that a user acts on:
the script, every CoT trace step, the QoR fields (WNS, TNS, CPS, area,
leakage, each at full float precision) and the executable flag.
``reference.json`` holds the digest of every request any seed can draw;
``make_reference.py`` regenerates it.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")


def digest(result) -> str:
    """Stable 16-hex digest of one ``CustomizationResult``."""
    qor = result.qor
    fields = None
    if qor is not None:
        fields = [repr(qor.wns), repr(qor.tns), repr(qor.cps), repr(qor.area),
                  repr(qor.leakage_nw)]
    steps = [
        [s.index, s.content, s.query, s.retrieved, s.revised, s.action]
        for s in result.trace.steps
    ]
    payload = json.dumps([result.script, steps, fields, bool(result.executable)])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def load_reference(path: Path = REFERENCE) -> dict[str, str]:
    with open(path) as fh:
        return json.load(fh)["digests"]


class Gate:
    """Counts attempted, failed and mismatched requests of one run."""

    def __init__(self, reference: dict[str, str]) -> None:
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.mismatched: list[str] = []
        self.digests: dict[str, str] = {}

    def check(self, key: str, result) -> None:
        """Record one returned request; a non-executable script is a failure."""
        self.attempted += 1
        if not result.executable:
            self.failed += 1
        self.digests[key] = digest(result)
        if self.reference.get(key) != self.digests[key]:
            self.mismatched.append(key)

    def fail(self, key: str) -> None:
        """Record a request that raised."""
        self.attempted += 1
        self.failed += 1
        self.mismatched.append(key)

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0 and not self.mismatched
