"""Deterministic seeded RNG streams — no module touches global ``random``.

Every stochastic component in the repo (the design-space explorer, the
RTL generators, randomized test fixtures) draws from a
private :class:`random.Random` built here, so test files and library
modules can never bleed seeds into each other through the interpreter's
global generator, and results are reproducible regardless of import or
execution order.

Two entry points:

* :func:`rng` — a fresh private generator.  ``rng(seed)`` with no stream
  keys is exactly ``random.Random(seed)`` (so callers migrating off a
  bare ``random.Random`` keep byte-identical sequences), while
  ``rng(seed, "chain", 3)`` derives an independent stream for the given
  key path.
* :func:`derive` — the stable 64-bit subseed behind keyed streams.
  Hash-based (sha256), so it is identical across processes, platforms
  and ``PYTHONHASHSEED`` values — parallel workers can derive the same
  per-task seeds the parent would.
"""

from __future__ import annotations

import hashlib
import random

__all__ = ["derive", "rng"]


def derive(seed: int, *streams) -> int:
    """A stable 64-bit subseed for the stream keyed by ``streams``.

    Streams with the same ``(seed, *streams)`` always get the same
    subseed; distinct key paths get independent ones.  Keys may be any
    mix of ints and strings (their ``repr`` feeds the hash).
    """
    h = hashlib.sha256()
    h.update(repr(int(seed)).encode("utf-8"))
    for key in streams:
        h.update(b"\x1f")
        h.update(repr(key).encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "big")


def rng(seed: int, *streams) -> random.Random:
    """A private generator for the stream keyed by ``streams``.

    With no stream keys this is exactly ``random.Random(seed)``; with
    keys, the generator is seeded from :func:`derive`, giving an
    independent deterministic stream per key path.
    """
    if not streams:
        return random.Random(seed)
    return random.Random(derive(seed, *streams))
