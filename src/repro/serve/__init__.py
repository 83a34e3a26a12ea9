"""ChatLS-as-a-service: async micro-batched serving of the customize pipeline.

The sequential :meth:`ChatLS.customize_and_evaluate` call becomes an
explicit staged chain (``analyze -> retrieve -> draft -> revise ->
synthesize``) over a typed, checkpointable :class:`ChainState`; the
:class:`ServeEngine` runs many sessions concurrently and coalesces each
stage's pending work across sessions into batched kernel calls (grouped
GNN embeds, stacked kNN searches, pooled synthesis fan-out) under a
:class:`BatchPolicy` (16 sessions or 2 ms by default).  Per-session
results are identical to the sequential loop; only the schedule changes.
A truncated, foreign or other-:data:`CHECKPOINT_FORMAT` checkpoint raises
:class:`CheckpointError` instead of loading.
"""

from .engine import BatchPolicy, MicroBatcher, ServeEngine
from .state import CHECKPOINT_FORMAT, DONE, STAGES, ChainState, CheckpointError, ServeRequest

__all__ = [
    "BatchPolicy",
    "CHECKPOINT_FORMAT",
    "ChainState",
    "CheckpointError",
    "DONE",
    "MicroBatcher",
    "STAGES",
    "ServeEngine",
    "ServeRequest",
]
