"""ChatLS-as-a-service: async micro-batched serving of the customize pipeline.

The :class:`ServeEngine` runs many customization sessions concurrently
through :class:`~repro.core.ChatLS`'s five stages (``analyze -> retrieve
-> draft -> revise -> synthesize``) over the typed, checkpointable
:class:`ChainState`, and hands each stage the sessions that arrived
within one batching window under a :class:`BatchPolicy` (16 sessions or
2 ms by default).  The stages coalesce a batch's work (grouped GNN
embeds, stacked kNN searches, pooled synthesis fan-out); a single
``customize`` call runs the same stage code over one session, so
per-session results are identical to the sequential loop and only the
schedule changes.  A truncated, foreign or other-:data:`CHECKPOINT_FORMAT`
checkpoint raises :class:`CheckpointError` instead of loading.

The session record (:class:`ChainState`, :class:`ServeRequest`,
:data:`STAGES`, :data:`DONE`, :data:`CHECKPOINT_FORMAT`,
:class:`CheckpointError`) lives in :mod:`repro.core.session` and is
re-exported here.
"""

from ..core.session import (
    CHECKPOINT_FORMAT,
    DONE,
    STAGES,
    ChainState,
    CheckpointError,
    ServeRequest,
)
from .engine import BatchPolicy, MicroBatcher, ServeEngine

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
