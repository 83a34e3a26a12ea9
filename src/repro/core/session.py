"""The customization session record: typed, checkpointable chain state.

ChatLS customizes a script through one chain (paper Fig. 2, Eq. 6):

    analyze -> retrieve -> draft -> revise -> synthesize

:class:`ChainState` carries one session through it, with every
intermediate artifact (requirement, analysis, design embedding,
retrieval bundle, draft, refined script/trace, QoR) as a picklable
field.  :class:`~repro.core.chatls.ChatLS` runs each stage as a method
over a batch of states (one state for ``customize``, a coalesced batch
in :class:`~repro.serve.ServeEngine`); the serving engine checkpoints
the state after each completed stage (atomic ``tmp + os.replace``
write), so a killed server resumes a session by running only the
stages that have not completed yet.

A checkpoint holds the session's facts, not its design: the analysis
keeps no netlist (the analyze stage hands the netlist it timed to the
frontend cache, where the session's synthesis takes it), so a
checkpoint is tens of kilobytes rather than megabytes, and a finished
session keeps no netlist alive.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass
from typing import Any

from .. import perf
from ..mentor.analyzer import DesignAnalysis
from ..synth.reports import QoRSnapshot
from .generator import DraftResult, DraftRetrieval
from .requirements import Requirement
from .thoughts import CoTTrace

__all__ = ["STAGES", "DONE", "CHECKPOINT_FORMAT", "CheckpointError", "ServeRequest",
           "ChainState", "CustomizationResult"]

#: The stages of one customization, each a :class:`ChatLS` method.
STAGES: tuple[str, ...] = ("analyze", "retrieve", "draft", "revise", "synthesize")

#: Terminal stage marker: every stage of the chain has completed.
DONE = "done"

#: Version of the checkpoint file format.  Bump it whenever a field of
#: :class:`ChainState`, :class:`ServeRequest` or the checkpointed
#: :class:`DesignAnalysis` is added, removed or changes meaning, or a
#: checkpointed class moves, so older checkpoints are rejected instead of
#: misread.  Format 2: the checkpointed analysis holds no netlist.
#: Format 3: the session record lives in ``repro.core.session``.
CHECKPOINT_FORMAT = 3


class CheckpointError(ValueError):
    """A checkpoint that cannot be resumed from; the message names the path."""


def _rejected(path: str, reason: str) -> CheckpointError:
    perf.incr("serve.checkpoint_rejected")
    return CheckpointError(f"{path}: {reason}")


@dataclass
class CustomizationResult:
    """Output of one ChatLS customization."""

    script: str
    analysis: DesignAnalysis
    trace: CoTTrace
    prompt: str
    qor: QoRSnapshot | None = None
    executable: bool = True
    error: str | None = None
    seed: int = 0


@dataclass
class ServeRequest:
    """One customization request.

    Mirrors the :meth:`ChatLS.customize_and_evaluate` signature;
    ``evaluate=False`` stops after revision (the :meth:`ChatLS.customize`
    contract, no synthesis run).
    """

    verilog: str
    design_name: str
    baseline_script: str
    requirement: str | Requirement
    tool_report: str = ""
    top: str | None = None
    clock_period: float = 1.0
    seed: int = 0
    evaluate: bool = True
    session_id: str | None = None


@dataclass
class ChainState:
    """The session's progress through the staged pipeline.

    ``stage`` names the *next* stage to run (or :data:`DONE`);
    ``completed`` records the stages already run, in order.  All fields
    are picklable, which is the whole point: a saved state resumes with
    zero recomputation of completed stages.
    """

    request: ServeRequest
    stage: str = STAGES[0]
    completed: tuple[str, ...] = ()

    # Stage artifacts, filled in as the chain advances.
    requirement: Requirement | None = None
    analysis: DesignAnalysis | None = None
    design_embedding: Any = None
    retrieval: DraftRetrieval | None = None
    draft: DraftResult | None = None
    script: str | None = None
    trace: CoTTrace | None = None
    qor: Any = None
    executable: bool = True
    error: str | None = None

    def stages(self) -> tuple[str, ...]:
        """The stages this session runs (``evaluate=False`` skips synthesis)."""
        return STAGES if self.request.evaluate else STAGES[:-1]

    def remaining(self) -> tuple[str, ...]:
        """Stages still to run, starting with :attr:`stage`."""
        if self.stage == DONE:
            return ()
        stages = self.stages()
        return stages[stages.index(self.stage):]

    def advance(self) -> None:
        """Mark the current stage completed and move to the next."""
        if self.stage == DONE:
            raise ValueError("chain already completed")
        stages = self.stages()
        index = stages.index(self.stage)
        self.completed = self.completed + (self.stage,)
        self.stage = stages[index + 1] if index + 1 < len(stages) else DONE

    def result(self) -> CustomizationResult:
        """The finished session as a :class:`CustomizationResult`."""
        if self.stage != DONE:
            raise ValueError(f"chain not finished (next stage: {self.stage})")
        return CustomizationResult(
            script=self.script,
            analysis=self.analysis,
            trace=self.trace,
            prompt=self.draft.prompt if self.draft is not None else "",
            qor=self.qor,
            executable=self.executable,
            error=self.error,
            seed=self.request.seed,
        )

    # -- checkpointing ---------------------------------------------------------

    def save(self, path: str) -> str:
        """Atomically persist the state: write a sibling tmp, then rename.

        ``os.replace`` is atomic on POSIX, so a reader (or a resumed
        server) only ever sees the previous complete checkpoint or the
        new complete checkpoint — never a torn write.
        """
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "wb") as fh:
                pickle.dump(("ChainState", CHECKPOINT_FORMAT, self), fh)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        return path

    @classmethod
    def load(cls, path: str) -> "ChainState":
        """Read a checkpoint written by :meth:`save`.

        A truncated or corrupt file, one naming a class this version does
        not have, an unversioned state, another :data:`CHECKPOINT_FORMAT`
        or any other payload raises :class:`CheckpointError`, counted as
        ``serve.checkpoint_rejected``.
        """
        with open(path, "rb") as fh:
            try:
                payload = pickle.load(fh)
            except (pickle.UnpicklingError, EOFError, AttributeError, ImportError,
                    IndexError, KeyError, TypeError, ValueError) as exc:
                raise _rejected(path, f"truncated or corrupt checkpoint ({exc!r})") from exc
        if isinstance(payload, cls):
            raise _rejected(path, "unversioned checkpoint")
        if type(payload) is not tuple or len(payload) != 3 or payload[0] != "ChainState":
            raise _rejected(path, "not a ChainState checkpoint")
        _, version, state = payload
        if version != CHECKPOINT_FORMAT:
            raise _rejected(path, f"checkpoint format {version!r}, expected {CHECKPOINT_FORMAT}")
        if not isinstance(state, cls):
            raise _rejected(path, "not a ChainState checkpoint")
        return state
