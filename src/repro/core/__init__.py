"""ChatLS core: requirement parsing, Generator, SynthExpert, the staged pipeline.

This package is the paper's primary contribution: the orchestration that
couples CircuitMentor (analysis), SynthRAG (retrieval) and the LLM into a
grounded, self-correcting synthesis-script customizer.  ``ChatLS`` runs
it as five stage methods over the session record of
:mod:`repro.core.session` (``ChainState``), for one request or a
coalesced batch.
"""

from .baseline_runner import BaselineRun, BaselineRunner
from .chatls import ChatLS, CustomizationResult
from .generator import DraftResult, Generator
from .requirements import Requirement, parse_requirement
from .session import (
    CHECKPOINT_FORMAT,
    DONE,
    STAGES,
    ChainState,
    CheckpointError,
    ServeRequest,
)
from .synthexpert import RefinementResult, SynthExpert
from .thoughts import CoTTrace, ThoughtStep

__all__ = [
    "BaselineRun",
    "BaselineRunner",
    "CHECKPOINT_FORMAT",
    "ChainState",
    "ChatLS",
    "CheckpointError",
    "CustomizationResult",
    "DONE",
    "DraftResult",
    "Generator",
    "Requirement",
    "parse_requirement",
    "RefinementResult",
    "STAGES",
    "ServeRequest",
    "SynthExpert",
    "CoTTrace",
    "ThoughtStep",
]
