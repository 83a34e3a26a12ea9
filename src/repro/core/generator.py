"""The Generator: drafts a customized synthesis script (paper Fig. 2).

Builds the grounded prompt — user requirement, baseline script, tool
report, CircuitMentor analysis, SynthRAG strategy retrievals and manual
excerpts — and asks the core LLM for a draft script.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import obs
from ..llm.base import LLMClient
from ..llm.prompts import build_prompt, extract_script
from ..mentor.analyzer import DesignAnalysis
from ..rag.knowledge import render_strategy_section, strategies_for_pathologies
from ..rag.synthrag import SynthRAG
from .requirements import Requirement

__all__ = ["DraftResult", "DraftRetrieval", "Generator"]


@dataclass
class DraftResult:
    """One drafted script plus the prompt context that produced it."""

    script: str
    prompt: str
    completion_text: str
    strategies_used: list[str]


@dataclass
class DraftRetrieval:
    """The retrieved grounding for one draft (the pipeline's retrieve stage).

    Splitting retrieval out of :meth:`Generator.draft` lets
    :meth:`ChatLS.retrieve` coalesce many sessions' strategy/manual
    lookups into batched kNN calls, then :meth:`ChatLS.draft` finish each
    draft independently with :meth:`Generator.draft_from_retrieval`.
    """

    strategy_hits: list
    manual_hits: list


class Generator:
    """LLM script drafter grounded by analysis + retrieval."""

    def __init__(self, llm: LLMClient, rag: SynthRAG) -> None:
        self.llm = llm
        self.rag = rag

    def draft(
        self,
        requirement: Requirement,
        baseline_script: str,
        tool_report: str,
        analysis: DesignAnalysis,
        seed: int = 0,
        k_strategies: int = 2,
    ) -> DraftResult:
        """Draft a customized script for one design."""
        retrieval = self.retrieve_for_draft(requirement, analysis, k_strategies)
        return self.draft_from_retrieval(
            requirement, baseline_script, tool_report, analysis, retrieval, seed=seed
        )

    def retrieve_for_draft(
        self,
        requirement: Requirement,
        analysis: DesignAnalysis,
        k_strategies: int = 2,
        design_embedding=None,
    ) -> DraftRetrieval:
        """The retrieval half of :meth:`draft` (strategy + manual lookups)."""
        if design_embedding is None:
            design_embedding = self.rag.encoder.embed_design(analysis.circuit)
        return DraftRetrieval(
            strategy_hits=self.rag.retrieve_strategies(design_embedding, k=k_strategies),
            manual_hits=self.rag.manual(requirement.text, k=2),
        )

    def draft_from_retrieval(
        self,
        requirement: Requirement,
        baseline_script: str,
        tool_report: str,
        analysis: DesignAnalysis,
        retrieval: DraftRetrieval,
        seed: int = 0,
    ) -> DraftResult:
        """Compose the prompt and draft from already-retrieved grounding.

        Touches only the LLM — no retriever state — so the draft stage
        runs it per session after a coalesced retrieve stage.
        """
        with obs.span("chatls.draft", seed=seed) as sp:
            hits = retrieval.strategy_hits
            pathology_strats = strategies_for_pathologies(analysis.pathologies, limit=2)
            strategy_section = render_strategy_section(
                hits=hits, pathology_strategies=pathology_strats
            )
            manual_section = "\n\n".join(h.text for h in retrieval.manual_hits)
            sections = {
                "USER REQUIREMENT": requirement.text,
                "BASELINE SCRIPT": baseline_script,
                "TOOL REPORT": tool_report,
                "CIRCUIT ANALYSIS": analysis.summary(),
                "RETRIEVED STRATEGIES": strategy_section,
                "MANUAL EXCERPTS": manual_section,
            }
            prompt = build_prompt(sections)
            completion = self.llm.complete(prompt, seed=seed)
            script = extract_script(completion.text) or baseline_script
            strategies_used = [s.name for s in pathology_strats] + [
                h.strategy for h in hits
            ]
            sp.set_attributes(
                strategies=strategies_used,
                fallback=not bool(extract_script(completion.text)),
                script_lines=len(script.splitlines()),
            )
            return DraftResult(
                script=script,
                prompt=prompt,
                completion_text=completion.text,
                strategies_used=strategies_used,
            )
