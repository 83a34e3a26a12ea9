"""Raw-LLM baseline runner (the GPT-4o / Claude 3.5 arms of Table III).

Baselines receive exactly what the paper gave them: the user requirement,
the baseline script, the tool report, and the design RTL (segmented to the
model's context window) — no CircuitMentor, no SynthRAG, no SynthExpert.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from ..parallel import parallel_map
from ..llm.base import LLMClient
from ..llm.prompts import build_prompt, extract_script
from ..synth.cache import synthesize_batch
from ..synth.library import TechLibrary, nangate45
from ..synth.reports import QoRSnapshot
from .chatls import pass_at_k_winner

__all__ = ["BaselineRun", "BaselineRunner"]


@dataclass
class BaselineRun:
    """One evaluated baseline customization."""

    script: str
    executable: bool
    error: str | None
    qor: QoRSnapshot | None
    seed: int


class BaselineRunner:
    """Runs a raw LLM against the customization task."""

    def __init__(self, llm: LLMClient, library: TechLibrary | None = None) -> None:
        self.llm = llm
        self.library = library or nangate45()

    def build_prompt(
        self, requirement: str, baseline_script: str, tool_report: str, verilog: str
    ) -> str:
        return build_prompt(
            {
                "USER REQUIREMENT": requirement,
                "BASELINE SCRIPT": baseline_script,
                "TOOL REPORT": tool_report,
                "DESIGN RTL": verilog,
            }
        )

    def draft(
        self,
        verilog: str,
        baseline_script: str,
        requirement: str,
        tool_report: str = "",
        seed: int = 0,
    ) -> str:
        """The script one seeded completion drafts (the baseline if none)."""
        prompt = self.build_prompt(requirement, baseline_script, tool_report, verilog)
        completion = self.llm.complete(prompt, seed=seed)
        return extract_script(completion.text) or baseline_script

    def run_pass_at_k(
        self,
        verilog: str,
        design_name: str,
        baseline_script: str,
        requirement: str,
        k: int = 5,
        tool_report: str = "",
        top: str | None = None,
        jobs: int | None = None,
    ) -> BaselineRun:
        """Best executable run over k seeds (Table III's Pass@5).

        Seeds draft independently through the parallel executor, then the
        k scripts synthesize as one batch: seeds frequently draft
        identical scripts or shared prefixes, which the cache and the
        prefix tree make free.  The winner is selected in seed order
        (:func:`~repro.core.chatls.pass_at_k_winner`), so the result is
        identical to a serial sweep.
        """
        scripts = parallel_map(
            partial(self.draft, verilog, baseline_script, requirement, tool_report),
            range(k),
            jobs=jobs,
            label="pass-at-k",
        )
        results = synthesize_batch(
            self.library, design_name, verilog, scripts, top=top
        )
        return pass_at_k_winner([
            BaselineRun(
                script=script,
                executable=result.success,
                error=result.error,
                qor=result.qor,
                seed=seed,
            )
            for seed, (script, result) in enumerate(zip(scripts, results))
        ])
