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
from ..synth.cache import synthesize_cached
from ..synth.library import TechLibrary, nangate45
from ..synth.reports import QoRSnapshot

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

    def run_once(
        self,
        verilog: str,
        design_name: str,
        baseline_script: str,
        requirement: str,
        tool_report: str = "",
        top: str | None = None,
        seed: int = 0,
    ) -> BaselineRun:
        prompt = self.build_prompt(requirement, baseline_script, tool_report, verilog)
        completion = self.llm.complete(prompt, seed=seed)
        script = extract_script(completion.text) or baseline_script
        # Seeds frequently draft identical scripts; the content-addressed
        # cache makes the duplicates free.
        result = synthesize_cached(
            self.library, design_name, verilog, script, top=top
        )
        return BaselineRun(
            script=script,
            executable=result.success,
            error=result.error,
            qor=result.qor,
            seed=seed,
        )

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

        Seeds are independent and run through the parallel executor; the
        winner is selected in seed order, so the result is identical to a
        serial sweep.
        """
        from .chatls import _better_timing

        runs = parallel_map(
            partial(
                self.run_once, verilog, design_name, baseline_script,
                requirement, tool_report, top,
            ),
            range(k),
            jobs=jobs,
            label="pass-at-k",
        )
        best: BaselineRun | None = None
        for run in runs:
            if not run.executable or run.qor is None:
                if best is None:
                    best = run
                continue
            if best is None or best.qor is None or _better_timing(run.qor, best.qor):
                best = run
        assert best is not None
        return best
