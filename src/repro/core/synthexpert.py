"""SynthExpert: iterative script refinement with CoT + RAG (paper §IV-C).

The drafted script is decomposed into thought steps (one per command).
For each step T_i, a query Q_i is formulated (by the LLM), information
R_i is retrieved through SynthRAG, and the step is revised to T_i*
(Eq. 6).  Revision enforces the paper's executability property: commands
the manual does not document (hallucinations) are repaired to the closest
documented command with equivalent intent, or dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import obs
from ..llm.base import LLMClient
from ..llm.prompts import build_prompt
from ..mentor.analyzer import DesignAnalysis
from ..rag.synthrag import SynthRAG
from .thoughts import CoTTrace, ThoughtStep

__all__ = ["SynthExpert", "RefinementResult", "StepPlan", "DEFAULT_PROTECTED_PREFIXES"]

#: Setup/constraint commands that pass through revision untouched.
DEFAULT_PROTECTED_PREFIXES = (
    "read_verilog",
    "current_design",
    "link",
    "set_wire_load_model",
    "create_clock",
    "set",  # generic Tcl variable assignment
)

#: Intent keywords -> documented replacement command, used to repair
#: hallucinated commands while preserving what the model meant.
_REPAIR_INTENTS = (
    (("retime", "register", "pipeline"), "optimize_registers"),
    (("fanout", "buffer", "net"), "balance_buffer"),
    (("area", "downsize", "cost"), "set_max_area 0"),
    (("timing", "critical", "delay", "speed"), "compile_ultra"),
    (("flatten", "ungroup", "hierarchy"), "ungroup -all -flatten"),
)

#: Options the substrate actually accepts, per command.
_VALID_OPTION_PREFIXES = {
    "compile": ("-map_effort", "-area_effort", "-power_effort", "-incremental"),
    "compile_ultra": ("-retime", "-no_autoungroup", "-timing_high_effort_script"),
    "balance_buffer": ("-max_fanout",),
    "ungroup": ("-all", "-flatten"),
    "set_wire_load_model": ("-name",),
    "create_clock": ("-period", "-name"),
    "report_timing": (),
    "report_qor": (),
}


@dataclass
class RefinementResult:
    """The refined script plus the CoT trace."""

    script: str
    trace: CoTTrace


@dataclass
class StepPlan:
    """The decomposed draft: thought steps plus their retrieval queries.

    Produced by :meth:`SynthExpert.plan`; the per-step manual retrieval
    can then run as one batched lookup (:meth:`ChatLS.revise` coalesces
    every session's) before :meth:`SynthExpert.apply` revises each step.
    """

    steps: list[ThoughtStep]
    protected: list[bool]

    def queries(self) -> list[str]:
        """Effective retrieval query per unprotected step, in step order."""
        return [
            step.query or step.content
            for step, is_protected in zip(self.steps, self.protected)
            if not is_protected
        ]


class SynthExpert:
    """CoT + RAG refinement loop over a drafted script."""

    def __init__(self, llm: LLMClient, rag: SynthRAG) -> None:
        self.llm = llm
        self.rag = rag

    def refine(
        self,
        draft_script: str,
        analysis: DesignAnalysis | None = None,
        protected_prefixes: tuple[str, ...] = DEFAULT_PROTECTED_PREFIXES,
    ) -> RefinementResult:
        """Revise the draft one thought step at a time (paper Eq. 6).

        Runs the three pipeline sub-stages back to back: ``plan`` (steps +
        LLM-formulated queries), batched manual ``retrieve``, ``apply``
        (the Eq. 6 revision decisions).
        """
        with obs.span("expert.refine") as sp:
            plan = self.plan(draft_script, protected_prefixes)
            step_hits = self.retrieve(plan)
            result = self.apply(plan, step_hits, analysis)
            sp.set_attributes(
                steps=len(result.trace.steps),
                repaired=result.trace.num_repaired,
                dropped=result.trace.num_dropped,
            )
            return result

    # -- pipeline sub-stages -----------------------------------------------------

    def plan(
        self,
        draft_script: str,
        protected_prefixes: tuple[str, ...] = DEFAULT_PROTECTED_PREFIXES,
    ) -> StepPlan:
        """Decompose the draft into thought steps and formulate queries (Q_i)."""
        steps: list[ThoughtStep] = []
        protected: list[bool] = []
        for index, raw_line in enumerate(draft_script.splitlines()):
            line = raw_line.strip()
            if not line or line.startswith("#"):
                continue
            step = ThoughtStep(index=index, content=line)
            first = line.split()[0]
            is_protected = any(
                first == prefix or (prefix == "set" and first == "set")
                for prefix in protected_prefixes
            )
            if not is_protected:
                # Q_i: ask the LLM to turn the step into a retrieval query.
                step.query = self.llm.complete(
                    build_prompt({"TASK": "FORMULATE QUERY", "THOUGHT STEP": line})
                ).text.strip()
            steps.append(step)
            protected.append(is_protected)
        return StepPlan(steps=steps, protected=protected)

    def retrieve(self, plan: StepPlan, k: int = 2) -> list:
        """R_i: manual retrieval for every unprotected step's query, batched."""
        queries = plan.queries()
        if not queries:
            return []
        if len(queries) == 1:
            return [self.rag.manual(queries[0], k=k)]
        return self.rag.manual_batch(queries, k=k)

    def apply(
        self,
        plan: StepPlan,
        step_hits: list,
        analysis: DesignAnalysis | None = None,
    ) -> RefinementResult:
        """T_i -> T_i*: revise each step given its retrieved grounding."""
        trace = CoTTrace()
        final_lines: list[str] = []
        hit_rows = iter(step_hits)
        for step, is_protected in zip(plan.steps, plan.protected):
            if is_protected:
                # Setup/constraint lines pass through unrevised — the paper
                # fixes basic configuration (incl. clock period).
                step.revised = step.content
                trace.add(step)
                final_lines.append(step.content)
                continue
            revised = self._revise_step(step, next(hit_rows), analysis)
            trace.add(step)
            if step.action != "dropped" and revised:
                final_lines.append(revised)
        if not any(l.split()[0].startswith("compile") for l in final_lines):
            # A synthesis script must compile something; restore a default.
            final_lines.append("compile")
            trace.add(
                ThoughtStep(
                    index=len(trace.steps),
                    content="(ensure a compile command exists)",
                    revised="compile",
                    action="repaired",
                )
            )
        return RefinementResult(script="\n".join(final_lines), trace=trace)

    # -- the Eq. 6 inner loop ----------------------------------------------------

    def _revise_step(
        self, step: ThoughtStep, hits, analysis: DesignAnalysis | None
    ) -> str:
        line = step.content
        command = line.split()[0]
        with obs.span("expert.step", index=step.index, command=command) as sp:
            sp.set_attribute("query", step.query)
            step.retrieved = "\n".join(h.text for h in hits)

            if self.rag.command_exists(command):
                repaired = self._sanitize_options(line)
                if repaired != line:
                    step.action = "repaired"
                    sp.set_attributes(
                        reason="undocumented options dropped", before=line, after=repaired
                    )
                step.revised = repaired
                sp.set_attributes(action=step.action, repaired=step.action == "repaired")
                return repaired
            # Hallucinated command: repair from intent, grounded in retrieval.
            replacement = self._repair_from_intent(line, hits)
            if replacement is not None:
                step.action = "repaired"
                step.revised = replacement
                sp.set_attributes(
                    action="repaired", repaired=True,
                    reason="hallucinated command replaced from intent",
                    before=line, after=replacement,
                )
                return replacement
            step.action = "dropped"
            step.revised = ""
            sp.set_attributes(
                action="dropped", repaired=False,
                reason="command not in manual, no intent match", before=line,
            )
            return ""

    @staticmethod
    def _repair_from_intent(line: str, hits) -> str | None:
        lowered = line.lower()
        for keywords, replacement in _REPAIR_INTENTS:
            if any(word in lowered for word in keywords):
                return replacement
        # Fall back to the top retrieved documented synthesis command.
        safe = {"compile", "compile_ultra", "optimize_registers", "balance_buffer"}
        for hit in hits:
            if hit.command in safe:
                return hit.command
        return None

    @staticmethod
    def _sanitize_options(line: str) -> str:
        """Drop options the documented command does not accept."""
        parts = line.split()
        command = parts[0]
        if command not in _VALID_OPTION_PREFIXES:
            return line
        valid = _VALID_OPTION_PREFIXES[command]
        value_flags = {"-map_effort", "-area_effort", "-power_effort",
                       "-max_fanout", "-name", "-period"}
        kept = [command]
        i = 1
        while i < len(parts):
            token = parts[i]
            if token.startswith("-"):
                if any(token.startswith(prefix) for prefix in valid):
                    kept.append(token)
                    if token in value_flags and i + 1 < len(parts):
                        kept.append(parts[i + 1])
                        i += 1
                else:
                    # Drop the undocumented flag and its value, if any.
                    if i + 1 < len(parts) and not parts[i + 1].startswith("-"):
                        i += 1
            else:
                kept.append(token)
            i += 1
        return " ".join(kept)
