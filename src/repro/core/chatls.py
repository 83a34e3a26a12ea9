"""ChatLS: the top-level framework (paper Fig. 1/Fig. 2).

``ChatLS.customize`` runs the full pipeline for one design:

1. **CircuitMentor** analyzes the design (graph, GNN embedding, pathology
   detection) at the target clock period.
2. **SynthRAG** is assembled over the expert database, the design's
   property graph and the target library.
3. The **Generator** drafts a customized script from the grounded prompt.
4. **SynthExpert** revises each thought step with per-step retrieval,
   repairing hallucinated commands against the manual (Eq. 6).

``customize_pass_at_k`` evaluates Pass@k (Table III): k seeded drafts,
run through the synthesis tool as one batch; the best executable result
wins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from .. import obs
from ..designs.database import ExpertDatabase
from ..parallel import parallel_map
from ..llm.base import LLMClient
from ..llm.baselines import chatls_core
from ..mentor.analyzer import DesignAnalysis, analyze_design
from ..rag.rerank import LLMReranker
from ..rag.retrievers import ManualRetriever
from ..rag.synthrag import SynthRAG
from ..synth.cache import synthesize_batch, synthesize_cached
from ..synth.library import TechLibrary, nangate45
from ..synth.reports import QoRSnapshot
from .generator import Generator
from .requirements import Requirement, parse_requirement
from .synthexpert import SynthExpert
from .thoughts import CoTTrace

__all__ = ["ChatLS", "CustomizationResult"]


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


class ChatLS:
    """The assembled framework."""

    def __init__(
        self,
        database: ExpertDatabase,
        llm: LLMClient | None = None,
        library: TechLibrary | None = None,
        use_synthexpert: bool = True,
        use_rag: bool = True,
    ) -> None:
        self.database = database
        self.llm = llm or chatls_core()
        self.library = library or nangate45()
        self.use_synthexpert = use_synthexpert
        self.use_rag = use_rag
        #: The tool-manual index (an IDF fit and one embedding per manual
        #: page), built once: it depends only on the manual and ``llm``
        #: and is read-only, so every customization and a
        #: :class:`~repro.serve.ServeEngine` over this pipeline share it.
        self.manual_retriever = ManualRetriever(reranker=LLMReranker(self.llm))

    # -- single customization -----------------------------------------------------

    def _prepare(
        self,
        verilog: str,
        design_name: str,
        requirement: str | Requirement,
        top: str | None,
        clock_period: float,
    ) -> tuple[Requirement, DesignAnalysis, SynthRAG]:
        """Analysis + retrieval context, shared by every seed of a design."""
        with obs.span(
            "chatls.prepare", design=design_name, clock_period=clock_period
        ) as sp:
            if isinstance(requirement, str):
                requirement = parse_requirement(requirement)
            analysis = analyze_design(
                verilog,
                design_name,
                top=top,
                clock_period=clock_period,
                library=self.library,
            )
            rag = SynthRAG.build(
                self.database,
                circuit=analysis.circuit,
                library=self.library,
                llm=self.llm,
                manual_retriever=self.manual_retriever,
            )
            if self.use_rag:
                rag.embedding_retriever.characteristic = requirement.rerank_characteristic
            sp.set_attribute("pathologies", len(analysis.pathologies))
            return requirement, analysis, rag

    def _draft_and_refine(
        self,
        requirement: Requirement,
        analysis: DesignAnalysis,
        rag: SynthRAG,
        baseline_script: str,
        tool_report: str,
        seed: int,
    ) -> CustomizationResult:
        """One seeded draft + SynthExpert refinement over a shared context.

        Drafting and refinement only *read* the analysis and retrievers,
        so pass@k seeds can share one context across worker threads.
        """
        with obs.span("chatls.sample", seed=seed) as sp:
            generator = Generator(self.llm, rag)
            draft = generator.draft(
                requirement,
                baseline_script,
                tool_report,
                analysis if self.use_rag else _blank_analysis(analysis),
                seed=seed,
            )
            if self.use_synthexpert:
                refined = SynthExpert(self.llm, rag).refine(draft.script, analysis)
                script, trace = refined.script, refined.trace
                sp.set_attributes(
                    steps=len(trace.steps), repaired=trace.num_repaired
                )
            else:
                script, trace = draft.script, CoTTrace()
        return CustomizationResult(
            script=script,
            analysis=analysis,
            trace=trace,
            prompt=draft.prompt,
            seed=seed,
        )

    def customize(
        self,
        verilog: str,
        design_name: str,
        baseline_script: str,
        requirement: str | Requirement,
        tool_report: str = "",
        top: str | None = None,
        clock_period: float = 1.0,
        seed: int = 0,
    ) -> CustomizationResult:
        """Produce one customized synthesis script (no evaluation)."""
        with obs.span(
            "chatls.customize", design=design_name, mode="single", seed=seed
        ):
            requirement, analysis, rag = self._prepare(
                verilog, design_name, requirement, top, clock_period
            )
            return self._draft_and_refine(
                requirement, analysis, rag, baseline_script, tool_report, seed
            )

    # -- evaluated customization -----------------------------------------------------

    def customize_and_evaluate(
        self,
        verilog: str,
        design_name: str,
        baseline_script: str,
        requirement: str,
        tool_report: str = "",
        top: str | None = None,
        clock_period: float = 1.0,
        seed: int = 0,
    ) -> CustomizationResult:
        """Customize, then run the script through the synthesis tool."""
        result = self.customize(
            verilog,
            design_name,
            baseline_script,
            requirement,
            tool_report=tool_report,
            top=top,
            clock_period=clock_period,
            seed=seed,
        )
        run = synthesize_cached(
            self.library, design_name, verilog, result.script, top=top
        )
        result.executable = run.success
        result.error = run.error
        result.qor = run.qor
        return result

    def customize_iteratively(
        self,
        verilog: str,
        design_name: str,
        baseline_script: str,
        requirement: str,
        rounds: int = 3,
        k: int = 3,
        top: str | None = None,
        clock_period: float = 1.0,
    ) -> list[CustomizationResult]:
        """Multi-iteration customization (paper §V-B: "logic synthesis is
        inherently an iterative process, not a one-time execution").

        Each round takes the previous round's best script as the new
        baseline and feeds the fresh tool report back into the prompt, so
        later rounds address the *residual* violations.  Stops early when
        timing closes.  Returns one best result per executed round.
        """
        from ..synth.reports import render_qor_report

        history: list[CustomizationResult] = []
        script = baseline_script
        report = ""
        with obs.span(
            "chatls.customize_iteratively", design=design_name, rounds=rounds, k=k
        ) as root:
            for round_index in range(rounds):
                with obs.span("chatls.round", index=round_index) as sp:
                    if round_index == 0:
                        result = self.customize_pass_at_k(
                            verilog,
                            design_name,
                            script,
                            requirement,
                            k=k,
                            tool_report=report,
                            top=top,
                            clock_period=clock_period,
                        )
                    else:
                        # Resynthesis round: extend the previous script with the
                        # incremental refinement commands for the residual
                        # violations, then re-run the tool.
                        extended = _extend_script(script)
                        run = synthesize_cached(
                            self.library, design_name, verilog, extended, top=top
                        )
                        result = CustomizationResult(
                            script=extended,
                            analysis=history[0].analysis,
                            trace=CoTTrace(),
                            prompt="",
                            qor=run.qor,
                            executable=run.success,
                            error=run.error,
                        )
                    if result.qor is not None:
                        sp.set_attributes(
                            wns=round(result.qor.wns, 4), area=round(result.qor.area, 2)
                        )
                history.append(result)
                if result.qor is None:
                    break
                # Keep the round only if it did not regress; otherwise carry
                # the previous best script forward.
                if len(history) >= 2 and history[-2].qor is not None:
                    if not _better_timing(result.qor, history[-2].qor):
                        result = history[-2]
                script = result.script
                report = render_qor_report(result.qor)
                if result.qor.wns >= 0:
                    break
            root.set_attribute("executed_rounds", len(history))
        return history

    def customize_pass_at_k(
        self,
        verilog: str,
        design_name: str,
        baseline_script: str,
        requirement: str,
        k: int = 5,
        tool_report: str = "",
        top: str | None = None,
        clock_period: float = 1.0,
        jobs: int | None = None,
    ) -> CustomizationResult:
        """Pass@k: best executable result over k seeded samples (Table III).

        The design analysis and retrieval context are built once and
        shared; the seeded draft/refine work fans out through the
        parallel executor, then the k scripts synthesize as one batch
        (:func:`synthesize_batch`), so a command prefix several drafts
        share runs once.  The winner is picked in seed order, matching
        the serial sweep exactly.
        """
        with obs.span(
            "chatls.customize", design=design_name, mode="pass_at_k", k=k
        ) as root:
            prepared, analysis, rag = self._prepare(
                verilog, design_name, requirement, top, clock_period
            )
            # The per-seed context (pipeline + analysis + retrieval) is
            # identical across samples: bind it once, so the process
            # backend ships it to each worker once per map, not per seed.
            context = (self, prepared, analysis, rag, baseline_script, tool_report)
            results = parallel_map(
                partial(_pass_at_k_sample, context), range(k),
                jobs=jobs, label="pass-at-k",
            )
            runs = synthesize_batch(
                self.library, design_name, verilog,
                [result.script for result in results], top=top,
            )
            for result, run in zip(results, runs):
                result.executable = run.success
                result.error = run.error
                result.qor = run.qor
            best: CustomizationResult | None = None
            for result in results:
                if not result.executable or result.qor is None:
                    if best is None:
                        best = result
                    continue
                if best is None or best.qor is None:
                    best = result
                elif _better_timing(result.qor, best.qor):
                    best = result
            assert best is not None
            root.set_attributes(winner_seed=best.seed, executable=best.executable)
            obs.info(
                "chatls.pass_at_k.done",
                design=design_name,
                k=k,
                winner_seed=best.seed,
                executable=best.executable,
            )
            return best


def _pass_at_k_sample(context: tuple, seed: int) -> CustomizationResult:
    """One seeded pass@k draft (module-level so it crosses processes).

    ``context`` is the full per-design context built once by
    :meth:`ChatLS.customize_pass_at_k`; only the seed varies per task.
    """
    chatls, prepared, analysis, rag, baseline_script, tool_report = context
    return chatls._draft_and_refine(
        prepared, analysis, rag, baseline_script, tool_report, seed
    )


def _extend_script(script: str) -> str:
    """Append one round of incremental refinement to a synthesis script.

    Report lines stay at the end; the refinement block (register retiming,
    buffer balancing, incremental compile) goes after the last compile-
    class command.
    """
    lines = [l for l in script.splitlines() if l.strip()]
    reports = [l for l in lines if l.split()[0].startswith("report")]
    body = [l for l in lines if not l.split()[0].startswith("report")]
    body += ["optimize_registers", "balance_buffer", "compile -incremental"]
    return "\n".join(body + reports)


def _better_timing(a: QoRSnapshot, b: QoRSnapshot) -> bool:
    """Timing-first comparison (the paper's evaluation objective).

    Negative slack is eliminated first (WNS, then TNS); once timing is
    closed, remaining positive slack is traded for area (paper §V-B:
    timing closure "can be traded for improvements in area and power").
    """
    if round(a.wns, 4) != round(b.wns, 4):
        return a.wns > b.wns
    if round(a.tns, 4) != round(b.tns, 4):
        return a.tns > b.tns
    if a.wns >= 0 and round(a.area, 2) != round(b.area, 2):
        return a.area < b.area
    if round(a.cps, 4) != round(b.cps, 4):
        return a.cps > b.cps
    return a.area < b.area


def _blank_analysis(analysis: DesignAnalysis) -> DesignAnalysis:
    """Ablation helper: strip pathologies so prompts carry no analysis."""
    import copy

    blank = copy.copy(analysis)
    blank.pathologies = []
    return blank
