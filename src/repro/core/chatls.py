"""ChatLS: the top-level framework (paper Fig. 1/Fig. 2).

A customization is one chain of five stages, each a :class:`ChatLS`
method over a batch of :class:`ChainState` sessions:

1. ``analyze`` — **CircuitMentor** parses each requirement and analyzes
   each design (graph, pathology detection) at its target clock period;
   every design embedding comes out of one grouped GNN forward.
2. ``retrieve`` — **SynthRAG** looks up strategies (one stacked kNN with
   the Eq. 5 rerank characteristic per row) and manual pages for every
   requirement.
3. ``draft`` — the **Generator** drafts a script from the grounded prompt.
4. ``revise`` — **SynthExpert** revises each thought step against the
   manual (Eq. 6); every session's step queries go through one batched
   manual search.
5. ``synthesize`` — each script runs through the synthesis tool.

``customize`` and ``customize_and_evaluate`` run one session through the
stages; :class:`~repro.serve.ServeEngine` runs coalesced batches of many.
``customize_pass_at_k`` evaluates Pass@k (Table III): one analysis and
retrieval, k seeded drafts and revisions, synthesized as one batch; the
best executable result wins.
"""

from __future__ import annotations

import dataclasses
from functools import partial
from typing import Callable

import numpy as np

from .. import obs
from ..designs.database import ExpertDatabase
from ..parallel import parallel_map
from ..llm.base import LLMClient
from ..llm.baselines import chatls_core
from ..mentor.analyzer import DesignAnalysis, analyze_design
from ..rag.synthrag import SynthRAG
from ..synth.cache import synthesize_batch, synthesize_cached
from ..synth.library import TechLibrary, nangate45
from ..synth.reports import QoRSnapshot
from .generator import DraftRetrieval, Generator
from .requirements import Requirement, parse_requirement
from .session import ChainState, CustomizationResult, ServeRequest
from .synthexpert import SynthExpert
from .thoughts import CoTTrace

__all__ = ["ChatLS", "CustomizationResult", "pass_at_k_winner"]


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
        #: The retrieval stack (manual index, reranker, library graph),
        #: built once: it depends only on the corpus, ``llm`` and the
        #: library, and no stage mutates it, so every customization and a
        #: :class:`~repro.serve.ServeEngine` over this pipeline share it.
        #: It holds no circuit store: no stage queries a design's
        #: property graph.
        self.rag = SynthRAG.build(database, library=self.library, llm=self.llm)

    # -- the five stages -------------------------------------------------------

    def analyze(
        self,
        states: list[ChainState],
        jobs: int | None = None,
        backend: str | None = None,
    ) -> list[ChainState]:
        """Parse each requirement, analyze each design, embed all designs.

        The analyses fan out through :func:`parallel_map` (``jobs`` and
        ``backend`` as there); every session's module graphs then go
        through one grouped GNN forward.
        """
        with obs.span("chatls.analyze", sessions=len(states)) as sp:
            for state in states:
                raw = state.request.requirement
                state.requirement = parse_requirement(raw) if isinstance(raw, str) else raw
            analyses = parallel_map(
                _analyze_task,
                [
                    (
                        state.request.verilog,
                        state.request.design_name,
                        state.request.top,
                        state.request.clock_period,
                        self.library,
                    )
                    for state in states
                ],
                jobs=jobs,
                backend=backend,
                label="chatls-analyze",
                cost=lambda task: len(task[0]),
            )
            embeddings = self.database.encoder.embed_designs(
                [analysis.circuit for analysis in analyses]
            )
            for state, analysis, embedding in zip(states, analyses, embeddings):
                state.analysis = analysis
                state.design_embedding = embedding
                state.advance()
            sp.set_attribute(
                "pathologies", sum(len(analysis.pathologies) for analysis in analyses)
            )
        return states

    def retrieve(self, states: list[ChainState]) -> list[ChainState]:
        """Strategy and manual grounding for every session, two batched searches.

        The Eq. 5 rerank follows each requirement's characteristic when
        ``use_rag`` is on (the retriever's default otherwise); it travels
        as a per-row argument, so the shared retriever is never mutated.
        """
        with obs.span("chatls.retrieve", sessions=len(states)):
            characteristics = (
                [state.requirement.rerank_characteristic for state in states]
                if self.use_rag
                else None
            )
            strategy_rows = self.rag.retrieve_strategies_batch(
                np.stack([state.design_embedding for state in states]),
                k=2,
                characteristics=characteristics,
            )
            manual_rows = self.rag.manual_batch(
                [state.requirement.text for state in states], k=2
            )
            for state, strategies, manual in zip(states, strategy_rows, manual_rows):
                state.retrieval = DraftRetrieval(
                    strategy_hits=strategies, manual_hits=manual
                )
                state.advance()
        return states

    def draft(self, states: list[ChainState]) -> list[ChainState]:
        """One seeded LLM draft per session from its retrieved grounding."""
        generator = Generator(self.llm, self.rag)
        for state in states:
            state.draft = generator.draft_from_retrieval(
                state.requirement,
                state.request.baseline_script,
                state.request.tool_report,
                state.analysis if self.use_rag else _blank_analysis(state.analysis),
                state.retrieval,
                seed=state.request.seed,
            )
            state.advance()
        return states

    def revise(self, states: list[ChainState]) -> list[ChainState]:
        """SynthExpert's step revision (Eq. 6) of every session's draft.

        Every step query of every session goes through one stacked manual
        search; with ``use_synthexpert`` off the draft stands as is.
        """
        with obs.span("chatls.revise", sessions=len(states)) as sp:
            expert = SynthExpert(self.llm, self.rag)
            plans = [
                expert.plan(state.draft.script) if self.use_synthexpert else None
                for state in states
            ]
            queries = [q for plan in plans if plan is not None for q in plan.queries()]
            rows = iter(self.rag.manual_batch(queries, k=2) if queries else [])
            for state, plan in zip(states, plans):
                if plan is None:
                    state.script, state.trace = state.draft.script, CoTTrace()
                else:
                    refined = expert.apply(
                        plan, [next(rows) for _ in plan.queries()], state.analysis
                    )
                    state.script, state.trace = refined.script, refined.trace
                state.advance()
            sp.set_attributes(
                steps=sum(len(state.trace.steps) for state in states),
                repaired=sum(state.trace.num_repaired for state in states),
            )
        return states

    def synthesize(
        self,
        states: list[ChainState],
        jobs: int | None = None,
        backend: str | None = None,
        on_result: Callable[[int, ChainState], None] | None = None,
    ) -> list[ChainState]:
        """Run every session's script through the synthesis tool.

        The runs fan out through :func:`parallel_map` (``jobs`` and
        ``backend`` as there), and ``on_result(position, state)``, when
        given, hands each session on as soon as its own synthesis ends.
        The process pool dispatches the costliest first by the analysis's
        cell count, which tracks synthesis time (RTL length does not).
        """

        def finish(position: int, run) -> None:
            _record_run(states[position], run)
            if on_result is not None:
                on_result(position, states[position])

        tasks = [
            (
                self.library,
                state.request.design_name,
                state.request.verilog,
                state.script,
                state.request.top,
            )
            for state in states
        ]
        cells = {id(task): state.analysis.num_cells for task, state in zip(tasks, states)}
        parallel_map(
            _synthesize_task,
            tasks,
            jobs=jobs,
            backend=backend,
            label="chatls-synthesize",
            cost=lambda task: cells[id(task)],
            on_result=finish,
        )
        return states

    # -- customization entry points ----------------------------------------------

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
        return self._run(ServeRequest(
            verilog, design_name, baseline_script, requirement, tool_report, top,
            clock_period, seed, evaluate=False,
        ))

    def customize_and_evaluate(
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
        """Customize, then run the script through the synthesis tool."""
        return self._run(ServeRequest(
            verilog, design_name, baseline_script, requirement, tool_report, top,
            clock_period, seed,
        ))

    def _run(self, request: ServeRequest) -> CustomizationResult:
        """One session through every stage it runs, in this thread."""
        with obs.span(
            "chatls.customize", design=request.design_name, mode="single",
            seed=request.seed,
        ):
            state = ChainState(request=request)
            for stage in state.stages():
                getattr(self, stage)([state])
            return state.result()

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
        requirement: str | Requirement,
        k: int = 5,
        tool_report: str = "",
        top: str | None = None,
        clock_period: float = 1.0,
        jobs: int | None = None,
    ) -> CustomizationResult:
        """Pass@k: best executable result over k seeded samples (Table III).

        The design is analyzed and its grounding retrieved once; the k
        seeds' drafts and revisions fan out through the parallel executor
        over copies of that state, then the k scripts synthesize as one
        batch (:func:`synthesize_batch`), so a command prefix several
        drafts share runs once.  The winner is picked in seed order
        (:func:`pass_at_k_winner`), matching the serial sweep exactly.
        """
        with obs.span(
            "chatls.customize", design=design_name, mode="pass_at_k", k=k
        ) as root:
            request = ServeRequest(
                verilog, design_name, baseline_script, requirement, tool_report,
                top, clock_period,
            )
            grounded = self.retrieve(self.analyze([ChainState(request=request)]))[0]
            # Bound once, so the process backend ships the shared state to
            # each worker once per map, not once per seed.
            states = parallel_map(
                partial(_draft_and_revise, self, grounded), range(k),
                jobs=jobs, label="pass-at-k",
            )
            runs = synthesize_batch(
                self.library, design_name, verilog,
                [state.script for state in states], top=top,
            )
            for state, run in zip(states, runs):
                _record_run(state, run)
            best = pass_at_k_winner([state.result() for state in states])
            root.set_attributes(winner_seed=best.seed, executable=best.executable)
            return best


# -- module-level stage tasks (picklable for the process backend) --------------


def _analyze_task(task) -> DesignAnalysis:
    """One session's design analysis."""
    verilog, design_name, top, clock_period, library = task
    return analyze_design(
        verilog, design_name, top=top, clock_period=clock_period, library=library
    )


def _synthesize_task(task):
    """One session's synthesis run."""
    library, design_name, verilog, script, top = task
    return synthesize_cached(library, design_name, verilog, script, top=top)


def _draft_and_revise(chatls: ChatLS, grounded: ChainState, seed: int) -> ChainState:
    """One pass@k seed: draft and revise a copy of the retrieved state.

    The copy shares the analysis and retrieval, which drafting and
    revision only read, so seeds can run side by side.
    """
    request = dataclasses.replace(grounded.request, seed=seed)
    state = dataclasses.replace(grounded, request=request)
    chatls.draft([state])
    chatls.revise([state])
    return state


def _record_run(state: ChainState, run) -> None:
    """Fill in a session's synthesis outcome and complete its chain."""
    state.executable = run.success
    state.error = run.error
    state.qor = run.qor
    state.advance()


def pass_at_k_winner(runs: list):
    """The pass@k winner: the first best executable run, or else the first run.

    ``runs`` are in seed order and each has ``executable`` and ``qor``;
    "best" is :func:`_better_timing`, so of equally good runs the earliest
    seed wins.
    """
    best = None
    for run in runs:
        if run.executable and run.qor is not None:
            if best is None or _better_timing(run.qor, best.qor):
                best = run
    return best if best is not None else runs[0]


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
