"""Experiment harness: regenerates every table and figure of the paper.

Each ``run_*`` function returns structured rows/series plus a rendered
text artifact; the ``benchmarks/`` suite calls these and asserts the
paper's qualitative shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .. import obs
from ..core.baseline_runner import BaselineRunner
from ..core.chatls import ChatLS
from ..designs.chipyard import generate_corpus, generate_family_variant
from ..designs.database import ExpertDatabase, build_default_database
from ..designs.opencores import Benchmark, benchmark_names, get_benchmark
from ..llm.baselines import claude35, gpt4o
from ..mentor.circuit_graph import build_circuit_graph
from ..rag.retrievers import EmbeddingRetriever, ManualRetriever
from ..hdl import elaborate
from ..synth import (
    Constraints,
    PassContext,
    explore_sizing,
    get_wireload,
    map_to_library,
    nangate45,
    size_gates,
)
from ..synth.cache import synthesize_cached
from ..synth.reports import QoRSnapshot, snapshot
from .metrics import RetrievalScore, mean_f1, precision_recall_f1
from ..parallel import parallel_map
from .tables import render_series, render_table

__all__ = [
    "baseline_script",
    "run_table4_baseline",
    "run_table3_customization",
    "run_fig5_synthrag",
    "run_fig4_metric_learning",
    "run_explore_qor",
    "ExploreQoRResult",
    "TIMING_REQUIREMENT",
]

TIMING_REQUIREMENT = (
    "Optimize the synthesis script for timing: eliminate negative slack "
    "while keeping the clock period fixed."
)


def baseline_script(bench: Benchmark, wireload: str = "5K_heavy_1k") -> str:
    """The adapted-OpenROAD baseline script for one benchmark (Table IV)."""
    return "\n".join(
        [
            f"read_verilog {bench.name}",
            f"current_design {bench.name}",
            "link",
            f"set_wire_load_model -name {wireload}",
            f"create_clock -period {bench.clock_period} clk",
            "compile",
            "report_qor",
        ]
    )


def _design_cost(name: str) -> float:
    """Cheap per-design cost estimate (gate-count proxy) for scheduling.

    RTL source size tracks elaborated gate count closely across the
    OpenCores set and costs nothing to compute; the process pool only
    uses it to dispatch the costliest designs first, so precision does
    not affect results.
    """
    return float(len(get_benchmark(name).verilog))


# -- Table IV -----------------------------------------------------------------


@dataclass
class Table4Result:
    rows: dict[str, QoRSnapshot] = field(default_factory=dict)
    reports: dict[str, str] = field(default_factory=dict)

    def render(self) -> str:
        table_rows = [
            [name, q.wns, q.cps, q.tns, q.area]
            for name, q in self.rows.items()
        ]
        return render_table(
            ["Design", "WNS", "CPS", "TNS", "Area (um^2)"],
            table_rows,
            title="TABLE IV: Performance Baseline of Various Designs",
        )


def _table4_synthesize(name: str) -> tuple[str, QoRSnapshot, str]:
    """One Table IV cell (module-level so process workers can run it)."""
    bench = get_benchmark(name)
    run = synthesize_cached(
        None, bench.name, bench.verilog, baseline_script(bench), top=bench.top
    )
    if not run.success:
        raise RuntimeError(f"baseline failed for {name}: {run.error}")
    report = next(out for line, out in run.transcript if line == "report_qor")
    return name, run.qor, report


def run_table4_baseline(
    designs: list[str] | None = None, jobs: int | None = None
) -> Table4Result:
    """Synthesize every benchmark with the baseline script.

    Designs are independent, so they run through the parallel executor
    (``jobs=None`` honours ``REPRO_JOBS``, ``REPRO_PARALLEL_BACKEND``
    picks threads or the warm process pool); identical re-runs are
    served from the synthesis cache.
    """
    obs.ensure_metrics_server()
    names = list(designs or benchmark_names())
    result = Table4Result()
    with obs.span("eval.table4", designs=len(names)):
        for name, qor, report in parallel_map(
            _table4_synthesize, names, jobs=jobs, label="table4",
            cost=_design_cost,
        ):
            result.rows[name] = qor
            result.reports[name] = report
    obs.record_run(
        "table4",
        qor={f"baseline/{name}": q for name, q in result.rows.items()},
        extra={"designs": names, "jobs": jobs},
    )
    return result


# -- Table III ------------------------------------------------------------------


@dataclass
class Table3Result:
    baseline: dict[str, QoRSnapshot] = field(default_factory=dict)
    models: dict[str, dict[str, QoRSnapshot | None]] = field(default_factory=dict)

    def render(self) -> str:
        model_names = list(self.models)
        headers = ["Design"] + [
            f"{m}:{col}" for m in model_names for col in ("WNS", "CPS", "TNS", "Area")
        ]
        rows = []
        for design in self.baseline:
            row: list = [design]
            for model in model_names:
                q = self.models[model].get(design)
                if q is None:
                    row += ["FAIL"] * 4
                else:
                    row += [q.wns, q.cps, q.tns, q.area]
            rows.append(row)
        return render_table(
            headers, rows,
            title="TABLE III: Performance Comparison for Script Customization (Pass@5)",
        )


#: Table III model columns in render order.
_TABLE3_MODELS = ("GPT-4o", "Claude-3.5", "ChatLS")


def _table3_cell(
    runtime: dict, reports: dict[str, str], k: int, task: tuple[str, str]
) -> QoRSnapshot | None:
    """One (model, design) Table III cell (module-level, process-safe).

    ``runtime`` (the ChatLS pipeline and the baseline runners) and the
    Table IV report map are bound once per map with
    :func:`functools.partial`, so a process worker unpickles them once
    per map rather than once per cell.
    """
    model_name, design = task
    with obs.span("eval.cell", model=model_name, design=design) as sp:
        bench = get_benchmark(design)
        script = baseline_script(bench)
        report = reports[design]
        if model_name == "ChatLS":
            run = runtime["chatls"].customize_pass_at_k(
                bench.verilog, bench.name, script, TIMING_REQUIREMENT,
                k=k, tool_report=report, top=bench.top,
                clock_period=bench.clock_period,
            )
        else:
            run = runtime["runners"][model_name].run_pass_at_k(
                bench.verilog, bench.name, script, TIMING_REQUIREMENT,
                k=k, tool_report=report, top=bench.top,
            )
        sp.set_attribute("executable", run.qor is not None)
        return run.qor


def _table3_cost(task: tuple) -> float:
    """Cell cost estimate: design size, weighted up for the full pipeline."""
    model_name, design = task
    return _design_cost(design) * (2.0 if model_name == "ChatLS" else 1.0)


def run_table3_customization(
    database: ExpertDatabase | None = None,
    designs: list[str] | None = None,
    k: int = 5,
    baseline: Table4Result | None = None,
    jobs: int | None = None,
) -> Table3Result:
    """The full Table III comparison: GPT-4o vs Claude 3.5 vs ChatLS.

    Callers that already ran Table IV pass it via ``baseline`` so its
    netlists/reports are reused instead of re-synthesizing every design a
    second time.  The (design, model) cells are independent and fan out
    through the parallel executor; results are assembled in deterministic
    design/model order regardless of completion order, and are bit-
    identical across the thread and process backends.
    """
    obs.ensure_metrics_server()
    database = database or build_default_database(variants_per_family=1)
    names = list(designs or benchmark_names())
    table4 = baseline or run_table4_baseline(names, jobs=jobs)
    missing = [n for n in names if n not in table4.reports]
    if missing:
        raise ValueError(f"baseline result lacks designs: {missing}")
    result = Table3Result(baseline={n: table4.rows[n] for n in names})
    model_names = list(_TABLE3_MODELS)
    result.models = {name: {} for name in model_names}

    runtime = {
        "chatls": ChatLS(database),
        "runners": {
            "GPT-4o": BaselineRunner(gpt4o()),
            "Claude-3.5": BaselineRunner(claude35()),
        },
    }
    tasks = [(model, design) for design in names for model in model_names]
    with obs.span("eval.table3", designs=len(names), models=len(model_names), k=k):
        for (model, design), qor in zip(
            tasks,
            parallel_map(
                partial(_table3_cell, runtime, table4.reports, k), tasks,
                jobs=jobs, label="table3", cost=_table3_cost,
            ),
        ):
            result.models[model][design] = qor
    qor = {f"baseline/{n}": q for n, q in result.baseline.items()}
    for model, cells in result.models.items():
        qor.update({f"{model}/{n}": q for n, q in cells.items()})
    obs.record_run(
        "table3",
        qor=qor,
        extra={"designs": names, "models": model_names, "k": k, "jobs": jobs},
    )
    return result


# -- Explore QoR vs trial budget ---------------------------------------------


@dataclass
class ExploreQoRResult:
    """QoR-vs-trial-budget curves for the design-space explorer.

    ``greedy`` holds the reference point (compile-style greedy sizing);
    ``curves[design][budget]`` the QoR after ``explore_sizing`` with that
    per-chain trial budget on top of the same greedy starting point.
    """

    greedy: dict[str, QoRSnapshot] = field(default_factory=dict)
    curves: dict[str, dict[int, QoRSnapshot]] = field(default_factory=dict)

    def render(self) -> str:
        budgets = sorted({b for curve in self.curves.values() for b in curve})
        headers = ["Design", "greedy WNS", "greedy Area"] + [
            f"@{b}:{col}" for b in budgets for col in ("WNS", "Area")
        ]
        rows = []
        for design, ref in self.greedy.items():
            row: list = [design, ref.wns, ref.area]
            for budget in budgets:
                q = self.curves.get(design, {}).get(budget)
                row += ["-", "-"] if q is None else [q.wns, q.area]
            rows.append(row)
        return render_table(
            headers, rows, title="Explore: QoR vs per-chain trial budget"
        )


def _explore_qor_design(
    task: tuple[str, tuple[int, ...], int, int],
) -> tuple[str, QoRSnapshot, dict[int, QoRSnapshot]]:
    """One design's QoR-vs-budget curve (module-level, process-safe).

    Synthesizes the greedy reference once, then re-runs ``explore_sizing``
    from a clone of that state at each budget.  Chains run serially inside
    the task (``jobs=1``) so design-level fan-out composes with the
    process backend without nested pools; the reduction is deterministic
    per seed either way.
    """
    name, budgets, seed, chains = task
    bench = get_benchmark(name)
    library = nangate45()
    wireload = get_wireload("5K_heavy_1k")
    constraints = Constraints(clock_period=bench.clock_period)
    with obs.span("eval.explore_design", design=name, budgets=len(budgets)):
        netlist = elaborate(bench.verilog, top=bench.top)
        map_to_library(netlist, library)
        context = PassContext(netlist, library, wireload, constraints)
        size_gates(netlist, library, wireload, constraints, context=context)
        greedy = snapshot(name, context.engine, context.engine.analyze())
        curve: dict[int, QoRSnapshot] = {}
        for budget in budgets:
            trial = netlist.clone()
            trial_ctx = PassContext(trial, library, wireload, constraints)
            explore_sizing(
                trial, library, wireload, constraints,
                budget=budget, seed=seed, chains=chains, jobs=1,
                context=trial_ctx,
            )
            curve[budget] = snapshot(
                name, trial_ctx.engine, trial_ctx.engine.analyze()
            )
    return name, greedy, curve


def run_explore_qor(
    designs: list[str] | None = None,
    budgets: tuple[int, ...] = (30, 120, 240),
    seed: int = 0,
    chains: int = 2,
    jobs: int | None = None,
) -> ExploreQoRResult:
    """QoR-vs-trial-budget curves for the statistical explorer.

    Each design starts from the same greedy ``size_gates`` reference and
    runs ``explore_sizing`` at every budget in ``budgets``; designs fan
    out through the parallel executor.  The run is recorded in the ledger
    under label ``explore`` with ``greedy/<design>`` and
    ``explore@<budget>/<design>`` QoR keys, so ledger diffs catch both
    reference and explorer regressions.
    """
    obs.ensure_metrics_server()
    names = list(designs or benchmark_names())
    result = ExploreQoRResult()
    tasks = [(name, tuple(budgets), seed, chains) for name in names]
    with obs.span("eval.explore", designs=len(names), budgets=len(budgets)):
        for name, greedy, curve in parallel_map(
            _explore_qor_design, tasks, jobs=jobs, label="explore",
            cost=lambda task: _design_cost(task[0]) * (1 + len(task[1])),
        ):
            result.greedy[name] = greedy
            result.curves[name] = curve
    qor: dict[str, QoRSnapshot] = {
        f"greedy/{name}": q for name, q in result.greedy.items()
    }
    for name, curve in result.curves.items():
        qor.update({f"explore@{b}/{name}": q for b, q in curve.items()})
    obs.record_run(
        "explore",
        qor=qor,
        extra={
            "designs": names, "budgets": list(budgets), "seed": seed,
            "chains": chains, "jobs": jobs,
        },
    )
    return result


# -- Fig. 5 -----------------------------------------------------------------------


@dataclass
class Fig5Result:
    series: dict[str, list[tuple[int, float]]] = field(default_factory=dict)

    def render(self) -> str:
        return "\n\n".join(
            render_series(name, points) for name, points in self.series.items()
        )

    def f1(self, series: str, k: int) -> float:
        for point_k, value in self.series[series]:
            if point_k == k:
                return value
        raise KeyError(f"no k={k} in series {series}")


def _trained_database(
    variants_per_family: int = 2,
    epochs: int = 30,
    strategies: list[str] | None = None,
) -> ExpertDatabase:
    """Database whose encoder was metric-learning trained on the corpus.

    Training on labelled module graphs tightens family clusters (Fig. 4),
    which is what makes embedding retrieval's F1 high in Fig. 5.
    """
    from ..mentor.embeddings import CircuitEncoder
    from ..mentor.metric_learning import MetricTrainer

    corpus = generate_corpus(variants_per_family)
    families = sorted({d.family for d in corpus})
    label_of = {f: i for i, f in enumerate(families)}
    graphs, labels = [], []
    for design in corpus:
        circuit = build_circuit_graph(design.verilog, design.name, top=design.top)
        for graph in circuit.module_graphs.values():
            graphs.append(graph)
            labels.append(label_of[design.family])
    encoder = CircuitEncoder(seed=0)
    MetricTrainer(encoder, loss="contrastive", seed=0).train(
        graphs, labels, epochs=epochs
    )
    db = ExpertDatabase(encoder)
    strategies = strategies or ["baseline_compile", "high_effort", "ultra_retime"]
    for design in corpus:
        db.add_design(design, strategies=strategies)
    return db


def run_fig5_synthrag(
    database: ExpertDatabase | None = None,
    query_variants: tuple[int, ...] = (7, 8),
    ks: tuple[int, ...] = (1, 2, 3),
) -> Fig5Result:
    """SynthRAG retrieval F1 over held-out Chipyard-like variants.

    Queries are *new* variants of each family (never in the database);
    a retrieved design is relevant iff it belongs to the query's family.
    Series: design-level retrieval with and without the domain reranker
    (Eq. 5), plus module-level retrieval and manual retrieval.
    """
    obs.ensure_metrics_server()
    with obs.span("eval.fig5", ks=list(ks)):
        result = _run_fig5_synthrag(database, query_variants, ks)
    obs.record_run("fig5", extra={"ks": list(ks), "series": sorted(result.series)})
    return result


def _run_fig5_synthrag(
    database: ExpertDatabase | None,
    query_variants: tuple[int, ...],
    ks: tuple[int, ...],
) -> Fig5Result:
    database = database or _trained_database(variants_per_family=2)
    encoder = database.encoder
    retriever = EmbeddingRetriever(database)
    families = database.families()

    design_scores: dict[tuple[str, int], list[RetrievalScore]] = {}
    result = Fig5Result()
    for mode in ("reranked", "similarity_only"):
        for k in ks:
            scores = []
            for family in families:
                for variant in query_variants:
                    query = generate_family_variant(family, variant)
                    circuit = build_circuit_graph(query.verilog, query.name, top=query.top)
                    embedding = encoder.embed_design(circuit)
                    hits = retriever.retrieve_designs(
                        embedding, k=k, rerank=mode == "reranked"
                    )
                    retrieved = [h.key for h in hits]
                    scores.append(
                        precision_recall_f1(retrieved, families[family], k=k)
                    )
            result.series.setdefault(f"design_{mode}", []).append((k, mean_f1(scores)))
    # Module-level retrieval: query with a module embedding; relevant =
    # modules of same-family designs.
    for k in ks:
        scores = []
        for family in families:
            relevant_modules = [
                key
                for entry_name in families[family]
                for key in (
                    (entry_name, mod)
                    for mod in database.entries[entry_name].module_embeddings
                )
            ]
            for variant in query_variants:
                query = generate_family_variant(family, variant)
                circuit = build_circuit_graph(query.verilog, query.name, top=query.top)
                module_embeddings = encoder.embed_modules(circuit)
                # The top module (last in source order) carries the
                # family-distinctive structure; leaf blocks like register
                # files are legitimately shared across families.
                top_embedding = list(module_embeddings.values())[-1]
                hits = retriever.retrieve_modules(top_embedding, k=k)
                scores.append(
                    precision_recall_f1([h.key for h in hits], relevant_modules, k=k)
                )
        result.series.setdefault("module_reranked", []).append((k, mean_f1(scores)))
    # Manual retrieval F1 (command pages for intent queries).
    manual = ManualRetriever()
    manual_queries = {
        "insert buffers to fix a high fanout net": {"balance_buffer", "set_max_fanout"},
        "retime registers to balance pipeline stages": {"optimize_registers", "compile_ultra"},
        "minimize area when timing is met": {"set_max_area", "compile"},
        "flatten hierarchy before optimization": {"ungroup", "set_flatten"},
    }
    for k in ks:
        scores = []
        for query, relevant in manual_queries.items():
            hits = manual.retrieve(query, k=k)
            scores.append(precision_recall_f1([h.command for h in hits], relevant, k=k))
        result.series.setdefault("manual", []).append((k, mean_f1(scores)))
    return result


# -- Fig. 4 ------------------------------------------------------------------------


@dataclass
class Fig4Result:
    before: dict
    after: dict
    losses: list[float]

    def render(self) -> str:
        return "\n".join(
            [
                "FIG 4: Metric learning embedding evolution",
                f"  before: intra={self.before['intra_mean']:.3f} "
                f"inter={self.before['inter_mean']:.3f} ratio={self.before['ratio']:.3f}",
                f"  after:  intra={self.after['intra_mean']:.3f} "
                f"inter={self.after['inter_mean']:.3f} ratio={self.after['ratio']:.3f}",
                f"  final loss: {self.losses[-1]:.4f}",
            ]
        )


def run_fig4_metric_learning(
    variants_per_family: int = 3,
    epochs: int = 40,
    loss: str = "contrastive",
    seed: int = 0,
) -> Fig4Result:
    """Train the encoder with metric learning; measure cluster formation."""
    from ..mentor.embeddings import CircuitEncoder
    from ..mentor.metric_learning import MetricTrainer, clustering_quality

    obs.ensure_metrics_server()
    with obs.span("eval.fig4", epochs=epochs, loss=loss):
        corpus = generate_corpus(variants_per_family)
        families = sorted({d.family for d in corpus})
        label_of = {f: i for i, f in enumerate(families)}
        graphs, labels = [], []
        for design in corpus:
            circuit = build_circuit_graph(design.verilog, design.name, top=design.top)
            graphs.append(circuit.design_graph())
            labels.append(label_of[design.family])

        encoder = CircuitEncoder(seed=seed)
        embeddings0 = encoder.model.embed_graphs(graphs)
        before = clustering_quality(_normalize_rows(embeddings0), np.array(labels))
        trainer = MetricTrainer(encoder, loss=loss, seed=seed)
        stats = trainer.train(graphs, labels, epochs=epochs)
        embeddings1 = encoder.model.embed_graphs(graphs)
        after = clustering_quality(_normalize_rows(embeddings1), np.array(labels))
        result = Fig4Result(before=before, after=after, losses=stats.losses)
    obs.record_run(
        "fig4", extra={"epochs": epochs, "loss": loss, "ratio": after["ratio"]}
    )
    return result


def _normalize_rows(matrix: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return matrix / norms
