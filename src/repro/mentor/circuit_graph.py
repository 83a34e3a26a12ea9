"""CircuitMentor's graph construction (paper §IV-A, Fig. 3).

Transforms parsed Verilog into two coupled representations:

1. A **property graph** in :class:`~repro.graphdb.GraphStore` — the Neo4j
   analogue.  Hierarchy: ``(:Design)-[:CONTAINS]->(:Module)`` with each
   module node storing its Verilog source (so SynthRAG's graph-structure
   retrieval can hand path/module code to the LLM), plus
   ``(:Module)-[:INSTANTIATES]->(:Module)`` edges and per-module
   ``(:Module)-[:HAS]->(:Component)`` nodes for assigns/always/instances.

2. Per-module **dataflow graphs** (:class:`~repro.gnn.GraphData`) whose
   nodes are AST components with feature vectors and whose edges follow
   signal def-use chains — the input to the hierarchical GNN.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..gnn import GraphData
from ..graphdb import GraphStore
from ..hdl.ast_nodes import Module, SourceFile
from ..hdl.parser import parse_source
from .features import (
    FEATURE_DIM,
    component_features,
    count_ops,
    expr_signals,
    module_profile,
)

__all__ = ["CircuitGraph", "build_circuit_graph"]


@dataclass
class CircuitGraph:
    """The dual graph representation of one design."""

    design_name: str
    store: GraphStore
    module_graphs: dict[str, GraphData] = field(default_factory=dict)
    profiles: dict[str, object] = field(default_factory=dict)
    top: str | None = None

    def design_graph(self) -> GraphData:
        """A design-level graph: one node per module, edges = instantiation.

        Node features are the mean of the module's component features —
        used when embedding the whole design hierarchically.
        """
        names = list(self.module_graphs)
        feats = []
        for name in names:
            graph = self.module_graphs[name]
            feats.append(graph.features.mean(axis=0))
        edges = []
        index = {name: i for i, name in enumerate(names)}
        for rel in self.store.rels("INSTANTIATES"):
            src = self.store.node(rel.start).properties.get("name")
            dst = self.store.node(rel.end).properties.get("name")
            if src in index and dst in index:
                edges.append((index[src], index[dst]))
        features = np.vstack(feats) if feats else np.zeros((1, FEATURE_DIM))
        return GraphData(features=features, edges=edges, meta={"design": self.design_name})


def _module_dataflow_graph(module: Module) -> GraphData:
    """Build the component-level dataflow graph for one module."""
    nodes: list[np.ndarray] = []
    defines: list[set[str]] = []
    uses: list[set[str]] = []
    kinds: list[str] = []

    def add_node(kind: str, width: int, ops, defs: set[str], reads: set[str], mem_bits: int = 0) -> None:
        nodes.append(component_features(kind, width, ops, mem_bits))
        defines.append(defs)
        uses.append(reads)
        kinds.append(kind)

    from .features import OpCounts

    widths = {}
    for port in module.ports:
        widths[port.name] = 8 if port.range is not None else 1
    for port in module.ports:
        kind = "port_in" if port.direction == "input" else "port_out"
        if port.direction == "input":
            add_node(kind, widths.get(port.name, 1), OpCounts(), {port.name}, set())
        else:
            add_node(kind, widths.get(port.name, 1), OpCounts(), set(), {port.name})
    mem_bits_total = sum(
        64 for net in module.nets if net.array_range is not None
    )
    for assign in module.assigns:
        ops = count_ops(assign.value)
        add_node(
            "assign",
            8,
            ops,
            expr_signals(assign.target),
            expr_signals(assign.value),
        )
    for block in module.always_blocks:
        ops = count_ops(block.body)
        defs: set[str] = set()
        reads: set[str] = set()
        for stmt in block.body:
            _collect_defs_uses(stmt, defs, reads)
        kind = "always_seq" if block.event.is_sequential else "always_comb"
        add_node(kind, 8, ops, defs, reads, mem_bits=mem_bits_total)
    for inst in module.instances:
        defs = set()
        reads = set()
        for conn in inst.connections:
            if conn.expr is not None:
                reads |= expr_signals(conn.expr)
        add_node("instance", 8, OpCounts(), defs, reads)
    if not nodes:
        return GraphData(
            features=np.zeros((1, FEATURE_DIM)), edges=[], meta={"module": module.name}
        )
    edges = []
    for i in range(len(nodes)):
        for j in range(len(nodes)):
            if i != j and defines[i] & uses[j]:
                edges.append((i, j))
    return GraphData(
        features=np.vstack(nodes), edges=edges, meta={"module": module.name}
    )


def _collect_defs_uses(stmt, defs: set[str], reads: set[str]) -> None:
    from ..hdl.ast_nodes import (
        BlockingAssign,
        CaseStatement,
        IfStatement,
        NonBlockingAssign,
        SeqBlock,
    )

    if isinstance(stmt, (BlockingAssign, NonBlockingAssign)):
        defs |= expr_signals(stmt.target)
        reads |= expr_signals(stmt.value)
        return
    if isinstance(stmt, IfStatement):
        reads |= expr_signals(stmt.cond)
        for sub in stmt.then_body + stmt.else_body:
            _collect_defs_uses(sub, defs, reads)
        return
    if isinstance(stmt, CaseStatement):
        reads |= expr_signals(stmt.subject)
        for item in stmt.items:
            for sub in item.body:
                _collect_defs_uses(sub, defs, reads)
        return
    if isinstance(stmt, SeqBlock):
        for sub in stmt.body:
            _collect_defs_uses(sub, defs, reads)


def build_circuit_graph(
    source: SourceFile | str,
    design_name: str,
    top: str | None = None,
    store: GraphStore | None = None,
) -> CircuitGraph:
    """Parse (if needed) and lift a design into its :class:`CircuitGraph`."""
    if isinstance(source, str):
        with obs.span("hdl.parse"):
            source = parse_source(source)
    store = store or GraphStore()
    graph = CircuitGraph(design_name=design_name, store=store, top=top)

    instantiated = {
        inst.module_name for mod in source.modules for inst in mod.instances
    }
    design_node = store.create_node(["Design"], name=design_name, top=top or "")

    module_nodes = {}
    for module in source.modules:
        profile = module_profile(module)
        graph.profiles[module.name] = profile
        node = store.create_node(
            ["Module"],
            name=module.name,
            design=design_name,
            code=module.source_text,
            category=profile.category,
            ports=profile.num_ports,
            instances=profile.num_instances,
            mem_bits=profile.mem_bits,
            is_top=module.name == top or module.name not in instantiated,
        )
        module_nodes[module.name] = node
        store.create_rel(design_node.node_id, "CONTAINS", node.node_id)
        graph.module_graphs[module.name] = _module_dataflow_graph(module)
        for assign in module.assigns:
            comp = store.create_node(["Component"], kind="assign", module=module.name)
            store.create_rel(node.node_id, "HAS", comp.node_id)
        for block in module.always_blocks:
            kind = "always_seq" if block.event.is_sequential else "always_comb"
            comp = store.create_node(["Component"], kind=kind, module=module.name)
            store.create_rel(node.node_id, "HAS", comp.node_id)

    for module in source.modules:
        for inst in module.instances:
            child = module_nodes.get(inst.module_name)
            if child is not None:
                store.create_rel(
                    module_nodes[module.name].node_id,
                    "INSTANTIATES",
                    child.node_id,
                    instance=inst.instance_name,
                )
    return graph
