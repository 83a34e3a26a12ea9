"""Graph container for the GNN framework."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["GraphData"]


@dataclass
class GraphData:
    """A homogeneous graph for GNN consumption.

    Attributes:
        features: node feature matrix, shape (num_nodes, feat_dim).
        edges: list of (src, dst) index pairs, treated as undirected.
        label: optional class/family label (used by metric learning).
        meta: free-form metadata (module name, design name, ...).
    """

    features: np.ndarray
    edges: list[tuple[int, int]] = field(default_factory=list)
    label: int | None = None
    meta: dict = field(default_factory=dict)

    @property
    def num_nodes(self) -> int:
        return int(self.features.shape[0])

    def validate(self) -> None:
        n = self.num_nodes
        for src, dst in self.edges:
            if not (0 <= src < n and 0 <= dst < n):
                raise ValueError(f"edge ({src}, {dst}) out of range for {n} nodes")
