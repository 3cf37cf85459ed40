"""Dataset container for graph edit distance search."""

from __future__ import annotations

from typing import Sequence

from repro.graphs.columns import GraphColumns
from repro.graphs.graph import Graph


class GraphDataset:
    """A collection of labelled data graphs."""

    def __init__(self, graphs: Sequence[Graph]):
        if not graphs:
            raise ValueError("the dataset needs at least one graph")
        self._graphs = list(graphs)
        self._columns: GraphColumns | None = None

    @property
    def graphs(self) -> list[Graph]:
        return self._graphs

    def graph(self, obj_id: int) -> Graph:
        return self._graphs[obj_id]

    def columns(self) -> GraphColumns:
        """The graphs in encoded form (built lazily, cached on the dataset)."""
        if self._columns is None:
            self._columns = GraphColumns.build(self._graphs)
        return self._columns

    def __len__(self) -> int:
        return len(self._graphs)
