"""Plumbing trees and Tait graphs that only the tests build: a path of
weights, the n-cycle (one loop for n = 1), and the theta graph of parallel
edges between two vertices; and the bridges of a graph by deleting each
edge in turn, an oracle for `TaitGraph.bridges`."""

from lenslab.lspacecert import TaitGraph, WeightedTree


def path_tree(weights: list[int]) -> WeightedTree:
    return WeightedTree(
        tuple(weights), tuple((i, i + 1) for i in range(len(weights) - 1))
    )


def cycle_graph(n: int) -> TaitGraph:
    if n == 1:
        return TaitGraph(1, ((0, 0),))
    return TaitGraph(n, tuple((i, (i + 1) % n) for i in range(n)))


def theta_graph(strands: int = 3) -> TaitGraph:
    return TaitGraph(2, tuple((0, 1) for _ in range(strands)))


def bridges_by_deletion(graph: TaitGraph) -> list[int]:
    """The edges whose deletion leaves their two ends apart, each found by a
    union-find over the other edges: one connectivity test per edge."""
    out = []
    for i, (a, b) in enumerate(graph.edges):
        parent = list(range(graph.num_vertices))

        def find(x: int) -> int:
            while parent[x] != x:
                x = parent[x]
            return x

        for j, (u, v) in enumerate(graph.edges):
            if j != i:
                parent[find(u)] = find(v)
        if find(a) != find(b):
            out.append(i)
    return out
