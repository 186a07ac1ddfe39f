"""Plumbing trees and Tait graphs that only the tests build: a path of
weights, the n-cycle (one loop for n = 1), and the theta graph of parallel
edges between two vertices."""

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
