"""Built-in graph families used by tests and the CLI."""
from __future__ import annotations

from .graph_core import Graph, build_graph


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs at least one vertex")
    return build_graph([(i, i + 1) for i in range(n - 1)], vertex_count=n)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    return build_graph([(i, (i + 1) % n) for i in range(n)])


def grid_graph(width: int, height: int) -> Graph:
    """width x height grid with axis edges; (i, j) gets id i * height + j."""
    if width < 1 or height < 1:
        raise ValueError("grid dimensions must be positive")
    edges = []
    for i in range(width):
        for j in range(height):
            v = i * height + j
            if j + 1 < height:
                edges.append((v, v + 1))
            if i + 1 < width:
                edges.append((v, v + height))
    return build_graph(edges, vertex_count=width * height)


def tripod_graph(a: int, b: int, c: int) -> Graph:
    """Center vertex 0 with three pendant arms of the given lengths."""
    if min(a, b, c) < 0:
        raise ValueError("tripod arm lengths must be nonnegative")
    edges = []
    nxt = 1
    for arm in (a, b, c):
        prev = 0
        for _ in range(arm):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return build_graph(edges, vertex_count=nxt)


def comb_graph(spine: int, tooth: int) -> Graph:
    """Path of ``spine`` vertices with a ``tooth``-vertex path hanging off its middle."""
    if spine < 2:
        raise ValueError("comb spine needs at least two vertices")
    if tooth < 0:
        raise ValueError("comb tooth length must be nonnegative")
    edges = [(i, i + 1) for i in range(spine - 1)]
    prev = spine // 2
    for k in range(tooth):
        edges.append((prev, spine + k))
        prev = spine + k
    return build_graph(edges, vertex_count=spine + tooth)
