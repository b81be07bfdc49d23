"""Shared oracles and fixtures.

The oracles here are deliberately independent of the package internals:
Floyd-Warshall and a queue BFS for distances, direct formula evaluation for
the Hausdorff metric, and brute-force enumeration wherever feasible.
"""
from __future__ import annotations

import random
from collections import deque

import networkx as nx
import pytest

from coarsegraph import build_graph
from coarsegraph.selector import selector_from_table

INF = 10**9


def floyd_warshall(n, edges):
    """All-pairs distances by the classic triple loop."""
    dist = [[0 if i == j else INF for j in range(n)] for i in range(n)]
    for u, v in edges:
        dist[u][v] = 1
        dist[v][u] = 1
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == INF:
                continue
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return dist


def bfs_all_pairs(n, edges):
    """All-pairs distances by one queue-based BFS per source.

    Its own loop, not the package's ``_bfs``: the oracle for the all-pairs
    matrix on graphs too large for Floyd-Warshall.
    """
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    out = []
    for s in range(n):
        dist = [-1] * n
        dist[s] = 0
        queue = deque([s])
        while queue:
            x = queue.popleft()
            for w in adj[x]:
                if dist[w] < 0:
                    dist[w] = dist[x] + 1
                    queue.append(w)
        out.append(dist)
    return out


def brute_hausdorff(dist, A, B):
    """Direct evaluation of the two-sided max-min formula."""
    out = 0
    for a in A:
        out = max(out, min(dist[a][b] for b in B))
    for b in B:
        out = max(out, min(dist[b][a] for a in A))
    return out


def exp_contains(m, A, B, radius: int) -> bool:
    """True iff A lies in the radius-ball of B and B in the radius-ball of A.

    The literal double inclusion, independent of hausdorff_distance; the
    two must agree (d_H(A, B) <= radius).
    """
    for a in A:
        row = m.row(a)
        if all(row[b] > radius for b in B):
            return False
    for b in B:
        row = m.row(b)
        if all(row[a] > radius for a in A):
            return False
    return True


def ball(m, v: int, radius: int) -> set[int]:
    """The vertices within ``radius`` of v, from v's memoized row."""
    return {u for u, d in enumerate(m.row(v)) if d <= radius}


def validate_geodesic(m, vs) -> None:
    """Raise ValueError unless v0..vm has consecutive edges and d(v0, vm) = m."""
    for a, b in zip(vs, vs[1:]):
        if b not in m.graph.adjacency[a]:
            raise ValueError(f"non-adjacent step ({a}, {b})")
    if m.distance(vs[0], vs[-1]) != len(vs) - 1:
        raise ValueError("sequence is not distance-realizing")


def degree(graph, v: int) -> int:
    return len(graph.adjacency[v])


def random_tournament(graph, rng: random.Random):
    n = graph.vertex_count
    table = {}
    for a in range(n):
        for b in range(a + 1, n):
            table[(a, b)] = a if rng.random() < 0.5 else b
    return selector_from_table(table)


@pytest.fixture(scope="session")
def atlas_graphs():
    """Connected graphs on 2..6 vertices (one per isomorphism class)."""
    out = []
    for G in nx.graph_atlas_g()[1:209]:
        n = G.number_of_nodes()
        if n < 2 or n > 6:
            continue
        if not nx.is_connected(G):
            continue
        edges = sorted(tuple(sorted(e)) for e in G.edges())
        out.append((n, edges, build_graph(edges, vertex_count=n)))
    assert len(out) == 142
    return out
