"""Finite connected graphs, their shortest-path metric, balls and geodesics.

Vertices are dense 0-based integer ids.  All distances are exact
nonnegative integers computed by breadth-first search; nothing here is
approximate.  External labels (grid coordinates, arc positions, ...) are the
caller's business.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np


class InputError(ValueError):
    """Bad input from outside the program; the CLI reports it with exit 2."""


class GraphError(InputError):
    pass


class InvariantError(RuntimeError):
    """A runtime invariant failed: a fault in coarsegraph, not in its input."""


class SelfLoop(GraphError):
    """An edge (v, v) was supplied."""


class DisconnectedGraph(GraphError):
    """The edge list does not describe a connected graph."""

    def __init__(self, components):
        self.components = [sorted(c) for c in components]
        preview = ", ".join(str(c[:8]) for c in self.components[:4])
        super().__init__(
            f"graph is disconnected: {len(self.components)} components ({preview}...)"
        )


def tokenize(text: str):
    """(line number, fields) for each line of ``text`` that has fields.

    The lexical rule of every line format: ``#`` starts a comment to the end
    of the line, and fields are separated by whitespace.
    """
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if fields:
            yield lineno, fields


def field_error(text: str, lineno: int, fields, parsers, message: str) -> InputError:
    """InputError 'line L, column C: message' for a line that failed to parse.

    C is the column of the first field its parser in ``parsers`` rejects, or
    of the first field; only this error path ever works out a column.
    """
    for index, (parse, field) in enumerate(zip(parsers, fields)):
        try:
            parse(field)
        except (ValueError, ZeroDivisionError):
            break
    else:
        index = 0
    line = text.splitlines()[lineno - 1]
    column = [m.start() for m in re.finditer(r"\S+", line)][index] + 1
    return InputError(f"line {lineno}, column {column}: {message}")


class Graph:
    """Simple undirected connected graph with sorted adjacency lists."""

    __slots__ = ("vertex_count", "adjacency", "duplicate_edges")

    def __init__(self, vertex_count: int, adjacency, duplicate_edges: int = 0):
        self.vertex_count = vertex_count
        self.adjacency = tuple(tuple(sorted(nbrs)) for nbrs in adjacency)
        self.duplicate_edges = duplicate_edges

    def closed_neighborhood(self, v: int) -> tuple[int, ...]:
        return tuple(sorted((v, *self.adjacency[v])))

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def edge_list(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.vertex_count) for v in self.adjacency[u] if u < v]

    def __repr__(self):
        return f"Graph(n={self.vertex_count}, m={len(self.edge_list())})"


def _bfs(adj, order: list[int], dist: list[int]) -> list[int]:
    """Breadth-first search from the vertices in ``order``, in place.

    ``dist`` holds 0 at the sources and -1 at every unvisited vertex; each
    vertex reached gets its layer and is appended to ``order``, which is
    read while it grows and returned as the visit order.
    """
    for x in order:
        dx = dist[x] + 1
        for w in adj[x]:
            if dist[w] < 0:
                dist[w] = dx
                order.append(w)
    return order


def _components(n: int, adj) -> list[list[int]]:
    dist = [-1] * n
    out = []
    for s in range(n):
        if dist[s] < 0:
            dist[s] = 0
            out.append(_bfs(adj, [s], dist))
    return out


def build_graph(edge_list, vertex_count: int | None = None) -> Graph:
    """Build a Graph from an iterable of unordered vertex-id pairs.

    Self-loops are rejected, duplicate edges are dropped (counted on the
    returned graph), and disconnected inputs raise DisconnectedGraph naming
    the components.  ``vertex_count`` defaults to max id + 1 (or 1 for an
    empty edge list, giving the one-vertex graph).
    """
    edges = set()
    dupes = 0
    max_id = -1
    for u, v in edge_list:
        u, v = int(u), int(v)
        if u == v:
            raise SelfLoop(f"self-loop at vertex {u}")
        if u < 0 or v < 0:
            raise GraphError(f"negative vertex id in edge ({u}, {v})")
        key = (u, v) if u < v else (v, u)
        if key in edges:
            dupes += 1
        else:
            edges.add(key)
        max_id = max(max_id, u, v)
    if vertex_count is None and max_id > len(edges):  # m edges connect at most m + 1 ids
        raise GraphError(f"graph is disconnected: {len(edges)} edge(s) cannot connect 0..{max_id}")
    n = vertex_count if vertex_count is not None else max(max_id + 1, 1)
    if max_id >= n:
        raise GraphError(f"vertex id {max_id} out of range 0..{n - 1}")
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    comps = _components(n, adj)
    if len(comps) > 1:
        raise DisconnectedGraph(comps)
    return Graph(n, adj, duplicate_edges=dupes)


class PathMetric:
    """Shortest-path distance oracle for a Graph.

    Distance rows are materialized lazily, one BFS per queried source, and
    memoized.  A dense all-pairs matrix is built on demand for graphs with
    at most ``dense_cap`` vertices; larger graphs stay row-based.  Once the
    matrix exists, a row is read from it, so no distance is computed twice.
    """

    def __init__(self, graph: Graph, dense_cap: int = 4096):
        self.graph = graph
        self.dense_cap = dense_cap
        self._rows: dict[int, list[int]] = {}
        self._dense = None
        self._diameter = None

    def row(self, u: int) -> list[int]:
        cached = self._rows.get(u)
        if cached is not None:
            return cached
        dist = self._bfs_row(u) if self._dense is None else self._dense[u].tolist()
        self._rows[u] = dist
        return dist

    def _bfs_row(self, u: int) -> list[int]:
        dist = [-1] * self.graph.vertex_count
        dist[u] = 0
        _bfs(self.graph.adjacency, [u], dist)
        return dist

    def distance(self, u: int, v: int) -> int:
        return self.row(u)[v]

    def ball(self, v: int, radius: int) -> set[int]:
        row = self.row(v)
        return {u for u, d in enumerate(row) if d <= radius}

    def diameter(self) -> int:
        if self._diameter is None:
            self._diameter = max(max(self.row(v)) for v in range(self.graph.vertex_count))
        return self._diameter

    def dense_matrix(self):
        """All-pairs distance matrix as int32 ndarray, or None above the cap."""
        if self.graph.vertex_count > self.dense_cap:
            return None
        if self._dense is None:
            n = self.graph.vertex_count
            mat = np.empty((n, n), dtype=np.int32)
            for v in range(n):  # each row straight into the matrix, not the memo
                cached = self._rows.get(v)
                mat[v] = cached if cached is not None else self._bfs_row(v)
            self._dense = mat
        return self._dense

    def distance_block(self, sources, targets) -> np.ndarray:
        """int64 array of d(s, t): one row per source, one column per target.

        Reads the dense matrix when it is already built; otherwise the
        sources' memoized BFS rows.
        """
        if self._dense is not None:
            return self._dense[np.ix_(sources, targets)].astype(np.int64)
        rows = np.array([self.row(s) for s in sources], dtype=np.int64)
        return rows[:, targets]

    def distances_from_set(self, sources) -> list[int]:
        """Multi-source BFS: distance from each vertex to the nearest source."""
        order = sorted(set(sources))
        if not order:
            raise ValueError("empty source set")
        dist = [-1] * self.graph.vertex_count
        for s in order:
            dist[s] = 0
        _bfs(self.graph.adjacency, order, dist)
        return dist


@dataclass(frozen=True)
class GeodesicPath:
    """Vertex sequence v0..vm with consecutive edges and d(v0, vm) = m."""

    vertices: tuple[int, ...]

    def validate(self, m: PathMetric) -> None:
        vs = self.vertices
        for a, b in zip(vs, vs[1:]):
            if b not in m.graph.adjacency[a]:
                raise ValueError(f"non-adjacent step ({a}, {b})")
        if m.distance(vs[0], vs[-1]) != len(vs) - 1:
            raise ValueError("sequence is not distance-realizing")


def geodesic_between(m: PathMetric, u: int, v: int) -> GeodesicPath:
    """Deterministic geodesic from u to v.

    The path is reconstructed backward from v, always stepping to the
    smallest-id neighbor one BFS layer closer to u.
    """
    row = m.row(u)
    if row[v] < 0:
        raise GraphError(f"no path between {u} and {v}")
    path = [v]
    cur = v
    while cur != u:
        target = row[cur] - 1
        for w in m.graph.adjacency[cur]:  # ascending ids
            if row[w] == target:
                cur = w
                break
        path.append(cur)
    path.reverse()
    return GeodesicPath(tuple(path))
