"""Finite connected graphs, their shortest-path metric, balls and geodesics.

Vertices are dense 0-based integer ids.  All distances are exact
nonnegative integers computed by breadth-first search; nothing here is
approximate.  External labels (grid coordinates, arc positions, ...) are the
caller's business.
"""
from __future__ import annotations

import re
from typing import NamedTuple

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


def refused(field: str):
    """The parser, for ``field_error``, of the field a check refused: it rejects every field."""
    raise ValueError(field)


class Graph:
    """Simple undirected connected graph with sorted adjacency lists."""

    __slots__ = ("vertex_count", "adjacency", "duplicate_edges")

    def __init__(self, vertex_count: int, adjacency, duplicate_edges: int = 0):
        self.vertex_count = vertex_count
        self.adjacency = tuple(tuple(sorted(nbrs)) for nbrs in adjacency)
        self.duplicate_edges = duplicate_edges

    def closed_neighborhood(self, v: int) -> tuple[int, ...]:
        return tuple(sorted((v, *self.adjacency[v])))

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


def _labelled_bfs(adj, order: list[int], dist: list[int], label: list[int]) -> None:
    """``_bfs`` that also hands each vertex the label of its first discoverer.

    With the sources in ``order`` by increasing label, each level is queued
    in nondecreasing label order, so a vertex first reached at level L + 1
    takes the smallest label among its neighbours at level L.
    """
    for x in order:
        dx = dist[x] + 1
        lx = label[x]
        for w in adj[x]:
            if dist[w] < 0:
                dist[w] = dx
                label[w] = lx
                order.append(w)


# B: a batched BFS chunk takes k = B // (n * width) sources (at least one), so
# a level expands at most max(B, n * width) table entries
BATCH_ENTRIES = 1 << 22
# below this many vertices the fixed numpy cost of a level exceeds a row BFS
BATCH_MIN_VERTICES = 128


def neighborhood_table(g: Graph, vertices) -> np.ndarray:
    """Sorted closed neighbourhoods N[v] of ``vertices``, one int64 row each.

    Rows are padded to a common width by repeating their last entry.
    """
    rows = [g.closed_neighborhood(v) for v in vertices]
    width = max(map(len, rows))
    return np.array([row + row[-1:] * (width - len(row)) for row in rows], dtype=np.int64)


def _batched_bfs(flat: np.ndarray, table: np.ndarray, sources: np.ndarray, rows: np.ndarray) -> None:
    """Distance rows of ``sources`` written into a flat int32 buffer of n-wide rows.

    Multi-source BFS (Then et al., VLDB 2014): one level loop serves a chunk
    of k sources at once; row ``rows[i]`` of ``flat`` gets the distances
    from ``sources[i]``.  Keys are flat indices row*n + v, and those rows
    hold -1 on entry.  Each level expands its frontier through the
    closed-neighbourhood ``table`` and keeps the keys still at -1; a padded
    slot or v itself is always visited already.  The kept keys are
    deduplicated by writing distinct negative marks at them and keeping the
    keys that read their own mark back.  A level expands at most k*n*width
    entries, which is at most max(BATCH_ENTRIES, n*width), and allocates no
    more than 32 bytes per entry it expands.
    """
    n, width = table.shape
    k = max(1, min(n, BATCH_ENTRIES // (n * width)))
    for c in range(0, len(sources), k):
        keys = rows[c : c + k] * n + sources[c : c + k]
        flat[keys] = 0
        level = 0
        while keys.size:
            level += 1
            verts = keys % n
            cand = table.take(verts, axis=0)
            cand += (keys - verts)[:, None]
            cand = cand.ravel()
            cand = cand[flat.take(cand) == -1]
            marks = np.arange(-2, -2 - cand.size, -1, dtype=np.int32)
            flat[cand] = marks
            keys = cand[flat.take(cand) == marks]
            flat[keys] = level


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


class ChainProfile(NamedTuple):
    """A chain z_0 .. z_m against every vertex, built once per chain.

    ``near_dist[v]`` is d(v, {z_i}) and ``near_index[v]`` the lowest i with
    d(v, z_i) equal to it.  The claims keep their per-bound outcomes in
    ``tables``, so a new chain drops them with its profile.
    """

    chain: tuple[int, ...]
    max_step: int
    near_dist: list[int]
    near_index: list[int]
    tables: dict


class PathMetric:
    """Shortest-path distance oracle for a Graph.

    Distance rows are materialized lazily, one BFS per queried source, and
    memoized.  The all-pairs matrix, which every all-pairs scan reads, is
    built on demand at any size.  Once it exists, a row is read from it, so
    no distance is computed twice, and a single distance outside the row
    memo is read from the matrix without memoizing a row beside it.
    ``chain_profile`` remembers the last chain it was asked about, so
    callers that check one chain against many probes build its profile
    once; the memo holds 2n + |z| ints, plus the claims' tables: |z| entries
    per bound p + r and one per (p + r, q) asked about.  The padded
    neighbourhood table of every vertex is built once, by ``neighborhoods``.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        self._rows: dict[int, list[int]] = {}
        self._dense = None
        self._diameter = None
        self._table = None
        self._last_chain: ChainProfile | None = None

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
        cached = self._rows.get(u)  # the memo first: the common case of row-only scans
        if cached is not None:
            return cached[v]
        if self._dense is not None:
            return int(self._dense[u, v])
        return self.row(u)[v]

    def chain_profile(self, seq) -> ChainProfile:
        """The ChainProfile of ``seq``, memoized for the last chain asked about.

        One BFS seeded with the chain vertices in index order (a repeated
        vertex keeps its first index) labels every vertex with its nearest
        chain index: a vertex's nearest indices are those of its neighbours
        one level closer.  The steps are read through ``distance``.
        """
        key = tuple(seq)
        last = self._last_chain
        if last is not None and last.chain == key:
            return last
        n = self.graph.vertex_count
        dist, label, order = [-1] * n, [-1] * n, []
        for i, z in enumerate(key):
            if dist[z] < 0:
                dist[z] = 0
                label[z] = i
                order.append(z)
        _labelled_bfs(self.graph.adjacency, order, dist, label)
        step = max(map(self.distance, key, key[1:]), default=0)
        self._last_chain = ChainProfile(key, step, dist, label, {})
        return self._last_chain

    def neighborhoods(self) -> np.ndarray:
        """``neighborhood_table`` of all vertices in id order, memoized."""
        if self._table is None:
            self._table = neighborhood_table(self.graph, range(self.graph.vertex_count))
        return self._table

    def ball(self, v: int, radius: int) -> set[int]:
        row = self.row(v)
        return {u for u, d in enumerate(row) if d <= radius}

    def eccentricities(self):
        """(v, largest distance from v) for each vertex v in id order, from the dense matrix."""
        yield from enumerate(self.dense_matrix().max(axis=1).tolist())

    def diameter(self) -> int:
        if self._diameter is None:
            self._diameter = max(ecc for _, ecc in self.eccentricities())
        return self._diameter

    def _distance_rows(self, sources) -> np.ndarray:
        """int32 distance rows of ``sources``, one per source; none is memoized.

        Memoized rows are copied in.  The others come from ``_batched_bfs``
        when the graph has at least BATCH_MIN_VERTICES vertices and padding
        the neighbourhood table at most doubles a level's work
        (n * width <= 2 * (n + 2m)); otherwise from one deque BFS per row.
        """
        g = self.graph
        n = g.vertex_count
        out = np.full((len(sources), n), -1, dtype=np.int32)
        rows, todo = [], []
        for i, s in enumerate(sources):
            memo = self._rows.get(s)
            if memo is None:
                rows.append(i)
                todo.append(s)
            else:
                out[i] = memo
        degrees = list(map(len, g.adjacency))
        if n >= BATCH_MIN_VERTICES and n * (max(degrees) + 1) <= 2 * (n + sum(degrees)):
            rows, todo = np.array(rows, dtype=np.int64), np.array(todo, dtype=np.int64)
            _batched_bfs(out.reshape(-1), self.neighborhoods(), todo, rows)
        else:
            for i, s in zip(rows, todo):
                out[i] = self._bfs_row(s)
        return out

    def dense_matrix(self) -> np.ndarray:
        """All-pairs distance matrix as an n x n int32 ndarray, 4n^2 bytes.

        The rows of every vertex by ``_distance_rows``: the memo is copied
        in, and the other rows go straight into the matrix, not the memo.
        """
        if self._dense is None:
            self._dense = self._distance_rows(range(self.graph.vertex_count))
        return self._dense

    def distance_block(self, sources, targets) -> np.ndarray:
        """int32 array of d(s, t): one row per source, one column per target.

        Reads the dense matrix when it is already built; otherwise the
        sources' rows by ``_distance_rows``, which memoizes none.
        """
        if self._dense is not None:
            return self._dense[np.ix_(sources, targets)]
        return self._distance_rows(sources)[:, targets]

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


def geodesic_between(m: PathMetric, u: int, v: int) -> tuple[int, ...]:
    """Deterministic geodesic from u to v: the vertices v0 = u .. vm = v.

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
    return tuple(path)
