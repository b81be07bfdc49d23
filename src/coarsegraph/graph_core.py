"""Finite connected graphs, their shortest-path metric, balls and geodesics.

Vertices are dense 0-based integer ids.  All distances are exact
nonnegative integers computed by breadth-first search; nothing here is
approximate.  External labels (grid coordinates, arc positions, ...) are the
caller's business.
"""
from __future__ import annotations

import re

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


def _batched_bfs(flat: np.ndarray, table: np.ndarray, sources: np.ndarray) -> None:
    """Distance rows of ``sources`` written into a flat n*n int32 matrix.

    Multi-source BFS (Then et al., VLDB 2014): one level loop serves a chunk
    of k sources at once.  Keys are flat indices s*n + v, and the rows of
    ``sources`` hold -1 on entry.  Each level expands its frontier through
    the closed-neighbourhood ``table`` and keeps the keys still at -1; a
    padded slot or v itself is always visited already.  The kept keys are
    deduplicated by writing distinct negative marks at them and keeping the
    keys that read their own mark back.  A level expands at most k*n*width
    entries, which is at most max(BATCH_ENTRIES, n*width), and allocates no
    more than 32 bytes per entry it expands.
    """
    n, width = table.shape
    k = max(1, min(n, BATCH_ENTRIES // (n * width)))
    for c in range(0, len(sources), k):
        keys = sources[c : c + k] * (n + 1)  # the diagonal entries s*n + s
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


class PathMetric:
    """Shortest-path distance oracle for a Graph.

    Distance rows are materialized lazily, one BFS per queried source, and
    memoized.  A dense all-pairs matrix is built on demand for graphs with
    at most ``dense_cap`` vertices; larger graphs stay row-based.  Once the
    matrix exists, a row is read from it, so no distance is computed twice,
    and a single distance outside the row memo is read from the matrix
    without memoizing a row beside it.  ``max_step`` remembers the last
    sequence it was asked about, so callers that check one chain against
    many probes read its steps once.
    """

    def __init__(self, graph: Graph, dense_cap: int = 4096):
        self.graph = graph
        self.dense_cap = dense_cap
        self._rows: dict[int, list[int]] = {}
        self._dense = None
        self._diameter = None
        self._last_steps: tuple[tuple[int, ...], int] | None = None

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

    def max_step(self, seq) -> int:
        """Largest d(z_i, z_{i+1}) along ``seq``, or 0 for fewer than two vertices.

        One entry is memoized: the last sequence asked about and its answer,
        replaced by the next different sequence.
        """
        key = tuple(seq)
        last = self._last_steps
        if last is not None and last[0] == key:
            return last[1]
        step = max(map(self.distance, key, key[1:]), default=0)
        self._last_steps = (key, step)
        return step

    def ball(self, v: int, radius: int) -> set[int]:
        row = self.row(v)
        return {u for u, d in enumerate(row) if d <= radius}

    def eccentricities(self):
        """(v, largest distance from v) for each vertex v in id order.

        Reads the dense matrix when it is already built, so no row list is
        memoized beside it; otherwise each vertex's row, one at a time.
        """
        if self._dense is not None:
            yield from enumerate(self._dense.max(axis=1).tolist())
        else:
            for v in range(self.graph.vertex_count):
                yield v, max(self.row(v))

    def diameter(self) -> int:
        if self._diameter is None:
            self._diameter = max(ecc for _, ecc in self.eccentricities())
        return self._diameter

    def dense_matrix(self):
        """All-pairs distance matrix as int32 ndarray, or None above the cap.

        Memoized rows are copied in; the other rows go straight into the
        matrix, not the memo.  They come from ``_batched_bfs`` when the graph
        has at least BATCH_MIN_VERTICES vertices and padding the
        neighbourhood table at most doubles a level's work (n * width <=
        2 * (n + 2m)); otherwise from one deque BFS per row.
        """
        g = self.graph
        if g.vertex_count > self.dense_cap:
            return None
        if self._dense is None:
            n = g.vertex_count
            mat = np.full((n, n), -1, dtype=np.int32)
            for v, row in self._rows.items():
                mat[v] = row
            todo = [v for v in range(n) if v not in self._rows]
            degrees = list(map(len, g.adjacency))
            if n >= BATCH_MIN_VERTICES and n * (max(degrees) + 1) <= 2 * (n + sum(degrees)):
                table = neighborhood_table(g, range(n))
                _batched_bfs(mat.reshape(-1), table, np.array(todo, dtype=np.int64))
            else:
                for v in todo:
                    mat[v] = self._bfs_row(v)
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
