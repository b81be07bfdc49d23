"""Independent checkers for the benchmark's outputs.

Nothing here imports coarsegraph.  Graphs are rebuilt from their family
and size with the generators' documented id conventions, distances come
from closed forms (|i - j| on paths, L1 on grid coordinates) or from this
module's own breadth-first search, and every bound is compared in exact
integer arithmetic.
"""
from __future__ import annotations

import itertools
from collections import deque
from fractions import Fraction

import numpy as np

# pairs per chunk in the vectorized modulus scan; bounds its memory
CHUNK = 1 << 18


class Graph:
    """Adjacency plus a distance function, built apart from the program.

    ``kind`` is one of path, cycle, grid, tripod, comb or edges.  Grids use
    id i * height + j for column i and row j, tripods put the centre at 0
    and number the arms in order, combs hang the tooth off spine // 2.
    """

    def __init__(self, kind: str, *dims, edges=None):
        self.kind = kind
        self.dims = dims
        if kind == "path":
            (n,) = dims
            pairs = [(i, i + 1) for i in range(n - 1)]
        elif kind == "cycle":
            (n,) = dims
            pairs = [(i, (i + 1) % n) for i in range(n)]
        elif kind == "grid":
            w, h = dims
            n = w * h
            pairs = []
            for i in range(w):
                for j in range(h):
                    v = i * h + j
                    if j + 1 < h:
                        pairs.append((v, v + 1))
                    if i + 1 < w:
                        pairs.append((v, v + h))
        elif kind == "tripod":
            pairs, n = [], 1
            for arm in dims:
                prev = 0
                for _ in range(arm):
                    pairs.append((prev, n))
                    prev, n = n, n + 1
        elif kind == "comb":
            s, t = dims
            n = s + t
            pairs = [(i, i + 1) for i in range(s - 1)]
            prev = s // 2
            for k in range(t):
                pairs.append((prev, s + k))
                prev = s + k
        elif kind == "edges":
            (n,) = dims
            pairs = [tuple(e) for e in edges]
        else:
            raise ValueError(f"unknown graph kind {kind!r}")
        self.n = n
        adj = [set() for _ in range(n)]
        for u, v in pairs:
            adj[u].add(v)
            adj[v].add(u)
        self.adj = [sorted(a) for a in adj]
        self._rows: dict[int, np.ndarray] = {}
        self._matrix = None
        self._table = None

    @classmethod
    def from_spec(cls, spec: str) -> "Graph":
        """Parse a ``--generate`` spec such as ``grid:30x4``."""
        kind, _, rest = spec.partition(":")
        if kind == "grid":
            return cls(kind, *(int(x) for x in rest.split("x")))
        return cls(kind, *(int(x) for x in rest.split(",")))

    # -- distances ---------------------------------------------------------

    def dist(self, a, b):
        """Vectorized distance between id arrays (or scalars)."""
        if self.kind == "path":
            return np.abs(np.asarray(a, dtype=np.int64) - np.asarray(b, dtype=np.int64))
        if self.kind == "grid":
            h = self.dims[1]
            a = np.asarray(a, dtype=np.int64)
            b = np.asarray(b, dtype=np.int64)
            return np.abs(a // h - b // h) + np.abs(a % h - b % h)
        return self.matrix()[a, b]

    def d(self, u: int, v: int) -> int:
        return int(self.dist(u, v))

    def row(self, u: int) -> np.ndarray:
        cached = self._rows.get(u)
        if cached is None:
            if self.kind in ("path", "grid"):
                cached = self.dist(np.full(self.n, u), np.arange(self.n))
            else:
                cached = bfs(self.adj, [u])
            self._rows[u] = cached
        return cached

    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = np.stack([bfs(self.adj, [u]) for u in range(self.n)])
        return self._matrix

    def table(self) -> list[list[int]]:
        """All distances as nested lists, for many scalar lookups."""
        if self._table is None:
            ids = np.arange(self.n)
            self._table = self.dist(ids[:, None], ids[None, :]).tolist()
        return self._table

    def diameter(self) -> int:
        if self.kind == "path":
            return self.n - 1
        if self.kind == "grid":
            return self.dims[0] + self.dims[1] - 2
        return int(self.matrix().max())

    def closed_nbrs(self) -> np.ndarray:
        """Closed neighbourhoods padded with the vertex itself."""
        width = max(len(a) for a in self.adj) + 1
        out = np.empty((self.n, width), dtype=np.int64)
        for v in range(self.n):
            row = [v, *self.adj[v]]
            out[v] = row + [v] * (width - len(row))
        return out


def bfs(adj, sources) -> np.ndarray:
    """Distance from every vertex to the nearest source."""
    dist = [-1] * len(adj)
    queue = deque()
    for s in sources:
        if dist[s] < 0:
            dist[s] = 0
            queue.append(s)
    while queue:
        x = queue.popleft()
        for w in adj[x]:
            if dist[w] < 0:
                dist[w] = dist[x] + 1
                queue.append(w)
    if min(dist) < 0:
        raise ValueError("graph is disconnected")
    return np.asarray(dist, dtype=np.int64)


def hausdorff(g: Graph, A, B) -> int:
    best = 0
    for X, Y in ((A, B), (B, A)):
        for x in X:
            best = max(best, min(g.d(x, y) for y in Y))
    return best


# -- selectors ---------------------------------------------------------------


class Choice:
    """A two-selector as the checker sees it: a coordinate or a full table."""

    def __init__(self, n: int, coord=None, table=None):
        self.n = n
        self.coord = None if coord is None else np.asarray(coord, dtype=np.int64)
        self.matrix = None
        if table is not None:
            mat = np.full((n, n), -1, dtype=np.int64)
            for (a, b), c in table.items():
                mat[a, b] = c
                mat[b, a] = c
            self.matrix = mat

    def pick(self, x, y):
        """Vectorized choice on pairs (x, y), x != y."""
        if self.coord is not None:
            return np.where(self.coord[x] < self.coord[y], x, y)
        return self.matrix[x, y]

    def one(self, a: int, b: int) -> int:
        return int(self.pick(np.int64(a), np.int64(b)))


def brute_modulus(g: Graph, f: Choice) -> int:
    """Max of d(f(A), f(B)) over all pairs A and all B with d_H(A, B) <= 1.

    B ranges over {x, y} with x in N[a] and y in N[b], which is exactly the
    d_H <= 1 neighbourhood of A = {a, b}; chunked over pairs A.
    """
    n = g.n
    nbr = g.closed_nbrs()
    width = nbr.shape[1]
    ia, ib = np.triu_indices(n, 1)
    best = 0
    for lo in range(0, len(ia), CHUNK):
        a = ia[lo : lo + CHUNK]
        b = ib[lo : lo + CHUNK]
        fa = f.pick(a, b)
        for si in range(width):
            x = nbr[a, si]
            for sj in range(width):
                y = nbr[b, sj]
                # x == y is no pair; its pick is masked out
                jump = np.where(x != y, g.dist(fa, f.pick(x, y)), 0)
                best = max(best, int(jump.max()))
    return best


def brute_modulus_py(g: Graph, f: Choice) -> int:
    """Literal definition: every pair B within Hausdorff distance 1 of A."""
    pairs = list(itertools.combinations(range(g.n), 2))
    best = 0
    for A in pairs:
        fa = f.one(*A)
        for B in pairs:
            if hausdorff(g, A, B) <= 1:
                best = max(best, g.d(fa, f.one(*B)))
    return best


def witness_ok(g: Graph, f: Choice, r: int, pair_a, pair_b, exact: bool = False) -> bool:
    """d_H(A, B) <= 1 and the jump d(f(A), f(B)) exceeds r (equals r if exact)."""
    A, B = tuple(pair_a), tuple(pair_b)
    if len(set(A)) != 2 or len(set(B)) != 2:
        return False
    if hausdorff(g, A, B) > 1:
        return False
    jump = g.d(f.one(*A), f.one(*B))
    return jump == r if exact else jump > r


PAIR_CAP = 15  # 2^15 tournaments at most


def exhaustive_min_modulus(g: Graph) -> int | None:
    """Least modulus over all 2^k tournaments, or None above PAIR_CAP pairs."""
    pairs = list(itertools.combinations(range(g.n), 2))
    k = len(pairs)
    if k > PAIR_CAP:
        return None
    masks = np.arange(1 << k, dtype=np.int64)
    worst = np.zeros(1 << k, dtype=np.int64)
    choices = [np.where((masks >> i) & 1, b, a) for i, (a, b) in enumerate(pairs)]
    for i, A in enumerate(pairs):
        for j, B in enumerate(pairs):
            if j > i and hausdorff(g, A, B) <= 1:
                np.maximum(worst, g.dist(choices[i], choices[j]), out=worst)
    return int(worst.min())


# -- quasi-isometry certificates ---------------------------------------------


def cert_first_failure(g: Graph, coord: dict, lam: Fraction, C: int, D: int):
    """First violation in the program's scan order, or None.

    Pairs u < v of the domain in ascending order, upper bound before lower
    bound, then coverage by ascending vertex.  Returns ("pair", u, v),
    ("cover", w) or None.  lambda = num/den is compared by cross-multiplying.
    """
    lam = Fraction(lam)
    num, den = lam.numerator, lam.denominator
    S = np.asarray(sorted(coord), dtype=np.int64)
    cs = np.asarray([coord[int(v)] for v in S], dtype=np.int64)
    for i in range(len(S) - 1):
        u = int(S[i])
        rest = S[i + 1 :]
        d = g.row(u)[rest]
        delta = np.abs(cs[i + 1 :] - cs[i])
        bad = (d * den > num * delta + C * den) | (delta * den > num * (d + C))
        hit = np.flatnonzero(bad)
        if hit.size:
            return ("pair", u, int(rest[hit[0]]))
    cover = cover_distances(g, S)
    far = np.flatnonzero(cover > D)
    if far.size:
        return ("cover", int(far[0]))
    return None


def cover_distances(g: Graph, S) -> np.ndarray:
    return bfs(g.adj, [int(v) for v in S])


def covering_radius(g: Graph, S) -> int:
    return int(cover_distances(g, S).max())


# -- sampled segments and circles ---------------------------------------------


def expected_net(kind: str, length_halves: int):
    """Greedy 2-separated net and shared-witness edges, in half units.

    Samples sit at 0, 1, ..., in units of 1/2 (a segment includes its end,
    a circle wraps).  Returns (net positions, edges, largeness in halves).
    """
    if kind == "segment":
        pts = list(range(length_halves + 1))

        def dist(x, y):
            return abs(x - y)
    else:
        pts = list(range(length_halves))

        def dist(x, y):
            t = abs(x - y)
            return min(t, length_halves - t)

    net = []
    for x in pts:
        if all(dist(x, u) > 4 for u in net):
            net.append(x)
    edges = []
    for a, b in itertools.combinations(range(len(net)), 2):
        if any(dist(x, net[a]) <= 4 and dist(x, net[b]) <= 4 for x in pts):
            edges.append((a, b))
    largeness = max(min(dist(x, u) for u in net) for x in pts)
    return net, edges, largeness


# -- orders ---------------------------------------------------------------------


def compat_violation_radius(g: Graph, rank, e: int) -> int:
    """Largest d(x, y) over pairs that break e-compatibility (0 if none).

    The condition holds at radius g exactly when g is at least this value,
    since a pair only matters once d(x, y) > g.
    """
    n = g.n
    rank = np.asarray(rank, dtype=np.int64)
    D = g.dist(np.arange(n)[:, None], np.arange(n)[None, :])
    inball = D <= e
    rk = np.broadcast_to(rank[None, :], (n, n))
    ball_max = np.where(inball, rk, -1).max(axis=1)
    ball_min = np.where(inball, rk, n).min(axis=1)
    rx = rank[:, None]
    ry = rank[None, :]
    bad = ((rx < ry) & (ball_max[:, None] >= ry)) | ((ry < rx) & (ball_min[:, None] <= ry))
    np.fill_diagonal(bad, False)
    return int(D[bad].max()) if bad.any() else 0


def first_interval_gap(g: Graph, rank, e: int):
    """Lowest x whose e-ball is not a rank interval, with its lowest-rank gap vertex."""
    by_rank = [0] * g.n
    for v, pos in enumerate(rank):
        by_rank[pos] = v
    for x in range(g.n):
        ball = set(np.flatnonzero(g.row(x) <= e).tolist())
        ranks = sorted(rank[u] for u in ball)
        if ranks[-1] - ranks[0] + 1 == len(ball):
            continue
        for pos in range(ranks[0], ranks[-1] + 1):
            if by_rank[pos] not in ball:
                return x, by_rank[pos]
    return None


# -- claims ---------------------------------------------------------------------


def nearest_index(g: Graph, v: int, zs) -> int:
    """Lowest chain index attaining the least distance from v."""
    d = g.row(v)[np.asarray(zs, dtype=np.int64)]
    return int(np.argmin(d))


def geodesic(g: Graph, s: int, t: int) -> list[int]:
    """Some shortest s-t path (lowest-id predecessor, from this module's BFS)."""
    row = g.table()[t]
    path = [s]
    while path[-1] != t:
        cur = path[-1]
        path.append(min(w for w in g.adj[cur] if row[w] == row[cur] - 1))
    return path
