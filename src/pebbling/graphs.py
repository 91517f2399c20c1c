"""Graph primitives: immutable graphs, BFS metrics, named families, graph6 I/O.

Vertices are dense integers 0..n-1. Distances and BFS-tree parents from
every root are computed eagerly on construction, in one BFS per root (every
pebbling routine hits them), and exposed read-only.

Symmetry comes from one backtracking search over profile-filtered candidate
images: `automorphisms` lists the group for reference, and
`composition_orbits` places each weak composition by searches stopped at the
first hit, without listing it. Vertex orbits are the orbits of the
one-pebble compositions, and a vertex-transitive graph is one orbit. The
same first-hit searches, pinned along a base order, give the elements of a
target's stabilizer that the composition scans prune with.
"""
from __future__ import annotations

import itertools
import json
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "Graph",
    "GraphError",
    "DisconnectedGraphError",
    "Graph6Error",
    "diameter",
    "automorphisms",
    "compositions",
    "composition_orbits",
    "vertex_orbits",
    "is_vertex_transitive",
    "make_family",
    "family_from_string",
    "parse_graph6",
    "serialize_graph6",
    "graph_from_json",
    "graph_to_json",
    "load_graph",
]


class GraphError(ValueError):
    """Invalid graph construction or query."""


class DisconnectedGraphError(GraphError):
    """Operation requires a connected graph."""

    def __init__(self, u: int, v: int):
        self.pair = (u, v)
        super().__init__(f"graph is disconnected: no path between vertices {u} and {v}")


class Graph6Error(GraphError):
    """Malformed graph6 text."""


class Graph:
    """Undirected simple graph, immutable after construction.

    Disconnected graphs are representable (graph6 round-trips need them);
    metric queries and everything downstream that assumes connectivity go
    through :meth:`require_connected`, which rejects disconnected input
    naming an unreachable pair. Distances and the BFS tree at every root are
    computed once, on construction.
    """

    __slots__ = ("n", "_edges", "_neighbors", "_dist", "_parents")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 1:
            raise GraphError(f"need at least one vertex, got n={n}")
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            seen.add((min(u, v), max(u, v)))
        self.n = n
        self._edges: tuple[tuple[int, int], ...] = tuple(sorted(seen))
        nbrs: list[list[int]] = [[] for _ in range(n)]
        for u, v in self._edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        self._neighbors = tuple(tuple(sorted(a)) for a in nbrs)
        self._dist, self._parents = self._all_pairs_bfs()
        self._dist.setflags(write=False)
        self._parents.setflags(write=False)

    def _all_pairs_bfs(self) -> tuple[np.ndarray, np.ndarray]:
        n = self.n
        dist = [[-1] * n for _ in range(n)]
        parents = [[-1] * n for _ in range(n)]
        for s in range(n):
            ds, ps = dist[s], parents[s]
            ds[s] = 0
            queue = [s]
            while queue:
                nxt: list[int] = []
                for u in queue:
                    for w in self._neighbors[u]:
                        if ds[w] < 0:
                            ds[w] = ds[u] + 1
                            ps[w] = u
                            nxt.append(w)
                queue = nxt
        return np.array(dist, dtype=np.int64), np.array(parents, dtype=np.int64)

    # -- basic queries -------------------------------------------------

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return self._edges

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._neighbors[v]

    def degree(self, v: int) -> int:
        return len(self._neighbors[v])

    @property
    def distances(self) -> np.ndarray:
        """All-pairs hop distances, -1 for unreachable pairs. Read-only."""
        return self._dist

    @property
    def parents(self) -> np.ndarray:
        """parents[r, v]: the vertex that discovers v in the BFS from r, with
        neighbours taken in ascending order; -1 for v = r and for vertices r
        cannot reach. Row r is the BFS tree rooted at r. Read-only."""
        return self._parents

    @property
    def is_connected(self) -> bool:
        return bool((self._dist[0] >= 0).all())

    def unreachable_pair(self) -> tuple[int, int] | None:
        where = np.nonzero(self._dist[0] < 0)[0]
        if where.size == 0:
            return None
        return (0, int(where[0]))

    def require_connected(self) -> None:
        pair = self.unreachable_pair()
        if pair is not None:
            raise DisconnectedGraphError(*pair)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self._edges == other._edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self._edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={len(self._edges)})"


def diameter(g: Graph) -> int:
    g.require_connected()
    return int(g.distances.max())


# -- automorphisms ----------------------------------------------------


def _profile_classes(g: Graph) -> list[list[int]]:
    """For each vertex, the vertices with its (degree, sorted distance
    multiset) profile: the only images an automorphism can give it."""
    d = g.distances
    profiles = [
        (g.degree(v), tuple(sorted(d[v].tolist())))
        for v in range(g.n)
    ]
    return [[w for w in range(g.n) if profiles[w] == p] for p in profiles]


def _search(
    g: Graph, cand: list[list[int]], stop_at=float("inf")
) -> list[tuple[int, ...]]:
    """Automorphisms in lexicographic order of their images, at most stop_at
    of them. Vertex v takes an image from cand[v] that keeps every adjacency
    to 0..v-1."""
    nbrs = g._neighbors
    mapping: list[int] = []
    out: list[tuple[int, ...]] = []

    def extend() -> bool:
        v = len(mapping)
        if v == g.n:
            out.append(tuple(mapping))
            return len(out) >= stop_at
        for w in cand[v]:
            if w in mapping:
                continue
            for u in range(v):
                if (w in nbrs[mapping[u]]) != (v in nbrs[u]):
                    break
            else:
                mapping.append(w)
                if extend():
                    return True
                mapping.pop()
        return False

    extend()
    return out


def automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """All adjacency-preserving vertex permutations, as image tuples.

    Backtracking with degree/distance-profile candidate filtering; fine for
    the small verification graphs this package targets.
    """
    return _search(g, _profile_classes(g))


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Weak compositions in colexicographic order (last coordinate slowest).

    The successor empties the first nonzero coordinate k, moves one of its
    units to k + 1 and the rest to coordinate 0.
    """
    c = [total] + [0] * (parts - 1)
    while True:
        yield tuple(c)
        k = 0
        while k < parts - 1 and not c[k]:
            k += 1
        if k == parts - 1:
            return
        x, c[k] = c[k], 0
        c[0] = x - 1
        c[k + 1] += 1


def composition_orbits(g: Graph, t: int) -> list[list[tuple[int, ...]]]:
    """Orbits of the automorphism group on the weak compositions of t over
    the vertices, each in colex order, in colex order of their first members.

    A composition c joins the orbit with first member q when a search stopped
    at the first hit finds an automorphism that sends each v to a vertex w
    of v's profile with c[w] == q[v]. Only first members with the same
    multiset of (profile class, value) pairs are tried. The group is never
    listed.
    """
    cls = _profile_classes(g)
    label = [members[0] for members in cls]
    firsts: dict[tuple, list[list[tuple[int, ...]]]] = {}
    orbits: list[list[tuple[int, ...]]] = []
    for c in compositions(t, g.n):
        key = tuple(sorted((label[v], x) for v, x in enumerate(c) if x))
        same = firsts.setdefault(key, [])
        for orbit in same:
            q = orbit[0]
            cand = [[w for w in cls[v] if c[w] == q[v]] for v in range(g.n)]
            if _search(g, cand, stop_at=1):
                orbit.append(c)
                break
        else:
            same.append([c])
            orbits.append(same[-1])
    return orbits


def _stabilizer_elements(
    g: Graph, values: Sequence[int], base: Sequence[int]
) -> list[tuple[int, ...]]:
    """Automorphisms that keep `values` (values[s[v]] == values[v]), as image
    tuples s: one for each base position i and image w != base[i] that has
    one, fixing base[:i] pointwise and sending base[i] to w. Together they
    generate the stabilizer of values, level by level along base.

    Each comes from a search stopped at the first hit, so there are at most
    n(n-1)/2 searches and the group is never listed. An automorphism that
    fixes b keeps every distance to b, and one that sends b to w sends the
    vertices at distance k from b to those at distance k from w; both
    filters narrow the candidates before each search.
    """
    d = g.distances.tolist()
    cls = _profile_classes(g)
    cand = [[w for w in cls[v] if values[w] == values[v]] for v in range(g.n)]
    out: list[tuple[int, ...]] = []
    for b in base:
        for w in cand[b]:
            if w == b:
                continue
            pinned = [[x for x in cand[v] if d[x][w] == d[v][b]] for v in range(g.n)]
            out.extend(_search(g, pinned, stop_at=1))
        cand = [[x for x in cand[v] if d[x][b] == d[v][b]] for v in range(g.n)]
    return out


def vertex_orbits(g: Graph) -> list[list[int]]:
    """Orbits of the automorphism group on vertices, each ascending, in
    ascending order of their smallest vertex: the orbits of the one-pebble
    compositions."""
    return [[c.index(1) for c in orbit] for orbit in composition_orbits(g, 1)]


def is_vertex_transitive(g: Graph) -> bool:
    """True iff the automorphism group has a single vertex orbit."""
    g.require_connected()
    return len(vertex_orbits(g)) == 1


# -- families ---------------------------------------------------------


def make_family(kind: str, *params) -> Graph:
    """Construct a named family member.

    Kinds: path(n), cycle(n), complete(n), star(p), wheel(p), hypercube(k),
    tree(edge list). Parameter bounds follow the usual conventions (cycles
    need n >= 3, stars p >= 2, cubes k >= 1).
    """
    if kind == "path":
        (n,) = params
        if n < 1:
            raise GraphError("path needs n >= 1")
        return Graph(n, [(i, i + 1) for i in range(n - 1)])
    if kind == "cycle":
        (n,) = params
        if n < 3:
            raise GraphError("cycle needs n >= 3")
        return Graph(n, [(i, (i + 1) % n) for i in range(n)])
    if kind == "complete":
        (n,) = params
        if n < 1:
            raise GraphError("complete graph needs n >= 1")
        return Graph(n, itertools.combinations(range(n), 2))
    if kind == "star":
        (p,) = params
        if p < 2:
            raise GraphError("star needs p >= 2 outer vertices")
        return Graph(p + 1, [(0, i) for i in range(1, p + 1)])
    if kind == "wheel":
        (p,) = params
        if p < 3:
            raise GraphError("wheel needs a rim of >= 3 vertices")
        rim = [(i, i % p + 1) for i in range(1, p + 1)]
        spokes = [(0, i) for i in range(1, p + 1)]
        return Graph(p + 1, rim + spokes)
    if kind == "hypercube":
        (k,) = params
        if k < 1:
            raise GraphError("hypercube needs k >= 1")
        n = 1 << k
        edges = [
            (v, v ^ (1 << b)) for v in range(n) for b in range(k) if v < v ^ (1 << b)
        ]
        return Graph(n, edges)
    if kind == "tree":
        (edge_list,) = params
        edges = [(int(u), int(v)) for u, v in edge_list]
        n = max((max(u, v) for u, v in edges), default=0) + 1
        g = Graph(n, edges)
        g.require_connected()
        if len(g.edges) != n - 1:
            raise GraphError(f"{len(g.edges)} edges on {n} vertices is not a tree")
        return g
    raise GraphError(f"unknown family {kind!r}")


def family_from_string(text: str) -> Graph:
    """Parse 'cycle:6', 'hypercube:3', 'tree:[[0,1],[1,2]]' style specs."""
    kind, sep, arg = text.partition(":")
    if not sep:
        raise GraphError(f"family spec needs 'kind:params', got {text!r}")
    if kind == "tree":
        return make_family("tree", json.loads(arg))
    try:
        return make_family(kind, int(arg))
    except ValueError as e:
        raise GraphError(f"bad family parameter in {text!r}: {e}") from None


# -- graph6 -----------------------------------------------------------
#
# Standard graph6: each byte is 63 + a 6-bit group. The header N(n) is one
# byte for n <= 62, else 126 followed by three bytes carrying an 18-bit n.
# The upper-triangle adjacency bits x(0,1), x(0,2), x(1,2), x(0,3), ... are
# packed big-endian into 6-bit groups, zero-padded at the end.


def _g6_header(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    raise Graph6Error(f"n={n} exceeds the supported graph6 range")


def serialize_graph6(g: Graph) -> str:
    bits: list[int] = []
    for j in range(1, g.n):
        nj = set(g.neighbors(j))
        for i in range(j):
            bits.append(1 if i in nj else 0)
    data = bytearray(_g6_header(g.n))
    for k in range(0, len(bits), 6):
        group = bits[k : k + 6]
        group += [0] * (6 - len(group))
        val = 0
        for b in group:
            val = (val << 1) | b
        data.append(val + 63)
    return data.decode("ascii")


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line. Validates every byte, the bit count, and that
    padding bits are zero."""
    s = text.strip()
    if not s:
        raise Graph6Error("empty graph6 string")
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    raw = s.encode("ascii", errors="strict") if s.isascii() else None
    if raw is None:
        raise Graph6Error("graph6 must be printable ASCII")
    for b in raw:
        if not (63 <= b <= 126):
            raise Graph6Error(f"byte {b} out of graph6 range 63..126")
    if raw[0] == 126:
        if len(raw) >= 2 and raw[1] == 126:
            raise Graph6Error("graphs beyond 258047 vertices are not supported")
        if len(raw) < 4:
            raise Graph6Error("truncated graph6 header")
        n = ((raw[1] - 63) << 12) | ((raw[2] - 63) << 6) | (raw[3] - 63)
        body = raw[4:]
    else:
        n = raw[0] - 63
        body = raw[1:]
    if n < 1:
        raise Graph6Error(f"graph6 header decodes to n={n}")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise Graph6Error(
            f"graph6 body has {len(body)} groups, expected {need} for n={n}"
        )
    bits: list[int] = []
    for b in body:
        val = b - 63
        bits.extend((val >> k) & 1 for k in range(5, -1, -1))
    if any(bits[nbits:]):
        raise Graph6Error("nonzero padding bits in graph6 body")
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return Graph(n, edges)


# -- JSON edge lists --------------------------------------------------


def graph_from_json(obj: dict | str) -> Graph:
    """Accept {"n": int, "edges": [[u,v], ...]} as a dict or JSON text."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise GraphError('expected {"n": int, "edges": [[u,v], ...]}')
    return Graph(int(obj["n"]), [(int(u), int(v)) for u, v in obj["edges"]])


def graph_to_json(g: Graph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.edges]}


def load_graph(spec: str) -> Graph:
    """Resolve a CLI-style graph argument.

    Accepts a path to a .g6 file (first line used), a path to a .json edge
    list, or an inline family spec like 'cycle:6'.
    """
    if spec.endswith(".g6"):
        with open(spec, "r", encoding="ascii") as fh:
            return parse_graph6(fh.readline())
    if spec.endswith(".json"):
        with open(spec, "r", encoding="utf-8") as fh:
            return graph_from_json(json.load(fh))
    return family_from_string(spec)
