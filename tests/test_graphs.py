import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pebbling.catalogs import load_catalog
from pebbling.graphs import (
    DisconnectedGraphError,
    Graph,
    Graph6Error,
    GraphError,
    automorphisms,
    composition_orbits,
    compositions,
    diameter,
    family_from_string,
    graph_from_json,
    graph_to_json,
    is_vertex_transitive,
    make_family,
    parse_graph6,
    serialize_graph6,
    vertex_orbits,
)


@st.composite
def connected_graphs(draw, max_n=8):
    """Random connected graph: random spanning tree plus random extra edges."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges = set()
    for v in range(1, n):
        u = draw(st.integers(min_value=0, max_value=v - 1))
        edges.add((u, v))
    for u, v in itertools.combinations(range(n), 2):
        if (u, v) not in edges and draw(st.booleans()):
            edges.add((u, v))
    return Graph(n, edges)


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphError, match="self-loop"):
            Graph(2, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError, match="out of range"):
            Graph(2, [(0, 2)])

    def test_duplicate_edges_collapse(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edges == ((0, 1),)

    def test_distances_read_only(self):
        g = make_family("path", 3)
        for table in (g.distances, g.parents):
            with pytest.raises(ValueError):
                table[0, 0] = 5


class TestDistances:
    def test_complete_graph_all_ones(self):
        d = make_family("complete", 3).distances
        assert d[0, 0] == 0
        off = d[~np.eye(3, dtype=bool)]
        assert (off == 1).all()

    def test_path_endpoints(self):
        d = make_family("path", 3).distances
        assert d[0, 2] == 2

    def test_cube_antipodal(self):
        g = make_family("hypercube", 3)
        assert g.distances[0, 7] == 3

    def test_disconnected_rejected_with_pair(self):
        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError, match="0 and 2"):
            g.require_connected()
        with pytest.raises(DisconnectedGraphError):
            diameter(g)

    @given(connected_graphs())
    @settings(max_examples=60, deadline=None)
    def test_symmetric_with_triangle_inequality(self, g):
        d = g.distances
        assert (d == d.T).all()
        assert (np.diag(d) == 0).all()
        for u, v, w in itertools.product(range(g.n), repeat=3):
            assert d[u, w] <= d[u, v] + d[v, w]


class TestDiameter:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_complete(self, n):
        assert diameter(make_family("complete", n)) == 1

    def test_even_cycle(self):
        assert diameter(make_family("cycle", 6)) == 3

    def test_wheel(self):
        assert diameter(make_family("wheel", 4)) == 2


class TestParents:
    @staticmethod
    def reference_bfs(g, r):
        parent = [-1] * g.n
        seen = {r}
        queue = [r]
        for u in queue:
            for w in sorted(g.neighbors(u)):
                if w not in seen:
                    seen.add(w)
                    parent[w] = u
                    queue.append(w)
        return parent

    @pytest.mark.parametrize("catalog", ["connected_up_to_6", "trees_up_to_8"])
    def test_rows_are_ascending_neighbour_bfs_trees(self, catalog):
        for g in load_catalog(catalog):
            for r in range(g.n):
                want = self.reference_bfs(g, r)
                assert g.parents[r].tolist() == want


class TestTransitivity:
    @pytest.mark.parametrize(
        "g",
        [
            make_family("complete", 4),
            make_family("cycle", 5),
            make_family("cycle", 8),
            make_family("hypercube", 3),
        ],
    )
    def test_transitive(self, g):
        assert is_vertex_transitive(g)

    @pytest.mark.parametrize(
        "g",
        [
            make_family("path", 3),
            make_family("star", 3),
            make_family("wheel", 4),
        ],
    )
    def test_not_transitive(self, g):
        assert not is_vertex_transitive(g)

    def test_wheel_minus_rim_edge_not_transitive(self):
        w = make_family("wheel", 4)
        rim = [e for e in w.edges if 0 not in e]
        g = Graph(w.n, [e for e in w.edges if e != rim[0]])
        assert not is_vertex_transitive(g)

    def test_cycle_12_is_transitive(self):
        assert is_vertex_transitive(make_family("cycle", 12))


class TestAutomorphisms:
    def test_path_has_two(self):
        assert len(automorphisms(make_family("path", 4))) == 2

    def test_cycle_dihedral(self):
        assert len(automorphisms(make_family("cycle", 5))) == 10

    def test_every_listed_map_preserves_adjacency(self):
        g = make_family("wheel", 5)
        for sigma in automorphisms(g):
            for u, v in g.edges:
                assert sigma[v] in g.neighbors(sigma[u])

    def test_orbits_star(self):
        assert vertex_orbits(make_family("star", 4)) == [[0], [1, 2, 3, 4]]

    def test_orbits_complete_single(self):
        assert vertex_orbits(make_family("complete", 6)) == [list(range(6))]

    def test_star_9_target_orbits(self):
        # pairs of pebbles on a 9-leaf star: both on the centre, centre and
        # a leaf, two on one leaf, one on each of two leaves
        orbits = composition_orbits(make_family("star", 9), 2)
        assert len(orbits) == 4
        assert sum(len(orbit) for orbit in orbits) == 55


def reference_orbits(g):
    """Orbits by listing the whole group and merging each vertex with its
    images in a union-find."""
    rep = list(range(g.n))

    def find(x):
        while rep[x] != x:
            x = rep[x]
        return x

    for sigma in automorphisms(g):
        for v in range(g.n):
            a, b = find(v), find(sigma[v])
            rep[max(a, b)] = min(a, b)
    orbits = {}
    for v in range(g.n):
        orbits.setdefault(find(v), []).append(v)
    return [orbits[k] for k in sorted(orbits)]


def reference_composition_orbits(g, t, group):
    """Orbits by closing each new composition under every listed
    automorphism; members in colex order."""
    seen = {}
    orbits = []
    for c in compositions(t, g.n):
        if c not in seen:
            orbits.append([])
            for sigma in group:
                img = [0] * g.n
                for v in range(g.n):
                    img[sigma[v]] = c[v]
                seen[tuple(img)] = orbits[-1]
        seen[c].append(c)
    return orbits


def relabeled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


class TestSymmetryReference:
    def check(self, g):
        want = reference_orbits(g)
        assert vertex_orbits(g) == want
        assert is_vertex_transitive(g) == (len(want) == 1)
        group = automorphisms(g)
        for t in (1, 2, 3):
            assert composition_orbits(g, t) == reference_composition_orbits(
                g, t, group
            )

    @pytest.mark.parametrize("name", ["connected_up_to_6", "trees_up_to_8"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_relabeled_catalogs(self, name, seed):
        for g in load_catalog(name):
            self.check(relabeled(g, seed))

    @pytest.mark.parametrize(
        "kind,param",
        [
            ("complete", 6),
            ("complete", 8),
            ("star", 7),
            ("hypercube", 3),
            ("cycle", 8),
            ("wheel", 6),
            ("path", 8),
        ],
    )
    def test_families(self, kind, param):
        self.check(make_family(kind, param))


class TestFamilies:
    def test_star_counts(self):
        g = make_family("star", 4)
        assert g.n == 5 and len(g.edges) == 4 and g.degree(0) == 4

    def test_hypercube_counts(self):
        g = make_family("hypercube", 3)
        assert g.n == 8 and len(g.edges) == 12 and diameter(g) == 3

    def test_wheel_counts(self):
        g = make_family("wheel", 4)
        assert g.n == 5 and len(g.edges) == 8

    def test_parameter_bounds(self):
        for kind, bad in [("cycle", 2), ("star", 1), ("hypercube", 0)]:
            with pytest.raises(GraphError):
                make_family(kind, bad)

    def test_tree_rejects_cycle(self):
        with pytest.raises(GraphError, match="not a tree"):
            make_family("tree", [[0, 1], [1, 2], [0, 2]])

    def test_family_from_string(self):
        assert family_from_string("cycle:6").n == 6
        assert family_from_string("tree:[[0,1],[1,2]]").n == 3
        with pytest.raises(GraphError):
            family_from_string("blob")


class TestGraph6:
    def test_k3_encoding(self):
        assert serialize_graph6(make_family("complete", 3)) == "Bw"
        assert parse_graph6("Bw") == make_family("complete", 3)

    def test_two_vertex_empty(self):
        g = Graph(2, [])
        assert serialize_graph6(g) == "A?"
        assert parse_graph6("A?") == g

    def test_optional_prefix(self):
        assert parse_graph6(">>graph6<<Bw").n == 3

    @given(connected_graphs())
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, g):
        assert parse_graph6(serialize_graph6(g)) == g

    def test_round_trip_disconnected(self):
        g = Graph(5, [(0, 1), (3, 4)])
        assert parse_graph6(serialize_graph6(g)) == g

    def test_malformed_byte(self):
        with pytest.raises(Graph6Error, match="range"):
            parse_graph6("B\x7f")

    def test_trailing_bits_nonzero(self):
        # K_3 body group is 111000; flip a padding bit -> 111001 = 'x'
        with pytest.raises(Graph6Error, match="padding"):
            parse_graph6("Bx")

    def test_length_mismatch(self):
        with pytest.raises(Graph6Error, match="expected"):
            parse_graph6("Bww")
        with pytest.raises(Graph6Error, match="expected"):
            parse_graph6("B")


class TestJson:
    def test_round_trip(self):
        g = make_family("cycle", 5)
        assert graph_from_json(graph_to_json(g)) == g

    def test_rejects_wrong_shape(self):
        with pytest.raises(GraphError):
            graph_from_json({"edges": [[0, 1]]})
