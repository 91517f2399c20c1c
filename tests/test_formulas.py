from collections import defaultdict
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pebbling.catalogs import load_catalog
from pebbling.exact import Budget, pebbling_number, rooted_pebbling_number
from pebbling.formulas import (
    PathPartition,
    coefficient,
    complete_graph_formula,
    cycle_pebbling_formula,
    diam2_bounds,
    diambound_threshold,
    fractional_pebbling_number,
    gnd_lower_bound,
    maximal_path_partition,
    radius_bound,
    star_fourth_pebble,
    tree_pebbling_formula,
)
from pebbling.graphs import Graph, make_family


def spider(*legs):
    """Star-like tree with given leg lengths hanging off vertex 0."""
    edges = []
    nxt = 1
    for length in legs:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Graph(nxt, edges)


def exhaustive_rooted(g, root):
    """Same search restricted to ancestor chains (parts directed toward the
    root). Edges are named by their child endpoint."""
    parent = g.parents[root]
    children = defaultdict(list)
    for v in range(g.n):
        if v != root:
            children[int(parent[v])].append(v)
    best: list = []

    def descents(v, unused):
        yield []
        for c in children[v]:
            if c in unused:
                for rest in descents(c, unused - {c}):
                    yield [c] + rest

    def rec(unused, acc):
        nonlocal best
        if not unused:
            seq = sorted(acc, reverse=True)
            if seq > best:
                best = seq
            return
        v = min(unused)
        rem = unused - {v}
        for down in descents(v, rem):
            rem2 = rem - set(down)
            ups = []
            u = int(parent[v])
            while u != root and u in rem2 and int(parent[u]) is not None:
                ups.append(u)
                if u == int(parent[u]):
                    break
                u = int(parent[u])
            for take in range(len(ups) + 1):
                rec(rem2 - set(ups[:take]), acc + [1 + len(down) + take])

    rec(frozenset(v for v in range(g.n) if v != root), [])
    return tuple(best)


def exhaustive_unrooted(g):
    """Best sequence over every root orientation, each searched exhaustively."""
    return max(exhaustive_rooted(g, r) for r in range(g.n))


@st.composite
def random_trees(draw, max_n=12):
    n = draw(st.integers(min_value=2, max_value=max_n))
    edges = [
        (draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, n)
    ]
    return Graph(n, edges)


class TestPathPartition:
    def test_rejects_increasing(self):
        with pytest.raises(ValueError, match="nonincreasing"):
            PathPartition((1, 2))

    def test_rejects_zero_length(self):
        with pytest.raises(ValueError, match="positive"):
            PathPartition((2, 0))

    def test_path_rooted_at_endpoint(self):
        part = maximal_path_partition(make_family("path", 4), root=0)
        assert part.lengths == (3,)

    def test_star_unrooted(self):
        part = maximal_path_partition(make_family("star", 3))
        assert part.lengths == (2, 1)

    def test_wide_star_does_not_pair_legs(self):
        # Pairing two legs through the center twice would give (2, 2), but a
        # sequence must come from one root orientation; (2, 1, 1) is what the
        # pebbling count actually follows.
        part = maximal_path_partition(make_family("star", 4))
        assert part.lengths == (2, 1, 1)

    def test_spider_rooted_at_center(self):
        part = maximal_path_partition(spider(2, 1, 1), root=0)
        assert part.lengths == (2, 1, 1)

    def test_single_vertex_is_empty(self):
        assert maximal_path_partition(Graph(1, [])).lengths == ()

    def test_rejects_non_tree(self):
        with pytest.raises(ValueError, match="tree"):
            maximal_path_partition(make_family("cycle", 4))

    def test_covers_all_edges_catalog(self):
        for g in load_catalog("trees_up_to_8"):
            assert maximal_path_partition(g).edge_count == g.n - 1
            for r in range(g.n):
                assert maximal_path_partition(g, root=r).edge_count == g.n - 1

    def test_greedy_matches_exhaustive_catalog(self):
        for g in load_catalog("trees_up_to_8"):
            if g.n < 2:
                continue
            assert maximal_path_partition(g).lengths == exhaustive_unrooted(g)
            for r in range(g.n):
                assert maximal_path_partition(g, root=r).lengths == (
                    exhaustive_rooted(g, r)
                )

    @given(random_trees())
    @settings(max_examples=25, deadline=None)
    def test_greedy_matches_exhaustive_random(self, g):
        assert maximal_path_partition(g).lengths == exhaustive_unrooted(g)
        assert maximal_path_partition(g, root=0).lengths == exhaustive_rooted(g, 0)

    def test_twelve_edge_extremes(self):
        assert maximal_path_partition(make_family("path", 13)).lengths == (12,)
        assert maximal_path_partition(make_family("star", 12)).lengths == (
            exhaustive_unrooted(make_family("star", 12))
        )
        assert maximal_path_partition(spider(3, 3, 3, 3)).lengths == (
            exhaustive_unrooted(spider(3, 3, 3, 3))
        )


class TestTreeFormula:
    @pytest.mark.parametrize(
        "lengths,t,value",
        [((3,), 1, 8), ((2, 1), 1, 5), ((2, 1, 1), 2, 10)],
    )
    def test_arithmetic(self, lengths, t, value):
        assert tree_pebbling_formula(PathPartition(lengths), t) == value

    def test_empty_partition_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            tree_pebbling_formula(PathPartition(()), 1)

    def test_matches_brute_force(self):
        wide = Budget(max_pebbles=80)
        for g in load_catalog("trees_up_to_8", max_n=6):
            if g.n < 2:
                continue
            for t in (1, 2):
                part = maximal_path_partition(g)
                assert (
                    tree_pebbling_formula(part, t)
                    == pebbling_number(g, t, wide).value
                )
                for r in range(g.n):
                    rpart = maximal_path_partition(g, root=r)
                    assert (
                        tree_pebbling_formula(rpart, t)
                        == rooted_pebbling_number(g, r, t, wide).value
                    )


class TestCycleAndCompleteFormulas:
    @pytest.mark.parametrize(
        "n,t,value",
        [(6, 1, 8), (5, 1, 5), (7, 2, 19), (3, 3, 7), (8, 3, 48), (4, 2, 8)],
    )
    def test_cycle_values(self, n, t, value):
        assert cycle_pebbling_formula(n, t) == value

    def test_cycle_rejects_small(self):
        with pytest.raises(ValueError):
            cycle_pebbling_formula(2, 1)

    def test_cycle_matches_brute_force(self):
        wide = Budget(max_pebbles=80)
        for n in range(3, 7):
            for t in (1, 2):
                got = pebbling_number(make_family("cycle", n), t, wide).value
                assert got == cycle_pebbling_formula(n, t)

    @pytest.mark.parametrize("n,t,value", [(4, 1, 4), (3, 2, 5), (1, 1, 1)])
    def test_complete_values(self, n, t, value):
        assert complete_graph_formula(n, t) == value


class TestBounds:
    def test_coefficient_values(self):
        assert coefficient(1) == 1
        assert coefficient(2) == Fraction(3, 2)
        assert coefficient(3) == Fraction(7, 3)

    def test_coefficient_increasing(self):
        for d in range(1, 30):
            assert coefficient(d + 1) > coefficient(d)

    def test_radius_bound_value(self):
        assert radius_bound(5, 2, 1) == 7

    def test_radius_bound_collapses_at_diameter_one(self):
        for n in range(2, 8):
            for t in range(1, 4):
                assert radius_bound(n, 1, t) == complete_graph_formula(n, t)

    def test_radius_bound_crossover(self):
        # The d=2 radius bound beats n+7t-6 exactly when t > (n+3)/6.
        n = 9
        assert radius_bound(n, 2, 3) < n + 7 * 3 - 6
        assert radius_bound(n, 2, 2) >= n + 7 * 2 - 6

    def test_radius_bound_holds_on_catalog(self):
        wide = Budget(max_pebbles=80)
        for g in load_catalog("connected_up_to_6", max_n=5):
            if g.n == 1:
                continue
            for r in range(g.n):
                ecc = int(g.distances[r].max())
                for t in (1, 2):
                    got = rooted_pebbling_number(g, r, t, wide).value
                    assert got <= radius_bound(g.n, ecc, t)

    def test_diam2_reports(self):
        reports = {b.bound: b for b in diam2_bounds(5, 5, 3)}
        wheel = reports["pi_plus_4t_minus_4"]
        assert wheel.value == 13
        done = wheel.with_exact(12)
        assert done.slack == 1
        assert reports["n_plus_4t_minus_3"].value == 14

    def test_diam2_t_one_reduction(self):
        reports = {b.bound: b.value for b in diam2_bounds(5, 5, 1)}
        assert reports["pi_plus_4t_minus_4"] == 5
        assert reports["n_plus_4t_minus_3"] == 6

    def test_diam2_without_pi(self):
        names = [b.bound for b in diam2_bounds(5, None, 2)]
        assert "pi_plus_4t_minus_4" not in names
        assert diam2_bounds(5, None, 2)[0].value == 10

    def test_report_json(self):
        row = diam2_bounds(5, 5, 3)[0].with_exact(12).to_json()
        assert row == {
            "bound": "pi_plus_4t_minus_4",
            "params": {"n": 5, "t": 3, "pi": 5},
            "value": 13,
            "exact": 12,
            "slack": 1,
        }

    def test_fractional_pebbling_values(self):
        assert fractional_pebbling_number(make_family("complete", 5)) == 2
        assert fractional_pebbling_number(make_family("cycle", 6)) == 8
        assert fractional_pebbling_number(make_family("hypercube", 3)) == 8

    @pytest.mark.parametrize("n,d,value", [(7, 3, 2), (5, 2, 2), (2, 1, 1)])
    def test_diambound_threshold(self, n, d, value):
        assert diambound_threshold(n, d) == value

    def test_gnd_lower_bound_values(self):
        assert gnd_lower_bound(9, 4) == Fraction(41, 2)
        assert gnd_lower_bound(8, 3) == 11
        for n in range(3, 9):
            assert gnd_lower_bound(n, 2) == n + 1


class TestStarFourthPebble:
    @pytest.mark.parametrize("p,i,q,r", [(2, 0, 0, 2), (4, 2, 2, 0), (3, 1, 1, 1)])
    def test_quotients(self, p, i, q, r):
        Q, R, moves = star_fourth_pebble(p, i)
        assert (Q, R) == (q, r)
        if Q == 0:
            assert len(moves) == 0

    def test_schedule_counts(self):
        Q, R, moves = star_fourth_pebble(5, 1)
        g = make_family("star", 5)
        from pebbling.engine import PebbleDistribution

        final = moves.replay(g, PebbleDistribution((1,) + (3,) * 5))
        assert sum(1 for v in range(1, 6) if final[v] >= 4) == Q
        assert sum(1 for v in range(1, 6) if final[v] == 3) == R

    @given(st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=2))
    @settings(max_examples=24, deadline=None)
    def test_replay_always_valid(self, p, i):
        Q, R, _ = star_fourth_pebble(p, i)
        assert Q == (p + i) // 3 and R == (p + i) % 3

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            star_fourth_pebble(1, 0)
        with pytest.raises(ValueError):
            star_fourth_pebble(4, 3)
