import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pebbling.engine import (
    MoveSequence,
    PebbleDistribution,
    apply_move,
    is_reachable,
    is_t_fold_solvable,
    max_pebbles_to,
    weight,
)
from pebbling.errors import BudgetExceededError
from pebbling.graphs import Graph, make_family


@st.composite
def connected_graphs(draw, max_n=5):
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges = set()
    for v in range(1, n):
        u = draw(st.integers(min_value=0, max_value=v - 1))
        edges.add((u, v))
    for u, v in itertools.combinations(range(n), 2):
        if (u, v) not in edges and draw(st.booleans()):
            edges.add((u, v))
    return Graph(n, edges)


@st.composite
def graph_with_distribution(draw, max_n=5, max_total=8):
    g = draw(connected_graphs(max_n=max_n))
    total = draw(st.integers(min_value=0, max_value=max_total))
    counts = [0] * g.n
    for _ in range(total):
        counts[draw(st.integers(min_value=0, max_value=g.n - 1))] += 1
    return g, PebbleDistribution(tuple(counts))


class TestDistributions:
    def test_point(self):
        D = PebbleDistribution.point(4, 2, 3)
        assert D.counts == (0, 0, 3, 0)
        assert D.size == 3

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            PebbleDistribution((1, -1))

    def test_contains(self):
        big = PebbleDistribution((2, 1, 0))
        assert big.contains(PebbleDistribution((1, 1, 0)))
        assert not big.contains(PebbleDistribution((0, 2, 0)))

    def test_json_roundtrip(self):
        D = PebbleDistribution((0, 3, 1))
        assert D.to_json() == [0, 3, 1]


class TestMoves:
    def test_apply_move(self):
        g = make_family("path", 3)
        D = apply_move(g, PebbleDistribution((2, 0, 0)), 0, 1)
        assert D.counts == (0, 1, 0)

    def test_apply_move_needs_edge(self):
        g = make_family("path", 3)
        with pytest.raises(ValueError, match="not adjacent"):
            apply_move(g, PebbleDistribution((2, 0, 0)), 0, 2)

    def test_apply_move_needs_two_pebbles(self):
        g = make_family("path", 3)
        with pytest.raises(ValueError, match="need 2"):
            apply_move(g, PebbleDistribution((1, 0, 0)), 0, 1)

    def test_replay_chain(self):
        g = make_family("path", 4)
        seq = MoveSequence(((0, 1),) * 4 + ((1, 2),) * 2 + ((2, 3),))
        final = seq.replay(g, PebbleDistribution((8, 0, 0, 0)))
        assert final.counts == (0, 0, 0, 1)

    def test_replay_rejects_overdraw(self):
        g = make_family("path", 3)
        seq = MoveSequence(((0, 1), (0, 1)))
        with pytest.raises(ValueError):
            seq.replay(g, PebbleDistribution((2, 0, 0)))

    def test_replay_rejects_non_edge(self):
        g = make_family("path", 3)
        with pytest.raises(ValueError, match="not adjacent"):
            MoveSequence(((0, 2),)).replay(g, PebbleDistribution((2, 0, 0)))


class TestWeight:
    def test_path_endpoint(self):
        g = make_family("path", 3)
        assert weight(PebbleDistribution((4, 0, 0)), 2, g) == 1

    def test_cycle_mixed(self):
        g = make_family("cycle", 4)
        assert weight(PebbleDistribution((0, 1, 3, 0)), 0, g) == Fraction(5, 4)

    @given(graph_with_distribution())
    @settings(max_examples=60, deadline=None)
    def test_never_increases_under_moves(self, gd):
        g, D = gd
        for v in range(g.n):
            if D[v] < 2:
                continue
            for u in g.neighbors(v):
                after = apply_move(g, D, v, u)
                for r in range(g.n):
                    assert weight(after, r, g) <= weight(D, r, g)


class TestReachability:
    def test_containment_suffices(self):
        g = make_family("complete", 3)
        D = PebbleDistribution((0, 1, 0))
        ok, moves = is_reachable(g, D, D, want_moves=True)
        assert ok and len(moves) == 0

    def test_two_pebbles_cross_one_edge(self):
        g = make_family("complete", 3)
        ok, moves = is_reachable(
            g,
            PebbleDistribution((0, 2, 0)),
            PebbleDistribution.point(3, 0),
            want_moves=True,
        )
        assert ok
        assert moves.moves == ((1, 0),)

    def test_stranded_singletons(self):
        # One pebble on each of two vertices of K_3 cannot move at all.
        g = make_family("complete", 3)
        assert not is_reachable(
            g, PebbleDistribution((0, 1, 1)), PebbleDistribution.point(3, 0)
        )

    def test_multi_vertex_target(self):
        g = make_family("path", 3)
        D = PebbleDistribution((4, 0, 4))
        assert is_reachable(g, D, PebbleDistribution((1, 0, 1)))
        assert is_reachable(g, D, PebbleDistribution((0, 3, 0)))
        assert not is_reachable(g, D, PebbleDistribution((0, 5, 0)))

    def test_memo_cap_refusal(self):
        # Unsolvable but not weight-pruned at the root, so the failed-state
        # memo actually fills.
        g = make_family("cycle", 6)
        D = PebbleDistribution((3, 0, 1, 0, 1, 0))
        assert weight(D, 3, g) >= 1
        with pytest.raises(BudgetExceededError, match="memo"):
            is_reachable(g, D, PebbleDistribution.point(6, 3), memo_cap=2)

    @given(graph_with_distribution(max_total=7))
    @settings(max_examples=50, deadline=None)
    def test_witness_replays_to_target(self, gd):
        g, D = gd
        target = PebbleDistribution.point(g.n, g.n - 1)
        ok, moves = is_reachable(g, D, target, want_moves=True)
        if ok:
            assert moves.replay(g, D).contains(target)
        else:
            # weight >= 1 is only necessary, but weight < 1 forces failure;
            # confirm the search never contradicts the weight bound.
            assert weight(D, g.n - 1, g) >= 1 or not ok

    @given(graph_with_distribution(max_total=6), st.data())
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_added_pebbles(self, gd, data):
        g, D = gd
        target = PebbleDistribution.point(g.n, 0)
        if not is_reachable(g, D, target):
            return
        v = data.draw(st.integers(min_value=0, max_value=g.n - 1))
        bigger = PebbleDistribution(
            tuple(c + (1 if i == v else 0) for i, c in enumerate(D.counts))
        )
        assert is_reachable(g, bigger, target)

    def test_deep_search_stays_off_the_call_stack(self):
        # The search goes one level deeper per move, and these take well
        # over a thousand moves: more than the default recursion limit.
        g = make_family("path", 3)
        D = PebbleDistribution((2100, 0, 0))
        assert is_reachable(g, D, PebbleDistribution.point(3, 2, 400))
        assert is_reachable(
            make_family("path", 4),
            PebbleDistribution((4200, 0, 0, 0)),
            PebbleDistribution.point(4, 3, 500),
        )
        assert max_pebbles_to(g, D, 2) == 525


class TestDelivery:
    def test_max_pebbles_on_path(self):
        g = make_family("path", 4)
        assert max_pebbles_to(g, PebbleDistribution((8, 0, 0, 0)), 3) == 1

    def test_max_pebbles_complete(self):
        g = make_family("complete", 3)
        assert max_pebbles_to(g, PebbleDistribution((5, 0, 0)), 1) == 2

    def test_t_fold_known_cases(self):
        g = make_family("complete", 3)
        assert is_t_fold_solvable(g, PebbleDistribution((1, 1, 1)), 1)
        assert not is_t_fold_solvable(g, PebbleDistribution((0, 1, 1)), 1)

    def test_antipode_boundary(self):
        g = make_family("cycle", 6)
        assert not is_t_fold_solvable(g, PebbleDistribution.point(6, 0, 7), 1)
        assert is_t_fold_solvable(g, PebbleDistribution.point(6, 0, 8), 1)


def tree_move_cost(tree, D, r, t):
    """Deliver t pebbles to r on a tree with a demand-driven schedule, level
    by level toward r, and report (ok, cost, moves): cost is the net number
    of pebbles removed from vertices other than r. The tree lemma says the
    cost never exceeds 2**h * t, h the tree's height from r, since a pebble
    gathered from depth d consumes at most 2**d."""
    n = tree.n
    children = [[] for _ in range(n)]
    order = sorted(range(n), key=lambda v: -int(tree.distances[r, v]))
    for v in order:
        if v != r:
            children[int(tree.parents[r, v])].append(v)
    counts = list(D.counts)
    fold = [0] * n
    for v in order:  # deepest first
        fold[v] = counts[v] + sum(fold[c] // 2 for c in children[v])
    if fold[r] < t:
        return False, 0, MoveSequence(())
    moves = []

    def collect(v, q):
        # v ends holding at least q pebbles, drawn from its subtree
        deficit = q - counts[v]
        for c in children[v]:
            take = min(deficit, fold[c] // 2)
            if take <= 0:
                continue
            collect(c, 2 * take)
            moves.extend([(c, v)] * take)
            counts[c] -= 2 * take
            counts[v] += take
            deficit -= take

    collect(r, t)
    final = MoveSequence(tuple(moves)).replay(tree, D)
    cost = sum(max(0, D[v] - final[v]) for v in range(n) if v != r)
    return True, cost, MoveSequence(tuple(moves))


class TestTreeMoveCost:
    def test_path_full_consumption(self):
        g = make_family("path", 4)
        ok, cost, moves = tree_move_cost(g, PebbleDistribution((8, 0, 0, 0)), 3, 1)
        assert ok and cost == 8
        assert moves.replay(g, PebbleDistribution((8, 0, 0, 0)))[3] >= 1

    def test_star_collects_cheaply(self):
        g = make_family("star", 3)
        D = PebbleDistribution((0, 3, 3, 3))
        ok, cost, _ = tree_move_cost(g, D, 0, 2)
        assert ok and cost == 4

    def test_unreachable_reports_failure(self):
        g = make_family("path", 3)
        ok, _, _ = tree_move_cost(g, PebbleDistribution((3, 0, 0)), 2, 1)
        assert not ok

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_cost_bounded_by_farthest_branch(self, data):
        n = data.draw(st.integers(min_value=2, max_value=7))
        edges = [
            (data.draw(st.integers(min_value=0, max_value=v - 1)), v)
            for v in range(1, n)
        ]
        g = Graph(n, edges)
        r = data.draw(st.integers(min_value=0, max_value=n - 1))
        t = data.draw(st.integers(min_value=1, max_value=2))
        total = data.draw(st.integers(min_value=0, max_value=10))
        counts = [0] * n
        for _ in range(total):
            counts[data.draw(st.integers(min_value=0, max_value=n - 1))] += 1
        D = PebbleDistribution(tuple(counts))
        ok, cost, moves = tree_move_cost(g, D, r, t)
        height = max(int(g.distances[v, r]) for v in range(n))
        if ok:
            assert cost <= (1 << height) * t
            assert moves.replay(g, D)[r] >= t
        else:
            assert not is_reachable(g, D, PebbleDistribution.point(n, r, t))
