"""Frozen exact values and structural invariants for the counting routines.

Every expected number here was produced by an independent check before being
frozen: closed formulas where one exists, otherwise the move-search engine on
distributions small enough to enumerate.
"""

import json
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pebbling.catalogs import load_catalog
from pebbling.engine import PebbleDistribution, is_t_fold_solvable
from pebbling.errors import BudgetExceededError
from pebbling.exact import (
    Budget,
    _GraphArrays,
    _TargetContext,
    arbitrary_target_number,
    compositions,
    is_solvable_distribution,
    optimal_pebbling_number,
    pebbling_number,
    rooted_pebbling_number,
)
from pebbling.graphs import make_family, parse_graph6

WIDE = Budget(max_pebbles=80)


class TestPebblingNumber:
    @pytest.mark.parametrize(
        "family,n,t,value",
        [
            ("complete", 3, 1, 3),
            ("complete", 4, 1, 4),
            ("path", 3, 1, 4),
            ("cycle", 4, 1, 4),
            ("cycle", 5, 1, 5),
            ("cycle", 6, 1, 8),
            ("hypercube", 3, 1, 8),
            ("wheel", 4, 1, 5),
            ("cycle", 6, 2, 16),
            ("complete", 4, 2, 6),
            ("cycle", 7, 2, 19),
            ("cycle", 5, 3, 13),
            ("cycle", 3, 3, 7),
            ("wheel", 4, 2, 8),
            ("wheel", 4, 3, 12),
        ],
    )
    def test_known_values(self, family, n, t, value):
        stat = pebbling_number(make_family(family, n), t, WIDE)
        assert stat.value == value

    def test_witness_is_extremal_and_fails(self):
        g = make_family("cycle", 6)
        stat = pebbling_number(g, 1, WIDE)
        assert stat.witness.size == stat.value - 1
        assert not is_t_fold_solvable(g, stat.witness, 1)
        assert sorted(stat.witness.counts) == [0, 0, 0, 0, 0, 7]

    def test_deterministic_witness(self):
        g = make_family("cycle", 5)
        a = pebbling_number(g, 2, WIDE)
        b = pebbling_number(g, 2, WIDE)
        assert a.value == b.value and a.witness == b.witness

    def test_stat_json_shape(self):
        stat = pebbling_number(make_family("complete", 3), 1, WIDE)
        row = stat.to_json()
        assert row["kind"] == "pi_t"
        assert row["t"] == 1
        assert row["value"] == 3
        assert row["witness"] == list(stat.witness.counts)
        assert isinstance(row["graph"], str)
        json.dumps(row)


class TestRootedPebblingNumber:
    @pytest.mark.parametrize(
        "family,n,root,t,value",
        [
            ("path", 4, 0, 1, 8),
            ("path", 8, 0, 1, 128),
            ("path", 8, 0, 3, 384),
            ("star", 4, 0, 2, 7),
            ("cycle", 5, 0, 1, 5),
            ("complete", 5, 2, 1, 5),
        ],
    )
    def test_known_values(self, family, n, root, t, value):
        stat = rooted_pebbling_number(make_family(family, n), root, t, WIDE)
        assert stat.value == value
        assert stat.root == root

    def test_rooted_never_exceeds_global(self):
        g = make_family("cycle", 5)
        glob = pebbling_number(g, 2, WIDE).value
        for r in range(5):
            assert rooted_pebbling_number(g, r, 2, WIDE).value <= glob

    def test_tree_witness_is_unsolvable_for_root(self):
        g = make_family("path", 6)
        stat = rooted_pebbling_number(g, 0, 2, WIDE)
        assert stat.value == 64
        assert stat.witness.size == 63
        from pebbling.engine import is_reachable

        assert not is_reachable(
            g, stat.witness, PebbleDistribution.point(6, 0, 2)
        )


class TestOptimalPebblingNumber:
    @pytest.mark.parametrize(
        "family,n,t,value",
        [
            ("cycle", 4, 1, 3),
            ("cycle", 5, 1, 4),
            ("complete", 5, 1, 2),
            ("complete", 3, 1, 2),
            ("complete", 3, 2, 4),
            ("path", 3, 1, 2),
            ("path", 3, 2, 4),
            ("cycle", 4, 2, 4),
        ],
    )
    def test_known_values(self, family, n, t, value):
        stat = optimal_pebbling_number(make_family(family, n), t, WIDE)
        assert stat.value == value

    def test_witness_is_solvable(self):
        g = make_family("cycle", 5)
        stat = optimal_pebbling_number(g, 1, WIDE)
        assert stat.witness.size == stat.value
        assert is_t_fold_solvable(g, stat.witness, 1)

    def test_never_exceeds_pebbling_number(self):
        for family, n in [("cycle", 5), ("path", 4), ("complete", 4)]:
            g = make_family(family, n)
            assert (
                optimal_pebbling_number(g, 2, WIDE).value
                <= pebbling_number(g, 2, WIDE).value
            )


class TestArbitraryTargetNumber:
    @pytest.mark.parametrize(
        "family,n,t,value",
        [
            ("complete", 3, 2, 5),
            ("complete", 4, 2, 6),
            ("cycle", 4, 2, 8),
            ("cycle", 6, 2, 16),
            ("hypercube", 2, 2, 8),
            ("path", 4, 1, 8),
        ],
    )
    def test_known_values(self, family, n, t, value):
        stat = arbitrary_target_number(make_family(family, n), t, WIDE)
        assert stat.value == value

    def test_t_one_collapses_to_point_targets(self):
        for family, n in [("path", 4), ("cycle", 5), ("complete", 4)]:
            g = make_family(family, n)
            assert (
                arbitrary_target_number(g, 1, WIDE).value
                == pebbling_number(g, 1, WIDE).value
            )

    def test_dominates_point_target_variant(self):
        g = make_family("cycle", 5)
        assert (
            arbitrary_target_number(g, 2, WIDE).value
            >= pebbling_number(g, 2, WIDE).value
        )

    def test_star_9_scans_one_target_per_orbit(self):
        # the group has 9! elements and 4 orbits on targets of size 2
        stat = arbitrary_target_number(make_family("star", 9), 2, Budget(max_n=10))
        assert stat.value == 15


class TestThreads:
    def test_each_thread_gets_its_own_memo_arena(self):
        g = make_family("cycle", 5)
        target = PebbleDistribution.point(5, 0).as_array()
        keys = {}

        def build(i):
            ga = _GraphArrays(g, Budget(memo_bits=8))
            keys[i] = _TargetContext(ga, target).memo_keys

        threads = [threading.Thread(target=build, args=(i,)) for i in range(2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
        assert not any(th.is_alive() for th in threads)
        assert keys[0] is not keys[1]

    def test_concurrent_calls_keep_their_values(self):
        # four threads on two cores, switching as often as the interpreter
        # allows, each repeating one rooted value of W_6 at t = 2
        g = make_family("wheel", 6)
        want = {0: 9, 1: 10, 2: 10, 3: 10}
        got = {r: [] for r in want}
        finished = set()
        stop = time.monotonic() + 3.0

        def repeat(r):
            while time.monotonic() < stop:
                stat = rooted_pebbling_number(g, r, 2, Budget(memo_bits=16))
                got[r].append(stat.value)
            finished.add(r)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=repeat, args=(r,)) for r in want]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert finished == set(want)
        for r, values in got.items():
            assert values and set(values) == {want[r]}


class TestBudgets:
    def test_max_n_refusal(self):
        g = make_family("path", 4)
        with pytest.raises(BudgetExceededError, match="max_n"):
            pebbling_number(g, 1, Budget(max_n=3))

    def test_max_t_refusal(self):
        with pytest.raises(BudgetExceededError, match="max_t"):
            pebbling_number(make_family("path", 3), 5, Budget())

    def test_scan_ceiling_refusal_carries_bounds(self):
        g = make_family("cycle", 6)
        with pytest.raises(BudgetExceededError) as exc:
            pebbling_number(g, 1, Budget(max_pebbles=5))
        assert exc.value.best_lower is not None
        assert exc.value.best_lower >= 6

    def test_node_budget_refusal(self):
        g = make_family("cycle", 6)
        with pytest.raises(BudgetExceededError, match="node"):
            pebbling_number(g, 1, Budget(scan_nodes=3))

    def test_dfs_node_budget_covers_the_whole_call(self):
        # pi_2(W_6) = 10 spends 10609 DFS nodes over nine scans, but no
        # single scan spends 8288 of them.
        g = make_family("wheel", 6)
        with pytest.raises(BudgetExceededError, match="DFS node budget"):
            pebbling_number(g, 2, Budget(dfs_nodes=8288))
        assert pebbling_number(g, 2).value == 10

    def test_scan_node_budget_covers_the_whole_call(self):
        # pi(W_5) = 6 takes 657 scan nodes over two root orbits; its largest
        # single scan takes 324.
        g = make_family("wheel", 5)
        with pytest.raises(BudgetExceededError, match="scan node budget"):
            pebbling_number(g, 1, Budget(scan_nodes=400))
        assert pebbling_number(g, 1, Budget(scan_nodes=657)).value == 6

    def test_wall_clock_budget_is_checked_within_a_scan(self):
        # the scan at |D| = 27 on C_7 alone runs for seconds
        g = make_family("cycle", 7)
        started = time.monotonic()
        with pytest.raises(BudgetExceededError, match="wall-clock budget exhausted"):
            pebbling_number(g, 3, Budget(wall_secs=0.5, max_pebbles=80))
        assert time.monotonic() - started < 2.0

    def test_decision_reads_the_clock(self):
        g = make_family("hypercube", 3)
        with pytest.raises(BudgetExceededError, match="wall-clock budget exhausted"):
            is_solvable_distribution(g, PebbleDistribution((1,) * 8), 1, Budget(wall_secs=0))

    def test_optimal_number_spends_scan_nodes(self):
        # pi*(C_5) = 4 is found at the 56th composition tried; the 11th is
        # of size 2, after every size-1 placement failed
        g = make_family("cycle", 5)
        with pytest.raises(BudgetExceededError, match="scan node budget") as exc:
            optimal_pebbling_number(g, 1, Budget(scan_nodes=10))
        assert exc.value.best_lower == 2
        assert optimal_pebbling_number(g, 1, Budget(scan_nodes=56)).value == 4

    def test_decision_beyond_max_pebbles(self):
        # the memo's state packing must cover D's size, not just max_pebbles
        g = parse_graph6("EznW")
        D = PebbleDistribution((4, 0, 1, 0, 1, 0))
        assert is_t_fold_solvable(g, D, 2)
        assert is_solvable_distribution(g, D, 2, Budget(max_pebbles=0))

    def test_decision_packing_refusal_names_the_size(self):
        # on a general graph the packing base follows D's size, so the
        # refusal must name that size rather than max_pebbles
        g = parse_graph6("EznW")
        D = PebbleDistribution((1500,) + (0,) * 5)
        with pytest.raises(BudgetExceededError, match="up to 1500 pebbles"):
            is_solvable_distribution(g, D, 1, Budget(max_pebbles=0))

    def test_diameter_past_62_is_refused(self):
        # 2^63 does not fit the kernels' int64 weight table
        g = make_family("path", 64)
        D = PebbleDistribution((1 << 62,) + (0,) * 63)
        with pytest.raises(BudgetExceededError, match="diameter 63"):
            is_solvable_distribution(g, D, 1, Budget(max_n=64))

    def test_decision_respects_max_n_and_max_t(self):
        g = make_family("path", 9)
        D = PebbleDistribution((300,) + (0,) * 8)
        with pytest.raises(BudgetExceededError, match="max_n=3"):
            is_solvable_distribution(g, D, 5, Budget(max_n=3, max_t=1))
        with pytest.raises(BudgetExceededError, match="max_t=1"):
            is_solvable_distribution(g, D, 5, Budget(max_n=9, max_t=1))
        assert not is_solvable_distribution(g, D, 5, Budget(max_n=9, max_t=5))


class TestCompositions:
    def test_counts(self):
        assert len(list(compositions(4, 3))) == 15
        assert list(compositions(0, 2)) == [(0, 0)]

    @given(
        st.integers(min_value=0, max_value=6), st.integers(min_value=1, max_value=4)
    )
    @settings(max_examples=30, deadline=None)
    def test_every_composition_sums(self, total, parts):
        seen = set()
        for c in compositions(total, parts):
            assert sum(c) == total and len(c) == parts
            seen.add(c)
        from math import comb

        assert len(seen) == comb(total + parts - 1, parts - 1)


class TestStructuralInvariants:
    def test_lower_bound_two_power_diameter(self):
        # pi_t >= 2^D * t: the antipodal pile forces it.
        from pebbling.graphs import diameter

        for g in load_catalog("connected_up_to_6", max_n=5):
            d = diameter(g)
            for t in (1, 2):
                assert pebbling_number(g, t, WIDE).value >= (1 << d) * t

    def test_monotone_in_t(self):
        for family, n in [("cycle", 5), ("path", 4), ("complete", 4)]:
            g = make_family(family, n)
            vals = [pebbling_number(g, t, WIDE).value for t in (1, 2, 3)]
            assert vals == sorted(vals)
