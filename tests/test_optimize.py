"""Exact rational LP/IP optimizer tests.

Fractional optima are frozen as exact fractions; integer optima were
cross-checked against brute-force enumeration before being frozen here.
"""

import dataclasses
import random
import time
from fractions import Fraction

import pytest

from pebbling.catalogs import load_catalog
from pebbling.engine import PebbleDistribution
from pebbling.errors import BudgetExceededError
from pebbling.exact import Budget, is_solvable_distribution, optimal_pebbling_number
from pebbling.graphs import Graph, GraphError, make_family
from pebbling.optimize import (
    LpSolution,
    _weight_rows,
    build_opt_model,
    export_lp,
    optimal_fractional_pebbling,
    rationalize_to_integer,
    solve_ip,
    solve_lp,
    vertex_transitive_m,
)

F = Fraction


class TestModelConstruction:
    @pytest.mark.parametrize(
        "family,params,nvars,nrows",
        [
            ("complete", (2,), 6, 4),
            ("path", (3,), 15, 9),
            ("cycle", (4,), 36, 16),
        ],
    )
    def test_variable_and_row_counts(self, family, params, nvars, nrows):
        g = make_family(family, *params)
        lp = build_opt_model(g, 1, integral=True)
        # n placement variables plus one flow variable per (root, arc) pair.
        assert len(lp.var_names) == nvars
        assert len(lp.rows) == nrows == g.n * g.n

    def test_variable_name_layout(self):
        lp = build_opt_model(make_family("complete", 2), 1, integral=True)
        assert lp.var_names == (
            "D_0", "D_1", "p_0_0_1", "p_0_1_0", "p_1_0_1", "p_1_1_0",
        )

    def test_all_coefficients_integral(self):
        lp = build_opt_model(make_family("cycle", 4), 2, integral=True)
        for row in lp.rows:
            assert all(isinstance(c, int) for c in row)
        assert all(isinstance(b, int) for b in lp.rhs)
        assert lp.t == 2

    @pytest.mark.parametrize("family,params", [("complete", (3,)), ("wheel", (4,))])
    @pytest.mark.parametrize("t", [1, 3])
    def test_everywhere_t_with_no_flow_is_feasible(self, family, params, t):
        g = make_family(family, *params)
        lp = build_opt_model(g, t, integral=True)
        x = tuple(F(t) if j < g.n else F(0) for j in range(len(lp.var_names)))
        assert lp.check(x)

    @pytest.mark.parametrize("name", ["cycle:4", "complete:3", "path:4"])
    def test_check_agrees_with_dense_evaluation(self, name):
        kind, n = name.split(":")
        g = make_family(kind, int(n))
        lp = build_opt_model(g, 2, integral=True)
        nv = len(lp.var_names)

        def dense(x):
            return all(v >= 0 for v in x) and all(
                sum(a * v for a, v in zip(row, x)) >= b
                for row, b in zip(lp.rows, lp.rhs)
            )

        feasible = [
            solve_ip(lp).assignment,
            tuple(F(2) if j < g.n else F(0) for j in range(nv)),
            tuple(F(2) * v for v in solve_lp(
                build_opt_model(g, 1, integral=False)).assignment),
        ]
        # nudges of the feasible ones (a pebble fewer at a placement vertex,
        # a move more over a used arc), the empty placement, one pebble
        # everywhere, and random sparse rationals, some negative
        rng = random.Random(name)
        others = [(F(0),) * nv, (F(1),) * g.n + (F(0),) * (nv - g.n)]
        for x in feasible:
            for j in (j for j in range(nv) if x[j]):
                step = -1 if j < g.n else 1
                others.append(x[:j] + (x[j] + step,) + x[j + 1:])
        for _ in range(20):
            others.append(tuple(
                F(rng.randint(-1, 3), rng.randint(1, 3)) if rng.random() < 0.3 else F(0)
                for _ in range(nv)
            ))
        for x in feasible:
            assert dense(x) and lp.check(x)
        verdicts = [dense(x) for x in others]
        assert [lp.check(x) for x in others] == verdicts
        assert not all(verdicts)

    def test_integrality_flags_follow_request(self):
        g = make_family("path", 3)
        assert build_opt_model(g, 1, integral=True).integral is True
        assert build_opt_model(g, 1, integral=False).integral is False

    def test_model_carries_its_graph(self):
        g = make_family("cycle", 5)
        assert build_opt_model(g, 1, integral=False).graph is g


class TestRelaxation:
    @pytest.mark.parametrize(
        "family,params,expected",
        [
            ("complete", (2,), F(4, 3)),
            ("complete", (3,), F(3, 2)),
            ("complete", (4,), F(8, 5)),
            ("complete", (5,), F(5, 3)),
            ("complete", (6,), F(12, 7)),
            ("hypercube", (1,), F(4, 3)),
            ("hypercube", (2,), F(16, 9)),
            ("hypercube", (3,), F(64, 27)),
            ("cycle", (4,), F(16, 9)),
            ("cycle", (5,), F(2)),
            ("cycle", (6,), F(16, 7)),
        ],
    )
    def test_known_fractional_optima(self, family, params, expected):
        g = make_family(family, *params)
        assert optimal_fractional_pebbling(g) == expected

    def test_weight_lp_matches_flow_lp_on_catalog(self):
        # Most of these graphs are not vertex-transitive, so the uniform
        # cross-check inside optimal_fractional_pebbling says nothing there.
        graphs = [
            g for g in load_catalog("connected_up_to_6") if 2 <= g.n <= 5
        ]
        assert len(graphs) == 30
        for g in graphs:
            flow = solve_lp(build_opt_model(g, 1, integral=False)).objective
            assert optimal_fractional_pebbling(g) == flow

    def test_disconnected_graph_is_rejected(self):
        with pytest.raises(GraphError):
            optimal_fractional_pebbling(Graph(4, [(0, 1), (2, 3)]))

    def test_weight_rows_stay_exact_past_64_bits(self):
        # diameter 69: the root's own coefficient 2^69 does not fit int64
        g = make_family("path", 70)
        dist = g.distances.tolist()
        rows, rhs = _weight_rows(g, 1)
        assert rows == tuple(
            tuple(1 << (69 - dist[v][r]) for v in range(g.n)) for r in range(g.n)
        )
        assert rhs == (1 << 69,) * g.n

    def test_solution_rechecks_every_row_exactly(self):
        lp = build_opt_model(make_family("cycle", 5), 1, integral=False)
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert lp.check(sol.assignment)
        dot = sum(
            (F(c) * v for c, v in zip(lp.objective, sol.assignment)), F(0)
        )
        assert dot == sol.objective == 2

    @pytest.mark.parametrize("family,params", [("complete", (3,)), ("cycle", (4,))])
    @pytest.mark.parametrize("t", [2, 3])
    def test_objective_scales_linearly_in_t(self, family, params, t):
        g = make_family(family, *params)
        base = solve_lp(build_opt_model(g, 1, integral=False)).objective
        scaled = solve_lp(build_opt_model(g, t, integral=False)).objective
        assert scaled == t * base

    def test_rejects_integral_model(self):
        lp = build_opt_model(make_family("complete", 3), 1, integral=True)
        with pytest.raises(ValueError, match="relaxed"):
            solve_lp(lp)

    def test_json_serialization_uses_exact_strings(self):
        lp = build_opt_model(make_family("cycle", 4), 1, integral=False)
        obj = solve_lp(lp).to_json()
        assert obj["status"] == "optimal"
        assert obj["objective"] == "16/9"
        assert all(isinstance(v, str) for v in obj["assignment"])


class TestUniformMass:
    @pytest.mark.parametrize(
        "family,params,expected",
        [
            ("complete", (2,), F(3, 2)),
            ("complete", (4,), F(5, 2)),
            ("complete", (6,), F(7, 2)),
            ("hypercube", (1,), F(3, 2)),
            ("hypercube", (2,), F(9, 4)),
            ("hypercube", (3,), F(27, 8)),
            ("cycle", (5,), F(5, 2)),
        ],
    )
    def test_known_values(self, family, params, expected):
        g = make_family(family, *params)
        assert vertex_transitive_m(g, 0) == expected

    def test_constant_over_roots_when_transitive(self):
        g = make_family("cycle", 6)
        vals = {vertex_transitive_m(g, r) for r in range(g.n)}
        assert len(vals) == 1

    def test_varies_over_roots_on_a_path(self):
        g = make_family("path", 3)
        assert vertex_transitive_m(g, 0) == F(7, 4)
        assert vertex_transitive_m(g, 1) == F(2)


class TestIntegerOptimum:
    @pytest.mark.parametrize(
        "family,params,t,expected",
        [
            ("complete", (3,), 1, 2),
            ("cycle", (4,), 1, 3),
            ("cycle", (5,), 1, 4),
            ("path", (4,), 1, 3),
            ("path", (3,), 2, 4),
            ("complete", (4,), 2, 4),
            ("cycle", (5,), 2, 5),
            ("wheel", (4,), 2, 4),
            ("hypercube", (2,), 2, 4),
            ("complete", (3,), 3, 5),
            ("cycle", (4,), 3, 6),
            ("path", (3,), 3, 5),
            # t above the default Budget's max_t: the model fixes t
            ("path", (3,), 5, 9),
        ],
    )
    def test_known_values(self, family, params, t, expected):
        g = make_family(family, *params)
        sol = solve_ip(build_opt_model(g, t, integral=True))
        assert sol.status == "optimal"
        assert sol.objective == expected

    @pytest.mark.parametrize("t", [1, 2])
    def test_matches_brute_force_on_small_catalog(self, t):
        for g in load_catalog("connected_up_to_6", max_n=4):
            ip = solve_ip(build_opt_model(g, t, integral=True))
            assert ip.objective == optimal_pebbling_number(g, t).value

    def test_assignment_is_integral_and_feasible(self):
        lp = build_opt_model(make_family("complete", 4), 2, integral=True)
        sol = solve_ip(lp)
        assert all(v.denominator == 1 for v in sol.assignment)
        assert lp.check(sol.assignment)
        placement = sol.assignment[: lp.graph.n]
        assert sum(placement) == sol.objective

    @pytest.mark.parametrize(
        "family,params,t",
        [("complete", (3,), 1), ("cycle", (4,), 2), ("cycle", (5,), 1)],
    )
    def test_relaxation_bounds_integer_optimum(self, family, params, t):
        g = make_family(family, *params)
        lo = solve_lp(build_opt_model(g, t, integral=False)).objective
        hi = solve_ip(build_opt_model(g, t, integral=True)).objective
        assert lo <= hi

    def test_rejects_relaxed_model(self):
        lp = build_opt_model(make_family("complete", 3), 1, integral=False)
        with pytest.raises(ValueError, match="integral"):
            solve_ip(lp)

    def test_requires_model_built_from_graph(self):
        lp = build_opt_model(make_family("complete", 3), 1, integral=True)
        bare = dataclasses.replace(lp, graph=None)
        with pytest.raises(ValueError, match="graph"):
            solve_ip(bare)

    def test_node_budget_refusal(self):
        lp = build_opt_model(make_family("cycle", 5), 1, integral=True)
        with pytest.raises(BudgetExceededError, match="node budget"):
            solve_ip(lp, budget=Budget(scan_nodes=1))

    def test_wall_clock_budget_refusal(self):
        # The full solve (pi*_4(P_8) = 15) takes over 100x this deadline.
        lp = build_opt_model(make_family("path", 8), 4, integral=True)
        started = time.monotonic()
        with pytest.raises(BudgetExceededError, match="wall-clock") as info:
            solve_ip(lp, budget=Budget(wall_secs=0.05))
        assert time.monotonic() - started < 1.0
        assert info.value.best_lower >= 4
        assert info.value.best_upper == 32


class TestPivotPath:
    """Whole assignments frozen from the dense-pivot simplex. The simplex
    picks among many optimal vertices, so these pin its pivot path, which
    rationalize_to_integer's scaling depends on."""

    def test_flow_assignments_are_unchanged(self):
        cycle4 = solve_lp(build_opt_model(make_family("cycle", 4), 1, integral=False))
        assert cycle4.to_json() == {
            "status": "optimal",
            "objective": "16/9",
            "assignment": ["4/9"] * 4 + [
                "0", "0", "1/3", "0", "2/9", "0", "2/9", "0",
                "2/9", "0", "0", "0", "1/3", "0", "0", "2/9",
                "2/9", "0", "0", "1/3", "0", "0", "0", "2/9",
                "0", "2/9", "0", "2/9", "0", "1/3", "0", "0",
            ],
        }
        k3 = solve_lp(build_opt_model(make_family("complete", 3), 1, integral=False))
        assert k3.to_json() == {
            "status": "optimal",
            "objective": "3/2",
            "assignment": ["1/2"] * 3 + [
                "0", "0", "1/4", "0", "1/4", "0", "1/4", "0", "0",
                "0", "0", "1/4", "0", "1/4", "0", "1/4", "0", "0",
            ],
        }

    def test_integer_assignment_is_unchanged(self):
        # the placement (4, 0, 0, 0) with two moves along each arc from
        # vertex 0 to the root: p_1_0_1, p_2_0_2 and p_3_0_3
        sol = solve_ip(build_opt_model(make_family("complete", 4), 2, integral=True))
        want = [0] * 52
        want[0] = 4
        want[16] = want[29] = want[42] = 2
        assert sol.assignment == tuple(F(v) for v in want)


class TestRationalization:
    def test_triangle_scales_to_four_fold(self):
        g = make_family("complete", 3)
        sol = solve_lp(build_opt_model(g, 1, integral=False))
        t, D = rationalize_to_integer(g, sol)
        assert (t, D.counts) == (4, (2, 2, 2))
        assert F(D.size, t) == sol.objective == F(3, 2)
        assert is_solvable_distribution(g, D, t, Budget(max_t=4))

    def test_square_cycle_scales_to_nine_fold(self):
        g = make_family("cycle", 4)
        sol = solve_lp(build_opt_model(g, 1, integral=False))
        t, D = rationalize_to_integer(g, sol)
        assert (t, D.counts) == (9, (4, 4, 4, 4))
        assert F(D.size, t) == sol.objective == F(16, 9)

    def test_integral_optimum_passes_through_unscaled(self):
        g = make_family("complete", 3)
        sol = solve_ip(build_opt_model(g, 1, integral=True))
        t, D = rationalize_to_integer(g, sol)
        assert t == 1
        assert D.counts == tuple(int(v) for v in sol.assignment[:3])
        assert D.size == sol.objective == 2

    def test_requires_an_optimal_solution(self):
        g = make_family("complete", 3)
        with pytest.raises(ValueError, match="optimal"):
            rationalize_to_integer(g, LpSolution(status="infeasible"))


class TestFractionalIntegerInterplay:
    @pytest.mark.parametrize(
        "family,params", [("complete", (3,)), ("cycle", (4,)), ("path", (3,))]
    )
    def test_integer_ratio_dominates_fractional_optimum(self, family, params):
        g = make_family(family, *params)
        frac = optimal_fractional_pebbling(g)
        for t in (1, 2, 3):
            ip = solve_ip(build_opt_model(g, t, integral=True))
            assert F(ip.objective, t) >= frac

    def test_weighted_mass_domination_orders_sizes(self):
        # Uniform 1/m pebbles per vertex aims exactly one unit of weighted
        # mass at every root; any solvable distribution aims at least that
        # much, and its total size can only be larger.
        g = make_family("cycle", 5)
        m = vertex_transitive_m(g, 0)
        uniform = [F(1) / m] * g.n
        dist = g.distances

        def mass_at(vals, v):
            return sum(
                F(vals[r]) / (1 << int(dist[v, r])) for r in range(g.n)
            )

        assert all(mass_at(uniform, v) == 1 for v in range(g.n))
        for counts in [(4, 0, 0, 0, 0), (1, 1, 1, 1, 1), (2, 0, 0, 2, 0)]:
            assert is_solvable_distribution(g, PebbleDistribution(counts), 1)
            assert all(
                mass_at(uniform, v) <= mass_at(counts, v) for v in range(g.n)
            )
            assert sum(uniform) <= sum(counts)


class TestExportFormat:
    def test_objective_and_row_rendering(self, tmp_path):
        lp = build_opt_model(make_family("complete", 2), 1, integral=True)
        path = export_lp(lp, tmp_path / "k2.lp")
        lines = path.read_text().splitlines()
        assert lines[0] == "Minimize"
        assert lines[1] == " obj: D_0 + D_1"
        assert lines[2] == "Subject To"
        assert lines[3] == " c0: D_0 - 2 p_0_0_1 + p_0_1_0 >= 1"
        assert lines[-1] == "End"

    def test_bounds_cover_every_variable(self, tmp_path):
        lp = build_opt_model(make_family("path", 3), 1, integral=False)
        text = (export_lp(lp, tmp_path / "p3.lp")).read_text()
        bounds = text.split("Bounds\n")[1].split("End")[0]
        for name in lp.var_names:
            assert f" {name} >= 0" in bounds

    def test_general_section_lists_integer_variables(self, tmp_path):
        g = make_family("complete", 2)
        integral = export_lp(
            build_opt_model(g, 1, integral=True), tmp_path / "int.lp"
        ).read_text()
        relaxed = export_lp(
            build_opt_model(g, 1, integral=False), tmp_path / "rel.lp"
        ).read_text()
        assert "General" in integral
        section = integral.split("General\n")[1].split("End")[0]
        assert all(f" {name}" in section for name in ("D_0", "p_1_1_0"))
        assert "General" not in relaxed
