"""Acceptance checks: every headline result the package promises, end to end.

Each test covers one numbered check, prints a single PASS/FAIL summary
line, and compares integers or exact rationals. There are no tolerances
anywhere in this file; one mismatched instance fails the whole check.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

from pebbling import (
    Budget,
    arbitrary_target_number,
    build_gnd,
    build_opt_model,
    complete_graph_formula,
    cycle_pebbling_formula,
    diambound_threshold,
    fractional_pebbling_number,
    gnd_lower_bound,
    load_catalog,
    make_family,
    max_pebbles_to,
    maximal_path_partition,
    optimal_fractional_pebbling,
    optimal_pebbling_number,
    pebbling_number,
    radius_bound,
    rationalize_to_integer,
    rooted_pebbling_number,
    serialize_graph6,
    solve_ip,
    solve_lp,
    tree_pebbling_formula,
    unsolvable_witness_odd,
    vertex_transitive_m,
)
from pebbling.cli import _emit_counterexamples, main
from pebbling.engine import PebbleDistribution, is_t_fold_solvable
from pebbling.graphs import diameter


def _verdict(num: int, label: str, bad: list, detail: str) -> None:
    status = "PASS" if not bad else "FAIL"
    print(f"check {num:02d} {label}: {status} ({detail})")
    assert not bad, f"check {num:02d} {label}: {len(bad)} mismatches, first: {bad[:3]}"


def test_01_tree_formula_matches_brute_force():
    """Path-partition formula equals brute force on every tree with at most
    8 vertices, for every root and rootless, t in 1..3."""
    budget = Budget(max_n=8, max_t=3)
    bad: list = []
    checked = 0
    for tree in load_catalog("trees_up_to_8"):
        if tree.n == 1:
            continue  # no edges, so no path partition to feed the formula
        for t in (1, 2, 3):
            want = tree_pebbling_formula(maximal_path_partition(tree), t)
            got = pebbling_number(tree, t, budget).value
            checked += 1
            if got != want:
                bad.append(("rootless", serialize_graph6(tree), t, got, want))
            for r in range(tree.n):
                want_r = tree_pebbling_formula(maximal_path_partition(tree, r), t)
                got_r = rooted_pebbling_number(tree, r, t, budget).value
                checked += 1
                if got_r != want_r:
                    bad.append((serialize_graph6(tree), r, t, got_r, want_r))
    _verdict(1, "tree formula equivalence", bad, f"{checked} comparisons")


def test_02_cycle_formula_matches_brute_force():
    """Closed-form cycle values equal brute force for n in 3..8, t in 1..3."""
    budget = Budget(max_n=8, max_t=3, max_pebbles=80)
    values = {}
    bad: list = []
    for n in range(3, 9):
        for t in (1, 2, 3):
            want = cycle_pebbling_formula(n, t)
            got = pebbling_number(make_family("cycle", n), t, budget).value
            values[(n, t)] = got
            if got != want:
                bad.append((n, t, got, want))
    spot = [(5, 1, 5), (6, 2, 16), (7, 2, 19)]
    bad += [(n, t, values[(n, t)], v) for n, t, v in spot if values[(n, t)] != v]
    _verdict(2, "cycle formulas", bad, f"{len(values)} pairs, 3 pinned values")


def test_03_wheel_values_and_strict_diameter_two_gap():
    """The 5-vertex wheel: pi = 5, pi_t = 4t for t in {2, 3}, and at t = 3
    the value sits strictly under the diameter-two bound pi + 4t - 4."""
    w4 = make_family("wheel", 4)
    got = {t: pebbling_number(w4, t, Budget(max_n=5, max_t=3)).value for t in (1, 2, 3)}
    bad = [(t, got[t], want) for t, want in ((1, 5), (2, 8), (3, 12)) if got[t] != want]
    cap = got[1] + 4 * 3 - 4
    if not got[3] < cap:
        bad.append(("strictness", got[3], cap))
    _verdict(3, "wheel values", bad, f"pi_t={got}, bound at t=3 is {cap}")


def test_04_radius_eccentricity_bound_holds_everywhere():
    """Every connected graph up to 6 vertices, every root, t in {1, 2}: the
    rooted value stays within the eccentricity bound."""
    budget = Budget(max_n=6, max_t=2, max_pebbles=80)
    bad: list = []
    checked = 0
    for g in load_catalog("connected_up_to_6"):
        if g.n == 1:
            continue  # eccentricity 0 is outside the bound's domain
        for r in range(g.n):
            ecc = int(g.distances[r].max())
            for t in (1, 2):
                got = rooted_pebbling_number(g, r, t, budget).value
                checked += 1
                if got > radius_bound(g.n, ecc, t):
                    bad.append((serialize_graph6(g), r, t, got))
    _verdict(4, "radius bound", bad, f"{checked} rooted instances")


def test_05_diameter_two_chain_of_bounds():
    """Diameter-2 graphs up to 6 vertices, t in 1..3:
    pi_t <= pi + 4t - 4 <= n + 4t - 3, both inequalities exact."""
    budget = Budget(max_n=6, max_t=3, max_pebbles=80)
    bad: list = []
    checked = 0
    for g in load_catalog("connected_up_to_6"):
        if g.n < 3 or diameter(g) != 2:
            continue
        pi = pebbling_number(g, 1, budget).value
        for t in (1, 2, 3):
            pi_t = pebbling_number(g, t, budget).value
            checked += 1
            if not pi_t <= pi + 4 * t - 4 <= g.n + 4 * t - 3:
                bad.append((serialize_graph6(g), t, pi_t, pi))
    _verdict(5, "diameter-2 bounds", bad, f"{checked} graph/t pairs")


def test_06_fractional_optima_exact_values():
    """The relaxation returns the known exact optima on complete graphs,
    hypercubes, and small cycles, and each equals n / m for the uniform
    root mass m of these vertex-transitive graphs."""
    cases = [(make_family("complete", n), Fraction(2 * n, n + 1)) for n in range(2, 7)]
    cases += [(make_family("hypercube", k), Fraction(4, 3) ** k) for k in (1, 2, 3)]
    cases += [
        (make_family("cycle", 4), Fraction(16, 9)),
        (make_family("cycle", 5), Fraction(2)),
        (make_family("cycle", 6), Fraction(16, 7)),
    ]
    bad: list = []
    for g, want in cases:
        got = optimal_fractional_pebbling(g)
        if got != want:
            bad.append((serialize_graph6(g), str(got), str(want)))
        uniform = Fraction(g.n) / vertex_transitive_m(g, 0)
        if got != uniform:
            bad.append((serialize_graph6(g), str(got), "n/m", str(uniform)))
    _verdict(6, "fractional optima", bad, f"{len(cases)} instances, two checks each")


def _compositions(total: int, parts: int):
    """Every placement of total pebbles on parts vertices, by stars and bars."""
    for bars in itertools.combinations(range(total + parts - 1), parts - 1):
        ends = (-1, *bars, total + parts - 1)
        yield tuple(b - a - 1 for a, b in zip(ends, ends[1:]))


def test_07_integer_program_matches_enumeration():
    """The integer optimum equals the enumeration's optimal t-solvable
    distribution size on every connected graph up to 5 vertices, t in
    {1, 2}, and the reference move engine certifies it on its own: the
    reported placement is t-fold solvable, every placement of one pebble
    fewer is not (solvability is monotone in size, so no smaller one is),
    and the value is at least the LP bound ceil(t * fractional optimum)."""
    bad: list = []
    checked = 0
    engine_checks = 0
    for g in load_catalog("connected_up_to_6", max_n=5):
        frac = optimal_fractional_pebbling(g)
        for t in (1, 2):
            sol = solve_ip(build_opt_model(g, t, integral=True))
            want = optimal_pebbling_number(g, t).value
            checked += 1
            name = serialize_graph6(g)
            if sol.status != "optimal" or sol.objective != want:
                bad.append((name, t, str(sol.objective), want))
                continue
            placement = PebbleDistribution(tuple(int(v) for v in sol.assignment[: g.n]))
            if placement.size != want or not is_t_fold_solvable(g, placement, t):
                bad.append((name, t, "witness", placement.counts))
            for comp in _compositions(want - 1, g.n):
                engine_checks += 1
                if is_t_fold_solvable(g, PebbleDistribution(comp), t):
                    bad.append((name, t, "smaller solvable", comp))
                    break
            if want < math.ceil(t * frac):
                bad.append((name, t, "below LP bound", want, str(frac)))
    _verdict(
        7, "integer optimum equals enumeration", bad,
        f"{checked} instances, {engine_checks} engine checks",
    )


def test_08_rationalized_optimum_is_engine_solvable():
    """Clearing denominators of the fractional optimum yields an integer
    distribution the move engine certifies t-fold solvable, at the exact
    per-pebble cost of the relaxation."""
    bad: list = []
    for name in ("complete:3", "cycle:4"):
        kind, n = name.split(":")
        g = make_family(kind, int(n))
        sol = solve_lp(build_opt_model(g, 1, integral=False))
        t, dist = rationalize_to_integer(g, sol)
        if Fraction(dist.size, t) != sol.objective:
            bad.append((name, dist.size, t, str(sol.objective)))
        short = min(max_pebbles_to(g, dist, r) for r in range(g.n))
        if short < t:
            bad.append((name, "engine delivers only", short, "of", t))
    _verdict(8, "rationalization", bad, "complete:3 and cycle:4 round trips")


def test_09_per_pebble_cost_descends_to_diameter_power():
    """pi_t / t is nonincreasing and never below 2^diameter, and once
    t reaches ceil((n-1)/diameter) consecutive values step by exactly
    2^diameter."""
    budget = Budget(max_pebbles=80)
    bad: list = []
    for name in ("cycle:4", "cycle:6", "complete:3", "path:3"):
        kind, n = name.split(":")
        g = make_family(kind, int(n))
        step = fractional_pebbling_number(g)  # 2^diameter
        pi = {t: pebbling_number(g, t, budget).value for t in (1, 2, 3, 4)}
        ratios = [Fraction(pi[t], t) for t in (1, 2, 3, 4)]
        if any(a < b for a, b in zip(ratios, ratios[1:])):
            bad.append((name, "ratio not nonincreasing", [str(r) for r in ratios]))
        if any(r < step for r in ratios):
            bad.append((name, "ratio fell below", step))
        for t in range(diambound_threshold(g.n, diameter(g)), 4):
            if pi[t + 1] - pi[t] != step:
                bad.append((name, t, pi[t + 1] - pi[t], step))
    _verdict(9, "per-pebble cost", bad, "4 graphs, t in 1..4")


def test_10_arbitrary_targets_cost_no_more():
    """Spreading the t target pebbles over several vertices never raises the
    price on trees, cycles, and complete graphs up to 6 vertices, and the
    three pinned diameter-d instances cost exactly 2^d * t at t = 2."""
    budget = Budget(max_n=6, max_t=2, max_pebbles=80)
    pool = list(load_catalog("trees_up_to_8", max_n=6))
    pool += [make_family("cycle", n) for n in range(3, 7)]
    pool += [make_family("complete", n) for n in range(2, 7)]
    seen: set[str] = set()
    bad: list = []
    checked = 0
    for g in pool:
        code = serialize_graph6(g)
        if code in seen:
            continue
        seen.add(code)
        for t in (1, 2):
            arb = arbitrary_target_number(g, t, budget).value
            single = pebbling_number(g, t, budget).value
            checked += 1
            if arb != single:
                bad.append((code, t, arb, single))
    for name in ("cycle:4", "cycle:6", "hypercube:2"):
        kind, n = name.split(":")
        g = make_family(kind, int(n))
        want = (1 << diameter(g)) * 2
        got = arbitrary_target_number(g, 2, budget).value
        if got != want:
            bad.append((name, 2, got, want))
    _verdict(10, "arbitrary targets", bad, f"{checked} graphs/t pairs, 3 pinned")


def test_11_extremal_family_and_unsolvable_witness():
    """The extremal recipes hit their advertised order and diameter, and the
    odd-diameter witness for n=8, d=3 is certified unsolvable by the move
    engine, forcing pi >= 14, above the closed-form lower bound of 11."""
    bad: list = []
    for n, d in ((9, 4), (8, 3)):
        g = build_gnd(n, d)
        if (g.n, diameter(g)) != (n, d):
            bad.append((n, d, g.n, diameter(g)))
    g = build_gnd(8, 3)
    root, dist = unsolvable_witness_odd(8, 3)
    if dist.size != 13:
        bad.append(("witness size", dist.size))
    if max_pebbles_to(g, dist, root) != 0:
        bad.append(("witness delivers a pebble", root))
    bound = gnd_lower_bound(8, 3)
    if not (dist.size + 1 >= bound and bound == 11):
        bad.append(("lower bound", str(bound)))
    _verdict(11, "extremal construction", bad, "n,d checks plus a 13-pebble witness")


def test_12_conjecture_sweeps_stay_clean(tmp_path, capsys):
    """Both sweep targets hold on every connected graph up to 5 vertices,
    t in {1, 2}, with zero violations; a violating row would land in the
    artifact directory rather than being swallowed."""
    bad: list = []
    rows_seen = 0
    for name in ("diamconj", "targets"):
        out = tmp_path / f"{name}.json"
        code = main([
            "conjecture", "--name", name, "--max-n", "5", "--max-t", "2",
            "--artifact-dir", str(tmp_path / name), "--format", "json",
            "--out", str(out),
        ])
        report = json.loads(out.read_text())
        rows_seen += len(report["rows"])
        if code != 0 or report["summary"]["failures"] or report["summary"]["refusals"]:
            bad.append((name, code, report["summary"]))
        if (tmp_path / name).exists() and any((tmp_path / name).iterdir()):
            bad.append((name, "unexpected counterexample artifacts"))
    # the emission path itself must write artifacts when a row does fail
    fake = [{"graph": "Dhc", "n": 5, "t": 2, "status": "fail"}]
    paths = _emit_counterexamples("diamconj", fake, str(tmp_path / "forced"))
    capsys.readouterr()
    if not (len(paths) == 1 and paths[0].exists()):
        bad.append(("forced emission", paths))
    _verdict(12, "conjecture sweeps", bad, f"{rows_seen} rows across two sweeps")
