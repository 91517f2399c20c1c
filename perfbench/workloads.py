"""The four workloads: inputs made from the seed, timed rounds, and checks
against values computed here, apart from the program.

A workload's constructor is its set-up. `inputs(i)` makes round i's inputs
outside the timed section; `run(inputs)` times them; `check(inputs, result)`
raises WrongOutput on any value the independent computation disagrees with.
Every round makes the same operations, so `failed` is the same share of
`attempted` in every run.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from pebbling import cli, engine, exact, graphs, optimize
from pebbling.catalogs import load_catalog
from pebbling.engine import PebbleDistribution

# run records and the per-round catalog files of sweep-general
OUT = Path(__file__).resolve().parent / "out"


class WrongOutput(Exception):
    """The program returned a value the independent check rejects."""


@dataclass
class RoundResult:
    wall: float  # seconds of the round's timed calls
    op_times: list[float]  # one per operation that did not fail
    outputs: list = field(default_factory=list)
    failed: int = 0
    attempted: int = 0
    cli: dict | None = None  # sweep-row figures for the trace


def _allocate_arena() -> None:
    """The first allocation of the shared memo arena belongs to set-up, as
    it does for a user's first call; nothing to do if the program no longer
    keeps one."""
    allocate = getattr(exact, "_memo_buffers", None)
    if allocate is not None:
        allocate(exact.Budget().memo_bits)


def _relabel(g: graphs.Graph, rng: random.Random) -> str:
    """graph6 of g under a random vertex relabeling: the same graph to every
    closed form, a different input to the program."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return graphs.serialize_graph6(
        graphs.Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    )


def _bfs(n: int, edges, root: int) -> list[int]:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    dist = [-1] * n
    dist[root] = 0
    frontier = [root]
    while frontier:
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def _timed_calls(calls, expected=()) -> RoundResult:
    """Run (fn, may_fail) pairs one by one, timing each."""
    res = RoundResult(wall=0.0, op_times=[])
    for fn, may_fail in calls:
        started = perf_counter()
        try:
            out = fn()
            ok = True
        except expected as exc:
            if not may_fail:
                raise
            out, ok = exc, False
        took = perf_counter() - started
        res.wall += took
        res.attempted += 1
        res.outputs.append(out)
        if ok:
            res.op_times.append(took)
        else:
            res.failed += 1
    return res


# -- cycle-scan -------------------------------------------------------------


def herscovici(n: int, t: int) -> int:
    """pi_t(C_n): t*2^k for n = 2k, (t-1)*2^k + 2*floor(2^(k+1)/3) + 1 for
    n = 2k+1."""
    k = n // 2
    if n % 2 == 0:
        return t << k
    return (t - 1) * (1 << k) + 2 * ((1 << (k + 1)) // 3) + 1


class CycleScan:
    """pebbling_number on cycles; the composition scan and the cycle oracle
    do the work, the DFS decider and the simplex stay idle."""

    # (n, t): odd and even cycles up to C_7, t <= 3; C_6/t=3 and C_7/t=2
    # carry most of the round, C_7/t=3 alone would take 14 s. An odd number
    # of cases puts one case, C_5/t=3, at the median operation, with the
    # cases beside it at a quarter and twice its time
    CASES = ((4, 3), (5, 1), (5, 2), (5, 3), (6, 1), (6, 2), (6, 3), (7, 1), (7, 2))

    def __init__(self, seed: int):
        self.seed = seed
        self.budget = exact.Budget()
        self.cycles = {n: graphs.make_family("cycle", n) for n, _ in self.CASES}
        _allocate_arena()

    def warm_up(self) -> None:
        exact.pebbling_number(graphs.make_family("cycle", 4), 2, self.budget)

    def inputs(self, i: int):
        rng = random.Random(f"cycle-scan:{self.seed}:{i}")
        return [(_relabel(self.cycles[n], rng), n, t) for n, t in self.CASES]

    def run(self, inputs) -> RoundResult:
        def op(g6, t):
            g = graphs.parse_graph6(g6)
            return g, exact.pebbling_number(g, t, self.budget)

        return _timed_calls(
            [(lambda g6=g6, t=t: op(g6, t), False) for g6, _, t in inputs]
        )

    def check(self, inputs, res: RoundResult) -> None:
        for (_, n, t), (g, stat) in zip(inputs, res.outputs):
            want = herscovici(n, t)
            if stat.value != want:
                raise WrongOutput(f"pi_{t}(C_{n}) = {stat.value}, closed form {want}")
            w = stat.witness
            if w is None or w.size != want - 1:
                raise WrongOutput(f"C_{n}, t={t}: witness {w} is not of size {want - 1}")
            if engine.is_t_fold_solvable(g, w, t):
                raise WrongOutput(f"C_{n}, t={t}: witness {w.counts} is solvable")


# -- sweep-general ----------------------------------------------------------


class SweepGeneral:
    """`pebble conjecture` / `verify` sweeps through cli.main with --jobs 1.
    Every sweep of every round reads the bundled connected_up_to_6 catalog
    under fresh vertex labels, so no graph6 string repeats (only graphs
    whose every labeling is the same, such as K_n, can)."""

    # (argv prefix, max_n, max_t); about 150 rows in a round
    SWEEPS = (
        (("conjecture", "--name", "weakdiam"), 5, 2),
        (("conjecture", "--name", "diamconj"), 5, 1),
        (("verify", "--suite", "diam2"), 5, 2),
        (("conjecture", "--name", "targets"), 4, 2),
    )

    def __init__(self, seed: int):
        self.seed = seed
        self.workdir = OUT
        self.catalog = load_catalog("connected_up_to_6")
        self.expected_rows = []
        for argv, max_n, max_t in self.SWEEPS:
            graphs_in = [g for g in self.catalog if g.n <= max_n]
            if argv[-1] == "diam2":
                graphs_in = [
                    g for g in graphs_in
                    if g.n >= 2 and max(max(_bfs(g.n, g.edges, r)) for r in range(g.n)) == 2
                ]
            self.expected_rows.append(len(graphs_in) * max_t)
        self.row_times: list[float] = []
        if not hasattr(cli, "_task"):
            raise RuntimeError("cli._task is gone: the sweep-row timer needs updating")
        _allocate_arena()

    def _row_timer(self, task):
        # times each sweep row; one clock pair per row of several ms
        def timed_task(base, fn):
            run = task(base, fn)

            def timed_run():
                started = perf_counter()
                row = run()
                self.row_times.append(perf_counter() - started)
                return row
            return timed_run
        return timed_task

    def _main(self, argv) -> tuple[int, str]:
        buf = io.StringIO()
        task = cli._task
        cli._task = self._row_timer(task)
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(list(argv))
        finally:
            cli._task = task
        return code, buf.getvalue()

    def warm_up(self) -> None:
        self._main(["verify", "--suite", "cycles", "--max-n", "4", "--max-t", "1",
                    "--format", "json", "--jobs", "1"])
        self.row_times = []

    def inputs(self, i: int):
        rng = random.Random(f"sweep-general:{self.seed}:{i}")
        self.workdir.mkdir(parents=True, exist_ok=True)
        argvs = []
        for k, (argv, max_n, max_t) in enumerate(self.SWEEPS):
            path = self.workdir / f"catalog-{os.getpid()}-{k}.g6"
            path.write_text(
                "".join(_relabel(g, rng) + "\n" for g in self.catalog if g.n <= max_n),
                encoding="ascii",
            )
            full = [*argv, "--catalog", str(path), "--max-n", str(max_n),
                    "--max-t", str(max_t), "--format", "json", "--jobs", "1"]
            if argv[0] == "conjecture":
                full += ["--artifact-dir", str(self.workdir)]
            argvs.append(full)
        return argvs

    def run(self, argvs) -> RoundResult:
        self.row_times = []
        res = RoundResult(wall=0.0, op_times=self.row_times)
        for argv in argvs:
            started = perf_counter()
            out = self._main(argv)
            res.wall += perf_counter() - started
            res.outputs.append(out)
        res.attempted = len(self.row_times)
        res.cli = {
            "cli.rows": len(self.row_times),
            "cli.row_s": sum(self.row_times),
            "cli.overhead_s": res.wall - sum(self.row_times),
        }
        return res

    def check(self, argvs, res: RoundResult) -> None:
        for argv, want, (code, text) in zip(argvs, self.expected_rows, res.outputs):
            name = " ".join(argv[:3])
            if code != 0:
                raise WrongOutput(f"{name}: exit code {code}")
            rows = json.loads(text)["rows"]
            if len(rows) != want:
                raise WrongOutput(f"{name}: {len(rows)} rows, expected {want}")
            bad = [row for row in rows if row["status"] != "pass"]
            if bad:
                raise WrongOutput(f"{name}: row not pass: {bad[0]}")

    def close(self) -> None:
        for k in range(len(self.SWEEPS)):
            (self.workdir / f"catalog-{os.getpid()}-{k}.g6").unlink(missing_ok=True)


# -- decide-batch -----------------------------------------------------------


class DecideBatch:
    """is_solvable_distribution on random distributions near the size where
    random placements turn solvable, on four fixed graphs; graphs repeat, so
    per-call context set-up shows here."""

    PER_CASE = 125
    # the deep reference decisions: both should be True (2100/4 >= 400,
    # 4200/8 >= 500), and both recurse once per move in engine.is_reachable
    DEEP = (
        (3, (2100, 0, 0), 400),
        (4, (4200, 0, 0, 0), 500),
    )

    def __init__(self, seed: int):
        self.seed = seed
        self.budget = exact.Budget()
        tree = graphs.make_family("tree", [[0, 1], [1, 2], [2, 3], [1, 4], [4, 5], [0, 6]])
        cube = graphs.make_family("hypercube", 3)
        cycle = graphs.make_family("cycle", 7)
        wheel = graphs.make_family("wheel", 5)
        # (graph, t, size at which about half of uniform random placements
        # are t-fold solvable); sizes are drawn within 2 of it
        self.cases = [
            (cube, 1, 5), (cube, 2, 8),
            (tree, 1, 7), (tree, 2, 10),
            (cycle, 1, 6), (cycle, 2, 8),
            (wheel, 1, 4), (wheel, 2, 6),
        ]
        self.paths = {n: graphs.make_family("path", n) for n, _, _ in self.DEEP}
        _allocate_arena()

    def warm_up(self) -> None:
        for g, t, size in self.cases:
            dist = [0] * g.n
            dist[0] = size
            exact.is_solvable_distribution(g, PebbleDistribution(tuple(dist)), t, self.budget)

    def inputs(self, i: int):
        rng = random.Random(f"decide-batch:{self.seed}:{i}")
        ops = []
        for g, t, center in self.cases:
            for _ in range(self.PER_CASE):
                counts = [0] * g.n
                for _ in range(center + rng.randint(-2, 2)):
                    counts[rng.randrange(g.n)] += 1
                ops.append((g, PebbleDistribution(tuple(counts)), t))
        rng.shuffle(ops)
        return ops

    def run(self, ops) -> RoundResult:
        calls = [
            (lambda g=g, d=d, t=t: exact.is_solvable_distribution(g, d, t, self.budget), False)
            for g, d, t in ops
        ]
        for n, counts, want in self.DEEP:
            g = self.paths[n]
            start = PebbleDistribution(counts)
            goal = PebbleDistribution.point(n, n - 1, want)
            calls.append((lambda g=g, s=start, q=goal: engine.is_reachable(g, s, q), True))
        return _timed_calls(calls, expected=(RecursionError,))

    def check(self, ops, res: RoundResult) -> None:
        for (g, d, t), got in zip(ops, res.outputs):
            if got != engine.is_t_fold_solvable(g, d, t):
                raise WrongOutput(f"{d.counts} on {graphs.serialize_graph6(g)}, t={t}: {got}")
        for out in res.outputs[len(ops):]:
            if not isinstance(out, RecursionError) and out is not True:
                raise WrongOutput(f"deep reference decision returned {out}")

    def solvable_share(self, ops, res: RoundResult) -> float:
        return sum(1 for out in res.outputs[:len(ops)] if out is True) / len(ops)


# -- lp-opt -----------------------------------------------------------------


def uniform_placement_value(n: int, edges) -> Fraction:
    """n / sum_v 2^-d(v, r), the fractional optimum of a vertex-transitive
    graph, by this module's own BFS from vertex 0."""
    return Fraction(n) / sum(Fraction(1, 1 << d) for d in _bfs(n, edges, 0))


class LpOpt:
    """The flow LP of optimal_fractional_pebbling on Q^3, C_8 and K_6, and
    solve_ip's branch and bound over small weight LPs on C_5. The instances
    are fixed: relabeling moves the simplex pivot path, and with it the time
    of one solve, by up to 2x. The seed orders the four solves."""

    def __init__(self, seed: int):
        self.seed = seed
        self.cases = [
            ("frac", graphs.serialize_graph6(graphs.make_family("hypercube", 3)), Fraction(64, 27)),
            ("frac", graphs.serialize_graph6(graphs.make_family("cycle", 8)), None),
            ("frac", graphs.serialize_graph6(graphs.make_family("complete", 6)), Fraction(12, 7)),
            ("ip", graphs.serialize_graph6(graphs.make_family("cycle", 5)), math.ceil(2 * 5 / 3)),
        ]
        random.Random(f"lp-opt:{seed}").shuffle(self.cases)
        _allocate_arena()

    def warm_up(self) -> None:
        optimize.optimal_fractional_pebbling(graphs.make_family("cycle", 4))
        optimize.solve_ip(optimize.build_opt_model(graphs.make_family("complete", 3), 1, integral=True))

    def inputs(self, i: int):
        return self.cases

    @staticmethod
    def _solve(kind: str, g6: str):
        g = graphs.parse_graph6(g6)
        if kind == "frac":
            return optimize.optimal_fractional_pebbling(g)
        return optimize.solve_ip(optimize.build_opt_model(g, 1, integral=True))

    def run(self, cases) -> RoundResult:
        return _timed_calls([(lambda k=k, g6=g6: self._solve(k, g6), False) for k, g6, _ in cases])

    def check(self, cases, res: RoundResult) -> None:
        for (kind, g6, closed), got in zip(cases, res.outputs):
            g = graphs.parse_graph6(g6)
            if kind == "ip":
                if got.status != "optimal" or got.objective != closed:
                    raise WrongOutput(f"pi*({g6}) = {got.objective}, want {closed}")
                continue
            uniform = uniform_placement_value(g.n, g.edges)
            if got != uniform or (closed is not None and got != closed):
                raise WrongOutput(f"pi_hat*({g6}) = {got}, want {closed or uniform}")


WORKLOADS = {
    "cycle-scan": CycleScan,
    "sweep-general": SweepGeneral,
    "decide-batch": DecideBatch,
    "lp-opt": LpOpt,
}
