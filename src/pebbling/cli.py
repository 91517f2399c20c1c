"""Command-line front end: compute pebbling stats, run verification sweeps
over graph catalogs, check conjectures, export LP models, and build the
extremal graphs.

Exit codes: 0 all checks pass; 1 a violation was found (theorem failure or
conjecture counterexample); 2 a budget refusal occurred; 3 usage or parse
error. Text output renders rationals as "p/q", never as decimals.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path

from . import __version__, construct
from ._kernels import BACKEND
from .catalogs import load_catalog
from .engine import PebbleDistribution
from .errors import BudgetExceededError
from .exact import (
    Budget,
    arbitrary_target_number,
    optimal_pebbling_number,
    pebbling_number,
    rooted_pebbling_number,
)
from .formulas import (
    cycle_pebbling_formula,
    diam2_bounds,
    diambound_threshold,
    fractional_pebbling_number,
    maximal_path_partition,
    radius_bound,
    tree_pebbling_formula,
)
from .graphs import (
    Graph,
    GraphError,
    diameter,
    load_graph,
    make_family,
    parse_graph6,
    serialize_graph6,
    vertex_orbits,
)
from .optimize import (
    build_opt_model,
    export_lp,
    optimal_fractional_pebbling,
    rationalize_to_integer,
    solve_lp,
    vertex_transitive_m,
)

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_REFUSAL = 2
EXIT_USAGE = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the harness reserves 2 for refusals.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@dataclass
class VerificationReport:
    """One sweep's outcome: per-instance rows plus aggregate counts."""

    suite: str
    rows: list[dict]
    elapsed_ms: float

    @property
    def summary(self) -> dict:
        statuses = [row["status"] for row in self.rows]
        return {
            "instances": len(self.rows),
            "passes": statuses.count("pass"),
            "failures": statuses.count("fail"),
            "refusals": statuses.count("refused"),
        }

    @property
    def exit_code(self) -> int:
        counts = self.summary
        if counts["failures"]:
            return EXIT_VIOLATION
        if counts["refusals"]:
            return EXIT_REFUSAL
        return EXIT_PASS

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "rows": self.rows,
            "summary": self.summary,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }


def _clean(value):
    """Make row values JSON- and text-safe; rationals become 'p/q'."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, PebbleDistribution):
        return value.to_json()
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    if isinstance(value, dict):
        return {k: _clean(v) for k, v in value.items()}
    return value


def _task(base: dict, fn):
    def run() -> dict:
        row = dict(base)
        try:
            row.update(fn())
            row.setdefault("status", "pass")
        except BudgetExceededError as exc:
            row["status"] = "refused"
            row["reason"] = str(exc)
        return {k: _clean(v) for k, v in row.items()}

    return run


# -- sweeps ----------------------------------------------------------------


class _Values:
    """One sweep's exact values by (stat, graph6, t, root), so rows that ask
    for the same value share one computation. A refusal raises through
    without being stored, so a later row retries it."""

    def __init__(self, budget: Budget):
        self.budget = budget
        self.known: dict = {}

    def __call__(self, stat, g: Graph, t: int, r: int | None = None) -> int:
        key = (stat, serialize_graph6(g), t, r)
        if key not in self.known:
            args = (g, t) if r is None else (g, r, t)
            self.known[key] = stat(*args, self.budget).value
        return self.known[key]


def _catalog(name: str, min_n: int = 0, diam: int | None = None):
    """Instances from --catalog, else from the named bundled catalog, of
    order min_n..max_n and, when diam is given, of that diameter."""

    def instances(max_n, catalog):
        graphs = catalog if catalog is not None else load_catalog(name, max_n=max_n)
        return [
            (serialize_graph6(g), g)
            for g in graphs
            if min_n <= g.n <= max_n and (diam is None or diameter(g) == diam)
        ]

    return instances


def _family(name: str, k: int) -> tuple[str, Graph]:
    return f"{name}:{k}", make_family(name, k)


def _cycles(max_n, catalog):
    return [_family("cycle", n) for n in range(3, max_n + 1)]


def _targets_instances(max_n, catalog):
    if catalog is not None:
        return [(serialize_graph6(g), g) for g in catalog if g.n <= max_n]
    return (
        _TREES(max_n, None)
        + _cycles(max_n, None)
        + [_family("complete", n) for n in range(2, max_n + 1)]
    )


def _closed_targets(max_n, catalog):
    # Even cycles and hypercubes additionally pin the closed value 2^D * t.
    fams = [_family("cycle", 4), _family("cycle", 6), _family("hypercube", 2)]
    return [(gid, g) for gid, g in fams if g.n <= max_n]


def _fracopt_families(max_n, catalog):
    fams: list[tuple[str, Graph, Fraction]] = []
    for n in range(2, 7):
        fams.append((*_family("complete", n), Fraction(2 * n, n + 1)))
    for n in range(3, 9):
        k = n // 2
        if n % 2 == 0:
            closed = Fraction(k * (1 << (k + 1)), 3 * ((1 << k) - 1))
        else:
            closed = Fraction(n * (1 << (k - 1)), 3 * (1 << (k - 1)) - 1)
        fams.append((*_family("cycle", n), closed))
    for k in range(1, 4):
        fams.append((*_family("hypercube", k), Fraction(4**k, 3**k)))
    return [(gid, g, closed) for gid, g, closed in fams if g.n <= max_n]


def _round_trips(max_n, catalog):
    pairs = [_family("complete", 3), _family("cycle", 4)]
    return [(gid, g) for gid, g in pairs if g.n <= max_n]


def _check_trees(g, t, value):
    formula = tree_pebbling_formula(maximal_path_partition(g), t)
    brute = value(pebbling_number, g, t)
    roots_ok = all(
        tree_pebbling_formula(maximal_path_partition(g, r), t)
        == value(rooted_pebbling_number, g, t, r)
        for r in range(g.n)
    )
    ok = formula == brute and roots_ok
    return {
        "formula": formula,
        "brute": brute,
        "roots_match": roots_ok,
        "status": "pass" if ok else "fail",
    }


def _check_cycles(g, t, value):
    formula = cycle_pebbling_formula(g.n, t)
    brute = value(pebbling_number, g, t)
    return {
        "formula": formula,
        "brute": brute,
        "status": "pass" if formula == brute else "fail",
    }


def _check_radius(g, t, value):
    # Eccentricity and rooted value are orbit-invariant; one
    # representative per orbit covers every root.
    worst = min(
        radius_bound(g.n, int(g.distances[orbit[0]].max()), t)
        - value(rooted_pebbling_number, g, t, orbit[0])
        for orbit in vertex_orbits(g)
    )
    return {
        "min_slack": worst,
        "status": "pass" if worst >= 0 else "fail",
    }


def _check_diam2(g, t, value):
    pi_1 = value(pebbling_number, g, 1)
    pi_t = value(pebbling_number, g, t)
    reports = [rep.with_exact(pi_t) for rep in diam2_bounds(g.n, pi_1, t)]
    ok = all(rep.slack >= 0 for rep in reports)
    row = {rep.bound: rep.value for rep in reports}
    row["pi_t"] = pi_t
    row["slack"] = min(rep.slack for rep in reports)
    row["status"] = "pass" if ok else "fail"
    return row


def _check_targets(g, t, value):
    arb = value(arbitrary_target_number, g, t)
    single = value(pebbling_number, g, t)
    return {
        "targets": arb,
        "single": single,
        "status": "pass" if arb == single else "fail",
    }


def _check_closed_targets(g, t, value):
    want = (1 << diameter(g)) * t
    arb = value(arbitrary_target_number, g, t)
    return {
        "targets": arb,
        "closed": want,
        "status": "pass" if arb == want else "fail",
    }


def _check_fracopt(g, t, value, closed):
    lp = optimal_fractional_pebbling(g)
    uniform = Fraction(g.n) / vertex_transitive_m(g, 0)
    ok = lp == closed == uniform
    return {
        "lp": lp,
        "closed": closed,
        "uniform": uniform,
        "status": "pass" if ok else "fail",
    }


def _check_round_trip(g, t, value):
    # Scale the fractional optimum to an engine-checked integer
    # distribution and confirm the size ratio survives.
    sol = solve_lp(build_opt_model(g, 1, integral=False))
    scale, dist = rationalize_to_integer(g, sol, value.budget)
    ok = Fraction(dist.size, scale) == sol.objective
    return {
        "t": scale,
        "distribution": dist,
        "ratio": Fraction(dist.size, scale),
        "status": "pass" if ok else "fail",
    }


def _check_diamconj(g, t, value):
    now = value(pebbling_number, g, t)
    nxt = value(pebbling_number, g, t + 1)
    step = 1 << diameter(g)
    # Past the threshold the step is a theorem, not a
    # conjecture: equality must hold exactly.
    regime = g.n >= 2 and t >= diambound_threshold(g.n, diameter(g))
    ok = nxt == now + step if regime else nxt <= now + step
    return {
        "pi_t": now,
        "pi_next": nxt,
        "step_cap": step,
        "regime": regime,
        "status": "pass" if ok else "fail",
    }


def _check_weakdiam(g, t, value):
    pi_1 = value(pebbling_number, g, 1)
    pi_t = value(pebbling_number, g, t)
    cap = pi_1 + (1 << diameter(g)) * (t - 1)
    return {
        "pi_t": pi_t,
        "cap": cap,
        "status": "pass" if pi_t <= cap else "fail",
    }


def _check_gnd(g, t, value):
    mine = value(pebbling_number, g, 1)
    extremal = value(pebbling_number, construct.build_gnd(g.n, diameter(g)), 1)
    return {
        "pi": mine,
        "extremal_pi": extremal,
        "status": "pass" if mine <= extremal else "fail",
    }


@dataclass(frozen=True)
class Sweep:
    """A verify suite or a conjecture: its (instances, check) parts, run in
    order; its default (max_n, max_t); whether each instance gets one row
    per t in 1..max_t or a single row; and whether any part reads
    --catalog (a sweep with fixed instances refuses the flag)."""

    parts: tuple
    defaults: tuple[int, int]
    per_t: bool = True
    reads_catalog: bool = True


_TREES = _catalog("trees_up_to_8", min_n=2)
_CONNECTED = _catalog("connected_up_to_6")
_CONNECTED_2 = _catalog("connected_up_to_6", min_n=2)

SUITES = {
    "trees": Sweep(((_TREES, _check_trees),), (8, 3)),
    "cycles": Sweep(((_cycles, _check_cycles),), (8, 3), reads_catalog=False),
    "radius": Sweep(((_CONNECTED_2, _check_radius),), (6, 2)),
    "diam2": Sweep(
        ((_catalog("connected_up_to_6", min_n=2, diam=2), _check_diam2),), (6, 3)
    ),
    "targets": Sweep(
        (
            (_targets_instances, _check_targets),
            (_closed_targets, _check_closed_targets),
        ),
        (6, 2),
    ),
    "fracopt": Sweep(
        ((_fracopt_families, _check_fracopt), (_round_trips, _check_round_trip)),
        (8, 1),
        per_t=False,
        reads_catalog=False,
    ),
}

CONJECTURES = {
    "diamconj": Sweep(((_CONNECTED, _check_diamconj),), (5, 2)),
    "weakdiam": Sweep(((_CONNECTED, _check_weakdiam),), (5, 3)),
    "targets": Sweep(((_CONNECTED, _check_targets),), (5, 2)),
    "gnd": Sweep(((_CONNECTED_2, _check_gnd),), (6, 1), per_t=False),
}


def _run_sweep(name: str, sweep: Sweep, args) -> VerificationReport:
    if args.catalog is not None and not sweep.reads_catalog:
        raise ValueError(f"--catalog: {name} runs fixed instances, not a catalog")
    max_n = args.max_n or sweep.defaults[0]
    max_t = args.max_t or sweep.defaults[1]
    value = _Values(
        Budget(
            max_n=max(8, max_n),
            max_t=max(4, max_t + 1),
            max_pebbles=args.max_pebbles or 80,
        )
    )
    catalog = _read_catalog(args.catalog)
    started = time.perf_counter()
    tasks = []
    for instances, check in sweep.parts:
        for gid, g, *extra in instances(max_n, catalog):
            base = {"graph": gid, "n": g.n, "diameter": diameter(g)}
            for t in range(1, max_t + 1) if sweep.per_t else (None,):
                row = base if t is None else {**base, "t": t}
                tasks.append(_task(row, partial(check, g, t, value, *extra)))
    rows = [run() for run in tasks]
    return VerificationReport(name, rows, (time.perf_counter() - started) * 1000)


# -- output plumbing -----------------------------------------------------


def _report_text(report: VerificationReport) -> str:
    counts = report.summary
    lines = [
        f"suite {report.suite}: {counts['instances']} instances, "
        f"{counts['passes']} passes, {counts['failures']} failures, "
        f"{counts['refusals']} refusals ({report.elapsed_ms:.0f} ms)"
    ]
    for row in report.rows:
        tag = {"pass": "ok  ", "fail": "FAIL", "refused": "SKIP"}[row["status"]]
        detail = " ".join(
            f"{k}={v}" for k, v in row.items() if k != "status"
        )
        lines.append(f"{tag} {detail}")
    return "\n".join(lines) + "\n"


def _flatten_csv(rows: list[dict]) -> str:
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(columns)
    for i, row in enumerate(rows):
        record = []
        for key in columns:
            value = row.get(key, "")
            # nested witnesses are referenced by row id, not inlined
            record.append(f"w{i}" if isinstance(value, (list, dict)) else value)
        writer.writerow(record)
    return buf.getvalue()


def _write_output(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _emit_report(report: VerificationReport, args) -> None:
    if args.format == "json":
        _write_output(json.dumps(report.to_json(), indent=2) + "\n", args.out)
    elif args.format == "csv":
        _write_output(_flatten_csv(report.rows), args.out)
    else:
        _write_output(_report_text(report), args.out)


def _emit_counterexamples(name: str, rows: list[dict], outdir: str) -> list[Path]:
    paths = []
    fails = [row for row in rows if row["status"] == "fail"]
    if fails:
        Path(outdir).mkdir(parents=True, exist_ok=True)
    for i, row in enumerate(fails):
        path = Path(outdir) / f"counterexample-{name}-{i}.json"
        path.write_text(
            json.dumps({"conjecture": name, **row}, indent=2) + "\n",
            encoding="utf-8",
        )
        print(f"counterexample written: {path}", file=sys.stderr)
        paths.append(path)
    return paths


# -- subcommands ----------------------------------------------------------


def _read_catalog(path: str | None):
    if path is None:
        return None
    graphs = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if line:
                graphs.append(parse_graph6(line))
    return graphs


def _exact(stat):
    return lambda g, args, budget: stat(g, args.t, budget).to_json()


def _rooted(g: Graph, args, budget: Budget) -> dict:
    if args.root is None:
        raise ValueError("--root is required for pi_rooted")
    return rooted_pebbling_number(g, args.root, args.t, budget).to_json()


def _formula(kind: str, compute):
    def stat(g: Graph, args, budget: Budget) -> dict:
        started = time.perf_counter()
        return {
            "graph": serialize_graph6(g),
            "kind": kind,
            "t": None,
            "value": _clean(compute(g)),
            "witness": None,
            "elapsed_ms": round((time.perf_counter() - started) * 1000, 3),
            "enumerated_count": 0,
        }

    return stat


# each --stat and how to compute its JSON record; pi_t is an alias of pi
STATS = {
    "pi": _exact(pebbling_number),
    "pi_t": _exact(pebbling_number),
    "pi_rooted": _rooted,
    "pi_star": _exact(optimal_pebbling_number),
    "pi_arb": _exact(arbitrary_target_number),
    "pi_hat": _formula("pi_hat", fractional_pebbling_number),
    "pi_hat_star": _formula("pi_hat_star", optimal_fractional_pebbling),
}


def _cmd_compute(args) -> int:
    g = load_graph(args.graph)
    flags = {key: getattr(args, key) for key in ("max_n", "max_t", "max_pebbles")}
    budget = Budget(**{key: val for key, val in flags.items() if val is not None})
    stat = STATS[args.stat](g, args, budget)
    if args.format == "json":
        _write_output(json.dumps(stat, indent=2) + "\n", args.out)
    elif args.format == "csv":
        _write_output(_flatten_csv([stat]), args.out)
    else:
        lines = [str(stat["value"])]
        if stat.get("witness") is not None:
            lines.append(f"witness: {stat['witness']}")
        _write_output("\n".join(lines) + "\n", args.out)
    return EXIT_PASS


def _cmd_verify(args) -> int:
    report = _run_sweep(args.suite, SUITES[args.suite], args)
    _emit_report(report, args)
    return report.exit_code


def _cmd_conjecture(args) -> int:
    report = _run_sweep(args.name, CONJECTURES[args.name], args)
    _emit_report(report, args)
    _emit_counterexamples(args.name, report.rows, args.artifact_dir)
    return report.exit_code


def _cmd_export_lp(args) -> int:
    g = load_graph(args.graph)
    lp = build_opt_model(g, args.t, integral=args.integral)
    path = export_lp(lp, args.out)
    print(path)
    return EXIT_PASS


def _cmd_build_gnd(args) -> int:
    g = construct.build_gnd(args.n, args.d)
    payload: dict = {
        "n": g.n,
        "d": args.d,
        "graph6": serialize_graph6(g),
        "edges": [list(e) for e in g.edges],
    }
    if args.witness:
        if args.d % 2 == 0:
            raise ValueError("--witness requires an odd diameter")
        root, dist = construct.unsolvable_witness_odd(args.n, args.d)
        payload["witness"] = {
            "root": root,
            "distribution": dist.to_json(),
            "size": dist.size,
        }
    if args.format == "text":
        lines = [payload["graph6"]]
        if "witness" in payload:
            wit = payload["witness"]
            lines.append(
                f"unsolvable for root {wit['root']}: {wit['distribution']}"
            )
        _write_output("\n".join(lines) + "\n", args.out)
    else:
        _write_output(json.dumps(payload, indent=2) + "\n", args.out)
    return EXIT_PASS


# -- argument wiring ------------------------------------------------------


def _add_output_flags(sub, default_format="text"):
    sub.add_argument(
        "--format", choices=("json", "csv", "text"), default=default_format
    )
    sub.add_argument("--out", help="write output to this file instead of stdout")


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _add_budget_flags(sub):
    sub.add_argument("--max-n", type=_positive_int, dest="max_n")
    sub.add_argument("--max-t", type=_positive_int, dest="max_t")
    sub.add_argument("--max-pebbles", type=_positive_int, dest="max_pebbles")


def _add_sweep_flags(sub):
    sub.add_argument("--catalog", help="graph6 file overriding the instance set")
    # rows run one at a time, in the calling thread
    sub.add_argument("--jobs", type=int, choices=(1,), default=1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pebble",
        description="Exact graph pebbling computations and sweeps.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"pebble {__version__}, kernels: {BACKEND}",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    compute = subs.add_parser("compute", help="one stat for one graph")
    compute.add_argument("graph", help="family:params, file.g6, or file.json")
    compute.add_argument("--stat", choices=STATS, required=True)
    compute.add_argument("--t", type=int, default=1)
    compute.add_argument("--root", type=int)
    _add_output_flags(compute)
    _add_budget_flags(compute)
    compute.set_defaults(func=_cmd_compute)

    verify = subs.add_parser("verify", help="run a theorem verification sweep")
    verify.add_argument("--suite", choices=SUITES, required=True)
    _add_sweep_flags(verify)
    _add_output_flags(verify)
    _add_budget_flags(verify)
    verify.set_defaults(func=_cmd_verify)

    conj = subs.add_parser("conjecture", help="sweep a conjecture for counterexamples")
    conj.add_argument("--name", choices=CONJECTURES, required=True)
    _add_sweep_flags(conj)
    conj.add_argument(
        "--artifact-dir",
        default=".",
        help="directory for counterexample JSON artifacts",
    )
    _add_output_flags(conj)
    _add_budget_flags(conj)
    conj.set_defaults(func=_cmd_conjecture)

    export = subs.add_parser("export-lp", help="write the optimization model")
    export.add_argument("graph", help="family:params, file.g6, or file.json")
    export.add_argument("--t", type=int, default=1)
    group = export.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--int", dest="integral", action="store_true", help="integer program"
    )
    group.add_argument(
        "--frac", dest="integral", action="store_false", help="continuous relaxation"
    )
    export.add_argument("--out", required=True, help="output .lp path")
    export.set_defaults(func=_cmd_export_lp)

    gnd = subs.add_parser("build-gnd", help="build the extremal diameter-d graph")
    gnd.add_argument("n", type=int)
    gnd.add_argument("d", type=int)
    gnd.add_argument(
        "--witness",
        action="store_true",
        help="include the unsolvable distribution (odd d only)",
    )
    _add_output_flags(gnd, default_format="json")
    gnd.set_defaults(func=_cmd_build_gnd)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSAL
    except (GraphError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
