"""Distribution/flow optimization models solved in exact rational arithmetic.

Two models describe t-fold delivery to every root. The weight LP has one
variable per vertex (pebbles placed there) and one row per root r: the
placement's mass toward r, sum_v D_v 2^-dist(v, r), is at least t. The
optimal fractional pebbling number comes from it. The flow model adds, for
every root choice and every directed edge, a flow variable for the moves
sent across that edge while delivering to that root; net-gain rows say each
root collects t pebbles and no other vertex is overdrawn. It serves
solve_lp, export_lp, solve_ip's reported assignment and
rationalize_to_integer, whose flow certificate fixes the scaling. Both are
solved by a Fraction-arithmetic simplex (largest reduced cost pivoting,
falling back to Bland's rule after an iteration cap so termination is
guaranteed). The integer optimum is the exact enumeration's optimal
pebbling number, reported with integral flows from move witnesses and
checked against the flow model. No floating point enters anywhere, so
optima like 16/9 come out exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

from pebbling.engine import PebbleDistribution, _scaled_weights, is_reachable, weight
from pebbling.errors import BudgetExceededError
from pebbling.exact import Budget, is_solvable_distribution, optimal_pebbling_number
from pebbling.graphs import Graph, is_vertex_transitive

__all__ = [
    "LinearProgram",
    "LpSolution",
    "build_opt_model",
    "solve_lp",
    "solve_ip",
    "optimal_fractional_pebbling",
    "vertex_transitive_m",
    "rationalize_to_integer",
    "export_lp",
]


@dataclass(frozen=True)
class LinearProgram:
    """Minimize objective . x subject to rows[i] . x >= rhs[i], x >= 0.

    All coefficients are integers. The first graph.n variables are the
    per-vertex placement counts; the rest are flows named p_{root}_{from}_{to}.
    integral says whether every variable is an integer (solve_ip) or all are
    continuous (solve_lp).
    """

    var_names: tuple[str, ...]
    objective: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]
    rhs: tuple[int, ...]
    integral: bool
    t: int
    graph: Graph | None = None

    def check(self, x: tuple[Fraction, ...]) -> bool:
        """Exact feasibility of an assignment against every row and x >= 0."""
        if len(x) != len(self.var_names):
            return False
        if any(v < 0 for v in x):
            return False
        # most of x and of every row is zero; skipping those terms leaves
        # each sum exact
        nz = [(j, v) for j, v in enumerate(x) if v]
        return all(
            sum(row[j] * v for j, v in nz if row[j]) >= b
            for row, b in zip(self.rows, self.rhs)
        )


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    objective: Fraction | None = None
    assignment: tuple[Fraction, ...] | None = None

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "objective": None if self.objective is None else str(self.objective),
            "assignment": None
            if self.assignment is None
            else [str(v) for v in self.assignment],
        }


def build_opt_model(g: Graph, t: int, integral: bool) -> LinearProgram:
    """Net-gain model: for each root i and vertex v, placed pebbles plus
    incoming flow minus twice the outgoing flow is at least t at the root
    and at least 0 elsewhere."""
    g.require_connected()
    if t < 1:
        raise ValueError("t must be >= 1")
    n = g.n
    arcs = [(u, v) for u in range(n) for v in g.neighbors(u)]
    names = [f"D_{k}" for k in range(n)]
    col = {}
    for i in range(n):
        for u, v in arcs:
            col[(i, u, v)] = len(names)
            names.append(f"p_{i}_{u}_{v}")
    nv = len(names)
    rows, rhs = [], []
    for i in range(n):
        for v in range(n):
            coeffs = [0] * nv
            coeffs[v] = 1
            for x in g.neighbors(v):
                coeffs[col[(i, x, v)]] += 1
                coeffs[col[(i, v, x)]] -= 2
            rows.append(tuple(coeffs))
            rhs.append(t if v == i else 0)
    return LinearProgram(
        var_names=tuple(names),
        objective=tuple(1 if k < n else 0 for k in range(nv)),
        rows=tuple(rows),
        rhs=tuple(rhs),
        integral=integral,
        t=t,
        graph=g,
    )


def _weight_rows(
    g: Graph, t: int
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Rows sum_v D_v 2^-dist(v, r) >= t, one per root r, scaled by
    2^(max distance): row r is column r of the engine's integer weight
    table. Delivering along shortest paths shows a fractional flow to r
    exists exactly when this weighted mass reaches t, and no move increases
    it."""
    wint, maxd = _scaled_weights(g)
    return tuple(map(tuple, wint.T.tolist())), tuple(t << maxd for _ in range(g.n))


# --- exact simplex -----------------------------------------------------------

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _pivot(tab, basis, row, colj):
    """Pivot on tab[row][colj] in place; returns the pivot row's nonzero
    (column, value) pairs after scaling. Most of a pivot row is zero, and
    a - f * 0 == a exactly, so only those columns are touched: the tableau
    is the same as a dense update would give."""
    prow = tab[row]
    inv = _ONE / prow[colj]
    nz = []
    for j, a in enumerate(prow):
        if a:
            prow[j] = a = a * inv
            nz.append((j, a))
    for i, r in enumerate(tab):
        f = r[colj]
        if f and i != row:
            for j, b in nz:
                r[j] -= f * b
    basis[row] = colj
    return nz


def _entering(zrow, ncols, allowed, bland):
    best, bestval = None, _ZERO
    for j in range(ncols):
        if not allowed[j]:
            continue
        v = zrow[j]
        if v < 0:
            if bland:
                return j
            if best is None or v < bestval:
                best, bestval = j, v
    return best


def _leaving(tab, basis, colj, m):
    best_ratio, best_row = None, None
    for i in range(m):
        a = tab[i][colj]
        if a > 0:
            ratio = tab[i][-1] / a
            if (
                best_ratio is None
                or ratio < best_ratio
                or (ratio == best_ratio and basis[i] < basis[best_row])
            ):
                best_ratio, best_row = ratio, i
    return best_row


def _run_simplex(tab, basis, zrow, ncols, allowed):
    """Pivot to optimality in place; returns 'optimal' or 'unbounded'."""
    m = len(tab)
    dantzig_budget = 200 + 20 * (m + ncols)
    iters = 0
    while True:
        iters += 1
        colj = _entering(zrow, ncols, allowed, bland=iters > dantzig_budget)
        if colj is None:
            return "optimal"
        row = _leaving(tab, basis, colj, m)
        if row is None:
            return "unbounded"
        nz = _pivot(tab, basis, row, colj)
        f = zrow[colj]
        if f:
            for j, b in nz:
                zrow[j] -= f * b


def _solve_rows(
    rows, rhs, objective, nvars
) -> tuple[str, Fraction | None, list[Fraction] | None]:
    """Two-phase simplex for: minimize objective . x, rows . x >= rhs, x >= 0."""
    m = len(rows)
    # Equality form with one surplus per row (sign-flipped so rhs >= 0), plus
    # one artificial per row for a trivially feasible starting basis.
    ncols = nvars + 2 * m
    tab = []
    for i in range(m):
        coeffs = list(rows[i])
        b = rhs[i]
        s = -1
        if b < 0:
            coeffs = [-a for a in coeffs]
            b = -b
            s = 1
        line = [Fraction(a) for a in coeffs] + [_ZERO] * (2 * m) + [Fraction(b)]
        line[nvars + i] = Fraction(s)
        line[nvars + m + i] = _ONE
        tab.append(line)
    basis = [nvars + m + i for i in range(m)]

    # Phase one: drive the artificial total to zero.
    zrow = [_ZERO] * (ncols + 1)
    for line in tab:
        for j, a in enumerate(line):
            if a:
                zrow[j] -= a
    for i in range(m):
        zrow[nvars + m + i] = _ZERO
    allowed = [True] * ncols
    status = _run_simplex(tab, basis, zrow, ncols, allowed)
    assert status == "optimal", "phase one is always bounded"
    if -zrow[-1] != 0:
        return "infeasible", None, None
    for i in range(m):
        if basis[i] >= nvars + m:
            # Degenerate artificial still basic at zero: swap it for any real
            # column, or drop the redundant row.
            for j in range(nvars + m):
                if tab[i][j] != 0:
                    _pivot(tab, basis, i, j)
                    break
    live = [i for i in range(m) if basis[i] < nvars + m]
    tab = [tab[i] for i in live]
    basis = [basis[i] for i in live]
    for j in range(nvars + m, ncols):
        allowed[j] = False

    # Phase two: the real objective, priced from the current basis.
    cost = [Fraction(c) for c in objective] + [_ZERO] * (2 * m + 1)
    zrow = list(cost)
    for i, line in enumerate(tab):
        f = cost[basis[i]]
        if f:
            for j, a in enumerate(line):
                if a:
                    zrow[j] -= f * a
    status = _run_simplex(tab, basis, zrow, ncols, allowed)
    if status == "unbounded":
        return "unbounded", None, None
    x = [_ZERO] * nvars
    for i, bj in enumerate(basis):
        if bj < nvars:
            x[bj] = tab[i][-1]
    value = sum(Fraction(c) * v for c, v in zip(objective, x))
    # Termination left no improving column, and the basic solution must
    # satisfy the original system exactly.
    assert all(zrow[j] >= 0 for j in range(ncols) if allowed[j])
    assert all(
        sum(a * v for a, v in zip(row, x)) >= b for row, b in zip(rows, rhs)
    )
    assert all(v >= 0 for v in x)
    return "optimal", value, x


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Exact optimum of the continuous relaxation."""
    if lp.integral:
        raise ValueError("solve_lp expects a fully relaxed model")
    status, value, x = _solve_rows(
        lp.rows, lp.rhs, lp.objective, len(lp.var_names)
    )
    if status != "optimal":
        return LpSolution(status=status)
    sol = LpSolution(status="optimal", objective=value, assignment=tuple(x))
    assert lp.check(sol.assignment)
    return sol


def _flows_from_moves(lp: LinearProgram, g: Graph, D: PebbleDistribution):
    """Integral flow assignment realizing D: one reference-engine move
    witness per root, each asserted reachable, counted onto that root's arc
    variables."""
    x = [_ZERO] * len(lp.var_names)
    for v in range(g.n):
        x[v] = Fraction(D[v])
    name_to_col = {name: j for j, name in enumerate(lp.var_names)}
    for i in range(g.n):
        ok, moves = is_reachable(
            g, D, PebbleDistribution.point(g.n, i, lp.t), want_moves=True
        )
        assert ok
        for u, v in moves.moves:
            x[name_to_col[f"p_{i}_{u}_{v}"]] += 1
    return tuple(x)


def solve_ip(
    lp: LinearProgram, budget: Budget = Budget(scan_nodes=1_000_000)
) -> LpSolution:
    """Exact integer optimum: the enumeration's optimal pebbling number.

    exact.optimal_pebbling_number finds the smallest t-fold solvable
    placement; its flows come from reference-engine move witnesses, so the
    reported assignment is checked against every row of the model. The
    model fixes n and t, so the budget's max_n and max_t are raised to them,
    and max_pebbles to t * n, which the all-vertices placement shows is
    enough. Each composition tried spends one of the budget's scan_nodes,
    1,000,000 by default. A refusal raises BudgetExceededError with the
    enumeration's lower bound and t * n as the upper bound.
    """
    if not lp.integral:
        raise ValueError("solve_ip expects an integral model")
    g = lp.graph
    if g is None:
        raise ValueError("model carries no graph; build it with build_opt_model")
    upper = lp.t * g.n
    budget = replace(
        budget,
        max_n=max(budget.max_n, g.n),
        max_t=max(budget.max_t, lp.t),
        max_pebbles=max(budget.max_pebbles, upper),
    )
    try:
        stat = optimal_pebbling_number(g, lp.t, budget)
    except BudgetExceededError as err:
        raise BudgetExceededError(
            err.reason, best_lower=err.best_lower, best_upper=upper, nodes=err.nodes
        ) from err
    x = _flows_from_moves(lp, g, stat.witness)
    assert lp.check(x)
    return LpSolution(status="optimal", objective=Fraction(stat.value), assignment=x)


def vertex_transitive_m(g: Graph, r: int) -> Fraction:
    """Total pebble mass a uniform unit placement aims at r: the weight
    toward r of one pebble on every vertex, sum_v 2^-dist(v, r). Constant
    over r exactly on vertex-transitive graphs."""
    return weight(PebbleDistribution((1,) * g.n), r, g)


def optimal_fractional_pebbling(g: Graph) -> Fraction:
    """Optimal fractional pebbling number: the optimum of the weight LP at
    t = 1, min sum D_v subject to sum_v D_v 2^-dist(v, r) >= 1 for every
    root r. It equals the flow model's relaxation with n variables instead
    of n + 2n|E|. Cross-checked against the uniform-placement value n/m
    whenever the graph is vertex-transitive."""
    g.require_connected()
    rows, rhs = _weight_rows(g, 1)
    status, value, _ = _solve_rows(rows, rhs, (1,) * g.n, g.n)
    assert status == "optimal"
    if is_vertex_transitive(g):
        expected = Fraction(g.n) / vertex_transitive_m(g, 0)
        if value != expected:
            raise AssertionError(
                f"transitive cross-check failed: solver {value}, "
                f"uniform placement gives {expected}"
            )
    return value


def rationalize_to_integer(
    g: Graph, sol: LpSolution, budget: Budget = Budget()
) -> tuple[int, PebbleDistribution]:
    """Scale a fractional optimum to integers: t is the least common multiple
    of every assignment denominator (flows included, so the scaled flow
    certificate stays integral), and the placement scales by t. The result
    is verified t-fold solvable by the move engine; failure is a hard error.
    The budget's max_t is raised to that t, which the solution fixes."""
    if sol.status != "optimal" or sol.assignment is None:
        raise ValueError("need an optimal solution with an assignment")
    t = 1
    for v in sol.assignment:
        t = math.lcm(t, v.denominator)
    D = PebbleDistribution(tuple(int(v * t) for v in sol.assignment[: g.n]))
    wide = replace(budget, max_t=max(budget.max_t, t))
    if not is_solvable_distribution(g, D, t, wide):
        raise AssertionError(
            f"scaled distribution {D.counts} is not {t}-fold solvable; "
            "the flow certificate did not survive scaling"
        )
    if Fraction(D.size, t) != sol.objective:
        raise AssertionError("scaled size disagrees with the optimum")
    return t, D


def _terms(coeffs, names) -> str:
    parts = []
    for a, name in zip(coeffs, names):
        if a == 0:
            continue
        sign = "-" if a < 0 else "+"
        mag = abs(a)
        body = name if mag == 1 else f"{mag} {name}"
        parts.append(f"{sign} {body}")
    if not parts:
        return "0"
    lead = parts[0]
    lead = lead[2:] if lead.startswith("+ ") else "-" + lead[2:]
    return " ".join([lead] + parts[1:])


def export_lp(lp: LinearProgram, path) -> Path:
    """Write the model in the plain LP text format (Minimize / Subject To /
    Bounds / General / End) so external solvers can ingest it."""
    out = Path(path)
    lines = ["Minimize", f" obj: {_terms(lp.objective, lp.var_names)}", "Subject To"]
    for idx, (row, b) in enumerate(zip(lp.rows, lp.rhs)):
        lines.append(f" c{idx}: {_terms(row, lp.var_names)} >= {b}")
    lines.append("Bounds")
    for name in lp.var_names:
        lines.append(f" {name} >= 0")
    if lp.integral:
        lines.append("General")
        lines.extend(f" {name}" for name in lp.var_names)
    lines.append("End")
    out.write_text("\n".join(lines) + "\n")
    return out
