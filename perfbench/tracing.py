"""Per-layer tracing by wrapping the program's entry points from outside.

The wrappers are installed around one measured round and removed after it,
so untraced rounds run the program exactly as shipped. They work because
every call between the layers below goes through a module attribute looked
up at call time: `exact` calls `K.witness_scan`, and in the pure-Python
backend `witness_scan` looks up `_decide_solvable`, the oracles and the memo
probes in the `_kernels` globals. Under numba the calls made inside compiled
kernels bypass those globals; `blind_boundaries` names them.

A boundary the program no longer has is skipped and reported as unseen, and
its metrics read 0, so a refactor of the program cannot crash the trace.
"""
from __future__ import annotations

import inspect
import sys
from time import perf_counter

# Every per-layer metric, in report order, with its unit. Times are seconds
# of inclusive time in one round: kernels.scan_s contains the decisions made
# inside the scan, and those contain the oracle, DFS and memo time.
METRICS = {
    "graphs.build_s": "s",
    "graphs.builds": "count",
    "graphs.orbits_s": "s",
    "graphs.orbit_calls": "count",
    "exact.setup_s": "s",
    "exact.contexts": "count",
    "exact.contexts_distinct": "count",
    "exact.stat_calls": "count",
    "exact.stat_calls_distinct": "count",
    "kernels.scan_s": "s",
    "kernels.scans": "count",
    "kernels.scan_nodes": "count",
    "kernels.decides": "count",
    "kernels.shortcut_decides": "count",
    "kernels.cycle_s": "s",
    "kernels.cycle_calls": "count",
    "kernels.tree_s": "s",
    "kernels.tree_calls": "count",
    "kernels.dfs_s": "s",
    "kernels.dfs_calls": "count",
    "kernels.dfs_nodes": "count",
    "kernels.memo_probes": "count",
    "kernels.memo_hits": "count",
    "kernels.memo_peak_load": "share",
    "engine.reachable_s": "s",
    "engine.reachable_calls": "count",
    "optimize.model_s": "s",
    "optimize.simplex_s": "s",
    "optimize.lp_solves": "count",
    "optimize.pivots": "count",
    "optimize.verify_s": "s",
    "cli.rows": "count",
    "cli.row_s": "s",
    "cli.overhead_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
}

# Boundaries crossed from inside compiled kernels, invisible under numba.
_KERNEL_INTERNAL = (
    "_kernels._decide_solvable (calls from witness_scan)",
    "_kernels.cycle_feasible",
    "_kernels.tree_multi_feasible",
    "_kernels.dfs_decide",
    "_kernels._memo_has",
    "_kernels._memo_add",
)


def blind_boundaries(pure_python: bool) -> list[str]:
    return [] if pure_python else list(_KERNEL_INTERNAL)


def _bindings(fn) -> list[tuple[object, str]]:
    """Every module attribute in the package bound to fn, so a wrapper
    replaces the function for callers that imported it by name too."""
    found = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "pebbling" or name.startswith("pebbling.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is fn:
                found.append((mod, attr))
    return found


class Tracer:
    """Counts and inclusive times at each layer boundary for one round."""

    def __init__(self):
        self.patches: list[tuple[object, str, object]] = []
        self.unseen: list[str] = []
        self.reset()

    def reset(self) -> None:
        self.t: dict[str, float] = {}
        self.n: dict[str, int] = {}
        self.depth: dict[str, int] = {}
        self.contexts: set = set()
        self.stats: set = set()
        self.epoch_inserts: dict[int, int] = {}
        self.arena_cap = 0
        self.g6: dict[int, tuple[object, str]] = {}

    # -- installation --------------------------------------------------

    def _patch(self, targets, make) -> None:
        for owner, attr in targets:
            orig = getattr(owner, attr)
            self.patches.append((owner, attr, orig))
            setattr(owner, attr, make(orig))

    def _function(self, module, attr, make, everywhere=True) -> None:
        fn = getattr(module, attr, None)
        if fn is None:
            self.unseen.append(f"{module.__name__}.{attr}")
            return
        targets = _bindings(fn) if everywhere else [(module, attr)]
        self._patch(targets, make)

    def _method(self, cls, label, make) -> None:
        if cls is None:
            self.unseen.append(label)
            return
        self._patch([(cls, "__init__")], make)

    def install(self) -> None:
        from pebbling import _kernels, engine, exact, graphs, optimize

        self.unseen = []
        self._method(graphs.Graph, "graphs.Graph", self._timed("graphs.build_s", "graphs.builds"))
        self._function(graphs, "vertex_orbits", self._timed("graphs.orbits_s", "graphs.orbit_calls"))
        self._function(graphs, "automorphisms", self._timed("graphs.orbits_s", "graphs.orbit_calls"))
        self._method(getattr(exact, "_GraphArrays", None), "exact._GraphArrays",
                     self._timed("exact.setup_s", None))
        self._method(getattr(exact, "_TargetContext", None), "exact._TargetContext",
                     self._context)
        for attr in ("pebbling_number", "rooted_pebbling_number", "arbitrary_target_number"):
            self._function(exact, attr, self._stat(attr))
        self._function(_kernels, "witness_scan", self._scan)
        self._function(_kernels, "_decide_solvable", self._decide)
        self._function(_kernels, "cycle_feasible", self._oracle("kernels.cycle_s", "kernels.cycle_calls"))
        self._function(_kernels, "tree_multi_feasible", self._oracle("kernels.tree_s", "kernels.tree_calls"))
        self._function(_kernels, "dfs_decide", self._dfs)
        self._function(_kernels, "_memo_has", self._memo_has)
        self._function(_kernels, "_memo_add", self._memo_add)
        self._function(engine, "is_reachable", self._timed("engine.reachable_s", "engine.reachable_calls"))
        self._function(optimize, "build_opt_model", self._timed("optimize.model_s", None))
        self._function(optimize, "_solve_rows", self._timed("optimize.simplex_s", "optimize.lp_solves"))
        self._function(optimize, "_pivot", self._counted("optimize.pivots"))
        # only the binding solve_ip uses: the same function called directly
        # is an ordinary decision, not IP verification
        self._function(optimize, "is_solvable_distribution",
                       self._timed("optimize.verify_s", None), everywhere=False)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self.patches):
            setattr(owner, attr, orig)
        self.patches = []

    # -- wrapper factories ---------------------------------------------

    def _enter(self, layer: str) -> bool:
        """True for the outermost call of a layer; nested calls (a Graph
        built while building a Graph, automorphisms inside vertex_orbits)
        are neither counted nor timed twice."""
        d = self.depth.get(layer, 0)
        self.depth[layer] = d + 1
        return d == 0

    def _leave(self, layer: str, started: float | None) -> None:
        self.depth[layer] -= 1
        if started is not None:
            self.t[layer] = self.t.get(layer, 0.0) + perf_counter() - started

    def _count(self, key: str, by: int = 1) -> None:
        self.n[key] = self.n.get(key, 0) + by

    def _timed(self, layer, count_key):
        def make(fn):
            def wrapper(*args, **kwargs):
                outer = self._enter(layer)
                started = perf_counter() if outer else None
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._leave(layer, started)
                    if outer and count_key:
                        self._count(count_key)
            return wrapper
        return make

    def _counted(self, count_key):
        def make(fn):
            def wrapper(*args, **kwargs):
                self._count(count_key)
                return fn(*args, **kwargs)
            return wrapper
        return make

    def _graph6(self, g) -> str:
        from pebbling.graphs import serialize_graph6

        hit = self.g6.get(id(g))
        if hit is None or hit[0] is not g:
            hit = (g, serialize_graph6(g))
            self.g6[id(g)] = hit
        return hit[1]

    def _context(self, init):
        timed = self._timed("exact.setup_s", "exact.contexts")(init)

        def wrapper(ctx, ga, target, *args, **kwargs):
            timed(ctx, ga, target, *args, **kwargs)
            self.contexts.add((self._graph6(ga.g), tuple(int(x) for x in target)))
        return wrapper

    def _stat(self, name):
        def make(fn):
            sig = inspect.signature(fn)
            counted = self._counted("exact.stat_calls")(fn)

            def wrapper(*args, **kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
                self.stats.add((name, self._graph6(a["g"]), a.get("t"), a.get("r")))
                return counted(*args, **kwargs)
            return wrapper
        return make

    def _scan(self, fn):
        timed = self._timed("kernels.scan_s", "kernels.scans")(fn)

        def wrapper(*args):
            out = timed(*args)
            self._count("kernels.scan_nodes", int(out[1]))
            return out
        return wrapper

    def _oracle(self, layer, count_key):
        timed = self._timed(layer, count_key)

        def make(fn):
            inner = timed(fn)

            def wrapper(*args):
                self._count("_oracles")
                return inner(*args)
            return wrapper
        return make

    def _decide(self, fn):
        # kind 0 (general graphs) settles by containment, the weight reject
        # or the cap accept before any oracle when no oracle call happens
        def wrapper(*args):
            before = self.n.get("_oracles", 0)
            out = fn(*args)
            self._count("kernels.decides")
            if int(args[1]) == 0 and self.n.get("_oracles", 0) == before:
                self._count("kernels.shortcut_decides")
            return out
        return wrapper

    def _dfs(self, fn):
        inner = self._oracle("kernels.dfs_s", "kernels.dfs_calls")(fn)

        def wrapper(*args):
            box = args[13]
            left = int(box[0])
            out = inner(*args)
            self._count("kernels.dfs_nodes", left - int(box[0]))
            return out
        return wrapper

    def _memo_has(self, fn):
        def wrapper(keys, stamps, epoch, key):
            hit = fn(keys, stamps, epoch, key)
            self._count("kernels.memo_probes")
            if hit:
                self._count("kernels.memo_hits")
            return hit
        return wrapper

    def _memo_add(self, fn):
        def wrapper(keys, stamps, epoch, key, used):
            before = int(used[0])
            out = fn(keys, stamps, epoch, key, used)
            added = int(used[0]) - before
            if added:
                e = int(epoch)
                self.epoch_inserts[e] = self.epoch_inserts.get(e, 0) + added
                self.arena_cap = int(keys.shape[0])
            return out
        return wrapper

    # -- results -------------------------------------------------------

    def snapshot(self, cli: dict | None) -> dict[str, float]:
        """Metrics of the round just traced; cli carries the sweep-row
        figures a CLI-driven workload measures itself."""
        out = {
            name: self.t.get(name, 0.0) if unit == "s" else self.n.get(name, 0)
            for name, unit in METRICS.items()
            if not name.startswith("trace.")
        }
        out["exact.contexts_distinct"] = len(self.contexts)
        out["exact.stat_calls_distinct"] = len(self.stats)
        peak = max(self.epoch_inserts.values(), default=0)
        out["kernels.memo_peak_load"] = peak / self.arena_cap if self.arena_cap else 0.0
        out.update(cli or {})
        return out
