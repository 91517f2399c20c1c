"""Print one sha256 per CLI command over the package's deterministic output.

Runs every `verify` suite and every `conjecture` at --max-n 4 --max-t 2,
`verify --suite fracopt` at its defaults, and `pebble compute` for every
--stat (at root 0 for pi_rooted) on a few small graphs, plus pi and pi_arb
at t=3 on cycle:6 and cycle:5, pi_arb at t=2 on wheel:5 and hypercube:3,
pi_star at t=2 on cycle:8 and hypercube:3 and at t=3 on path:8, pi on
star:6 and pi_arb on star:5 at t=2 (groups of 720 and 120), and pi_arb on
path:6 at t=3 with --max-pebbles 96 (a deep tree with spread targets), and
two runs whose decisions mostly reach the DFS: pi at t=2 on wheel:6 and
`verify --suite diam2` at --max-n 5 --max-t 2. All run with --format json;
it hashes each command's exit code and JSON minus its `elapsed_ms` fields.
Two checkouts that compute the same answers print the same lines:

    python3 tools/output_digest.py > before.txt   # in one checkout
    python3 tools/output_digest.py | diff before.txt -   # in the other

With --without-counts the `enumerated_count` fields are dropped as well, so
two checkouts that search differently for the same answers print the same
lines.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from pebbling.cli import CONJECTURES, STATS, SUITES  # noqa: E402

SMALL = ["--max-n", "4", "--max-t", "2"]
GRAPHS = ["cycle:5", "wheel:4", "path:4", "hypercube:2"]


def commands() -> list[list[str]]:
    out = [["verify", "--suite", s, *SMALL] for s in SUITES]
    out += [["conjecture", "--name", c, *SMALL] for c in CONJECTURES]
    out.append(["verify", "--suite", "fracopt"])
    root = {"pi_rooted": ["--root", "0"]}
    out += [
        ["compute", g, "--stat", s, *root.get(s, [])] for s in STATS for g in GRAPHS
    ]
    # larger cycles, point and multi-vertex targets, for the cycle oracle
    out.append(["compute", "cycle:6", "--stat", "pi", "--t", "3"])
    out.append(["compute", "cycle:5", "--stat", "pi_arb", "--t", "3"])
    # multi-vertex targets on general graphs go through the DFS, where the
    # context's move order and edge order matter
    out.append(["compute", "wheel:5", "--stat", "pi_arb", "--t", "2"])
    out.append(["compute", "hypercube:3", "--stat", "pi_arb", "--t", "2"])
    # the optimal number's enumeration past size 5, on a cycle and a cube
    out.append(["compute", "cycle:8", "--stat", "pi_star", "--t", "2"])
    out.append(["compute", "hypercube:3", "--stat", "pi_star", "--t", "2"])
    # and on a tree past t=1, where the tree oracle decides the open roots
    out.append(["compute", "path:8", "--stat", "pi_star", "--t", "3"])
    # large automorphism groups: vertex orbits, then target orbits
    out.append(["compute", "star:6", "--stat", "pi", "--t", "2"])
    out.append(["compute", "star:5", "--stat", "pi_arb", "--t", "2"])
    # spread targets on a deep tree, for the tree DP; a scan would need
    # room for the value, 96
    out.append(
        ["compute", "path:6", "--stat", "pi_arb", "--t", "3", "--max-pebbles", "96"]
    )
    # general graphs whose decisions mostly reach the DFS: a wheel at t=2,
    # and the diameter-2 chain on every graph up to five vertices
    out.append(["compute", "wheel:6", "--stat", "pi", "--t", "2"])
    out.append(["verify", "--suite", "diam2", "--max-n", "5", "--max-t", "2"])
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--without-counts", action="store_true",
        help="also drop enumerated_count before hashing",
    )
    args = parser.parse_args()
    dropped = {"elapsed_ms"} | ({"enumerated_count"} if args.without_counts else set())

    def stripped(obj: dict) -> dict:
        return {k: v for k, v in obj.items() if k not in dropped}

    env = {**os.environ, "PYTHONPATH": str(SRC)}
    # conjecture counterexample files land in the scratch working directory
    with tempfile.TemporaryDirectory() as scratch:
        for cmd in commands():
            proc = subprocess.run(
                [sys.executable, "-m", "pebbling.cli", *cmd, "--format", "json"],
                env=env, cwd=scratch, capture_output=True, text=True,
            )
            out = json.loads(proc.stdout or "null", object_hook=stripped)
            body = json.dumps(out, sort_keys=True)
            digest = hashlib.sha256(f"{proc.returncode}\n{body}".encode()).hexdigest()
            print(f"{digest}  {' '.join(cmd)}")


if __name__ == "__main__":
    main()
