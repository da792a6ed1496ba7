"""Append one benchmark row per source tree to a committed BENCH_*.json.

    python3 tools/bench_rows.py --out BENCH_34.json --label head
    python3 tools/bench_rows.py --out BENCH_34.json --tree /path/to/export \
        --commit c1d4217 --label c1d4217 --rounds 2

For each tree, runs the tree's own, unchanged ``perfbench/run.py --trace 0``
on each workload (spectrum-sweep, pump-trace, cli-pipeline) and appends a
row holding the end-to-end metrics, the machine facts (with each BLAS
library by its file name) and the input digest that the run reports, and
the commit the tree was taken from. With several
trees and ``--rounds R``, the trees take turns, round by round, so that a
slow spell of the machine falls on all of them. A tree that is a git
checkout names its own commit (with ``"dirty": true`` when it has changes
that are not committed); an exported tree needs ``--commit``.

Every tree runs in one bytecode state: each ``perfbench/run.py`` process
(and the interpreters it starts) gets a fresh, empty
``PYTHONPYCACHEPREFIX``, removed when it ends, so no tree reads a
``src/__pycache__`` that another tree lacks. The bytecode state alone once
moved cli-pipeline's ``ops_per_s`` by 12%.

A tree exported from a commit with a different ``src/`` is named
``<commit>+src:<tree>``: the files of ``<commit>`` run with the ``src/``
tree object ``<tree>``, as ``git rev-parse <rev>:src`` prints it for the
commit that holds that ``src/`` (``git rev-parse "$(git write-tree):src"``
for a staged tree).

The file holds {"rows": [...]}; rows are only ever appended.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("spectrum-sweep", "pump-trace", "cli-pipeline")


def _git(tree: Path, *args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", str(tree), *args], capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def _commit(tree: Path, given: str | None) -> tuple[str, bool]:
    """The commit a tree was taken from, and whether it has changes not committed."""
    if given:
        return given, False
    head = _git(tree, "rev-parse", "--short", "HEAD")
    if head is None:
        raise SystemExit(f"bench_rows: {tree} is no git checkout; give --commit")
    return head, bool(_git(tree, "status", "--porcelain", "--untracked-files=no"))


def run_workload(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run of the tree: its metrics, machine facts and input digest.

    The run reads and writes bytecode only in an empty cache of its own.
    """
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as cache:
        done = subprocess.run(
            [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPYCACHEPREFIX": cache},
        )
    detail, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
    machine = detail["machine"]
    blas = machine.get("blas", {})
    if "libraries" in blas:
        # A library's file name names it; its directory only says where one
        # machine installed it.
        blas["libraries"] = [Path(library).name for library in blas["libraries"]]
    return {
        "metrics": {name: metric["value"] for name, metric in result["metrics"].items()},
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "input_digest": detail["input_digest"],
        "machine": machine,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True, help="BENCH_*.json to append to")
    parser.add_argument("--tree", type=Path, action="append",
                        help="source tree to measure (repeatable; default this checkout)")
    parser.add_argument("--commit", action="append",
                        help="commit of each --tree, in order, for trees that are no git checkout")
    parser.add_argument("--label", action="append", help="name of each tree's rows, in order")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--rounds", type=int, default=1)
    args = parser.parse_args(argv)
    trees = [tree.resolve() for tree in args.tree] if args.tree else [ROOT]
    commits = (args.commit or []) + [None] * len(trees)
    labels = (args.label or []) + [None] * len(trees)
    sources = []
    for tree, commit, label in zip(trees, commits, labels):
        sha, dirty = _commit(tree, commit)
        sources.append((tree, sha, dirty, label or sha))
    bench = json.loads(args.out.read_text()) if args.out.is_file() else {"rows": []}
    for round_index in range(args.rounds):
        for tree, sha, dirty, label in sources:
            row = {
                "label": label,
                "commit": sha,
                "dirty": dirty,
                "round": round_index,
                "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
                "seed": args.seed,
                "seconds": args.seconds,
                "workloads": {
                    workload: run_workload(tree, workload, args.seed, args.seconds)
                    for workload in WORKLOADS
                },
            }
            bench["rows"].append(row)
            args.out.write_text(json.dumps(bench, indent=1) + "\n")
            summary = ", ".join(
                f"{w} {r['metrics']['ops_per_s']:.4g} ops/s" for w, r in row["workloads"].items()
            )
            print(f"{label} round {round_index}: {summary}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
