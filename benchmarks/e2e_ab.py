"""A/B the end-to-end benchmark: a reference commit against the worktree.

Run from the repository root::

    python benchmarks/e2e_ab.py REF [--pairs 5] [--seconds 30] [--workloads NAME[,NAME]]
    make bench-e2e-ab REF=HEAD~1 PAIRS=5 [WORKLOADS=laptop-suite]

REF is exported with ``git archive`` into a temporary directory.  For each
seed 1..PAIRS and each selected workload of ``BENCHMARK.json`` (all of
them unless ``--workloads`` names some), ``e2ebench/run.py``
runs once in each tree, the two runs back to back and their order swapped
from pair to pair, so slow drift of the host hits both sides alike.  Each
pair's end-to-end metrics are printed as they come in; the summary gives
every metric's median over the pairs on both sides, the median of the
per-pair relative changes, and in how many pairs the worktree moved in
the metric's better direction (``better`` in ``BENCHMARK.json``).  It also
gives the reference side's interquartile range (numpy's default linear
quartiles) and the gap between the two medians in the better direction,
in seconds (or the metric's unit) and in units of that IQR: a claimed
gain must win at least 9 of 10 pairs and have a median gap above one
reference IQR.  A run that fails its checks or fails operations is
reported; the exit code is 1 if any run did.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent


def export(ref: str, destination: pathlib.Path) -> None:
    """Extract the tree of ``ref`` into ``destination`` with ``git archive``."""
    archive = destination.parent / "ref.tar"
    with archive.open("wb") as handle:
        subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT,
                       stdout=handle, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(destination, filter="data")
    archive.unlink()


def run_once(tree: pathlib.Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``e2ebench/run.py`` run in ``tree``; its final JSON line."""
    completed = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True,
    )
    lines = completed.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(completed.stdout + completed.stderr)
        raise SystemExit(f"{tree}: {workload} seed {seed} printed no result")


def change(old: float, new: float) -> float:
    return (new - old) / old * 100.0 if old else 0.0


def improved(old: float, new: float, better: str) -> bool:
    """Whether ``new`` moved from ``old`` in the ``better`` direction
    (``"lower"`` or ``"higher"``); a tie is no improvement."""
    return new < old if better == "lower" else new > old


def iqr(values) -> float:
    """Interquartile range, linear interpolation between order statistics
    (``numpy.percentile``'s default); 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4, method="inclusive")
    return quartiles[2] - quartiles[0]


def median_gap(old_values, new_values, better: str) -> float:
    """How far the new median sits from the old one in the better
    direction (positive: better)."""
    old, new = statistics.median(old_values), statistics.median(new_values)
    return old - new if better == "lower" else new - old


def select_workloads(declared, requested):
    """The workloads to run: every ``declared`` one when ``requested`` (a
    comma-separated list) is empty, else the requested ones in the order
    given.  An unknown or repeated name raises ``ValueError``."""
    if not requested:
        return list(declared)
    names = [name.strip() for name in requested.split(",")]
    unknown = [name for name in names if name not in declared]
    if unknown:
        raise ValueError(f"unknown workload(s) {', '.join(unknown)}; "
                         f"BENCHMARK.json declares {', '.join(declared)}")
    if len(set(names)) != len(names):
        raise ValueError(f"workload named twice in {requested!r}")
    return names


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", help="the reference commit (any git revision)")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--workloads", default="", metavar="NAME[,NAME]",
                        help="run only these workloads (default: all)")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [metric["name"] for metric in benchmark["end_to_end"]]
    better = {metric["name"]: metric["better"] for metric in benchmark["end_to_end"]}
    try:
        workloads = select_workloads(
            [workload["name"] for workload in benchmark["workloads"]], args.workloads)
    except ValueError as exc:
        parser.error(str(exc))
    ok = True
    with tempfile.TemporaryDirectory(prefix="e2e-ab-") as scratch:
        reference = pathlib.Path(scratch) / "ref"
        export(args.ref, reference)
        values = {(w, side): {n: [] for n in names}
                  for w in workloads for side in ("ref", "work")}
        for seed in range(1, args.pairs + 1):
            for workload in workloads:
                sides = [("ref", reference), ("work", ROOT)]
                if seed % 2 == 0:
                    sides.reverse()
                results = {}
                for side, tree in sides:
                    result = run_once(tree, workload, seed, args.seconds)
                    results[side] = result
                    if not result["correct"] or result["failed"]:
                        ok = False
                        print(f"!! {side} {workload} seed {seed}: correct="
                              f"{result['correct']} failed={result['failed']}")
                    for name in names:
                        values[workload, side][name].append(
                            result["metrics"][name]["value"])
                print(f"pair {seed} {workload}")
                for name in names:
                    old = results["ref"]["metrics"][name]["value"]
                    new = results["work"]["metrics"][name]["value"]
                    print(f"  {name:16s} {old:12.6g} -> {new:12.6g}  "
                          f"{change(old, new):+7.2f} %")
                sys.stdout.flush()
    print(f"summary: {args.ref} -> worktree, {args.pairs} pairs, "
          f"--seconds {args.seconds:g} (medians)")
    for workload in workloads:
        print(workload)
        ref_values, work_values = values[workload, "ref"], values[workload, "work"]
        for name in names:
            pairs = list(zip(ref_values[name], work_values[name]))
            changes = [change(a, b) for a, b in pairs]
            wins = sum(improved(a, b, better[name]) for a, b in pairs)
            spread = iqr(ref_values[name])
            gap = median_gap(ref_values[name], work_values[name], better[name])
            in_iqr = f"{gap / spread:+.2f}" if spread else "n/a"
            print(f"  {name:16s} {statistics.median(ref_values[name]):12.6g} -> "
                  f"{statistics.median(work_values[name]):12.6g}  "
                  f"median change {statistics.median(changes):+7.2f} %  "
                  f"better in {wins}/{len(pairs)} pairs  "
                  f"ref IQR {spread:.4g}, median gap {gap:+.4g} = {in_iqr} IQR")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
