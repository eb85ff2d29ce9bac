"""Perf-regression gate over the tracked model benchmarks.

``python benchmarks/check_regression.py [--baseline REF_OR_FILE]
[--threshold 0.20] [--group predict-alc --group model-update]``

Compares the working tree's ``BENCH_model.json`` (pytest-benchmark JSON,
refreshed by running the benchmark harness) against a committed baseline —
by default the copy at ``git HEAD`` — and fails (exit code 1) when any
benchmark in the gated groups regresses by more than the threshold on mean
time.  This is the ROADMAP's "track BENCH_model.json across PRs" gate: run
the benchmarks, then this script, before shipping model-path changes.

Benchmarks present on only one side are reported but never fail the gate
(new benchmarks appear, retired ones disappear); only a genuine slowdown of
a benchmark measured on both sides does.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
from typing import Dict, Iterable, List, Optional, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_model.json"
DEFAULT_GROUPS = (
    "predict-alc",
    "model-update",
    "forest-maintenance",
    "session-overhead",
    "broker-overhead",
)
DEFAULT_THRESHOLD = 0.20


def _group_means(payload: dict, groups: Iterable[str]) -> Dict[str, Tuple[str, float]]:
    """``name -> (group, mean seconds)`` for benchmarks in the gated groups."""
    wanted = set(groups)
    out: Dict[str, Tuple[str, float]] = {}
    for bench in payload.get("benchmarks", []):
        group = bench.get("group")
        name = bench.get("name")
        stats = bench.get("stats") or {}
        mean = stats.get("mean")
        if group in wanted and name and isinstance(mean, (int, float)):
            out[name] = (group, float(mean))
    return out


def _load_baseline(spec: str) -> Optional[dict]:
    """Baseline JSON from a file path, or from ``git show <ref>:BENCH_model.json``."""
    path = pathlib.Path(spec)
    if path.is_file():
        return json.loads(path.read_text("utf-8"))
    try:
        blob = subprocess.run(
            ["git", "show", f"{spec}:BENCH_model.json"],
            cwd=REPO_ROOT,
            capture_output=True,
            check=True,
            text=True,
        ).stdout
    except (subprocess.CalledProcessError, OSError):
        return None
    return json.loads(blob)


def compare(
    baseline: dict,
    current: dict,
    groups: Iterable[str] = DEFAULT_GROUPS,
    threshold: float = DEFAULT_THRESHOLD,
) -> Tuple[List[str], List[str]]:
    """``(regressions, notes)`` between two pytest-benchmark payloads.

    A regression is a benchmark present in both payloads whose current mean
    exceeds the baseline mean by more than ``threshold`` (relative).
    """
    base = _group_means(baseline, groups)
    cur = _group_means(current, groups)
    regressions: List[str] = []
    notes: List[str] = []
    for name in sorted(set(base) | set(cur)):
        if name not in base:
            notes.append(f"NEW       {name}: {cur[name][1] * 1e3:.3f} ms (no baseline)")
            continue
        if name not in cur:
            notes.append(f"RETIRED   {name}: present only in baseline")
            continue
        group, base_mean = base[name]
        _, cur_mean = cur[name]
        ratio = cur_mean / base_mean if base_mean > 0 else float("inf")
        line = (
            f"{group:12s} {name}: {base_mean * 1e3:.3f} ms -> {cur_mean * 1e3:.3f} ms"
            f" ({ratio:.2f}x)"
        )
        if cur_mean > base_mean * (1.0 + threshold):
            regressions.append("REGRESSED " + line)
        else:
            notes.append(("IMPROVED  " if ratio < 1.0 else "OK        ") + line)
    return regressions, notes


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--baseline",
        default="HEAD",
        help="git ref whose BENCH_model.json is the baseline, or a JSON file path",
    )
    parser.add_argument(
        "--current",
        default=str(BENCH_JSON),
        help="current benchmark JSON (default: the tracked BENCH_model.json)",
    )
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    parser.add_argument(
        "--group",
        action="append",
        dest="groups",
        help=f"benchmark group to gate (repeatable; default: {', '.join(DEFAULT_GROUPS)})",
    )
    args = parser.parse_args(argv)
    if not 0 < args.threshold < 10:
        parser.error("--threshold must be a sane relative fraction")
    current_path = pathlib.Path(args.current)
    if not current_path.is_file():
        print(f"no current benchmark record at {current_path}; run the benchmarks first")
        return 2
    current = json.loads(current_path.read_text("utf-8"))
    baseline = _load_baseline(args.baseline)
    if baseline is None:
        print(f"no baseline BENCH_model.json at {args.baseline!r}; skipping gate")
        return 0
    groups = args.groups or list(DEFAULT_GROUPS)
    regressions, notes = compare(baseline, current, groups, args.threshold)
    for line in notes:
        print(line)
    if regressions:
        print()
        for line in regressions:
            print(line)
        print(
            f"\nFAIL: {len(regressions)} benchmark(s) regressed more than "
            f"{args.threshold:.0%} on mean time"
        )
        return 1
    print(f"\nOK: no gated benchmark regressed more than {args.threshold:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
