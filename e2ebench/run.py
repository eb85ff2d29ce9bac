"""End-to-end tuning benchmark: one command, every metric, with checks.

Run from the repository root::

    python3 e2ebench/run.py --workload paper-mm --seed 1 --seconds 20 --trace 0

Workloads: ``paper-mm``, ``laptop-suite`` and ``sharded-table1`` (see
``workloads.py``).  With ``--trace 0`` the last line of standard output is
one JSON object holding the end-to-end metrics; with ``--trace 1`` it holds
the per-layer split of a traced run, and the spans are written to
``.e2ebench/trace-<workload>-seed<seed>.jsonl``.  Lines before it describe
the run: environment provenance, every learner run, latency percentiles
with their sample counts, and any failed check.  The exit code is 0 when
every correctness check passed, 1 when one failed and 2 when the package
cannot be imported.
"""

from __future__ import annotations

import os

# Pin the BLAS/OpenMP pools before NumPy loads, so that the runner's worker
# processes are the only parallelism.
for _variable in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "BLIS_NUM_THREADS",
):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"

WORKLOADS = ("paper-mm", "laptop-suite", "sharded-table1")


def git_sha() -> str:
    """HEAD's commit from ``.git`` without running git; "none" outside a
    repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text("utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text("utf-8").strip()
        for line in (git / "packed-refs").read_text("utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def source_digest() -> str:
    """sha256 over the package sources, identifying the code measured."""
    digest = hashlib.sha256()
    for path in sorted((SOURCE / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SOURCE)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "machine": platform.machine(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"error: no package sources under {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    sys.path.insert(0, str(HERE))
    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the package: {exc}", file=sys.stderr)
        return 2

    def say(line: str) -> None:
        print(line, flush=True)

    say(f"e2ebench workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}")
    say("provenance " + json.dumps(provenance(), sort_keys=True))
    out = ROOT / ".e2ebench"
    scratch = out / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    trace_path = out / f"trace-{args.workload}-seed{args.seed}.jsonl"
    checks = workloads.Checks()
    try:
        if args.workload == "sharded-table1":
            if args.trace:
                outcome = workloads.trace_sharded(args.seed, checks, scratch,
                                                  say, trace_path)
            else:
                outcome = workloads.run_sharded(args.seed, args.seconds, checks,
                                                scratch, say)
        else:
            workload = (workloads.paper_mm() if args.workload == "paper-mm"
                        else workloads.laptop_suite())
            if args.trace:
                outcome = workloads.trace_learner(workload, args.seed, checks,
                                                  say, trace_path)
            else:
                outcome = workloads.run_learner(workload, args.seed,
                                                args.seconds, checks, say)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for failure in checks.failures:
        say(f"CHECK FAILED: {failure}")
    say(f"checks: {checks.passed} passed, {len(checks.failures)} failed")
    metrics = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in outcome["metrics"].items()
    }
    for name, metric in metrics.items():
        say(f"metric {name} = {metric['value']:.6g} {metric['unit']}")
    correct = not checks.failures
    print(json.dumps({
        "correct": correct,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": metrics,
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
