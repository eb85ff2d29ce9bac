"""Thin dispatcher over the experiment registry: run artifacts, emit a report.

``python -m repro.experiments.run_all [--scale smoke|laptop|paper]
[--only table2,figure1,...] [--output FILE] [--workers N]
[--replay-trace DIR] [--profile [DIR]] [--paper-scale-smoke]
[--paper-run --run-dir DIR [--resume]] [--max-retries N]
[--measure-timeout SECONDS] [--inject-faults SPEC]
[--max-unit-attempts N]``

Every artifact — table1, table2, figure1, figure2, figure5, figure6,
noise_robustness, acquisition-ablation, model-ablation — is declared
in :mod:`repro.experiments.registry`; this module merely selects artifacts
(``--only``, default: the consolidated report), picks a backend, and
streams each artifact's rendered section to ``--output``/stdout *as it
completes* (atomic appends), so a killed report run still leaves the
finished sections on disk.

Backends:

* default — in-memory execution, the degenerate one-worker path of the
  sharded backend (``--workers N`` fans the work units of each artifact
  over a process pool; results are worker-count invariant);
* ``--paper-run`` — the sharded, checkpointed, multi-host task queue of
  :mod:`repro.experiments.runner` (``--run-dir``, ``--resume``), the
  backend for the paper's full 2 500-example × 10-repetition evaluation;
* ``--paper-scale-smoke`` — one benchmark end-to-end at the paper's model
  scale (5 000 particles, 500 candidates) to sanity-check throughput.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time
from typing import Callable, List, Optional, Sequence

from ..measurement.faults import BrokerPolicy, FaultPlan
from .config import ExperimentScale
from .paper_scale import run_paper_scale_smoke
from .profiling import write_profile_summary
from .registry import DEFAULT_ARTIFACTS, run_artifacts, spec_names
from .runner import run_paper_run

__all__ = ["run_all", "main"]

_EPILOG = """\
artifacts:
  --only takes a comma-separated subset of the registered artifacts
  (default: %(default_artifacts)s).
  Dependencies are resolved automatically: --only figure6 runs the
  Table 1 work units it folds from, but renders only Figure 6.
  Registered: %(all_artifacts)s.

paper-run workflow:
  # launch the full paper configuration (2500 examples x 10 repetitions,
  # all benchmarks, every report artifact), sharded over 8 worker processes:
  python -m repro.experiments.run_all --paper-run --run-dir paper_run --workers 8

  # killed or crashed? resume from the per-unit checkpoints — completed
  # units are never re-run and the merged results are bit-identical to an
  # uninterrupted run:
  python -m repro.experiments.run_all --paper-run --run-dir paper_run --workers 8 --resume

  # several machines can share one queue over a network filesystem:
  # create the run on one host, then point the others at it with --resume.
  # per-unit claim files (atomic O_EXCL create + stale-lease takeover)
  # keep two hosts from executing the same unit.

  # a fast end-to-end rehearsal of the same backend at smoke scale:
  python -m repro.experiments.run_all --paper-run --scale smoke --run-dir /tmp/rehearsal

  --run-dir holds the task queue (manifest.jsonl), one result file per
  completed work unit, in-flight checkpoints, claim files and an events
  journal; see docs/reproduction.md for runtimes and output layout.

profile workflow:
  # where does a smoke-scale table1 run spend its time?  per-unit cProfile
  # dumps plus a merged top-25 cumulative summary land in ./profile:
  python -m repro.experiments.run_all --scale smoke --only table1 --profile

  # same on the sharded backend (profiles merge across workers and hosts
  # inside the run dir):
  python -m repro.experiments.run_all --paper-run --scale smoke \\
      --run-dir /tmp/prof_run --profile

  # drill into one unit interactively:
  python -m pstats profile/<unit_id>.prof

fault-tolerance workflow:
  # harden live measurements: retry each one up to 5 times on timeout or
  # corrupt result, with a 30 s per-measurement deadline; a unit that
  # still fails 3 times is quarantined to <run-dir>/failed/<unit>.json
  # and the report folds the survivors with an explicit coverage note:
  python -m repro.experiments.run_all --paper-run --run-dir paper_run \\
      --max-retries 5 --measure-timeout 30 --max-unit-attempts 3

  # chaos-test the pipeline: deterministically inject transient faults
  # (rates per measurement, seeded — same SPEC, same faults) and check
  # the report is bit-identical to a fault-free run:
  python -m repro.experiments.run_all --paper-run --scale smoke \\
      --run-dir /tmp/chaos --max-retries 5 \\
      --inject-faults "seed=7,transient=0.2,timeout=0.1,corrupt=0.1"

  # simulate a permanently broken unit (every measurement fails):
  #   --inject-faults "fail-units=<unit-id>" --max-retries 1
  # the run completes, quarantines the unit, and the report lists it.

  SPEC keys: seed=N, transient=RATE, timeout=RATE, corrupt=RATE,
  crash=RATE, hang=SECONDS, max-faults=N (per-request fault budget),
  fail-units=UNIT+UNIT (permanent failures).  Injection happens before
  the real measurement, so retried faults consume nothing from the
  profiler's random stream — except crash faults, which measure and
  then lose the result (use them to exercise quarantine, not
  bit-identity).  Dead-lettered requests land in
  <run-dir>/failed/dead-letters.jsonl.

replay-trace workflow:
  # record every measurement of a table1 run into a trace directory:
  python -m repro.experiments.run_all --only table1 --replay-trace traces/t1

  # re-score the acquisition ablation arms (ALC/ALM/random) against the
  # completed table1 trace — configurations table1 measured are served
  # from disk (observation sharing only; RNG state never crosses units),
  # the rest are profiled live and appended:
  python -m repro.experiments.run_all --only acquisition-ablation \\
      --replay-trace traces/t1
""" % {
    "default_artifacts": ",".join(DEFAULT_ARTIFACTS),
    "all_artifacts": ",".join(spec_names()),
}


def _scale_from_name(name: str) -> ExperimentScale:
    factories = {
        "smoke": ExperimentScale.smoke,
        "laptop": ExperimentScale.laptop,
        "paper": ExperimentScale.paper,
    }
    if name not in factories:
        raise ValueError(f"unknown scale {name!r}; expected one of {sorted(factories)}")
    return factories[name]()


def _write_report(path: str, sections: Sequence[str]) -> None:
    """Atomically rewrite the report from its accumulated sections.

    Every streamed section rewrites the whole file through the
    write-tmp / fsync / rename / fsync-directory dance, so the report on
    disk is always a complete prefix of the final one — a power loss
    mid-write can never leave a torn or half-appended section, and a
    killed run still keeps every section that finished.  Each invocation
    starts from its own first section, so re-running into the same
    ``--output`` never mixes two reports.
    """
    payload = "".join(section + "\n\n" for section in sections).encode("utf-8")
    tmp = f"{path}.{os.getpid()}.tmp"
    fd = os.open(tmp, os.O_CREAT | os.O_WRONLY | os.O_TRUNC, 0o644)
    try:
        os.write(fd, payload)
        os.fsync(fd)
    finally:
        os.close(fd)
    os.replace(tmp, path)
    directory = os.path.dirname(os.path.abspath(path))
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return  # e.g. a platform without directory opens; rename still atomic
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)


def run_all(
    scale: Optional[ExperimentScale] = None,
    workers: int = 1,
    artifacts: Optional[Sequence[str]] = None,
    section_sink: Optional[Callable[[str, str], None]] = None,
    replay_trace: Optional[str] = None,
    profile_dir: Optional[str] = None,
    broker_policy: Optional[BrokerPolicy] = None,
) -> str:
    """Run the selected artifacts in memory and return the text report.

    ``workers > 1`` distributes each artifact's work units over a process
    pool; results are deterministic and worker-count invariant (every unit
    is seeded independently of execution order).  ``section_sink`` receives
    ``(artifact_name, rendered_section)`` as each artifact completes —
    the streaming hook the CLI uses for ``--output``.  ``replay_trace``
    serves measurements from a recorded
    :class:`~repro.measurement.broker.ReplayTrace` directory instead of
    live profiling — the re-scoring path for, e.g., running the
    acquisition ablation over a recorded Table 1 trace.  ``profile_dir``
    wraps every work unit in cProfile, dumps per-unit stats there and
    merges them into ``profile_dir/profile.txt`` at the end.
    ``broker_policy`` arms the fault-tolerance broker chain (retries,
    deadlines, chaos injection) around every unit's measurements; note
    the in-memory backend has no quarantine — a permanently failed
    measurement aborts the run (use ``--paper-run`` for graceful
    degradation).
    """
    scale = scale if scale is not None else ExperimentScale.laptop()
    selected = list(artifacts) if artifacts is not None else list(DEFAULT_ARTIFACTS)
    requested = set(selected)
    started = time.time()
    header = (
        f"Experiment report (scale: {scale.name}, benchmarks: "
        f"{', '.join(scale.benchmarks)}, artifacts: {', '.join(selected)})"
    )
    sections: List[str] = [header]
    if section_sink is not None:
        section_sink("header", header)

    def on_result(spec, result) -> None:
        if spec.name not in requested:
            return
        text = result.render()
        sections.append(text)
        if section_sink is not None:
            section_sink(spec.name, text)

    run_artifacts(
        scale,
        selected,
        workers=workers,
        on_result=on_result,
        replay_trace=replay_trace,
        profile_dir=profile_dir,
        broker_policy=broker_policy,
    )
    if profile_dir is not None:
        summary = write_profile_summary(profile_dir)
        if summary is not None:
            print(f"profile summary: {summary}", file=sys.stderr, flush=True)
    footer = f"wall time {time.time() - started:.0f}s"
    sections.append(footer)
    if section_sink is not None:
        section_sink("footer", footer)
    return "\n\n".join(sections)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--scale",
        default=None,
        choices=["smoke", "laptop", "paper"],
        help=(
            "experiment scale (default: laptop; with --paper-run the default "
            "is the paper's full configuration)"
        ),
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="N",
        help=(
            "base seed of the scale (default: the scale's own, 2017); one "
            "seed's speed-ups are a single draw, so compare several seeds"
        ),
    )
    parser.add_argument(
        "--only",
        default=None,
        metavar="ARTIFACTS",
        help=(
            "comma-separated artifact subset to run and render "
            "(see the epilog for the registered names)"
        ),
    )
    parser.add_argument(
        "--output",
        default=None,
        help=(
            "append each artifact's rendered section to this file as it "
            "completes (a killed run keeps its finished sections)"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "worker processes executing each artifact's work units: an "
            "in-memory process pool for a report run, or the sharded "
            "task-queue workers for --paper-run"
        ),
    )
    parser.add_argument(
        "--paper-scale-smoke",
        action="store_true",
        help="run one benchmark end-to-end at 5000 particles and report timings",
    )
    parser.add_argument(
        "--smoke-benchmark",
        default="mm",
        help="benchmark used by --paper-scale-smoke (default: mm)",
    )
    parser.add_argument(
        "--smoke-examples",
        type=int,
        default=40,
        help="training examples for --paper-scale-smoke (default: 40)",
    )
    parser.add_argument(
        "--paper-run",
        action="store_true",
        help=(
            "drive the selected artifacts' work units through the sharded, "
            "checkpointed, multi-host backend (see the epilog)"
        ),
    )
    parser.add_argument(
        "--run-dir",
        default=None,
        help="task-queue directory for --paper-run (default: ./paper_run)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "continue a --paper-run whose --run-dir already holds a manifest: "
            "completed units are kept, the in-flight unit restarts from its "
            "last checkpoint (also how additional hosts join a shared run)"
        ),
    )
    parser.add_argument(
        "--repetitions",
        type=int,
        default=None,
        help="override the scale's repetition count for --paper-run",
    )
    parser.add_argument(
        "--checkpoint-interval",
        type=int,
        default=25,
        help=(
            "training examples between per-unit checkpoints for --paper-run "
            "(default: 25)"
        ),
    )
    parser.add_argument(
        "--profile",
        nargs="?",
        const="profile",
        default=None,
        metavar="DIR",
        help=(
            "wrap every work unit in cProfile; per-unit .prof dumps plus a "
            "merged top-25 cumulative summary (profile.txt) land in DIR "
            "(default: ./profile, or <run-dir>/profile with --paper-run, "
            "where DIR must not be given)"
        ),
    )
    parser.add_argument(
        "--replay-trace",
        default=None,
        metavar="DIR",
        help=(
            "serve measurements from a recorded trace directory instead of "
            "live profiling; measurements missing from the trace are "
            "profiled live and appended to it (e.g. re-score the "
            "acquisition ablation from a table1 trace)"
        ),
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=0,
        metavar="N",
        help=(
            "retry each measurement up to N times on transient failure "
            "(timeout, corrupt result, injected fault) with seeded "
            "exponential backoff before giving up on the unit (default: 0)"
        ),
    )
    parser.add_argument(
        "--measure-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-measurement deadline; a measurement still running after "
            "SECONDS counts as a transient failure and is retried under "
            "--max-retries"
        ),
    )
    parser.add_argument(
        "--inject-faults",
        default=None,
        metavar="SPEC",
        help=(
            "chaos-inject deterministic faults into every measurement "
            "broker; SPEC is comma-separated key=value pairs, e.g. "
            "'seed=7,transient=0.2,timeout=0.1,corrupt=0.1,hang=0.05,"
            "max-faults=2,fail-units=UNIT+UNIT' (see the epilog)"
        ),
    )
    parser.add_argument(
        "--max-unit-attempts",
        type=int,
        default=None,
        metavar="N",
        help=(
            "with --paper-run: quarantine a work unit after N failed "
            "attempts instead of retrying it forever; the report then "
            "folds the surviving units and lists the quarantined ones "
            "(default: 3)"
        ),
    )
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error("--workers must be at least 1")
    if args.checkpoint_interval < 1:
        parser.error("--checkpoint-interval must be at least 1")
    if args.repetitions is not None and args.repetitions < 1:
        parser.error("--repetitions must be at least 1")
    if args.paper_run and args.paper_scale_smoke:
        parser.error("--paper-run and --paper-scale-smoke are mutually exclusive")
    if args.paper_scale_smoke and args.only is not None:
        # Refuse rather than silently drop the artifact selection.
        parser.error("--only does not apply to --paper-scale-smoke")
    if args.paper_scale_smoke and args.replay_trace is not None:
        parser.error("--replay-trace does not apply to --paper-scale-smoke")
    if args.paper_scale_smoke and args.seed is not None:
        parser.error("--seed does not apply to --paper-scale-smoke")
    if args.paper_scale_smoke and args.profile is not None:
        parser.error("--profile does not apply to --paper-scale-smoke")
    if args.paper_scale_smoke and args.smoke_examples < 6:
        parser.error("--smoke-examples must leave room for the 5 seed configurations")
    if args.paper_run and args.profile not in (None, "profile"):
        # The sharded backend keeps profiles inside the run directory so a
        # multi-host run merges every host's dumps; a custom location would
        # silently split them.
        parser.error("--profile takes no DIR with --paper-run "
                     "(profiles go to <run-dir>/profile)")
    if args.max_retries < 0:
        parser.error("--max-retries must be at least 0")
    if args.measure_timeout is not None and args.measure_timeout <= 0:
        parser.error("--measure-timeout must be positive")
    if args.max_unit_attempts is not None and args.max_unit_attempts < 1:
        parser.error("--max-unit-attempts must be at least 1")
    if args.inject_faults is not None:
        try:
            FaultPlan.parse(args.inject_faults)
        except ValueError as error:
            parser.error(f"--inject-faults: {error}")
    if args.paper_scale_smoke:
        for flag, value in (
            ("--max-retries", args.max_retries or None),
            ("--measure-timeout", args.measure_timeout),
            ("--inject-faults", args.inject_faults),
        ):
            if value is not None:
                parser.error(f"{flag} does not apply to --paper-scale-smoke")
    if not args.paper_run:
        # Refuse rather than silently ignore: a user resuming a killed
        # paper run who forgets --paper-run would otherwise get a fresh
        # report run and no resumption.
        for flag, value in (
            ("--run-dir", args.run_dir),
            ("--resume", args.resume or None),
            ("--repetitions", args.repetitions),
            ("--max-unit-attempts", args.max_unit_attempts),
        ):
            if value is not None:
                parser.error(f"{flag} only makes sense together with --paper-run")
    artifacts: Optional[List[str]] = None
    if args.only is not None:
        artifacts = [name.strip() for name in args.only.split(",") if name.strip()]
        if not artifacts:
            parser.error("--only needs at least one artifact name")
        known = set(spec_names())
        unknown = [name for name in artifacts if name not in known]
        if unknown:
            parser.error(
                f"unknown artifact(s): {', '.join(unknown)}; "
                f"registered: {', '.join(spec_names())}"
            )

    streamed: List[str] = []

    def section_sink(name: str, text: str) -> None:
        if args.output:
            streamed.append(text)
            _write_report(args.output, streamed)
        else:
            print(text, end="\n\n", flush=True)

    broker_policy: Optional[BrokerPolicy] = None
    if args.max_retries or args.measure_timeout is not None or args.inject_faults:
        broker_policy = BrokerPolicy(
            max_retries=args.max_retries,
            measure_timeout=args.measure_timeout,
            inject_faults=args.inject_faults,
        )

    def chosen_scale(default: str) -> ExperimentScale:
        scale = _scale_from_name(args.scale if args.scale is not None else default)
        return scale if args.seed is None else dataclasses.replace(scale, seed=args.seed)

    if args.paper_run:
        scale = chosen_scale("paper")
        run_paper_run(
            scale,
            run_dir=args.run_dir if args.run_dir is not None else "paper_run",
            artifacts=artifacts,
            workers=args.workers,
            resume=args.resume,
            repetitions=args.repetitions,
            checkpoint_interval=args.checkpoint_interval,
            section_sink=section_sink,
            replay_trace=args.replay_trace,
            profile=args.profile is not None,
            broker_policy=broker_policy,
            max_unit_attempts=(
                args.max_unit_attempts if args.max_unit_attempts is not None else 3
            ),
        )
    elif args.paper_scale_smoke:
        report = run_paper_scale_smoke(
            benchmark=args.smoke_benchmark, training_examples=args.smoke_examples
        ).render()
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(report + "\n")
        else:
            print(report)
    else:
        scale = chosen_scale("laptop")
        run_all(
            scale,
            workers=args.workers,
            artifacts=artifacts,
            section_sink=section_sink,
            replay_trace=args.replay_trace,
            profile_dir=args.profile,
            broker_policy=broker_policy,
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
