"""Tests of the sharded, checkpointed experiment backend.

Covers the on-disk task queue (manifest round-trips, resume guards), the
learner checkpoint/resume path (bit-identical continuation, including
benchmarks with stateful drift noise), and — the headline guarantee —
that a ``run_all --paper-run`` invocation killed mid-flight resumes from
its checkpoints and produces results identical to an uninterrupted run.
The registry-level guarantees (every artifact's sharded fold equals the
in-memory path, multi-host claim contention) live in ``test_registry.py``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import pickle
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.core.evaluation import build_test_set
from repro.core.learner import ActiveLearner, LearnerConfig
from repro.core.plans import sequential_plan
from repro.experiments.config import ExperimentScale
from repro.experiments.runner import (
    ExperimentRunner,
    PartialArtifactResult,
    RunManifest,
    RunnerError,
    WorkUnit,
)
from repro.experiments.registry import resolve_artifacts
from repro.measurement.faults import BrokerPolicy
from repro.spapt.suite import get_benchmark

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _small_scale(benchmarks=("mm",), repetitions=2, max_examples=20):
    return ExperimentScale(
        name="test",
        benchmarks=tuple(benchmarks),
        learner=LearnerConfig(
            n_initial=4,
            seed_observations=4,
            n_candidates=12,
            max_training_examples=max_examples,
            reference_size=8,
            evaluation_interval=5,
            tree_particles=6,
        ),
        repetitions=repetitions,
        test_size=30,
        test_observations=3,
        dataset_configurations=30,
        dataset_observations=4,
        figure1_grid=4,
        seed=2017,
    )


class TestWorkUnitsAndManifest:
    def test_unit_id_is_filesystem_safe_and_stable(self):
        unit = WorkUnit(
            artifact="table1",
            key=("mm", "all-observations", "r003"),
            params={"benchmark": "mm"},
        )
        assert unit.unit_id == "table1--mm--all-observations--r003"
        assert "/" not in unit.unit_id and " " not in unit.unit_id

    def test_unit_record_round_trip(self):
        unit = WorkUnit(
            artifact="table1",
            key=("mm", "r0"),
            params={"benchmark": "mm", "repetition": 0},
        )
        assert WorkUnit.from_record(unit.to_record()) == unit

    def test_manifest_round_trip(self, tmp_path):
        scale = _small_scale(benchmarks=("mm", "adi"))
        specs = resolve_artifacts(["table1"])
        manifest = RunManifest.build(scale, specs)
        path = tmp_path / "manifest.jsonl"
        manifest.write(path, scale, ["table1"])
        loaded = RunManifest.read(path)
        assert loaded == manifest
        assert len(loaded.units) == 2 * 3 * scale.repetitions

    def test_manifest_covers_dependency_closure(self, tmp_path):
        scale = _small_scale()
        runner = ExperimentRunner(tmp_path / "run", scale, artifacts=["figure5"])
        manifest = runner.prepare()
        # figure5 contributes no units but pulls table1's in.
        assert {unit.artifact for unit in manifest.units} == {"table1"}

    def test_prepare_requires_resume_for_existing_run(self, tmp_path):
        runner = ExperimentRunner(tmp_path, _small_scale(), artifacts=["table1"])
        runner.prepare()
        with pytest.raises(RunnerError, match="resume"):
            runner.prepare(resume=False)
        assert runner.prepare(resume=True).units

    def test_prepare_rejects_mismatched_configuration(self, tmp_path):
        ExperimentRunner(tmp_path, _small_scale(), artifacts=["table1"]).prepare()
        other = ExperimentRunner(
            tmp_path, _small_scale(max_examples=25), artifacts=["table1"]
        )
        with pytest.raises(RunnerError, match="different experiment"):
            other.prepare(resume=True)

    def test_prepare_rejects_mismatched_artifacts(self, tmp_path):
        ExperimentRunner(tmp_path, _small_scale(), artifacts=["table1"]).prepare()
        other = ExperimentRunner(tmp_path, _small_scale(), artifacts=["table2"])
        with pytest.raises(RunnerError, match="different experiment"):
            other.prepare(resume=True)

    def test_merge_refuses_partial_runs(self, tmp_path):
        runner = ExperimentRunner(tmp_path, _small_scale(), artifacts=["table1"])
        runner.prepare()
        with pytest.raises(RunnerError, match="incomplete"):
            runner.merge()

    def test_merge_renders_a_quarantined_run_like_run(self, tmp_path):
        """merge() of a finished run with a quarantined unit folds the same
        partial artifact run() returned, coverage report included."""
        runner = ExperimentRunner(
            tmp_path,
            _small_scale(),
            artifacts=["table1"],
            broker_policy=BrokerPolicy(
                inject_faults="fail-units=mm--one-observation--r001"
            ),
            max_unit_attempts=1,
        )
        ran = runner.run(workers=1)["table1"]
        merged = runner.merge()["table1"]
        assert isinstance(ran, PartialArtifactResult)
        assert isinstance(merged, PartialArtifactResult)
        assert [record["unit"] for record in merged.quarantined] == [
            "table1--mm--one-observation--r001"
        ]
        assert merged.render().startswith("!! PARTIAL RESULT: 5/6 units folded")
        assert merged.render() == ran.render()

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(KeyError):
            _small_scale(benchmarks=("nonexistent",))


class TestCheckpointResume:
    @pytest.mark.parametrize("benchmark_name", ["mm", "adi"])
    def test_resume_is_bit_identical(self, benchmark_name):
        """Resuming from a pickled mid-run checkpoint continues the exact
        trajectory — ``adi`` additionally exercises the frequency-drift
        noise state riding along in the checkpoint."""
        learner_config = _small_scale(max_examples=24).learner

        def build(seed=2017):
            benchmark = get_benchmark(benchmark_name)
            test_set = build_test_set(
                benchmark, size=30, observations=3, rng=np.random.default_rng(seed + 1)
            )
            learner = ActiveLearner(
                benchmark,
                plan=sequential_plan(),
                config=learner_config,
                rng=np.random.default_rng(seed),
            )
            return benchmark, test_set, learner

        _, test_set, learner = build()
        baseline = learner.run(test_set)

        blobs = []
        _, test_set, learner = build()
        learner.run(
            test_set,
            checkpoint_interval=6,
            checkpoint_sink=lambda ckpt: blobs.append(
                pickle.dumps(ckpt, protocol=pickle.HIGHEST_PROTOCOL)
            ),
        )
        assert len(blobs) >= 2
        checkpoint = pickle.loads(blobs[1])

        benchmark, test_set, _ = build()  # test set BEFORE restoring drift state
        benchmark.restore_noise_model(checkpoint.noise_model)
        learner = ActiveLearner(
            benchmark,
            plan=sequential_plan(),
            config=learner_config,
            rng=np.random.default_rng(12345),  # must be ignored on resume
        )
        resumed = learner.run(test_set, resume=checkpoint)

        assert len(baseline.curve.points) == len(resumed.curve.points)
        for expected, actual in zip(baseline.curve.points, resumed.curve.points):
            assert expected.cost_seconds == actual.cost_seconds
            assert expected.rmse == actual.rmse
        assert baseline.ledger.total_seconds == resumed.ledger.total_seconds
        assert baseline.observation_counts == resumed.observation_counts

    def test_resume_rejects_wrong_plan(self):
        benchmark = get_benchmark("mm")
        config = _small_scale().learner
        test_set = build_test_set(
            benchmark, size=20, observations=2, rng=np.random.default_rng(1)
        )
        learner = ActiveLearner(
            benchmark, plan=sequential_plan(), config=config,
            rng=np.random.default_rng(0),
        )
        captured = []
        learner.run(test_set, checkpoint_interval=5, checkpoint_sink=captured.append)
        from repro.core.plans import fixed_plan

        other = ActiveLearner(
            benchmark, plan=fixed_plan(35), config=config,
            rng=np.random.default_rng(0),
        )
        with pytest.raises(ValueError, match="plan"):
            other.run(test_set, resume=captured[0])


class TestRunnerEquivalence:
    def test_completed_run_resumes_to_identical_merge(self, tmp_path):
        scale = _small_scale(repetitions=1)
        runner = ExperimentRunner(tmp_path / "run", scale, artifacts=["table1"])
        first = runner.run(workers=1)["table1"]
        again = ExperimentRunner(tmp_path / "run", scale, artifacts=["table1"]).run(
            workers=1, resume=True
        )["table1"]
        assert {
            name: comparison.cost_to_reach
            for name, comparison in first.comparisons.items()
        } == {
            name: comparison.cost_to_reach
            for name, comparison in again.comparisons.items()
        }


class TestKillAndResume:
    def test_killed_paper_run_resumes_identically(self, tmp_path):
        """The acceptance pin: a ``run_all --paper-run`` smoke run killed
        mid-flight (SIGKILL, 2 repetitions) and resumed produces a report
        identical to an uninterrupted run."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )

        def command(run_dir, report, resume=False):
            argv = [
                sys.executable,
                "-m",
                "repro.experiments.run_all",
                "--paper-run",
                "--scale",
                "smoke",
                "--repetitions",
                "2",
                "--checkpoint-interval",
                "3",
                "--run-dir",
                str(run_dir),
                "--output",
                str(report),
            ]
            if resume:
                argv.append("--resume")
            return argv

        full_report = tmp_path / "full.txt"
        subprocess.run(
            command(tmp_path / "full", full_report),
            env=env,
            cwd=REPO_ROOT,
            check=True,
            capture_output=True,
            timeout=600,
        )

        killed_dir = tmp_path / "killed"
        killed_report = tmp_path / "killed.txt"
        process = subprocess.Popen(
            command(killed_dir, killed_report),
            env=env,
            cwd=REPO_ROOT,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        results_dir = killed_dir / "results"
        checkpoints_dir = killed_dir / "checkpoints"
        deadline = time.monotonic() + 300
        try:
            # Kill once the run is demonstrably mid-flight: at least two
            # units published (so completed work must be preserved) or an
            # in-flight checkpoint exists (so a unit must resume mid-run).
            while time.monotonic() < deadline:
                if process.poll() is not None:
                    pytest.fail("run finished before it could be killed")
                published = (
                    len(list(results_dir.glob("*.pkl")))
                    if results_dir.is_dir()
                    else 0
                )
                checkpointed = (
                    len(list(checkpoints_dir.glob("*.pkl")))
                    if checkpoints_dir.is_dir()
                    else 0
                )
                if published >= 2 or checkpointed >= 1:
                    break
                time.sleep(0.05)
            process.send_signal(signal.SIGKILL)
        finally:
            process.wait(timeout=60)

        resumed = subprocess.run(
            command(killed_dir, killed_report, resume=True),
            env=env,
            cwd=REPO_ROOT,
            check=True,
            capture_output=True,
            timeout=600,
        )
        assert killed_report.exists(), resumed.stderr.decode()

        def body(path):
            # Drop the header section, which names the run directory.
            return path.read_text("utf-8").split("\n\n", 1)[1]

        assert body(killed_report) == body(full_report)


class TestCheckpointIntegrity:
    """One file per checkpoint: a JSON header line (the payload's sha256
    and the unit's example progress) followed by the pickle, committed by
    one atomic write.  Corrupted, truncated and header-less checkpoints
    are detected and the unit restarts cleanly instead of resuming from
    garbage."""

    UNIT_ID = "table1--mm--p--r000"

    def _context(self, tmp_path):
        from repro.experiments.runner import _FileUnitContext

        run_dir = tmp_path / "run"
        for sub in ("checkpoints", "claims", "log"):
            (run_dir / sub).mkdir(parents=True)
        unit = WorkUnit(artifact="table1", key=("mm", "p", "r000"), params={})
        context = _FileUnitContext(run_dir, unit, checkpoint_interval=5)
        return run_dir, context

    def _checkpoint(self, run_dir):
        return run_dir / "checkpoints" / f"{self.UNIT_ID}.pkl"

    def _journal(self, run_dir):
        path = run_dir / "log" / "events.jsonl"
        return path.read_text("utf-8") if path.exists() else ""

    def _assert_restarts(self, run_dir, context):
        assert context.load_checkpoint() is None
        assert "checkpoint-corrupt" in self._journal(run_dir)
        # The corrupt file is discarded so the unit restarts from scratch.
        assert not self._checkpoint(run_dir).exists()

    def test_round_trip_and_corruption_detection(self, tmp_path):
        run_dir, context = self._context(tmp_path)
        context.save_checkpoint({"examples": 7}, 7, 30)
        assert context.load_checkpoint() == {"examples": 7}
        checkpoint = self._checkpoint(run_dir)
        assert [path.name for path in checkpoint.parent.iterdir()] == [checkpoint.name]
        blob = checkpoint.read_bytes()
        header = json.loads(blob.split(b"\n", 1)[0])
        assert (header["examples"], header["target"]) == (7, 30)
        assert "checkpoint-corrupt" not in self._journal(run_dir)

        checkpoint.write_bytes(blob[: len(blob) // 2])  # truncated
        self._assert_restarts(run_dir, context)

    def test_flipped_payload_byte_is_detected(self, tmp_path):
        run_dir, context = self._context(tmp_path)
        context.save_checkpoint({"examples": 7}, 7, 30)
        checkpoint = self._checkpoint(run_dir)
        blob = bytearray(checkpoint.read_bytes())
        blob[-2] ^= 0x01
        checkpoint.write_bytes(bytes(blob))
        self._assert_restarts(run_dir, context)

    def test_headerless_checkpoint_restarts_unit(self, tmp_path):
        """A bare pickle, as checkpoints were written before they carried
        a header, is not resumed."""
        run_dir, context = self._context(tmp_path)
        self._checkpoint(run_dir).write_bytes(
            pickle.dumps({"examples": 7}, protocol=pickle.HIGHEST_PROTOCOL)
        )
        self._assert_restarts(run_dir, context)

    def test_kill_before_rename_keeps_previous_checkpoint(self, tmp_path):
        """A kill inside the tmp-write window leaves the previous good
        checkpoint intact (plus a stray tmp) and the unit resumes from it."""
        run_dir, context = self._context(tmp_path)
        context.save_checkpoint({"examples": 7}, 7, 30)
        checkpoint = self._checkpoint(run_dir)
        torn = checkpoint.with_name(f"{checkpoint.name}.12345.tmp")
        torn.write_bytes(b"torn half-written checkpoint")
        assert context.load_checkpoint() == {"examples": 7}
        assert "checkpoint-corrupt" not in self._journal(run_dir)

    def test_one_atomic_write_per_checkpoint(self, tmp_path, monkeypatch):
        """Each checkpoint is one durable write; claims are renewed by the
        heartbeat alone and no progress or digest file exists."""
        import repro.experiments.runner as runner

        writes = []
        saves = []
        real_write = runner._atomic_write_bytes
        real_save = runner._FileUnitContext.save_checkpoint

        def write(path, payload):
            writes.append(path.relative_to(run_dir).parts[0])
            real_write(path, payload)

        def save(context, state, done, target):
            saves.append(done)
            real_save(context, state, done, target)

        monkeypatch.setattr(runner, "_atomic_write_bytes", write)
        monkeypatch.setattr(runner._FileUnitContext, "save_checkpoint", save)
        run_dir = tmp_path / "run"
        ExperimentRunner(
            run_dir,
            _small_scale(repetitions=1),
            artifacts=["table1"],
            checkpoint_interval=1,
        ).run()
        assert saves and writes.count("checkpoints") == len(saves)
        assert "claims" not in writes and "progress" not in writes
        assert not (run_dir / "progress").exists()
        assert not list(run_dir.rglob("*.sha256"))

    @pytest.mark.parametrize("stamp", ["current", "previous", "foreign", "missing"])
    def test_format_stamp_decides_resume(self, tmp_path, monkeypatch, stamp):
        """Only a session stamped with the current checkpoint format
        resumes; any other stamp, or none, restarts the unit.  Older
        layouts (format 4 resumed models under the replayed per-particle
        draw order) are the ``previous`` case."""
        from repro.core.session import TuningSession

        assert TuningSession._CHECKPOINT_FORMAT == 7

        _, context = self._context(tmp_path)
        mm = get_benchmark("mm")
        test_set = build_test_set(mm, size=10, observations=2, rng=np.random.default_rng(8))
        session = ActiveLearner(mm, rng=np.random.default_rng(7)).start_session(test_set)
        stamped = TuningSession.__getstate__
        if stamp == "previous":
            monkeypatch.setattr(TuningSession, "_CHECKPOINT_FORMAT", 1)
        elif stamp == "foreign":
            monkeypatch.setattr(
                TuningSession, "_CHECKPOINT_FORMAT", TuningSession._CHECKPOINT_FORMAT + 1
            )
        elif stamp == "missing":
            monkeypatch.setattr(
                TuningSession,
                "__getstate__",
                lambda self: {
                    key: value
                    for key, value in stamped(self).items()
                    if key != "_checkpoint_format"
                },
            )
        context.save_checkpoint(session, 0, 1)
        monkeypatch.undo()
        loaded = context.load_checkpoint()
        if stamp == "current":
            assert isinstance(loaded, TuningSession)
        else:
            assert loaded is None


class TestStatusLine:
    def test_in_flight_examples_and_eta_come_from_checkpoint_headers(self, tmp_path):
        from repro.experiments.runner import _FileUnitContext

        runner = ExperimentRunner(tmp_path / "run", _small_scale(), artifacts=["table1"])
        runner.prepare()
        for name, done in (("a", 10), ("b", 5)):
            unit = WorkUnit(artifact="table1", key=(name,), params={})
            _FileUnitContext(runner.run_dir, unit, checkpoint_interval=1).save_checkpoint(
                {"examples": done}, done, 20
            )
        # A header-less file (older layout) adds no in-flight examples.
        (runner.run_dir / "checkpoints" / "c.pkl").write_bytes(pickle.dumps({}))
        (runner.run_dir / "results" / "d.pkl").write_bytes(b"")
        line = runner._status_line({"total": 4, "started": time.monotonic() - 60.0})
        # One unit done plus 10/20 and 5/20 in flight: 1.75 units in 60 s,
        # so the remaining 2.25 take about 77 s.
        assert line.startswith("  units 1/4, in flight 15 examples, elapsed 1.0 min")
        assert line.endswith(", ETA 1.3 min")

    def test_no_eta_before_any_progress(self, tmp_path):
        runner = ExperimentRunner(tmp_path / "run", _small_scale(), artifacts=["table1"])
        runner.prepare()
        line = runner._status_line({"total": 4, "started": time.monotonic() - 60.0})
        assert line == "  units 0/4, elapsed 1.0 min"


class TestJournalRecovery:
    def _journal(self, tmp_path, payload):
        run_dir = tmp_path / "run"
        (run_dir / "log").mkdir(parents=True)
        path = run_dir / "log" / "events.jsonl"
        path.write_bytes(payload)
        return run_dir, path

    def test_torn_tail_is_truncated(self, tmp_path):
        from repro.experiments.runner import _recover_journal

        good = b'{"event": "claim", "unit": "a"}\n{"event": "publish", "unit": "a"}\n'
        run_dir, path = self._journal(tmp_path, good + b'{"event": "cl')
        _recover_journal(run_dir)
        assert path.read_bytes() == good

    def test_healthy_journal_is_untouched(self, tmp_path):
        from repro.experiments.runner import _recover_journal

        good = b'{"event": "claim", "unit": "a"}\n'
        run_dir, path = self._journal(tmp_path, good)
        _recover_journal(run_dir)
        assert path.read_bytes() == good

    def test_missing_or_empty_journal_is_fine(self, tmp_path):
        from repro.experiments.runner import _recover_journal

        run_dir, path = self._journal(tmp_path, b"")
        _recover_journal(run_dir)
        assert path.read_bytes() == b""
        _recover_journal(tmp_path / "nonexistent")


_KILL_WINDOW_DRIVER = """\
import os
import signal
import sys

import repro.experiments.runner as runner

MODE = sys.argv[1]
real = runner._atomic_write_bytes
counts = {"pkl": 0}


def patched(path, payload):
    if path.parent.name != "checkpoints":
        real(path, payload)
        return
    counts["pkl"] += 1
    if MODE == "tmp" and counts["pkl"] == 2:
        # Die inside the tmp-write window of the second checkpoint:
        # leave a torn tmp, never rename.
        torn = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        with open(torn, "wb") as handle:
            handle.write(payload[: max(1, len(payload) // 2)])
        os.kill(os.getpid(), signal.SIGKILL)
    real(path, payload)
    if MODE == "after-rename" and counts["pkl"] == 2:
        # The second checkpoint's rename just committed; die before the
        # unit takes another step.
        os.kill(os.getpid(), signal.SIGKILL)


runner._atomic_write_bytes = patched

from repro.experiments.run_all import main

sys.exit(main(sys.argv[2:]))
"""


class TestKillInCheckpointWindow:
    """SIGKILL inside the checkpoint tmp+rename window, or right after the
    rename committed: --resume restarts from the last good checkpoint —
    the previous one or the one just written — and the final report is
    identical to an uninterrupted run."""

    @pytest.mark.parametrize("mode", ["tmp", "after-rename"])
    def test_resume_after_kill_in_window_is_identical(self, tmp_path, mode):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )

        def arguments(run_dir, report, resume=False):
            argv = [
                "--paper-run",
                "--scale",
                "smoke",
                "--only",
                "table1",
                "--repetitions",
                "1",
                "--checkpoint-interval",
                "3",
                "--run-dir",
                str(run_dir),
                "--output",
                str(report),
            ]
            if resume:
                argv.append("--resume")
            return argv

        clean_report = tmp_path / "clean.txt"
        subprocess.run(
            [sys.executable, "-m", "repro.experiments.run_all"]
            + arguments(tmp_path / "clean", clean_report),
            env=env,
            cwd=REPO_ROOT,
            check=True,
            capture_output=True,
            timeout=600,
        )

        driver = tmp_path / "driver.py"
        driver.write_text(_KILL_WINDOW_DRIVER, "utf-8")
        killed_dir = tmp_path / "killed"
        killed_report = tmp_path / "killed.txt"
        process = subprocess.run(
            [sys.executable, str(driver), mode]
            + arguments(killed_dir, killed_report),
            env=env,
            cwd=REPO_ROOT,
            capture_output=True,
            timeout=600,
        )
        assert process.returncode == -signal.SIGKILL, process.stderr.decode()
        # The kill landed after the first good checkpoint.
        assert list((killed_dir / "checkpoints").glob("*.pkl"))

        subprocess.run(
            [sys.executable, "-m", "repro.experiments.run_all"]
            + arguments(killed_dir, killed_report, resume=True),
            env=env,
            cwd=REPO_ROOT,
            check=True,
            capture_output=True,
            timeout=600,
        )

        def body(path):
            return path.read_text("utf-8").split("\n\n", 1)[1]

        assert body(killed_report) == body(clean_report)
        # Either way a good checkpoint verified and the unit resumed from it.
        journal = (killed_dir / "log" / "events.jsonl").read_text("utf-8")
        assert "checkpoint-corrupt" not in journal


class TestClaimOrder:
    """Per-host deterministic permutation of the claim walk (contention)."""

    def _runner(self, tmp_path, name="run"):
        return ExperimentRunner(
            tmp_path / name, _small_scale(repetitions=6), artifacts=["table1"]
        )

    def test_order_is_a_deterministic_permutation(self, tmp_path):
        runner = self._runner(tmp_path)
        units = list(runner.prepare().units)
        assert len(units) >= 6
        once = [u.unit_id for u in runner._claim_order(units)]
        again = [u.unit_id for u in runner._claim_order(units)]
        assert once == again
        assert sorted(once) == sorted(u.unit_id for u in units)

    def test_hosts_walk_different_orders(self, tmp_path):
        runner = self._runner(tmp_path)
        units = list(runner.prepare().units)
        peer = ExperimentRunner(
            tmp_path / "run", _small_scale(repetitions=6), artifacts=["table1"]
        )
        # Two runners in one process share a host tag; pin distinct seeds
        # the way distinct hosts would derive them.
        runner._claim_order_seed = 1
        peer._claim_order_seed = 2
        ours = [u.unit_id for u in runner._claim_order(units)]
        theirs = [u.unit_id for u in peer._claim_order(units)]
        assert ours != theirs
        assert sorted(ours) == sorted(theirs)

    def test_permuted_orders_reduce_claim_collisions(self, tmp_path):
        """Two hosts walking one queue: a shared claim order collides on
        every unit, per-host permutations mostly avoid each other.

        The simulation interleaves two hosts attempting ``_try_claim``
        round-robin over their respective orders — exactly the race the
        runner's cheap ``_unit_is_open`` pre-filter cannot arbitrate —
        and counts O_EXCL losses.
        """
        from repro.experiments.runner import _try_claim

        runner = self._runner(tmp_path)
        units = list(runner.prepare().units)
        host_a = self._runner(tmp_path, name="a")
        host_b = self._runner(tmp_path, name="b")

        def simulate(seed_a, seed_b, base_dir):
            # _try_claim journals to <run_dir>/log, two levels up from the
            # claim file, so lay the simulated queue out like a run dir.
            claims_dir = base_dir / "claims"
            claims_dir.mkdir(parents=True, exist_ok=True)
            (base_dir / "log").mkdir(parents=True, exist_ok=True)
            host_a._claim_order_seed = seed_a
            host_b._claim_order_seed = seed_b
            collisions = 0
            while True:
                # Both hosts snapshot the open set at the same instant —
                # the window _unit_is_open cannot arbitrate — and race for
                # the head of their respective orderings.
                open_units = [
                    u
                    for u in units
                    if not (claims_dir / f"{u.unit_id}.claim").exists()
                ]
                if not open_units:
                    return collisions
                picks = (
                    host_a._claim_order(open_units)[0],
                    host_b._claim_order(open_units)[0],
                )
                for pick in picks:
                    claim = claims_dir / f"{pick.unit_id}.claim"
                    if not _try_claim(claim, lease_seconds=900.0):
                        collisions += 1

        shared = simulate(7, 7, tmp_path / "queue_shared")
        permuted = simulate(1, 2, tmp_path / "queue_permuted")

        # A shared order races for the same head every round — one loser
        # per unit; per-host permutations mostly pick different heads.
        assert shared == len(units)
        assert permuted < shared
