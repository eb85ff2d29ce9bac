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
from repro.experiments.registry import UnitExecution, get_spec, resolve_artifacts
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


def _payload_end(blob):
    """Offset one past a checkpoint slot's payload (the file runs on)."""
    line = blob.split(b"\n", 1)[0]
    return len(line) + 1 + json.loads(line)["bytes"]


def _flip_payload_byte(path):
    """Corrupt a checkpoint slot inside its payload."""
    blob = bytearray(path.read_bytes())
    blob[_payload_end(blob) - 2] ^= 0x01
    path.write_bytes(bytes(blob))


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
    """Two slot files per unit, written in turn: each holds a JSON header
    line (the payload's sha256 and length, the checkpoint's sequence and
    the unit's example progress) followed by the pickle, overwritten in
    place and made durable by one flush.  Loading resumes from the newest
    slot that verifies; when slots exist and none verifies (corrupted,
    truncated, header-less or older-layout files), the unit restarts
    cleanly instead of resuming from garbage."""

    UNIT_ID = "table1--mm--p--r000"

    def _context(self, tmp_path):
        from repro.experiments.runner import _FileUnitContext

        run_dir = tmp_path / "run"
        for sub in ("checkpoints", "claims", "log"):
            (run_dir / sub).mkdir(parents=True, exist_ok=True)
        unit = WorkUnit(artifact="table1", key=("mm", "p", "r000"), params={})
        context = _FileUnitContext(run_dir, unit, checkpoint_interval=5)
        return run_dir, context

    def _slot(self, run_dir, slot):
        return run_dir / "checkpoints" / f"{self.UNIT_ID}.{slot}.pkl"

    def _journal(self, run_dir):
        path = run_dir / "log" / "events.jsonl"
        return path.read_text("utf-8") if path.exists() else ""

    def _assert_restarts(self, run_dir, context):
        assert context.load_checkpoint() is None
        assert "checkpoint-corrupt" in self._journal(run_dir)
        # The corrupt files are discarded so the unit restarts from scratch.
        assert not list((run_dir / "checkpoints").iterdir())

    def test_round_trip_and_corruption_detection(self, tmp_path):
        run_dir, context = self._context(tmp_path)
        context.save_checkpoint({"examples": 7}, 7, 30)
        assert context.load_checkpoint() == {"examples": 7}
        slot = self._slot(run_dir, 0)
        assert [path.name for path in slot.parent.iterdir()] == [slot.name]
        blob = slot.read_bytes()
        header = json.loads(blob.split(b"\n", 1)[0])
        assert (header["examples"], header["target"], header["sequence"]) == (7, 30, 0)
        assert "checkpoint-corrupt" not in self._journal(run_dir)

        slot.write_bytes(blob[: _payload_end(blob) // 2])  # truncated
        self._assert_restarts(run_dir, context)

    def test_slots_alternate_and_the_newest_resumes(self, tmp_path):
        run_dir, context = self._context(tmp_path)
        for done in (5, 10, 15):
            context.save_checkpoint({"examples": done}, done, 30)
        headers = [
            json.loads(self._slot(run_dir, slot).read_bytes().split(b"\n", 1)[0])
            for slot in (0, 1)
        ]
        assert [(h["sequence"], h["examples"]) for h in headers] == [(2, 15), (1, 10)]
        _, resumed = self._context(tmp_path)
        assert resumed.load_checkpoint() == {"examples": 15}
        # The next checkpoint overwrites the older slot, never the newest.
        resumed.save_checkpoint({"examples": 20}, 20, 30)
        header = json.loads(self._slot(run_dir, 1).read_bytes().split(b"\n", 1)[0])
        assert (header["sequence"], header["examples"]) == (3, 20)
        assert self._context(tmp_path)[1].load_checkpoint() == {"examples": 20}

    def test_flipped_payload_byte_is_detected(self, tmp_path):
        run_dir, context = self._context(tmp_path)
        context.save_checkpoint({"examples": 7}, 7, 30)
        slot = self._slot(run_dir, 0)
        blob = bytearray(slot.read_bytes())
        end = _payload_end(blob)
        # A byte past the payload is not part of the checkpoint.
        assert len(blob) > end
        blob[end] ^= 0x01
        slot.write_bytes(bytes(blob))
        assert context.load_checkpoint() == {"examples": 7}
        blob[end - 2] ^= 0x01
        slot.write_bytes(bytes(blob))
        self._assert_restarts(run_dir, context)

    def test_headerless_checkpoint_restarts_unit(self, tmp_path):
        """A bare pickle, as checkpoints were written before they carried
        a header, is not resumed."""
        run_dir, context = self._context(tmp_path)
        self._slot(run_dir, 0).write_bytes(
            pickle.dumps({"examples": 7}, protocol=pickle.HIGHEST_PROTOCOL)
        )
        self._assert_restarts(run_dir, context)

    def test_two_corrupt_slots_restart_the_unit(self, tmp_path):
        run_dir, context = self._context(tmp_path)
        for done in (5, 10):
            context.save_checkpoint({"examples": done}, done, 30)
        for slot in (0, 1):
            _flip_payload_byte(self._slot(run_dir, slot))
        self._assert_restarts(run_dir, self._context(tmp_path)[1])

    def test_corrupt_newest_slot_resumes_from_the_older(self, tmp_path):
        run_dir, context = self._context(tmp_path)
        for done in (5, 10):
            context.save_checkpoint({"examples": done}, done, 30)
        _flip_payload_byte(self._slot(run_dir, 1))
        resumed = self._context(tmp_path)[1]
        assert resumed.load_checkpoint() == {"examples": 5}
        assert "checkpoint-corrupt" not in self._journal(run_dir)
        # The next checkpoint overwrites the corrupt slot.
        resumed.save_checkpoint({"examples": 10}, 10, 30)
        assert self._context(tmp_path)[1].load_checkpoint() == {"examples": 10}

    def test_legacy_single_file_checkpoint_restarts_unit(self, tmp_path):
        """``<unit>.pkl`` with a digest header, the layout before slots, is
        not resumed: the unit restarts and the file is deleted."""
        from hashlib import sha256

        run_dir, context = self._context(tmp_path)
        payload = pickle.dumps({"examples": 7}, protocol=pickle.HIGHEST_PROTOCOL)
        header = {"sha256": sha256(payload).hexdigest(), "examples": 7, "target": 30}
        (run_dir / "checkpoints" / f"{self.UNIT_ID}.pkl").write_bytes(
            json.dumps(header).encode("utf-8") + b"\n" + payload
        )
        self._assert_restarts(run_dir, context)

    def test_kill_before_rename_keeps_previous_checkpoint(self, tmp_path):
        """A stray tmp next to a good checkpoint — what a kill inside the
        tmp-write window of the single-file layout left — is ignored and
        the unit resumes from the checkpoint."""
        run_dir, context = self._context(tmp_path)
        context.save_checkpoint({"examples": 7}, 7, 30)
        checkpoint = self._slot(run_dir, 0)
        torn = checkpoint.with_name(f"{checkpoint.name}.12345.tmp")
        torn.write_bytes(b"torn half-written checkpoint")
        assert context.load_checkpoint() == {"examples": 7}
        assert "checkpoint-corrupt" not in self._journal(run_dir)

    def test_one_atomic_write_per_checkpoint(self, tmp_path, monkeypatch):
        """Each checkpoint is one durable write into the unit's slots, which
        alternate; after a unit's first two writes nothing in checkpoints/
        is created, replaced or renamed.  Claims are renewed by the
        heartbeat alone and no progress or digest file exists."""
        import repro.experiments.runner as runner

        writes = []
        saves = []
        syncs = []
        slot_writes = {}
        moved = []
        real_write = runner._atomic_write_bytes
        real_slot = runner._write_slot
        real_sync = runner._datasync
        real_save = runner._FileUnitContext.save_checkpoint
        real_replace, real_rename = os.replace, os.rename

        def write(path, payload):
            writes.append(path.relative_to(run_dir).parts[0])
            real_write(path, payload)

        def write_slot(path, blob):
            assert {p.name for p in path.parent.iterdir()} <= {
                f"{unit}.{slot}.pkl" for unit in units for slot in (0, 1)
            }
            existed = path.exists()
            real_slot(path, blob)
            unit, slot = path.name[: -len(".0.pkl")], int(path.name[-5])
            slot_writes.setdefault(unit, []).append(
                (slot, existed, path.stat().st_ino)
            )

        def sync(fd):
            syncs.append(fd)
            real_sync(fd)

        def save(context, state, done, target):
            saves.append(done)
            real_save(context, state, done, target)

        def replace(source, target, *args, **kwargs):
            moved.append(pathlib.Path(target).parent.name)
            real_replace(source, target, *args, **kwargs)

        def rename(source, target, *args, **kwargs):
            moved.append(pathlib.Path(target).parent.name)
            real_rename(source, target, *args, **kwargs)

        monkeypatch.setattr(runner, "_atomic_write_bytes", write)
        monkeypatch.setattr(runner, "_write_slot", write_slot)
        monkeypatch.setattr(runner, "_datasync", sync)
        monkeypatch.setattr(runner._FileUnitContext, "save_checkpoint", save)
        monkeypatch.setattr(os, "replace", replace)
        monkeypatch.setattr(os, "rename", rename)
        run_dir = tmp_path / "run"
        scale = _small_scale(repetitions=1)
        units = [unit.unit_id for unit in get_spec("table1").work_units(scale)]
        ExperimentRunner(
            run_dir, scale, artifacts=["table1"], checkpoint_interval=1
        ).run()
        monkeypatch.undo()
        assert saves and len(syncs) == len(saves)
        assert sum(len(unit_writes) for unit_writes in slot_writes.values()) == len(saves)
        for unit_writes in slot_writes.values():
            assert [slot for slot, _, _ in unit_writes] == [
                index % 2 for index in range(len(unit_writes))
            ]
            # Two creates, then every write lands in an existing slot file
            # that is never replaced (its inode stays).
            assert [existed for _, existed, _ in unit_writes] == [False, False] + [
                True
            ] * (len(unit_writes) - 2)
            for slot in (0, 1):
                assert len({inode for s, _, inode in unit_writes if s == slot}) == 1
        assert "checkpoints" not in writes and "checkpoints" not in moved
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


class TestCheckpointTiming:
    """Each unit's publish event reports how many checkpoints it saved and
    the seconds they took (pickle, digest and durable write)."""

    @staticmethod
    def _publishes(run_dir):
        path = run_dir / "log" / "events.jsonl"
        events = [json.loads(line) for line in path.read_text("utf-8").splitlines()]
        return {e["unit"]: e for e in events if e["event"] == "publish"}

    def test_one_checkpoint_per_example(self, tmp_path):
        scale = _small_scale(repetitions=1, max_examples=12)
        runner = ExperimentRunner(
            tmp_path / "run", scale, artifacts=["table1"], checkpoint_interval=1
        )
        runner.run(workers=1)
        publishes = self._publishes(tmp_path / "run")
        assert len(publishes) == 3
        for unit_id, event in publishes.items():
            record = pickle.loads((tmp_path / "run" / "results" / f"{unit_id}.pkl").read_bytes())
            learned = record["payload"].training_examples - scale.learner.n_initial
            assert learned > 0
            assert event["checkpoints"] == learned
            assert event["checkpoint_s"] > 0.0

    def test_no_checkpoints_without_an_interval(self, tmp_path):
        from repro.experiments.runner import _QueuedExecution

        scale = _small_scale(repetitions=1, max_examples=12)
        ExperimentRunner(tmp_path / "run", scale, artifacts=["table1"]).prepare()
        job = _QueuedExecution(
            UnitExecution(scale),
            tmp_path / "run",
            checkpoint_interval=0,
            lease_seconds=60.0,
            max_unit_attempts=1,
        )
        unit = get_spec("table1").work_units(scale)[0]
        assert job(unit) == "done"
        event = self._publishes(tmp_path / "run")[unit.unit_id]
        assert event["checkpoints"] == 0
        assert event["checkpoint_s"] == 0.0


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

    def test_in_flight_unit_counts_once(self, tmp_path):
        """A unit with both slots written counts once, from its newest."""
        from repro.experiments.runner import _FileUnitContext

        runner = ExperimentRunner(tmp_path / "run", _small_scale(), artifacts=["table1"])
        runner.prepare()
        unit = WorkUnit(artifact="table1", key=("a",), params={})
        context = _FileUnitContext(runner.run_dir, unit, checkpoint_interval=1)
        for done in (4, 7, 10):
            context.save_checkpoint({"examples": done}, done, 20)
        assert len(list((runner.run_dir / "checkpoints").iterdir())) == 2
        line = runner._status_line({"total": 2, "started": time.monotonic() - 60.0})
        # 10/20 in flight, nothing done: 0.5 units in 60 s, 1.5 to go.
        assert line == "  units 0/2, in flight 10 examples, elapsed 1.0 min, ETA 3.0 min"

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
real = runner._write_slot
counts = {"slot": 0}


def patched(path, blob):
    counts["slot"] += 1
    if MODE == "tmp" and counts["slot"] == 3:
        # Die inside the third checkpoint's write: slot 0, which holds the
        # first checkpoint, is overwritten in place with half the blob.
        fd = os.open(path, os.O_RDWR)
        os.pwrite(fd, blob[: len(blob) // 2], 0)
        os.close(fd)
        os.kill(os.getpid(), signal.SIGKILL)
    real(path, blob)
    if MODE != "tmp" and counts["slot"] == 3:
        # The third checkpoint is durable; die before the unit takes
        # another step.
        os.kill(os.getpid(), signal.SIGKILL)


runner._write_slot = patched

from repro.experiments.run_all import main

sys.exit(main(sys.argv[2:]))
"""


class TestKillInCheckpointWindow:
    """SIGKILL while a checkpoint overwrites its slot (``tmp``), or right
    after the write became durable (``after-rename``): --resume restarts
    from the last good checkpoint — the previous one in the other slot, or
    the one just written — and the final report is identical to an
    uninterrupted run.  The same holds when, after the kill, the newest
    slot is corrupted (the unit resumes from the older one) or both are
    (the unit restarts, journalled as ``checkpoint-corrupt``)."""

    @staticmethod
    def _env():
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        return env

    @staticmethod
    def _arguments(run_dir, report, resume=False):
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

    @pytest.fixture(scope="class")
    def clean_run(self, tmp_path_factory):
        """The uninterrupted run every mode is compared with: its run
        directory and report, made once for the class."""
        root = tmp_path_factory.mktemp("clean-run")
        clean_report = root / "clean.txt"
        subprocess.run(
            [sys.executable, "-m", "repro.experiments.run_all"]
            + self._arguments(root / "clean", clean_report),
            env=self._env(),
            cwd=REPO_ROOT,
            check=True,
            capture_output=True,
            timeout=600,
        )
        return root / "clean", clean_report

    @pytest.mark.parametrize(
        "mode", ["tmp", "after-rename", "corrupt-newest", "corrupt-both"]
    )
    def test_resume_after_kill_in_window_is_identical(
        self, tmp_path, mode, clean_run
    ):
        from repro.experiments.runner import _verified_slot

        env = self._env()
        arguments = self._arguments
        clean_dir, clean_report = clean_run

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
        # The kill landed in the third checkpoint: the torn slot 0 fails
        # verification next to slot 1's second checkpoint, or slot 0 holds
        # the durable third one.
        slots = sorted((killed_dir / "checkpoints").glob("*.pkl"))
        assert [path.name[-6:] for path in slots] == [".0.pkl", ".1.pkl"]
        verified = [
            _verified_slot(path.read_bytes(), slot) for slot, path in enumerate(slots)
        ]
        assert verified[1] is not None and verified[1][0] == 1
        if mode == "tmp":
            assert verified[0] is None
        else:
            assert verified[0] is not None and verified[0][0] == 2
        if mode in ("corrupt-newest", "corrupt-both"):
            _flip_payload_byte(slots[0])
        if mode == "corrupt-both":
            _flip_payload_byte(slots[1])

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
        journal = (killed_dir / "log" / "events.jsonl").read_text("utf-8")
        if mode == "corrupt-both":
            assert "checkpoint-corrupt" in journal
        else:
            # A good checkpoint verified and the unit resumed from it.
            assert "checkpoint-corrupt" not in journal
        assert not list((killed_dir / "checkpoints").iterdir())
        # The resumed unit saved only the checkpoints after the one it
        # resumed from: sequence 1 or 2, or none after a restart.
        unit = slots[0].name[: -len(".0.pkl")]
        resumed_from = {"tmp": 1, "after-rename": 2, "corrupt-newest": 1}.get(mode)
        saved = TestCheckpointTiming._publishes(killed_dir)[unit]["checkpoints"]
        clean = TestCheckpointTiming._publishes(clean_dir)[unit]["checkpoints"]
        assert saved == clean - (0 if resumed_from is None else resumed_from + 1)


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


class TestClaimCreation:
    """A claim file exists only with its full payload: a writer killed
    between creating and filling it cannot leave an empty claim, which a
    resumed run could take over only after the whole lease."""

    @staticmethod
    def _claims(tmp_path):
        (tmp_path / "log").mkdir()
        claims = tmp_path / "claims"
        claims.mkdir()
        return claims

    def test_claim_is_linked_into_place_already_written(self, tmp_path, monkeypatch):
        from repro.experiments import runner as runner_module

        claims = self._claims(tmp_path)
        linked = []
        real_link = os.link

        def checked_link(source, destination):
            # The payload is complete before the claim name exists.
            linked.append(json.loads(pathlib.Path(source).read_text("utf-8")))
            return real_link(source, destination)

        monkeypatch.setattr(runner_module.os, "link", checked_link)
        claim = claims / "unit.claim"
        assert runner_module._try_claim(claim, lease_seconds=900.0)
        record = json.loads(claim.read_text("utf-8"))
        assert linked == [record]
        assert record["pid"] == os.getpid() and record["lease_seconds"] == 900.0
        assert [path.name for path in claims.iterdir()] == ["unit.claim"]

    def test_losing_contender_leaves_the_claim_and_no_file(self, tmp_path):
        from repro.experiments.runner import _try_claim

        claims = self._claims(tmp_path)
        claim = claims / "unit.claim"
        assert _try_claim(claim, lease_seconds=900.0)
        before = claim.read_bytes()
        assert not _try_claim(claim, lease_seconds=900.0)
        assert claim.read_bytes() == before
        assert [path.name for path in claims.iterdir()] == ["unit.claim"]
