"""Tests of the declarative experiment registry and its two backends.

The load-bearing guarantees:

* **round trip** — every registered spec decomposes into units, executes
  sharded over the task-queue backend, and folds to a report identical to
  the serial in-memory path, which in turn does not depend on the worker
  count (pinned on the drift benchmarks too, whose noise carries state
  from measurement to measurement);
* **multi-host claims** — two runners sharing one run directory never
  execute the same unit twice (O_EXCL claim files), and a claim whose
  lease expired is taken over by exactly one contender;
* **kill → resume on a migrated artifact** — a partially executed
  ``table2`` run resumed from its published results renders bit-identically
  to an uninterrupted run (the SIGKILL variant over the full artifact set
  lives in ``test_runner.py``);
* **streaming reports** — ``run_all`` emits each artifact's section as it
  completes, so a killed report run keeps its finished sections;
* **partial results copy** — a folded artifact with quarantined units
  survives ``copy``, ``deepcopy`` and a pickle round trip unchanged;
* **held-out test set memo** — a learner unit that reuses its
  repetition's test set (and the drift state after its build) returns
  what a fresh process returns.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import multiprocessing
import pickle
import threading
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.core.learner import LearnerConfig
from repro.experiments.config import ExperimentScale
from repro.experiments import registry
from repro.experiments.registry import (
    DEFAULT_ARTIFACTS,
    PartialArtifactResult,
    UnitContext,
    UnitExecution,
    WorkUnit,
    get_spec,
    resolve_artifacts,
    run_artifacts,
    spec_names,
)
from repro.experiments.runner import ExperimentRunner, _try_claim
from repro.measurement.faults import BrokerPolicy, MeasurementFailedError
from repro.spapt.suite import get_benchmark

ALL_ARTIFACTS = (
    "table2",
    "figure1",
    "figure2",
    "table1",
    "figure5",
    "figure6",
    "noise_robustness",
    "acquisition-ablation",
    "model-ablation",
)


def _tiny_scale(benchmarks=("mm",), repetitions=1, max_examples=20):
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


SCALE = _tiny_scale()


class TestRegistry:
    def test_every_artifact_is_registered(self):
        assert set(ALL_ARTIFACTS) <= set(spec_names())

    def test_default_artifacts_cover_the_report(self):
        assert DEFAULT_ARTIFACTS == (
            "table2",
            "figure1",
            "figure2",
            "table1",
            "figure5",
            "figure6",
        )

    def test_unknown_artifact_rejected(self):
        with pytest.raises(KeyError, match="unknown artifact"):
            get_spec("table3")

    def test_dependency_closure_and_order(self):
        ordered = [s.name for s in resolve_artifacts(["figure6", "figure5"])]
        assert ordered == ["table1", "figure6", "figure5"]

    def test_unit_params_round_trip_through_json(self):
        for name in ALL_ARTIFACTS:
            for unit in get_spec(name).work_units(SCALE):
                record = json.loads(json.dumps(unit.to_record()))
                assert WorkUnit.from_record(record) == unit

    def test_fingerprints_differ_across_scales(self):
        spec = get_spec("table1")
        assert spec.fingerprint(SCALE) != spec.fingerprint(
            _tiny_scale(max_examples=24)
        )


def _learning_fingerprint(result):
    return (
        [
            (p.cost_seconds, p.rmse, p.training_examples, p.observations)
            for p in result.curve.points
        ],
        (
            result.ledger.compile_seconds,
            result.ledger.runtime_seconds,
            result.ledger.compilations,
            result.ledger.executions,
        ),
        result.observation_counts,
    )


class TestHeldOutTestSetMemo:
    """Each process profiles a repetition's held-out test set once; a unit
    that reuses it runs exactly as one that builds it."""

    SIZE, OBSERVATIONS, SEED = 30, 3, 2017

    @pytest.fixture(autouse=True)
    def empty_memo(self):
        registry._TEST_SET_MEMO.clear()
        yield
        registry._TEST_SET_MEMO.clear()

    def _held_out(self, name="adi", seed=SEED):
        benchmark = get_benchmark(name)
        test_set = registry._held_out_test_set(
            benchmark, self.SIZE, self.OBSERVATIONS, seed
        )
        return benchmark, test_set

    def test_table1_unit_hit_matches_a_fresh_process(self):
        scale = _tiny_scale(benchmarks=("adi",))
        unit = get_spec("table1").work_units(scale)[1]
        execution = UnitExecution(scale)
        first = execution(unit)
        assert len(registry._TEST_SET_MEMO) == 1
        hit = execution(unit)
        assert len(registry._TEST_SET_MEMO) == 1
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
            fresh = pool.submit(execution, unit).result()
        assert _learning_fingerprint(hit) == _learning_fingerprint(fresh)
        assert _learning_fingerprint(first) == _learning_fingerprint(fresh)

    def test_hit_restores_the_noise_state_after_a_build(self):
        built, test_set = self._held_out()
        state = built.noise_model.drift_state()
        assert any(value != 0.0 for value in state), "adi should drift"
        reused, again = self._held_out()
        assert again is test_set
        assert reused.noise_model.drift_state() == state
        assert reused.noise_model is not built.noise_model
        # Each hit installs its own copy: one unit's drift never leaks into
        # the next unit's start.
        reused.noise_model.restore_drift_state([0.5 for _ in state])
        assert self._held_out()[0].noise_model.drift_state() == state

    def test_memoized_arrays_are_read_only(self):
        _, test_set = self._held_out("mm")
        with pytest.raises(ValueError):
            test_set.features[0, 0] = 1.0
        with pytest.raises(ValueError):
            test_set.mean_runtimes[0] = 1.0

    def test_memo_is_bounded(self):
        bound = registry._TEST_SET_MEMO_SIZE
        for seed in range(bound + 3):
            benchmark = get_benchmark("mm")
            registry._held_out_test_set(benchmark, 2, 1, seed)
            assert len(registry._TEST_SET_MEMO) <= bound
        assert ("mm", 2, 1, bound + 2) in registry._TEST_SET_MEMO
        assert ("mm", 2, 1, 0) not in registry._TEST_SET_MEMO


class TestSharedTestSets:
    """A sharded run profiles each held-out test set once per run
    directory: the first unit of a (benchmark, repetition) publishes it to
    ``inputs/`` and every other unit, on any worker or host, reads it."""

    SIZE, OBSERVATIONS, SEED = 30, 3, 2017

    @pytest.fixture(autouse=True)
    def empty_memo(self):
        registry._TEST_SET_MEMO.clear()
        yield
        registry._TEST_SET_MEMO.clear()

    @staticmethod
    def _count_builds(monkeypatch):
        builds = []
        real = registry.build_test_set

        def build(*args, **kwargs):
            builds.append(args[0].name)
            return real(*args, **kwargs)

        monkeypatch.setattr(registry, "build_test_set", build)
        return builds

    def _held_out(self, inputs_dir, name="adi"):
        benchmark = get_benchmark(name)
        test_set = registry._held_out_test_set(
            benchmark, self.SIZE, self.OBSERVATIONS, self.SEED, str(inputs_dir)
        )
        return benchmark, test_set

    def test_table1_unit_reading_the_set_matches_a_fresh_process(
        self, tmp_path, monkeypatch
    ):
        from repro.experiments.runner import _FileUnitContext

        scale = _tiny_scale(benchmarks=("adi",))
        first, second = get_spec("table1").work_units(scale)[:2]
        run_dir = tmp_path / "run"
        ExperimentRunner(run_dir, scale, artifacts=["table1"]).prepare()
        execution = UnitExecution(scale)
        execution.execute(first, _FileUnitContext(run_dir, first, 0))
        assert len(list((run_dir / "inputs").iterdir())) == 1
        registry._TEST_SET_MEMO.clear()
        builds = self._count_builds(monkeypatch)
        shared = execution.execute(second, _FileUnitContext(run_dir, second, 0))
        assert builds == []
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
            fresh = pool.submit(execution, second).result()
        assert _learning_fingerprint(shared) == _learning_fingerprint(fresh)

    def test_read_restores_the_drift_state_after_a_build(self, tmp_path, monkeypatch):
        built, test_set = self._held_out(tmp_path)
        state = built.noise_model.drift_state()
        assert any(value != 0.0 for value in state), "adi should drift"
        registry._TEST_SET_MEMO.clear()
        builds = self._count_builds(monkeypatch)
        read, again = self._held_out(tmp_path)
        assert builds == []
        assert read.noise_model.drift_state() == state
        assert np.array_equal(again.features, test_set.features)
        assert np.array_equal(again.mean_runtimes, test_set.mean_runtimes)
        assert again.configurations == test_set.configurations
        with pytest.raises(ValueError):
            again.features[0, 0] = 1.0
        # The read is memoized like a build: the next unit copies its drift.
        read.noise_model.restore_drift_state([0.5 for _ in state])
        assert self._held_out(tmp_path)[0].noise_model.drift_state() == state
        assert builds == []

    def test_flipped_byte_rebuilds_and_rewrites(self, tmp_path, monkeypatch):
        self._held_out(tmp_path)
        (path,) = tmp_path.iterdir()
        assert path.name == f"testset-adi-{self.SIZE}x{self.OBSERVATIONS}-s{self.SEED}.pkl"
        published = path.read_bytes()
        flipped = bytearray(published)
        flipped[-2] ^= 0x01
        path.write_bytes(bytes(flipped))
        registry._TEST_SET_MEMO.clear()
        builds = self._count_builds(monkeypatch)
        self._held_out(tmp_path)
        assert builds == ["adi"]
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        assert path.read_bytes() == published

    def test_verified_file_that_does_not_unpickle_is_rebuilt(
        self, tmp_path, monkeypatch
    ):
        # A digest-valid file whose pickle names a class that no longer
        # exists, as in a run directory resumed after a refactor.
        self._held_out(tmp_path)
        (path,) = tmp_path.iterdir()
        published = path.read_bytes()
        stale = b"cno_such_module_in_repro\nTestSet\n."
        path.write_bytes(hashlib.sha256(stale).hexdigest().encode("ascii") + b"\n" + stale)
        registry._TEST_SET_MEMO.clear()
        builds = self._count_builds(monkeypatch)
        self._held_out(tmp_path)
        assert builds == ["adi"]
        assert path.read_bytes() == published

    def test_in_memory_run_writes_no_file(self, tmp_path, monkeypatch):
        writes = []
        monkeypatch.setattr(
            registry, "_atomic_write_bytes", lambda path, payload: writes.append(path)
        )
        monkeypatch.chdir(tmp_path)
        run_artifacts(_tiny_scale(), ["table1"], workers=1)
        assert writes == []
        assert list(tmp_path.iterdir()) == []

    def test_two_worker_table1_leaves_one_file_per_repetition(self, tmp_path):
        scale = dataclasses.replace(ExperimentScale.smoke(), repetitions=2)
        run_dir = tmp_path / "run"
        ExperimentRunner(run_dir, scale, artifacts=["table1"]).run(workers=2)
        names = sorted(path.name for path in (run_dir / "inputs").iterdir())
        seeds = [
            registry.run_seeds(scale.comparison_config(), repetition, 0)[0]
            for repetition in range(scale.repetitions)
        ]
        assert len(set(seeds)) == 2
        assert names == sorted(
            f"testset-{name}-{scale.test_size}x{scale.test_observations}-s{seed}.pkl"
            for name in scale.benchmarks
            for seed in seeds
        )


class TestRoundTrip:
    """Every registered spec: decompose → execute sharded → fold equals the
    serial in-memory path, at any worker count."""

    @pytest.fixture(scope="class")
    def serial(self):
        return run_artifacts(SCALE, list(ALL_ARTIFACTS))

    @pytest.fixture(scope="class")
    def sharded(self, tmp_path_factory):
        run_dir = tmp_path_factory.mktemp("registry-roundtrip") / "run"
        runner = ExperimentRunner(
            run_dir, SCALE, artifacts=list(ALL_ARTIFACTS), checkpoint_interval=5
        )
        return runner.run(workers=2)

    @pytest.mark.parametrize("artifact", ALL_ARTIFACTS)
    def test_sharded_fold_equals_serial(self, artifact, serial, sharded):
        assert sharded[artifact].render() == serial[artifact].render()

    def test_workers_do_not_change_serial_results(self, serial):
        pooled = run_artifacts(SCALE, ["table2"], workers=2)
        assert pooled["table2"].render() == serial["table2"].render()
        # adi and correlation carry frequency-drift state across
        # measurements: Table 1 is worker-count invariant only because
        # every unit rebuilds its benchmark instead of sharing one.
        drift = _tiny_scale(benchmarks=("mm", "adi", "correlation"))
        one = run_artifacts(drift, ["table1"])["table1"]
        two = run_artifacts(drift, ["table1"], workers=2)["table1"]
        assert two.render() == one.render()

    def test_ablation_reports_cover_every_variant(self, serial):
        acquisition = serial["acquisition-ablation"]
        assert {row.variant for row in acquisition.rows} == {"alc", "alm", "random"}
        model = serial["model-ablation"]
        assert {row.variant for row in model.rows} == {"dynamic-tree", "gp", "knn"}
        for result in (acquisition, model):
            reference_rows = [
                row for row in result.rows if row.variant == result.reference_variant
            ]
            assert all(row.cost_ratio_vs_reference == 1.0 for row in reference_rows)


class TestInMemoryFailure:
    """The in-memory executor has no quarantine: a permanently failed
    measurement aborts the run with its own error at any worker count."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_measurement_propagates(self, workers):
        policy = BrokerPolicy(max_retries=1, inject_faults="fail-units=r001")
        with pytest.raises(MeasurementFailedError) as excinfo:
            run_artifacts(
                _tiny_scale(repetitions=2),
                ["table1"],
                workers=workers,
                broker_policy=policy,
            )
        assert "r001" in excinfo.value.dead_letter["unit"]


class _FoldedTable:
    """A stand-in folded artifact: a rendered report and one field."""

    def __init__(self, rows):
        self.rows = rows

    def render(self):
        return "\n".join(f"{name}: {value}" for name, value in self.rows)


class TestPartialArtifactResult:
    """Copies of a partial result look attributes up before ``__init__``
    has run; the delegation to the wrapped result must not recurse."""

    @staticmethod
    def _partial():
        quarantined = [{
            "unit": "table1--mm--one-observation--r001",
            "attempts": [{"error": "Traceback ...\nMeasurementFailedError: dead"}],
        }]
        return PartialArtifactResult(_FoldedTable([("mm", 1.5)]), 5, quarantined)

    @pytest.mark.parametrize("clone", [
        copy.copy,
        copy.deepcopy,
        lambda partial: pickle.loads(pickle.dumps(partial)),
    ], ids=["copy", "deepcopy", "pickle"])
    def test_clone_renders_the_same_report(self, clone):
        partial = self._partial()
        cloned = clone(partial)
        assert cloned.render() == partial.render()
        assert cloned.render().startswith("!! PARTIAL RESULT: 5/6 units folded")
        assert cloned.rows == [("mm", 1.5)]

    def test_missing_names_raise_attribute_error(self):
        partial = self._partial()
        with pytest.raises(AttributeError):
            partial.no_such_field
        # Before __init__ (as copy and pickle build it) nothing delegates.
        bare = PartialArtifactResult.__new__(PartialArtifactResult)
        with pytest.raises(AttributeError):
            bare.rows


class TestAtomicWrite:
    def test_two_threads_of_one_process_write_one_file(self, tmp_path, monkeypatch):
        """Two runners sharing a process (threads) publish the same file at
        once: each writes its own temporary file, so both renames succeed
        and the file holds one complete payload."""
        import os

        barrier = threading.Barrier(2)
        real_replace = os.replace

        def replace_together(source, destination):
            barrier.wait(timeout=30)
            return real_replace(source, destination)

        monkeypatch.setattr(registry.os, "replace", replace_together)
        path = tmp_path / "shared.pkl"
        errors = []

        def write(payload):
            try:
                registry._atomic_write_bytes(path, payload)
            except BaseException as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=write, args=(p,)) for p in (b"a" * 64, b"b" * 64)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert path.read_bytes() in (b"a" * 64, b"b" * 64)
        assert [p.name for p in tmp_path.iterdir()] == ["shared.pkl"]


class TestClaimLocking:
    def test_claim_is_exclusive(self, tmp_path):
        (tmp_path / "claims").mkdir()
        (tmp_path / "log").mkdir()
        claim = tmp_path / "claims" / "unit.claim"
        assert _try_claim(claim, lease_seconds=60.0)
        assert not _try_claim(claim, lease_seconds=60.0)

    def test_stale_claim_is_taken_over_and_journalled(self, tmp_path):
        (tmp_path / "claims").mkdir()
        (tmp_path / "log").mkdir()
        claim = tmp_path / "claims" / "unit.claim"
        stale = {
            "host": "dead-host",
            "pid": 1,
            "acquired": time.time() - 1000,
            "renewed": time.time() - 1000,
            "lease_seconds": 1.0,
        }
        claim.write_text(json.dumps(stale))
        assert _try_claim(claim, lease_seconds=60.0)
        events = [
            json.loads(line)["event"]
            for line in (tmp_path / "log" / "events.jsonl").read_text().splitlines()
        ]
        assert events == ["takeover", "claim"]
        # The new claim belongs to us now and excludes further contenders.
        assert not _try_claim(claim, lease_seconds=60.0)

    def test_fresh_claim_makes_execute_unit_step_aside(self, tmp_path):
        scale = SCALE
        runner = ExperimentRunner(
            tmp_path / "run", scale, artifacts=["table2"],
            checkpoint_interval=5, claim_lease_seconds=600.0,
        )
        manifest = runner.prepare()
        unit = manifest.units[0]
        claim = tmp_path / "run" / "claims" / f"{unit.unit_id}.claim"
        assert _try_claim(claim, lease_seconds=600.0)
        status = runner._queued_execution()(unit)
        assert status == "claimed"
        assert not (tmp_path / "run" / "results" / f"{unit.unit_id}.pkl").exists()

    def test_blocked_host_works_ahead_on_later_artifacts(self, tmp_path):
        """A host whose current artifact is fully claimed by a peer does
        not idle: it executes later artifacts' unclaimed units, and folds
        catch up once the peer publishes."""
        scale = SCALE
        run_dir = tmp_path / "run"
        runner = ExperimentRunner(
            run_dir,
            scale,
            artifacts=["table2", "figure2"],
            claim_poll_seconds=0.1,
        )
        manifest = runner.prepare()
        table2_units = [u for u in manifest.units if u.artifact == "table2"]
        figure2_unit = next(u for u in manifest.units if u.artifact == "figure2")
        claims = [
            run_dir / "claims" / f"{u.unit_id}.claim" for u in table2_units
        ]
        for claim in claims:
            assert _try_claim(claim, lease_seconds=600.0)

        outcome = {}
        worker = threading.Thread(
            target=lambda: outcome.update(runner.run(workers=1, resume=True))
        )
        worker.start()
        try:
            figure2_result = run_dir / "results" / f"{figure2_unit.unit_id}.pkl"
            deadline = time.monotonic() + 120
            while not figure2_result.exists():
                assert time.monotonic() < deadline, "work-ahead never happened"
                time.sleep(0.05)
            # Work-ahead proof: figure2 (a later artifact) is published
            # while every table2 unit is still claimed by the "peer".
            assert not any(
                (run_dir / "results" / f"{u.unit_id}.pkl").exists()
                for u in table2_units
            )
        finally:
            # The peer "releases" its units; the blocked host claims them.
            for claim in claims:
                claim.unlink(missing_ok=True)
            worker.join(timeout=300)
        assert not worker.is_alive()
        assert set(outcome) == {"table2", "figure2"}

    def test_two_hosts_share_one_queue_without_duplicate_execution(self, tmp_path):
        """Two runners (worker loops with independent claim state) pointed
        at one run directory: every unit executes exactly once, both merges
        agree — the multi-host contention guarantee."""
        scale = _tiny_scale(repetitions=2)
        run_dir = tmp_path / "run"
        ExperimentRunner(run_dir, scale, artifacts=["table1"]).prepare()
        outcomes = {}
        errors = []

        def host(tag):
            try:
                runner = ExperimentRunner(
                    run_dir,
                    scale,
                    artifacts=["table1"],
                    claim_poll_seconds=0.1,
                )
                outcomes[tag] = runner.run(workers=1, resume=True)
            except BaseException as exc:  # pragma: no cover - surfaced below
                errors.append((tag, exc))

        threads = [threading.Thread(target=host, args=(t,)) for t in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=600)
        assert not errors, errors
        assert set(outcomes) == {"a", "b"}
        assert (
            outcomes["a"]["table1"].render() == outcomes["b"]["table1"].render()
        )
        events = [
            json.loads(line)
            for line in (run_dir / "log" / "events.jsonl").read_text().splitlines()
        ]
        manifest_units = {
            unit.unit_id
            for unit in ExperimentRunner(
                run_dir, scale, artifacts=["table1"]
            ).prepare(resume=True).units
        }
        published = [e["unit"] for e in events if e["event"] == "publish"]
        executed = [e["unit"] for e in events if e["event"] == "execute"]
        assert sorted(published) == sorted(set(published)), "a unit published twice"
        assert sorted(executed) == sorted(set(executed)), "a unit executed twice"
        assert set(published) == manifest_units


class TestKillResumeMigratedArtifact:
    def test_partial_table2_run_resumes_bit_identically(self, tmp_path):
        """Kill→resume on a newly migrated artifact: a run that stopped
        after publishing only some of table2's units, resumed later,
        renders exactly like an uninterrupted run."""
        scale = _tiny_scale(benchmarks=("mm", "adi"))
        full = ExperimentRunner(
            tmp_path / "full", scale, artifacts=["table2"]
        ).run(workers=1)

        partial_dir = tmp_path / "partial"
        partial = ExperimentRunner(
            partial_dir, scale, artifacts=["table2"],
            checkpoint_interval=5, claim_lease_seconds=600.0,
        )
        manifest = partial.prepare()
        # Simulate the kill: only the first unit got published.
        assert partial._queued_execution()(manifest.units[0]) == "done"
        assert len(partial.pending_units(manifest)) == len(manifest.units) - 1

        resumed = ExperimentRunner(
            partial_dir, scale, artifacts=["table2"]
        ).run(workers=1, resume=True)
        assert resumed["table2"].render() == full["table2"].render()


class TestStreamingReport:
    def test_sections_stream_in_order(self):
        from repro.experiments.run_all import run_all

        seen = []
        report = run_all(
            SCALE,
            artifacts=["table2", "figure2"],
            section_sink=lambda name, text: seen.append(name),
        )
        assert seen == ["header", "table2", "figure2", "footer"]
        assert "Table 2" in report and "Figure 2" in report

    def test_dependency_only_artifacts_are_not_rendered(self):
        from repro.experiments.run_all import run_all

        seen = []
        report = run_all(
            SCALE,
            artifacts=["figure5"],
            section_sink=lambda name, text: seen.append(name),
        )
        # table1 runs (figure5 folds from it) but is not part of the report.
        assert seen == ["header", "figure5", "footer"]
        assert "Figure 5" in report
        assert "Table 1:" not in report

    def test_cli_output_streams_and_truncates(self, tmp_path):
        from repro.experiments.run_all import main

        def sections(text):
            # Everything but the wall-time footer, which is timing-dependent.
            return text.split("wall time")[0]

        out = tmp_path / "report.txt"
        assert main(["--scale", "smoke", "--only", "figure2", "--output", str(out)]) == 0
        first = out.read_text("utf-8")
        assert "Figure 2" in first
        # Re-running into the same file starts over instead of appending.
        assert main(["--scale", "smoke", "--only", "figure2", "--output", str(out)]) == 0
        assert sections(out.read_text("utf-8")) == sections(first)

    def test_cli_seed_overrides_the_scale_seed(self, tmp_path):
        """``--seed`` reseeds the whole run: two seeds give two Table 1
        reports, and the scale's own seed reproduces the default run."""
        from repro.experiments.run_all import main

        def table1(*extra):
            out = tmp_path / "report.txt"
            argv = ["--scale", "smoke", "--only", "table1", "--output", str(out)]
            assert main(argv + list(extra)) == 0
            return out.read_text("utf-8").split("wall time")[0]

        default = table1()
        assert "Table 1" in default
        assert table1("--seed", "2017") == default
        assert table1("--seed", "1") != table1("--seed", "2")

    def test_cli_rejects_seed_with_paper_scale_smoke(self, capsys):
        from repro.experiments.run_all import main

        with pytest.raises(SystemExit):
            main(["--paper-scale-smoke", "--seed", "3"])
        assert "--seed does not apply" in capsys.readouterr().err

    def test_cli_rejects_unknown_artifact(self, capsys):
        from repro.experiments.run_all import main

        with pytest.raises(SystemExit):
            main(["--only", "table3"])
        assert "unknown artifact" in capsys.readouterr().err

    def test_cli_rejects_only_with_paper_scale_smoke(self, capsys):
        from repro.experiments.run_all import main

        with pytest.raises(SystemExit):
            main(["--paper-scale-smoke", "--only", "table2"])
        assert "--only does not apply" in capsys.readouterr().err
