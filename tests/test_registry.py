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
  completes, so a killed report run keeps its finished sections.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.core.learner import LearnerConfig
from repro.experiments.config import ExperimentScale
from repro.experiments.registry import (
    DEFAULT_ARTIFACTS,
    UnitContext,
    WorkUnit,
    get_spec,
    resolve_artifacts,
    run_artifacts,
    spec_names,
)
from repro.experiments.runner import (
    ExperimentRunner,
    _execute_unit,
    _try_claim,
)

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
        runner = ExperimentRunner(tmp_path / "run", scale, artifacts=["table2"])
        manifest = runner.prepare()
        unit = manifest.units[0]
        claim = tmp_path / "run" / "claims" / f"{unit.unit_id}.claim"
        assert _try_claim(claim, lease_seconds=600.0)
        unit_id, status = _execute_unit(
            str(tmp_path / "run"), "table2", scale, unit.to_record(), 5, 600.0
        )
        assert status == "claimed"
        assert not (tmp_path / "run" / "results" / f"{unit_id}.pkl").exists()

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
        partial = ExperimentRunner(partial_dir, scale, artifacts=["table2"])
        manifest = partial.prepare()
        # Simulate the kill: only the first unit got published.
        first = manifest.units[0]
        _execute_unit(
            str(partial_dir), "table2", scale, first.to_record(), 5, 600.0
        )
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
