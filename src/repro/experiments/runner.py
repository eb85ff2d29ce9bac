"""Sharded, checkpointed, multi-host backend for registry experiments.

Any artifact registered in :mod:`repro.experiments.registry` runs here:
the runner asks each selected :class:`~repro.experiments.registry.ExperimentSpec`
to decompose into seeded, order-independent work units and executes them
from a persistent on-disk queue:

* ``<run_dir>/manifest.jsonl`` — the task queue: a header fingerprinting
  the scale and the selected artifacts plus one record per work unit,
  written once when the run is created and validated on every resume (a
  manifest created for a different configuration refuses to resume rather
  than silently mixing results);
* ``<run_dir>/results/<unit>.pkl`` — one atomically written payload per
  completed unit; a unit with a result file is never re-run;
* ``<run_dir>/checkpoints/<unit>.0.pkl`` and ``<unit>.1.pkl`` — the
  in-flight unit's two checkpoint slots, written in turn every
  ``checkpoint_interval`` training examples and deleted when the unit completes.  Each write overwrites one slot in
  place and makes it durable with one ``fdatasync``: a JSON header line
  (the payload's sha256 and length, the checkpoint's sequence number and
  the unit's example progress, which feeds the ETA) followed by the
  pickled state (for learner units a
  :class:`~repro.core.session.TuningSession`).  A killed run resumes from
  the newest slot that verifies, and the resumed trajectory is
  bit-identical to the uninterrupted one;
* ``<run_dir>/inputs/testset-<benchmark>-<size>x<observations>-s<seed>.pkl``
  — each (benchmark, repetition)'s held-out test set, published by the
  first unit that profiles it and read by every other unit of the
  repetition, on any worker or host;
* ``<run_dir>/claims/<unit>.claim`` — per-unit claim files created with
  ``O_EXCL`` (host + pid + lease timestamp), so several *machines* can
  point workers at one shared run directory: a unit is executed by
  whichever worker wins the atomic create, peers skip fresh claims and
  poll for the owner's result, and a claim whose lease expired (owner
  died) is taken over via an atomic rename — exactly one contender wins.
  The owner's heartbeat thread renews the lease while the unit runs;
* ``<run_dir>/log/events.jsonl`` — an append-only journal of claim /
  execute / publish / takeover / fail / quarantine events (host, pid,
  timestamps; a publish also carries the unit's checkpoint count and
  seconds), fsynced per event, the audit trail the contention tests
  assert on; a torn tail from a killed writer is truncated on resume;
* ``<run_dir>/failed/<unit>.json`` — the attempt history of a unit whose
  execution raised: traceback, host, pid and time per attempt.  A unit
  that fails ``max_unit_attempts`` times is *quarantined* — excluded from
  further execution, its artifact folds from the completed units and the
  report says so explicitly (see :class:`PartialArtifactResult`).
  Permanently failed *measurements* dead-letter into
  ``failed/dead-letters.jsonl`` when a fault-tolerance
  :class:`~repro.measurement.faults.BrokerPolicy` is armed.

The runner adds only the run directory to the registry's executor core:
its job claims, executes and publishes a unit, and its collector reads
payloads and quarantine records back from disk, while the worker map and
the fold loop are the ones :func:`~repro.experiments.registry.run_artifacts`
uses.  Artifacts execute in dependency order; each one folds and
(optionally) streams its rendered report section as soon as its units are
complete, so a killed report run still leaves every finished section
behind.  ``run_all --paper-run`` drives this via :func:`run_paper_run`;
:class:`ExperimentRunner` is the programmatic surface.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import pickle
import random
import socket
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from hashlib import sha256
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..measurement.faults import BrokerPolicy
from .config import ExperimentScale
from .profiling import write_profile_summary
from .registry import (
    DEFAULT_ARTIFACTS,
    Collected,
    ExperimentSpec,
    PartialArtifactResult,
    UnitContext,
    UnitExecution,
    WorkUnit,
    _atomic_write_bytes,
    failure_summary_line,
    fold_artifacts,
    map_units,
    resolve_artifacts,
)

__all__ = [
    "WorkUnit",
    "RunManifest",
    "RunnerError",
    "ExperimentRunner",
    "PartialArtifactResult",
    "run_paper_run",
]

_MANIFEST_VERSION = 2


class RunnerError(RuntimeError):
    """A run directory cannot be created, resumed or merged."""


def _host_tag() -> str:
    return f"{socket.gethostname()}:{os.getpid()}"


def _append_event(
    run_dir: pathlib.Path, event: str, unit_id: str, **fields: Any
) -> None:
    """One journal line per event, written with a single ``O_APPEND`` write.

    ``fields`` are extra JSON values the event carries (a ``publish``
    carries the unit's checkpoint count and seconds).

    On local POSIX filesystems a single small append lands as one whole
    record, so concurrent writers interleave lines, never fragments.  On
    network filesystems ``O_APPEND`` is weaker (NFS emulates it
    client-side) and a torn line is possible under cross-host contention;
    the journal is an audit trail, not a correctness mechanism — claims
    and results rely only on ``O_EXCL`` create and atomic rename, which
    hold on NFSv3+."""
    line = (
        json.dumps(
            {
                "event": event,
                "unit": unit_id,
                "host": socket.gethostname(),
                "pid": os.getpid(),
                "time": time.time(),
                **fields,
            }
        )
        + "\n"
    ).encode("utf-8")
    path = run_dir / "log" / "events.jsonl"
    fd = os.open(path, os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o644)
    try:
        os.write(fd, line)
        # The journal is how a resumed run reconstructs what happened to a
        # crashed predecessor; fsync so a power loss right after an event
        # cannot lose it (a torn *partial* line is still possible and is
        # truncated away by _recover_journal on resume).
        os.fsync(fd)
    finally:
        os.close(fd)


def _recover_journal(run_dir: pathlib.Path) -> None:
    """Truncate a torn trailing line off ``log/events.jsonl``.

    A writer killed (or a machine powered off) mid-append can leave a
    partial final line.  Every complete line ends in a newline, so
    recovery is exact: cut the file back to its last newline.  Runs on
    every resume; a healthy journal is left byte-identical.
    """
    path = run_dir / "log" / "events.jsonl"
    try:
        size = path.stat().st_size
    except OSError:
        return
    if size == 0:
        return
    try:
        with open(path, "r+b") as handle:
            # A torn tail is at most one journal line; reading the last
            # 64 KiB bounds the scan on journals of any length.
            window = min(size, 65536)
            handle.seek(size - window)
            tail = handle.read()
            if tail.endswith(b"\n"):
                return
            cut = tail.rfind(b"\n")
            keep = (size - window) + (cut + 1 if cut >= 0 else 0)
            handle.truncate(keep)
            handle.flush()
            os.fsync(handle.fileno())
    except OSError:
        return  # unreadable journal: an audit trail, never a hard failure


# ----------------------------------------------------------------- failures


def _failure_path(run_dir: pathlib.Path, unit_id: str) -> pathlib.Path:
    return run_dir / "failed" / f"{unit_id}.json"


def _load_failure_record(
    run_dir: pathlib.Path, unit_id: str
) -> Optional[dict]:
    try:
        record = json.loads(_failure_path(run_dir, unit_id).read_text("utf-8"))
    except (OSError, ValueError):
        return None
    if not isinstance(record, dict) or "attempts" not in record:
        return None
    return record


def _record_unit_failure(
    run_dir: pathlib.Path, unit_id: str, error: str, max_attempts: int
) -> dict:
    """Append one failed attempt to ``failed/<unit>.json`` and return the
    updated record.  Only the claim owner writes, so the read-modify-write
    is serialised by the claim itself."""
    record = _load_failure_record(run_dir, unit_id)
    if record is None:
        record = {"unit": unit_id, "attempts": []}
    record["attempts"].append(
        {
            "host": socket.gethostname(),
            "pid": os.getpid(),
            "time": time.time(),
            "error": error,
        }
    )
    record["quarantined"] = len(record["attempts"]) >= max_attempts
    record["max_attempts"] = max_attempts
    _atomic_write_bytes(
        _failure_path(run_dir, unit_id),
        (json.dumps(record, indent=2) + "\n").encode("utf-8"),
    )
    return record


def _clear_unit_failure(run_dir: pathlib.Path, unit_id: str) -> None:
    try:
        _failure_path(run_dir, unit_id).unlink()
    except OSError:
        pass


def _unit_is_quarantined(
    run_dir: pathlib.Path, unit_id: str, max_attempts: int
) -> bool:
    """True once the unit has failed ``max_attempts`` times.

    Judged against the *current* limit, not the one recorded at failure
    time, so resuming with a larger ``--max-unit-attempts`` releases
    previously quarantined units for another try.
    """
    record = _load_failure_record(run_dir, unit_id)
    return record is not None and len(record["attempts"]) >= max_attempts


# ------------------------------------------------------------------- claims


def _claim_payload(lease_seconds: float) -> bytes:
    now = time.time()
    return json.dumps(
        {
            "host": socket.gethostname(),
            "pid": os.getpid(),
            "acquired": now,
            "renewed": now,
            "lease_seconds": lease_seconds,
        }
    ).encode("utf-8")


def _claim_is_stale(path: pathlib.Path, default_lease: float) -> bool:
    try:
        record = json.loads(path.read_text("utf-8"))
        renewed = float(record["renewed"])
        lease = float(record.get("lease_seconds", default_lease))
    except (OSError, ValueError, KeyError, TypeError):
        # Unreadable or torn claim: treat as stale once it is old enough
        # that no live writer can still be mid-create.
        try:
            renewed = path.stat().st_mtime
        except OSError:
            return False  # vanished: the owner released it
        return time.time() - renewed > default_lease
    if record.get("host") == socket.gethostname():
        # A dead local owner can be detected directly instead of waiting
        # out the lease: a SIGKILLed run (claims never released) resumes
        # instantly.  An *alive* pid still falls through to the lease
        # check — the owner's heartbeat renews the lease while it works,
        # so an expired lease under a live pid means a hung owner (or a
        # recycled pid) and the unit should be taken over.
        try:
            os.kill(int(record["pid"]), 0)
        except (ProcessLookupError, ValueError, TypeError):
            return True
        except PermissionError:
            pass  # alive, owned by another user
    return time.time() - renewed > lease


def _try_claim(path: pathlib.Path, lease_seconds: float) -> bool:
    """Atomically claim a unit; returns False when a peer holds a live claim.

    The create is ``O_EXCL``, so exactly one contender wins a free unit.
    A stale claim (owner's lease expired — it died without releasing) is
    taken over by renaming it aside first: rename is atomic and succeeds
    for exactly one contender, so two hosts discovering the same dead
    claim cannot both take it.
    """
    run_dir = path.parent.parent
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
    except FileExistsError:
        if not _claim_is_stale(path, lease_seconds):
            return False
        graveyard = path.with_name(f"{path.name}.stale.{_host_tag()}")
        try:
            os.rename(path, graveyard)
        except OSError:
            return False  # another contender won the takeover race
        try:
            graveyard.unlink()
        except OSError:
            pass
        _append_event(run_dir, "takeover", path.stem)
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        except FileExistsError:
            return False
    try:
        os.write(fd, _claim_payload(lease_seconds))
    finally:
        os.close(fd)
    _append_event(run_dir, "claim", path.stem)
    return True


def _renew_claim(path: pathlib.Path, lease_seconds: float) -> None:
    """Refresh the lease timestamp of a claim this worker owns."""
    _atomic_write_bytes(path, _claim_payload(lease_seconds))


def _release_claim(path: pathlib.Path) -> None:
    try:
        path.unlink()
    except OSError:
        pass


# ------------------------------------------------------------------ manifest


@dataclass(frozen=True)
class RunManifest:
    """The persistent task queue: configuration fingerprint plus work units."""

    fingerprint: str
    units: Tuple[WorkUnit, ...]

    @classmethod
    def build(
        cls, scale: ExperimentScale, specs: Sequence[ExperimentSpec]
    ) -> "RunManifest":
        units: List[WorkUnit] = []
        for spec in specs:
            units.extend(spec.work_units(scale))
        ids = [unit.unit_id for unit in units]
        if len(set(ids)) != len(ids):
            # Two unit keys that differ only in slugged-away characters
            # would share result/checkpoint paths and silently drop units.
            raise RunnerError(
                "work-unit ids collide after filesystem slugging; "
                "rename the offending plan/variant names"
            )
        fingerprint = sha256(
            repr(
                tuple((spec.name, spec.fingerprint(scale)) for spec in specs)
            ).encode("utf-8")
        ).hexdigest()[:16]
        return cls(fingerprint=fingerprint, units=tuple(units))

    def write(
        self, path: pathlib.Path, scale: ExperimentScale,
        artifacts: Sequence[str],
    ) -> None:
        lines = [
            json.dumps(
                {
                    "kind": "header",
                    "version": _MANIFEST_VERSION,
                    "fingerprint": self.fingerprint,
                    "scale": scale.name,
                    "artifacts": list(artifacts),
                    "units": len(self.units),
                }
            )
        ]
        lines.extend(json.dumps(unit.to_record()) for unit in self.units)
        _atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("utf-8"))

    @classmethod
    def read(cls, path: pathlib.Path) -> "RunManifest":
        units: List[WorkUnit] = []
        fingerprint: Optional[str] = None
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                if record.get("kind") == "header":
                    if record.get("version") != _MANIFEST_VERSION:
                        raise RunnerError(
                            f"manifest {path} has version {record.get('version')!r}; "
                            f"this code reads version {_MANIFEST_VERSION}"
                        )
                    fingerprint = record["fingerprint"]
                elif record.get("kind") == "unit":
                    units.append(WorkUnit.from_record(record))
        if fingerprint is None:
            raise RunnerError(f"manifest {path} has no header record")
        return cls(fingerprint=fingerprint, units=tuple(units))


# ----------------------------------------------------------- unit execution


#: Flushes a file's data (and the size, when it changed) to stable storage.
_datasync = getattr(os, "fdatasync", os.fsync)


def _checkpoint_header(line: bytes) -> Optional[dict]:
    """The header record of a checkpoint slot's first line, or None.

    A file without one (torn, corrupt, or written by an older layout)
    yields None.
    """
    try:
        record = json.loads(line)
    except ValueError:
        return None
    if not isinstance(record, dict) or not isinstance(record.get("sha256"), str):
        return None
    return record


def _verified_slot(blob: bytes, slot: int) -> Optional[Tuple[int, bytes]]:
    """``(sequence, payload)`` of a checkpoint slot's contents, or None
    unless the header is whole, belongs to ``slot`` and its digest matches
    the ``bytes`` of payload that follow it (anything after is ignored)."""
    line, _, rest = blob.partition(b"\n")
    header = _checkpoint_header(line)
    if header is None:
        return None
    sequence, size = header.get("sequence"), header.get("bytes")
    if not isinstance(sequence, int) or not isinstance(size, int):
        return None
    payload = rest[:size]
    if (
        sequence % 2 != slot
        or len(payload) != size
        or sha256(payload).hexdigest() != header["sha256"]
    ):
        return None
    return sequence, payload


def _write_slot(path: pathlib.Path, blob: bytes) -> None:
    """Overwrite ``path`` from offset 0 with ``blob`` and make it durable.

    The file is never truncated: bytes past the blob are left for the
    header's ``bytes`` to exclude.  When the blob outgrows the file, the
    file first grows to twice the blob, so most writes leave its size —
    filesystem metadata — alone and the flush is a data-only one.
    """
    fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
    try:
        if os.fstat(fd).st_size < len(blob):
            os.ftruncate(fd, 2 * len(blob))
        view = memoryview(blob)
        offset = 0
        while offset < len(blob):
            offset += os.pwrite(fd, view[offset:], offset)
        _datasync(fd)
    finally:
        os.close(fd)


class _FileUnitContext(UnitContext):
    """File-backed context for one claimed unit: checkpoints in two slots,
    held-out test sets shared through the run directory.

    The unit checkpoints into ``checkpoints/<unit>.0.pkl`` and
    ``<unit>.1.pkl`` in turn, checkpoint ``n`` into slot ``n % 2``.  A slot
    holds a JSON header line — the payload's sha256 and length, the
    checkpoint's ``sequence`` and the unit's progress (``examples`` of
    ``target``) — then the pickled state, written in place at offset 0 and
    made durable by one ``fdatasync``.  The slot being written never holds
    the newest checkpoint, so a kill anywhere in the write leaves either
    the previous checkpoint or the new one, never a mix.  Loading verifies
    both slots and resumes from the highest sequence that verifies; the
    next checkpoint goes to the other slot.  A slot that fails next to one
    that verifies is what a kill mid-write leaves and is skipped silently.
    When slots exist and none verifies — bitrot, a torn filesystem, a
    partial copy — or only a single-file ``<unit>.pkl`` of an older layout
    exists, the load is journalled as ``checkpoint-corrupt``, the files are
    deleted and the unit restarts cleanly instead of resuming from
    garbage.  The claim lease is renewed by the unit's
    :class:`_ClaimHeartbeat`, not by checkpoints.

    The slots assume one writer per unit.  A lease taken over from an
    owner that stalled rather than died leaves two live writers, whose
    in-place writes can interleave within one slot and leave both slots
    failing verification.  The unit then restarts with a
    ``checkpoint-corrupt`` entry: the progress is lost, but no mixed state
    is ever resumed, since a slot verifies only when its whole payload
    matches its header's digest (and both writers follow the same
    deterministic trajectory, so either one's verified checkpoint is the
    unit's).

    :attr:`inputs_dir` is the run directory's ``inputs/``, where the first
    unit of a (benchmark, repetition) publishes its held-out test set for
    every other unit on any worker or host (see
    :func:`~repro.experiments.registry._held_out_test_set`).

    The context counts the checkpoints it saves and their wall seconds
    (pickle, digest and durable write); the unit's ``publish`` event
    carries both.  The timing reads only a clock, never an RNG.
    """

    def __init__(
        self,
        run_dir: pathlib.Path,
        unit: WorkUnit,
        checkpoint_interval: int,
        replay_trace: Optional[str] = None,
        broker_policy: Optional[BrokerPolicy] = None,
    ) -> None:
        super().__init__(unit, replay_trace, broker_policy)
        self.checkpoint_interval = checkpoint_interval
        self.inputs_dir = str(run_dir / "inputs")
        self._run_dir = run_dir
        checkpoints = run_dir / "checkpoints"
        self._slots = tuple(
            checkpoints / f"{unit.unit_id}.{slot}.pkl" for slot in (0, 1)
        )
        self._legacy_path = checkpoints / f"{unit.unit_id}.pkl"
        self._sequence = 0
        self.checkpoints = 0
        self.checkpoint_seconds = 0.0

    def load_checkpoint(self) -> Optional[Any]:
        verified = []
        present = self._legacy_path.exists()
        for slot, path in enumerate(self._slots):
            try:
                blob = path.read_bytes()
            except OSError:
                continue
            present = True
            found = _verified_slot(blob, slot)
            if found is not None:
                verified.append(found)
        if not verified:
            if present:
                # Corrupted or older-layout checkpoints only: discard them
                # and restart the unit cleanly rather than resume from garbage.
                _append_event(self._run_dir, "checkpoint-corrupt", self.unit_id)
                self.cleanup()
            return None
        sequence, payload = max(verified)
        try:
            state = pickle.loads(payload)
        except (pickle.UnpicklingError, EOFError, AttributeError, ValueError):
            # Stale checkpoint layout: restart the unit, and drop the slots
            # so their sequences cannot outrank the restart's checkpoints.
            self.cleanup()
            return None
        self._sequence = sequence + 1
        return state

    def save_checkpoint(self, state: Any, done: int, target: int) -> None:
        start = time.perf_counter()
        payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        header = json.dumps(
            {
                "sha256": sha256(payload).hexdigest(),
                "bytes": len(payload),
                "sequence": self._sequence,
                "examples": done,
                "target": target,
            }
        )
        _write_slot(
            self._slots[self._sequence % 2],
            header.encode("utf-8") + b"\n" + payload,
        )
        self._sequence += 1
        self.checkpoints += 1
        self.checkpoint_seconds += time.perf_counter() - start

    def cleanup(self) -> None:
        for path in (*self._slots, self._legacy_path):
            try:
                path.unlink()
            except OSError:
                pass


class _ClaimHeartbeat:
    """Daemon thread renewing a claim's lease while its unit executes.

    Every executing unit runs under one, checkpointing or not: without it
    a long unit would outlive its lease and get taken over mid-execution
    by a polling peer.  The heartbeat renews at a third of the lease, so
    a live owner's claim is never stale no matter how long the unit runs.
    """

    def __init__(self, claim_path: pathlib.Path, lease_seconds: float) -> None:
        self._claim_path = claim_path
        self._lease_seconds = lease_seconds
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._beat, daemon=True)

    def _beat(self) -> None:
        while not self._stop.wait(self._lease_seconds / 3.0):
            _renew_claim(self._claim_path, self._lease_seconds)

    def __enter__(self) -> "_ClaimHeartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


@dataclass(frozen=True)
class _QueuedExecution:
    """Claim, execute and publish one unit of a run directory.

    The job the runner hands :func:`~repro.experiments.registry.map_units`;
    it pickles, so pool workers receive it with each unit.  Calling it
    returns the unit's status: ``"done"`` (executed and published),
    ``"already"`` (result existed), ``"claimed"`` (a peer holds a live
    claim; the caller should poll for the peer's result), ``"failed"``
    (this attempt raised; the failure is recorded and the unit stays
    retryable) or ``"quarantined"`` (the unit exhausted its
    ``max_unit_attempts`` and is excluded from further execution — its
    ``failed/<unit>.json`` holds the full attempt history).
    """

    execution: UnitExecution
    run_dir: pathlib.Path
    checkpoint_interval: int
    lease_seconds: float
    max_unit_attempts: int

    def __call__(self, unit: WorkUnit) -> str:
        base = self.run_dir
        result_path = base / "results" / f"{unit.unit_id}.pkl"
        if result_path.exists():
            return "already"
        if _unit_is_quarantined(base, unit.unit_id, self.max_unit_attempts):
            return "quarantined"
        claim_path = base / "claims" / f"{unit.unit_id}.claim"
        if not _try_claim(claim_path, self.lease_seconds):
            return "claimed"
        try:
            if result_path.exists():
                # The previous owner published between our staleness check
                # and the takeover; nothing to do.
                return "already"
            _append_event(base, "execute", unit.unit_id)
            try:
                context = _FileUnitContext(
                    base,
                    unit,
                    self.checkpoint_interval,
                    self.execution.replay_trace,
                    self.execution.broker_policy,
                )
                with _ClaimHeartbeat(claim_path, self.lease_seconds):
                    payload = self.execution.execute(unit, context)
            except Exception:
                # Graceful degradation: record the attempt (traceback +
                # host + time) while we still hold the claim — the claim
                # serialises the read-modify-write of the failure file —
                # and hand the unit back.  It stays retryable until
                # max_unit_attempts, then quarantines; KeyboardInterrupt
                # and friends still propagate.
                failure = _record_unit_failure(
                    base, unit.unit_id, traceback.format_exc(),
                    self.max_unit_attempts,
                )
                if failure.get("quarantined"):
                    _append_event(base, "quarantine", unit.unit_id)
                    return "quarantined"
                _append_event(base, "fail", unit.unit_id)
                return "failed"
            _atomic_write_bytes(
                result_path,
                pickle.dumps(
                    {"unit": unit.to_record(), "payload": payload},
                    protocol=pickle.HIGHEST_PROTOCOL,
                ),
            )
            _append_event(
                base,
                "publish",
                unit.unit_id,
                checkpoints=context.checkpoints,
                checkpoint_s=context.checkpoint_seconds,
            )
            context.cleanup()
            # A unit that failed on earlier attempts but succeeded now is
            # not a failure: keep the coverage report clean.
            _clear_unit_failure(base, unit.unit_id)
        finally:
            _release_claim(claim_path)
        return "done"


# ------------------------------------------------------------------- runner


class ExperimentRunner:
    """Sharded executor for registry artifacts over one run directory.

    One instance owns one run directory.  :meth:`run` creates (or resumes)
    the manifest covering the selected artifacts plus their dependency
    closure, executes every pending unit over ``workers`` processes with
    per-unit claims and checkpoints, folds each artifact as soon as its
    units complete (streaming the rendered section through ``on_result``),
    and returns the folded results by artifact name.

    Several hosts may point runners at one shared ``run_dir``: create the
    run once, then start every other host with ``resume=True`` (CLI:
    ``--resume``).  The per-unit claim files keep the hosts from executing
    the same unit twice; a host that dies mid-unit loses its claim after
    ``claim_lease_seconds`` and a peer takes the unit over from its last
    checkpoint.
    """

    def __init__(
        self,
        run_dir: os.PathLike,
        scale: ExperimentScale,
        artifacts: Optional[Sequence[str]] = None,
        checkpoint_interval: int = 25,
        claim_lease_seconds: float = 900.0,
        claim_poll_seconds: float = 2.0,
        replay_trace: Optional[str] = None,
        profile: bool = False,
        broker_policy: Optional[BrokerPolicy] = None,
        max_unit_attempts: int = 3,
    ) -> None:
        self.run_dir = pathlib.Path(run_dir)
        self.scale = scale
        self.artifacts = list(artifacts) if artifacts is not None else list(
            DEFAULT_ARTIFACTS
        )
        self.specs = resolve_artifacts(self.artifacts)
        if checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be at least 1")
        if claim_lease_seconds <= 0:
            raise ValueError("claim_lease_seconds must be positive")
        if max_unit_attempts < 1:
            raise ValueError("max_unit_attempts must be at least 1")
        self.checkpoint_interval = checkpoint_interval
        self.claim_lease_seconds = claim_lease_seconds
        self.claim_poll_seconds = claim_poll_seconds
        self.replay_trace = replay_trace
        self.max_unit_attempts = max_unit_attempts
        # Permanently failed measurements dead-letter into the run's failed/
        # directory unless the policy already names a destination.
        if broker_policy is not None and broker_policy.dead_letter_path is None:
            broker_policy = dataclasses.replace(
                broker_policy,
                dead_letter_path=str(
                    self.run_dir / "failed" / "dead-letters.jsonl"
                ),
            )
        self.broker_policy = broker_policy
        # Profiles live inside the run dir, next to the results they explain.
        self.profile_dir: Optional[str] = (
            str(self.run_dir / "profile") if profile else None
        )
        # Each host walks the open units in its own deterministic
        # permutation, so peers sharing a run directory spread across the
        # manifest instead of racing claim-by-claim at a common frontier.
        self._claim_order_seed = int.from_bytes(
            sha256(_host_tag().encode("utf-8")).digest()[:8], "big"
        )

    # ------------------------------------------------------------ queue state

    @property
    def manifest_path(self) -> pathlib.Path:
        return self.run_dir / "manifest.jsonl"

    def _result_path(self, unit: WorkUnit) -> pathlib.Path:
        return self.run_dir / "results" / f"{unit.unit_id}.pkl"

    def prepare(self, resume: bool = False) -> RunManifest:
        """Create the run directory and manifest, or validate an existing one.

        A fresh directory is always fine.  An existing manifest requires
        ``resume=True`` (guarding against accidentally pointing a new
        experiment at an old queue) and must fingerprint-match the current
        scale and artifact selection (guarding against silently mixing
        results from different experiments in one directory).
        """
        manifest = RunManifest.build(self.scale, self.specs)
        if self.manifest_path.exists():
            if not resume:
                raise RunnerError(
                    f"{self.run_dir} already holds a run; pass resume=True "
                    "(CLI: --resume) to continue it, or choose a fresh --run-dir"
                )
            existing = RunManifest.read(self.manifest_path)
            if existing.fingerprint != manifest.fingerprint:
                raise RunnerError(
                    f"{self.run_dir} was created for a different experiment "
                    f"configuration (fingerprint {existing.fingerprint} != "
                    f"{manifest.fingerprint}); refusing to mix results"
                )
            # The failed/ and inputs/ directories postdate early run
            # layouts; create them so failure recording and shared test
            # sets work on resumed legacy directories.
            for sub in ("failed", "inputs"):
                (self.run_dir / sub).mkdir(parents=True, exist_ok=True)
            # A predecessor killed mid-append may have left a torn final
            # journal line; cut it before this run appends to the file.
            _recover_journal(self.run_dir)
            return existing
        for sub in ("results", "checkpoints", "claims", "log", "failed", "inputs"):
            (self.run_dir / sub).mkdir(parents=True, exist_ok=True)
        manifest.write(self.manifest_path, self.scale, self.artifacts)
        return manifest

    def pending_units(
        self, manifest: Optional[RunManifest] = None
    ) -> List[WorkUnit]:
        """Units without a published result, in manifest order."""
        if manifest is None:
            manifest = RunManifest.read(self.manifest_path)
        return [
            unit for unit in manifest.units if not self._result_path(unit).exists()
        ]

    def quarantined_units(
        self, manifest: Optional[RunManifest] = None
    ) -> List[WorkUnit]:
        """Units quarantined after exhausting their attempts, manifest order."""
        if manifest is None:
            manifest = RunManifest.read(self.manifest_path)
        return [
            unit
            for unit in manifest.units
            if not self._result_path(unit).exists()
            and _unit_is_quarantined(
                self.run_dir, unit.unit_id, self.max_unit_attempts
            )
        ]

    def failure_records(self, units: Sequence[WorkUnit]) -> List[dict]:
        """The ``failed/<unit>.json`` records for ``units`` (existing ones)."""
        records = (
            _load_failure_record(self.run_dir, unit.unit_id) for unit in units
        )
        return [record for record in records if record is not None]

    # -------------------------------------------------------------- execution

    def run(
        self,
        workers: int = 1,
        resume: bool = False,
        progress: Optional[Callable[[str], None]] = None,
        progress_interval: float = 10.0,
        on_result: Optional[Callable[[ExperimentSpec, Any], None]] = None,
    ) -> Dict[str, Any]:
        """Execute every pending unit, fold every artifact, return results.

        ``workers == 1`` executes units in-process (still claiming and
        checkpointing); larger values fan the units out over a process
        pool.  ``progress`` receives human-readable status lines; pass
        ``print`` — or leave ``None`` for silence.  ``on_result`` fires
        with ``(spec, folded_result)`` as each artifact completes.
        """
        if workers < 1:
            raise ValueError("workers must be at least 1")
        manifest = self.prepare(resume=resume)
        say = progress if progress is not None else (lambda line: None)
        total = len(manifest.units)
        state = {"total": total, "started": time.monotonic()}
        say(
            f"run {self.run_dir}: {total} units across "
            f"{len(self.specs)} artifact(s) "
            f"({total - len(self.pending_units(manifest))} already complete, "
            f"{workers} worker{'s' if workers != 1 else ''})"
        )
        units_by_artifact = self._units_by_artifact(manifest)

        def collect(spec: ExperimentSpec) -> Collected:
            units = units_by_artifact.get(spec.name, [])
            later_units = [
                unit
                for later in self.specs[self.specs.index(spec) + 1 :]
                for unit in units_by_artifact.get(later.name, [])
            ]
            self._execute_artifact(
                spec, units, later_units, workers, say, state, progress_interval
            )
            return self._collect(units)

        def folded(spec: ExperimentSpec, result: Any) -> None:
            units = len(units_by_artifact.get(spec.name, []))
            if isinstance(result, PartialArtifactResult):
                say(
                    f"  artifact {spec.name}: folded PARTIAL "
                    f"({result.completed_units}/{units} unit(s), "
                    f"{len(result.quarantined)} quarantined)"
                )
            else:
                say(f"  artifact {spec.name}: folded ({units} unit(s))")
            if on_result is not None:
                on_result(spec, result)

        results = fold_artifacts(self.scale, self.specs, collect, folded)
        if self.profile_dir is not None:
            summary = write_profile_summary(self.profile_dir)
            if summary is not None:
                say(f"  profile summary: {summary}")
            else:
                say("  profile: no units executed on this host, nothing to merge")
        return results

    def _execute_artifact(
        self,
        spec: ExperimentSpec,
        units: Sequence[WorkUnit],
        later_units: Sequence[WorkUnit],
        workers: int,
        say: Callable[[str], None],
        state: dict,
        progress_interval: float,
    ) -> None:
        """Drive one artifact's units to completion, sharing with peers.

        Rounds of claim-and-execute alternate with polling: units claimed
        by another host are left to their owner, and the round loop exits
        only once every unit has a published result — either ours or a
        peer's.  A peer that dies mid-unit loses its claim after the lease
        and the next round takes the unit over.  While this artifact's
        remaining units are all claimed by peers, the host works *ahead*
        on later artifacts' unclaimed units instead of idling (the fold
        barrier gates only the fold, not execution).

        A unit whose execution keeps raising is retried (its attempts
        accumulate in ``failed/<unit>.json``) until it exhausts
        ``max_unit_attempts`` and quarantines; quarantined units leave
        the pending set, so a permanently broken unit degrades the
        artifact instead of hanging the run.
        """
        waiting_logged = False
        while True:
            pending = [
                u
                for u in units
                if not self._result_path(u).exists()
                and not self._unit_is_quarantined(u)
            ]
            if not pending:
                return
            # Only dispatch units that look claimable right now — checking
            # a claim file in-process is cheap, spinning a process pool up
            # every poll just to discover peers hold every claim is not.
            # (The check races benignly: the claim itself is arbitrated by
            # the atomic create inside _execute_unit.)
            executed = 0
            claimable = self._claim_order(
                [u for u in pending if self._unit_is_open(u)]
            )
            if claimable:
                executed = self._execute_round(
                    claimable, workers, say, state, progress_interval
                )
            if executed:
                waiting_logged = False
                continue
            ahead = self._claim_order(
                [
                    u
                    for u in later_units
                    if not self._result_path(u).exists()
                    and not self._unit_is_quarantined(u)
                    and self._unit_is_open(u)
                ]
            )
            if ahead and self._execute_round(
                ahead, workers, say, state, progress_interval
            ):
                continue
            if not waiting_logged:
                say(
                    f"  artifact {spec.name}: "
                    f"{len(pending)} unit(s) claimed by other hosts; waiting"
                )
                waiting_logged = True
            time.sleep(self.claim_poll_seconds)

    def _unit_is_open(self, unit: WorkUnit) -> bool:
        """True when the unit has no live claim (free, or stale takeover)."""
        claim = self.run_dir / "claims" / f"{unit.unit_id}.claim"
        return not claim.exists() or _claim_is_stale(claim, self.claim_lease_seconds)

    def _unit_is_quarantined(self, unit: WorkUnit) -> bool:
        return _unit_is_quarantined(
            self.run_dir, unit.unit_id, self.max_unit_attempts
        )

    def _claim_order(self, units: List[WorkUnit]) -> List[WorkUnit]:
        """Permute ``units`` into this host's deterministic claim order.

        Every host sees the same open units but attempts them in a
        host-specific shuffle (seeded from :func:`_host_tag`), so two
        runners sharing a directory mostly claim disjoint units instead
        of colliding on the O_EXCL create one unit at a time.  The
        permutation is a pure reordering — completion of every unit is
        unaffected, and a single-host run stays deterministic because
        results are keyed by unit, not by execution order.
        """
        if len(units) < 2:
            return units
        shuffled = list(units)
        random.Random(self._claim_order_seed).shuffle(shuffled)
        return shuffled

    def _execute_round(
        self,
        pending: Sequence[WorkUnit],
        workers: int,
        say: Callable[[str], None],
        state: dict,
        progress_interval: float,
    ) -> int:
        """One claim-and-execute pass over ``pending`` (units may belong
        to different artifacts — each resolves its spec by name); returns
        how many units this invocation actually ran (claimed elsewhere →
        0).  Failed and quarantined attempts count as activity — they
        advanced the unit's attempt history — so the caller re-plans
        immediately instead of sleeping on the claim-poll interval."""
        executed = 0

        def done(unit: WorkUnit, status: str) -> None:
            nonlocal executed
            executed += status in ("done", "failed", "quarantined")
            if workers > 1:
                return  # a pool reports progress once per wake-up instead
            if status in ("done", "already"):
                say(self._status_line(state))
            elif status in ("failed", "quarantined"):
                say(f"  unit {unit.unit_id}: attempt failed ({status})")

        map_units(
            self._queued_execution(),
            pending,
            workers,
            done,
            on_wake=lambda: say(self._status_line(state)),
            wake_seconds=progress_interval,
        )
        return executed

    def _queued_execution(self) -> _QueuedExecution:
        """The picklable job that claims, executes and publishes a unit."""
        return _QueuedExecution(
            UnitExecution(
                self.scale, self.replay_trace, self.profile_dir, self.broker_policy
            ),
            self.run_dir,
            self.checkpoint_interval,
            self.claim_lease_seconds,
            self.max_unit_attempts,
        )

    def _status_line(self, state: dict) -> str:
        """One progress line: units, in-flight example counts, elapsed, ETA.

        The completed count comes from the results directory, so units
        published by peer hosts show up too.  Each in-flight unit counts
        once, from the header of its newest checkpoint slot.
        """
        total = state["total"]
        results_dir = self.run_dir / "results"
        done = (
            len(list(results_dir.glob("*.pkl"))) if results_dir.is_dir() else 0
        )
        elapsed = time.monotonic() - state["started"]
        # unit id -> (sequence, examples, target) of its newest slot header
        newest: Dict[str, Tuple[int, int, int]] = {}
        for path in (self.run_dir / "checkpoints").glob("*.[01].pkl"):
            try:
                with open(path, "rb") as handle:
                    header = _checkpoint_header(handle.readline())
                if header is None:
                    continue
                progress = (
                    int(header["sequence"]),
                    int(header.get("examples", 0)),
                    int(header.get("target", 0)),
                )
            except (OSError, KeyError, ValueError, TypeError):
                continue
            unit_id = path.name[: -len(".0.pkl")]
            newest[unit_id] = max(newest.get(unit_id, progress), progress)
        inflight = [(examples, target) for _, examples, target in newest.values()]
        # ETA from whole-unit completion rate plus fractional credit for
        # in-flight learner units (their checkpoint headers report examples).
        fractional = sum(
            examples / target for examples, target in inflight if target > 0
        )
        effective = done + fractional
        if effective > 0 and elapsed > 0 and total > done:
            eta = (total - effective) * (elapsed / effective)
            eta_text = f", ETA {eta / 60.0:.1f} min"
        else:
            eta_text = ""
        inflight_text = (
            f", in flight {sum(e for e, _ in inflight)} examples"
            if inflight
            else ""
        )
        return (
            f"  units {done}/{total}{inflight_text}, "
            f"elapsed {elapsed / 60.0:.1f} min{eta_text}"
        )

    # ------------------------------------------------------------------ merge

    def _load_payload(self, unit: WorkUnit) -> Any:
        with open(self._result_path(unit), "rb") as handle:
            return pickle.load(handle)["payload"]

    def _units_by_artifact(
        self, manifest: RunManifest
    ) -> Dict[str, List[WorkUnit]]:
        units_by_artifact: Dict[str, List[WorkUnit]] = {}
        for unit in manifest.units:
            units_by_artifact.setdefault(unit.artifact, []).append(unit)
        return units_by_artifact

    def _collect(self, units: Sequence[WorkUnit]) -> Collected:
        """The published payloads of ``units`` and the failure records of
        the rest, which a finished run holds only for quarantined units."""
        completed: List[WorkUnit] = []
        missing: List[WorkUnit] = []
        for unit in units:
            (completed if self._result_path(unit).exists() else missing).append(unit)
        return (
            [(unit, self._load_payload(unit)) for unit in completed],
            self.failure_records(missing),
        )

    def merge(self, manifest: Optional[RunManifest] = None) -> Dict[str, Any]:
        """Fold every artifact from the completed results on disk.

        Raises :class:`RunnerError` when any unit is missing a result for
        a reason other than quarantine — folding a merely *incomplete* run
        would silently bias averaged curves.  Quarantined units (execution
        failed ``max_unit_attempts`` times) are the explicit exception:
        their artifacts fold from the completed units and come back
        wrapped in :class:`PartialArtifactResult`, whose rendering leads
        with the coverage report.
        """
        if manifest is None:
            manifest = RunManifest.read(self.manifest_path)
        incomplete = [
            unit
            for unit in self.pending_units(manifest)
            if not self._unit_is_quarantined(unit)
        ]
        if incomplete:
            raise RunnerError(
                f"cannot merge {self.run_dir}: {len(incomplete)} unit(s) "
                f"incomplete (first: {incomplete[0].unit_id})"
            )
        units_by_artifact = self._units_by_artifact(manifest)
        return fold_artifacts(
            self.scale,
            self.specs,
            lambda spec: self._collect(units_by_artifact.get(spec.name, [])),
        )


def run_paper_run(
    scale: ExperimentScale,
    run_dir: os.PathLike,
    artifacts: Optional[Sequence[str]] = None,
    workers: int = 1,
    resume: bool = False,
    repetitions: Optional[int] = None,
    checkpoint_interval: int = 25,
    progress: Optional[Callable[[str], None]] = None,
    section_sink: Optional[Callable[[str, str], None]] = None,
    replay_trace: Optional[str] = None,
    profile: bool = False,
    broker_policy: Optional[BrokerPolicy] = None,
    max_unit_attempts: int = 3,
) -> str:
    """Drive registry artifacts through the sharded backend; return the report.

    ``artifacts`` defaults to the consolidated report
    (:data:`~repro.experiments.registry.DEFAULT_ARTIFACTS`); any registered
    artifact name — including the ablation specs — is accepted.  Each
    artifact's rendered section goes to ``section_sink`` as soon as it
    folds (dependency-only artifacts are computed but not rendered), and
    the full report is returned at the end.  ``replay_trace`` points every
    unit's measurement broker at a recorded
    :class:`~repro.measurement.broker.ReplayTrace` directory, so matching
    measurements are served from disk instead of re-profiled.  ``profile``
    wraps every unit in cProfile and leaves per-unit dumps plus a merged
    top-25 summary under ``<run_dir>/profile/`` (see
    :mod:`repro.experiments.profiling`).

    ``broker_policy`` arms the fault-tolerance chain (retries, deadlines,
    chaos injection — see :class:`~repro.measurement.faults.BrokerPolicy`)
    around every unit's measurements, and ``max_unit_attempts`` bounds how
    often a failing unit is retried before it is quarantined to
    ``failed/<unit>.json``.  A run with quarantined units still completes:
    affected artifacts fold from the units that succeeded and the report
    ends with a "Quarantined units" section enumerating what is missing.
    """
    if repetitions is not None:
        if repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        scale = dataclasses.replace(scale, repetitions=repetitions)
    selected = list(artifacts) if artifacts is not None else list(DEFAULT_ARTIFACTS)
    runner = ExperimentRunner(
        run_dir,
        scale,
        artifacts=selected,
        checkpoint_interval=checkpoint_interval,
        replay_trace=replay_trace,
        profile=profile,
        broker_policy=broker_policy,
        max_unit_attempts=max_unit_attempts,
    )
    say = progress if progress is not None else (
        lambda line: print(line, file=sys.stderr, flush=True)
    )
    header = (
        f"Paper run (scale: {scale.name}, benchmarks: "
        f"{', '.join(scale.benchmarks)}, repetitions: {scale.repetitions}, "
        f"artifacts: {', '.join(selected)}, run dir: {run_dir})"
    )
    sections = [header]
    if section_sink is not None:
        section_sink("header", header)
    requested = set(selected)

    def on_result(spec: ExperimentSpec, result: Any) -> None:
        if spec.name not in requested:
            return
        text = result.render()
        sections.append(text)
        if section_sink is not None:
            section_sink(spec.name, text)

    runner.run(workers=workers, resume=resume, progress=say, on_result=on_result)
    quarantined = runner.quarantined_units()
    if quarantined:
        lines = [
            "Quarantined units",
            "-----------------",
            f"{len(quarantined)} unit(s) failed {runner.max_unit_attempts} "
            "time(s) and were excluded from the folds above (full attempt "
            "histories in failed/<unit>.json):",
        ]
        lines.extend(
            f"  - {failure_summary_line(record)}"
            for record in runner.failure_records(quarantined)
        )
        text = "\n".join(lines)
        sections.append(text)
        if section_sink is not None:
            section_sink("quarantine", text)
    return "\n\n".join(sections)
