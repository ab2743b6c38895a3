"""Pass-side checkpoint plumbing shared by the synthesis passes.

A synthesis pass wires a :class:`PassCheckpointer` between its rounds:
every round boundary writes a snapshot, and a pending
:class:`~repro.checkpoint.preempt.PreemptionGuard` signal (SIGTERM/
SIGINT) then abandons the executor and raises
:class:`~repro.checkpoint.preempt.PreemptedError` naming that snapshot.

Snapshots are self-describing: alongside the pass state they carry the
pass ``kind``, a fingerprint of the synthesis *target*, and a
fingerprint of the search *configuration*.  :func:`load_resume_state`
refuses to resume a snapshot whose kind, target, or config differs
from the caller's — resuming an A* frontier against a different
unitary (or different heuristic weights) would silently produce a
wrong-but-plausible circuit, the worst failure mode a resume can have.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .. import telemetry
from .preempt import PreemptedError, PreemptionGuard
from .store import CheckpointError, CheckpointStore

__all__ = [
    "PassCheckpointer",
    "config_fingerprint",
    "load_resume_state",
    "target_fingerprint",
]


def target_fingerprint(*arrays: np.ndarray, extra=()) -> str:
    """Content hash of the synthesis target (dtype + shape + bytes).

    ``extra`` admits non-array identity, e.g. a circuit structure key
    for passes whose target is an input circuit rather than a matrix.
    """
    digest = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        digest.update(str(arr.dtype).encode())
        digest.update(repr(arr.shape).encode())
        digest.update(arr.tobytes())
    for item in extra:
        digest.update(repr(item).encode())
    return digest.hexdigest()


def config_fingerprint(**fields) -> str:
    """Content hash of the knobs that shape a pass's search trajectory.

    Only knobs that change *which states are explored in which order*
    belong here — worker count explicitly does not, because results
    are bit-identical across it.
    """
    digest = hashlib.sha256()
    for name in sorted(fields):
        digest.update(f"{name}={fields[name]!r};".encode())
    return digest.hexdigest()


def load_resume_state(
    resume_from,
    *,
    kind: str,
    target: str,
    config: str,
) -> tuple[CheckpointStore, dict]:
    """Open ``resume_from`` and return its newest compatible snapshot.

    ``resume_from`` is a checkpoint directory path or an existing
    :class:`CheckpointStore`.  Returns ``(store, payload)`` so the
    resumed pass keeps checkpointing into the same store.  Raises
    :class:`CheckpointError` when no valid snapshot exists or the
    snapshot belongs to a different pass kind, target, or config.
    """
    store = (
        resume_from
        if isinstance(resume_from, CheckpointStore)
        else CheckpointStore(resume_from)
    )
    loaded = store.load_latest()
    if loaded is None:
        raise CheckpointError(
            f"resume_from={store.directory!r} holds no valid checkpoint "
            "snapshot (none written yet, or every snapshot is corrupt)"
        )
    payload, path = loaded
    if payload.get("kind") != kind:
        raise CheckpointError(
            f"checkpoint {path} was written by a "
            f"{payload.get('kind')!r} pass, not {kind!r}; refusing to "
            "resume across pass types"
        )
    if payload.get("target") != target:
        raise CheckpointError(
            f"checkpoint {path} was written for a different synthesis "
            "target; resuming it here would silently synthesize the "
            "wrong unitary — point resume_from at the matching "
            "checkpoint directory or start a fresh pass"
        )
    if payload.get("config") != config:
        raise CheckpointError(
            f"checkpoint {path} was written under a different search "
            "configuration (threshold/heuristic/layer/expansion knobs); "
            "a resumed frontier is only bit-identical under the exact "
            "configuration that produced it"
        )
    telemetry.metrics().counter("checkpoint.resumes").add()
    telemetry.tracer().instant(
        "checkpoint.resume", category="checkpoint",
        kind=kind, round=payload.get("round"),
    )
    return store, payload


class PassCheckpointer:
    """Round-boundary driver: one snapshot per boundary, then the
    preemption check.

    Enter it as a context manager for the duration of the pass (this
    installs the signal guard) and call :meth:`round_boundary` between
    rounds with the pass state.
    """

    def __init__(
        self,
        store: CheckpointStore,
        *,
        kind: str,
        target: str,
        config: str,
        executor=None,
    ):
        self.store = store
        self.kind = kind
        self.target = target
        self.config = config
        self.executor = executor
        self.guard = PreemptionGuard()

    def __enter__(self) -> PassCheckpointer:
        self.guard.__enter__()
        return self

    def __exit__(self, *exc_info) -> None:
        self.guard.__exit__(*exc_info)

    def _payload(self, round_index: int, state: dict, complete: bool):
        return {
            "kind": self.kind,
            "target": self.target,
            "config": self.config,
            "round": round_index,
            "complete": complete,
            "state": state,
        }

    def round_boundary(self, round_index: int, state) -> None:
        """Between-rounds hook: write a snapshot, then flush-and-raise
        if a preemption signal is pending.

        ``round_index`` counts *completed* rounds — ``state`` must
        describe exactly that boundary, so a resume replays no
        completed work and skips none.
        """
        path = self.store.save(
            self._payload(round_index, state, complete=False)
        )
        if self.guard.pending is not None:
            if self.executor is not None:
                self.executor.abandon()
            raise PreemptedError(self.guard.pending, round_index, path)

    def complete(self, round_index: int, result) -> str:
        """Record the finished pass so a later resume is a no-op that
        returns the stored result instead of redoing work."""
        payload = self._payload(round_index, {}, complete=True)
        payload["result"] = result
        return self.store.save(payload)
