"""PreemptionGuard latching and PassCheckpointer round boundaries."""

import os
import signal

import pytest

from repro.checkpoint import (
    CheckpointStore,
    PassCheckpointer,
    PreemptedError,
    PreemptionGuard,
)


class TestPreemptionGuard:
    def test_latches_sigterm_without_raising(self):
        with PreemptionGuard() as guard:
            assert guard.pending is None
            os.kill(os.getpid(), signal.SIGTERM)
            assert guard.pending == signal.SIGTERM

    def test_restores_previous_handlers(self):
        before = signal.getsignal(signal.SIGTERM)
        with PreemptionGuard():
            assert signal.getsignal(signal.SIGTERM) is not before
        assert signal.getsignal(signal.SIGTERM) is before

    def test_first_sigint_latches_second_raises(self):
        with PreemptionGuard() as guard:
            os.kill(os.getpid(), signal.SIGINT)
            assert guard.pending == signal.SIGINT
            with pytest.raises(KeyboardInterrupt):
                os.kill(os.getpid(), signal.SIGINT)
                signal.default_int_handler  # force a bytecode boundary


class _Abandonable:
    def __init__(self):
        self.abandoned = 0

    def abandon(self):
        self.abandoned += 1


def checkpointer(tmp_path, **kwargs):
    store = CheckpointStore(str(tmp_path))
    kwargs.setdefault("kind", "search")
    kwargs.setdefault("target", "t")
    kwargs.setdefault("config", "c")
    return PassCheckpointer(store, **kwargs)


class TestPassCheckpointer:
    def test_every_rounds_cadence(self, tmp_path):
        ck = checkpointer(tmp_path)
        with ck:
            for r in range(5):
                ck.round_boundary(r, {"round": r})
        # Every boundary writes; the store keeps the newest 3.
        assert len(ck.store.snapshots()) == 3
        state, _ = ck.store.load_latest()
        assert state["round"] == 4
        assert state["complete"] is False
        assert state["kind"] == "search"

    def test_preemption_flushes_tears_down_and_raises(self, tmp_path):
        executor = _Abandonable()
        ck = checkpointer(tmp_path, executor=executor)
        with ck:
            ck.round_boundary(0, {"round": 0})  # no signal yet
            assert len(ck.store.snapshots()) == 1
            ck.guard.pending = signal.SIGTERM
            with pytest.raises(PreemptedError) as err:
                ck.round_boundary(3, {"round": 3})
        assert executor.abandoned == 1
        assert err.value.round_index == 3
        assert err.value.signum == signal.SIGTERM
        assert os.path.exists(err.value.snapshot_path)
        state, path = ck.store.load_latest()
        assert path == err.value.snapshot_path
        assert state["round"] == 3

    def test_complete_snapshot_carries_result(self, tmp_path):
        ck = checkpointer(tmp_path)
        ck.complete(7, result={"the": "result"})
        state, _ = ck.store.load_latest()
        assert state["complete"] is True
        assert state["round"] == 7
        assert state["result"] == {"the": "result"}
