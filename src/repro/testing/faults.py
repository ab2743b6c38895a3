"""Deterministic fault injection for chaos-testing candidate execution.

The executor's recovery paths (crash retry, deadlines, NaN quarantine,
serial fallback) are only trustworthy if they can be *provoked on
demand, deterministically* — including inside spawned worker
processes, where a test cannot reach with a monkeypatch.  This module
is that trigger: production code calls :func:`maybe_fault` at a named
fault point, and the injector consults the ``REPRO_FAULT`` environment
variable (inherited by ``spawn``/``forkserver`` children created after
it is set) to decide whether this particular hit should crash, hang,
or corrupt.

Spec grammar (``REPRO_FAULT=<kind>[@<point>]:<selector>``):

* kind — ``crash`` (``os._exit``, **worker processes only**; inert in
  the main process so a serial fallback cannot kill the parent),
  ``hang`` (sleep ``REPRO_FAULT_HANG`` seconds, default 3600),
  ``nan`` (returned to the caller, which corrupts its own numbers), or
  ``sigterm`` (``os.kill(getpid(), SIGTERM)``, **main process only** —
  the mirror asymmetry of ``crash`` — used to provoke the checkpoint
  subsystem's preemption flush);
* point — which :func:`maybe_fault` call site the spec arms; defaults
  to ``worker_fit`` (the executor's per-candidate hook, preserving the
  pre-point grammar).  The synthesis passes expose ``round`` at their
  round boundaries.  Hits at non-matching points neither fire nor
  claim ticks;
* selector — which hits fire:

  - ``always`` — every hit;
  - ``once`` — the first hit only (alias of ``first1``);
  - ``first<N>`` — the first ``N`` hits;
  - ``tick<N>`` — the ``N``-th hit only (0-based);
  - ``seed<K>`` — every hit whose ``key`` equals ``K`` (a "poison
    job" that fails on every retry).

Hit ordinals ("ticks") are claimed atomically across *all* processes
through marker files in ``REPRO_FAULT_DIR`` (``O_CREAT | O_EXCL`` —
each tick is claimed exactly once no matter how many workers race for
it), so ``once`` means once per run, not once per process.  Without a
fault dir the counter is process-local, which is only correct for
single-process use.

Why this is deterministic where it matters: *which* job claims a given
tick depends on scheduling, but candidate seeds derive from structure
keys, so a crashed-and-retried job reproduces its clean-run result
bit-for-bit regardless of which worker (or which attempt) computes it.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from contextlib import contextmanager, suppress
from dataclasses import dataclass

__all__ = [
    "FaultSpec",
    "KillReport",
    "parse_spec",
    "active_spec",
    "maybe_fault",
    "activate",
    "run_and_kill",
    "ENV_SPEC",
    "ENV_DIR",
    "ENV_HANG",
    "ENV_EXIT",
]

ENV_SPEC = "REPRO_FAULT"
ENV_DIR = "REPRO_FAULT_DIR"
ENV_HANG = "REPRO_FAULT_HANG"
ENV_EXIT = "REPRO_FAULT_EXIT"

KINDS = ("crash", "hang", "nan", "sigterm")

#: The fault point armed when a spec names none (the executor's
#: per-candidate hook, matching the pre-point spec grammar).
DEFAULT_POINT = "worker_fit"

#: Process-local tick counter, used only when no fault dir is set.
_local_ticks = 0


@dataclass(frozen=True)
class FaultSpec:
    """One parsed fault directive."""

    kind: str
    #: "always", "first", "tick", or "seed"
    selector: str
    #: first N / tick N / seed K (unused for "always")
    value: int = 0
    #: The :func:`maybe_fault` call site this spec arms.
    point: str = DEFAULT_POINT

    def needs_tick(self) -> bool:
        return self.selector in ("first", "tick")

    def matches(self, tick: int | None, key: object) -> bool:
        if self.selector == "always":
            return True
        if self.selector == "first":
            return tick is not None and tick < self.value
        if self.selector == "tick":
            return tick is not None and tick == self.value
        # "seed": fire on a specific job identity, every attempt.
        return key == self.value


def parse_spec(text: str | None) -> FaultSpec | None:
    """Parse a ``REPRO_FAULT`` value; ``None``/empty disables."""
    if not text:
        return None
    head, _, selector = text.partition(":")
    kind, _, point = head.partition("@")
    point = point or DEFAULT_POINT
    if kind not in KINDS:
        raise ValueError(
            f"unknown fault kind {kind!r}; expected one of {KINDS}"
        )
    selector = selector or "once"
    if selector == "always":
        return FaultSpec(kind, "always", point=point)
    if selector == "once":
        return FaultSpec(kind, "first", 1, point=point)
    for prefix in ("first", "tick", "seed"):
        if selector.startswith(prefix):
            try:
                value = int(selector[len(prefix):])
            except ValueError:
                break
            return FaultSpec(kind, prefix, value, point=point)
    raise ValueError(
        f"unknown fault selector {selector!r}; expected always/once/"
        "first<N>/tick<N>/seed<K>"
    )


def active_spec() -> FaultSpec | None:
    """The spec currently in the environment (re-read on every call,
    so tests can flip it without touching module state)."""
    return parse_spec(os.environ.get(ENV_SPEC))


def _claim_tick(fault_dir: str | None) -> int:
    """Atomically claim the next global hit ordinal.

    With a fault dir, the claim is a marker file created with
    ``O_CREAT | O_EXCL`` — the filesystem guarantees exactly one
    process wins each ordinal.  Without one, a process-local counter
    is used (single-process runs only).
    """
    global _local_ticks
    if fault_dir is None:
        tick = _local_ticks
        _local_ticks += 1
        return tick
    n = 0
    while True:
        try:
            fd = os.open(
                os.path.join(fault_dir, f"tick-{n}"),
                os.O_CREAT | os.O_EXCL | os.O_WRONLY,
            )
            os.close(fd)
            return n
        except FileExistsError:
            n += 1


def _in_worker_process() -> bool:
    return multiprocessing.parent_process() is not None


def maybe_fault(point: str, key: object = None) -> str | None:
    """Consult the active spec at a named fault point.

    ``key`` identifies the unit of work (the executor passes the job's
    candidate seed) so ``seed<K>`` selectors can poison one specific
    job.  Hard faults act here: ``crash`` exits the worker process
    immediately (inert in the main process), ``hang`` sleeps.  Soft
    faults are returned — ``"nan"`` tells the caller to corrupt its own
    result, keeping the corruption at the caller's numerical boundary.

    Returns the kind that fired for soft faults, else ``None``.
    """
    spec = active_spec()
    if spec is None or spec.point != point:
        # A non-matching point must not claim ticks: a parent-side
        # "round" hit consuming "once" would defuse a worker spec.
        return None
    tick = (
        _claim_tick(os.environ.get(ENV_DIR)) if spec.needs_tick() else None
    )
    if not spec.matches(tick, key):
        return None
    if spec.kind == "crash":
        if _in_worker_process():
            os._exit(int(os.environ.get(ENV_EXIT, "23")))
        return None
    if spec.kind == "hang":
        time.sleep(float(os.environ.get(ENV_HANG, "3600")))
        return None
    if spec.kind == "sigterm":
        if not _in_worker_process():
            os.kill(os.getpid(), signal.SIGTERM)
        return None
    return spec.kind


@contextmanager
def activate(spec: str, fault_dir: str, hang_seconds: float | None = None):
    """Arm the injector for a ``with`` block (test helper).

    Sets the environment variables — the only channel that reaches
    spawned workers — and restores the previous values on exit.  Pass
    a fresh ``fault_dir`` per activation: tick markers persist, so a
    reused dir would continue the previous run's count.
    """
    parse_spec(spec)  # fail fast on a typo, before any worker sees it
    saved = {
        name: os.environ.get(name) for name in (ENV_SPEC, ENV_DIR, ENV_HANG)
    }
    os.environ[ENV_SPEC] = spec
    os.environ[ENV_DIR] = fault_dir
    if hang_seconds is not None:
        os.environ[ENV_HANG] = repr(float(hang_seconds))
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


@dataclass(frozen=True)
class KillReport:
    """What :func:`run_and_kill` observed."""

    #: ``Process.exitcode`` after the run (negative = killed by signal).
    exitcode: int | None
    #: True when the harness delivered its signal (the pass was still
    #: running once the snapshot threshold was reached).
    killed: bool
    #: Checkpoint snapshots present in ``watch_dir`` afterwards.
    snapshots: int


def _group_leader(target, args) -> None:
    """:func:`run_and_kill`'s spawned entry point: lead a new process
    group, so the harness's signal also reaches every process the
    victim starts (pool workers, multiprocessing helpers), then run
    ``target(*args)``."""
    os.setpgid(0, 0)
    target(*args)


def run_and_kill(
    target,
    args=(),
    *,
    watch_dir: str,
    snapshots: int = 1,
    kill_signal: int = signal.SIGKILL,
    poll_seconds: float = 0.05,
    timeout: float = 300.0,
    mp_context: str = "spawn",
) -> KillReport:
    """Run ``target(*args)`` in a subprocess and kill it mid-pass.

    The harness polls ``watch_dir`` until at least ``snapshots``
    checkpoint snapshot files exist — proof the pass is past its first
    round boundary — then delivers ``kill_signal`` (default SIGKILL,
    real unblockable process death, not a simulated exception) to the
    subprocess's process group and reaps the subprocess.  The
    subprocess leads its own group, so the signal reaches the worker
    processes it started too, and whatever of the group is still
    alive when the harness returns is SIGKILLed: a killed pass leaves
    no orphaned workers behind.  ``target`` must be a module-level
    callable (it crosses a ``spawn`` pickle boundary).

    The kill races the pass by design: the victim may die mid-round,
    mid-snapshot-write, or even after finishing.  Every outcome must
    leave ``watch_dir`` resumable — that is the property under test.
    Raises :class:`TimeoutError` if the subprocess neither reaches the
    snapshot threshold nor exits within ``timeout`` seconds.
    """
    from ..checkpoint import snapshot_count

    ctx = multiprocessing.get_context(mp_context)
    proc = ctx.Process(target=_group_leader, args=(target, tuple(args)))
    proc.start()
    killed = False
    deadline = time.monotonic() + timeout
    try:
        while proc.is_alive():
            if snapshot_count(watch_dir) >= snapshots:
                os.killpg(proc.pid, kill_signal)
                killed = True
                break
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"subprocess produced fewer than {snapshots} "
                    f"snapshot(s) in {watch_dir} within {timeout}s"
                )
            time.sleep(poll_seconds)
        proc.join(timeout)
        if proc.is_alive():
            raise TimeoutError("killed subprocess failed to exit")
    finally:
        # The group is gone (ProcessLookupError) once every member has
        # exited, or does not exist yet if the subprocess never got to
        # lead it.
        with suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        if proc.is_alive():
            proc.kill()
            proc.join(10.0)
    return KillReport(
        exitcode=proc.exitcode,
        killed=killed,
        snapshots=snapshot_count(watch_dir),
    )
