"""The lockstep multi-start schedule (paper sections II-B and V-C).

An :class:`~repro.instantiation.instantiater.Instantiater` runs its
starts one of two ways.  The sequential schedule runs them one after
another through the scalar TNVM, and every start re-pays the Python
dispatch of the evaluation sweep.  The lockstep schedule here advances
all starts through one :class:`~repro.tnvm.vm.BatchedTNVM`: each LM
round is one vectorized forward/gradient sweep and one batched
normal-equation solve for every live start.

:class:`BatchedInstantiater` is that schedule and nothing else.  Its
owning engine draws the starts, builds the residuals, scans for the
winner and assembles the result for both schedules; this class keeps
the batched VMs (one per start count) and the batched LM call.  The
call's ``should_abandon`` hook stops the remaining starts once the
sequential scan's winner is decided, so the winning start and
``starts_used`` agree with the sequential schedule.
"""

from __future__ import annotations

import time
import weakref
from typing import TYPE_CHECKING

import numpy as np

from ..tnvm.vm import BatchedTNVM, Differentiation
from .lm import LMOptions, LMResult, batched_levenberg_marquardt

if TYPE_CHECKING:
    from .instantiater import Instantiater

__all__ = ["BatchedInstantiater"]


class BatchedInstantiater:
    """The lockstep schedule of one :class:`Instantiater`.

    Built by the owner on its first batched fit.  Batched TNVMs are
    built per distinct start count and cached, so repeated fits with
    the same number of starts reuse one arena (the Listing 3
    amortization, extended with a batch axis); their build time is
    added to the owner's ``aot_seconds``.

    The owner holds this schedule, and the schedule holds its owner
    weakly, so a dropped engine frees its VMs and arenas at once
    instead of at the next cyclic garbage collection.
    """

    def __init__(self, owner: Instantiater):
        self._owner = weakref.ref(owner)
        self._vms: dict[int, BatchedTNVM] = {}

    @property
    def owner(self) -> Instantiater:
        """The engine this schedule runs for."""
        return self._owner()

    def vm_for(self, batch: int) -> BatchedTNVM:
        """The owner's program on a ``batch``-row arena."""
        vm = self._vms.get(batch)
        if vm is None:
            owner = self.owner
            t0 = time.perf_counter()
            vm = BatchedTNVM(
                owner.program,
                batch=batch,
                precision=owner.precision,
                diff=Differentiation.GRADIENT,
                cache=owner.cache,
            )
            owner.aot_seconds += time.perf_counter() - t0
            self._vms[batch] = vm
        return vm

    def instantiate(
        self, residual_fn, guesses: np.ndarray, options: LMOptions
    ) -> list[LMResult]:
        """Run every row of ``guesses`` in lockstep; one run per start,
        in start order."""
        num_starts = len(guesses)
        success_cost = options.success_cost

        def should_abandon(live: list[bool], cost: list[float]) -> bool:
            # The sequential schedule stops after the first start s
            # where the best cost over starts 0..s reaches the
            # threshold.  Once every start of such a prefix has
            # finished, the remaining starts cannot change the result.
            best = np.inf
            for s in range(num_starts):
                if live[s]:
                    return False
                best = min(best, cost[s])
                if best <= success_cost:
                    return True
            return False

        return batched_levenberg_marquardt(
            residual_fn, guesses, options, should_abandon=should_abandon
        )
