"""Static verification for TNVM bytecode, contracts, and fused kernels.

``repro.analysis`` is an abstract interpreter over
:class:`~repro.tensornet.bytecode.Program` plus an AST-level lint for
generated megakernel source.  It runs entirely on metadata — shapes,
parameter dependencies, buffer lifetimes, source ASTs — so it is safe
at every trust boundary: after compilation
(``compile_network(..., verify=True)``), before ``exec``-ing a fused
kernel's source, and on rehydration of a
:class:`~repro.instantiation.SerializedEngine` in pools and spawn
workers.

Three entry points, each returning a
:class:`~repro.analysis.report.VerificationReport`:

* :func:`verify_program` — shape/dtype inference through both bytecode
  sections, def-use and liveness analysis across the
  constant/dynamic boundary, expression-table and slot range checks,
  forward-AD dependency-cover checks, and contract consistency.
* :func:`lint_kernel_source` / :func:`verify_kernel` — generated
  fused-kernel source is single-assignment, every free name binds to
  an arena view, a parameter unpack, or a whitelisted numpy callable,
  and no ``out=`` target aliases a still-live input.
* :func:`verify_engine` — a serialized payload's program, compiled
  expressions, settings, and shipped kernels are mutually coherent;
  the engine's contract is its program's, checked with the bytecode.

The ``maybe_*`` helpers wire these into the engine stack: they run the
check only when a caller passes ``verify=True`` or the
``REPRO_VERIFY=1`` environment switch is set (``verify=False`` wins
over the environment), bump the ``analysis.*`` telemetry counters, and
raise :class:`VerificationError` on failure.  The seeded mutation
corpus in :mod:`repro.analysis.mutations` proves the checks are not
vacuous.
"""

from __future__ import annotations

import os

from .engine import verify_engine
from .kernel_lint import (
    KERNEL_VIOLATION_CODES,
    lint_kernel_source,
    verify_kernel,
)
from .report import VerificationError, VerificationReport, Violation
from .verifier import PROGRAM_VIOLATION_CODES, verify_program

__all__ = [
    "KERNEL_VIOLATION_CODES",
    "PROGRAM_VIOLATION_CODES",
    "VerificationError",
    "VerificationReport",
    "Violation",
    "lint_kernel_source",
    "maybe_lint_kernel",
    "maybe_verify_engine",
    "maybe_verify_program",
    "verification_enabled",
    "verify_engine",
    "verify_kernel",
    "verify_program",
]

_ENV_SWITCH = "REPRO_VERIFY"


def verification_enabled(verify: bool | None = None) -> bool:
    """Resolve a tri-state ``verify`` flag against ``REPRO_VERIFY``.

    An explicit ``True``/``False`` wins; ``None`` defers to the
    environment (``REPRO_VERIFY`` set to anything but ``""``/``"0"``).
    Read per call so tests and workers can flip it at runtime.
    """
    if verify is not None:
        return verify
    return os.environ.get(_ENV_SWITCH, "0") not in ("", "0")


def _record(report: VerificationReport, counter: str) -> None:
    from .. import telemetry

    registry = telemetry.metrics()
    registry.counter(counter).add()
    if not report.ok:
        registry.counter("analysis.violations").add(
            len(report.violations)
        )


def maybe_verify_program(
    program: object,
    verify: bool | None = None,
    subject: str | None = None,
) -> None:
    """Verify ``program`` at a trust boundary if verification is on.

    Raises :class:`VerificationError` listing every violation; a
    no-op when verification is off.
    """
    if not verification_enabled(verify):
        return
    from .. import telemetry

    with telemetry.tracer().span("analysis.verify", kind="program"):
        report = verify_program(program, subject=subject)
    _record(report, "analysis.programs_verified")
    report.raise_if_failed()


def maybe_lint_kernel(
    kernel: object,
    verify: bool | None = None,
    subject: str = "",
) -> None:
    """Lint a fused kernel's source before it is ``exec``-ed."""
    if not verification_enabled(verify):
        return
    from .. import telemetry

    with telemetry.tracer().span("analysis.verify", kind="kernel"):
        report = verify_kernel(kernel, subject=subject)
    _record(report, "analysis.kernels_linted")
    report.raise_if_failed()


def maybe_verify_engine(
    payload: object,
    verify: bool | None = None,
    subject: str = "serialized engine",
) -> None:
    """Verify a serialized engine payload on rehydration."""
    if not verification_enabled(verify):
        return
    from .. import telemetry

    with telemetry.tracer().span("analysis.verify", kind="engine"):
        report = verify_engine(payload, subject=subject)
    _record(report, "analysis.engines_verified")
    report.raise_if_failed()
