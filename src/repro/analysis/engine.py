"""Verification of serialized engine payloads (the rehydration boundary).

A :class:`~repro.instantiation.SerializedEngine` crosses process
boundaries by construction: the parent pool pickles it, ships it to
spawn workers, and the worker rebuilds a live engine from the program
and simplified entries it carries (it ships no generated code; the
worker generates its megakernel and writers from the entries).  A
corrupt payload — a truncated expression table, a contract key that
disagrees with the bytecode — would otherwise surface only as
silently wrong numerics in that worker.

:func:`verify_engine` statically checks the payload before any of it
runs: the program passes the full bytecode verifier
(:func:`~repro.analysis.verifier.verify_program`), the shipped
compiled-expression table matches the program's expression table
one-to-one, and the engine settings (precision, strategy) are valid.
The kernel a worker generates is linted when it binds
(:func:`~repro.tnvm.fused.bind_fused_kernel`).  The payload carries
no contract of its own: the engine runs under its program's compiled
contract, which :func:`~repro.analysis.verifier.verify_program`
checks against the output shape and buffer.  The payload is
duck-typed so this module depends only on :mod:`repro.tensornet`.
"""

from __future__ import annotations

from .report import VerificationReport
from .verifier import verify_program

__all__ = ["verify_engine"]

_PRECISIONS = ("f32", "f64")
_STRATEGIES = ("sequential", "batched", "auto")


def verify_engine(
    payload: object, subject: str = "serialized engine"
) -> VerificationReport:
    """Statically verify a serialized engine payload.

    ``payload`` is duck-typed against
    :class:`~repro.instantiation.SerializedEngine`: ``program``,
    ``compiled``, ``precision``, ``strategy``.
    """
    report = VerificationReport(subject=subject)
    program = getattr(payload, "program", None)
    if program is None or not hasattr(program, "dynamic_section"):
        report.add(
            "engine-payload",
            f"payload carries no Program (got "
            f"{type(program).__name__})",
        )
        return report
    report.extend(verify_program(program))

    _check_settings(payload, report)
    _check_expressions(payload, program, report)
    return report


def _check_settings(
    payload: object, report: VerificationReport
) -> None:
    precision = getattr(payload, "precision", None)
    if precision not in _PRECISIONS:
        report.add(
            "engine-payload",
            f"precision {precision!r} is not one of {_PRECISIONS}",
        )
    strategy = getattr(payload, "strategy", None)
    if strategy not in _STRATEGIES:
        report.add(
            "engine-payload",
            f"strategy {strategy!r} is not one of {_STRATEGIES}",
        )


def _check_expressions(
    payload: object, program: object, report: VerificationReport
) -> None:
    compiled = tuple(getattr(payload, "compiled", ()))
    expressions = list(getattr(program, "expressions", []))
    if len(compiled) != len(expressions):
        report.add(
            "engine-payload",
            f"payload ships {len(compiled)} compiled expressions for "
            f"a program with {len(expressions)} table entries",
        )
        return
    for i, (comp, expr) in enumerate(zip(compiled, expressions)):
        cshape = tuple(getattr(comp, "shape", ()))
        eshape = tuple(getattr(expr, "shape", ()))
        if cshape != eshape:
            report.add(
                "engine-payload",
                f"compiled expression {i} has shape {cshape}, the "
                f"program's expression table entry has {eshape}",
                where=f"e{i}",
            )
        cnp = getattr(comp, "num_params", None)
        enp = getattr(expr, "num_params", None)
        if cnp != enp:
            report.add(
                "engine-payload",
                f"compiled expression {i} takes {cnp} parameters, the "
                f"table entry takes {enp}",
                where=f"e{i}",
            )
