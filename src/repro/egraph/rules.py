"""The rewrite-rule set for QGL expression simplification.

The paper bootstrapped its rules from Herbie's real-valued rule set and
refined them with Enumo (section III-C).  This reproduction curates the
same families by hand: commutative-ring arithmetic, negation and
subtraction canonicalization, division, powers, the closed-form
trigonometric identities (parity, angle sum/difference, double angle,
Pythagorean), and exponential/logarithm laws.

The set is intentionally "sound modulo definedness" in the Herbie sense:
rules such as ``x/x => 1`` are excluded, while rules that are total on
the reals are included.  A few rules have a right side that is defined
where their left side is not (``0/a => 0`` at ``a = 0``); they are
listed by name in :data:`WIDENS_DEFINEDNESS`, and the rule tests fail
on any other rule that does so.
"""

from __future__ import annotations

import functools

from .pattern import Rewrite, bidirectional

__all__ = [
    "default_rules", "arithmetic_rules", "trig_rules", "exp_rules",
    "WIDENS_DEFINEDNESS",
]

#: Rules whose right side is defined (real and finite) at some points
#: where their left side is not: ``0/a``, ``a^b * a^c``,
#: ``sqrt(a) * sqrt(a)``, ``sqrt(a) * sqrt(b)`` and ``exp(ln(a))`` are
#: undefined for some ``a`` their rewrites accept.
WIDENS_DEFINEDNESS = frozenset(
    {"zero-div", "pow-sum", "sqrt-square", "sqrt-prod", "exp-ln"}
)


def arithmetic_rules() -> list[Rewrite]:
    rules: list[Rewrite] = []
    add = rules.extend
    add(bidirectional("comm-add", "(+ ?a ?b)", "(+ ?b ?a)"))
    add(bidirectional("comm-mul", "(* ?a ?b)", "(* ?b ?a)"))
    add(bidirectional("assoc-add", "(+ (+ ?a ?b) ?c)", "(+ ?a (+ ?b ?c))"))
    add(bidirectional("assoc-mul", "(* (* ?a ?b) ?c)", "(* ?a (* ?b ?c))"))
    rules.append(Rewrite("add-zero", "(+ ?a 0)", "?a"))
    rules.append(Rewrite("mul-one", "(* ?a 1)", "?a"))
    rules.append(Rewrite("mul-zero", "(* ?a 0)", "0"))
    rules.append(Rewrite("sub-zero", "(- ?a 0)", "?a"))
    rules.append(Rewrite("zero-sub", "(- 0 ?a)", "(~ ?a)"))
    rules.append(Rewrite("sub-self", "(- ?a ?a)", "0"))
    add(bidirectional("sub-canon", "(- ?a ?b)", "(+ ?a (~ ?b))"))
    rules.append(Rewrite("neg-neg", "(~ (~ ?a))", "?a"))
    add(bidirectional("neg-mul", "(* (~ ?a) ?b)", "(~ (* ?a ?b))"))
    add(bidirectional("neg-add", "(~ (+ ?a ?b))", "(+ (~ ?a) (~ ?b))"))
    add(
        bidirectional(
            "distribute", "(* ?a (+ ?b ?c))", "(+ (* ?a ?b) (* ?a ?c))"
        )
    )
    rules.append(Rewrite("div-one", "(/ ?a 1)", "?a"))
    rules.append(Rewrite("zero-div", "(/ 0 ?a)", "0"))
    add(bidirectional("div-mul", "(/ (* ?a ?b) ?c)", "(* ?a (/ ?b ?c))"))
    add(bidirectional("neg-div", "(/ (~ ?a) ?b)", "(~ (/ ?a ?b))"))
    add(
        bidirectional(
            "add-same", "(+ ?a ?a)", "(* 2 ?a)"
        )
    )
    return rules


def power_rules() -> list[Rewrite]:
    rules: list[Rewrite] = []
    rules.append(Rewrite("pow-zero", "(pow ?a 0)", "1"))
    rules.append(Rewrite("pow-one", "(pow ?a 1)", "?a"))
    rules.extend(bidirectional("pow-two", "(pow ?a 2)", "(* ?a ?a)"))
    rules.append(
        Rewrite("pow-sum", "(* (pow ?a ?b) (pow ?a ?c))", "(pow ?a (+ ?b ?c))")
    )
    rules.append(Rewrite("sqrt-square", "(* (sqrt ?a) (sqrt ?a))", "?a"))
    rules.append(
        Rewrite("sqrt-prod", "(* (sqrt ?a) (sqrt ?b))", "(sqrt (* ?a ?b))")
    )
    return rules


def trig_rules() -> list[Rewrite]:
    rules: list[Rewrite] = []
    add = rules.extend
    # Parity.
    add(bidirectional("sin-neg", "(sin (~ ?x))", "(~ (sin ?x))"))
    rules.append(Rewrite("cos-neg", "(cos (~ ?x))", "(cos ?x)"))
    rules.append(Rewrite("cos-neg-intro", "(cos ?x)", "(cos (~ ?x))"))
    # Angle sum and difference (the identities behind the U2/U3 CSE
    # example in paper section III-C).
    add(
        bidirectional(
            "sin-sum",
            "(sin (+ ?a ?b))",
            "(+ (* (sin ?a) (cos ?b)) (* (cos ?a) (sin ?b)))",
        )
    )
    add(
        bidirectional(
            "cos-sum",
            "(cos (+ ?a ?b))",
            "(- (* (cos ?a) (cos ?b)) (* (sin ?a) (sin ?b)))",
        )
    )
    add(
        bidirectional(
            "sin-diff",
            "(sin (- ?a ?b))",
            "(- (* (sin ?a) (cos ?b)) (* (cos ?a) (sin ?b)))",
        )
    )
    add(
        bidirectional(
            "cos-diff",
            "(cos (- ?a ?b))",
            "(+ (* (cos ?a) (cos ?b)) (* (sin ?a) (sin ?b)))",
        )
    )
    # Double angle.
    add(
        bidirectional(
            "sin-double", "(sin (* 2 ?x))", "(* 2 (* (sin ?x) (cos ?x)))"
        )
    )
    add(
        bidirectional(
            "cos-double",
            "(cos (* 2 ?x))",
            "(- (* (cos ?x) (cos ?x)) (* (sin ?x) (sin ?x)))",
        )
    )
    # Pythagorean identity.
    rules.append(
        Rewrite(
            "sin2-cos2",
            "(+ (* (sin ?x) (sin ?x)) (* (cos ?x) (cos ?x)))",
            "1",
        )
    )
    rules.append(
        Rewrite(
            "one-minus-sin2",
            "(- 1 (* (sin ?x) (sin ?x)))",
            "(* (cos ?x) (cos ?x))",
        )
    )
    rules.append(
        Rewrite(
            "one-minus-cos2",
            "(- 1 (* (cos ?x) (cos ?x)))",
            "(* (sin ?x) (sin ?x))",
        )
    )
    return rules


def exp_rules() -> list[Rewrite]:
    rules: list[Rewrite] = []
    add = rules.extend
    add(bidirectional("exp-sum", "(exp (+ ?a ?b))", "(* (exp ?a) (exp ?b))"))
    rules.append(Rewrite("exp-neg", "(exp (~ ?a))", "(/ 1 (exp ?a))"))
    rules.append(Rewrite("ln-exp", "(ln (exp ?a))", "?a"))
    rules.append(Rewrite("exp-ln", "(exp (ln ?a))", "?a"))
    add(
        bidirectional(
            "exp-pow", "(pow (exp ?a) ?b)", "(exp (* ?a ?b))"
        )
    )
    return rules


def default_rules() -> list[Rewrite]:
    """The full rule set used by the OpenQudit simplification pass.

    The rules are parsed and compiled once per process; every call
    returns a new list of the same (immutable) rewrites.
    """
    return list(_default_rules())


@functools.cache
def _default_rules() -> tuple[Rewrite, ...]:
    return tuple(
        arithmetic_rules() + power_rules() + trig_rules() + exp_rules()
    )
